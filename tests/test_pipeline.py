import dataclasses
import functools
import hashlib
import logging
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from cerwu.engine import CompressionConfig
from cerwu.entropy import CONTEXT
from cerwu.errors import InputError, ShapeError
from cerwu.modelio import QuantizedRecord, TensorFile, write_tensor_file
from cerwu.pipeline import (
    accuracy,
    collect_hessians,
    compress_model,
    decompress_model,
    evaluate_model,
    forward,
    quantizable_names,
)
from cerwu import sweep
from cerwu.sweep import SweepPoint, run_sweep, sweep_configs


def tiny_model(rng):
    model = TensorFile()
    model.add("l1.weight", rng.normal(size=(6, 8)))
    model.add("l1.bias", rng.normal(size=6))
    model.add("l2.weight", rng.normal(size=(3, 6)))
    model.add("l2.bias", rng.normal(size=3))
    calib = TensorFile()
    x = rng.normal(size=(8, 32))
    calib.add("l1.weight.activations", x)
    w1 = model["l1.weight"].astype(np.float64)
    b1 = model["l1.bias"].astype(np.float64)
    h = np.maximum(w1 @ x + b1[:, None], 0.0)
    calib.add("l2.weight.activations", h)
    return model, calib


class TestHessians:
    def test_quantizable_names_orders_2d(self):
        rng = np.random.default_rng(0)
        model, _ = tiny_model(rng)
        assert quantizable_names(model) == ["l1.weight", "l2.weight"]

    def test_missing_activations_names_layer(self):
        rng = np.random.default_rng(1)
        model, calib = tiny_model(rng)
        del calib.entries["l2.weight.activations"]
        with pytest.raises(InputError, match="l2.weight"):
            collect_hessians(model, calib)

    def test_cache_hit_logged(self, tmp_path, caplog):
        rng = np.random.default_rng(2)
        model, calib = tiny_model(rng)
        calib_path = tmp_path / "calib.tns"
        write_tensor_file(calib, calib_path)
        cache = tmp_path / "h.npz"
        with caplog.at_level(logging.INFO, logger="cerwu"):
            h1 = collect_hessians(model, calib, calib_path=calib_path, cache_path=cache)
            assert any("cache written" in r.message for r in caplog.records)
            caplog.clear()
            h2 = collect_hessians(model, calib, calib_path=calib_path, cache_path=cache)
            assert any("cache hit" in r.message for r in caplog.records)
        for name in h1:
            assert np.array_equal(h1[name], h2[name])

    def test_cache_invalidated_on_content_change(self, tmp_path, caplog):
        rng = np.random.default_rng(3)
        model, calib = tiny_model(rng)
        calib_path = tmp_path / "calib.tns"
        write_tensor_file(calib, calib_path)
        cache = tmp_path / "h.npz"
        collect_hessians(model, calib, calib_path=calib_path, cache_path=cache)
        # rewrite the calibration data: different content hash
        calib.entries["l1.weight.activations"] = (
            calib["l1.weight.activations"] * 2.0
        )
        write_tensor_file(calib, calib_path)
        with caplog.at_level(logging.INFO, logger="cerwu"):
            h = collect_hessians(model, calib, calib_path=calib_path, cache_path=cache)
            assert not any("cache hit" in r.message for r in caplog.records)
        x = calib["l1.weight.activations"].astype(np.float64)
        assert np.allclose(h["l1.weight"], 2 * x @ x.T)

    def test_cache_key_is_whole_file_sha256(self, tmp_path):
        # a calibration file over 1 MiB is hashed in several chunks
        rng = np.random.default_rng(4)
        model, _ = tiny_model(rng)
        calib = TensorFile()
        calib.add("l1.weight.activations", rng.normal(size=(8, 40000)))
        calib.add("l2.weight.activations", rng.normal(size=(6, 40000)))
        calib_path = tmp_path / "calib.tns"
        write_tensor_file(calib, calib_path)
        assert calib_path.stat().st_size > 2 << 20
        cache = tmp_path / "h.npz"
        collect_hessians(model, calib, calib_path=calib_path, cache_path=cache)
        with np.load(cache) as npz:
            key = str(npz["calib_sha256"])
        assert key == hashlib.sha256(calib_path.read_bytes()).hexdigest()


class TestCompressDecompress:
    def test_round_trip_preserves_raw_and_dequantizes(self):
        rng = np.random.default_rng(4)
        model, calib = tiny_model(rng)
        hes = collect_hessians(model, calib)
        cfg = CompressionConfig(lam=0.01, grid_size=9, model_kind=CONTEXT)
        report = compress_model(model, hes, cfg)
        recon = decompress_model(report.compressed)
        assert np.array_equal(recon["l1.bias"], model["l1.bias"])
        for name in quantizable_names(model):
            assert recon[name].shape == model[name].shape
            # reconstruction lies on the grid near the original weights
            assert np.max(np.abs(recon[name] - model[name])) <= 1.0

    def test_stats_cover_quantized_layers(self):
        rng = np.random.default_rng(5)
        model, calib = tiny_model(rng)
        hes = collect_hessians(model, calib)
        report = compress_model(model, hes, CompressionConfig(lam=0.0, grid_size=5))
        assert [s.name for s in report.layers] == ["l1.weight", "l2.weight"]
        assert report.bits_per_weight > 0
        for s in report.layers:
            gap = s.actual_bits - s.predicted_rate_bits
            assert 0 <= gap <= 64 + 0.001 * s.predicted_rate_bits

    def test_rtn_needs_no_hessian(self):
        rng = np.random.default_rng(6)
        model, _ = tiny_model(rng)
        report = compress_model(
            model, {}, CompressionConfig(lam=0.0, grid_size=5, method="rtn")
        )
        assert len(report.layers) == 2

    @pytest.mark.parametrize("kind,digest", [
        ("static", "a77977b54bdb3bdd17273700a2e77471d2909827375a25a5ffd53a22cfd20621"),
        ("adaptive", "528fc73a055697e7baf8e4ebbb3b1f921b48e94d0e4156c90d83305a7cadba93"),
        ("context", "53a0852127b6384fa6f27d4c22afa8d493073df0e485d081ee2f0ddd365c9279"),
    ], ids=["static", "adaptive", "context"])
    def test_rtn_payloads_pinned(self, mlp_fixture, kind, digest):
        # sha256 of the fixture's two layer payloads, concatenated: the
        # engine-vs-baseline byte checks would miss a drift both share
        cfg = CompressionConfig(lam=0.03, grid_size=9, model_kind=kind, method="rtn")
        records = compress_model(mlp_fixture["model"], {}, cfg).compressed.records
        payloads = [r.payload for r in records if isinstance(r, QuantizedRecord)]
        assert len(payloads) == 2
        assert hashlib.sha256(b"".join(payloads)).hexdigest() == digest

    def test_column_major_file_round_trip(self, tmp_path):
        from cerwu.engine import model_spec_for, quantize_layer
        from cerwu.grids import COLUMN_MAJOR, build_grid
        from cerwu.modelio import read_compressed, write_compressed

        rng = np.random.default_rng(7)
        model, calib = tiny_model(rng)
        hes = collect_hessians(model, calib)
        cfg = CompressionConfig(lam=0.02, grid_size=7, scan_order=COLUMN_MAJOR,
                                model_kind=CONTEXT)
        report = compress_model(model, hes, cfg)
        path = tmp_path / "col.cwm"
        write_compressed(report.compressed, path)
        recon = decompress_model(read_compressed(path))
        for name in quantizable_names(model):
            w = model[name].astype(np.float64)
            grid = build_grid(w, 7)
            res = quantize_layer(w, hes[name], grid, cfg, model=model_spec_for(w, grid, cfg))
            expect = np.asarray(res.quantized.dequantize(), dtype=np.float32)
            assert np.array_equal(recon[name], expect)


def assert_same_tensors(got: TensorFile, expected: TensorFile):
    """Same names in the same order, each array bitwise equal in shape and dtype."""
    assert list(got.entries) == list(expected.entries)
    for name, a in expected.entries.items():
        b = got[name]
        assert (b.shape, b.dtype) == (a.shape, a.dtype), name
        assert b.tobytes() == a.tobytes(), name


class TestReconstruction:
    """The reconstruction a compress reports is what decoding its payloads gives."""

    @pytest.mark.parametrize("method", ["cerwu", "rtn"])
    @pytest.mark.parametrize("scan_order", ["row-major", "column-major"])
    @pytest.mark.parametrize("kind", ["static", "adaptive", "context"])
    def test_fixture_reconstruction_is_the_decoders(self, mlp_fixture, kind, scan_order,
                                                    method):
        cfg = CompressionConfig(lam=0.03, grid_size=9, scan_order=scan_order,
                                model_kind=kind, method=method)
        report = compress_model(mlp_fixture["model"], mlp_fixture["hessians"], cfg)
        assert_same_tensors(report.reconstruction, decompress_model(report.compressed))

    @pytest.mark.parametrize("method", ["cerwu", "rtn"])
    def test_4d_kernel_reconstruction_is_the_decoders(self, method):
        # both paths return the kernel as its (out, in*kh*kw) matrix
        rng = np.random.default_rng(30)
        model = TensorFile()
        model.add("conv.weight", rng.normal(size=(4, 2, 3, 3)))
        model.add("conv.bias", rng.normal(size=4))
        calib = TensorFile()
        calib.add("conv.weight.activations", rng.normal(size=(18, 40)))
        cfg = CompressionConfig(lam=0.03, grid_size=9, method=method)
        report = compress_model(model, collect_hessians(model, calib), cfg)
        assert report.reconstruction["conv.weight"].shape == (4, 18)
        assert_same_tensors(report.reconstruction, decompress_model(report.compressed))


class TestForwardAccuracy:
    def test_forward_matches_manual(self):
        rng = np.random.default_rng(7)
        model, _ = tiny_model(rng)
        x = rng.normal(size=(5, 8))
        manual = np.maximum(
            x @ model["l1.weight"].T.astype(np.float64)
            + model["l1.bias"].astype(np.float64),
            0.0,
        ) @ model["l2.weight"].T.astype(np.float64) + model["l2.bias"].astype(
            np.float64
        )
        assert np.allclose(forward(model, x), manual, atol=1e-6)

    def test_architecture_mismatch(self):
        rng = np.random.default_rng(8)
        model, _ = tiny_model(rng)
        with pytest.raises(ShapeError, match="architecture"):
            forward(model, rng.normal(size=(5, 7)))

    def test_accuracy_counts_argmax(self):
        model = TensorFile()
        model.add("only.weight", np.eye(3))
        test = TensorFile()
        test.add("test.features", np.array([[9, 0, 0], [0, 9, 0], [0, 0, 9.0]]))
        test.add("test.labels", np.array([0.0, 1.0, 0.0]))
        assert accuracy(model, test) == pytest.approx(2.0 / 3.0)


class TestEvaluate:
    def test_self_evaluation_zero_loss(self):
        rng = np.random.default_rng(9)
        model, calib = tiny_model(rng)
        report = evaluate_model(model, model, calib)
        assert report.total_loss == 0.0
        assert report.accuracy is None

    def test_rtn_loss_matches_oracle(self):
        from cerwu.grids import build_grid, round_to_nearest

        rng = np.random.default_rng(10)
        model, calib = tiny_model(rng)
        report = compress_model(
            model, {}, CompressionConfig(lam=0.0, grid_size=3, method="rtn")
        )
        recon = decompress_model(report.compressed)
        ev = evaluate_model(model, recon, calib)
        for name in quantizable_names(model):
            w = model[name].astype(np.float64)
            x = calib[name + ".activations"].astype(np.float64)
            grid = build_grid(w, 3)
            q = round_to_nearest(w, grid)
            # the file path stores float32 reconstructions; quantize the
            # comparison the same way
            q_f32 = np.asarray(q.dequantize(), dtype=np.float32).astype(np.float64)
            direct = float(np.sum(((w - q_f32) @ x) ** 2))
            assert abs(ev.layer_losses[name] - direct) <= 1e-10 * max(1.0, direct)


def reference_point(config, model, calib, hessians, test=None) -> SweepPoint:
    """A sweep row computed one configuration at a time, decoding the
    payload: compress, decompress, evaluate (``wall_ms`` left out)."""
    try:
        report = compress_model(model, hessians, config)
        ev = evaluate_model(model, decompress_model(report.compressed), calib, test,
                            compressed=report.compressed)
        outcome = dict(bits_per_weight=ev.bits_per_weight, layer_loss=ev.total_loss,
                       accuracy=ev.accuracy)
    except Exception as exc:
        outcome = dict(error=f"{type(exc).__name__}: {exc}")
    return SweepPoint(lam=config.lam, grid_size=config.grid_size,
                      scan_order=config.scan_order, model_kind=config.model_kind, **outcome)


def without_wall(points):
    return [dataclasses.replace(p, wall_ms=None) for p in points]


class InProcessPool:
    """Stands in for ``ProcessPoolExecutor``: runs the jobs here, the way a
    worker would, without a process. Records each pool's size and jobs."""

    started = []  # (max_workers, jobs) per pool, reset by ``install``

    def __init__(self, max_workers, initializer, initargs):
        self.jobs = []
        self.started.append((max_workers, self.jobs))
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        sweep._init_worker()

    def map(self, fn, jobs):
        self.jobs.extend(jobs)
        return map(fn, self.jobs)

    @classmethod
    def install(cls, monkeypatch):
        cls.started = []
        monkeypatch.setattr(sweep, "ProcessPoolExecutor", cls)
        return cls.started


class TestRunSweep:
    def test_rows_in_lexicographic_order(self):
        rng = np.random.default_rng(11)
        model, calib = tiny_model(rng)
        hes = collect_hessians(model, calib)
        pts = run_sweep(
            model, calib, hes,
            lambdas=[1e-2, 1e-4],
            grid_sizes=[5, 3],
            scan_orders=["row-major"],
            model_kinds=["adaptive"],
        )
        combos = [(p.lam, p.grid_size) for p in pts]
        assert combos == [(1e-4, 3), (1e-4, 5), (1e-2, 3), (1e-2, 5)]
        assert all(not p.error for p in pts)

    def test_failure_recorded_row_continues(self):
        rng = np.random.default_rng(12)
        model, calib = tiny_model(rng)
        # no Hessian for the layers: every cerwu config fails, sweep survives
        pts = run_sweep(
            model, calib, {},
            lambdas=[0.0],
            grid_sizes=[3, 5],
            scan_orders=["row-major"],
            model_kinds=["adaptive"],
        )
        assert len(pts) == 2
        assert all(p.error for p in pts)

    def test_empty_parameter_list_rejected(self):
        rng = np.random.default_rng(13)
        model, calib = tiny_model(rng)
        with pytest.raises(InputError):
            run_sweep(model, calib, {}, [], [3], ["row-major"], ["adaptive"])

    def test_worker_pool_matches_sequential(self):
        rng = np.random.default_rng(14)
        model, calib = tiny_model(rng)
        test = TensorFile()
        test.add("test.features", rng.normal(size=(20, 8)))
        test.add("test.labels", rng.integers(0, 3, size=20).astype(np.float64))
        hes = collect_hessians(model, calib)
        kwargs = dict(
            lambdas=[1e-3, 1e-1],
            grid_sizes=[3, 5, 40000],  # k=40000 is above the model cap: fails
            scan_orders=["row-major"],
            model_kinds=["static", "adaptive", "context"],
            test_tf=test,
        )
        seq = run_sweep(model, calib, hes, **kwargs)
        par = run_sweep(model, calib, hes, threads=2, **kwargs)
        # identical rows in identical order regardless of worker scheduling
        assert without_wall(par) == without_wall(seq)
        assert all(p.wall_ms is not None for p in par)
        # and the rows of a decode-and-evaluate run of each configuration alone
        configs = sweep_configs(kwargs["lambdas"], kwargs["grid_sizes"],
                                kwargs["scan_orders"], kwargs["model_kinds"])
        assert without_wall(seq) == [reference_point(c, model, calib, hes, test)
                                     for c in configs]
        assert all(p.accuracy is not None for p in seq if not p.error)
        failed = [p for p in seq if p.error]
        assert [p.grid_size for p in failed] == [40000] * 6
        assert all(p.error.startswith("ShapeError: layer 'l1.weight': model needs")
                   for p in failed)

    def test_worker_pool_under_spawn_matches_sequential(self, monkeypatch):
        # spawn pickles the initializer's inputs instead of inheriting them,
        # as forkserver (Python 3.14's default on Linux) does
        monkeypatch.setattr(sweep, "ProcessPoolExecutor", functools.partial(
            ProcessPoolExecutor, mp_context=multiprocessing.get_context("spawn")
        ))
        self.test_worker_pool_matches_sequential()

    @pytest.mark.parametrize("threads,configs,workers", [
        (1, 4, None), (100_000, 1, None), (100_000, 2, 2),
    ])
    def test_pool_capped_at_configuration_count(self, monkeypatch, threads, configs,
                                                 workers):
        """No more workers than configurations, and none at all for one."""
        started = InProcessPool.install(monkeypatch)
        rng = np.random.default_rng(18)
        model, calib = tiny_model(rng)
        hes = collect_hessians(model, calib)
        lambdas = [10.0 ** -e for e in range(1, configs + 1)]
        pts = run_sweep(model, calib, hes, lambdas, [3], ["row-major"], ["adaptive"],
                        threads=threads)
        assert [size for size, _ in started] == ([] if workers is None else [workers])
        assert [p.lam for p in pts] == sorted(lambdas)
        assert all(not p.error for p in pts)

    def test_one_lambda_is_split_across_the_workers(self, monkeypatch):
        # three kinds share one lambda: one group, dealt into one job per worker
        rng = np.random.default_rng(19)
        model, calib = tiny_model(rng)
        hes = collect_hessians(model, calib)
        args = (model, calib, hes, [0.01], [5], ["row-major"], ["static", "adaptive", "context"])
        serial = run_sweep(*args)
        started = InProcessPool.install(monkeypatch)
        pooled = run_sweep(*args, threads=3)
        assert [(size, [[c.model_kind for c in job] for job in jobs])
                for size, jobs in started] == [(3, [["adaptive"], ["context"], ["static"]])]
        assert without_wall(pooled) == without_wall(serial)
        assert all(not p.error for p in serial)

    def test_lambda_groups_are_jobs(self, monkeypatch):
        # as many lambdas as workers: each lambda's configurations are one job
        rng = np.random.default_rng(20)
        model, calib = tiny_model(rng)
        hes = collect_hessians(model, calib)
        started = InProcessPool.install(monkeypatch)
        run_sweep(model, calib, hes, [1e-3, 1e-2], [3, 5], ["row-major"], ["adaptive"],
                  threads=2)
        assert [(size, [[(c.lam, c.grid_size) for c in job] for job in jobs])
                for size, jobs in started] == [
            (2, [[(1e-3, 3), (1e-3, 5)], [(1e-2, 3), (1e-2, 5)]])]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_group_without_hessians_fails_every_row(self, monkeypatch, threads):
        InProcessPool.install(monkeypatch)
        rng = np.random.default_rng(21)
        model, calib = tiny_model(rng)
        pts = run_sweep(model, calib, {}, [0.01], [3, 5], ["row-major"],
                        ["static", "adaptive", "context"], threads=threads)
        assert [p.error for p in pts] == [
            "InputError: no Hessian available for layer 'l1.weight'"] * 6

    @pytest.mark.parametrize("threads", [1, 2])
    def test_group_with_singular_hessian_fails_every_row(self, monkeypatch, threads):
        # at lam = 0 and delta = 0 a zero Hessian is singular: l2's context is
        # left out of the job's, and each row fails where its compress builds it
        InProcessPool.install(monkeypatch)
        rng = np.random.default_rng(22)
        model, calib = tiny_model(rng)
        hes = collect_hessians(model, calib)
        hes["l2.weight"] = np.zeros_like(hes["l2.weight"])
        pts = run_sweep(model, calib, hes, [0.0], [3, 5], ["row-major"],
                        ["static", "adaptive", "context"], damping_delta=0.0, threads=threads)
        expected = ("FactorizationError: layer 'l2.weight': regularized Hessian is "
                    "numerically singular; raise damping_delta and retry")
        assert [p.error for p in pts] == [expected] * 6
        config = CompressionConfig(lam=0.0, grid_size=3, damping_delta=0.0)
        assert reference_point(config, model, calib, hes).error == expected

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
from cerwu.modelio import TensorFile, write_tensor_file
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
from cerwu.sweep import run_sweep


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
            model, {}, CompressionConfig(lam=0.0, grid_size=5), method="rtn"
        )
        assert len(report.layers) == 2

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
            model, {}, CompressionConfig(lam=0.0, grid_size=3), method="rtn"
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
        assert [dataclasses.replace(p, wall_ms=None) for p in par] == [
            dataclasses.replace(p, wall_ms=None) for p in seq
        ]
        assert all(p.wall_ms is not None for p in par)
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
        started = []

        class InProcessPool:
            # runs the jobs here, the way a worker would, without a process
            def __init__(self, max_workers, initializer, initargs):
                started.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                sweep._init_worker()

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(sweep, "ProcessPoolExecutor", InProcessPool)
        rng = np.random.default_rng(18)
        model, calib = tiny_model(rng)
        hes = collect_hessians(model, calib)
        lambdas = [10.0 ** -e for e in range(1, configs + 1)]
        pts = run_sweep(model, calib, hes, lambdas, [3], ["row-major"], ["adaptive"],
                        threads=threads)
        assert started == ([] if workers is None else [workers])
        assert [p.lam for p in pts] == sorted(lambdas)
        assert all(not p.error for p in pts)

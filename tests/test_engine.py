import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cerwu import engine
from cerwu.engine import (
    BLOCK_SIZE,
    PASS_MIN_ROWS,
    CompressionConfig,
    GAMMA_STANDARD,
    GAMMA_ZERO,
    SUB_BLOCK,
    compress_layer,
    layer_context,
    model_spec_for,
    quantize_layer,
)
from cerwu.entropy import (
    ADAPTIVE, CONTEXT, STATIC, interval_bits, make_model,
)
from cerwu.grids import (
    COLUMN_MAJOR, ROW_MAJOR, SCAN_ORDERS, build_grid, grid_from_scale, layer_from_symbols,
    round_to_nearest,
)
from cerwu.errors import FactorizationError, ShapeError
from cerwu.linalg import LayerContext, accumulate_hessian, build_context
from cerwu.oracle import brute_force_minimize, evaluate_objective
from cerwu.rangecoder import decode, encode

from conftest import (
    HALVING_STREAM, LOG2, halvings_per_table, obs_row_update, oracle_stream, random_spd,
    reference_intervals, reference_walk, regularized_hessian, sequence_rate_bits,
)


def nearest_with_ties(value, levels):
    d = np.abs(value - levels)
    ties = np.flatnonzero(d == d.min())
    return int(min(ties, key=lambda t: (abs(levels[t]), levels[t])))


def optq_reference(w, hessian, grid, delta):
    """Greedy nearest-level quantization with exact loss-compensating row
    updates computed from trailing-submatrix inverses. Independent of the
    engine's Cholesky formulation."""
    n, m = w.shape
    hd = hessian + delta * np.mean(np.diag(hessian)) * np.eye(m)
    what = np.zeros_like(w)
    for i in range(n):
        row = w[i].copy()
        for j in range(m):
            hinv = np.linalg.inv(hd[j:, j:])
            idx = nearest_with_ties(row[j], grid.levels)
            g = grid.levels[idx]
            if j + 1 < m:
                row[j + 1 :] -= ((row[j] - g) / hinv[0, 0]) * hinv[0, 1:]
            what[i, j] = g
        # leading entries were overwritten in place; keep quantized values
    return what


def assert_pinned_walk(kind, scan_order, k, lam, digest, bits, loss):
    """Check the walk on a fixed 6x10 layer against pinned outputs; returns
    the indices."""
    rng = np.random.default_rng(20250)
    w = rng.normal(scale=0.1, size=(6, 10))
    h = accumulate_hessian([rng.normal(size=(10, 40))])
    cfg = CompressionConfig(lam=lam, grid_size=k, scan_order=scan_order, model_kind=kind)
    res = quantize_layer(w, h, build_grid(w, k), cfg)
    indices = res.quantized.indices
    assert hashlib.sha256(indices.astype("<i4").tobytes()).hexdigest() == digest
    assert res.predicted_rate_bits == bits
    assert res.quadratic_loss_delta == loss
    return indices


def quantize_column(values, grid, lam, gamma, model):
    """Indices :func:`quantize_layer` picks for an n x 1 layer whose working
    values are ``values`` and whose factor ``C'`` is 1, so that each entry
    minimizes ``0.5*(w - g)^2 + lam*ratebits(g) - 0.5*lam*gamma*g^2``."""
    w = np.array(values, dtype=np.float64)[:, None]
    ctx = LayerContext(w_prime=w, chol_upper=np.ones((1, 1)), gamma=gamma, lam=lam,
                       damping_delta=0.0)
    cfg = CompressionConfig(lam=lam, grid_size=grid.size, model_kind=model.kind)
    res = quantize_layer(w, None, grid, cfg, model=model, context=ctx)
    return res.quantized.indices[:, 0].tolist()


class TestQuantizationStep:
    """The per-entry choice, on the column path (static) and the walk."""

    def test_lambda_zero_nearest(self):
        grid = grid_from_scale(3, 1.0)
        for model in (make_model(ADAPTIVE, 3), make_model(STATIC, 3, static_counts=[1, 5, 2])):
            assert quantize_column([0.74, -0.74, 0.4], grid, 0.0, 0.0, model) == [2, 0, 1]

    def test_hand_evaluated_objectives(self):
        # levels {-1, 0, 1}; a 0.8-at-zero model; entry 0.4, c=1, lam=1:
        # picking zero costs 0.08 + rate(0) ~ 0.402, picking one costs
        # 0.18 + rate(1) ~ 3.5, so zero wins
        grid = grid_from_scale(3, 1.0)
        model = make_model(STATIC, 3, static_counts=[1, 8, 1])
        rates = model.rate_vector()
        assert np.diff(model.cum()).tolist() == [3277, 26214, 3277]
        assert quantize_column([0.4], grid, 1.0, 0.0, model) == [1]  # the zero level
        obj_zero = 0.5 * 0.4**2 + rates[1]
        obj_one = 0.5 * 0.6**2 + rates[2]
        assert obj_zero == pytest.approx(0.4019, abs=5e-4)
        assert obj_one == pytest.approx(3.5019, abs=5e-4)

    def test_large_lambda_peaked_model_forces_zero(self):
        grid = grid_from_scale(5, 0.5)
        model = make_model(STATIC, 5, static_counts=[1, 1, 5000, 1, 1])
        # gamma modest so the Gaussian bonus cannot outweigh the rate gap
        values = [-1.0, -0.3, 0.24, 0.9, 1.0]
        assert quantize_column(values, grid, 1e4, 1.0, model) == [2] * 5

    def test_tie_breaks_toward_smaller_abs(self):
        grid = grid_from_scale(3, 1.0)
        # +-0.5 sit exactly between level 0 and level +-1 under a symmetric model
        for model in (make_model(STATIC, 3, static_counts=[1, 1, 1]), make_model(ADAPTIVE, 3)):
            assert quantize_column([0.5, -0.5], grid, 0.0, 0.0, model) == [1, 1]


class TestDiagonalReduction:
    def test_identical_to_rtn(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(4, 5))
        x = np.diag(rng.uniform(0.5, 2.0, size=5))  # orthogonal rows: diagonal H
        h = accumulate_hessian([x])
        grid = build_grid(w, 5)
        cfg = CompressionConfig(lam=0.0, grid_size=5, damping_delta=0.0)
        res = quantize_layer(w, h, grid, cfg)
        rtn = round_to_nearest(w, grid)
        assert np.array_equal(res.quantized.indices, rtn.indices)

    def test_byte_identical_payloads(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=(3, 4))
        x = np.diag(np.ones(4))
        h = accumulate_hessian([x])
        cfg = dict(lam=0.0, grid_size=5, damping_delta=0.0, model_kind=CONTEXT)
        _, payload_engine, _ = compress_layer(w, h, CompressionConfig(**cfg))
        _, payload_rtn, _ = compress_layer(w, None, CompressionConfig(**cfg, method="rtn"))
        assert payload_engine.data == payload_rtn.data


class TestOptqEquivalence:
    @pytest.mark.parametrize("delta", [0.0, 1e-2])
    def test_matches_independent_reference(self, delta):
        rng = np.random.default_rng(2)
        for trial in range(11):
            if trial < 10:
                n, m = int(rng.integers(1, 5)), int(rng.integers(2, 7))
            else:  # past two block edges of the row update
                n, m = 3, 2 * BLOCK_SIZE + 5
            w = rng.normal(size=(n, m))
            x = rng.normal(size=(m, 4 * m))
            h = accumulate_hessian([x])
            grid = build_grid(w, 5)
            cfg = CompressionConfig(lam=0.0, grid_size=5, damping_delta=delta)
            res = quantize_layer(w, h, grid, cfg)
            ref = optq_reference(w, h, grid, delta)
            assert np.max(np.abs(res.quantized.dequantize() - ref)) <= 1e-9


class TestPropositions:
    def _chol_upper(self, hp):
        hinv = np.linalg.inv(hp)
        return np.linalg.cholesky((hinv + hinv.T) / 2).T

    def test_prop_i_update_is_constrained_minimizer(self):
        from cerwu.oracle import constrained_quadratic_minimizer

        rng = np.random.default_rng(3)
        for _ in range(50):
            m = int(rng.integers(2, 9))
            hp = random_spd(rng, m)
            chol = self._chol_upper(hp)
            wp = rng.normal(size=m)
            steps = int(rng.integers(1, m + 1))
            state = wp.copy()
            prefix = []
            for j in range(steps):
                ghat = float(rng.normal())
                obs_row_update(state, j, ghat, chol)
                prefix.append(ghat)
            suffix = constrained_quadratic_minimizer(wp, hp, prefix)
            assert suffix.size == m - steps
            if suffix.size:
                assert np.max(np.abs(state[steps:] - suffix)) <= 1e-8

    def test_prop_ii_loss_delta_formula(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            m = int(rng.integers(2, 9))
            hp = random_spd(rng, m)
            chol = self._chol_upper(hp)
            wp = rng.normal(size=m)

            def loss(v):
                d = wp - v
                return 0.5 * d @ hp @ d

            state = wp.copy()
            for j in range(m):
                before = loss(state)
                wj = state[j]
                ghat = float(rng.normal())
                delta = obs_row_update(state, j, ghat, chol)
                formula = 0.5 * (wj - ghat) ** 2 / chol[j, j] ** 2
                after = loss(state)
                assert abs(delta - formula) <= 1e-12 * max(1.0, formula)
                assert abs((after - before) - formula) <= 1e-8 * max(1.0, formula)

    def test_prop_iii_cholesky_equals_submatrix_inverse(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            m = int(rng.integers(2, 9))
            hp = random_spd(rng, m)
            chol = self._chol_upper(hp)
            for j in range(m):
                hinv_j = np.linalg.inv(hp[j:, j:])
                assert abs(hinv_j[0, 0] - chol[j, j] ** 2) <= 1e-10
                ratio_h = hinv_j[0, 1:] / hinv_j[0, 0]
                ratio_c = chol[j, j + 1 :] / chol[j, j]
                if ratio_h.size:
                    assert np.max(np.abs(ratio_h - ratio_c)) <= 1e-10


class TestQuantizeLayer:
    def test_grid_evaluation_counter(self):
        rng = np.random.default_rng(6)
        w = rng.normal(size=(3, 4))
        h = accumulate_hessian([rng.normal(size=(4, 8))])
        grid = build_grid(w, 5)
        res = quantize_layer(w, h, grid, CompressionConfig(lam=0.01, grid_size=5))
        assert res.grid_evaluations == 3 * 4 * 5

    def test_predicted_rate_matches_oracle_replay(self):
        rng = np.random.default_rng(7)
        w = rng.normal(size=(4, 6))
        x = rng.normal(size=(6, 12))
        h = accumulate_hessian([x])
        grid = build_grid(w, 5)
        cfg = CompressionConfig(lam=0.02, grid_size=5, model_kind=CONTEXT)
        model = model_spec_for(w, grid, cfg)
        res = quantize_layer(w, h, grid, cfg, model=model.fresh())
        obj = evaluate_objective(w, x, res.quantized, cfg.lam, model.fresh)
        assert res.predicted_rate_bits == obj.rate_bits

    def test_column_major_symbol_order(self):
        rng = np.random.default_rng(8)
        w = rng.normal(size=(3, 4))
        h = accumulate_hessian([rng.normal(size=(4, 8))])
        grid = build_grid(w, 5)
        cfg = CompressionConfig(lam=0.0, grid_size=5, scan_order=COLUMN_MAJOR)
        res, payload, model = compress_layer(w, h, cfg)
        back = decode(payload, model.fresh())
        assert np.array_equal(back.reshape(4, 3).T, res.quantized.indices)

    def test_scan_orders_same_update_math(self):
        # with a model that treats every symbol alike (static uniform), the
        # traversal order cannot change the chosen levels
        rng = np.random.default_rng(9)
        w = rng.normal(size=(4, 5))
        h = accumulate_hessian([rng.normal(size=(5, 10))])
        grid = build_grid(w, 4)
        counts = [1, 1, 1, 1]
        row = quantize_layer(
            w, h, grid,
            CompressionConfig(lam=0.3, grid_size=4, model_kind=STATIC),
            model=make_model(STATIC, 4, static_counts=counts),
        )
        col = quantize_layer(
            w, h, grid,
            CompressionConfig(lam=0.3, grid_size=4, scan_order=COLUMN_MAJOR,
                              model_kind=STATIC),
            model=make_model(STATIC, 4, static_counts=counts),
        )
        assert np.array_equal(row.quantized.indices, col.quantized.indices)

    @pytest.mark.parametrize("scan_order", [ROW_MAJOR, COLUMN_MAJOR])
    def test_loss_delta_tracks_quadratic_form(self, scan_order):
        # total recorded loss increase equals the final quadratic loss of
        # the row problems (each row starts at its unconstrained minimum),
        # whatever order the rate-aware choices visit the entries in
        rng = np.random.default_rng(10)
        w = rng.normal(size=(4, 5))
        x = rng.normal(size=(5, 10))
        h = accumulate_hessian([x])
        cfg = CompressionConfig(lam=0.05, grid_size=5, scan_order=scan_order,
                                model_kind=CONTEXT, damping_delta=0.0)
        grid = build_grid(w, 5)
        res = quantize_layer(w, h, grid, cfg)
        ctx = build_context(w, h, cfg.lam, 0.0)
        d = ctx.w_prime - res.quantized.dequantize()
        h_reg = regularized_hessian(h, 0.0, ctx.lam, ctx.gamma)
        final_loss = float(0.5 * np.trace(d @ h_reg @ d.T))
        assert res.quadratic_loss_delta == pytest.approx(final_loss, rel=1e-8)

    @pytest.mark.parametrize("kind, scan_order, lam, digest, bits, loss", [
        (ADAPTIVE, ROW_MAJOR, 0.0,
         "6dda232509b265430c15a4652b97f151042ad84cdde5ef3fcc6cd18da38735f6",
         179.20413783468143, 0.5270497987281304),
        (ADAPTIVE, ROW_MAJOR, 0.03,
         "214e0a9adfe2f2095cb203bbcec45785b5fe11cf22cd82bec4e76cc37121e377",
         174.67034798594975, 0.7072812556180188),
        (ADAPTIVE, COLUMN_MAJOR, 0.0,
         "6dda232509b265430c15a4652b97f151042ad84cdde5ef3fcc6cd18da38735f6",
         179.2041378346814, 0.5270497987281304),
        (ADAPTIVE, COLUMN_MAJOR, 0.03,
         "5c56b142ac250744b63740026ce95480c6b5960b70a30f9fc7a3aae726c95a92",
         173.74321659790363, 0.7943177714692394),
        (CONTEXT, ROW_MAJOR, 0.0,
         "6dda232509b265430c15a4652b97f151042ad84cdde5ef3fcc6cd18da38735f6",
         183.80375040899276, 0.5270497987281304),
        (CONTEXT, ROW_MAJOR, 0.03,
         "05d5c670dab3f4f5e38e8224c339a1622d92afb62a0e7c6fff0244468cc3a551",
         177.0297702258336, 0.7995754702295622),
        (CONTEXT, COLUMN_MAJOR, 0.0,
         "6dda232509b265430c15a4652b97f151042ad84cdde5ef3fcc6cd18da38735f6",
         184.34807092521646, 0.5270497987281304),
        (CONTEXT, COLUMN_MAJOR, 0.03,
         "eb47484fe01a4d2acf8129c75c1163de57cd04aa0d46d129e869b64ff890a0c2",
         165.97745203021, 1.0354211556338186),
    ])
    def test_walk_pinned(self, kind, scan_order, lam, digest, bits, loss):
        # the per-entry walk's output, as computed with numpy over k-vectors
        # before the walk moved to Python scalars: equal, not approximate
        indices = assert_pinned_walk(kind, scan_order, 9, lam, digest, bits, loss)
        assert indices.dtype == np.int32 and indices.flags.c_contiguous

    @pytest.mark.parametrize("kind, scan_order, k, lam, digest, bits, loss", [
        (ADAPTIVE, ROW_MAJOR, 2, 0.03,
         "c47cf388395b2012a586c0bdad17a4ac11a619a9d1391f008f139cb854c30723",
         28.311606318274634, 14.441476403377562),
        (ADAPTIVE, COLUMN_MAJOR, 2, 0.03,
         "c47cf388395b2012a586c0bdad17a4ac11a619a9d1391f008f139cb854c30723",
         28.311606318274627, 14.441476403377564),
        (CONTEXT, ROW_MAJOR, 2, 0.03,
         "c47cf388395b2012a586c0bdad17a4ac11a619a9d1391f008f139cb854c30723",
         30.122459557534146, 14.441476403377562),
        (CONTEXT, COLUMN_MAJOR, 2, 0.03,
         "c47cf388395b2012a586c0bdad17a4ac11a619a9d1391f008f139cb854c30723",
         30.12245955753414, 14.441476403377564),
        (ADAPTIVE, ROW_MAJOR, 8, 0.03,
         "b0c459e0e3bad03c11ed984411d60db82cf468eb48d66d9224215466b9b89061",
         169.99792264397826, 0.7895636417009743),
        (ADAPTIVE, COLUMN_MAJOR, 8, 0.03,
         "20a15f27285ae179fae1e3ac90d22bced68c4bf88b8cd77f916a97c8a52a1e06",
         170.83949328137385, 0.8407948756912927),
        (CONTEXT, ROW_MAJOR, 8, 0.03,
         "3c1b523395b6a9c328364b6d9773d739dd5987cea13dd24f384bd86b5156b4c3",
         172.9296335545482, 0.8067344360017517),
        (CONTEXT, COLUMN_MAJOR, 8, 0.03,
         "e770e0a653485af7ab5b151c97d7c56844614fdcbc2aa22131fd04ad525bbb62",
         162.0868062083061, 0.9476432184946398),
        (ADAPTIVE, ROW_MAJOR, 33, 0.03,
         "6cbcb26d31fceefc3e0ce7722558257850a334fde145ea4ecc16cf8fa36fcced",
         202.29782958034053, 1.1551040036098827),
        (ADAPTIVE, COLUMN_MAJOR, 33, 0.03,
         "aa084b9cb4a52c73443d1e5561c76552ee3e28cc678b0e99300dabb9b804a1ab",
         207.13760598009048, 1.2826214576182906),
        (CONTEXT, ROW_MAJOR, 33, 0.03,
         "6cbcb26d31fceefc3e0ce7722558257850a334fde145ea4ecc16cf8fa36fcced",
         204.9885867450842, 1.1551040036098827),
        (CONTEXT, COLUMN_MAJOR, 33, 0.03,
         "b4817ec708495e658bb74eabaeec177b10a9ac8d13f3a884ec8743e3e7ed3d24",
         221.5407229579735, 0.8833679698500683),
        (ADAPTIVE, ROW_MAJOR, 9, 1.0,
         "1b58962684aca5b0486e7afd4120c97dc43b06c68293580dc4e64258e43addcd",
         32.7833195171574, 7.707023101571261),
        (ADAPTIVE, COLUMN_MAJOR, 9, 1.0,
         "1b58962684aca5b0486e7afd4120c97dc43b06c68293580dc4e64258e43addcd",
         32.7833195171574, 7.7070231015712585),
        (CONTEXT, ROW_MAJOR, 9, 1.0,
         "1b58962684aca5b0486e7afd4120c97dc43b06c68293580dc4e64258e43addcd",
         32.7833195171574, 7.707023101571261),
        (CONTEXT, COLUMN_MAJOR, 9, 1.0,
         "1b58962684aca5b0486e7afd4120c97dc43b06c68293580dc4e64258e43addcd",
         32.7833195171574, 7.7070231015712585),
    ])
    def test_walk_pinned_grid_sizes(self, kind, scan_order, k, lam, digest, bits, loss):
        # test_walk_pinned's layer at other grid sizes and a large lambda,
        # as the walk computed it when it scanned all k levels per entry
        assert_pinned_walk(kind, scan_order, k, lam, digest, bits, loss)

    def test_gamma_zero_ablation_uses_plain_weights(self):
        rng = np.random.default_rng(11)
        w = rng.normal(size=(3, 4))
        h = accumulate_hessian([rng.normal(size=(4, 8))])
        grid = build_grid(w, 5)
        cfg = CompressionConfig(lam=0.5, grid_size=5, gamma_mode=GAMMA_ZERO)
        res = quantize_layer(w, h, grid, cfg)  # must not raise
        assert res.quantized.indices.shape == (3, 4)


    @pytest.mark.parametrize("kind", [STATIC, ADAPTIVE])
    def test_activation_scale_leaves_indices(self, kind):
        # C''s diagonal scales as 1 / |X|; scaling X only rescales the
        # objective and the updates at lam = 0, so no absolute floor on it
        # may switch the updates off. Down to 1e-160 every scale gives the
        # unscaled indices or a clean error: from 1e-156 down, H is
        # subnormal and its accumulation refuses it
        rng = np.random.default_rng(16)
        w = rng.normal(size=(16, 64)) / 8.0
        x = rng.normal(size=(64, 256))
        grid = build_grid(w, 9)
        cfg = CompressionConfig(lam=0.0, grid_size=9, model_kind=kind)
        base = quantize_layer(w, accumulate_hessian([x]), grid, cfg).quantized.indices
        subnormal = []
        for e in range(-160, 13):
            try:
                res = quantize_layer(w, accumulate_hessian([x * 10.0**e]), grid, cfg)
            except FactorizationError:
                continue
            except ShapeError as exc:
                assert "activation batch 0" in str(exc) and "zero or subnormal" in str(exc)
                subnormal.append(e)
                continue
            assert np.array_equal(res.quantized.indices, base), e
        assert -156 in subnormal and -160 in subnormal

    def test_some_tiny_features_still_compress(self):
        # only the largest diagonal entry must be normal: a layer whose
        # features are partly subnormal in H compresses
        rng = np.random.default_rng(17)
        w = rng.normal(size=(8, 16)) / 4.0
        x = rng.normal(size=(16, 64))
        x[::2] *= 1e-160
        cfg = CompressionConfig(lam=0.03, grid_size=9)
        result, payload, model = compress_layer(w, accumulate_hessian([x]), cfg)
        back = decode(payload, model.fresh())
        assert np.array_equal(back, result.quantized.symbols_in_scan_order())

    @pytest.mark.parametrize("kind", [STATIC, ADAPTIVE, CONTEXT])
    @pytest.mark.parametrize("eps", [1e-12, 1e-9, 1e-6, 1e-3])
    def test_offset_layer_within_one_step(self, kind, eps):
        # 0.5 +- eps: gamma = 1 / (ln2 Var(W)) would be huge, and its ridge
        # lam * gamma would shrink W' toward zero (errors of 0.25 to 1);
        # fitted about zero, every weight stays within a grid step
        rng = np.random.default_rng(0)
        w = 0.5 + eps * rng.uniform(-1.0, 1.0, size=(4, 16))
        h = accumulate_hessian([rng.normal(size=(16, 64))])
        cfg = CompressionConfig(lam=0.03, grid_size=9, model_kind=kind)
        ctx = layer_context(w, h, cfg)
        assert ctx.lam * ctx.gamma < 0.01 * np.mean(np.diag(h))
        res, _, _ = compress_layer(w, h, cfg, context=ctx)
        levels = res.quantized.grid.levels
        assert np.max(np.abs(levels[res.quantized.indices] - w)) <= levels[1] - levels[0]

    def test_tiny_factor_diagonal_raises(self):
        # 0.5 / c^2 overflows for c = 1e-160: a clean error, not a clamp
        w = np.array([[0.5, -0.25]])
        ctx = LayerContext(w_prime=w.copy(), chol_upper=np.diag([1.0, 1e-160]),
                           gamma=0.0, lam=0.0, damping_delta=0.0)
        cfg = CompressionConfig(lam=0.0, grid_size=5, damping_delta=0.0)
        with pytest.raises(FactorizationError, match="inverse square overflows"):
            quantize_layer(w, None, build_grid(w, 5), cfg, context=ctx)


class TestCompressLayer:
    def test_decode_reproduces_indices(self):
        rng = np.random.default_rng(12)
        w = rng.normal(size=(5, 7))
        h = accumulate_hessian([rng.normal(size=(7, 14))])
        for kind in (STATIC, ADAPTIVE, CONTEXT):
            cfg = CompressionConfig(lam=0.01, grid_size=5, model_kind=kind)
            res, payload, model = compress_layer(w, h, cfg)
            back = decode(payload, model.fresh())
            assert np.array_equal(back, res.quantized.symbols_in_scan_order())

    def test_predicted_vs_actual_bits(self):
        rng = np.random.default_rng(13)
        w = rng.normal(size=(16, 32))
        h = accumulate_hessian([rng.normal(size=(32, 64))])
        cfg = CompressionConfig(lam=0.05, grid_size=9, model_kind=CONTEXT)
        res, payload, _ = compress_layer(w, h, cfg)
        gap = 8 * len(payload.data) - res.predicted_rate_bits
        assert 0 <= gap <= 64 + 0.001 * res.predicted_rate_bits

    def test_lambda_sweep_reduces_rate(self):
        rng = np.random.default_rng(14)
        w = rng.normal(size=(12, 16))
        x = rng.normal(size=(16, 8))  # small calibration: rate term can bite
        h = accumulate_hessian([x])
        sizes = {}
        for lam in (1e-8, 1e-1):
            cfg = CompressionConfig(lam=lam, grid_size=9, model_kind=CONTEXT)
            _, payload, _ = compress_layer(w, h, cfg)
            sizes[lam] = len(payload.data)
        assert sizes[1e-1] < sizes[1e-8]

    @pytest.mark.parametrize("k", [2, 9, 33])
    @pytest.mark.parametrize("scan_order", SCAN_ORDERS)
    @pytest.mark.parametrize("kind", [STATIC, ADAPTIVE, CONTEXT])
    def test_recorded_intervals_code_like_a_replay(self, kind, scan_order, k):
        # the payload coded from the walk's recorded intervals is the one a
        # fresh model's replay codes, and the predicted bits are the replay's
        rng = np.random.default_rng(18)
        w = rng.normal(size=(6, 19))
        h = accumulate_hessian([rng.normal(size=(19, 40))])
        cfg = CompressionConfig(lam=0.03, grid_size=k, scan_order=scan_order, model_kind=kind)
        res, payload, model = compress_layer(w, h, cfg)
        symbols = res.quantized.symbols_in_scan_order()
        assert payload == encode(symbols, model.fresh())
        assert res.predicted_rate_bits == sequence_rate_bits(symbols, model.fresh())

    @pytest.mark.parametrize("scan_order", SCAN_ORDERS)
    @pytest.mark.parametrize("kind", [STATIC, ADAPTIVE, CONTEXT])
    @pytest.mark.parametrize("lam", [0.0, 0.03])
    @pytest.mark.parametrize("value", [0.5, 0.0])
    def test_constant_layer_round_trips_exactly(self, value, lam, kind, scan_order):
        # zero variance is a degenerate Gaussian fit (gamma = 0); a huge
        # gamma turns 0.5 into -0.5 and 0 into +-4e-12
        rng = np.random.default_rng(19)
        w = np.full((4, 16), value)
        h = accumulate_hessian([rng.normal(size=(16, 64))])
        cfg = CompressionConfig(lam=lam, grid_size=9, scan_order=scan_order, model_kind=kind)
        res, payload, model = compress_layer(w, h, cfg)
        back = layer_from_symbols(decode(payload, model.fresh()), 4, 16, res.quantized.grid,
                                  scan_order)
        assert np.array_equal(res.quantized.dequantize(), w)
        assert np.array_equal(back.dequantize(), w)

    @pytest.mark.parametrize("scan_order", SCAN_ORDERS)
    @pytest.mark.parametrize("kind", [STATIC, ADAPTIVE, CONTEXT])
    def test_rtn_codes_nearest_levels_without_hessian(self, kind, scan_order):
        rng = np.random.default_rng(20)
        w = rng.normal(size=(6, 19))
        cfg = CompressionConfig(lam=0.03, grid_size=9, scan_order=scan_order, model_kind=kind,
                                method="rtn")
        res, payload, model = compress_layer(w, None, cfg)
        nearest = round_to_nearest(w, res.quantized.grid, scan_order)
        assert np.array_equal(res.quantized.indices, nearest.indices)
        assert res.quadratic_loss_delta == 0.0 and res.grid_evaluations == 0
        symbols = res.quantized.symbols_in_scan_order()
        assert payload == encode(symbols, model.fresh())
        assert res.predicted_rate_bits == sequence_rate_bits(symbols, model.fresh())

    @pytest.mark.parametrize("field,value", [
        ("lam", float("nan")), ("lam", float("inf")), ("lam", -1.0),
        ("damping_delta", float("nan")), ("damping_delta", float("inf")),
        ("damping_delta", -1.0), ("method", "gptq"),
    ])
    def test_config_rejects_bad_value(self, field, value):
        settings = dict(lam=0.03, grid_size=9)
        settings[field] = value
        with pytest.raises(ShapeError, match=field):
            CompressionConfig(**settings)

    def test_config_grid_size_bounded_by_model_cap(self):
        # an entropy model codes at most 2**15 symbols
        assert CompressionConfig(lam=0.03, grid_size=2**15).grid_size == 2**15
        for k in (1, 2**15 + 1):
            with pytest.raises(ShapeError, match=rf"grid_size must lie in \[2, 32768\], got {k}"):
                CompressionConfig(lam=0.03, grid_size=k)

    @pytest.mark.parametrize("gamma_mode", [GAMMA_STANDARD, GAMMA_ZERO])
    @pytest.mark.parametrize("lam", [0.0, 0.03])
    @pytest.mark.parametrize("kind", [STATIC, ADAPTIVE, CONTEXT])
    def test_shared_context_gives_the_same_layer(self, kind, lam, gamma_mode):
        # what a sweep job passes down is what compress_layer builds itself
        rng = np.random.default_rng(21)
        w = rng.normal(size=(6, 19))
        h = accumulate_hessian([rng.normal(size=(19, 40))])
        cfg = CompressionConfig(lam=lam, grid_size=9, model_kind=kind, gamma_mode=gamma_mode)
        own, own_payload, _ = compress_layer(w, h, cfg)
        shared, shared_payload, _ = compress_layer(w, h, cfg, context=layer_context(w, h, cfg))
        assert shared_payload == own_payload
        assert np.array_equal(shared.quantized.indices, own.quantized.indices)
        assert shared.predicted_rate_bits == own.predicted_rate_bits
        assert shared.quadratic_loss_delta == own.quadratic_loss_delta

    @pytest.mark.parametrize("other", [
        dict(lam=0.01), dict(damping_delta=0.1), dict(gamma_mode=GAMMA_ZERO),
    ], ids=["lam", "delta", "gamma-mode"])
    def test_context_of_other_settings_rejected(self, other):
        rng = np.random.default_rng(22)
        w = rng.normal(size=(6, 19))
        h = accumulate_hessian([rng.normal(size=(19, 40))])
        cfg = CompressionConfig(lam=0.03, grid_size=9)
        ctx = layer_context(w, h, CompressionConfig(**{"lam": 0.03, "grid_size": 9, **other}))
        with pytest.raises(ShapeError, match="context built for"):
            compress_layer(w, h, cfg, context=ctx)
        with pytest.raises(ShapeError, match="context built for"):  # another layer's shape
            compress_layer(w[:, :10], h[:10, :10], cfg, context=layer_context(w, h, cfg))

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(15)
        w = rng.normal(size=(6, 6))
        h = accumulate_hessian([rng.normal(size=(6, 12))])
        cfg = CompressionConfig(lam=0.03, grid_size=7, model_kind=ADAPTIVE)
        _, p1, _ = compress_layer(w, h, cfg)
        _, p2, _ = compress_layer(w.copy(), h.copy(), cfg)
        assert p1.data == p2.data


class TestAgainstBruteForce:
    def test_never_beats_exhaustive_and_stays_close(self):
        rng = np.random.default_rng(16)
        ratios = []
        for trial in range(20):
            n, m = (1, 4) if trial % 2 else (2, 2)
            w = rng.normal(size=(n, m))
            x = rng.normal(size=(m, 3 * m))
            h = accumulate_hessian([x])
            grid = build_grid(w, 3)
            lam = float(rng.uniform(0.001, 0.05))
            cfg = CompressionConfig(lam=lam, grid_size=3, damping_delta=0.0,
                                    model_kind=ADAPTIVE)
            model = model_spec_for(w, grid, cfg)
            res = quantize_layer(w, h, grid, cfg, model=model.fresh())
            engine_obj = evaluate_objective(w, x, res.quantized, lam, model.fresh)
            _, best = brute_force_minimize(w, x, grid, lam, model.fresh)
            assert engine_obj.total >= best.total - 1e-9
            ratios.append(engine_obj.total / max(best.total, 1e-12))
        assert np.exp(np.mean(np.log(ratios))) <= 1.25

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        shape=st.sampled_from([(n, m) for n in range(1, 7) for m in range(1, 7)
                               if n * m <= 6]),
        kind=st.sampled_from([STATIC, ADAPTIVE, CONTEXT]),
        scan_order=st.sampled_from(SCAN_ORDERS),
        lam=st.floats(1e-4, 1e-1),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(shape=(2, 3), kind=STATIC, scan_order=COLUMN_MAJOR, lam=0.05, seed=0)
    @example(shape=(3, 2), kind=CONTEXT, scan_order=COLUMN_MAJOR, lam=0.01, seed=1)
    def test_never_beats_exhaustive_any_kind_or_order(self, shape, kind, scan_order,
                                                      lam, seed):
        rng = np.random.default_rng(seed)
        n, m = shape
        w = rng.normal(size=(n, m))
        x = rng.normal(size=(m, 3 * m))
        h = accumulate_hessian([x])
        grid = build_grid(w, 3)
        cfg = CompressionConfig(lam=lam, grid_size=3, scan_order=scan_order,
                                damping_delta=0.0, model_kind=kind)
        model = model_spec_for(w, grid, cfg)
        res = quantize_layer(w, h, grid, cfg, model=model.fresh())
        engine_obj = evaluate_objective(w, x, res.quantized, lam, model.fresh)
        _, best = brute_force_minimize(w, x, grid, lam, model.fresh, scan_order=scan_order)
        assert engine_obj.total >= best.total - 1e-9

    def test_beats_rtn_on_combined_objective(self):
        # rate-aware greedy beats nearest-level under the quadratic+rate
        # objective it optimizes
        rng = np.random.default_rng(17)
        wins = 0
        for _ in range(10):
            w = rng.normal(size=(1, 4))
            x = rng.normal(size=(4, 8))
            h = accumulate_hessian([x])
            grid = build_grid(w, 3)
            lam = 0.05
            cfg = CompressionConfig(lam=lam, grid_size=3, model_kind=ADAPTIVE,
                                    damping_delta=0.0)
            ctx = build_context(w, h, lam, 0.0)
            h_reg = regularized_hessian(h, 0.0, lam, ctx.gamma)
            res = quantize_layer(w, h, grid, cfg, context=ctx)

            def quad_plus_rate(layer):
                d = ctx.w_prime - layer.dequantize()
                quad = float(0.5 * np.trace(d @ h_reg @ d.T))
                rate = sequence_rate_bits(
                    layer.symbols_in_scan_order(), make_model(ADAPTIVE, 3)
                )
                return quad + lam * rate

            if quad_plus_rate(res.quantized) <= quad_plus_rate(
                round_to_nearest(w, grid)
            ) + 1e-12:
                wins += 1
        assert wins >= 9


def assert_matches_reference(w, grid, cfg, ctx):
    res = quantize_layer(w, None, grid, cfg, context=ctx)
    indices, symbols, bits, loss = reference_walk(w, grid, cfg, ctx)
    assert np.array_equal(res.quantized.indices, indices)
    assert np.array_equal(res.quantized.symbols_in_scan_order(), symbols)
    assert res.predicted_rate_bits == bits
    assert res.quadratic_loss_delta == loss


class TestBoundedSearch:
    """The walk's bounded level search chooses what a full scan chooses."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(1, 5),
        m=st.integers(1, 2 * BLOCK_SIZE + 3),
        k=st.integers(2, 64),
        lam=st.sampled_from([0.0, 1e-3, 0.05, 1.0, 30.0]),
        kind=st.sampled_from([ADAPTIVE, CONTEXT]),
        gamma_mode=st.sampled_from([GAMMA_STANDARD, GAMMA_ZERO]),
        scan_order=st.sampled_from(SCAN_ORDERS),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=3, m=2 * BLOCK_SIZE + 3, k=64, lam=0.05, kind=CONTEXT,
             gamma_mode=GAMMA_STANDARD, scan_order=COLUMN_MAJOR, seed=0)
    @example(n=4, m=9, k=2, lam=30.0, kind=ADAPTIVE, gamma_mode=GAMMA_ZERO,
             scan_order=ROW_MAJOR, seed=1)
    def test_equals_exhaustive_scan(self, n, m, k, lam, kind, gamma_mode, scan_order, seed):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(n, m)) * rng.uniform(0.01, 10.0)
        h = accumulate_hessian([rng.normal(size=(m, int(rng.integers(1, 2 * m + 2))))])
        grid = build_grid(w, k)
        cfg = CompressionConfig(lam=lam, grid_size=k, scan_order=scan_order,
                                model_kind=kind, gamma_mode=gamma_mode)
        gamma = 0.0 if gamma_mode == GAMMA_ZERO else None
        ctx = build_context(w, h, lam, cfg.damping_delta, gamma=gamma)
        assert_matches_reference(w, grid, cfg, ctx)

    @pytest.mark.parametrize("m", [7, SUB_BLOCK, SUB_BLOCK + 1, 2 * SUB_BLOCK + 1,
                                   BLOCK_SIZE, BLOCK_SIZE + 1])
    @pytest.mark.parametrize("kind", [ADAPTIVE, CONTEXT])
    @pytest.mark.parametrize("scan_order", SCAN_ORDERS)
    def test_sub_block_edges(self, m, kind, scan_order):
        # widths on either side of a sub-block and of a block, where the
        # row-major walk's fold and block product take over from the
        # per-entry updates
        rng = np.random.default_rng(m)
        w = rng.normal(size=(3, m))
        h = accumulate_hessian([rng.normal(size=(m, 2 * m))])
        cfg = CompressionConfig(lam=0.05, grid_size=9, scan_order=scan_order, model_kind=kind)
        ctx = build_context(w, h, cfg.lam, cfg.damping_delta)
        assert_matches_reference(w, build_grid(w, 9), cfg, ctx)

    def test_rates_never_negative(self):
        # the search's bound needs log2(T) - log2(c) >= 0 for every c <= T
        assert all(a <= b for a, b in zip(LOG2[1:], LOG2[2:]))

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 8, 9, 33, 64])
    @pytest.mark.parametrize("lam", [0.0, 1e-3, 0.05, 1.0, 30.0, 1e3])
    @pytest.mark.parametrize("kind", [ADAPTIVE, CONTEXT])
    def test_column_of_edge_values(self, k, lam, kind):
        # an n x 1 layer with no ridge quantizes W itself (W' == W): entries
        # below the lowest level, above the highest, on every level and at
        # every midpoint between neighbours, then the same again; at
        # lam = 1e3 the search reaches both ends of the grid
        grid = grid_from_scale(k, 0.25)
        lv = grid.levels
        values = np.concatenate([
            [lv[0] - 1.0, lv[0] - 0.25, lv[-1] + 0.25, lv[-1] + 1.0],
            lv, (lv[:-1] + lv[1:]) / 2, [0.0, -0.0],
        ])
        w = np.concatenate([values, values[::-1]])[:, None]
        h = np.ones((1, 1))
        cfg = CompressionConfig(lam=lam, grid_size=k, model_kind=kind, gamma_mode=GAMMA_ZERO)
        ctx = build_context(w, h, lam, cfg.damping_delta, gamma=0.0)
        assert np.array_equal(ctx.w_prime, w)
        assert_matches_reference(w, grid, cfg, ctx)


class TestWalkIntervals:
    @pytest.mark.parametrize("kind, k", [(ADAPTIVE, 3), (CONTEXT, 9), (CONTEXT, 33)])
    def test_recorded_intervals_across_halvings(self, kind, k):
        # a column of entries near grid levels, half of them near zero, with
        # C' = 1 and a rate term too small to move a choice: the walk's
        # recorded intervals and predicted bits are the reference model's
        # replay of its symbols while every table halves at least twice
        grid = grid_from_scale(k, 0.25)
        rng = np.random.default_rng(k)
        syms = oracle_stream(rng, k, HALVING_STREAM, 0.5)
        w = (grid.levels[syms] + rng.uniform(-0.05, 0.05, size=syms.size))[:, None]
        ctx = LayerContext(w_prime=w, chol_upper=np.ones((1, 1)), gamma=0.0, lam=1e-3,
                           damping_delta=0.0)
        cfg = CompressionConfig(lam=1e-3, grid_size=k, model_kind=kind)
        res = quantize_layer(w, None, grid, cfg, context=ctx)
        symbols = res.quantized.symbols_in_scan_order()
        assert np.array_equal(symbols, syms)
        want = reference_intervals(symbols, make_model(kind, k))
        for a, b in zip(res.intervals, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert min(halvings_per_table(symbols, want[2], kind, k)) >= 2
        assert res.predicted_rate_bits == float(np.cumsum(interval_bits(*want))[-1])

    def test_walked_layer_across_a_halving(self):
        # a row-major layer of fewer than PASS_MIN_ROWS rows, which the
        # per-entry walk takes, long enough that its adaptive table halves:
        # choices, intervals, bits and loss are the exhaustive reference's
        n, m, k = 32, 2_100, 9
        rng = np.random.default_rng(21)
        w = rng.normal(size=(n, m)) / np.sqrt(m)
        h = accumulate_hessian([rng.normal(size=(m, 64))])
        cfg = CompressionConfig(lam=0.03, grid_size=k, model_kind=ADAPTIVE)
        grid = build_grid(w, k)
        ctx = build_context(w, h, cfg.lam, cfg.damping_delta)
        res = quantize_layer(w, h, grid, cfg, context=ctx)
        assert n < PASS_MIN_ROWS and res.rounds == n * m  # walked, one round per entry
        indices, symbols, bits, loss = reference_walk(w, grid, cfg, ctx)
        assert np.array_equal(res.quantized.indices, indices)
        want = reference_intervals(symbols, make_model(ADAPTIVE, k))
        for a, b in zip(res.intervals, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert halvings_per_table(symbols, want[2], ADAPTIVE, k) == [1]
        assert res.predicted_rate_bits == bits
        assert res.quadratic_loss_delta == loss


class TestStaticColumnPath:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(1, 12),
        m=st.integers(1, 3 * BLOCK_SIZE),
        k=st.integers(2, 16),
        lam=st.sampled_from([0.0, 1e-3, 0.05, 1.0]),
        scan_order=st.sampled_from(SCAN_ORDERS),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=1, m=1, k=2, lam=0.0, scan_order=ROW_MAJOR, seed=0)
    @example(n=1, m=7, k=9, lam=0.05, scan_order=COLUMN_MAJOR, seed=1)
    @example(n=7, m=1, k=16, lam=1.0, scan_order=ROW_MAJOR, seed=2)
    @example(n=5, m=2 * BLOCK_SIZE + 3, k=9, lam=0.05, scan_order=ROW_MAJOR, seed=3)
    @example(n=5, m=2 * BLOCK_SIZE + 3, k=9, lam=0.05, scan_order=COLUMN_MAJOR, seed=4)
    def test_bitwise_equal_to_entry_by_entry(self, n, m, k, lam, scan_order, seed):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(n, m)) * rng.uniform(0.01, 10.0)
        h = accumulate_hessian([rng.normal(size=(m, int(rng.integers(1, 2 * m + 2))))])
        grid = build_grid(w, k)
        cfg = CompressionConfig(lam=lam, grid_size=k, scan_order=scan_order,
                                model_kind=STATIC)
        ctx = build_context(w, h, lam, cfg.damping_delta)
        col = quantize_layer(w, h, grid, cfg, context=ctx)
        indices, symbols, bits, loss = reference_walk(w, grid, cfg, ctx)
        for a, b in ((col.quantized.indices, indices),
                     (col.quantized.symbols_in_scan_order(), symbols)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert col.predicted_rate_bits == bits
        assert col.quadratic_loss_delta == loss
        assert col.grid_evaluations == n * m * k


def pass_and_walk(monkeypatch, w, h, cfg):
    """The layer quantized by the speculative pass, checked bitwise against
    the per-entry walk that row-major layers of fewer than ``PASS_MIN_ROWS``
    rows take, or, column-major, against ``conftest.reference_walk``."""
    assert w.shape[0] >= PASS_MIN_ROWS
    grid = build_grid(w, cfg.grid_size)
    ctx = layer_context(w, h, cfg)
    passed = quantize_layer(w, h, grid, cfg, context=ctx)
    n, m = w.shape
    assert passed.rounds < n * m
    assert passed.grid_evaluations == n * m * cfg.grid_size
    if cfg.scan_order == ROW_MAJOR:
        with monkeypatch.context() as mp:
            mp.setattr(engine, "PASS_MIN_ROWS", w.shape[0] + 1)
            walked = quantize_layer(w, h, grid, cfg, context=ctx)
        assert walked.rounds == n * m
        indices, intervals = walked.quantized.indices, walked.intervals
        bits, loss = walked.predicted_rate_bits, walked.quadratic_loss_delta
    else:
        indices, symbols, bits, loss = reference_walk(w, grid, cfg, ctx)
        intervals = reference_intervals(symbols, make_model(cfg.model_kind, cfg.grid_size))
    for a, b in ((passed.quantized.indices, indices), *zip(passed.intervals, intervals)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert passed.predicted_rate_bits == bits
    assert passed.quadratic_loss_delta == loss
    return passed


def tall_layer(seed, n, m):
    """N(0, 1/m) weights with log-normal row scales, and the Hessian of 4m
    Gaussian samples."""
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(n, m)) / np.sqrt(m) * np.exp(0.5 * rng.normal(size=(n, 1)))
    return w, accumulate_hessian([rng.normal(size=(m, 4 * m))])


class TestSpeculativePass:
    """The adaptive kinds' speculative pass gives bitwise the per-entry walk."""

    @pytest.mark.parametrize("lam", [0.0, 0.03, 1.0, 30.0])
    @pytest.mark.parametrize("k", [2, 3, 9, 17, 33, 65])
    @pytest.mark.parametrize("scan_order", SCAN_ORDERS)
    @pytest.mark.parametrize("kind", [ADAPTIVE, CONTEXT])
    def test_equals_walk(self, monkeypatch, kind, scan_order, k, lam):
        w, h = tall_layer(k, PASS_MIN_ROWS + 6, 40)
        cfg = CompressionConfig(lam=lam, grid_size=k, scan_order=scan_order, model_kind=kind)
        pass_and_walk(monkeypatch, w, h, cfg)

    @pytest.mark.parametrize("scan_order", SCAN_ORDERS)
    @pytest.mark.parametrize("kind", [ADAPTIVE, CONTEXT])
    def test_tables_halve_inside_rows_and_windows(self, monkeypatch, kind, scan_order):
        # 300 x 300 = 90 000 symbols: a table halves in the middle of a row
        # (of a column, column-major), the adaptive kind's one table inside
        # the first window of rows, within its first 256 rows (76 800 symbols)
        w, h = tall_layer(7, 300, 300)
        cfg = CompressionConfig(lam=0.03, grid_size=9, scan_order=scan_order, model_kind=kind)
        res = pass_and_walk(monkeypatch, w, h, cfg)
        symbols = res.quantized.symbols_in_scan_order()
        assert max(halvings_per_table(symbols, res.intervals[2], kind, 9)) >= 1
        first = np.flatnonzero(np.diff(res.intervals[2]) < 0)[0] + 1
        assert first % 300 not in (0, 299)
        if kind == ADAPTIVE and scan_order == ROW_MAJOR:
            assert first < 256 * 300

    def test_slow_convergence_halves_the_window(self, monkeypatch):
        # context at k=33 and lam=1 locks in: rounds accept a row or two, so
        # the window of rows halves down to MIN_ACCEPT rows
        windows = []
        real_drive = engine._drive

        def spied(n, most, round_fn):
            def counted(u0, u1):
                windows.append(u1 - u0)
                return round_fn(u0, u1)
            return real_drive(n, most, counted)

        monkeypatch.setattr(engine, "_drive", spied)
        w, h = tall_layer(1, 256, 32)
        cfg = CompressionConfig(lam=1.0, grid_size=33, model_kind=CONTEXT)
        res = pass_and_walk(monkeypatch, w, h, cfg)
        assert windows[0] == 256 and engine.MIN_ACCEPT in windows
        assert res.rounds == len(windows)

    def test_slow_column_takes_several_rounds(self, monkeypatch):
        w, h = tall_layer(1, 256, 32)
        cfg = CompressionConfig(lam=1.0, grid_size=33, scan_order=COLUMN_MAJOR,
                                model_kind=CONTEXT)
        res = pass_and_walk(monkeypatch, w, h, cfg)
        assert res.rounds > 2 * 32

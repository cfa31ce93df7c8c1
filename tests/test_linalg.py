import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import cerwu
from cerwu.errors import FactorizationError, ShapeError
from cerwu.linalg import (
    accumulate_hessian,
    as_matrix,
    build_context,
    compute_gamma,
)

from conftest import (
    chol_upper_of,
    random_spd,
    reference_accumulate_hessian,
    reference_build_context,
    regularized_hessian,
)

LN2 = np.log(2.0)


class TestAccumulateHessian:
    def test_identity_activations(self):
        h = accumulate_hessian([np.eye(2)])
        assert np.allclose(h, 2.0 * np.eye(2), atol=1e-15)

    def test_rank_one_outer_product(self):
        h = accumulate_hessian([np.array([[1.0], [1.0]])])
        assert np.allclose(h, [[2.0, 2.0], [2.0, 2.0]], atol=1e-15)

    def test_batches_match_concatenation(self):
        rng = np.random.default_rng(0)
        x1 = rng.normal(size=(4, 16))
        x2 = rng.normal(size=(4, 16))
        split = accumulate_hessian([x1, x2])
        joint = accumulate_hessian([np.concatenate([x1, x2], axis=1)])
        assert np.max(np.abs(split - joint)) <= 1e-12

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(1)
        h = accumulate_hessian([rng.normal(size=(8, 31))])
        assert np.array_equal(h, h.T)

    @pytest.mark.parametrize("layout", ["C", "F", "strided", "float32", "batches"])
    @pytest.mark.parametrize("m, p", [(1, 5), (2, 1), (17, 40), (65, 33), (130, 300)])
    def test_bitwise_reference(self, layout, m, p):
        rng = np.random.default_rng(m * p)
        x = rng.normal(size=(m, 2 * p))
        batches = {
            "C": [x],
            "F": [np.asfortranarray(x)],
            "strided": [x[:, ::2]],
            "float32": [x.astype(np.float32)],
            "batches": [x[:, :p], rng.normal(size=(m, 3)).astype(np.float32), x[:, p:]],
        }[layout]
        h = accumulate_hessian(batches)
        ref = reference_accumulate_hessian(batches)
        assert h.dtype == ref.dtype and h.tobytes() == ref.tobytes()
        assert np.array_equal(h, h.T)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e200])
    @pytest.mark.parametrize("batch", [0, 1, 2])
    @pytest.mark.parametrize("row", [0, 3, 5])
    def test_non_finite_or_overflowing_row_names_batch(self, value, batch, row):
        # a NaN or infinity anywhere in row r, or a finite entry whose
        # square overflows, leaves H[r, r] non-finite
        rng = np.random.default_rng(row)
        batches = [rng.normal(size=(6, 4)) for _ in range(3)]
        batches[batch][row, 2] = value
        with pytest.raises(ShapeError, match=f"activation batch {batch}: contains non-finite"):
            accumulate_hessian(batches)

    @pytest.mark.parametrize("scales, batch", [
        ((1e-160,), 0), ((1e-156, 1e-158), 1), ((0.0,), 0), ((0.0, 0.0, 1e-170), 2),
        ((1.0, 1e-160), None), ((1e-160, 1.0), None), ((0.0, 1e-150), None),
    ])
    def test_subnormal_or_zero_hessian_names_batch(self, scales, batch):
        # H's largest diagonal entry, once every batch is summed, below the
        # smallest normal float64 is refused, naming the last batch; one
        # normal batch is enough
        rng = np.random.default_rng(5)
        batches = [rng.normal(size=(6, 16)) * s for s in scales]
        if batch is None:
            assert np.all(np.isfinite(accumulate_hessian(batches)))
            return
        with pytest.raises(ShapeError, match=f"activation batch {batch}: .* zero or subnormal"):
            accumulate_hessian(batches)

    def test_rejects_mismatched_batches(self):
        with pytest.raises(ShapeError):
            accumulate_hessian([np.eye(3), np.eye(4)])

    def test_rejects_empty_batch_list(self):
        with pytest.raises(ShapeError):
            accumulate_hessian([])


class TestComputeGamma:
    def test_unit_variance(self):
        # population variance of {-1, 1} entries is exactly 1
        w = np.array([[-1.0, 1.0], [1.0, -1.0]])
        assert abs(compute_gamma(w) - 1.0 / LN2) <= 1e-12

    def test_constant_matrix_guard(self):
        # a degenerate Gaussian fit: no regularization rather than a huge gamma
        for w in (np.full((3, 3), 0.7), np.zeros((2, 4)), np.full((1, 5), -1e-40)):
            assert compute_gamma(w) == 0.0

    def test_direct_variance(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(5, 7))
        var = np.mean((w - w.mean()) ** 2)
        assert abs(compute_gamma(w) - 1.0 / (LN2 * var)) <= 1e-12 * compute_gamma(w)


    def test_offset_layer_fitted_about_zero(self):
        # where mean^2 > Var the spread is half the second moment; a
        # centred layer keeps its variance, bitwise
        rng = np.random.default_rng(10)
        w = 0.5 + 1e-6 * rng.uniform(-1.0, 1.0, size=(4, 16))
        assert compute_gamma(w) == 1.0 / (np.log(2.0) * (0.5 * float(np.mean(w * w))))
        v = rng.normal(size=(5, 7))
        assert compute_gamma(v) == 1.0 / (np.log(2.0) * float(np.var(v)))


class TestBuildContext:
    def test_diagonal_case(self):
        w = np.array([[0.5, -0.25], [1.0, 2.0]])
        ctx = build_context(w, 2.0 * np.eye(2), lam=0.0, damping_delta=0.0)
        assert np.array_equal(ctx.w_prime, w)
        assert np.allclose(ctx.chol_upper, np.eye(2) / np.sqrt(2.0), atol=1e-14)

    def test_lambda_zero_identity(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(4, 6))
        h = random_spd(rng, 6)
        ctx = build_context(w, h, lam=0.0, damping_delta=0.0)
        assert np.max(np.abs(ctx.w_prime - w)) <= 1e-10

    def test_ridge_limit_shrinks_to_zero(self):
        # diagonal Hessian: entries of W' shrink monotonically in lambda
        rng = np.random.default_rng(4)
        w = rng.normal(size=(3, 4))
        h = np.diag(rng.uniform(0.5, 2.0, size=4))
        prev = np.abs(w)
        for lam in (1e-2, 1.0, 1e2, 1e6):
            ctx = build_context(w, h, lam=lam, damping_delta=0.0, gamma=1.0)
            cur = np.abs(ctx.w_prime)
            assert np.all(cur <= prev + 1e-12)
            prev = cur
        assert np.max(prev) < 1e-5

    def test_inverse_reconstruction(self):
        rng = np.random.default_rng(5)
        h = random_spd(rng, 3)
        ctx = build_context(rng.normal(size=(2, 3)), h, lam=0.01, damping_delta=0.0)
        c = ctx.chol_upper
        product = (c.T @ c) @ regularized_hessian(h, 0.0, ctx.lam, ctx.gamma)
        assert np.max(np.abs(product - np.eye(3))) <= 1e-8

    def test_chol_upper_triangular_positive_diag(self):
        rng = np.random.default_rng(6)
        ctx = build_context(
            rng.normal(size=(3, 5)), random_spd(rng, 5), lam=0.1, damping_delta=1e-2
        )
        c = ctx.chol_upper
        assert np.array_equal(np.tril(c, -1), np.zeros_like(c))
        assert np.all(np.diag(c) > 0)

    def test_singular_hessian_raises(self):
        w = np.ones((2, 3))
        h = np.zeros((3, 3))  # rank 0: not factorizable without damping
        with pytest.raises(FactorizationError):
            build_context(w, h, lam=0.0, damping_delta=0.0)

    def test_overflowing_factor_inverse_raises(self):
        # P H P = L L^T with unit diagonal and -2 below it: L^-1 holds
        # 2^(i-j), which overflows for m > 1024 although H is SPD.
        m = 1100
        low = np.eye(m) - 2.0 * np.eye(m, k=-1)
        h = (low @ low.T)[::-1, ::-1]
        with pytest.raises(FactorizationError):
            build_context(np.ones((1, m)), h, lam=0.0, damping_delta=0.0)

    @pytest.mark.parametrize("scale, lam", [(1e152, 0.0), (1.0, 1e307)])
    def test_non_finite_diagonal_terms_raise(self, scale, lam):
        # at 1e152 each diagonal entry of H is finite (about 5e306) but
        # their sum, and so the damping term, is not; at lam = 1e307 the
        # ridge lam * gamma overflows. Neither may reach the factorization.
        rng = np.random.default_rng(16)
        w = rng.normal(size=(16, 64)) / 8.0
        h = accumulate_hessian([rng.normal(size=(64, 256)) * scale])
        assert np.all(np.isfinite(h.diagonal()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FactorizationError, match="not finite"):
                build_context(w, h, lam=lam)

    @pytest.mark.parametrize("m", [1, 2, 17, 120, 300])
    @pytest.mark.parametrize("cond", [1.0, 1e4, 1e8])
    @pytest.mark.parametrize("ridge", [0.0, 1e-9, 1.0])
    def test_matches_explicit_inverse(self, m, cond, ridge):
        rng = np.random.default_rng(m)
        q, _ = np.linalg.qr(rng.normal(size=(m, m)))
        h = (q * np.logspace(0.0, -np.log10(cond), m)) @ q.T
        h = (h + h.T) / 2.0
        w = rng.normal(size=(5, m))
        ctx = build_context(w, h, lam=ridge, damping_delta=0.0, gamma=1.0)
        c = ctx.chol_upper
        assert np.array_equal(np.tril(c, -1), np.zeros_like(c))
        assert np.all(np.diag(c) > 0)
        hp = regularized_hessian(h, 0.0, ridge, 1.0)
        ref_c = chol_upper_of(hp)
        ref_w = w @ h @ np.linalg.inv(hp)
        assert np.linalg.norm(c - ref_c) <= 1e-8 * np.linalg.norm(ref_c)
        assert np.linalg.norm(ctx.w_prime - ref_w) <= 1e-8 * np.linalg.norm(ref_w)

    @pytest.mark.parametrize("m", [1, 2, 17, 64, 65, 300])
    @pytest.mark.parametrize("lam", [0.0, 0.03])
    @pytest.mark.parametrize("delta", [0.0, 1e-2])
    def test_bitwise_reference(self, m, lam, delta):
        rng = np.random.default_rng(m)
        w = rng.normal(size=(5, m))
        h = accumulate_hessian([rng.normal(size=(m, 2 * m + 1))])
        ctx = build_context(w, h, lam=lam, damping_delta=delta)
        ref = reference_build_context(w, h, lam, delta)
        assert ctx.chol_upper.flags.c_contiguous
        for got, want in ((ctx.chol_upper, ref.chol_upper), (ctx.w_prime, ref.w_prime)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_damping_rescues_singular_hessian(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(5, 2))  # rank-2 Hessian of size 5
        h = accumulate_hessian([x])
        ctx = build_context(rng.normal(size=(3, 5)), h, lam=0.0, damping_delta=1e-2)
        assert np.all(np.isfinite(ctx.chol_upper))

    def test_gamma_override(self):
        rng = np.random.default_rng(8)
        w = rng.normal(size=(2, 3))
        h = random_spd(rng, 3)
        forced = build_context(w, h, lam=0.5, damping_delta=0.0, gamma=0.0)
        assert np.array_equal(forced.w_prime, w)  # ridge vanishes at gamma=0
        assert forced.gamma == 0.0

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            build_context(np.ones((2, 3)), np.eye(4), lam=0.0)

    @pytest.mark.parametrize("lam,delta", [
        (float("nan"), 0.0), (float("inf"), 0.0), (-1.0, 0.0),
        (0.0, float("nan")), (0.0, float("inf")), (0.0, -1.0),
    ])
    def test_rejects_non_finite_or_negative_lam_and_delta(self, lam, delta):
        with pytest.raises(ShapeError, match="finite and nonnegative"):
            build_context(np.ones((2, 3)), np.eye(3), lam=lam, damping_delta=delta)


def completing_square_spread(rng, n, m, lam, delta, n_samples=10):
    """Spread of the difference between the two loss forms over random
    reconstruction matrices; zero (up to rounding) iff they agree up to a
    constant."""
    w = rng.normal(size=(n, m))
    x = rng.normal(size=(m, 3 * m))
    h = accumulate_hessian([x])
    gamma = compute_gamma(w)
    ctx = build_context(w, h, lam=lam, damping_delta=delta, gamma=gamma)
    h_d = h.copy()
    if delta > 0:
        h_d[np.diag_indices(m)] += delta * np.mean(np.diag(h))
    h_reg = regularized_hessian(h, delta, lam, gamma)

    diffs = []
    for _ in range(n_samples):
        what = rng.normal(size=(n, m))
        if delta == 0:
            direct = np.sum(((w - what) @ x) ** 2)
        else:
            e = w - what
            direct = 0.5 * np.trace(e @ h_d @ e.T)
        direct += 0.5 * lam * gamma * np.sum(what**2)
        ep = ctx.w_prime - what
        completed = 0.5 * np.trace(ep @ h_reg @ ep.T)
        diffs.append(direct - completed)
    diffs = np.asarray(diffs)
    scale = max(np.mean(np.abs(diffs)), 1e-30)
    return np.std(diffs) / scale


@pytest.mark.parametrize("delta", [0.0, 1e-2])
def test_completing_the_square_identity(delta):
    rng = np.random.default_rng(9)
    for trial in range(20):
        n = int(rng.integers(1, 9))
        # single-entry matrices have zero variance, tripping the gamma
        # guard; the identity needs a nondegenerate Gaussian fit
        m = int(rng.integers(2, 9)) if n == 1 else int(rng.integers(1, 9))
        lam = float(rng.uniform(0.01, 2.0))
        assert completing_square_spread(rng, n, m, lam, delta) <= 1e-6


def test_as_matrix_rejects_non_finite():
    with pytest.raises(ShapeError):
        as_matrix(np.array([[1.0, np.nan]]))


def test_import_cerwu_leaves_scipy_linalg_unloaded():
    # scipy.linalg is most of the package's import time; only build_context
    # needs it, and it imports it when first called.
    src = os.path.dirname(os.path.dirname(cerwu.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", "import sys, cerwu; print('scipy.linalg' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert child.stdout.strip() == "False"

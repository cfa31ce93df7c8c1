"""Quadratic-loss machinery for layer-wise weight compression.

A layer with weights ``W`` (n x m) and calibration inputs ``X`` (m x p)
induces the layer-output loss ``||W X - What X||^2``. Its Hessian over a
weight row is ``H = 2 X X^T``. Adding a Gaussian rate proxy with strength
``lam * gamma`` turns this into the regularized form

    H' = H_d + lam * gamma * I        (H_d = H damped by a relative ridge)
    W' = W H_d (H')^-1

and completing the square rewrites the loss as
``0.5 * Tr[(W' - What) H' (W' - What)^T] + const``. The Cholesky-style
factor ``C'`` (upper triangular, ``C'^T C' = (H')^-1``) drives the
per-entry weight updates in the quantization engine.

``C'`` is formed without the explicit inverse: with ``P`` the reversal
permutation, one Cholesky factorization ``P H' P = L L^T`` gives
``C' = P L^-1 P`` through one triangular inverse, about ``2m^3/3`` flops.
Since ``H_d = H' - lam * gamma * I``, the regularized weights follow as
``W' = W - lam * gamma * (W C'^T) C'``.

Beyond those BLAS/LAPACK calls each function makes only one-dimensional
or banded passes over an m x m matrix:

* ``H`` is symmetric by construction: each batch is C-contiguous, so
  numpy computes ``X_b X_b^T`` with one symmetric rank-k update and
  mirrors its triangle, and a sum of exactly symmetric products is
  exactly symmetric. No symmetrizing pass is needed.
* Activations are not scanned for NaN or infinity. A non-finite entry in
  row r of a batch, or a finite one whose square overflows, makes
  ``H[r, r]`` non-finite, so checking the diagonal after each batch
  rejects exactly those batches.
* :func:`build_context` requires a symmetric Hessian: ``P H P`` is then
  the flat reversal of ``H``'s buffer, one sequential copy, and the
  factorization reads one triangle of it.

All arithmetic is 64-bit; 32-bit inputs are widened on entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import FactorizationError, ShapeError

# Population variance below this is a degenerate Gaussian fit: gamma is 0.
VAR_FLOOR = 1e-30

# Relative ridge added to the Hessian diagonal before regularization.
DEFAULT_DAMPING = 1e-2

# Smallest normal float64: a Hessian whose largest entry lies below it is
# subnormal throughout.
_TINY = float(np.finfo(np.float64).tiny)

# Rows per band when build_context copies the upper triangle of C' out of
# the Fortran-ordered inverse factor. At m=1536 (one thread) bands of 16 to
# 128 rows took 14-15 ms, against 26 ms for transposing the whole matrix.
COPY_BAND = 64


def _widen(a, name: str) -> np.ndarray:
    """Widen an array to a 2-D float64 C-contiguous matrix, not empty."""
    m = np.ascontiguousarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"{name}: expected 2-D array, got ndim={m.ndim}")
    if m.size == 0:
        raise ShapeError(f"{name}: empty matrix")
    return m


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and widen an array to a 2-D float64 C-contiguous matrix."""
    m = _widen(a, name)
    if not np.all(np.isfinite(m)):
        raise ShapeError(f"{name}: contains non-finite entries")
    return m


def check_finite_nonnegative(value: float, name: str) -> None:
    """Raise ShapeError unless ``0 <= value < inf``; NaN fails too."""
    if not 0 <= value < math.inf:
        raise ShapeError(f"{name} must be finite and nonnegative, got {value!r}")


@dataclass(frozen=True)
class LayerContext:
    """Regularized per-layer state consumed by the quantization engine.

    Attributes:
        w_prime: regularized weights ``W' = W H_d (H')^-1`` (n x m).
        chol_upper: upper-triangular ``C'`` with ``C'^T C' = (H')^-1``;
            strictly positive diagonal.
        gamma: Gaussian rate-proxy scale (1 / (ln 2 * Var(W)); 0 disables
            regularized updates).
        lam: rate-distortion trade-off weight.
        damping_delta: relative ridge applied to the Hessian diagonal.
    """

    w_prime: np.ndarray
    chol_upper: np.ndarray
    gamma: float
    lam: float
    damping_delta: float


def accumulate_hessian(activation_batches: Sequence[np.ndarray]) -> np.ndarray:
    """Accumulate ``H = 2 * sum_b X_b X_b^T`` over activation batches.

    Every batch must be m x p_b with a common m. Each batch product is
    exactly symmetric (see the module notes), so ``H == H.T`` exactly.

    Raises:
        ShapeError: a batch is not a nonempty 2-D array of m rows, or it
            holds a NaN or an infinity, or finite entries whose squares
            overflow: then ``H``'s diagonal is not finite after that batch.
            Or, with every batch summed, ``H``'s largest diagonal entry is
            zero or subnormal (below ``np.finfo(np.float64).tiny``): every
            entry of ``H`` has then lost its precision, or there is none, and
            the layer would be quantized from a distorted Hessian or could
            not be factorized. The message names the last batch. Some tiny
            features next to normal ones are fine.
    """
    h = None
    for i, batch in enumerate(activation_batches):
        x = _widen(batch, f"activation batch {i}")
        if h is not None and x.shape[0] != h.shape[0]:
            raise ShapeError(
                f"accumulate_hessian: batch {i} has {x.shape[0]} rows, expected {h.shape[0]}"
            )
        # A non-finite product is reported below, not warned about.
        with np.errstate(over="ignore", invalid="ignore"):
            xxt = x @ x.T
            xxt *= 2.0
            if h is None:
                h = xxt
            else:
                h += xxt
        # Diagonal entries are sums of squares: their largest is NaN or
        # infinite exactly when one of them is.
        peak = float(h.diagonal().max())
        if not peak < math.inf:
            raise ShapeError(
                f"activation batch {i}: contains non-finite entries, "
                "or entries whose squares overflow"
            )
    if h is None:
        raise ShapeError("accumulate_hessian: need at least one batch")
    if peak < _TINY:
        raise ShapeError(
            f"activation batch {i}: with every batch summed, the Hessian's largest "
            f"diagonal entry is {peak!r}, zero or subnormal: the activations are too "
            "small to weigh the weights; scale them up"
        )
    return h


def compute_gamma(weights) -> float:
    """Rate-proxy scale ``1 / (ln 2 * s)`` from a Gaussian fit.

    ``s`` is the population variance of all entries, or half their second
    moment ``E[W^2]`` where that is larger, that is where the mean
    outweighs the spread (``mean^2 > Var``). The proxy term
    ``-0.5 * lam * gamma * g^2`` is centred at zero, so such an offset
    layer is fitted about zero: on ``0.5 +- eps`` the variance alone gives
    a gamma whose ridge ``lam * gamma`` dwarfs the Hessian and collapses
    ``W'`` toward zero (errors of 0.25 to 1 at lam = 0.03, k = 9). A
    centred layer keeps its variance, bitwise.

    Below ``VAR_FLOOR`` the fit is degenerate and the result is ``0.0``: a
    (near-)constant matrix gets no Gaussian regularization. (A clamped
    variance would give gamma near 1e30, whose ridge and Gaussian term do
    not cancel in float64.)
    """
    w = as_matrix(weights, "weights")
    var = float(np.var(w))
    if var < VAR_FLOOR:
        return 0.0
    spread = max(var, 0.5 * float(np.mean(w * w)))
    return 1.0 / (np.log(2.0) * spread)


def build_context(
    weights,
    hessian,
    lam: float,
    damping_delta: float = DEFAULT_DAMPING,
    gamma: Optional[float] = None,
) -> LayerContext:
    """Build the regularized layer context from weights and Hessian.

    With ``H_d = H + damping_delta * mean(diag(H)) * I`` and
    ``H' = H_d + lam * gamma * I``, computes ``W' = W H_d (H')^-1`` and the
    upper-triangular ``C'`` with ``C'^T C' = (H')^-1``.

    ``gamma`` defaults to :func:`compute_gamma` of the weights; pass ``0.0``
    to force unregularized weight updates.

    ``hessian`` must be symmetric, as every Hessian
    :func:`accumulate_hessian` returns is: the factorization reads only
    its lower triangle. ``C'`` is C-contiguous, the layout the engine's
    row updates and the ``W'`` products are computed from.

    Raises:
        FactorizationError: ``H'`` is numerically singular, or so badly
            conditioned that ``C'`` overflows (raise ``damping_delta`` and
            retry); or its damping term or ridge is not finite, as when the
            diagonal of a Hessian of huge activations sums past the float64
            range.
    """
    w = as_matrix(weights, "weights")
    h = as_matrix(hessian, "hessian")
    if h.shape[0] != h.shape[1]:
        raise ShapeError(f"hessian must be square, got {h.shape}")
    if w.shape[1] != h.shape[0]:
        raise ShapeError(
            f"weights cols ({w.shape[1]}) must match hessian size ({h.shape[0]})"
        )
    check_finite_nonnegative(lam, "lam")
    check_finite_nonnegative(damping_delta, "damping_delta")
    if gamma is None:
        gamma = compute_gamma(w)
    m = h.shape[0]
    # Finite terms can sum or multiply past the float64 range: that is
    # reported below, not warned about.
    with np.errstate(over="ignore"):
        damping = damping_delta * float(np.mean(np.diag(h))) if damping_delta > 0 else 0.0
        ridge = lam * gamma
    if not (math.isfinite(damping) and math.isfinite(ridge)):
        raise FactorizationError(
            f"the regularized Hessian's damping term ({damping!r}) or ridge "
            f"({ridge!r}) is not finite; scale the activations down"
        )

    # Imported at its one use: it is most of the time importing cerwu takes.
    import scipy.linalg

    # P H' P = L L^T gives H' = (P L P)(P L P)^T, so C' = P L^-1 P. Read
    # in Fortran order, the reversal of H's C buffer is (P H P)^T, which is
    # P H P for a symmetric H: one sequential copy that LAPACK then works
    # on in place.
    h_rev = h.ravel()[::-1].copy().reshape((m, m), order="F")
    diag = np.diag_indices(m)
    if damping_delta > 0:
        h_rev[diag] += damping
    if ridge > 0:
        h_rev[diag] += ridge
    try:
        low = scipy.linalg.cholesky(h_rev, lower=True, overwrite_a=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise FactorizationError(
            "regularized Hessian is numerically singular; "
            "raise damping_delta and retry"
        ) from exc
    low_inv, info = scipy.linalg.lapack.dtrtri(low, lower=1, overwrite_c=1)
    # A successful Cholesky leaves a positive diagonal, but the inverse of
    # a badly conditioned factor can still overflow.
    if info != 0 or not np.all(np.isfinite(low_inv)):
        raise FactorizationError(
            "inverse of the regularized Hessian's factor overflowed; "
            "raise damping_delta and retry"
        )
    # C' = P L^-1 P is upper triangular: copy its upper triangle, a band of
    # rows at a time, into zeros rather than transposing all of L^-1.
    rev = low_inv[::-1, ::-1]
    chol_upper = np.zeros((m, m))
    for r0 in range(0, m, COPY_BAND):
        chol_upper[r0 : r0 + COPY_BAND, r0:] = rev[r0 : r0 + COPY_BAND, r0:]

    if ridge == 0:
        # H' == H_d, so W H_d (H')^-1 == W exactly; skip the products to
        # keep the identity bit-exact.
        w_prime = w.copy()
    else:
        # W H_d (H')^-1 = W (H' - ridge I) (H')^-1 = W - ridge W C'^T C'.
        w_prime = w - ridge * ((w @ chol_upper.T) @ chol_upper)

    return LayerContext(
        w_prime=w_prime,
        chol_upper=chol_upper,
        gamma=float(gamma),
        lam=float(lam),
        damping_delta=float(damping_delta),
    )

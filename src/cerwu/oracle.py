"""Independent brute-force and closed-form verifiers.

Everything here recomputes results from first principles (explicit
loops, direct linear solves) and deliberately shares nothing with the
engine beyond the entropy-model interface. The test suite uses these
routines as ground truth for the fast paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .entropy import EntropyModel
from .errors import SearchSpaceError, ShapeError
from .grids import COLUMN_MAJOR, ROW_MAJOR, Grid, QuantizedLayer

# Refuse exhaustive enumeration beyond this many assignments.
MAX_ASSIGNMENTS = 2_000_000


@dataclass(frozen=True)
class ObjectiveBreakdown:
    """Distortion / rate split of the layer objective."""

    distortion: float  # ||W X - What X||^2
    rate_bits: float   # model-replay sum of -log2 p
    total: float       # distortion + lam * rate_bits


def evaluate_objective(
    weights,
    activations,
    quantized: QuantizedLayer,
    lam: float,
    model_factory: Callable[[], EntropyModel],
) -> ObjectiveBreakdown:
    """Layer objective of a quantized matrix, computed from scratch.

    Distortion is the squared Frobenius norm of the output error;
    the rate replays a fresh model over the symbols in the layer's scan
    order, accumulating each symbol's cost at the state that precedes it.
    """
    w = np.asarray(weights, dtype=np.float64)
    x = np.asarray(activations, dtype=np.float64)
    n, m = w.shape
    if quantized.rows != n or quantized.cols != m:
        raise ShapeError("quantized layer shape does not match weights")
    if x.ndim != 2 or x.shape[0] != m:
        raise ShapeError(f"activations must be {m} x p, got {x.shape}")

    what = quantized.grid.levels[quantized.indices]
    err = (w - what) @ x
    distortion = float(np.sum(err * err))

    model = model_factory()
    _, step = model.stepper()
    rate = 0.0
    for s in quantized.symbols_in_scan_order().tolist():
        rate += float(model.rate_vector()[s])
        step(s)

    return ObjectiveBreakdown(
        distortion=distortion, rate_bits=rate, total=distortion + lam * rate
    )


def brute_force_minimize(
    weights,
    activations,
    grid: Grid,
    lam: float,
    model_factory: Callable[[], EntropyModel],
    scan_order: str = ROW_MAJOR,
) -> Tuple[QuantizedLayer, ObjectiveBreakdown]:
    """Globally optimal quantization by exhaustion of all assignments.

    Assignments are enumerated little-endian over scan order (first scan
    position cycles fastest); on objective ties the lexicographically
    smallest index sequence wins. Only feasible for
    ``k ** (n*m) <= MAX_ASSIGNMENTS``.
    """
    w = np.asarray(weights, dtype=np.float64)
    n, m = w.shape
    k = grid.size
    cells = n * m
    count = k**cells
    if count > MAX_ASSIGNMENTS:
        raise SearchSpaceError(
            f"{k}^{cells} = {count} assignments exceed the cap of {MAX_ASSIGNMENTS}"
        )

    best_obj = None
    best_seq = None
    digits = [0] * cells
    for code in range(count):
        a = code
        for pos in range(cells):
            a, digits[pos] = divmod(a, k)
        seq = tuple(digits)
        layer = _layer_from_scan_sequence(seq, n, m, grid, scan_order)
        obj = evaluate_objective(w, activations, layer, lam, model_factory)
        if (
            best_obj is None
            or obj.total < best_obj.total
            or (obj.total == best_obj.total and seq < best_seq)
        ):
            best_obj = obj
            best_seq = seq

    return (
        _layer_from_scan_sequence(best_seq, n, m, grid, scan_order),
        best_obj,
    )


def _layer_from_scan_sequence(seq, n, m, grid, scan_order) -> QuantizedLayer:
    idx = np.empty((n, m), dtype=np.int32)
    t = 0
    if scan_order == ROW_MAJOR:
        for i in range(n):
            for j in range(m):
                idx[i, j] = seq[t]
                t += 1
    elif scan_order == COLUMN_MAJOR:
        for j in range(m):
            for i in range(n):
                idx[i, j] = seq[t]
                t += 1
    else:
        raise ShapeError(f"unknown scan order {scan_order!r}")
    return QuantizedLayer(n, m, idx, grid, scan_order)


def constrained_quadratic_minimizer(
    w_prime_row,
    hessian_reg,
    prefix_values,
) -> np.ndarray:
    """Exact minimizer of the row-quadratic loss with a fixed prefix.

    Minimizes ``0.5 * (w' - v) H' (w' - v)^T`` over the suffix of ``v``
    subject to ``v[:len(prefix)] == prefix_values``, via the stationarity
    linear system. Returns the optimal suffix (empty when the prefix
    covers the whole row).
    """
    wp = np.asarray(w_prime_row, dtype=np.float64).ravel()
    hp = np.asarray(hessian_reg, dtype=np.float64)
    prefix = np.asarray(prefix_values, dtype=np.float64).ravel()
    m = wp.size
    p = prefix.size
    if hp.shape != (m, m):
        raise ShapeError(f"hessian must be {m} x {m}, got {hp.shape}")
    if p > m:
        raise ShapeError("prefix longer than the row")
    if p == m:
        return np.zeros(0, dtype=np.float64)
    if p == 0:
        return wp.copy()

    a = wp[:p] - prefix  # fixed deviation
    try:
        correction = np.linalg.solve(hp[p:, p:], hp[p:, :p] @ a)
    except np.linalg.LinAlgError as exc:
        raise ShapeError("suffix block of the Hessian is singular") from exc
    return wp[p:] + correction

"""Rate-aware layer quantization with entropy-regularized weight updates.

The engine walks the weight matrix in scan order and, per entry:

1. picks the grid level minimizing
   ``0.5*(w - g)^2 / c_j^2  +  lam * ratebits(g)  -  0.5*lam*gamma*g^2``
   by exhaustively scanning all k levels (``c_j`` is the j-th diagonal of
   the upper-triangular factor ``C'`` of the inverse regularized Hessian,
   ``ratebits`` the autoregressive model's current per-symbol cost);
2. compensates the still-unquantized entries of the same row:
   ``W'[i, j+1:] -= ((w - g) / c_j) * C'[j, j+1:]``, the closed-form
   optimal update of the remaining row under the quadratic loss;
3. feeds the chosen symbol to the entropy model.

Row-major order finishes a row before moving down; column-major finishes
a column first. Both use the same per-row compensation (the quadratic
loss has no cross-row terms); only the traversal, and therefore the
symbol stream seen by the model, differs. Since the model is a
deterministic function of the symbol stream, encoding afterwards by
replaying a fresh model pays exactly the predicted bits (up to coder
flush overhead).

Setting ``lam = 0`` disables rate awareness (nearest-level choices with
pure loss-compensating updates); ``gamma_mode="zero"`` keeps rate-aware
choices but removes the Gaussian regularization from the updates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import entropy
from .entropy import EntropyModel, make_model
from .errors import ShapeError
from .grids import ROW_MAJOR, SCAN_ORDERS, Grid, QuantizedLayer, build_grid
from .linalg import DEFAULT_DAMPING, LayerContext, as_matrix, build_context, compute_gamma
from .rangecoder import Payload, encode

GAMMA_STANDARD = "standard"
GAMMA_ZERO = "zero"

# Cholesky diagonals at or below this are treated as degenerate
# (distortion-insensitive direction).
CDIAG_FLOOR = 1e-12


@dataclass(frozen=True)
class CompressionConfig:
    """Knobs for one compression run.

    ``lam=0`` reproduces the rate-oblivious ablation; ``gamma_mode="zero"``
    reproduces the unregularized-update ablation.
    """

    lam: float
    grid_size: int
    scan_order: str = ROW_MAJOR
    model_kind: str = entropy.ADAPTIVE
    damping_delta: float = DEFAULT_DAMPING
    gamma_mode: str = GAMMA_STANDARD

    def __post_init__(self):
        if self.lam < 0:
            raise ShapeError("lam must be nonnegative")
        if self.grid_size < 2:
            raise ShapeError("grid_size must be >= 2")
        if self.scan_order not in SCAN_ORDERS:
            raise ShapeError(f"unknown scan order {self.scan_order!r}")
        if self.model_kind not in entropy.MODEL_KINDS:
            raise ShapeError(f"unknown model kind {self.model_kind!r}")
        if self.gamma_mode not in (GAMMA_STANDARD, GAMMA_ZERO):
            raise ShapeError(f"unknown gamma mode {self.gamma_mode!r}")


@dataclass
class LayerResult:
    """Output of one engine pass over a layer."""

    quantized: QuantizedLayer
    predicted_rate_bits: float
    quadratic_loss_delta: float
    symbols_in_scan_order: np.ndarray
    grid_evaluations: int  # objective evaluations: exactly n*m*k


def quantization_step(
    w_prime_entry: float,
    c_diag: float,
    grid: Grid,
    lam: float,
    gamma: float,
    dist: entropy.SymbolDistribution,
) -> int:
    """Exhaustive grid search for a single entry; returns the grid index.

    Ties break toward the level with smaller absolute value, then toward
    the negative one.
    """
    if c_diag <= 0:
        raise ShapeError("c_diag must be positive")
    rates = dist.rates()
    pref = _preference_order(grid.levels)
    idx, _ = _argmin_objective(
        float(w_prime_entry),
        0.5 / (max(c_diag, CDIAG_FLOOR) ** 2),
        grid.levels,
        lam,
        rates,
        0.5 * lam * gamma * grid.levels**2,
        pref,
    )
    return idx


def _preference_order(levels: np.ndarray) -> np.ndarray:
    """Indices sorted by (|level|, level): scan order for tie-breaking."""
    return np.lexsort((levels, np.abs(levels)))


def _argmin_objective(w, half_inv_c2, levels, lam, rates, gamma_term, pref):
    # Evaluate in tie-break preference order; argmin returns the first
    # minimum, which is then the smallest-|level| (then negative) choice.
    # Operation grouping matches the engine's inner loop exactly so both
    # paths agree bitwise.
    obj = levels[pref] - w
    obj = obj * obj * half_inv_c2
    if lam:
        obj = obj + (lam * rates[pref] - gamma_term[pref])
    t = int(np.argmin(obj))
    return int(pref[t]), float(obj[t])


def quantize_layer(
    weights,
    hessian,
    grid: Grid,
    config: CompressionConfig,
    model: Optional[EntropyModel] = None,
    context: Optional[LayerContext] = None,
) -> LayerResult:
    """Quantize one layer with rate-aware search and weight updates.

    ``hessian`` must come from the layer's calibration activations and
    ``grid`` from its weights. A prebuilt ``model`` (fresh) or ``context``
    may be supplied; by default they are derived from the config.
    """
    w = as_matrix(weights, "weights")
    n, m = w.shape
    if context is None:
        gamma = 0.0 if config.gamma_mode == GAMMA_ZERO else compute_gamma(w)
        context = build_context(
            w, hessian, config.lam, config.damping_delta, gamma=gamma
        )
    gamma = context.gamma
    if model is None:
        model = _default_model(w, grid, config)
    if model.k != grid.size:
        raise ShapeError(f"model k={model.k} does not match grid size {grid.size}")

    wp = context.w_prime.copy()
    chol = context.chol_upper
    cdiag = np.maximum(np.diag(chol), CDIAG_FLOOR)
    half_inv_c2 = 0.5 / (cdiag * cdiag)
    inv_c = 1.0 / cdiag

    levels = grid.levels
    pref = _preference_order(levels)
    levels_pref = levels[pref]
    gamma_term_pref = (0.5 * config.lam * gamma) * (levels_pref * levels_pref)
    lam = config.lam
    k = grid.size

    indices = np.empty((n, m), dtype=np.int32)
    symbols = np.empty(n * m, dtype=np.int32)
    rate_total = 0.0
    loss_delta = 0.0
    evals = 0
    t = 0
    obj_buf = np.empty(k, dtype=np.float64)
    rate_buf = np.empty(k, dtype=np.float64)

    if config.scan_order == ROW_MAJOR:
        positions = ((i, j) for i in range(n) for j in range(m))
    else:
        positions = ((i, j) for j in range(m) for i in range(n))
    for i, j in positions:
        rates = model.rate_vector()
        wij = wp[i, j]
        np.subtract(levels_pref, wij, out=obj_buf)
        np.multiply(obj_buf, obj_buf, out=obj_buf)
        np.multiply(obj_buf, half_inv_c2[j], out=obj_buf)
        if lam:
            np.take(rates, pref, out=rate_buf)
            np.multiply(rate_buf, lam, out=rate_buf)
            np.subtract(rate_buf, gamma_term_pref, out=rate_buf)
            np.add(obj_buf, rate_buf, out=obj_buf)
        evals += k
        idx = int(pref[int(np.argmin(obj_buf))])
        g = levels[idx]
        if j + 1 < m:
            wp[i, j + 1 :] -= ((wij - g) * inv_c[j]) * chol[j, j + 1 :]
        loss_delta += (wij - g) * (wij - g) * half_inv_c2[j]
        rate_total += float(rates[idx])
        indices[i, j] = idx
        symbols[t] = idx
        t += 1
        model.update(idx)

    quantized = QuantizedLayer(n, m, indices, grid, config.scan_order)
    return LayerResult(
        quantized=quantized,
        predicted_rate_bits=rate_total,
        quadratic_loss_delta=loss_delta,
        symbols_in_scan_order=symbols,
        grid_evaluations=evals,
    )


def obs_row_update(row_state: np.ndarray, j: int, quantized_value: float, chol_upper: np.ndarray) -> float:
    """Apply the single-entry row compensation in place; returns the loss increase.

    ``row_state`` holds the working row (entries < j already quantized,
    entry j still unquantized). Exposed for verification against the
    exact constrained minimizer.
    """
    c_jj = max(float(chol_upper[j, j]), CDIAG_FLOOR)
    err = (float(row_state[j]) - quantized_value) / c_jj
    if j + 1 < row_state.size:
        row_state[j + 1 :] -= err * chol_upper[j, j + 1 :]
    row_state[j] = quantized_value
    return 0.5 * err * err


def _default_model(w: np.ndarray, grid: Grid, config: CompressionConfig) -> EntropyModel:
    spec = model_spec_for(w, grid, config)
    return spec.fresh()


@dataclass(frozen=True)
class ModelSpec:
    """Everything needed to spawn identical fresh models for quantize,
    encode and decode passes."""

    kind: str
    k: int
    static_counts: Optional[np.ndarray] = None
    zero_index: Optional[int] = None

    def fresh(self) -> EntropyModel:
        return make_model(
            self.kind, self.k, static_counts=self.static_counts, zero_index=self.zero_index
        )


def model_spec_for(weights, grid: Grid, config: CompressionConfig) -> ModelSpec:
    """Model parameters for a layer.

    The static kind is fitted to the layer's nearest-level index histogram
    (a cheap pre-pass); its counts travel in the layer header. Adaptive
    kinds need no parameters.
    """
    if config.model_kind == entropy.STATIC:
        from .grids import nearest_indices

        w = as_matrix(weights, "weights")
        counts = np.bincount(nearest_indices(w, grid).ravel(), minlength=grid.size)
        freqs = entropy.quantize_counts(counts)
        return ModelSpec(entropy.STATIC, grid.size, static_counts=freqs)
    return ModelSpec(config.model_kind, grid.size, zero_index=grid.zero_index)


def compress_layer(
    weights, hessian, config: CompressionConfig
) -> Tuple[LayerResult, Payload, ModelSpec]:
    """Quantize a layer, then entropy-code the symbols by model replay."""
    w = as_matrix(weights, "weights")
    grid = build_grid(w, config.grid_size)
    spec = model_spec_for(w, grid, config)
    result = quantize_layer(w, hessian, grid, config, model=spec.fresh())
    payload = encode(result.symbols_in_scan_order, spec.fresh())
    return result, payload, spec


def rtn_layer(weights, config: CompressionConfig) -> Tuple[LayerResult, Payload, ModelSpec]:
    """Nearest-level quantization plus entropy coding (no weight updates).

    Shares the grid, model fitting and coding path with
    :func:`compress_layer`, so a zero-effect engine configuration and this
    baseline produce byte-identical payloads.
    """
    from .grids import round_to_nearest

    w = as_matrix(weights, "weights")
    grid = build_grid(w, config.grid_size)
    spec = model_spec_for(w, grid, config)
    quantized = round_to_nearest(w, grid, config.scan_order)
    symbols = quantized.symbols_in_scan_order()
    rate_model = spec.fresh()
    rate = entropy.sequence_rate_bits(symbols, rate_model)
    payload = encode(symbols, spec.fresh())
    result = LayerResult(
        quantized=quantized,
        predicted_rate_bits=rate,
        quadratic_loss_delta=0.0,
        symbols_in_scan_order=symbols.astype(np.int32),
        grid_evaluations=0,
    )
    return result, payload, spec

"""Rate-aware layer quantization with entropy-regularized weight updates.

The engine walks the weight matrix in scan order and, per entry:

1. picks the grid level minimizing
   ``0.5*(w - g)^2 / c_j^2  +  lam * ratebits(g)  -  0.5*lam*gamma*g^2``
   (``c_j`` is the j-th diagonal of the upper-triangular factor ``C'`` of
   the inverse regularized Hessian, ``ratebits`` the autoregressive
   model's current per-symbol cost), choosing exactly the level a scan of
   all k levels would choose, ties going to the smaller ``|g|``, then the
   negative one;
2. compensates the still-unquantized entries of the same row with the
   closed-form optimal update of the remaining row under the quadratic
   loss, ``W'[i, j+1:] -= ((w - g) / c_j) * C'[j, j+1:]``. The update is
   applied lazily, in blocks of :data:`BLOCK_SIZE` columns (GPTQ's lazy
   batch updates): the entry updates only the rest of its own block, and
   when the row's block ``[b0, b1)`` is finished the row takes the
   block's updates to every later column at once, as one product
   ``W'[i, b1:] -= (e[b0:b1] / c[b0:b1]) @ C'[b0:b1, b1:]`` of its
   recorded errors ``e = w - g``;
3. feeds the chosen symbol to the entropy model.

A layer with at most :data:`BLOCK_SIZE` columns is one block and gets
bitwise the arithmetic of updating the whole remaining row per entry.
Wider layers sum the same terms in another order, so their working
values differ from it only by rounding.

Row-major order finishes a row before moving down; column-major finishes
a column first. Both use the same per-row compensation (the quadratic
loss has no cross-row terms); only the traversal, and therefore the
symbol stream seen by the model, differs. Since the model is a
deterministic function of the symbol stream, encoding afterwards by
replaying a fresh model pays exactly the predicted bits (up to coder
flush overhead).

A static model's costs never change, so for it the row order does not
matter: the engine quantizes one column at a time, for all rows at once
(an ``n x k`` objective, a row-wise ``argmin`` and one rank-1 update of
the rest of the block), then gives each row its block product. The
elementwise arithmetic is the per-entry walk's and both paths make the
same per-row block product call, so indices, symbols, loss delta and
predicted bits are bitwise those of visiting the entries one by one.
Adaptive and context models take the per-entry walk. It searches on
Python floats, since for a handful of levels each numpy call costs more
than its arithmetic, and keeps numpy only for the row updates; each
entry makes one call into the model, the transition from
:meth:`~EntropyModel.stepper`. The search is bounded and exact: it
starts at the levels on either side of the working value and walks
outward, reads a level's rate ``log2(T) - log2(c)`` from the model's
cumulative counts only when it reaches that level, and stops on a side
once the distortion alone, less the largest Gaussian term, exceeds the
best objective so far, because the rate is never negative. On a 256x32
layer at ``lam = 0.03`` it evaluates under two levels per entry for k
from 5 to 33; the window widens as ``lam`` grows (6 of 9 levels at
``lam = 30``).

Setting ``lam = 0`` disables rate awareness (nearest-level choices with
pure loss-compensating updates); ``gamma_mode="zero"`` keeps rate-aware
choices but removes the Gaussian regularization from the updates.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import entropy
from .entropy import EntropyModel, make_model
from .errors import ShapeError
from .grids import (
    ROW_MAJOR,
    SCAN_ORDERS,
    Grid,
    QuantizedLayer,
    build_grid,
    from_scan_order,
    in_scan_order,
)
from .linalg import DEFAULT_DAMPING, LayerContext, as_matrix, build_context, compute_gamma
from .rangecoder import Payload, encode

GAMMA_STANDARD = "standard"
GAMMA_ZERO = "zero"

# Cholesky diagonals at or below this are treated as degenerate
# (distortion-insensitive direction).
CDIAG_FLOOR = 1e-12

# Width of the column blocks of the row update: inside a block each chosen
# entry updates the rest of the block at once, and every later column
# waits for one product per row at the block's end (GPTQ's lazy batch
# updates). Widths 32 to 128 quantized 32x784 and 1000x1000 static layers
# (k=9, one BLAS thread) equally fast; 16 took 1.5x as long on 1000x1000.
BLOCK_SIZE = 64


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
    # Levels covered by the exact search: n*m*k. The walk's bounded search
    # evaluates fewer, but rules out the rest without changing the choice.
    grid_evaluations: int


def quantization_step(
    w_prime_entry: float,
    c_diag: float,
    grid: Grid,
    lam: float,
    gamma: float,
    rates: np.ndarray,
) -> int:
    """Grid search for a single entry; returns the grid index.

    ``rates`` is the model's current :meth:`~EntropyModel.rate_vector`.
    Ties break toward the level with smaller absolute value, then toward
    the negative one. This is the static column path's search on a
    one-entry column.
    """
    if c_diag <= 0:
        raise ShapeError("c_diag must be positive")
    c = max(c_diag, CDIAG_FLOOR)
    pref, levels_pref, gamma_term_pref = _search_order(grid.levels, lam, gamma)
    rates = np.asarray(rates, dtype=np.float64)
    rate_term = _rate_term(rates, pref, lam, gamma_term_pref) if lam else None
    obj = _objective(np.array([[float(w_prime_entry)]]), 0.5 / (c * c), levels_pref, rate_term)
    return int(pref[obj.argmin(axis=1)[0]])


def _search_order(levels: np.ndarray, lam: float, gamma: float):
    """Levels in tie-break order, with their Gaussian-proxy terms.

    Returns ``pref`` (indices sorted by ``(|level|, level)``), the levels
    in that order and ``0.5 * lam * gamma * level^2`` in that order.
    Evaluating the objective in this order makes the first minimum the
    smallest-|level|, then negative, choice.
    """
    pref = np.lexsort((levels, np.abs(levels)))
    levels_pref = levels[pref]
    return pref, levels_pref, (0.5 * lam * gamma) * (levels_pref * levels_pref)


def _rate_term(rates, pref, lam, gamma_term_pref):
    """``lam * ratebits(g) - 0.5*lam*gamma*g^2`` over levels in tie-break order."""
    out = rates.take(pref)
    np.multiply(out, lam, out=out)
    return np.subtract(out, gamma_term_pref, out=out)


def _objective(w, half_inv_c2, levels_pref, rate_term, out=None):
    """Objective of every level in tie-break order for an ``(n, 1)`` column.

    ``0.5*(w - g)^2 / c_j^2`` plus ``rate_term`` (``None`` when
    ``lam == 0``), as an ``n x k`` table. The operations are those of the
    per-entry walk's search, one element at a time, so the column path and
    the walk choose bitwise alike.
    """
    out = np.subtract(levels_pref, w, out=out)
    np.multiply(out, out, out=out)
    np.multiply(out, half_inv_c2, out=out)
    if rate_term is not None:
        np.add(out, rate_term, out=out)
    return out


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
    if model is None:
        model = model_spec_for(w, grid, config)
    if model.k != grid.size:
        raise ShapeError(f"model k={model.k} does not match grid size {grid.size}")

    wp = context.w_prime.copy()
    chol = context.chol_upper
    cdiag = np.maximum(np.diag(chol), CDIAG_FLOOR)
    half_inv_c2 = 0.5 / (cdiag * cdiag)
    inv_c = 1.0 / cdiag

    levels = grid.levels
    lam = config.lam
    k = grid.size
    pref, levels_pref, gamma_term_pref = _search_order(levels, lam, context.gamma)

    order = config.scan_order

    if model.kind == entropy.STATIC:
        # The rates never change, so every row sees the same costs in any
        # order: quantize one column for all rows at once.
        indices = np.empty((n, m), dtype=np.int32)
        err = np.empty((n, m), dtype=np.float64)  # working value minus chosen level
        rates = model.rate_vector()
        rate_term = _rate_term(rates, pref, lam, gamma_term_pref) if lam else None
        obj_buf = np.empty((n, k), dtype=np.float64)
        for b0, b1 in _blocks(m):
            for j in range(b0, b1):
                col = wp[:, j]
                obj = _objective(col[:, None], half_inv_c2[j], levels_pref, rate_term, obj_buf)
                idx = pref[obj.argmin(axis=1)]
                e = col - levels[idx]
                if j + 1 < b1:
                    wp[:, j + 1 : b1] -= (e * inv_c[j])[:, None] * chol[j, j + 1 : b1]
                indices[:, j] = idx
                err[:, j] = e
            if b1 < m:
                for i in range(n):
                    _block_update(wp, i, b0, b1, err[i, b0:b1], inv_c, chol)
        bits = rates[indices]
    else:
        # The rates change after every symbol: visit the entries one by
        # one in scan order, on Python scalars, reading a level's rate from
        # the model's cumulative counts only when the search reaches it.
        L = entropy.LOG2
        cum, step = model.stepper()
        rank = np.argsort(pref)  # tie-break rank by index
        gt = gamma_term_pref[rank].tolist()  # gamma term by index
        gt_max = max(gt)
        rank = rank.tolist()
        first = int(pref[0])
        h = half_inv_c2.tolist()
        inv_c_list = inv_c.tolist()
        level_list = levels.tolist()  # ascending, so position == index
        chol_tail = [chol[j, j + 1 : b1] for b0, b1 in _blocks(m) for j in range(b0, b1)]
        idx_seq, err_seq, bits_seq = [], [], []
        for i, j, b1 in _walk(wp, order, err_seq, inv_c, chol):
            log_total = L[cum[-1]]
            wij = wp.item(i, j)
            hj = h[j]
            # Exact bounded search, equal to scanning all k levels in
            # tie-break order and keeping the first minimum. Each level's
            # objective is q + (r*lam - gt[p]) with q = (g - w)^2 * hj.
            # Rounding is monotone, r >= 0 (a count never exceeds the total
            # T and the LOG2 table never decreases), lam >= 0 and
            # gt[p] <= gt_max, so the objective is
            # at least fl(q - gt_max). Moving away from w on either side
            # q never decreases, so once fl(q - gt_max) > best every level
            # further out on that side has an objective above best, and
            # best only falls from there. The levels skipped can neither
            # win nor tie; among the levels scanned, keeping the lower
            # tie-break rank on equal objectives picks what the full scan's
            # strict ``<`` picks.
            best = math.inf
            idx = first
            best_rank = 0
            pos = bisect_left(level_list, wij)
            for side in (range(pos, k), range(pos - 1, -1, -1)):
                for p in side:
                    d = level_list[p] - wij
                    q = d * d * hj
                    if q - gt_max > best:
                        break
                    obj = q + ((log_total - L[cum[p + 1] - cum[p]]) * lam - gt[p])
                    if obj < best or (obj == best and rank[p] < best_rank):
                        best = obj
                        idx = p
                        best_rank = rank[p]
            e = wij - level_list[idx]
            if j + 1 < b1:
                v = wp[i, j + 1 : b1]
                np.subtract(v, (e * inv_c_list[j]) * chol_tail[j], out=v)
            idx_seq.append(idx)
            err_seq.append(e)
            bits_seq.append(log_total - L[cum[idx + 1] - cum[idx]])
            cum = step(idx)
        indices = np.ascontiguousarray(
            from_scan_order(np.array(idx_seq, dtype=np.int32), n, m, order)
        )
        err = from_scan_order(np.array(err_seq), n, m, order)
        bits = from_scan_order(np.array(bits_seq), n, m, order)

    quantized = QuantizedLayer(n, m, indices, grid, order)
    return LayerResult(
        quantized=quantized,
        predicted_rate_bits=_running_total(in_scan_order(bits, order)),
        quadratic_loss_delta=_running_total(in_scan_order(err * err * half_inv_c2, order)),
        symbols_in_scan_order=quantized.symbols_in_scan_order().copy(),
        grid_evaluations=n * m * k,
    )


def _blocks(m: int):
    """Column blocks ``(b0, b1)`` of width :data:`BLOCK_SIZE`, the last
    one possibly narrower."""
    return [(b0, min(b0 + BLOCK_SIZE, m)) for b0 in range(0, m, BLOCK_SIZE)]


def _block_update(wp, i, b0, b1, errs, inv_c, chol):
    """Apply a finished block's deferred updates to row ``i`` right of it.

    ``W'[i, b1:] -= (e[b0:b1] / c[b0:b1]) @ C'[b0:b1, b1:]``, with ``errs``
    the row's recorded errors ``e`` on the block's columns. The column path
    and the walk both call this once per row and block, on the same values,
    so they stay bitwise equal.
    """
    wp[i, b1:] -= (errs * inv_c[b0:b1]) @ chol[b0:b1, b1:]


def _walk(wp, order, err_seq, inv_c, chol):
    """The per-entry walk's positions ``(i, j, b1)`` in scan order, ``b1``
    the end of column ``j``'s block.

    Once row ``i`` has chosen every entry of a block that is not the last,
    the generator reads the row's errors back from ``err_seq`` (the walk's
    record, in scan order) and applies :func:`_block_update`, before any
    entry right of the block is visited.
    """
    n, m = wp.shape
    blocks = _blocks(m)
    if order == ROW_MAJOR:
        for i in range(n):
            for b0, b1 in blocks:
                for j in range(b0, b1):
                    yield i, j, b1
                if b1 < m:
                    errs = np.array(err_seq[i * m + b0 : i * m + b1])
                    _block_update(wp, i, b0, b1, errs, inv_c, chol)
    else:
        for b0, b1 in blocks:
            for j in range(b0, b1):
                for i in range(n):
                    yield i, j, b1
            if b1 < m:
                for i in range(n):
                    errs = np.array(err_seq[b0 * n + i : b1 * n : n])
                    _block_update(wp, i, b0, b1, errs, inv_c, chol)


def _running_total(values: np.ndarray) -> float:
    """Left-to-right sum, in the order the entries were chosen.

    ``np.sum`` adds pairwise; a running sum does not depend on how a path
    grouped its work, so the column and per-entry paths agree bitwise.
    """
    return float(np.cumsum(values)[-1])


def model_spec_for(weights, grid: Grid, config: CompressionConfig) -> EntropyModel:
    """Fresh entropy model for a layer; quantize, encode and decode each
    replay a :meth:`~EntropyModel.fresh` copy of it.

    The static kind is fitted to the layer's nearest-level index histogram
    (a cheap pre-pass); its fitted table travels in the layer header.
    Adaptive kinds need no parameters.
    """
    counts = None
    if config.model_kind == entropy.STATIC:
        from .grids import nearest_indices

        w = as_matrix(weights, "weights")
        counts = np.bincount(nearest_indices(w, grid).ravel(), minlength=grid.size)
    return make_model(config.model_kind, grid.size, static_counts=counts)


def compress_layer(
    weights, hessian, config: CompressionConfig
) -> Tuple[LayerResult, Payload, EntropyModel]:
    """Quantize a layer, then entropy-code the symbols by model replay.

    Returns the result, the payload and the layer's model in its initial
    state.
    """
    w = as_matrix(weights, "weights")
    grid = build_grid(w, config.grid_size)
    model = model_spec_for(w, grid, config)
    result = quantize_layer(w, hessian, grid, config, model=model.fresh())
    payload = encode(result.symbols_in_scan_order, model.fresh())
    return result, payload, model


def rtn_layer(weights, config: CompressionConfig) -> Tuple[LayerResult, Payload, EntropyModel]:
    """Nearest-level quantization plus entropy coding (no weight updates).

    Shares the grid, model fitting and coding path with
    :func:`compress_layer`, so a zero-effect engine configuration and this
    baseline produce byte-identical payloads.
    """
    from .grids import round_to_nearest

    w = as_matrix(weights, "weights")
    grid = build_grid(w, config.grid_size)
    model = model_spec_for(w, grid, config)
    quantized = round_to_nearest(w, grid, config.scan_order)
    symbols = quantized.symbols_in_scan_order()
    rate = entropy.sequence_rate_bits(symbols, model.fresh())
    payload = encode(symbols, model.fresh())
    result = LayerResult(
        quantized=quantized,
        predicted_rate_bits=rate,
        quadratic_loss_delta=0.0,
        symbols_in_scan_order=symbols.astype(np.int32),
        grid_evaluations=0,
    )
    return result, payload, model

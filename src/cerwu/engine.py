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
3. feeds the chosen symbol to the entropy model's one step, which records
   its coder interval ``(cum[s], cum[s+1], T)`` and then observes it; the
   range coder codes the recorded intervals (:func:`compress_layer`), so a
   compress replays the model once.

A layer with at most :data:`BLOCK_SIZE` columns is one block and gets
bitwise the arithmetic of updating the whole remaining row per entry.
Wider layers sum the same terms in another order, so their working
values differ from it only by rounding.

Row-major order finishes a row before moving down; column-major finishes
a column first. Both use the same per-row compensation (the quadratic
loss has no cross-row terms); only the traversal, and therefore the
symbol stream seen by the model, differs. The recorded intervals are
exactly those a fresh model's replay over the symbol stream would give,
since the model is a deterministic function of that stream, so the
payload pays exactly the predicted bits (up to coder flush overhead).

Two traversals apply the updates:

- The column pass (:func:`_column_steps`) hands out one column at a
  time; once every row's entry in it is chosen, one rank-1 update moves
  the rest of the block for all rows, and a finished block gives each row
  its block product. A static model's costs never change, so the row
  order does not matter and it takes this pass in either scan order,
  choosing a whole column at once (an ``n x k`` objective and a row-wise
  ``argmin``) and reading the intervals from its one cumulative table.
  Adaptive and context models take it in column-major order, choosing the
  column's entries one by one.
- The row-major walk (:func:`_row_major_walk`) of the adaptive and
  context models defers once more, inside the block, to sub-blocks of
  :data:`SUB_BLOCK` columns: an entry updates the rest of its sub-block
  on Python floats, and a finished sub-block reaches the rest of its
  block in one fold per row that subtracts the same products in the same
  order.

Every path does the per-entry walk's elementwise arithmetic and makes the
same per-row block product call, so indices, symbols, loss delta and
predicted bits are bitwise those of visiting the entries one by one.
Adaptive and context entries are chosen on Python floats, since for a
handful of levels each numpy call costs more than its arithmetic, and
each entry makes one call into the model, the step from
:meth:`~EntropyModel.stepper`, which also records the entry's interval.
The search is bounded and exact: it scores the first level at or above
the working value, walks down from its lower neighbour and then up from
its upper one, reads a level's rate
``log2(T) - log2(c)`` from the active count table's total and count only
when it reaches that level, and stops on a side once the distortion
alone, less the largest Gaussian term, exceeds the best objective so far,
because the rate is never negative. On a 256x32 layer at ``lam = 0.03``
it scores 1.5 to 1.75 levels per entry for k from 5 to 17 and 3.0 at
k=33, so it is straight-line code around two ``while`` loops: against a
search that walked one side fully before the other, quantizing that
layer went from 5.40 to 4.44 us per weight row-major and from 3.69 to
2.82 column-major (context, k=9; best of 60, interleaved, one thread of
a 2-vCPU Xeon host). The window widens as ``lam`` grows (7.1 of 9 levels
at ``lam = 30``).

Setting ``lam = 0`` disables rate awareness (nearest-level choices with
pure loss-compensating updates); ``gamma_mode="zero"`` keeps rate-aware
choices but removes the Gaussian regularization from the updates.

:func:`compress_layer` is the one per-layer entry for both methods of
:class:`CompressionConfig`: ``cerwu`` is the walk above, and ``rtn``, the
baseline the paper compares against, takes the nearest levels without
weight updates. Both then share the grid, the entropy model and the coder.
The walk's ``C'`` and ``W'`` come from :func:`layer_context`, which
configurations that differ only in grid size, scan order or model kind
can build once and share.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from . import entropy
from .entropy import EntropyModel, make_model
from .errors import FactorizationError, ShapeError
from .grids import (
    ROW_MAJOR,
    SCAN_ORDERS,
    Grid,
    QuantizedLayer,
    build_grid,
    from_scan_order,
    in_scan_order,
    nearest_indices,
    round_to_nearest,
)
from .linalg import (DEFAULT_DAMPING, LayerContext, as_matrix, build_context,
                     check_finite_nonnegative, compute_gamma)
# ``encode`` stays importable from here: perfbench/tracing.py wraps engine.encode.
from .rangecoder import Payload, encode, encode_intervals  # noqa: F401

GAMMA_STANDARD = "standard"
GAMMA_ZERO = "zero"

# The paper's rate-aware quantizer with weight updates, and the baseline it
# is compared with: nearest levels, then the same entropy coding.
METHOD_CERWU = "cerwu"
METHOD_RTN = "rtn"
METHODS = (METHOD_CERWU, METHOD_RTN)

# Width of the column blocks of the row update: inside a block each chosen
# entry updates the rest of the block at once, and every later column
# waits for one product per row at the block's end (GPTQ's lazy batch
# updates). Widths 32 to 128 quantized 32x784 and 1000x1000 static layers
# (k=9, one BLAS thread) equally fast; 16 took 1.5x as long on 1000x1000.
BLOCK_SIZE = 64

# Width of the sub-blocks of the row-major walk: inside a sub-block each
# entry's value takes its predecessors' updates on Python floats, and the
# rest of the block takes the sub-block's updates in one fold per row. On a
# 256x32 context layer 16 measured the same and 4 took 1.2x as long.
SUB_BLOCK = 8


@dataclass(frozen=True)
class CompressionConfig:
    """Knobs for one compression run.

    ``lam=0`` reproduces the rate-oblivious ablation; ``gamma_mode="zero"``
    reproduces the unregularized-update ablation; ``method="rtn"`` is the
    nearest-level baseline, which ignores ``lam``, ``damping_delta`` and
    ``gamma_mode`` but not their checks. Every field is checked on creation:
    ``grid_size`` must lie in ``[2, 2**15]``, the largest k a model codes.
    """

    lam: float
    grid_size: int
    scan_order: str = ROW_MAJOR
    model_kind: str = entropy.ADAPTIVE
    damping_delta: float = DEFAULT_DAMPING
    gamma_mode: str = GAMMA_STANDARD
    method: str = METHOD_CERWU

    def __post_init__(self):
        check_finite_nonnegative(self.lam, "lam")
        check_finite_nonnegative(self.damping_delta, "damping_delta")
        if not 2 <= self.grid_size <= entropy.TOTAL:
            raise ShapeError(f"grid_size must lie in [2, {entropy.TOTAL}], got {self.grid_size}")
        if self.scan_order not in SCAN_ORDERS:
            raise ShapeError(f"unknown scan order {self.scan_order!r}")
        if self.model_kind not in entropy.MODEL_KINDS:
            raise ShapeError(f"unknown model kind {self.model_kind!r}")
        if self.gamma_mode not in (GAMMA_STANDARD, GAMMA_ZERO):
            raise ShapeError(f"unknown gamma mode {self.gamma_mode!r}")
        if self.method not in METHODS:
            raise ShapeError(f"unknown method {self.method!r}; expected one of {METHODS}")


@dataclass
class LayerResult:
    """Output of one engine pass over a layer.

    ``predicted_rate_bits`` is derived, not passed: the running total of
    :func:`~cerwu.entropy.interval_bits` over ``intervals``, the rate the
    range coder pays for them up to its flush and rounding.
    """

    quantized: QuantizedLayer
    quadratic_loss_delta: float
    # Levels covered by the exact search: n*m*k. The walk's bounded search
    # evaluates fewer, but rules out the rest without changing the choice.
    grid_evaluations: int
    # Each symbol's coder interval (lo, hi, total) in scan order, as int32
    # arrays: what the model read when the symbol was chosen, and what
    # :func:`~cerwu.rangecoder.encode_intervals` codes.
    intervals: Tuple[np.ndarray, np.ndarray, np.ndarray]
    predicted_rate_bits: float = field(init=False)

    def __post_init__(self):
        self.predicted_rate_bits = _running_total(entropy.interval_bits(*self.intervals))


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


def _objective(w, half_inv_c2, levels_pref, rate_term, out=None):
    """Objective of every level in tie-break order for an ``(n, 1)`` column.

    ``0.5*(w - g)^2 / c_j^2`` plus ``rate_term``, as an ``n x k`` table.
    The operations are those of the per-entry walk's search, one element at
    a time, so the column path and the walk choose bitwise alike.
    """
    out = np.subtract(levels_pref, w, out=out)
    np.multiply(out, out, out=out)
    np.multiply(out, half_inv_c2, out=out)
    return np.add(out, rate_term, out=out)


def layer_context(weights, hessian, config: CompressionConfig) -> LayerContext:
    """The layer's ``C'`` and ``W'`` for ``config``'s ``lam``, ``damping_delta``
    and ``gamma_mode``, the only settings they depend on.

    Configurations that differ only in grid size, scan order or model kind
    can share the result (:func:`compress_layer`'s ``context``).
    """
    w = as_matrix(weights, "weights")
    return build_context(w, hessian, config.lam, config.damping_delta, gamma=_gamma(w, config))


def _gamma(w: np.ndarray, config: CompressionConfig) -> float:
    """The gamma rule: ``gamma_mode="zero"`` forces 0, otherwise
    :func:`~cerwu.linalg.compute_gamma` of the weights."""
    return 0.0 if config.gamma_mode == GAMMA_ZERO else compute_gamma(w)


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
    may be supplied; by default they are derived from the config, the
    context by :func:`layer_context`.
    """
    w = as_matrix(weights, "weights")
    n, m = w.shape
    if context is None:
        context = layer_context(w, hessian, config)
    if model is None:
        model = model_spec_for(w, grid, config)
    if model.k != grid.size:
        raise ShapeError(f"model k={model.k} does not match grid size {grid.size}")

    wp = context.w_prime.copy()
    chol = context.chol_upper
    # build_context leaves C' a positive, finite diagonal, which scales as
    # 1 / |X|: it is used as it is, at any scale of the activations.
    cdiag = np.diag(chol)
    with np.errstate(divide="ignore", over="ignore"):
        half_inv_c2 = 0.5 / (cdiag * cdiag)
        inv_c = 1.0 / cdiag
    if not (np.all(np.isfinite(half_inv_c2)) and np.all(np.isfinite(inv_c))):
        raise FactorizationError(
            "a diagonal entry of C' is so small that its inverse square overflows: "
            "the regularized Hessian is too large; scale the activations down"
        )

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
        # lam * ratebits(g) - 0.5*lam*gamma*g^2 over levels in tie-break order
        rate_term = model.rate_vector()[pref] * lam - gamma_term_pref
        obj_buf = np.empty((n, k), dtype=np.float64)
        for j in _column_steps(wp, err, inv_c, chol):
            col = wp[:, j]
            obj = _objective(col[:, None], half_inv_c2[j], levels_pref, rate_term, obj_buf)
            idx = pref[obj.argmin(axis=1)]
            indices[:, j] = idx
            np.subtract(col, levels[idx], out=err[:, j])
        intervals = entropy.replay_intervals(in_scan_order(indices, order), model)
    else:
        # The rates change after every symbol: visit the entries one by
        # one in scan order, on Python scalars, reading a level's rate from
        # the model's counts only when the search reaches it.
        L = entropy.LOG2
        tab, step, intervals = model.stepper()
        rank = np.argsort(pref)  # tie-break rank by index
        gt = gamma_term_pref[rank].tolist()  # gamma term by index
        gt_max = max(gt)
        rank = rank.tolist()
        h = half_inv_c2.tolist()
        level_list = levels.tolist()  # ascending, so position == index
        err_seq = []
        idx_seq = array("i")
        idx_append, err_append = idx_seq.append, err_seq.append
        walk = _row_major_walk if order == ROW_MAJOR else _column_major_walk
        for j, wij in walk(wp, err_seq, inv_c, chol):
            log_total = L[tab[k]]
            hj = h[j]
            # Exact bounded search, equal to scanning all k levels in
            # tie-break order and keeping the first minimum. Each level's
            # objective is q + (r*lam - gt[p]) with q = (g - w)^2 * hj.
            # Rounding is monotone, r >= 0 (a count never exceeds the total
            # T and the LOG2 table never decreases), lam >= 0 and
            # gt[p] <= gt_max, so the objective is at least fl(q - gt_max).
            # The search scores the first level at or above w (the top one
            # if none is), then walks down from its lower neighbour and up
            # from its upper one. Moving away from w q never decreases, so
            # once fl(q - gt_max) > best every level further out on that
            # side has an objective above best, and best only falls,
            # whatever the order of visits. The levels skipped can neither
            # win nor tie; among the levels scanned, keeping the lower
            # tie-break rank on equal objectives picks what the full scan's
            # strict ``<`` picks.
            pos = bisect_left(level_list, wij)
            if pos == k:
                pos -= 1
            idx = pos
            d = level_list[pos] - wij
            best = d * d * hj + ((log_total - L[tab[pos]]) * lam - gt[pos])
            p = pos - 1
            while p >= 0:
                d = level_list[p] - wij
                q = d * d * hj
                if q - gt_max > best:
                    break
                obj = q + ((log_total - L[tab[p]]) * lam - gt[p])
                if obj < best or (obj == best and rank[p] < rank[idx]):
                    best = obj
                    idx = p
                p -= 1
            p = pos + 1
            while p < k:
                d = level_list[p] - wij
                q = d * d * hj
                if q - gt_max > best:
                    break
                obj = q + ((log_total - L[tab[p]]) * lam - gt[p])
                if obj < best or (obj == best and rank[p] < rank[idx]):
                    best = obj
                    idx = p
                p += 1
            idx_append(idx)
            err_append(wij - level_list[idx])
            tab = step(idx)
        symbols = np.frombuffer(idx_seq, dtype=np.intc)
        indices = np.ascontiguousarray(from_scan_order(symbols, n, m, order))
        err = from_scan_order(np.array(err_seq), n, m, order)
        intervals = tuple(np.frombuffer(a, dtype=np.intc) for a in intervals)

    quantized = QuantizedLayer(n, m, indices, grid, order)
    return LayerResult(
        quantized=quantized,
        quadratic_loss_delta=_running_total(in_scan_order(err * err * half_inv_c2, order)),
        grid_evaluations=n * m * k,
        intervals=intervals,
    )


def _blocks(m: int):
    """Column blocks ``(b0, b1)`` of width :data:`BLOCK_SIZE`, the last
    one possibly narrower."""
    return [(b0, min(b0 + BLOCK_SIZE, m)) for b0 in range(0, m, BLOCK_SIZE)]


def _block_update(wp, i, b0, b1, errs, inv_c, chol):
    """Apply a finished block's deferred updates to row ``i`` right of it.

    ``W'[i, b1:] -= (e[b0:b1] / c[b0:b1]) @ C'[b0:b1, b1:]``, with ``errs``
    the row's recorded errors ``e`` on the block's columns. The column pass
    and the row-major walk both call this once per row and block, on the
    same values, so they stay bitwise equal.
    """
    wp[i, b1:] -= (errs * inv_c[b0:b1]) @ chol[b0:b1, b1:]


def _row_major_walk(wp, err_seq, inv_c, chol):
    """Row-major positions for the per-entry walk: yields ``(j, w)``, the
    column and working value of each entry, and applies its row update
    once the walk has appended the entry's error ``e`` to ``err_seq``.

    Blocks are split into sub-blocks of :data:`SUB_BLOCK` columns. A row's
    sub-block is read once as Python floats, and each entry's value takes
    the updates of the entries before it in the sub-block, subtracted one
    by one. When the row finishes a sub-block, the rest of the block takes
    the sub-block's updates in one fold: ``w - P[0] - P[1] - ...`` with
    ``P[l] = (e_l / c_l) * C'[l, rest]``, subtracting in the order the
    per-entry update would. A finished block gets :func:`_block_update`.
    """
    n, m = wp.shape
    inv_c_list = inv_c.tolist()
    # Per sub-block: its columns [s0, s1), its block's [b0, b1), the fold's
    # coefficients C'[s0:s1, s1:b1], and the fold's buffer with views of
    # its first row (the values) and the rest (the products).
    spans = []
    for b0, b1 in _blocks(m):
        for s0 in range(b0, b1, SUB_BLOCK):
            s1 = min(s0 + SUB_BLOCK, b1)
            buf = np.empty((s1 - s0 + 1, b1 - s1))
            spans.append((s0, s1, b0, b1, chol[s0:s1, s1:b1], buf, buf[0], buf[1:]))
    # C'[s0:j, j]: the coefficients of column j's updates within its sub-block
    above = [chol[s0:j, j].tolist() for s0, s1, *_ in spans for j in range(s0, s1)]
    for i in range(n):
        row = wp[i]
        for s0, s1, b0, b1, fold, buf, head, products in spans:
            f = []  # e_l / c_l of the sub-block's entries so far
            for j, w in enumerate(row[s0:s1].tolist(), s0):
                for f_l, c in zip(f, above[j]):
                    w -= f_l * c
                yield j, w
                f.append(err_seq[-1] * inv_c_list[j])
            if s1 < b1:
                rest = row[s1:b1]
                np.multiply(fold, np.array(f)[:, None], out=products)
                head[...] = rest
                np.subtract.reduce(buf, axis=0, out=rest)
            elif b1 < m:
                _block_update(wp, i, b0, b1, np.array(err_seq[b0 - b1 :]), inv_c, chol)


def _column_steps(wp, err, inv_c, chol):
    """The column-at-a-time pass: yields each column ``j`` in order and,
    once the caller has written every row's error ``e`` into ``err[:, j]``,
    updates the rest of the column's block for all rows at once,
    ``W'[:, j+1:b1] -= (e / c_j) C'[j, j+1:b1]`` (the per-entry update,
    elementwise). When every row has finished a block that is not the
    last, each row gets :func:`_block_update`.
    """
    n, m = wp.shape
    for b0, b1 in _blocks(m):
        for j in range(b0, b1):
            yield j
            if j + 1 < b1:
                wp[:, j + 1 : b1] -= (err[:, j] * inv_c[j])[:, None] * chol[j, j + 1 : b1]
        if b1 < m:
            for i in range(n):
                _block_update(wp, i, b0, b1, err[i, b0:b1], inv_c, chol)


def _column_major_walk(wp, err_seq, inv_c, chol):
    """Column-major positions for the per-entry walk, like
    :func:`_row_major_walk`, on :func:`_column_steps`: yields every row's
    entry of a column, then hands the column's errors to the pass.
    """
    n = wp.shape[0]
    err = np.empty_like(wp)
    for j in _column_steps(wp, err, inv_c, chol):
        for w in wp[:, j].tolist():
            yield j, w
        err[:, j] = err_seq[-n:]


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
        w = as_matrix(weights, "weights")
        counts = np.bincount(nearest_indices(w, grid).ravel(), minlength=grid.size)
    return make_model(config.model_kind, grid.size, static_counts=counts)


def compress_layer(
    weights, hessian, config: CompressionConfig, context: Optional[LayerContext] = None
) -> Tuple[LayerResult, Payload, EntropyModel]:
    """Quantize a layer by ``config.method``, then range-code the coder
    intervals the quantizer recorded, so the model is replayed once.

    ``rtn`` leaves ``hessian`` and ``context`` unused and reports a zero
    loss delta and no grid evaluations; a zero-effect ``cerwu``
    configuration (``lam=0``, no damping, a diagonal Hessian) gives
    byte-identical payloads. ``cerwu`` takes a ``context`` that
    :func:`layer_context` built for these weights and Hessian at the
    config's settings, or builds it; the result is the same. A context of
    another shape, ``lam``, ``damping_delta`` or gamma raises ShapeError.

    Returns the result, the payload and the layer's model in its initial
    state.
    """
    w = as_matrix(weights, "weights")
    if context is not None and config.method == METHOD_CERWU:
        built = (context.w_prime.shape, context.lam, context.damping_delta, context.gamma)
        wanted = (w.shape, config.lam, config.damping_delta, _gamma(w, config))
        if built != wanted:
            raise ShapeError(
                f"context built for (shape, lam, damping_delta, gamma) = {built}, "
                f"layer needs {wanted}"
            )
    grid = build_grid(w, config.grid_size)
    model = model_spec_for(w, grid, config)
    if config.method == METHOD_RTN:
        quantized = round_to_nearest(w, grid, config.scan_order)
        intervals = entropy.replay_intervals(quantized.symbols_in_scan_order(), model.fresh())
        result = LayerResult(quantized, 0.0, 0, intervals)
    else:
        result = quantize_layer(w, hessian, grid, config, model=model.fresh(), context=context)
    return result, encode_intervals(*result.intervals), model

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

The column pass (:func:`_column_steps`) applies the updates one column
at a time: once every row's entry in a column is chosen, one rank-1
update moves the rest of the block for all rows, and a finished block
gives each row its block product. A static model's costs never change,
so it takes this pass in either scan order, choosing a whole column at
once (an ``n x k`` objective and a row-wise ``argmin``) in one round, and
reads the intervals from its one cumulative table.

The adaptive and context kinds read counts that every earlier choice
set. They take the exact speculative pass (:func:`_speculative_pass`):
guess the choices, check them all at once, keep the exact prefix. This
is the fixed-point view of a sequential computation (Song et al.,
"Accelerating Feedforward Computation via Parallel Nonlinear Equation
Solving", ICML 2021) and the exact form of speculative decoding's verify
step (Leviathan et al., ICML 2023). Each round takes a window:

- row-major, a window of rows. Every row starts from the count tables
  the guessed rows above it produce (:func:`_start_tables`); the column
  pass then runs on all of them at once, each row stepping its own copy
  of the tables and taking its context from its own previous column. The
  first row whose choices differ from its guess started from exact
  tables, and so did the rows above it: they are accepted, and the rest
  keep this round's choices as their next guess and restart from ``W'``.
  A row's first guess is the nearest levels of its ``W'`` row.
- column-major, the rest of a column, whose working values do not depend
  on its own choices. The guess is the choice under the tables at the
  column's start, along the context chain it makes; every entry's tables
  follow from the guess by running sums (:func:`_tables_along`). Entries
  are accepted up to the first choice that differs from its guess, or
  up to the first entry whose observation halves a table.

Choices use :func:`_objective`'s arithmetic and the first minimum in
tie-break order, as the walk below does. A round that accepts little of
its window halves the window, down to :data:`MIN_ACCEPT` units
(:func:`_drive`). The coder intervals come from one replay of the chosen
symbols through the tables (:func:`_replay`).

Layers of fewer than :data:`PASS_MIN_ROWS` rows take the per-entry walk
instead: it visits the entries one by one in scan order on Python floats
and steps the model once per entry (the step from
:meth:`~EntropyModel.stepper`, which also records the entry's interval).
Row-major, it defers the updates once more, inside the block, to
sub-blocks of :data:`SUB_BLOCK` columns; an entry updates the rest of its
sub-block on Python floats, and a finished sub-block reaches the rest of
its block in one fold per row that subtracts the same products in the
same order. Its search is bounded and exact: it scores the first level at
or above the working value, walks down from its lower neighbour and then
up from its upper one, reads a level's rate ``log2(T) - log2(c)`` only
when it reaches that level, and stops on a side once the distortion
alone, less the largest Gaussian term, exceeds the best objective so far,
because the rate is never negative.

Every path does the per-entry walk's elementwise arithmetic and makes the
same per-row block product call, so indices, symbols, intervals, loss
delta and predicted bits are bitwise those of visiting the entries one by
one. Measured on one thread of a 2-vCPU Xeon host (see CHANGES.md): a
256x32 context layer at k=9 and ``lam = 0.03`` takes 3 rounds and 1 to
1.6 us per weight against 2.4 to 3.9 for the walk, and a 1000x1000 one 11
rounds row-major and about one per column column-major, in about half the
walk's time. The pass is slower than the walk where a round's fixed cost per
column is shared by few rows, which is why narrow layers walk; when the
model locks in and rounds accept a row or two (the context kind at k=9
and ``lam = 30`` on 256x32: 21 to 25 us per weight against 3.7 to 5.3);
and at 65 levels on 256x32 (4.8 to 8.2 against 3.0 to 3.2).

Setting ``lam = 0`` disables rate awareness (nearest-level choices with
pure loss-compensating updates); ``gamma_mode="zero"`` keeps rate-aware
choices but removes the Gaussian regularization from the updates.

:func:`compress_layer` is the one per-layer entry for both methods of
:class:`CompressionConfig`: ``cerwu`` is the quantizer above, and ``rtn``, the
baseline the paper compares against, takes the nearest levels without
weight updates. Both then share the grid, the entropy model and the coder.
Its ``C'`` and ``W'`` come from :func:`layer_context`, which
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

# Layers of fewer rows take the per-entry walk instead of the speculative
# pass: on the fixture's 32x784 fc1 the pass took up to 5 rounds of 784
# columns, and with it taking every layer the fixture-sweep benchmark's
# sweep took 1.22 times as long, slower in all of ten pairs; on the
# tall-context benchmark's 256x32 layers it takes half the walk's time.
PASS_MIN_ROWS = 64
# A row-major layer's first window of rows of the speculative pass; windows
# accepted whole double up to ROW_WINDOW. A 1000x1000 layer took 11 rounds
# from a 256-row first window and 3 from a 1024-row one, in about the same
# time.
ROW_START = 256
ROW_WINDOW = 1024
# A round that accepts fewer units than this halves its window, down to
# this many units. When rounds accept a row or two (the context kind at
# k=33 and lam=1 on 256x32), a window of 16 rows costs little more per
# column than one of a single row and leaves its other rows a better next
# guess: halving down to 16 rather than 1 took 36 rounds instead of 158,
# 0.35 times the time, and 0.46 to 0.96 times on the other slow cases.
MIN_ACCEPT = 16
# Table entries per run of the interval replay: runs of 1 << 12 to 1 << 17
# replayed 10^6 symbols at k=9 in 0.11 to 0.22 s, 1 << 14 the fastest.
REPLAY_CHUNK = 1 << 14


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
    # Rounds the quantizer took: 1 for static and rtn, the speculative
    # pass's rounds for the adaptive kinds, and n*m, one per entry, for a
    # layer that takes the walk.
    rounds: int
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
    """Objective of every level in tie-break order for the working values ``w``.

    ``0.5*(w - g)^2 / c_j^2`` plus ``rate_term``, broadcast: an ``n x k``
    table for an ``(n, 1)`` column and a ``k``-vector or ``n x k`` rate term.
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

    w_prime = context.w_prime
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
        wp = np.array(w_prime, order="F")  # the column steps' working copy
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
        rounds = 1
    elif n < PASS_MIN_ROWS:
        indices, err, intervals = _walk(w_prime, order, model, levels, half_inv_c2, inv_c, chol,
                                        lam, pref, gamma_term_pref)
        rounds = n * m
    else:
        rounds, indices, err, intervals = _speculative_pass(
            w_prime, model, order, grid, half_inv_c2, inv_c, chol, lam,
            pref, levels_pref, gamma_term_pref)
    quantized = QuantizedLayer(n, m, indices, grid, order)
    return LayerResult(
        quantized=quantized,
        quadratic_loss_delta=_running_total(in_scan_order(err * err * half_inv_c2, order)),
        grid_evaluations=n * m * k,
        intervals=intervals,
        rounds=rounds,
    )


def _walk(w_prime, order, model, levels, half_inv_c2, inv_c, chol, lam, pref, gamma_term_pref):
    n, m = w_prime.shape
    wp = np.array(w_prime, order="F")  # the walk's working copy
    k = model.k
    # The rates change after every symbol: visit the entries one by
    # one in scan order, on Python scalars, reading a level's rate from
    # the model's counts only when the search reaches it.
    L = entropy.log2_list()
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
    return indices, err, intervals


def _blocks(m: int):
    """Column blocks ``(b0, b1)`` of width :data:`BLOCK_SIZE`, the last
    one possibly narrower."""
    return [(b0, min(b0 + BLOCK_SIZE, m)) for b0 in range(0, m, BLOCK_SIZE)]


def _block_update(wp, i, b0, b1, errs, inv_c, chol):
    """Apply a finished block's deferred updates to row ``i`` right of it.

    ``W'[i, b1:] -= (e[b0:b1] / c[b0:b1]) @ C'[b0:b1, b1:]``, with ``errs``
    the row's recorded errors ``e`` on the block's columns. Every path calls
    this once per row and block, on the same values, so they stay bitwise
    equal.
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

    The update runs over rows of the transpose, the form that suits the
    callers' column-contiguous (Fortran-ordered) ``wp``: on 250x1000 it took
    half the time of the row form on a C-ordered copy.
    """
    n, m = wp.shape
    for b0, b1 in _blocks(m):
        for j in range(b0, b1):
            yield j
            if j + 1 < b1:
                wp.T[j + 1 : b1] -= chol[j, j + 1 : b1, None] * (err[:, j] * inv_c[j])
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


def _speculative_pass(w_prime, model, order, grid, half_inv_c2, inv_c, chol, lam,
                      pref, levels_pref, gamma_term_pref):
    """The exact speculative pass of the adaptive and context kinds.

    Returns ``(rounds, indices, err, intervals)`` as :func:`quantize_layer`
    uses them. Symbols are handled as positions in tie-break order, and each
    count table as its counts in that order followed by its total: the
    model's two tables form a ``(2, k + 1)`` array, and the adaptive kind
    uses its first row only. ``tables`` and ``table`` hold the exact
    tables and the index of the active one in front of the first symbol
    not yet accepted.
    """
    n, m = w_prime.shape
    k = model.k
    log2 = entropy._LOG2
    two = model.kind == entropy.CONTEXT
    rank = np.argsort(pref)  # the position of each index
    nz = ((pref != k // 2) & two).astype(np.intp)  # table index after each position
    first = tables = _pref_tables(model, pref)
    table = 0
    # Fortran order keeps each column contiguous for the column steps.
    err = np.empty((m, n)).T

    def choose(w, j, cur, lv=levels_pref):
        # _objective's choice for the working values w under tables cur:
        # the walk's arithmetic, and the first minimum in tie-break order
        lg = log2[cur]
        rate = lg[..., k:] - lg[..., :k]
        rate *= lam
        rate -= gamma_term_pref
        return _objective(w, half_inv_c2[j], lv, rate).argmin(axis=-1)

    if order == ROW_MAJOR:
        # The guess for every row, and in the end the choices: nearest
        # levels of W' before a row's first round.
        guesses = rank[nearest_indices(w_prime, grid)]
        rows_buf = np.empty((m, n)).T
        got_buf = np.empty((m, n), dtype=np.intp).T

        def row_round(u0, u1):
            nonlocal tables, table
            r = u1 - u0
            guess = guesses[u0:u1]
            rows = rows_buf[:r]
            rows[...] = w_prime[u0:u1]
            tabs, slots = _start_tables(tables, table, guess, nz)
            may_halve = tabs[:, :, k].max() + m > entropy.COUNT_CAP
            ar = np.arange(r)
            # Each row's active table and its other one, swapped where a
            # choice moves the row to the other context.
            cur, other = tabs[ar, slots], tabs[ar, 1 - slots]
            e = err[u0:u1]
            got = got_buf[:r]
            for j in _column_steps(rows, e, inv_c, chol):
                p = choose(rows[:, j, None], j, cur)
                cur[ar, p] += 1
                cur[:, k] += 1
                if may_halve and cur[:, k].max() > entropy.COUNT_CAP:
                    for i in np.flatnonzero(cur[:, k] > entropy.COUNT_CAP).tolist():
                        cur[i] = _halved(cur[i])
                if two:
                    swap = (nz[p] != slots)[:, None]
                    cur, other = np.where(swap, other, cur), np.where(swap, cur, other)
                    slots = nz[p]
                got[:, j] = p
                np.subtract(rows[:, j], levels_pref[p], out=e[:, j])
            # Rows up to the first that differs from its guess started from
            # exact tables, so they are exact; the rest are the next guess.
            differs = (got != guess).any(axis=1)
            a = int(differs.argmax()) + 1 if differs.any() else r
            guess[...] = got
            table = int(slots[a - 1])
            tables = np.empty((2, k + 1), dtype=np.int64)
            tables[table], tables[1 - table] = cur[a - 1], other[a - 1]
            return a

        rounds = _drive(n, ROW_START, ROW_WINDOW, row_round)
        stream = guesses.ravel()
    else:
        guesses = np.empty((m, n), dtype=np.intp)  # column by column, in scan order
        wp = np.array(w_prime, order="F")  # the column steps' working copy
        both_levels = np.stack((levels_pref, levels_pref))
        ar_n = np.arange(n)

        def first_guess(vals, j, base, slot):
            # the choices under the tables at the column's start
            if not two:
                return choose(vals[:, None], j, base[:1])
            # under either table, then along the context chain they make:
            # each entry maps the table it reads to the next one, as a
            # constant, the identity or a swap; the table after an entry is
            # the last constant's value (or ``slot``) swapped once per swap
            # since
            a0, a1 = choose(vals[:, None, None], j, base, both_levels).T
            f0, f1 = nz[a0], nz[a1]
            last = np.maximum.accumulate(np.where(f0 == f1, ar_n, -1))
            swaps = np.cumsum(f0 > f1)
            known = last >= 0
            after = np.where(known, f0[last], slot) ^ ((swaps - np.where(known, swaps[last], 0)) & 1)
            reads = np.concatenate(([slot], after[:-1]))
            return np.where(reads == 1, a1, a0)

        def col_round(j, u0, u1):
            nonlocal tables, table
            guess = guesses[j, u0:u1]
            cur, tabs, sl = _tables_along(tables, table, guess, nz)
            r = len(cur)
            vals = wp[u0:u0 + r, j]
            p = choose(vals[:, None], j, cur)
            # Entries up to the first choice that differs from its guess
            # read exact tables; so does one whose observation halves a
            # table, where _tables_along stops.
            differs = p != guess[:r]
            a = int(differs.argmax()) + 1 if differs.any() else r
            guess[:r] = p
            np.subtract(vals[:a], levels_pref[p[:a]], out=err[u0:u0 + a, j])
            tables, table = _observed(tabs[a - 1], sl[a - 1], p[a - 1]), int(nz[p[a - 1]])
            return a

        rounds = 0
        for j in _column_steps(wp, err, inv_c, chol):
            guesses[j] = first_guess(wp[:, j], j, tables, table)
            rounds += _drive(n, n, n, lambda u0, u1: col_round(j, u0, u1))
        stream = guesses.ravel()
        guesses = guesses.T
    intervals = tuple(np.empty(n * m, dtype=np.intc) for _ in range(3))

    def record(pos, cur, p):
        # (cum[s], cum[s + 1], T) of each symbol s under the table it read
        a = len(p)
        ar = np.arange(a)
        lo, hi, total = (x[pos:pos + a] for x in intervals)
        hi[:] = np.cumsum(cur[:, rank], axis=1)[ar, pref[p]]
        np.subtract(hi, cur[ar, p], out=lo)
        total[:] = cur[:, k]

    _replay(first, 0, stream, nz, record)
    indices = np.ascontiguousarray(pref.astype(np.int32)[guesses])
    return rounds, indices, err, intervals


def _drive(n, first, most, round_fn):
    """Accept units ``[0, n)`` (rows, or a column's entries) by rounds on a
    window from the first unit not yet accepted; returns the number of rounds.

    ``round_fn(u0, u1)`` runs one round on the window ``[u0, u1)`` and
    returns how many units it accepted, at least one. The window starts at
    ``first`` units. A round that accepts it whole doubles it, up to
    ``most``; one that accepts fewer than :data:`MIN_ACCEPT` units, unless
    its first unit has not been through a round before, halves it, down to
    :data:`MIN_ACCEPT` units.
    """
    rounds = u0 = seen = 0
    size = first
    while u0 < n:
        u1 = min(n, u0 + size)
        accepted = round_fn(u0, u1)
        rounds += 1
        if accepted < min(MIN_ACCEPT, u1 - u0) and u0 < seen:
            size = max(MIN_ACCEPT, size // 2)
        if accepted == u1 - u0:
            size = min(most, 2 * size)
        seen = max(seen, u1)
        u0 += accepted
    return rounds


def _pref_tables(model, pref):
    """The model's two count tables in tie-break order, each followed by
    its total, as a ``(2, k + 1)`` int64 array."""
    tables = np.array([t[: model.k + 1] for t in model.tables], dtype=np.int64)
    tables[:, :-1] = tables[:, pref]
    return tables


def _tables_along(base, slot, symbols, nz):
    """The tables a model in state ``(base, slot)`` reads along ``symbols``.

    Returns ``(cur, tabs, sl)``: the table each symbol reads, both tables
    and the index of the one read, in front of each symbol, up to the first
    symbol whose observation halves a table (included). Counts come from
    running sums of the observations, so they hold only while no table
    halves.
    """
    r = symbols.size
    k = base.shape[1] - 1
    sl = np.empty(r, dtype=np.intp)
    sl[0] = slot
    sl[1:] = nz[symbols[:-1]]
    ar = np.arange(r)
    tabs = np.empty((r, 2, k + 1), dtype=np.int64)
    tabs[0] = base
    if r > 1:
        obs = np.zeros((r - 1, 2, k + 1), dtype=np.int64)
        obs[ar[:-1], sl[:-1], symbols[:-1]] = 1
        obs[ar[:-1], sl[:-1], k] = 1
        np.cumsum(obs, axis=0, out=tabs[1:])
        tabs[1:] += base
    cur = tabs[ar, sl]
    if base[:, k].max() + r > entropy.COUNT_CAP:
        full = cur[:, k] >= entropy.COUNT_CAP
        if full.any():
            r = int(full.argmax()) + 1
    return cur[:r], tabs[:r], sl[:r]


def _observed(tables, slot, symbol):
    """``tables`` after table ``slot`` observes ``symbol``, halved when its
    total would exceed ``COUNT_CAP``: the model's step, on a copy."""
    out = tables.copy()
    t = out[slot]
    t[symbol] += 1
    t[-1] += 1
    if t[-1] > entropy.COUNT_CAP:
        out[slot] = _halved(t)
    return out


def _replay(base, slot, stream, nz, record=None):
    """Step the state ``(base, slot)`` through ``stream`` a run of symbols
    at a time; returns the state after it.

    Each run ends at :data:`REPLAY_CHUNK` table entries or at a halving;
    ``record(pos, cur, p)`` sees the tables ``cur`` that the run's symbols
    ``p``, starting at ``stream[pos]``, read.
    """
    k = base.shape[1] - 1
    chunk = max(1, REPLAY_CHUNK // (k + 1))
    pos = 0
    while pos < stream.size:
        cur, tabs, sl = _tables_along(base, slot, stream[pos:pos + chunk], nz)
        a = len(cur)
        p = stream[pos:pos + a]
        if record is not None:
            record(pos, cur, p)
        base, slot = _observed(tabs[a - 1], sl[a - 1], p[-1]), int(nz[p[-1]])
        pos += a
    return base, slot


def _start_tables(base, slot, guess, nz):
    """The tables each row of ``guess`` starts from, and the index of the
    one it reads first, when the rows above it are observed from
    ``(base, slot)``.

    The counts are running sums of each row's observations; a row whose
    observations halve a table is replayed symbol by symbol, and the sums
    start again after it.
    """
    r, m = guess.shape
    k = base.shape[1] - 1
    flat = guess.ravel()
    sl = np.empty(flat.size, dtype=np.intp)
    sl[0] = slot
    sl[1:] = nz[flat[:-1]]
    key = (np.repeat(np.arange(0, 2 * r, 2), m) + sl) * (k + 1) + flat
    obs = np.bincount(key, minlength=r * 2 * (k + 1)).reshape(r, 2, k + 1)
    obs[:, :, k] = obs[:, :, :k].sum(axis=2)
    tabs = np.cumsum(obs, axis=0)
    tabs -= obs
    tabs += base
    while True:
        over = (tabs[:, :, k] > entropy.COUNT_CAP).any(axis=1)
        if not over.any():
            return tabs, sl[::m].copy()
        b = int(over.argmax()) - 1
        after, _ = _replay(tabs[b], sl[b * m], guess[b], nz)
        rest = obs[b + 1:]
        tabs[b + 1:] = np.cumsum(rest, axis=0) - rest + after


def _halved(t):
    """A table's counts and total after :func:`~cerwu.entropy.halve`."""
    tab = list(t) + [0]
    entropy.halve(tab)
    return tab[:-1]


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
        result = LayerResult(quantized, 0.0, 0, intervals, 1)
    else:
        result = quantize_layer(w, hessian, grid, config, model=model.fresh(), context=context)
    return result, encode_intervals(*result.intervals), model

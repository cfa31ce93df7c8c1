"""Autoregressive probability models over grid indices.

One model class, :class:`EntropyModel`, serves three kinds; it feeds both
the quantizer's rate estimates and the range coder. A model is a
deterministic function of the symbol sequence it has seen, so replaying
the same symbols on a fresh instance reproduces the exact per-symbol
distributions; quantization-time rate estimates therefore equal
encoding-time costs.

Every kind is a pair of count tables, one per context (the previous
symbol was the zero level ``k // 2``, or it was not), and differs only in
its tables and in whether its step observes symbols:
    static    one histogram, fitted at construction to integer
              frequencies summing to exactly 2**15, in both slots and
              never updated; its table is serialized in the layer header.
    adaptive  one Laplace-smoothed adaptive histogram (all counts start
              at 1) in both slots: a context model whose contexts share
              one table.
    context   two adaptive histograms; captures run-of-zeros statistics.

:func:`make_model` is the one constructor and :meth:`EntropyModel.fresh`
the one way to copy a model, so quantize, encode and decode replay the
same model. A model is read through :meth:`EntropyModel.cum` and
:meth:`EntropyModel.rate_vector`, and per symbol through its one
transition, the ``step`` of :meth:`EntropyModel.stepper`:
``tab = step(s)`` records ``s``'s coder interval ``(cum[s], cum[s+1], T)``
and then observes ``s``. The engine's walk and :func:`replay_intervals`
take their intervals from it, so the rule that turns a count table into
an interval is written once, here. The range decoder is the one other
copy of the transition: it must find ``s`` from the coded value before it
can step, and the step would then sum and record the interval its search
has just found, so it observes inline (:func:`~cerwu.rangecoder.decode`
gives the measured cost). A static model never changes and is stepped
only by tests and the oracle: the engine prices whole columns from one
:meth:`EntropyModel.rate_vector`, :func:`replay_intervals` indexes its
table with numpy, and the decoder reads symbols from a lookup table built
once from it.

Every model's current distribution is a table of integer counts, each
>= 1, with total ``T <= COUNT_CAP = 2**16`` (``T = 2**15`` for static).
A model keeps each table as one list of Python ints that an observation
changes in place: the k counts, then ``T``, then ``cum[k // 2]``, the
count mass below the zero level. The per-symbol paths (the engine's walk,
the range coder) therefore never touch numpy, and an observation costs
O(1) whatever k is. The zero level is the most probable symbol, so a
symbol's cumulative count ``cum[s]`` is summed outward from ``cum[k // 2]``
over the few counts between them, and the decoder searches outward from
it the same way (Witten, Neal & Cleary, CACM 1987, keep frequent symbols
first for the same reason). A symbol with count ``c`` costs
``log2(T) - log2(c)`` bits, read from one table of base-2 logarithms (as
a numpy array for :meth:`EntropyModel.rate_vector`, as a list of the same
floats, :data:`LOG2`, for per-symbol reads) so every rate path agrees
bitwise. The worst-case symbol cost is 16 bits (15 for static).
"""

from __future__ import annotations

from array import array
from itertools import accumulate
from typing import Optional, Sequence

import numpy as np

from .errors import ShapeError

TOTAL = 1 << 15  # total of a static frequency table; also the largest k
COUNT_CAP = 1 << 16  # adaptive counts are halved when their total would exceed this

STATIC = "static"
ADAPTIVE = "adaptive"
CONTEXT = "context"
MODEL_KINDS = (STATIC, ADAPTIVE, CONTEXT)

# log2(n) for n = 0..COUNT_CAP; log2(0) = -inf prices a zero count at inf.
with np.errstate(divide="ignore"):
    _LOG2 = np.log2(np.arange(COUNT_CAP + 1, dtype=np.float64))
# The same table as Python floats, for per-symbol reads: indexing a list
# costs less than a numpy scalar and yields the same doubles.
LOG2 = _LOG2.tolist()


def quantize_counts(counts: np.ndarray) -> np.ndarray:
    """Map positive-weight counts to frequencies summing to exactly 2**15.

    Rule: ``freq_i = max(1, floor(count_i * TOTAL / sum(counts)))``, then a
    largest-remainder pass distributes any shortfall (+1 to the entries
    with the largest floor remainders, lowest index first on ties). A
    surplus (possible only via the min-1 clamp) is removed from the
    currently largest frequencies, lowest index first.
    """
    c = np.asarray(counts, dtype=np.int64)
    k = c.size
    total = int(c.sum())
    if total <= 0:
        raise ShapeError("counts must contain at least one positive entry")
    if c.min() < 0:
        raise ShapeError("counts must be nonnegative")
    if k > TOTAL:
        raise ShapeError(f"cannot give {k} symbols a nonzero share of {TOTAL}")
    num = c * TOTAL
    base = num // total
    rem = num - base * total
    freqs = np.maximum(base, 1)
    diff = TOTAL - int(freqs.sum())
    if diff > 0:
        order = np.lexsort((np.arange(k), -rem))
        freqs[order[:diff]] += 1
    elif diff < 0:
        for _ in range(-diff):
            i = int(np.argmax(freqs))
            freqs[i] -= 1
    return freqs


class EntropyModel:
    """One count-table model for every kind; build it with :func:`make_model`.

    Holds a pair of count tables, one per context, and the active one,
    which :meth:`stepper` hands out. A table is one list of ``k + 2`` ints:
    the per-symbol counts ``c_0 .. c_{k-1}``, their total ``T`` at index
    ``k``, and at index ``k + 1`` the count mass below the zero level,
    ``cum[z] = c_0 + ... + c_{z-1}``. Context 0 is active after the zero
    level ``z = zero_index = k // 2`` (``Grid.zero_index`` of every grid),
    context 1 after any other symbol; a model starts in context 0. Static
    and adaptive models put one table in both slots. ``counts`` is the
    static kind's fitted table, the one a layer header stores, and
    ``None`` for the adaptive kinds.

    The one transition is the ``step`` of :meth:`stepper`. It records the
    symbol's coder interval; then static holds, and the adaptive kinds
    observe the symbol and switch to its context's table (one table for
    both contexts of adaptive). An observation is O(1): ``c_s += 1``,
    ``T += 1``, and ``cum[z] += 1`` when ``s < z``. When the total would
    exceed ``COUNT_CAP``, :func:`halve` halves every count, the observed one
    included, rounding up. Tables change in place.
    """

    __slots__ = ("kind", "k", "zero_index", "counts", "tables", "_tab")

    def __init__(self, kind: str, k: int, static_counts: Optional[Sequence[int]] = None):
        if kind not in MODEL_KINDS:
            raise ShapeError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")
        if kind == STATIC and static_counts is None:
            raise ShapeError("static model requires static_counts")
        if kind != STATIC and static_counts is not None:
            raise ShapeError(f"static_counts only valid for the static kind, not {kind!r}")
        if not 2 <= k <= TOTAL:
            raise ShapeError(f"model needs 2 <= k <= {TOTAL}, got {k}")
        self.kind = kind
        self.k = k
        self.zero_index = k // 2
        self.counts = None
        if kind == STATIC:
            c = np.asarray(static_counts, dtype=np.int64)
            if c.shape != (k,):
                raise ShapeError(f"static counts must have length {k}, got {c.shape}")
            # Any table, one read from a file header included, is re-fitted
            # so every frequency is >= 1 and the total is exactly 2**15;
            # fitting a fitted table again leaves it unchanged.
            self.counts = quantize_counts(c)
            first = _table(self.counts.tolist())
        else:
            first = _table([1] * k)
        # (context 0's table, context 1's table), one list twice unless the
        # kind is context; the range decoder steps them itself.
        self.tables = (first, _table([1] * k) if kind == CONTEXT else first)
        self._tab = first

    def cum(self) -> list:
        """Cumulative counts [0, c0, c0+c1, ..., T] of the active table, as
        a new list of ints."""
        return [0, *accumulate(self._tab[: self.k])]

    def stepper(self):
        """``(tab, step, intervals)``: the active table, the transition and
        three fresh int32 arrays ``(lo, hi, total)``.

        ``tab = step(s)`` appends symbol ``s``'s coder interval
        ``(cum[s], cum[s + 1], T)`` under the active table to
        ``intervals``, with ``cum[s]`` summed outward from the zero level's
        ``cum[k // 2]``; then the adaptive kinds observe ``s`` and switch
        to its context's table, and the static kind holds. It returns the
        table then active, which the model also keeps.
        """
        intervals = (array("i"), array("i"), array("i"))
        lo_append, hi_append, total_append = (a.append for a in intervals)
        k = self.k
        below = k + 1  # the index of cum[z]
        z = self.zero_index
        tables = self.tables
        observe = self.kind != STATIC

        def step(s: int) -> list:
            tab = self._tab
            c_lo = tab[below]
            if s > z:
                c_lo += sum(tab[z:s])
            elif s < z:
                c_lo -= sum(tab[s:z])
            lo_append(c_lo)
            hi_append(c_lo + tab[s])
            total_append(tab[k])
            if observe:
                tab[s] += 1
                tab[k] += 1
                if s < z:
                    tab[below] += 1
                if tab[k] > COUNT_CAP:
                    halve(tab)
                self._tab = tab = tables[s != z]
            return tab

        return self._tab, step, intervals

    def rate_vector(self) -> np.ndarray:
        """Per-symbol cost in bits: -log2(count / T)."""
        tab = self._tab
        k = self.k
        return _LOG2[tab[k]] - _LOG2[tab[:k]]

    def fresh(self) -> "EntropyModel":
        """New instance of the same kind and parameters, initial state."""
        return EntropyModel(self.kind, self.k, self.counts)


def _table(counts: list) -> list:
    """A count table: ``counts``, then their total and ``cum[k // 2]``."""
    return counts + [sum(counts), sum(counts[: len(counts) // 2])]


def halve(tab: list) -> None:
    """Halve a table's counts in place, rounding up, and recompute its
    total and ``cum[k // 2]``: the step taken once the total would exceed
    ``COUNT_CAP``."""
    k = len(tab) - 2
    tab[:k] = [(c + 1) >> 1 for c in tab[:k]]
    tab[k] = sum(tab[:k])
    tab[k + 1] = sum(tab[: k // 2])


def make_model(
    kind: str,
    k: int,
    static_counts: Optional[Sequence[int]] = None,
) -> EntropyModel:
    """Construct a fresh entropy model.

    ``static_counts`` is required for (and only for) the static kind.
    """
    return EntropyModel(kind, k, static_counts)


def replay_intervals(symbols, model: EntropyModel):
    """Each symbol's coder interval under a replay of ``model``; mutates it.

    Returns ``(lo, hi, total)``, three int32 arrays in sequence order: the
    symbol ``s`` seen with cumulative counts ``cum`` gets
    ``(cum[s], cum[s + 1], cum[-1])``. The range coder codes these, and
    :func:`interval_bits` prices them. The adaptive kinds take them from
    the model's step (:meth:`EntropyModel.stepper`), one symbol at a time.
    A static model never changes, so its intervals are looked up in its one
    table at once.
    """
    syms = np.asarray(symbols, dtype=np.int64).ravel()
    if model.kind == STATIC:
        cum = np.array(model.cum(), dtype=np.intc)
        return cum[:-1][syms], cum[1:][syms], np.full(syms.size, cum[-1], np.intc)
    _, step, intervals = model.stepper()
    for s in syms.tolist():
        step(s)
    return tuple(np.frombuffer(a, dtype=np.intc) for a in intervals)


def interval_bits(lo, hi, total) -> np.ndarray:
    """Per-symbol cost ``log2(T) - log2(c)`` in bits of coder intervals.

    ``c = hi - lo`` is the symbol's count; the table is the one every rate
    path reads, so these are the doubles the walk and
    :meth:`EntropyModel.rate_vector` compute.
    """
    return _LOG2[total] - _LOG2[np.subtract(hi, lo)]


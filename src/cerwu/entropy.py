"""Autoregressive probability models over grid indices.

One model class, :class:`EntropyModel`, serves three kinds; it feeds both
the quantizer's rate estimates and the entropy coders. A model is a
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
:meth:`EntropyModel.rate_vector`, and steps through its one transition,
the ``step`` of :meth:`EntropyModel.stepper`: ``tab = step(s)`` observes
``s`` (static holds) and returns the table then active. The engine's
per-entry walk, which takes row-major layers of few rows, steps it.

:func:`replay_intervals` is the one rule for a symbol's coder interval
``(cum[s], cum[s+1], T)``: every quantizer path returns only its choices,
and the engine and :func:`~cerwu.rangecoder.encode` price them through it,
so predicted bits are the bits paid. A static model's intervals are looked
up in its one table. The adaptive kinds' come from a replay, from the
model's current state, which it leaves unchanged, of numpy copies of its
tables, a run of symbols at a time (:func:`_replay`): the counts each
symbol reads are running sums of the observations before it
(:func:`_tables_along`), kept only for the symbols the run holds, and a
run ends at the symbol whose observation halves a table
(:func:`_observed`). The engine's speculative pass steps many rows'
tables at once with the same helpers. The range decoder copies the
transition: it must find ``s`` from the coded value before it can step,
so it observes inline (:func:`~cerwu.rangecoder.decode` gives the
measured cost). Every copy halves with :func:`halve`, and tests hold them
bitwise to the step.

Every model's current distribution is a table of integer counts, each
>= 1, with total ``T <= COUNT_CAP = 2**16`` (``T = 2**15`` for static).
A model keeps each table as one list of Python ints that an observation
changes in place: the k counts, then ``T``, then ``cum[k // 2]``, the
count mass below the zero level. The per-symbol paths (the engine's walk,
the range decoder) therefore never touch numpy, and an observation costs
O(1) whatever k is. The zero level is the most probable symbol, so a
symbol's cumulative count ``cum[s]`` is summed outward from ``cum[k // 2]``
over the few counts between them, and the decoder searches outward from
it the same way (Witten, Neal & Cleary, CACM 1987, keep frequent symbols
first for the same reason). A symbol with count ``c`` costs
``log2(T) - log2(c)`` bits, read from one table of base-2 logarithms (as
a numpy array for :meth:`EntropyModel.rate_vector`, as a list of the same
floats, :func:`log2_list`, for the walk's per-symbol reads) so every rate
path agrees bitwise. The worst-case symbol cost is 16 bits (15 for static).
"""

from __future__ import annotations

from functools import cache
from math import isqrt
from itertools import accumulate
from typing import Optional, Sequence

import numpy as np

from .errors import ShapeError

TOTAL = 1 << 15  # total of a static frequency table; also the largest k
COUNT_CAP = 1 << 16  # adaptive counts are halved when their total would exceed this
# Table entries per run of the interval replay, whose tables have a column
# for each symbol a run holds: a run takes REPLAY_CHUNK // (k + 1) symbols,
# and isqrt(REPLAY_CHUNK) once k is larger. Runs of 1 << 12 to 1 << 17
# replayed 10^6 symbols at k=9 in 0.11 to 0.22 s, 1 << 14 the fastest; at
# k=4097 a symbol took 1.5 us against 82 with all k columns per run.
REPLAY_CHUNK = 1 << 14

STATIC = "static"
ADAPTIVE = "adaptive"
CONTEXT = "context"
MODEL_KINDS = (STATIC, ADAPTIVE, CONTEXT)

# log2(n) for n = 0..COUNT_CAP; log2(0) = -inf prices a zero count at inf.
with np.errstate(divide="ignore"):
    _LOG2 = np.log2(np.arange(COUNT_CAP + 1, dtype=np.float64))


@cache
def log2_list() -> list:
    """The same table as Python floats, for per-symbol reads: indexing a
    list costs less than a numpy scalar and yields the same doubles. It is
    built on first use, since converting it took about 3 ms of every
    ``import cerwu`` and only the engine's walk reads it."""
    return _LOG2.tolist()


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

    The one transition is the ``step`` of :meth:`stepper`: static holds,
    and the adaptive kinds observe the symbol and switch to its context's
    table (one table for both contexts of adaptive). An observation is
    O(1): ``c_s += 1``, ``T += 1``, and ``cum[z] += 1`` when ``s < z``.
    When the total would exceed ``COUNT_CAP``, :func:`halve` halves every
    count, the observed one included, rounding up. Tables change in place.
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
        """``(tab, step)``: the active table and the transition.

        ``tab = step(s)`` makes the adaptive kinds observe ``s`` and switch
        to its context's table; the static kind holds. It returns the table
        then active, which the model also keeps.
        """
        if self.kind == STATIC:
            return self._tab, lambda s: self._tab
        k = self.k
        below = k + 1  # the index of cum[z]
        z = self.zero_index
        tables = self.tables

        def step(s: int) -> list:
            tab = self._tab
            tab[s] += 1
            tab[k] += 1
            if s < z:
                tab[below] += 1
            if tab[k] > COUNT_CAP:
                halve(tab)
            self._tab = tab = tables[s != z]
            return tab

        return self._tab, step

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
    """Each symbol's coder interval under a replay of ``model`` from its
    current state, which the replay leaves unchanged.

    Returns ``(lo, hi, total)``, three int32 arrays in sequence order: the
    symbol ``s`` seen with cumulative counts ``cum`` gets
    ``(cum[s], cum[s + 1], cum[-1])``. The coder of the model's kind
    codes these (:func:`~cerwu.rangecoder.encode_intervals`: rANS for
    static, the range coder otherwise), and :func:`interval_bits` prices
    them. A static model never changes, so its intervals are looked up in
    its one table at once. The adaptive kinds replay numpy copies of the
    model's tables (:func:`_replay`).
    """
    syms = np.asarray(symbols, dtype=np.intp).ravel()
    if model.kind == STATIC:
        cum = np.array(model.cum(), dtype=np.intc)
        return cum[:-1][syms], cum[1:][syms], np.full(syms.size, cum[-1], np.intc)
    base, slot, nz = _state(model)
    out = tuple(np.empty(syms.size, dtype=np.intc) for _ in range(3))
    _replay(base, slot, syms, nz, out)
    return out


def _state(model: EntropyModel):
    """``(base, slot, nz)``: the model's state as :func:`_replay` steps it.

    ``base`` is a ``(2, k + 1)`` int64 array of both tables' counts, each
    followed by its total, ``slot`` the index of the active one and
    ``nz[s]`` the index of the table active after symbol ``s``.
    """
    k = model.k
    base = np.array([t[: k + 1] for t in model.tables], dtype=np.int64)
    slot = int(model.stepper()[0] is not model.tables[0])
    return base, slot, ((np.arange(k) != k // 2) & (model.kind == CONTEXT)).astype(np.intp)


def _replay(base, slot, stream, nz, out=None):
    """Step the state ``(base, slot)`` (see :func:`_state`) through
    ``stream`` a run of symbols at a time; returns the state after it.

    A run's tables keep a column only for each symbol the run holds, since
    the other counts stay as they are until a halving, at which a run
    ends; at a large k a run then pays O(k) once, not per symbol. With
    ``out`` = ``(lo, hi, total)``, writes each symbol's coder interval into
    them.
    """
    k = base.shape[1] - 1
    chunk = REPLAY_CHUNK // (min(k, isqrt(REPLAY_CHUNK)) + 1)
    pos = 0
    while pos < stream.size:
        run = stream[pos:pos + chunk]
        seen = np.bincount(run, minlength=k) > 0
        q = np.flatnonzero(seen)  # the run's symbols, one column each
        ids = run if q.size == k else (np.cumsum(seen) - 1)[run]
        cols = np.append(q, k)
        cur, tabs, sl = _tables_along(base[:, cols], slot, ids, nz[q])
        a = len(cur)
        p, ids = run[:a], ids[:a]
        if out is not None:
            lo, hi, total = (x[pos:pos + a] for x in out)
            ar = np.arange(a)
            hi[:] = np.cumsum(cur[:, :-1], axis=1)[ar, ids]
            if q.size < k:
                # cum[s + 1] also sums the unchanged counts below s
                rest = base[:, :k].copy()
                rest[:, q] = 0
                hi += np.cumsum(rest, axis=1)[sl, p]
            np.subtract(hi, cur[ar, ids], out=lo)
            total[:] = cur[:, -1]
        base = base.copy()
        base[:, cols] = tabs[a - 1]
        base, slot = _observed(base, sl[a - 1], p[-1]), int(nz[p[-1]])
        pos += a
    return base, slot


def _tables_along(base, slot, symbols, nz):
    """The tables a state ``(base, slot)`` reads along ``symbols``.

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
    if base[:, k].max() + r > COUNT_CAP:
        full = cur[:, k] >= COUNT_CAP
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
    if t[-1] > COUNT_CAP:
        out[slot] = _halved(t)
    return out


def _halved(t):
    """A table's counts and total after :func:`halve`."""
    tab = list(t) + [0]
    halve(tab)
    return tab[:-1]


def interval_bits(lo, hi, total) -> np.ndarray:
    """Per-symbol cost ``log2(T) - log2(c)`` in bits of coder intervals.

    ``c = hi - lo`` is the symbol's count; the table is the one every rate
    path reads, so these are the doubles the engine and
    :meth:`EntropyModel.rate_vector` compute.
    """
    return _LOG2[total] - _LOG2[np.subtract(hi, lo)]


"""Autoregressive probability models over grid indices.

One model class, :class:`EntropyModel`, serves three kinds; it feeds both
the quantizer's rate estimates and the range coder. A model is a
deterministic function of the symbol sequence it has seen, so replaying
the same symbols on a fresh instance reproduces the exact per-symbol
distributions; quantization-time rate estimates therefore equal
encoding-time costs.

Every kind is a pair of count tables, one per context (the previous
symbol was the zero level ``k // 2``, or it was not), and differs only in
its tables and in the transition ``update`` applies, chosen once when the
model is built:
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
:meth:`EntropyModel.rate_vector`, and per symbol through one transition
from :meth:`EntropyModel.stepper`, ``cum = step(s)``.

Every model's current distribution is a table of integer counts, each
>= 1, with total ``T <= COUNT_CAP = 2**16`` (``T = 2**15`` for static).
A model keeps only the cumulative counts, as a list of Python ints that
an update changes in place, so the per-symbol paths (the engine's walk,
the range coder) never touch numpy. The range coder codes straight from
the cumulative counts, and a symbol with count ``c`` costs
``log2(T) - log2(c)`` bits, read from one table of base-2 logarithms (as
a numpy array for :meth:`EntropyModel.rate_vector`, as a list of the same
floats, :data:`LOG2`, for per-symbol reads) so every rate path agrees
bitwise. The worst-case symbol cost is 16 bits (15 for static).
"""

from __future__ import annotations

from array import array
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

    Holds a pair of cumulative count tables ``[0, c0, c0+c1, ..., T]``
    (lists of ints), one per context, and the active one, which
    :meth:`cum` returns. Context 0 is active after the zero level
    ``zero_index = k // 2`` (``Grid.zero_index`` of every grid), context 1
    after any other symbol; a model starts in context 0. Static and
    adaptive models put one table in both slots. ``counts`` is the static
    kind's fitted table, the one a layer header stores, and ``None`` for
    the adaptive kinds.

    ``update(symbol)`` is the kind's transition, bound once here; it
    returns the table then active. Static holds; the adaptive kinds observe
    the symbol, then switch to its context's table (one table for both
    contexts of adaptive). An observation adds one to the cumulative
    entries above the symbol (O(k), after Moffat's linear-time adaptive
    coder); when the total would exceed ``COUNT_CAP`` every count, the
    observed one included, is halved, rounding up. Tables change in place.
    """

    __slots__ = ("kind", "k", "zero_index", "counts", "update", "_tabs", "_tab")

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
            first = [0] + np.cumsum(self.counts).tolist()
            self.update = self._hold
        else:
            first = list(range(k + 1))
            self.update = self._observe
        self._tabs = (first, list(range(k + 1)) if kind == CONTEXT else first)
        self._tab = first

    @property
    def current_context(self) -> int:
        """Index of the active table; always 0 when both slots share one."""
        return 0 if self._tab is self._tabs[0] else 1

    @current_context.setter
    def current_context(self, context: int) -> None:
        self._tab = self._tabs[context]

    def cum(self) -> list:
        """Cumulative counts [0, c0, c0+c1, ..., T] as ints (read-only)."""
        return self._tab

    def stepper(self):
        """``(cum, step)``, the active table and the transition: each of the
        four per-symbol loops reads ``cum``, then sets ``cum = step(symbol)``."""
        return self._tab, self.update

    def rate_vector(self) -> np.ndarray:
        """Per-symbol cost in bits: -log2(count / T)."""
        cum = self._tab
        return _LOG2[cum[-1]] - _LOG2[np.diff(cum)]

    def fresh(self) -> "EntropyModel":
        """New instance of the same kind and parameters, initial state."""
        return EntropyModel(self.kind, self.k, self.counts)

    # -- transitions; __init__ binds one of them as ``update`` -------------
    def _hold(self, symbol: int) -> list:
        return self._tab

    def _observe(self, symbol: int) -> list:
        cum = self._tab
        if cum[-1] < COUNT_CAP:
            for i in range(symbol + 1, len(cum)):
                cum[i] += 1
        else:
            counts = np.diff(cum)
            counts[symbol] += 1
            cum[1:] = np.cumsum((counts + 1) >> 1).tolist()
        self._tab = cum = self._tabs[symbol != self.zero_index]
        return cum


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
    :func:`interval_bits` prices them. A static model never changes, so
    its intervals are looked up in its one table at once.
    """
    syms = np.asarray(symbols, dtype=np.int64).ravel()
    if model.kind == STATIC:
        cum = np.array(model.cum(), dtype=np.intc)
        return cum[:-1][syms], cum[1:][syms], np.full(syms.size, cum[-1], np.intc)
    lo, hi, total = array("i"), array("i"), array("i")
    lo_append, hi_append, total_append = lo.append, hi.append, total.append
    cum, step = model.stepper()
    for s in syms.tolist():
        lo_append(cum[s])
        hi_append(cum[s + 1])
        total_append(cum[-1])
        cum = step(s)
    return tuple(np.frombuffer(a, dtype=np.intc) for a in (lo, hi, total))


def interval_bits(lo, hi, total) -> np.ndarray:
    """Per-symbol cost ``log2(T) - log2(c)`` in bits of coder intervals.

    ``c = hi - lo`` is the symbol's count; the table is the one every rate
    path reads, so these are the doubles the walk and
    :meth:`EntropyModel.rate_vector` compute.
    """
    return _LOG2[total] - _LOG2[np.subtract(hi, lo)]


def sequence_rate_bits(symbols, model: EntropyModel) -> float:
    """Total predicted bits for a symbol sequence; mutates the model.

    Sums the costs of :func:`replay_intervals` left to right, in sequence
    order, so totals match the other replay paths exactly.
    """
    bits = interval_bits(*replay_intervals(symbols, model))
    return float(np.cumsum(bits)[-1]) if bits.size else 0.0

"""Autoregressive probability models over grid indices.

Three interchangeable model kinds feed both the quantizer's rate
estimates and the range coder. A model is a deterministic function of the
symbol sequence it has seen, so replaying the same symbols on a fresh
instance reproduces the exact per-symbol distributions; quantization-time
rate estimates therefore equal encoding-time costs.

Kinds:
    static    fixed histogram, fitted once at construction to integer
              frequencies summing to exactly 2**15 and never updated; its
              frequency table is serialized in the layer header.
    adaptive  Laplace-smoothed adaptive histogram (all counts start at 1).
    context   adaptive histogram with two contexts keyed on whether the
              previous symbol was the zero level ``k // 2``; captures
              run-of-zeros statistics.

:func:`make_model` is the one constructor and :meth:`EntropyModel.fresh`
the one way to copy a model, so quantize, encode and decode replay the
same model. A model is read only through :meth:`EntropyModel.cum` and
:meth:`EntropyModel.rate_vector`.

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


def _rates(counts: np.ndarray, total: int) -> np.ndarray:
    """Per-symbol bit costs ``log2(total) - log2(count)``."""
    return _LOG2[total] - _LOG2[counts]


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


class _Counts:
    """Cumulative counts ``[0, c0, c0+c1, ..., T]`` as a list of ints.

    ``observe`` adds one to the cumulative entries above a symbol (O(k),
    after Moffat's linear-time adaptive coder), so no per-symbol array is
    kept. When the total would exceed ``COUNT_CAP`` every count, the
    observed one included, is halved, rounding up, and the list is rebuilt.
    """

    __slots__ = ("cum",)

    def __init__(self, counts):
        self.cum = [0] + np.cumsum(counts, dtype=np.int64).tolist()

    def observe(self, symbol: int) -> None:
        cum = self.cum
        if cum[-1] < COUNT_CAP:
            for i in range(symbol + 1, len(cum)):
                cum[i] += 1
        else:
            counts = np.diff(cum)
            counts[symbol] += 1
            self.cum = [0] + np.cumsum((counts + 1) >> 1).tolist()

    def rates(self) -> np.ndarray:
        return _rates(np.diff(self.cum), self.cum[-1])


class EntropyModel:
    """Common interface; concrete kinds set ``_tab`` and override the hooks.

    ``_tab`` is the active count table; the context model swaps it in
    :meth:`update`.
    """

    kind: str
    _tab: _Counts

    def __init__(self, k: int):
        if not 2 <= k <= TOTAL:
            raise ShapeError(f"model needs 2 <= k <= {TOTAL}, got {k}")
        self.k = k

    # -- hooks ------------------------------------------------------------
    def update(self, symbol: int) -> None:
        raise NotImplementedError

    def fresh(self) -> "EntropyModel":
        """New instance of the same kind and parameters, initial state."""
        raise NotImplementedError

    # -- derived ----------------------------------------------------------
    def cum(self) -> list:
        """Cumulative counts [0, c0, c0+c1, ..., T] as ints (read-only)."""
        return self._tab.cum

    def rate_vector(self) -> np.ndarray:
        """Per-symbol cost in bits: -log2(count / T)."""
        return self._tab.rates()


class StaticModel(EntropyModel):
    """Histogram fixed at construction; ``update`` is a no-op.

    Any counts, including a table read from a file header, are re-fitted
    by :func:`quantize_counts`, so every frequency is >= 1 and the total
    is exactly 2**15. ``counts`` holds the fitted table, the one written
    to a layer header; fitting it again leaves it unchanged.
    """

    kind = STATIC

    def __init__(self, k: int, counts: Sequence[int]):
        super().__init__(k)
        c = np.asarray(counts, dtype=np.int64)
        if c.shape != (k,):
            raise ShapeError(f"static counts must have length {k}, got {c.shape}")
        self.counts = quantize_counts(c)
        self._tab = _Counts(self.counts)
        self._rates = self._tab.rates()

    def rate_vector(self) -> np.ndarray:
        return self._rates

    def update(self, symbol: int) -> None:
        pass

    def fresh(self) -> "StaticModel":
        return StaticModel(self.k, self.counts)


class AdaptiveModel(EntropyModel):
    """Laplace-smoothed adaptive histogram.

    Counts start at 1 and increment per observed symbol; when the total
    exceeds 2**16 all counts are halved (rounding up), keeping integer
    state bounded.
    """

    kind = ADAPTIVE

    def __init__(self, k: int):
        super().__init__(k)
        self._tab = _Counts([1] * k)

    def update(self, symbol: int) -> None:
        self._tab.observe(symbol)

    def fresh(self) -> "AdaptiveModel":
        return AdaptiveModel(self.k)


class ContextModel(EntropyModel):
    """Two adaptive histograms keyed on the previous symbol.

    Context 0 is active when the previous symbol was the zero level
    ``k // 2`` (``Grid.zero_index`` of every grid), context 1 otherwise.
    Starts in context 0.
    """

    kind = CONTEXT

    def __init__(self, k: int):
        super().__init__(k)
        self.zero_index = k // 2
        self._tabs = (_Counts([1] * k), _Counts([1] * k))
        self._tab = self._tabs[0]

    @property
    def current_context(self) -> int:
        return 0 if self._tab is self._tabs[0] else 1

    @current_context.setter
    def current_context(self, context: int) -> None:
        self._tab = self._tabs[context]

    def update(self, symbol: int) -> None:
        self._tab.observe(symbol)
        self._tab = self._tabs[0 if symbol == self.zero_index else 1]

    def fresh(self) -> "ContextModel":
        return ContextModel(self.k)


def make_model(
    kind: str,
    k: int,
    static_counts: Optional[Sequence[int]] = None,
) -> EntropyModel:
    """Construct a fresh entropy model.

    ``static_counts`` is required for (and only for) the static kind.
    """
    if kind == STATIC:
        if static_counts is None:
            raise ShapeError("static model requires static_counts")
        return StaticModel(k, static_counts)
    if static_counts is not None:
        raise ShapeError(f"static_counts only valid for the static kind, not {kind!r}")
    if kind == ADAPTIVE:
        return AdaptiveModel(k)
    if kind == CONTEXT:
        return ContextModel(k)
    raise ShapeError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")


def sequence_rate_bits(symbols, model: EntropyModel) -> float:
    """Total predicted bits for a symbol sequence; mutates the model.

    Accumulates in sequence order the costs ``log2(T) - log2(c_s)`` read
    from the same table as :meth:`EntropyModel.rate_vector`, so totals
    match the other replay paths exactly.
    """
    L = LOG2
    cum_of = model.cum
    update = model.update
    total = 0.0
    for s in np.asarray(symbols, dtype=np.int64).tolist():
        cum = cum_of()
        total += L[cum[-1]] - L[cum[s + 1] - cum[s]]
        update(s)
    return total

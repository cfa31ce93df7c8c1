"""The entropy coders: static rANS and a byte-wise range coder.

The coder is chosen by the model's kind alone, in :func:`encode_intervals`
and :func:`decode`: a static table's total is ``T = 2**15``, a power of
two, and takes rANS; the adaptive kinds' totals are any ``T <= 2**16``
and take the range coder. Both code the intervals ``(cum[s], cum[s+1],
T)`` of the one interval rule, :func:`~cerwu.entropy.replay_intervals`:
:func:`encode` replays a fresh model over the symbols, and a compress
codes the intervals the engine priced its choices with. Every loop runs
on Python ints.

**Static kind: rANS** (Duda, arXiv:1311.2540), renormalized one byte at
a time as in Giesen's ``rans_byte`` (arXiv:1402.3392). The state ``x``
lies in ``[2**23, 2**31)``. A static model never changes, so the encoder
can walk the intervals last symbol first, as rANS requires: starting
from ``x = 2**23``, it emits the low byte of ``x`` while
``x >= f * 2**16`` (``f = cum[s+1] - cum[s]``), then sets
``x = (x // f) * T + x % f + cum[s]``. The payload is the final state,
:data:`STATE_BYTES` big-endian bytes, followed by the emitted bytes in
reverse order; a layer with no symbols is the initial state alone. The
decoder reads the symbols first to last. It takes ``(s, f, cum[s])`` from
one lookup in :func:`_symbol_table` at the slot ``x & (T - 1)``, sets
``x = f * (x >> 15) + (x & (T - 1)) - cum[s]`` (a mask, a shift and a
multiply, with no division and no search), and reads a byte while
``x < 2**23``. An intact payload starts in range, ends at ``x = 2**23``
and is read to its last byte; the decoder checks all three, so every
truncation raises, and so does every one-byte change that does not
decode to other symbols. It pays ``8 * len(payload)`` bits, between 23
and 33 more than the intervals' information content.

**Adaptive kinds: range coder.** Encoder state is a 64-bit low
accumulator (held as a Python int; at most 33 bits are ever live) and a
32-bit range, renormalized one byte at a time. Carries propagate into the
already-emitted byte buffer; the interval invariant value(out||low) +
range <= 2**(8*len(out)+32) guarantees a carry never ripples past the
front byte. Interval boundaries are ``(range * cum) // T``, so the coder
spends within a fraction of a bit of the model's information content.
Since the range stays at or above 2**24 and ``T <= 2**16``, every symbol
keeps an interval of at least 256 units. The flush appends
:data:`FLUSH_BYTES`: the 4 live bytes of ``low`` plus 4 bytes of padding,
which double as the decoder's priming slack. The decoder reads 4 +
(#renormalizations) bytes, which is always at least 4 bytes short of the
payload end on an intact stream.

The range coder visits symbols front to back and its decoder replays the
same model transitions in the same order, as an autoregressive model
requires. The decoder steps the model's count tables
(``EntropyModel.tables``) itself, and finds each symbol on the coder's
own boundaries ``(range * cum[s]) // T``: starting at the zero level's
``cum[k // 2]`` it walks the active table's counts down while the offset
``d`` lies below the boundary, or up while it lies at or above the next
one. The symbol is the one whose ``[lo, hi)`` holds ``d``, and the last
two boundaries the walk computed are that interval, so the zero level
and its lower neighbour cost two multiply-divides each and no third
scaling. This is the symbol the classic search finds from the threshold
``((d + 1) * T - 1) // range`` (Witten, Neal & Cleary, CACM 1987), for
every offset, range and table, corrupt payloads included:
``(range * c) // T <= d`` holds exactly when ``c`` is at most that
threshold. The table then takes the model's O(1) observation inline,
the one copy of the model's transition outside :mod:`cerwu.entropy`.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .entropy import COUNT_CAP, STATIC, EntropyModel, halve, replay_intervals
from .errors import DecodeError, ShapeError

_MASK32 = 0xFFFFFFFF
_TOP = 1 << 24  # a literal (0x1000000) in the range decoder's loop, like _RANS_LOW's
FLUSH_BYTES = 8  # the range coder's flush
STATE_BYTES = 4  # a static payload's leading rANS state
# The rANS state lies in [_RANS_LOW, 2**31). Its loops spell out the static
# total TOTAL = 2**15 (mask 0x7FFF, shift 15) and _RANS_LOW (0x800000) as
# literals, which Python loads faster than globals.
_RANS_LOW = 1 << 23


@dataclass(frozen=True)
class Payload:
    """Entropy-coded byte stream plus the symbol count (kept in headers)."""

    data: bytes
    symbol_count: int


def encode(symbols, model: EntropyModel) -> Payload:
    """Encode grid indices with a fresh entropy model.

    Replays the model over the symbols into coder intervals
    (:func:`~cerwu.entropy.replay_intervals`), from its current state,
    which the replay leaves unchanged, and codes those with
    :func:`encode_intervals` by the model's kind. Pass a fresh model:
    decoding with an identically initialized one restores the exact
    sequence.
    """
    syms = np.asarray(symbols, dtype=np.int64)
    if syms.ndim != 1:
        syms = syms.ravel()
    k = model.k
    if syms.size and (syms.min() < 0 or syms.max() >= k):
        raise ShapeError(f"symbol out of range for k={k}")
    return encode_intervals(*replay_intervals(syms, model), model.kind)


def encode_intervals(lo, hi, total, kind: str) -> Payload:
    """Code intervals: symbol ``t`` takes ``[lo[t], hi[t])`` of
    ``total[t]``, with ``0 <= lo < hi <= total <= 2**16``, by the coder
    of model kind ``kind``: rANS for the static kind, whose totals are all
    ``2**15``, else the range coder.

    The arrays (int32, as :func:`~cerwu.entropy.replay_intervals` returns
    them) are read through memoryviews, so no list of Python ints is built.
    """
    if kind == STATIC:
        return _rans_encode(lo, hi)
    return _range_encode(lo, hi, total)


def _rans_encode(lo, hi) -> Payload:
    """Static rANS over intervals of ``2**15``, last symbol first."""
    out = bytearray()
    append = out.append
    x = _RANS_LOW
    freqs = np.subtract(hi, lo)
    for c, f in zip(memoryview(lo[::-1]), memoryview(freqs[::-1])):
        # f << 16 = ((_RANS_LOW >> 15) << 8) * f: a state at or above it
        # would encode to 2**31 or more.
        while x >= f << 16:
            append(x & 0xFF)
            x >>= 8
        x = ((x // f) << 15) + x % f + c
    out.reverse()
    return Payload(x.to_bytes(STATE_BYTES, "big") + out, len(lo))


def _range_encode(lo, hi, total) -> Payload:
    """The range coder over intervals of any total up to ``2**16``."""
    out = bytearray()
    low = 0
    rng = _MASK32
    for c_lo, c_hi, t in zip(memoryview(lo), memoryview(hi), memoryview(total)):
        lo_inc = rng * c_lo // t
        hi_inc = rng * c_hi // t
        low += lo_inc
        if low > _MASK32:
            i = len(out) - 1
            while out[i] == 0xFF:
                out[i] = 0
                i -= 1
            out[i] += 1
            low &= _MASK32
        rng = hi_inc - lo_inc
        while rng < _TOP:
            out.append((low >> 24) & 0xFF)
            low = (low << 8) & _MASK32
            rng <<= 8

    out += low.to_bytes(4, "big")
    out += b"\x00\x00\x00\x00"
    return Payload(bytes(out), len(lo))


def decode(payload: Payload, model: EntropyModel) -> np.ndarray:
    """Decode a payload produced by :func:`encode` with an identical model.

    A static payload is rANS-decoded through the lookup table
    :func:`_symbol_table` builds once, with no call into the model and no
    search. The adaptive kinds are range-decoded: each symbol is found by
    walking the coder's interval boundaries over the active count table
    outward from the zero level, and the model's transition is made
    inline, on its tables: pass a fresh model, which the decode uses up.

    Both loops grow their output as symbols are decoded, not sized from
    the header's count: a hostile count then costs memory only as fast as
    the payload yields symbols.

    Raises:
        DecodeError: truncated or corrupt payload.
    """
    if model.kind == STATIC:
        return _rans_decode(payload, _symbol_table(model.cum(), model.k))
    return _range_decode(payload, model)


def _rans_decode(payload: Payload, table: list) -> np.ndarray:
    """Static rANS decoding (see the module docstring) through ``table``."""
    n = payload.symbol_count
    data = payload.data
    size = len(data)
    if size < STATE_BYTES:
        raise DecodeError(f"payload truncated: shorter than the {STATE_BYTES}-byte rANS state")
    x = int.from_bytes(data[:STATE_BYTES], "big")
    if not _RANS_LOW <= x < 1 << 31:
        raise DecodeError(f"corrupt payload: initial state {x:#010x} outside [2**23, 2**31)")
    pos = STATE_BYTES
    out = array("i")
    append = out.append
    for _ in repeat(None, n):
        slot = x & 0x7FFF
        s, f, c = table[slot]
        x = f * (x >> 15) + slot - c
        while x < 0x800000:
            if pos >= size:
                raise DecodeError(f"payload truncated at symbol {len(out)}")
            x = (x << 8) | data[pos]
            pos += 1
        append(s)
    if x != _RANS_LOW:
        raise DecodeError(f"corrupt payload: final state {x:#010x}, not 2**23")
    if pos != size:
        raise DecodeError(f"corrupt payload: {size - pos} bytes left after the last symbol")
    return np.array(out, dtype=np.int32)


def _range_decode(payload: Payload, model: EntropyModel) -> np.ndarray:
    """Range decoding for the adaptive kinds, stepping ``model``'s tables.

    The walk compares the offset with the boundaries the coder scaled the
    intervals by, so the symbol's interval is the walk's last two
    boundaries (see the module docstring for why it is the symbol the
    threshold search finds). It passes the top symbol only when the offset
    is at least the range: after any symbol ``d < range`` holds, whatever
    the bytes, so only the priming word ``0xFFFFFFFF`` does that.

    This inline observation is the one copy of the transition outside
    :meth:`EntropyModel.stepper`'s step, kept because a call per symbol
    costs more than the observation: routed through the step, decoding
    200 000 zero-heavy symbols at k = 9 and 17 took 1.12 to 1.19 times as
    long (best of 9, one thread of a 2-vCPU Xeon host).
    """
    k = model.k
    n = payload.symbol_count
    data = payload.data
    if n == 0:
        if len(data) < FLUSH_BYTES:
            raise DecodeError("payload truncated: missing flush bytes")
        return np.zeros(0, dtype=np.int32)
    if len(data) < 4:
        raise DecodeError("payload truncated at symbol 0: shorter than the priming window")

    d = int.from_bytes(data[:4], "big")
    pos = 4
    rng = _MASK32
    size = len(data)
    out = array("i")
    append = out.append
    # The adaptive transition, EntropyModel.stepper's step, made inline on
    # the active table ``tab`` (counts, then T at index k and cum[z] at k + 1).
    tables = model.tables
    z = model.zero_index
    tab = model.stepper()[0]
    below = k + 1  # the index of cum[z]
    cap = COUNT_CAP
    for _ in repeat(None, n):
        total = tab[k]
        # Walk the coder's boundaries (rng * cum[s]) // total outward from
        # the zero level to the symbol whose [lo, hi) holds d. Going down,
        # cum[0] = 0 ends the walk; going up, only d >= rng passes the last
        # symbol.
        c = tab[below]
        lo = rng * c // total
        s = z
        if d < lo:
            tab[below] = c + 1
            hi = lo
            s -= 1
            c -= tab[s]
            lo = rng * c // total
            while d < lo:
                hi = lo
                s -= 1
                c -= tab[s]
                lo = rng * c // total
        else:
            c += tab[s]
            hi = rng * c // total
            while d >= hi:
                s += 1
                if s == k:
                    raise DecodeError(f"corrupt payload at symbol {len(out)}: no matching interval")
                lo = hi
                c += tab[s]
                hi = rng * c // total
        d -= lo
        rng = hi - lo
        while rng < 0x1000000:
            if pos >= size:
                raise DecodeError(f"payload truncated at symbol {len(out)}")
            d = (d << 8) | data[pos]
            pos += 1
            rng <<= 8
        append(s)
        tab[s] += 1
        tab[k] = total + 1
        if total >= cap:
            halve(tab)
        tab = tables[s != z]
    return np.array(out, dtype=np.int32)


def _symbol_table(cum, k: int) -> list:
    """The static decoder's lookup table over a static model's ``cum``.

    Entry ``slot`` for ``0 <= slot < T = 2**15`` is ``(s, f, cum[s])`` for
    the symbol ``s`` whose interval ``[cum[s], cum[s] + f)`` holds
    ``slot``, the one ``bisect_right(cum, slot) - 1`` finds: the
    ``cum2sym`` table of static rANS decoders. Equal entries share one
    tuple.
    """
    table = []
    for s in range(k):
        c_lo, c_hi = cum[s], cum[s + 1]
        table += [(s, c_hi - c_lo, c_lo)] * (c_hi - c_lo)
    return table

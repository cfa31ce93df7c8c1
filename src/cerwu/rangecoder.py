"""Byte-wise range coder over integer count tables.

Encoder state is a 64-bit low accumulator (held as a Python int; at most
33 bits are ever live) and a 32-bit range, renormalized one byte at a
time. Carries propagate into the already-emitted byte buffer; the
interval invariant value(out||low) + range <= 2**(8*len(out)+32)
guarantees a carry never ripples past the front byte.

Each symbol is coded from the model's cumulative counts
``[0, c0, c0+c1, ..., T]`` with ``T <= 2**16``: interval boundaries are
``(range * cum) // T``, so the coder spends within a fraction of a bit of
the model's information content. Every model kind is encoded by this one
path; a static table's ``T = 2**15`` makes each division by ``T`` an
exact shift, which the static decoder loop computes as one. Since the
range stays at or above 2**24 and ``T <= 2**16``, every symbol keeps an
interval of at least 256 units.

The flush appends 8 bytes: the 4 live bytes of ``low`` plus 4 bytes of
padding, which double as the decoder's priming slack. The decoder reads
4 + (#renormalizations) bytes, which is always at least 4 bytes short of
the payload end on an intact stream.

Encoding visits symbols front to back and the decoder replays the same
model transitions in the same order, as an autoregressive model requires.
The encoder codes intervals ``(cum[s], cum[s+1], T)``, one per symbol,
from the one interval rule, :func:`~cerwu.entropy.replay_intervals`:
:func:`encode` replays a fresh model over the symbols, and a compress
codes the intervals the engine priced its choices with, so both go
through the one coding loop, :func:`encode_intervals`. Both loops run on
Python ints.

``decode(payload, model)`` takes k from the model, as :func:`encode` does,
and has two loops, chosen by ``model.kind``. A static model never changes,
so it reads the model once: :func:`_symbol_table` maps each scaled offset
``0 <= thr < T`` to its symbol and interval (the ``cum2sym`` table of
static rANS decoders), and each symbol then costs one list index and the
interval arithmetic, with no search and no call into the model. The
adaptive kinds step the model's count tables (``EntropyModel.tables``)
themselves: each symbol is found by walking the active table's counts
outward from the zero level's ``cum[k // 2]``, down or up, until the
interval holds the scaled offset, and the table then takes the model's
O(1) observation inline, the one copy of the model's transition outside
:mod:`cerwu.entropy`. Both loops give the same symbols and raise the same
errors.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from .entropy import COUNT_CAP, STATIC, TOTAL, EntropyModel, halve, replay_intervals
from .errors import DecodeError, ShapeError

_MASK32 = 0xFFFFFFFF
_TOP = 1 << 24
_SHIFT = TOTAL.bit_length() - 1  # a static table's T = 2**_SHIFT
FLUSH_BYTES = 8


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
    :func:`encode_intervals`. Pass a fresh model: decoding with an
    identically initialized one restores the exact sequence.
    """
    syms = np.asarray(symbols, dtype=np.int64)
    if syms.ndim != 1:
        syms = syms.ravel()
    k = model.k
    if syms.size and (syms.min() < 0 or syms.max() >= k):
        raise ShapeError(f"symbol out of range for k={k}")
    return encode_intervals(*replay_intervals(syms, model))


def encode_intervals(lo, hi, total) -> Payload:
    """Code intervals: symbol ``t`` takes ``[lo[t], hi[t])`` of
    ``total[t]``, with ``0 <= lo < hi <= total <= 2**16``.

    The one range-coding loop. The arrays (int32, as
    :func:`~cerwu.entropy.replay_intervals` returns them) are read through
    memoryviews, so no list of Python ints is built.
    """
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

    A static model never changes: its symbols are read from the lookup
    table :func:`_symbol_table` builds once, with no call into the model
    and no search. The adaptive kinds find each symbol by walking the
    active count table outward from the zero level and make the model's
    transition inline, on its tables: pass a fresh model, which the decode
    uses up. Both give the same symbols and the same errors.

    This inline observation is the one copy of the transition outside
    :meth:`EntropyModel.stepper`'s step, kept because a call per symbol
    costs more than the observation: routed through the step, decoding
    200 000 zero-heavy symbols at k = 9 and 17 took 1.12 to 1.14 times as
    long (best of 9, one thread of a 2-vCPU Xeon host).

    Raises:
        DecodeError: truncated or corrupt payload.
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
    # Grown as symbols are decoded, not sized from the header's count: a
    # hostile count then costs memory only as fast as the payload yields
    # symbols.
    out = array("i")
    append = out.append
    if model.kind == STATIC:
        table = _symbol_table(model.cum(), k)
        for t in range(n):
            # The adaptive loop's threshold with total = 2**15, as a shift.
            s, c_lo, c_hi = table[(((d + 1) << _SHIFT) - 1) // rng]
            if s == k:
                raise DecodeError(f"corrupt payload at symbol {t}: no matching interval")
            lo_inc = rng * c_lo >> _SHIFT
            d -= lo_inc
            rng = (rng * c_hi >> _SHIFT) - lo_inc
            while rng < _TOP:
                if pos >= size:
                    raise DecodeError(f"payload truncated at symbol {t}")
                d = (d << 8) | data[pos]
                pos += 1
                rng <<= 8
            append(s)
        return np.array(out, dtype=np.int32)

    # The adaptive transition, EntropyModel.stepper's step, made inline: the
    # walk below leaves the interval [lo, hi) = [cum[s], cum[s + 1]) of
    # symbol s in table ``tab`` (counts, then T at index k and cum[z] at k + 1).
    tables = model.tables
    z = model.zero_index
    tab = model.stepper()[0]
    for t in range(n):
        total = tab[k]
        below = tab[k + 1]
        # s is the largest symbol whose lower boundary is <= d:
        # (rng * c) // total <= d  <=>  c <= ((d + 1) * total - 1) // rng.
        thr = ((d + 1) * total - 1) // rng
        # Walk outward from the zero level, the most probable symbol. Going
        # down, cum[0] = 0 <= thr ends the walk; going up, only thr = T can
        # pass the last symbol.
        s = z
        if thr < below:
            hi = below
            s -= 1
            lo = hi - tab[s]
            while thr < lo:
                hi = lo
                s -= 1
                lo -= tab[s]
        else:
            lo = below
            hi = lo + tab[s]
            while thr >= hi:
                s += 1
                if s == k:
                    raise DecodeError(f"corrupt payload at symbol {t}: no matching interval")
                lo = hi
                hi += tab[s]
        lo_inc = rng * lo // total
        hi_inc = rng * hi // total
        # Interval search guarantees lo_inc <= d < hi_inc, so the offset
        # stays inside the (renormalized) range without further checks.
        d -= lo_inc
        rng = hi_inc - lo_inc
        while rng < _TOP:
            if pos >= size:
                raise DecodeError(f"payload truncated at symbol {t}")
            d = (d << 8) | data[pos]
            pos += 1
            rng <<= 8
        append(s)
        tab[s] += 1
        tab[k] = total + 1
        if s < z:
            tab[k + 1] = below + 1
        if total >= COUNT_CAP:
            halve(tab)
        tab = tables[s != z]
    return np.array(out, dtype=np.int32)


def _symbol_table(cum, k: int) -> list:
    """The static decoder's lookup table over a static model's ``cum``.

    Entry ``thr`` for ``0 <= thr < T = 2**15`` is ``(s, cum[s], cum[s+1])``
    for the symbol whose interval ``[cum[s], cum[s+1])`` holds ``thr``,
    the one ``bisect_right(cum, thr) - 1`` finds. Entry ``T`` is the
    sentinel ``(k, T, T)``. The threshold is ``T`` only while the offset
    equals the range, which happens only at symbol 0 when the payload
    starts with ``ff ff ff ff``; decoding then fails there.
    """
    table = []
    for s in range(k):
        c_lo, c_hi = cum[s], cum[s + 1]
        table += [(s, c_lo, c_hi)] * (c_hi - c_lo)
    table.append((k, cum[k], cum[k]))
    return table

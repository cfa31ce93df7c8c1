"""Byte-wise range coder over integer count tables.

Encoder state is a 64-bit low accumulator (held as a Python int; at most
33 bits are ever live) and a 32-bit range, renormalized one byte at a
time. Carries propagate into the already-emitted byte buffer; the
interval invariant value(out||low) + range <= 2**(8*len(out)+32)
guarantees a carry never ripples past the front byte.

Each symbol is coded from the model's cumulative counts
``[0, c0, c0+c1, ..., T]`` with ``T <= 2**16``: interval boundaries are
``(range * cum) // T``, so the coder spends within a fraction of a bit of
the model's information content. Every model kind takes this one path; a
static table's ``T = 2**15`` makes the division an exact shift. Since the
range stays at or above 2**24 and ``T <= 2**16``, every symbol keeps an
interval of at least 256 units.

The flush appends 8 bytes: the 4 live bytes of ``low`` plus 4 bytes of
padding, which double as the decoder's priming slack. The decoder reads
4 + (#renormalizations) bytes, which is always at least 4 bytes short of
the payload end on an intact stream.

Encoding visits symbols front to back and the decoder replays the same
model transitions in the same order, as an autoregressive model requires.
The encoder codes recorded intervals ``(cum[s], cum[s+1], T)``, one per
symbol: :func:`encode` takes them from a replay of a fresh model
(:func:`~cerwu.entropy.replay_intervals`), and a compress takes the ones
the engine's walk recorded, so both go through the one coding loop,
:func:`encode_intervals`. Both loops run on Python ints; the decoder reads
the model's cumulative-count lists and makes one call into the model per
symbol, ``cum = step(s)``, with ``step`` taken once from
:meth:`~cerwu.entropy.EntropyModel.stepper`.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .entropy import EntropyModel, replay_intervals
from .errors import DecodeError, ShapeError

_MASK32 = 0xFFFFFFFF
_TOP = 1 << 24
FLUSH_BYTES = 8


@dataclass(frozen=True)
class Payload:
    """Entropy-coded byte stream plus the symbol count (kept in headers)."""

    data: bytes
    symbol_count: int


def encode(symbols, model: EntropyModel) -> Payload:
    """Encode grid indices with a fresh entropy model.

    Replays the model over the symbols into coder intervals
    (:func:`~cerwu.entropy.replay_intervals`) and codes those with
    :func:`encode_intervals`. The model is mutated (one transition per
    symbol); pass a fresh instance. Decoding with an identically
    initialized model restores the exact sequence.
    """
    syms = np.asarray(symbols, dtype=np.int64)
    if syms.ndim != 1:
        syms = syms.ravel()
    k = model.k
    if syms.size and (syms.min() < 0 or syms.max() >= k):
        raise ShapeError(f"symbol out of range for k={k}")
    return encode_intervals(*replay_intervals(syms, model))


def encode_intervals(lo, hi, total) -> Payload:
    """Code recorded intervals: symbol ``t`` takes ``[lo[t], hi[t])`` of
    ``total[t]``, with ``0 <= lo < hi <= total <= 2**16``.

    The one range-coding loop. The arrays (int32, as
    :func:`~cerwu.entropy.replay_intervals` and the engine's walk record
    them) are read through memoryviews, so no list of Python ints is built.
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


def decode(payload: Payload, model: EntropyModel, k: int) -> np.ndarray:
    """Decode a payload produced by :func:`encode` with an identical model.

    Raises:
        DecodeError: truncated or corrupt payload.
    """
    if model.k != k:
        raise ShapeError(f"model k={model.k} does not match k={k}")
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
    cum, step = model.stepper()
    # Grown as symbols are decoded, not sized from the header's count: a
    # hostile count then costs memory only as fast as the payload yields
    # symbols.
    out = array("i")
    append = out.append
    for t in range(n):
        total = cum[-1]
        # s is the largest symbol whose lower boundary is <= d:
        # (rng * c) // total <= d  <=>  c <= ((d + 1) * total - 1) // rng.
        thr = ((d + 1) * total - 1) // rng
        s = bisect_right(cum, thr) - 1
        if s >= k:
            raise DecodeError(f"corrupt payload at symbol {t}: no matching interval")
        lo_inc = rng * cum[s] // total
        hi_inc = rng * cum[s + 1] // total
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
        cum = step(s)
    return np.array(out, dtype=np.int32)

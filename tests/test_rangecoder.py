import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cerwu.entropy import (
    ADAPTIVE, CONTEXT, COUNT_CAP, STATIC, TOTAL, make_model, replay_intervals,
)
from cerwu.errors import DecodeError, ShapeError
from cerwu.rangecoder import FLUSH_BYTES, STATE_BYTES, Payload, decode, encode, encode_intervals

from conftest import (
    HALVING_STREAM, halvings_per_table, oracle_stream, reference_decode, reference_intervals,
    reference_rans_decode, sequence_rate_bits,
)


def _spec(kind, k, rng=None):
    if kind == STATIC:
        counts = rng.integers(0, 1000, size=k)
        if counts.sum() == 0:
            counts[0] = 1
        return lambda: make_model(STATIC, k, static_counts=counts)
    return lambda: make_model(kind, k)


class TestEncode:
    def test_empty_sequence(self):
        p = encode([], make_model(ADAPTIVE, 2))
        assert p.symbol_count == 0
        assert len(p.data) <= FLUSH_BYTES

    def test_uniform_bound(self):
        rng = np.random.default_rng(0)
        syms = rng.integers(0, 2, size=100_000)
        # fixed uniform model: exactly 1 bit per symbol plus the 64-bit flush
        p = encode(syms, make_model(STATIC, 2, static_counts=[1, 1]))
        assert len(p.data) <= 12508

    def test_predicted_bits_bound(self):
        rng = np.random.default_rng(1)
        n = 100_000
        syms = np.where(rng.random(n) < 0.99, 1, rng.integers(0, 3, size=n))
        predicted = sequence_rate_bits(syms, make_model(ADAPTIVE, 3))
        p = encode(syms, make_model(ADAPTIVE, 3))
        actual = 8 * len(p.data)
        assert 0 <= actual - predicted <= 64 + 0.02 * predicted
        assert actual - predicted <= 0.02 * actual + 64

    def test_rejects_out_of_range_symbol(self):
        with pytest.raises(ShapeError):
            encode([0, 5], make_model(ADAPTIVE, 3))

    def test_static_stream_pinned(self):
        # payload bytes and predicted bits of a fixed static stream, as the
        # static rANS coder produces them; its payload starts with the final
        # encoder state, big-endian, and the reference rANS decoder reads it
        i = np.arange(3000)
        syms = np.where(i * 7919 % 10 < 7, 4, (i * i * 31 + i) % 9)
        counts = np.bincount(syms, minlength=9)
        p = encode(syms, make_model(STATIC, 9, static_counts=counts))
        assert len(p.data) == 556
        assert hashlib.sha256(p.data).hexdigest() == (
            "81212f8cfd030178282ebe1d395df1d3d0dbe3687dd5a29c91febaa2c64f4cb2"
        )
        assert p.data[:8].hex() == "1c38144354c0a798"
        back = reference_rans_decode(p, make_model(STATIC, 9, static_counts=counts), 9)
        assert np.array_equal(back, syms)
        rate = sequence_rate_bits(syms, make_model(STATIC, 9, static_counts=counts))
        assert rate == 4421.837612432743

    def test_deterministic_bytes(self):
        rng = np.random.default_rng(2)
        syms = rng.integers(0, 5, size=4000)
        p1 = encode(syms, make_model(CONTEXT, 5))
        p2 = encode(syms, make_model(CONTEXT, 5))
        assert p1.data == p2.data


class TestRoundTrip:
    def test_single_symbol(self):
        for s in range(4):
            p = encode([s], make_model(ADAPTIVE, 4))
            assert decode(p, make_model(ADAPTIVE, 4)).tolist() == [s]

    def test_empty_round_trip(self):
        p = encode([], make_model(ADAPTIVE, 3))
        assert decode(p, make_model(ADAPTIVE, 3)).size == 0

    @pytest.mark.parametrize("kind", [STATIC, ADAPTIVE, CONTEXT])
    def test_fuzz(self, kind):
        rng = np.random.default_rng(3)
        for trial in range(60):
            k = int(rng.integers(2, 40))
            n = int(rng.integers(0, 800))
            factory = _spec(kind, k, rng)
            if trial % 3 == 0:
                # heavy skew stresses the renormalization and carry paths
                p_zero = 0.97
                syms = np.where(
                    rng.random(n) < p_zero, k // 2, rng.integers(0, k, size=n)
                )
            else:
                syms = rng.integers(0, k, size=n)
            payload = encode(syms, factory())
            back = decode(payload, factory())
            assert np.array_equal(back, syms)

    def test_alternating_rare_common_context(self):
        # adversarial for the context model: constant context switching
        k = 7
        syms = np.array([k // 2, 0] * 3000)
        payload = encode(syms, make_model(CONTEXT, k))
        assert np.array_equal(decode(payload, make_model(CONTEXT, k)), syms)

    def test_all_same_symbol_long(self):
        syms = np.full(50_000, 2, dtype=np.int64)
        payload = encode(syms, make_model(ADAPTIVE, 5))
        # a near-deterministic stream compresses to almost nothing
        assert len(payload.data) < 1200
        assert np.array_equal(decode(payload, make_model(ADAPTIVE, 5)), syms)


class TestRoundTripProperties:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        counts=st.lists(st.integers(0, 2**16 - 1), min_size=2, max_size=40).filter(any),
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 600),
    )
    @example(counts=[1, 1], seed=0, n=0)
    def test_static_tables(self, counts, seed, n):
        # symbols drawn from any table, rare and zero-count ones included;
        # no symbols code as the initial rANS state alone
        syms = np.random.default_rng(seed).integers(0, len(counts), size=n)
        factory = lambda: make_model(STATIC, len(counts), static_counts=counts)
        payload = encode(syms, factory())
        assert np.array_equal(decode(payload, factory()), syms)
        predicted = sequence_rate_bits(syms, factory())
        assert predicted <= 8 * len(payload.data) <= predicted + 33
        if n == 0:
            assert payload.data == (1 << 23).to_bytes(STATE_BYTES, "big")

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        k=st.integers(2, TOTAL),
        n=st.integers(0, 5000),
        p_zero=st.sampled_from([0.0, 0.5, 0.99]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(k=2, n=5000, p_zero=0.99, seed=0)
    @example(k=TOTAL, n=5000, p_zero=0.0, seed=1)
    def test_static_paid_bits_bound(self, k, n, p_zero, seed):
        # a static payload pays its predicted bits plus 23 to 33: the
        # 32-bit final state starts from 2**23 and ends below 2**31
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 1000, size=k)
        counts[k // 2] += 1
        counts = make_model(STATIC, k, static_counts=counts).counts
        syms = np.where(rng.random(n) < p_zero, k // 2, rng.integers(0, k, size=n))
        factory = lambda: make_model(STATIC, k, static_counts=counts)
        payload = encode(syms, factory())
        predicted = sequence_rate_bits(syms, factory())
        assert predicted <= 8 * len(payload.data) <= predicted + 33
        assert np.array_equal(decode(payload, factory()), syms)

    @settings(max_examples=8, deadline=None, derandomize=True, database=None)
    @given(
        kind=st.sampled_from([ADAPTIVE, CONTEXT]),
        k=st.integers(2, 17),
        p_zero=st.sampled_from([0.0, 0.5, 0.99]),
        extra=st.integers(0, 3000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_adaptive_streams_across_halving(self, kind, k, p_zero, extra, seed):
        # long enough that the busiest table reaches COUNT_CAP and halves
        rng = np.random.default_rng(seed)
        n = 2 * COUNT_CAP + extra
        syms = np.where(rng.random(n) < p_zero, k // 2, rng.integers(0, k, size=n))
        payload = encode(syms, make_model(kind, k))
        back = decode(payload, make_model(kind, k))
        assert back.dtype == np.int32 and np.array_equal(back, syms)


def assert_decodes_like_reference(payload, factory, k):
    """``decode`` returns the reference loop's symbols or raises its error."""
    try:
        want = reference_decode(payload, factory(), k)
    except DecodeError as exc:
        with pytest.raises(DecodeError) as got:
            decode(payload, factory())
        assert str(got.value) == str(exc)
    else:
        got = decode(payload, factory())
        assert got.dtype == want.dtype and np.array_equal(got, want)


class TestStaticLookupDecode:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        # small counts fit to frequency 1 next to large ones
        counts=st.lists(
            st.one_of(st.integers(0, 3), st.integers(0, 2**16 - 1)), min_size=2, max_size=40
        ).filter(any),
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 24),
        skewed=st.booleans(),
    )
    @example(counts=[1, 0], seed=0, n=24, skewed=False)
    @example(counts=[1] * TOTAL, seed=1, n=24, skewed=False)
    def test_matches_reference(self, counts, seed, n, skewed):
        # every truncation and a one-byte XOR at every offset of a small
        # payload decode to the reference's symbols or its exact error
        k = len(counts)
        factory = lambda: make_model(STATIC, k, static_counts=counts)
        rng = np.random.default_rng(seed)
        if skewed:
            syms = rng.choice(k, size=n, p=factory().counts / TOTAL)
        else:
            syms = rng.integers(0, k, size=n)
        data = encode(syms, factory()).data
        assert np.array_equal(decode(Payload(data, n), factory()), syms)
        for cut in range(len(data)):
            assert_decodes_like_reference(Payload(data[:cut], n), factory, k)
        for pos, mask in enumerate(rng.integers(1, 256, size=len(data)).tolist()):
            mutant = bytearray(data)
            mutant[pos] ^= mask
            assert_decodes_like_reference(Payload(bytes(mutant), n), factory, k)

    @pytest.mark.parametrize("counts", [[1, 1], [5, 0, 3], [1] * TOTAL])
    def test_all_ones_priming_word(self, counts):
        # initial states at and beyond both ends of [2**23, 2**31): the
        # all-ones word and 2**31 are above it, 2**23 - 1 below, and the
        # states inside decode like the reference
        factory = lambda: make_model(STATIC, len(counts), static_counts=counts)
        for word in ("ffffffff", "80000000", "007fffff", "00000000"):
            payload = Payload(bytes.fromhex(word) + bytes(8), 3)
            assert_decodes_like_reference(payload, factory, len(counts))
            with pytest.raises(DecodeError, match=f"initial state 0x{word} outside"):
                decode(payload, factory())
        for word in ("7fffffff", "00800000"):
            for tail in (bytes(8), b"\xff" * 8):
                payload = Payload(bytes.fromhex(word) + tail, 3)
                assert_decodes_like_reference(payload, factory, len(counts))


class TestStaticCorruption:
    @pytest.mark.parametrize("k,n,p_zero,seed", [
        (2, 40, 0.5, 0), (9, 24, 0.8, 1), (9, 24, 0.0, 2), (33, 12, 0.5, 3), (257, 16, 0.5, 4),
    ])
    def test_small_payloads_exhaustive(self, k, n, p_zero, seed):
        # every truncation of a small static payload raises, and so do
        # appended bytes and each of the 255 one-byte XORs at every offset.
        # A mutant that passed the end checks would decode to other symbols,
        # since each symbol sequence has one rANS payload; the range coder
        # that coded static payloads before raised on none of these XORs.
        rng = np.random.default_rng(seed)
        syms = oracle_stream(rng, k, n, p_zero)
        # fitted once: fitting a fitted table again is quick at any k
        counts = make_model(STATIC, k, static_counts=np.bincount(syms, minlength=k)).counts
        factory = lambda: make_model(STATIC, k, static_counts=counts)
        data = encode(syms, factory()).data
        assert 4 < len(data) <= 16
        for cut in range(len(data)):
            with pytest.raises(DecodeError):
                decode(Payload(data[:cut], n), factory())
        for extra in (b"\x00", b"\x80\xff"):
            with pytest.raises(DecodeError, match="bytes left after the last symbol"):
                decode(Payload(data + extra, n), factory())
        for pos in range(len(data)):
            for mask in range(1, 256):
                mutant = bytearray(data)
                mutant[pos] ^= mask
                with pytest.raises(DecodeError):
                    decode(Payload(bytes(mutant), n), factory())


class TestDecodeErrors:
    def test_truncated_payload(self):
        # the message names the first symbol the missing bytes cut off
        rng = np.random.default_rng(4)
        syms = rng.integers(0, 4, size=5000)
        payload = encode(syms, make_model(ADAPTIVE, 4))
        cut = Payload(payload.data[: len(payload.data) // 2], payload.symbol_count)
        with pytest.raises(DecodeError, match="^payload truncated at symbol 2497$"):
            decode(cut, make_model(ADAPTIVE, 4))

    def test_empty_data(self):
        with pytest.raises(DecodeError):
            decode(Payload(b"", 5), make_model(ADAPTIVE, 4))

    def test_corrupt_bytes_detected_or_mismatch(self):
        # flipping payload bytes must never crash: either a DecodeError or
        # a (detectably) different symbol sequence
        rng = np.random.default_rng(5)
        syms = rng.integers(0, 3, size=400)
        payload = encode(syms, make_model(ADAPTIVE, 3))
        for pos in range(0, len(payload.data), 7):
            data = bytearray(payload.data)
            data[pos] ^= 0xA5
            try:
                back = decode(Payload(bytes(data), payload.symbol_count),
                              make_model(ADAPTIVE, 3))
            except DecodeError:
                continue
            assert not np.array_equal(back, syms) or pos >= len(payload.data) - 4


class TestRateAchievability:
    @pytest.mark.parametrize("kind", [STATIC, ADAPTIVE, CONTEXT])
    def test_measured_vs_information_content(self, kind):
        rng = np.random.default_rng(6)
        for _ in range(10):
            k = int(rng.integers(2, 24))
            n = 10_000
            factory = _spec(kind, k, rng)
            probs = rng.dirichlet(np.full(k, 0.3))
            syms = rng.choice(k, size=n, p=probs)
            predicted = sequence_rate_bits(syms, factory())
            payload = encode(syms, factory())
            gap = 8 * len(payload.data) - predicted
            assert 0 <= gap <= 64 + 0.001 * predicted


class TestAdaptiveDecodeOracle:
    """The adaptive decoder and :func:`replay_intervals` against the
    cumulative-list reference model of ``conftest``, which shares no code
    with the count tables under test."""

    @settings(max_examples=2, deadline=None, derandomize=True, database=None)
    @given(
        kind=st.sampled_from([ADAPTIVE, CONTEXT]),
        k=st.sampled_from([2, 3, 9, 33, 257]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(kind=CONTEXT, k=2, seed=0)
    @example(kind=ADAPTIVE, k=3, seed=1)
    @example(kind=CONTEXT, k=9, seed=2)
    @example(kind=ADAPTIVE, k=33, seed=3)
    @example(kind=CONTEXT, k=257, seed=4)
    def test_long_streams_across_halvings(self, kind, k, seed):
        # encode codes the replay's intervals; once they are the reference's,
        # its payload is the reference coder's bytes, which the reference
        # decoder maps back to the symbols: decoding them is decoding like
        # the reference.
        syms = oracle_stream(np.random.default_rng(seed), k, HALVING_STREAM, 0.5)
        want = reference_intervals(syms, make_model(kind, k))
        got = replay_intervals(syms, make_model(kind, k))
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert min(halvings_per_table(syms, want[2], kind, k)) >= 2
        back = decode(encode_intervals(*got, kind), make_model(kind, k))
        assert back.dtype == np.int32 and np.array_equal(back, syms)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        kind=st.sampled_from([ADAPTIVE, CONTEXT]),
        k=st.sampled_from([2, 3, 9, 33, 257]),
        p_zero=st.sampled_from([0.0, 0.5, 0.9]),
        n=st.integers(0, 24),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(kind=CONTEXT, k=257, p_zero=0.0, n=24, seed=0)
    @example(kind=ADAPTIVE, k=2, p_zero=0.5, n=24, seed=1)
    def test_short_payloads_truncated_or_flipped(self, kind, k, p_zero, n, seed):
        # every truncation and a one-byte XOR at every offset of a small
        # payload decode to the reference's symbols or its exact error
        factory = lambda: make_model(kind, k)
        rng = np.random.default_rng(seed)
        syms = oracle_stream(rng, k, n, p_zero)
        data = encode(syms, factory()).data
        assert np.array_equal(decode(Payload(data, n), factory()), syms)
        for cut in range(len(data)):
            assert_decodes_like_reference(Payload(data[:cut], n), factory, k)
        for pos, mask in enumerate(rng.integers(1, 256, size=len(data)).tolist()):
            mutant = bytearray(data)
            mutant[pos] ^= mask
            assert_decodes_like_reference(Payload(bytes(mutant), n), factory, k)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        kind=st.sampled_from([ADAPTIVE, CONTEXT]),
        k=st.integers(2, 65),
        p_zero=st.sampled_from([0.0, 0.3, 0.9]),
        n=st.integers(0, 3000),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(kind=CONTEXT, k=2, p_zero=0.9, n=3000, seed=0)
    @example(kind=ADAPTIVE, k=65, p_zero=0.0, n=3000, seed=1)
    def test_streams_decode_like_reference(self, kind, k, p_zero, n, seed):
        # the decoder walks the coder's boundaries, the reference bisects
        # the threshold of the scaled offset: both find the same symbols
        syms = oracle_stream(np.random.default_rng(seed), k, n, p_zero)
        payload = encode(syms, make_model(kind, k))
        want = reference_decode(payload, make_model(kind, k), k)
        assert np.array_equal(want, syms)
        got = decode(payload, make_model(kind, k))
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("kind", [ADAPTIVE, CONTEXT])
    @pytest.mark.parametrize("k,n,p_zero,seed", [
        (2, 40, 0.5, 0), (9, 24, 0.8, 1), (9, 24, 0.0, 2), (33, 12, 0.5, 3),
    ])
    def test_small_payloads_exhaustive(self, kind, k, n, p_zero, seed):
        # every truncation and each of the 255 one-byte XORs at every
        # offset of a small payload decode to the reference's symbols or
        # raise its exact error
        factory = lambda: make_model(kind, k)
        syms = oracle_stream(np.random.default_rng(seed), k, n, p_zero)
        data = encode(syms, factory()).data
        assert FLUSH_BYTES < len(data) <= 24
        for cut in range(len(data)):
            assert_decodes_like_reference(Payload(data[:cut], n), factory, k)
        for pos in range(len(data)):
            for mask in range(1, 256):
                mutant = bytearray(data)
                mutant[pos] ^= mask
                assert_decodes_like_reference(Payload(bytes(mutant), n), factory, k)

    @pytest.mark.parametrize("kind", [ADAPTIVE, CONTEXT])
    @pytest.mark.parametrize("k", [2, 9])
    def test_all_ones_priming_word(self, kind, k):
        # the threshold is T: the upward walk passes the last symbol
        payload = Payload(bytes.fromhex("ffffffff") + bytes(8), 3)
        assert_decodes_like_reference(payload, lambda: make_model(kind, k), k)
        with pytest.raises(DecodeError, match="corrupt payload at symbol 0"):
            decode(payload, make_model(kind, k))

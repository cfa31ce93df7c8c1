import numpy as np
import pytest

from cerwu.entropy import (
    ADAPTIVE,
    CONTEXT,
    STATIC,
    COUNT_CAP,
    MODEL_KINDS,
    TOTAL,
    make_model,
    quantize_counts,
    replay_intervals,
)
from cerwu.errors import ShapeError

from conftest import (HALVING_STREAM, current_context, entropy_bits, halvings_per_table,
                      oracle_stream, reference_intervals, sequence_rate_bits, set_context,
                      step_model)


class TestQuantizeCounts:
    def test_uniform_two(self):
        assert quantize_counts([1, 1]).tolist() == [16384, 16384]

    def test_three_one(self):
        assert quantize_counts([3, 1]).tolist() == [24576, 8192]

    def test_min_frequency_guard(self):
        f = quantize_counts([100000, 1])
        assert f.tolist() == [32767, 1]

    def test_uniform_three_largest_remainder(self):
        # 32768 = 3*10922 + 2: the two spare units go to the lowest indices
        assert quantize_counts([1, 1, 1]).tolist() == [10923, 10923, 10922]

    def test_static_example_proportional(self):
        f = quantize_counts([98, 1, 1])
        assert f.sum() == TOTAL and f.min() >= 1
        assert f.tolist() == [32112 + 0, 327 + 1, 327 + 1]

    def test_surplus_removal_keeps_floor(self):
        # many zero counts clamp to 1, forcing removal from the largest
        counts = [10**6] + [0] * 99
        f = quantize_counts(counts)
        assert f.sum() == TOTAL and f.min() == 1
        assert f[0] == TOTAL - 99

    def test_total_always_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            k = int(rng.integers(2, 80))
            c = rng.integers(0, 5000, size=k)
            if c.sum() == 0:
                c[0] = 1
            f = quantize_counts(c)
            assert f.sum() == TOTAL and f.min() >= 1

    def test_rejects_all_zero(self):
        with pytest.raises(ShapeError):
            quantize_counts([0, 0, 0])


class TestInitModel:
    def test_adaptive_starts_uniform(self):
        m = make_model(ADAPTIVE, 3)
        assert np.diff(m.cum()).tolist() == [1, 1, 1]
        assert m.cum() == [0, 1, 2, 3]

    def test_static_proportional(self):
        freqs = np.diff(make_model(STATIC, 3, static_counts=[98, 1, 1]).cum())
        assert freqs.sum() == TOTAL and freqs.min() >= 1
        assert freqs[0] > 90 * freqs[1]

    def test_context_both_uniform(self):
        m = make_model(CONTEXT, 5)
        first = np.diff(m.cum())
        set_context(m, 1)
        assert np.array_equal(np.diff(m.cum()), first)

    def test_static_requires_counts(self):
        with pytest.raises(ShapeError):
            make_model(STATIC, 3)

    def test_counts_rejected_for_adaptive(self):
        with pytest.raises(ShapeError):
            make_model(ADAPTIVE, 3, static_counts=[1, 1, 1])

    def test_static_counts_length_checked(self):
        with pytest.raises(ShapeError):
            make_model(STATIC, 3, static_counts=[1, 1])

    @pytest.mark.parametrize("kind", [ADAPTIVE, CONTEXT])
    def test_grid_size_bounded(self, kind):
        # every symbol needs a count of at least 1 inside a bounded total
        make_model(kind, TOTAL)
        with pytest.raises(ShapeError):
            make_model(kind, TOTAL + 1)

    def test_static_counts_hold_fitted_table(self):
        # the table written to a layer header; fitting it again (as a
        # reader or fresh() does) leaves it unchanged
        m = make_model(STATIC, 3, static_counts=[98, 1, 1])
        assert m.counts.tolist() == quantize_counts([98, 1, 1]).tolist()
        assert np.diff(m.cum()).tolist() == m.counts.tolist()
        assert m.fresh().counts.tolist() == m.counts.tolist()

    def test_static_table_refitted(self):
        # a table with zero entries (say, from a hostile file header) is
        # re-fitted so every symbol stays codable
        m = make_model(STATIC, 3, static_counts=[0, TOTAL, 0])
        assert m.cum() == [0, 1, TOTAL - 1, TOTAL]


class TestRateBits:
    def test_uniform_two_is_one_bit(self):
        assert make_model(ADAPTIVE, 2).rate_vector()[0] == 1.0

    def test_quarter_is_two_bits(self):
        m = make_model(STATIC, 2, static_counts=[1, 3])
        assert m.rate_vector()[0] == 2.0

    def test_heavy_symbol_gets_cheap(self):
        m = make_model(ADAPTIVE, 3)
        for _ in range(100):
            step_model(m, 1)
        assert m.rate_vector()[1] < 0.1

    def test_worst_case_fifteen_bits(self):
        m = make_model(STATIC, 2, static_counts=[10**9, 1])
        assert m.rate_vector()[1] == 15.0

    def test_static_rates_match_fifteen_bit_table(self):
        # static costs are 15 - log2(freq), bitwise as tabulated for all
        # frequencies 1..2**15
        counts = [200, 0, 0, 201, 2100, 300, 199, 0, 0]
        m = make_model(STATIC, 9, static_counts=counts)
        freqs = np.diff(m.cum())
        table = 15.0 - np.log2(np.arange(1, TOTAL + 1, dtype=np.float64))
        assert np.array_equal(m.rate_vector(), table[freqs - 1])


class TestUpdate:
    def test_adaptive_increments(self):
        m = make_model(ADAPTIVE, 2)
        step_model(m, 0)
        assert np.diff(m.cum()).tolist() == [2, 1]
        assert m.cum() == [0, 2, 3]
        assert m.rate_vector().tolist() == pytest.approx([np.log2(3) - 1.0, np.log2(3)])

    def test_context_switches(self):
        m = make_model(CONTEXT, 3)  # zero level index 1
        assert m.zero_index == 1
        step_model(m, 1)
        assert current_context(m) == 0
        step_model(m, 2)
        assert current_context(m) == 1

    def test_context_tables_independent(self):
        m = make_model(CONTEXT, 3)
        step_model(m, 2)  # counted in context 0, switches to context 1
        step_model(m, 2)  # counted in context 1
        assert m.cum() == [0, 1, 2, 4]
        set_context(m, 0)
        assert m.cum() == [0, 1, 2, 4]

    def test_halving_cap(self):
        m = make_model(ADAPTIVE, 2)
        for _ in range(COUNT_CAP - 2):
            step_model(m, 0)
        assert m.cum() == [0, COUNT_CAP - 1, COUNT_CAP]
        assert m.rate_vector()[1] == 16.0  # the worst case of the adaptive kinds
        step_model(m, 0)
        assert m.cum() == [0, 32768, 32769]

    def test_static_never_changes(self):
        m = make_model(STATIC, 3, static_counts=[5, 2, 1])
        before = np.diff(m.cum())
        for s in (0, 1, 2, 0):
            step_model(m, s)
        assert np.array_equal(np.diff(m.cum()), before)


@pytest.mark.parametrize("k", [2, 5, 9, 33])
def test_static_step_records_table_lookup(k):
    # a static model's step holds its one table unchanged, and the
    # intervals replay_intervals looks up in it are the reference model's
    rng = np.random.default_rng(k)
    counts = rng.integers(0, 50, size=k)
    counts[k // 2] += 200
    syms = oracle_stream(rng, k, 3_000, 0.5)
    m = make_model(STATIC, k, static_counts=counts)
    tab, step = m.stepper()
    before = list(tab)
    for s in syms.tolist():
        assert step(s) is tab
    assert tab == before
    for a, b in zip(replay_intervals(syms, m), reference_intervals(syms, m.fresh())):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("k", [3, 9, 33])
@pytest.mark.parametrize("kind", [ADAPTIVE, CONTEXT])
def test_replay_starts_from_the_model_state(kind, k):
    # stepped through a prefix, a model replays the rest of the stream as
    # the reference model replays the whole of it, across halvings, and
    # keeps its tables and its active one
    syms = oracle_stream(np.random.default_rng(k), k, HALVING_STREAM, 0.5)
    cut = HALVING_STREAM // 2 + k
    m = make_model(kind, k)
    tab, step = m.stepper()
    for s in syms[:cut].tolist():
        tab = step(s)
    tables = [list(t) for t in m.tables]
    want = reference_intervals(syms, make_model(kind, k))
    got = replay_intervals(syms[cut:], m)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b[cut:])
    assert min(halvings_per_table(syms, want[2], kind, k)) >= 2
    assert min(halvings_per_table(syms[cut:], got[2], kind, k)) >= 1
    assert [list(t) for t in m.tables] == tables and m.stepper()[0] is tab


class TestReplayDeterminism:
    @pytest.mark.parametrize("kind", [ADAPTIVE, CONTEXT])
    def test_same_sequence_same_distributions(self, kind):
        rng = np.random.default_rng(2)
        seq = rng.integers(0, 4, size=300)
        a = make_model(kind, 4)
        b = make_model(kind, 4)
        for s in seq.tolist():
            assert np.array_equal(np.diff(a.cum()), np.diff(b.cum()))
            step_model(a, s)
            step_model(b, s)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_fresh_restores_initial_state(self, kind):
        counts = [5, 2, 1, 1] if kind == STATIC else None
        initial = [0, 1, 2, 3, 4]
        if kind == STATIC:
            initial = [0] + np.cumsum(quantize_counts(counts)).tolist()
        m = make_model(kind, 4, static_counts=counts)
        for s in (1, 2, 3, 0):
            step_model(m, s)
        f = m.fresh()
        assert (f.kind, f.k) == (kind, 4)
        assert current_context(f) == 0
        assert f.cum() == initial
        set_context(f, 1)
        assert f.cum() == initial
        # the copy shares no table with the model it came from
        before = list(m.cum())
        step_model(f, 2)
        step_model(f, 0)
        assert m.cum() == before


def test_adaptive_approaches_source_entropy():
    # universal-coding sanity: average rate within 5% of the entropy of an
    # i.i.d. source after 1e5 symbols
    rng = np.random.default_rng(3)
    p = np.array([0.5, 0.3, 0.2])
    n = 100_000
    seq = rng.choice(3, size=n, p=p)
    total = sequence_rate_bits(seq, make_model(ADAPTIVE, 3))
    h = entropy_bits(p)
    assert abs(total / n - h) / h <= 0.05


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_distribution_total_exact_across_reachable_states(kind):
    # driven through stepper(): each step returns the active table, whose
    # counts, total and mass below the zero level equal a from-scratch count
    # of the symbols seen per context, through several halvings, and so do
    # the next symbol's interval, replayed from the model's state; the
    # adaptive kind keeps one table whatever the previous symbol was, and
    # the static kind's step returns its one table unchanged every time
    rng = np.random.default_rng(4)
    k = 6
    m = make_model(kind, k, static_counts=[3, 1, 4, 1, 5, 9] if kind == STATIC else None)
    ref = [m.counts.tolist() if kind == STATIC else [1] * k for _ in range(2)]
    ctx = 0
    halvings = 0
    seq = np.where(rng.random(150_000) < 0.9, 0, rng.integers(0, k, size=150_000))
    tab, step = m.stepper()
    for t, s in enumerate(seq.tolist()):
        if t % 97 == 0 or sum(ref[ctx]) >= COUNT_CAP - 1:
            assert current_context(m) == ctx
            assert tab == ref[ctx] + [sum(ref[ctx]), sum(ref[ctx][: k // 2])]
            cum = [0] + np.cumsum(ref[ctx]).tolist()
            assert m.cum() == cum
            assert [a.tolist() for a in replay_intervals([s], m)] == [
                [cum[s]], [cum[s + 1]], [cum[-1]]]
            assert tab[k] <= COUNT_CAP
            rates = m.rate_vector()
            assert rates[s] == pytest.approx(np.log2(tab[k]) - np.log2(ref[ctx][s]))
        before = tab
        tab = step(s)
        assert tab is m.stepper()[0]
        if kind == STATIC:
            assert tab is before
            continue
        ref[ctx][s] += 1
        if sum(ref[ctx]) > COUNT_CAP:
            ref[ctx] = [(c + 1) // 2 for c in ref[ctx]]
            halvings += 1
        if kind == CONTEXT:
            ctx = 0 if s == m.zero_index else 1
    assert tab == ref[ctx] + [sum(ref[ctx]), sum(ref[ctx][: k // 2])]
    assert halvings >= 3 or kind == STATIC

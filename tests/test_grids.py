import pickle

import numpy as np
import pytest

from cerwu.errors import ShapeError
from cerwu.grids import (
    COLUMN_MAJOR,
    DEGENERATE_STEP,
    ROW_MAJOR,
    build_grid,
    grid_from_scale,
    layer_from_symbols,
    nearest_indices,
    round_to_nearest,
    round_scale16,
)

from conftest import reference_grid, reference_nearest_indices


class TestBuildGrid:
    def test_odd_size_five(self):
        w = np.array([[2.0, -1.0], [0.5, 0.0]])
        g = build_grid(w, 5)
        assert np.array_equal(g.levels, [-2.0, -1.0, 0.0, 1.0, 2.0])
        assert g.step == 1.0

    def test_odd_size_three(self):
        g = build_grid(np.array([[1.0, -0.5]]), 3)
        assert np.array_equal(g.levels, [-1.0, 0.0, 1.0])

    def test_even_size_four(self):
        g = build_grid(np.array([[1.0, -0.25]]), 4)
        assert np.array_equal(g.levels, [-1.0, -0.5, 0.0, 0.5])
        assert g.step == 0.5
        assert 0.0 in g.levels

    def test_zero_matrix_degenerate_step(self):
        g = build_grid(np.zeros((2, 2)), 5)
        assert g.step == DEGENERATE_STEP

    @pytest.mark.parametrize("peak", [1e-7, 1e-30, 5e-324])
    def test_nonzero_step_underflowing_binary16_raises(self, peak):
        # at k=9 the step is max|W| / 4; below 2^-25 binary16 rounds it to 0
        w = np.array([[peak, -peak / 2], [0.0, peak / 3]])
        with pytest.raises(ShapeError, match="rounds to zero in binary16"):
            build_grid(w, 9)

    def test_subnormal_step_kept(self):
        # 3e-7 / 4 rounds to the smallest binary16 subnormal, 2^-24
        g = build_grid(np.array([[3e-7, -1e-7]]), 9)
        assert g.step == 2.0**-24

    def test_zero_always_on_grid(self):
        rng = np.random.default_rng(0)
        for k in (2, 3, 4, 5, 8, 17, 33, 256):
            g = build_grid(rng.normal(size=(3, 3)), k)
            assert 0.0 in g.levels
            assert g.levels[g.zero_index] == 0.0

    def test_odd_symmetry(self):
        rng = np.random.default_rng(1)
        for k in (3, 5, 9, 17):
            g = build_grid(rng.normal(size=(4, 4)), k)
            assert np.array_equal(g.levels, -g.levels[::-1])

    def test_odd_extremes_track_max_abs(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(6, 6))
        g = build_grid(w, 9)
        # extremes match max|W| up to the 16-bit rounding of the step
        assert abs(g.levels[-1] - np.max(np.abs(w))) <= 4 * 2.0**-11 * g.levels[-1]

    def test_rejects_size_below_two(self):
        with pytest.raises(ShapeError):
            build_grid(np.ones((1, 1)), 1)

    @pytest.mark.parametrize("k", [*range(2, 66), 255, 256, 257, 4096, 32767, 32768])
    def test_one_rule_matches_parity_formulas(self, k):
        # level i = (i - k//2) * step with step = max|W| / (k//2) gives the
        # odd/even formulas' step, levels, zero index and nearest indices
        # bitwise; where the step is not storable both sides refuse
        rng = np.random.default_rng(k)
        for peak in [0.0, *np.geomspace(1e-6, 1e4, 21)]:
            w = rng.uniform(-1.0, 1.0, size=(3, 4))
            w *= peak / np.max(np.abs(w))
            try:
                want = reference_grid(w, k)
            except ShapeError:
                with pytest.raises(ShapeError):
                    build_grid(w, k)
                continue
            g = build_grid(w, k)
            assert (g.step, g.levels.tobytes(), g.zero_index) == (
                want[0], want[1].tobytes(), want[2])
            lv = g.levels
            marks = np.concatenate([lv, (lv[:-1] + lv[1:]) / 2])
            values = np.concatenate([
                w.ravel(), marks, np.nextafter(marks, np.inf), np.nextafter(marks, -np.inf),
                [lv[0] - g.step, lv[-1] + g.step]])
            assert np.array_equal(nearest_indices(values, g),
                                  reference_nearest_indices(values, want[0], k))


class TestGridValue:
    def test_equal_size_and_step_make_equal_grids(self):
        a, b = grid_from_scale(9, 0.5), grid_from_scale(9, 0.5)
        assert a == b and hash(a) == hash(b)
        assert a != grid_from_scale(5, 0.5)
        assert a != grid_from_scale(9, 0.25)

    def test_pickle_round_trip(self):
        g = grid_from_scale(9, 0.1)
        back = pickle.loads(pickle.dumps(g))
        assert back == g and back.levels.tobytes() == g.levels.tobytes()


class TestScale16:
    def test_exactly_representable(self):
        assert round_scale16(0.5) == 0.5
        assert round_scale16(1.0) == 1.0

    def test_rounding_applied(self):
        s = round_scale16(0.1)
        assert s == float(np.float16(0.1))
        assert s != 0.1

    def test_underflow_guard(self):
        assert round_scale16(1e-12) == DEGENERATE_STEP
        assert round_scale16(0.0) == DEGENERATE_STEP

    def test_overflow_clamp(self):
        assert round_scale16(1e9) == 65504.0

    def test_idempotent(self):
        for v in (0.1, 3.7e-5, 123.4, 1e-12, 1e9):
            once = round_scale16(v)
            assert round_scale16(once) == once

    def test_grid_from_scale_matches_build(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(5, 5))
        for k in (4, 5, 16, 17):
            g = build_grid(w, k)
            rebuilt = grid_from_scale(k, g.step)
            assert np.array_equal(g.levels, rebuilt.levels)


class TestRoundToNearest:
    def test_basic(self):
        g = grid_from_scale(3, 1.0)  # levels -1, 0, 1
        q = round_to_nearest(np.array([[0.74]]), g)
        assert q.grid.levels[q.indices[0, 0]] == 1.0

    def test_tie_prefers_smaller_abs(self):
        g = grid_from_scale(3, 1.0)
        q = round_to_nearest(np.array([[0.5, -0.5]]), g)
        assert np.array_equal(q.dequantize(), [[0.0, 0.0]])

    def test_max_error_half_step(self):
        rng = np.random.default_rng(4)
        w = rng.normal(size=(8, 8))
        g = build_grid(w, 9)
        q = round_to_nearest(w, g)
        assert np.max(np.abs(w - q.dequantize())) <= g.step / 2 + 1e-15

    def test_matches_exhaustive_argmin(self):
        rng = np.random.default_rng(5)
        for k in (2, 3, 4, 5, 8, 17):
            w = rng.normal(size=(6, 6))
            g = build_grid(w, k)
            q = round_to_nearest(w, g)
            for i in range(6):
                for j in range(6):
                    d = np.abs(w[i, j] - g.levels)
                    best = np.min(d)
                    ties = np.flatnonzero(d == best)
                    # smallest |level|, then the negative one
                    want = min(ties, key=lambda t: (abs(g.levels[t]), g.levels[t]))
                    assert q.indices[i, j] == want

    def test_out_of_range_values_clip(self):
        g = grid_from_scale(4, 0.5)  # levels -1, -0.5, 0, 0.5
        # values 2**63 steps and more from zero get the end level on their
        # side too, not the int64 cast's most negative index
        far = [9.0, -9.0, 1e19, -1e19, 1e300, -1e300]
        q = round_to_nearest(np.array([far]), g)
        assert np.array_equal(q.dequantize(), [[0.5, -1.0] * 3])
        with np.errstate(all="raise"):
            got = nearest_indices(np.array(far + [np.inf, -np.inf]), g)
        assert got.tolist() == [3, 0] * 4

    def test_nan_has_no_nearest_level(self):
        g = grid_from_scale(9, 1.0)
        with pytest.raises(ShapeError, match="NaN"):
            nearest_indices(np.array([1e300, 1e19, -1e300, 5.0, np.nan]), g)


class TestScanSymbols:
    def test_row_major_round_trip(self):
        rng = np.random.default_rng(6)
        g = grid_from_scale(5, 0.25)
        idx = rng.integers(0, 5, size=(3, 4)).astype(np.int32)
        from cerwu.grids import QuantizedLayer

        q = QuantizedLayer(3, 4, idx, g, ROW_MAJOR)
        back = layer_from_symbols(q.symbols_in_scan_order(), 3, 4, g, ROW_MAJOR)
        assert np.array_equal(back.indices, idx)

    def test_column_major_round_trip(self):
        rng = np.random.default_rng(7)
        g = grid_from_scale(5, 0.25)
        idx = rng.integers(0, 5, size=(3, 4)).astype(np.int32)
        from cerwu.grids import QuantizedLayer

        q = QuantizedLayer(3, 4, idx, g, COLUMN_MAJOR)
        symbols = q.symbols_in_scan_order()
        # first n symbols are the first column
        assert np.array_equal(symbols[:3], idx[:, 0])
        back = layer_from_symbols(symbols, 3, 4, g, COLUMN_MAJOR)
        assert np.array_equal(back.indices, idx)

    def test_nearest_indices_shape_free(self):
        g = grid_from_scale(3, 1.0)
        flat = nearest_indices(np.array([0.74, -0.74, 0.4]), g)
        assert flat.tolist() == [2, 0, 1]

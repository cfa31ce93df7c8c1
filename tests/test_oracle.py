import numpy as np
import pytest

from cerwu.entropy import ADAPTIVE, STATIC, make_model
from cerwu.errors import SearchSpaceError, ShapeError
from cerwu.grids import build_grid, grid_from_scale, round_to_nearest
from cerwu.oracle import (
    brute_force_minimize,
    constrained_quadratic_minimizer,
    evaluate_objective,
)

from conftest import random_spd, sequence_rate_bits, step_model


def _adaptive(k):
    return lambda: make_model(ADAPTIVE, k)


class TestEvaluateObjective:
    def test_exact_copy_zero_distortion(self):
        w = np.array([[1.0, -1.0], [0.0, 1.0]])
        grid = grid_from_scale(3, 1.0)
        q = round_to_nearest(w, grid)
        x = np.random.default_rng(0).normal(size=(2, 5))
        obj = evaluate_objective(w, x, q, lam=0.7, model_factory=_adaptive(3))
        assert obj.distortion == 0.0
        assert obj.total == 0.7 * obj.rate_bits

    def test_lambda_zero_total_is_distortion(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=(2, 3))
        grid = build_grid(w, 4)
        q = round_to_nearest(w, grid)
        obj = evaluate_objective(w, rng.normal(size=(3, 6)), q, 0.0, _adaptive(4))
        assert obj.total == obj.distortion

    def test_matches_hand_rolled_double_loop(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(2, 3))
        x = rng.normal(size=(3, 4))
        grid = build_grid(w, 5)
        q = round_to_nearest(w, grid)
        what = q.dequantize()
        direct = 0.0
        for i in range(2):
            for c in range(4):
                acc = 0.0
                for j in range(3):
                    acc += (w[i, j] - what[i, j]) * x[j, c]
                direct += acc * acc
        obj = evaluate_objective(w, x, q, 0.0, _adaptive(5))
        assert abs(obj.distortion - direct) <= 1e-12 * max(1.0, direct)

    def test_rate_replays_scan_order(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(2, 2))
        grid = build_grid(w, 3)
        q = round_to_nearest(w, grid)
        model = make_model(ADAPTIVE, 3)
        expect = 0.0
        for s in q.symbols_in_scan_order().tolist():
            expect += model.rate_vector()[s]
            step_model(model, s)
        obj = evaluate_objective(w, rng.normal(size=(2, 2)), q, 1.0, _adaptive(3))
        assert obj.rate_bits == expect

    def test_static_rate_is_replay_rate(self):
        # a static model is stepped like the adaptive kinds, and its rate is
        # the one the table lookup of replay_intervals prices
        rng = np.random.default_rng(4)
        w = rng.normal(size=(5, 7))
        grid = build_grid(w, 9)
        q = round_to_nearest(w, grid)
        model = make_model(STATIC, 9, static_counts=np.bincount(q.indices.ravel(), minlength=9))
        obj = evaluate_objective(w, rng.normal(size=(7, 3)), q, 1.0, model.fresh)
        assert obj.rate_bits == sequence_rate_bits(q.symbols_in_scan_order(), model.fresh())

    def test_shape_mismatch(self):
        w = np.ones((2, 3))
        q = round_to_nearest(w, build_grid(w, 3))
        with pytest.raises(ShapeError):
            evaluate_objective(w, np.ones((4, 4)), q, 0.0, _adaptive(3))


class TestBruteForce:
    def test_single_entry_hand_computed(self):
        # one weight 0.4 on levels {-1, 0, 1}; the model is uniform so the
        # rate term is the same for all levels: the optimum is the nearest
        w = np.array([[0.4]])
        x = np.array([[1.0]])
        grid = grid_from_scale(3, 1.0)
        layer, obj = brute_force_minimize(w, x, grid, 0.01, _adaptive(3))
        assert layer.indices[0, 0] == 1  # level 0
        # distortion 0.4^2 = 0.16; rate is the model's cost of the zero level
        zero_rate = make_model(ADAPTIVE, 3).rate_vector()[1]
        assert abs(obj.total - (0.16 + 0.01 * zero_rate)) <= 1e-12

    def test_single_entry_rate_flips_choice(self):
        # a model concentrated on the zero level makes zero optimal even
        # though level 1 is nearer
        w = np.array([[0.9]])
        x = np.array([[1.0]])
        grid = grid_from_scale(3, 1.0)
        factory = lambda: make_model("static", 3, static_counts=[1, 998, 1])
        layer, obj = brute_force_minimize(w, x, grid, 1.0, factory)
        assert layer.indices[0, 0] == 1  # the zero level
        hand = 0.81 + 1.0 * float(factory().rate_vector()[1])
        assert abs(obj.total - hand) <= 1e-12

    def test_lambda_zero_diagonal_equals_rtn(self):
        rng = np.random.default_rng(4)
        w = rng.normal(size=(2, 2))
        x = np.diag([1.0, 2.0])
        grid = build_grid(w, 3)
        layer, _ = brute_force_minimize(w, x, grid, 0.0, _adaptive(3))
        assert np.array_equal(layer.indices, round_to_nearest(w, grid).indices)

    def test_refusal_bound(self):
        w = np.ones((4, 4))
        grid = build_grid(w, 17)  # 17^16 assignments
        with pytest.raises(SearchSpaceError):
            brute_force_minimize(w, np.eye(4), grid, 0.0, _adaptive(17))

    def test_tie_break_lexicographic(self):
        # symmetric instance: +/- ties resolve to the smallest index tuple
        w = np.array([[0.5, -0.5]])
        x = np.eye(2)
        grid = grid_from_scale(2, 1.0)  # levels -1, 0
        layer, _ = brute_force_minimize(w, x, grid, 0.0, _adaptive(2))
        first = layer.symbols_in_scan_order()
        # enumerate manually: all assignments with equal objective keep the
        # lexicographically smallest sequence
        best = None
        best_seq = None
        for a in range(2):
            for b in range(2):
                what = np.array([[grid.levels[a], grid.levels[b]]])
                obj = np.sum(((w - what) @ x) ** 2)
                seq = (a, b)
                if best is None or obj < best - 1e-15 or (
                    abs(obj - best) <= 1e-15 and seq < best_seq
                ):
                    best, best_seq = obj, seq
        assert tuple(first.tolist()) == best_seq


class TestConstrainedMinimizer:
    def test_empty_prefix_returns_row(self):
        rng = np.random.default_rng(5)
        row = rng.normal(size=4)
        out = constrained_quadratic_minimizer(row, random_spd(rng, 4), [])
        assert np.array_equal(out, row)

    def test_full_prefix_empty_suffix(self):
        rng = np.random.default_rng(6)
        row = rng.normal(size=3)
        out = constrained_quadratic_minimizer(row, random_spd(rng, 3), row)
        assert out.size == 0

    def test_matches_grid_search_minimum(self):
        # the returned suffix must beat dense sampling around it
        rng = np.random.default_rng(7)
        m = 4
        h = random_spd(rng, m)
        row = rng.normal(size=m)
        prefix = rng.normal(size=2)
        suffix = constrained_quadratic_minimizer(row, h, prefix)

        def loss(s):
            v = np.concatenate([prefix, s])
            d = row - v
            return 0.5 * d @ h @ d

        base = loss(suffix)
        for _ in range(100):
            assert base <= loss(suffix + 0.01 * rng.normal(size=2)) + 1e-12

    def test_stationarity(self):
        rng = np.random.default_rng(8)
        m = 6
        h = random_spd(rng, m)
        row = rng.normal(size=m)
        prefix = rng.normal(size=3)
        suffix = constrained_quadratic_minimizer(row, h, prefix)
        v = np.concatenate([prefix, suffix])
        grad = (v - row) @ h
        assert np.max(np.abs(grad[3:])) <= 1e-9

import numpy as np
import pytest

from cerwu.cli import main
from cerwu.errors import InputError
from cerwu.grids import ROW_MAJOR
from cerwu.sweep import (
    CSV_COLUMNS,
    DEFAULT_LAMBDAS,
    SweepPoint,
    pareto_front,
    points_from_csv,
    points_to_csv,
)


def _pt(rate, acc, lam=0.0, k=5):
    return SweepPoint(
        lam=lam, grid_size=k, scan_order=ROW_MAJOR, model_kind="adaptive",
        bits_per_weight=rate, layer_loss=1.0, accuracy=acc, wall_ms=1.0,
    )


def pairwise_front(points):
    """Quadratic reference: keep x unless some y has strictly lower rate
    and at least x's objective."""
    kept = []
    for x in points:
        dominated = any(
            y.rate() < x.rate() and y.objective() >= x.objective() for y in points
        )
        if not dominated:
            kept.append(x)
    return sorted(kept, key=lambda p: p.rate())


class TestParetoFront:
    def test_rule_application(self):
        pts = [_pt(1.0, 0.90), _pt(1.2, 0.89), _pt(1.5, 0.95)]
        front = pareto_front(pts)
        assert [(p.bits_per_weight, p.accuracy) for p in front] == [
            (1.0, 0.90),
            (1.5, 0.95),
        ]

    def test_identical_points_all_kept(self):
        pts = [_pt(2.0, 0.5)] * 4
        assert len(pareto_front(pts)) == 4

    def test_equal_rate_points_never_dominate(self):
        pts = [_pt(1.0, 0.9), _pt(1.0, 0.2)]
        assert len(pareto_front(pts)) == 2

    def test_matches_quadratic_oracle(self):
        rng = np.random.default_rng(0)
        pts = [
            _pt(float(rng.integers(1, 20)) / 4.0, float(rng.integers(0, 10)) / 10.0)
            for _ in range(100)
        ]
        fast = pareto_front(pts)
        slow = pairwise_front(pts)
        assert {(p.bits_per_weight, p.accuracy) for p in fast} == {
            (p.bits_per_weight, p.accuracy) for p in slow
        }
        assert len(fast) == len(slow)

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        pts = [_pt(float(r), float(a)) for r, a in rng.random((50, 2))]
        once = pareto_front(pts)
        assert pareto_front(once) == once

    def test_sorted_by_rate(self):
        rng = np.random.default_rng(2)
        pts = [_pt(float(r), float(a)) for r, a in rng.random((30, 2))]
        front = pareto_front(pts)
        rates = [p.rate() for p in front]
        assert rates == sorted(rates)

    def test_loss_fallback_objective(self):
        a = SweepPoint(0.0, 5, ROW_MAJOR, "adaptive", bits_per_weight=1.0,
                       layer_loss=10.0)
        b = SweepPoint(0.0, 5, ROW_MAJOR, "adaptive", bits_per_weight=2.0,
                       layer_loss=20.0)
        assert pareto_front([a, b]) == [a]

    def test_failed_rows_excluded(self):
        bad = SweepPoint(0.0, 5, ROW_MAJOR, "adaptive", error="boom")
        assert pareto_front([bad, _pt(1.0, 0.5)]) == [_pt(1.0, 0.5)]

    def test_missing_rate_raises(self):
        with pytest.raises(InputError):
            pareto_front([SweepPoint(0.0, 5, ROW_MAJOR, "adaptive",
                                     layer_loss=1.0)])


class TestCsv:
    def test_round_trip(self):
        pts = [_pt(1.5, 0.925, lam=1e-3, k=9), _pt(2.0, None)]
        text = points_to_csv(pts)
        assert text.splitlines()[0] == ",".join(CSV_COLUMNS)
        back = points_from_csv(text)
        assert back == pts

    def test_error_row_round_trip(self):
        p = SweepPoint(0.1, 5, ROW_MAJOR, "static", error="ValueError: x")
        assert points_from_csv(points_to_csv([p])) == [p]

    def test_header_validated(self):
        with pytest.raises(InputError):
            points_from_csv("a,b,c\n1,2,3\n")

    @pytest.mark.parametrize("row, error", [
        (b"0.01,9,row-major,adaptive", "CSV line 2"),  # short row
        (b"abc,9,row-major,adaptive,1.5,0.1,0.9,1.0,", "CSV line 2"),
        (b"0.01,9,row-major,adaptive,nan,0.1,0.9,1.0,", "CSV line 2"),
        (b'"' + b"x" * 200_000 + b'"', "CSV line 2"),  # beyond the csv module's field limit
        (b"0.01,9,row-major,adaptive,1.5,0.1,0.9,1.0,\xff", "not UTF-8"),
    ], ids=["short-row", "lambda-abc", "bpw-nan", "huge-field", "not-utf8"])
    def test_pareto_rejects_malformed_row(self, tmp_path, capsys, row, error):
        csv_in = tmp_path / "sweep.csv"
        csv_in.write_bytes(",".join(CSV_COLUMNS).encode() + b"\n" + row + b"\n")
        argv = ["pareto", "--csv-in", str(csv_in), "--csv-out", str(tmp_path / "front.csv")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and error in err and "Traceback" not in err

    def test_full_float_precision(self):
        p = _pt(1.0 / 3.0, 2.0 / 3.0)
        back = points_from_csv(points_to_csv([p]))[0]
        assert back.bits_per_weight == p.bits_per_weight
        assert back.accuracy == p.accuracy


def test_default_lambda_grid():
    # half-decade log steps from 1e-8 through 1e-1
    assert len(DEFAULT_LAMBDAS) == 15
    assert DEFAULT_LAMBDAS[0] == pytest.approx(1e-8)
    assert DEFAULT_LAMBDAS[-1] == pytest.approx(1e-1)
    logs = np.log10(DEFAULT_LAMBDAS)
    assert np.allclose(np.diff(logs), 0.5)

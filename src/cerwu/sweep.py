"""Parameter sweeps over compression settings and Pareto-front extraction."""

from __future__ import annotations

import csv
import io
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .engine import CompressionConfig, GAMMA_STANDARD
from .errors import InputError
from .linalg import DEFAULT_DAMPING
from .modelio import TensorFile
from .pipeline import (
    METHOD_CERWU,
    compress_model,
    decompress_model,
    evaluate_model,
)

CSV_COLUMNS = (
    "lambda",
    "grid_size",
    "scan_order",
    "model_kind",
    "bpw",
    "layer_loss",
    "accuracy",
    "wall_ms",
    "error",
)

# Default trade-off sweep: 10^-8 .. 10^-1 at half-decade steps.
DEFAULT_LAMBDAS = tuple(10.0**e for e in np.arange(-8.0, -0.75, 0.5))


@dataclass(frozen=True)
class SweepPoint:
    """One (configuration, measurement) row of a sweep."""

    lam: float
    grid_size: int
    scan_order: str
    model_kind: str
    bits_per_weight: Optional[float] = None
    layer_loss: Optional[float] = None
    accuracy: Optional[float] = None
    wall_ms: Optional[float] = None
    error: str = ""

    def rate(self) -> float:
        if self.bits_per_weight is None:
            raise InputError("point has no measured rate")
        return self.bits_per_weight

    def objective(self) -> float:
        """Accuracy when measured, otherwise negative layer loss."""
        if self.accuracy is not None:
            return self.accuracy
        if self.layer_loss is not None:
            return -self.layer_loss
        raise InputError("point has neither accuracy nor layer loss")


def pareto_front(points: Sequence[SweepPoint]) -> List[SweepPoint]:
    """Keep the points not dominated at strictly lower rate.

    A point is discarded iff some other point has strictly lower rate and
    at least its objective; equal-rate points never dominate each other,
    so duplicates survive. Result is sorted by rate ascending (original
    order within equal rates) and is idempotent under re-application.
    """
    pts = [p for p in points if not p.error]
    order = sorted(range(len(pts)), key=lambda i: pts[i].rate())
    kept: List[SweepPoint] = []
    best = -np.inf
    i = 0
    while i < len(order):
        # process one equal-rate group against the running best
        j = i
        rate = pts[order[i]].rate()
        group = []
        while j < len(order) and pts[order[j]].rate() == rate:
            group.append(order[j])
            j += 1
        for idx in sorted(group):
            if pts[idx].objective() > best:
                kept.append(pts[idx])
        best = max(best, max(pts[idx].objective() for idx in group))
        i = j
    return kept


def _run_config(model_tf, hessians, config, method, calib_tf, test_tf) -> SweepPoint:
    t0 = time.perf_counter()
    try:
        report = compress_model(model_tf, hessians, config, method=method)
        recon = decompress_model(report.compressed)
        ev = evaluate_model(
            model_tf, recon, calib_tf, test_tf, compressed=report.compressed
        )
        wall_ms = 1000.0 * (time.perf_counter() - t0)
        return SweepPoint(
            lam=config.lam,
            grid_size=config.grid_size,
            scan_order=config.scan_order,
            model_kind=config.model_kind,
            bits_per_weight=ev.bits_per_weight,
            layer_loss=ev.total_loss,
            accuracy=ev.accuracy,
            wall_ms=wall_ms,
        )
    except Exception as exc:
        return SweepPoint(
            lam=config.lam,
            grid_size=config.grid_size,
            scan_order=config.scan_order,
            model_kind=config.model_kind,
            wall_ms=1000.0 * (time.perf_counter() - t0),
            error=f"{type(exc).__name__}: {exc}",
        )


# A pool worker's copy of the inputs every configuration shares:
# (model, Hessians, method, calibration, test). Set once per worker by
# ``_init_worker``; the process that calls ``run_sweep`` never sets it.
_worker_inputs: tuple = ()


def _init_worker(*shared) -> None:
    global _worker_inputs
    _worker_inputs = shared


def _run_in_worker(config: CompressionConfig) -> SweepPoint:
    model_tf, hessians, method, calib_tf, test_tf = _worker_inputs
    return _run_config(model_tf, hessians, config, method, calib_tf, test_tf)


def run_sweep(
    model_tf: TensorFile,
    calib_tf: TensorFile,
    hessians: Dict[str, np.ndarray],
    lambdas: Sequence[float],
    grid_sizes: Sequence[int],
    scan_orders: Sequence[str],
    model_kinds: Sequence[str],
    test_tf: Optional[TensorFile] = None,
    method: str = METHOD_CERWU,
    damping_delta: float = DEFAULT_DAMPING,
    gamma_mode: str = GAMMA_STANDARD,
    threads: int = 1,
) -> List[SweepPoint]:
    """One point per configuration, rows in lexicographic parameter order.

    A failing configuration is recorded in its row (``error`` column) and
    the sweep continues.

    With ``threads > 1`` the configurations run on a process pool of at
    most ``min(threads, number of configurations)`` workers; with one
    worker the sweep runs in this process. The inputs every configuration
    shares (model, Hessians, method, calibration and test containers) go
    to each worker once, through the pool's initializer, and each job
    carries only its :class:`CompressionConfig`. Under the ``fork`` start
    method the workers inherit them; under ``spawn`` and ``forkserver``
    they are pickled once per worker. Rows are the same as a serial run's
    but for ``wall_ms``.
    """
    if not (lambdas and grid_sizes and scan_orders and model_kinds):
        raise InputError("every parameter list must be nonempty")
    configs = [
        CompressionConfig(
            lam=float(lam),
            grid_size=int(k),
            scan_order=scan,
            model_kind=kind,
            damping_delta=damping_delta,
            gamma_mode=gamma_mode,
        )
        for lam in sorted(set(float(v) for v in lambdas))
        for k in sorted(set(int(v) for v in grid_sizes))
        for scan in sorted(set(scan_orders))
        for kind in sorted(set(model_kinds))
    ]
    workers = min(threads, len(configs))
    if workers > 1:
        shared = (model_tf, hessians, method, calib_tf, test_tf)
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=shared
        ) as pool:
            return list(pool.map(_run_in_worker, configs))
    return [
        _run_config(model_tf, hessians, c, method, calib_tf, test_tf)
        for c in configs
    ]


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def points_to_csv(points: Sequence[SweepPoint]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for p in points:
        writer.writerow(
            [
                _fmt(p.lam),
                _fmt(p.grid_size),
                p.scan_order,
                p.model_kind,
                _fmt(p.bits_per_weight),
                _fmt(p.layer_loss),
                _fmt(p.accuracy),
                _fmt(p.wall_ms),
                p.error,
            ]
        )
    return buf.getvalue()


def points_from_csv(text: str) -> List[SweepPoint]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or tuple(header) != CSV_COLUMNS:
        raise InputError(f"unexpected CSV header {header!r}")
    points = []
    for row in reader:
        if not row:
            continue
        lam, k, scan, kind, bpw, loss, acc, wall, err = row
        points.append(
            SweepPoint(
                lam=float(lam),
                grid_size=int(k),
                scan_order=scan,
                model_kind=kind,
                bits_per_weight=float(bpw) if bpw else None,
                layer_loss=float(loss) if loss else None,
                accuracy=float(acc) if acc else None,
                wall_ms=float(wall) if wall else None,
                error=err,
            )
        )
    return points

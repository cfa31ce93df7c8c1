"""Parameter sweeps over compression settings and Pareto-front extraction."""

from __future__ import annotations

import csv
import io
import itertools
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .engine import METHOD_CERWU, CompressionConfig, GAMMA_STANDARD
from .errors import InputError
from .linalg import DEFAULT_DAMPING
from .modelio import TensorFile
# ``decompress_model`` stays importable from here: perfbench/tracing.py wraps
# sweep.decompress_model.
from .pipeline import compress_model, decompress_model, evaluate_model  # noqa: F401
from .pipeline import layer_contexts


def _finite(cell: str) -> float:
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"{cell!r} is not finite")
    return value


def _optional(cell: str) -> Optional[float]:
    """A measurement: empty when it was not taken."""
    return _finite(cell) if cell else None


# The sweep CSV, one entry per column: header, SweepPoint field, and the
# parser of the cell's text.
_CSV_LAYOUT = (
    ("lambda", "lam", _finite),
    ("grid_size", "grid_size", int),
    ("scan_order", "scan_order", str),
    ("model_kind", "model_kind", str),
    ("bpw", "bits_per_weight", _optional),
    ("layer_loss", "layer_loss", _optional),
    ("accuracy", "accuracy", _optional),
    ("wall_ms", "wall_ms", _optional),
    ("error", "error", str),
)
CSV_COLUMNS = tuple(header for header, _, _ in _CSV_LAYOUT)

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
    pts = sorted((p for p in points if not p.error), key=SweepPoint.rate)
    kept: List[SweepPoint] = []
    best = -math.inf
    for _, group in itertools.groupby(pts, key=SweepPoint.rate):
        # an equal-rate group is judged against the best at lower rates only
        group = list(group)
        kept += [p for p in group if p.objective() > best]
        best = max([best] + [p.objective() for p in group])
    return kept


def _run_config(config, model_tf, hessians, calib_tf, test_tf, contexts,
                shared_ms: float) -> SweepPoint:
    """One row: compress with the job's ``contexts`` and evaluate the
    report's reconstruction; ``shared_ms`` is the row's share of building
    them."""
    t0 = time.perf_counter()
    try:
        report = compress_model(model_tf, hessians, config, contexts=contexts)
        ev = evaluate_model(
            model_tf, report.reconstruction, calib_tf, test_tf, compressed=report.compressed
        )
        outcome = dict(
            bits_per_weight=ev.bits_per_weight,
            layer_loss=ev.total_loss,
            accuracy=ev.accuracy,
        )
    except Exception as exc:
        outcome = dict(error=f"{type(exc).__name__}: {exc}")
    return SweepPoint(
        lam=config.lam,
        grid_size=config.grid_size,
        scan_order=config.scan_order,
        model_kind=config.model_kind,
        wall_ms=shared_ms + 1000.0 * (time.perf_counter() - t0),
        **outcome,
    )


def _run_job(configs, model_tf, hessians, calib_tf, test_tf) -> List[SweepPoint]:
    """Rows of configurations that share one context per layer
    (:func:`~cerwu.pipeline.layer_contexts` of the first)."""
    t0 = time.perf_counter()
    contexts = layer_contexts(model_tf, hessians, configs[0])
    shared_ms = 1000.0 * (time.perf_counter() - t0) / len(configs)
    return [
        _run_config(c, model_tf, hessians, calib_tf, test_tf, contexts, shared_ms)
        for c in configs
    ]


# A pool worker's copy of the inputs every configuration shares:
# (model, Hessians, calibration, test). Set once per worker by
# ``_init_worker``; the process that calls ``run_sweep`` never sets it.
_worker_inputs: tuple = ()


def _init_worker(*shared) -> None:
    global _worker_inputs
    _worker_inputs = shared


def _run_in_worker(configs: List[CompressionConfig]) -> List[SweepPoint]:
    return _run_job(configs, *_worker_inputs)


def sweep_configs(
    lambdas: Sequence[float],
    grid_sizes: Sequence[int],
    scan_orders: Sequence[str],
    model_kinds: Sequence[str],
    method: str = METHOD_CERWU,
    damping_delta: float = DEFAULT_DAMPING,
    gamma_mode: str = GAMMA_STANDARD,
) -> List[CompressionConfig]:
    """Every configuration of a sweep, in lexicographic parameter order
    (lambda, grid size, scan order, model kind), duplicates dropped.

    Needs no input file, so a caller can check the settings before loading
    anything: an empty list or an invalid value raises InputError.
    """
    if not (lambdas and grid_sizes and scan_orders and model_kinds):
        raise InputError("every parameter list must be nonempty")
    return [
        CompressionConfig(
            lam=float(lam),
            grid_size=int(k),
            scan_order=scan,
            model_kind=kind,
            damping_delta=damping_delta,
            gamma_mode=gamma_mode,
            method=method,
        )
        for lam in sorted(set(float(v) for v in lambdas))
        for k in sorted(set(int(v) for v in grid_sizes))
        for scan in sorted(set(scan_orders))
        for kind in sorted(set(model_kinds))
    ]


def _jobs(configs: List[CompressionConfig], workers: int) -> List[List[CompressionConfig]]:
    """One job per lambda of :func:`sweep_configs`'s list, whose
    configurations share ``damping_delta``, ``gamma_mode`` and ``method``
    and so, per lambda, every layer's context. With fewer such groups than
    ``workers``, each group is dealt round-robin into
    ``ceil(workers / groups)`` jobs so that every worker gets one."""
    groups = [list(g) for _, g in itertools.groupby(configs, key=lambda c: c.lam)]
    parts = -(-workers // len(groups))
    return [g[i::parts] for g in groups for i in range(min(parts, len(g)))]


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
    """One point per configuration of :func:`sweep_configs`, rows in its
    lexicographic parameter order.

    ``method``, ``damping_delta`` and ``gamma_mode`` go into every
    configuration; an invalid value raises before any configuration runs.
    A failing configuration is recorded in its row (``error`` column) and
    the sweep continues.

    The configurations of one lambda run as one job, which builds each
    layer's ``C'`` and ``W'`` once (:func:`~cerwu.pipeline.layer_contexts`;
    they do not depend on grid size, scan order or model kind) and holds
    them all while its configurations run. Each configuration evaluates
    the reconstruction its compress returns, which is bitwise what
    decoding its payload gives, without decoding it. A row's ``wall_ms``
    is its own time plus an equal share of its job's context time.

    With ``threads > 1`` the jobs run on a process pool of at most
    ``min(threads, number of configurations)`` workers; with one worker
    the sweep runs in this process. When there are fewer lambdas than
    workers, each lambda's configurations are dealt round-robin into
    ``ceil(workers / lambdas)`` jobs, each building its own contexts. The
    inputs every configuration shares (model, Hessians, calibration and
    test containers) go to each worker once, through the pool's
    initializer, and each job carries only its configurations. Under the
    ``fork`` start method the workers inherit them; under ``spawn`` and
    ``forkserver`` they are pickled once per worker. Rows are the same as
    a serial run's but for ``wall_ms``.
    """
    configs = sweep_configs(lambdas, grid_sizes, scan_orders, model_kinds,
                            method, damping_delta, gamma_mode)
    shared = (model_tf, hessians, calib_tf, test_tf)
    workers = min(threads, len(configs))
    jobs = _jobs(configs, workers)
    if workers > 1:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=shared
        ) as pool:
            rows = list(pool.map(_run_in_worker, jobs))
    else:
        rows = [_run_job(job, *shared) for job in jobs]
    points = {c: p for job, job_rows in zip(jobs, rows) for c, p in zip(job, job_rows)}
    return [points[c] for c in configs]


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
        writer.writerow([_fmt(getattr(p, name)) for _, name, _ in _CSV_LAYOUT])
    return buf.getvalue()


def points_from_csv(text: str) -> List[SweepPoint]:
    """Parse a sweep CSV; a malformed row raises InputError naming its line."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader, None)
        if header is None or tuple(header) != CSV_COLUMNS:
            raise InputError(f"unexpected CSV header {header!r}")
        return [_csv_point(reader.line_num, row) for row in reader if row]
    except csv.Error as exc:
        raise InputError(f"CSV line {reader.line_num}: {exc}") from exc


def _csv_point(line: int, row: List[str]) -> SweepPoint:
    if len(row) != len(_CSV_LAYOUT):
        raise InputError(f"CSV line {line}: expected {len(_CSV_LAYOUT)} fields, got {len(row)}")
    fields = {}
    for cell, (header, name, parse) in zip(row, _CSV_LAYOUT):
        try:
            fields[name] = parse(cell)
        except ValueError as exc:
            raise InputError(f"CSV line {line}: column {header}: {exc}") from exc
    return SweepPoint(**fields)

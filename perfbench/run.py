#!/usr/bin/env python3
"""The cerwu benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It writes the workload's ``.tns`` inputs from ``--seed`` under
``.perfbench_work/``, drives cerwu through its public functions in the
order the ``cerwu`` command calls them for about ``--seconds`` seconds, and
checks every output. Workloads and metrics are listed in BENCHMARK.json.

With ``--trace 0`` the result holds the end-to-end metrics, measured with
no tracing. Their timings are scaled to a fixed machine speed, measured by
a reference kernel run before each timed call (see ``harness.REFERENCE_S``);
the unscaled wall times are printed beside them and kept in the details.

With ``--trace 1`` it holds the per-layer metrics: traced repetitions
alternate with untraced ones, and ``trace.overhead`` is the share by which
tracing slowed the timed calls. A traced run also writes its spans to
``.perfbench_work/trace-<workload>-s<seed>.json``.

Standard output ends with two JSON lines: the details (environment, each
timing's median, tail percentile and sample count, exact counts, errors)
and then the result ``{"correct", "attempted", "failed", "metrics"}``.
``failed / attempted`` is the error rate: failed compress/decompress round
trips, failed correctness checks and failed sweep rows.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".perfbench_work"
# Set-up is repeated and its median reported, so one slow repeat is dropped.
SETUP_REPEATS = 3
# Pool size of the sweep on the fixture workload when not traced.
MAX_POOL = 2
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Times ``import cerwu`` in a fresh interpreter; argv[1] is the src directory.
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import cerwu; print(time.perf_counter() - t)"
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_seconds(src: Path) -> float:
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(src)],
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "cerwu" / "__init__.py").is_file():
        print("perfbench: no cerwu sources in src/ next to perfbench/", file=sys.stderr)
        return 2
    # One BLAS thread: on a small shared box two threads per process ran
    # the factorizations slower and less steadily, and the fixture's sweep
    # pool would otherwise run more threads than there are cores. Must be
    # set before numpy loads OpenBLAS.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(src), str(ROOT)]
    from perfbench import harness, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = WORK_ROOT / f"{args.workload}-s{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, spec, work, harness, workloads)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, spec, work: Path, harness, workloads) -> int:
    workload = workloads.WORKLOADS[args.workload]
    trace = bool(args.trace)

    # Set-up: importing cerwu in a fresh interpreter, then generating the
    # inputs from the seed and writing them.
    import_runs, input_runs = [], []
    for _ in range(SETUP_REPEATS):
        import_runs.append(import_seconds(ROOT / "src"))
        t0 = time.perf_counter()
        paths = workloads.write_inputs(workload, args.seed, str(work))
        input_runs.append(time.perf_counter() - t0)
    setup_s = statistics.median(i + g for i, g in zip(import_runs, input_runs))

    pool_workers = min(MAX_POOL, os.cpu_count() or 1) if workload.pooled else 1
    # Spans from pool workers would be lost, so a traced run sweeps in-process.
    sweep_threads = 1 if trace else pool_workers
    tally = harness.Tally()
    with harness.Bench(workload, paths, str(work), sweep_threads, tally) as bench:
        bench.warm_up()
        reps = bench.measure(args.seconds, trace)

    plain = [r for r in reps if not r.traced]
    exact = plain[0].exact
    tally.record("exact counts", [] if all(r.exact == exact for r in reps) else
                 ["exact counts differ between repetitions"])

    if trace:
        summary = harness.per_layer(bench, reps, pool_workers, harness.job_mb_pickled(bench))
        declared = spec["per_layer"]
        trace_file = WORK_ROOT / f"trace-{workload.name}-s{args.seed}.json"
        harness.write_trace(bench.tracer, str(trace_file))
    else:
        energy = harness.layer_energy(paths)
        summary = harness.end_to_end(reps, energy, setup_s, bench.peak_rss)
        declared = spec["end_to_end"]

    metrics = {}
    for m in declared:
        s = summary.get(m["name"])
        if s is None:
            tally.record(m["name"], ["metric could not be measured"])
            continue
        metrics[m["name"]] = {"value": s["value"], "unit": m["unit"]}
        line = f"{m['name']:36s} {s['value']:14.6g} {m['unit']}"
        if "n" in s:
            tail = f"p{s['tail_pct']} {s['tail']:.6g}" if s["tail"] is not None else "no tail"
            line += f"   ({tail}, n={s['n']}; unscaled wall median {s['wall']['value']:.6g})"
        print(line)
    print(f"{'error_rate':36s} {tally.error_rate:14.6g} fraction"
          f"   ({tally.failed} of {tally.attempted} operations)")
    for err in tally.errors[:20]:
        print(f"error: {err}", file=sys.stderr)

    detail = {
        "environment": harness.environment(
            workload.name, args.seed, trace, args.seconds, pool_workers, sweep_threads),
        "repetitions": {"untraced": len(plain), "traced": len(reps) - len(plain)},
        "setup": {"import_s": import_runs, "inputs_s": input_runs},
        "summary": summary,
        "exact": exact,
        "error_rate": tally.error_rate,
        "errors": tally.errors[:20],
    }
    if trace:
        detail["trace_file"] = str(trace_file.relative_to(ROOT))
    print(json.dumps({"perfbench": detail}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

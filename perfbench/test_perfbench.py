"""Tests of the benchmark itself: determinism, metric names, failure counting."""

import json
import shutil
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path

import pytest

from perfbench import harness, workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# The cheapest workload; every metric is defined on each workload.
WORKLOAD = workloads.WORKLOADS["tall-context"]
SEED = 11


def no_span(name):
    return nullcontext()


def bench_for(tmp_path, seed=SEED):
    paths = workloads.write_inputs(WORKLOAD, seed, str(tmp_path))
    return harness.Bench(WORKLOAD, paths, str(tmp_path), sweep_threads=1, tally=harness.Tally())


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    """One untraced and one traced repetition of the same inputs."""
    tmp = tmp_path_factory.mktemp("traced")
    with bench_for(tmp) as bench:
        bench.warm_up()
        reps = [bench.run_rep(0, traced=False), bench.run_rep(1, traced=True)]
    return tmp, bench, reps


def test_same_seed_gives_same_inputs_and_exact_counts(traced_run, tmp_path):
    first_dir, first, (plain, traced) = traced_run
    with bench_for(tmp_path) as again:
        again.warm_up()
        rep = again.run_rep(0, traced=False)
    for name in ("model.tns", "calib.tns", "test.tns"):
        assert (tmp_path / name).read_bytes() == (first_dir / name).read_bytes()
    assert rep.exact == plain.exact == traced.exact
    assert rep.exact["grid_evaluations"] == rep.weights * workloads.GRID_SIZE
    assert rep.exact["hcache_hits"] == 1 and rep.exact["hcache_misses"] == 0
    assert first.tally.failed == again.tally.failed == 0


def test_other_seed_gives_other_inputs(tmp_path):
    calibs = []
    for seed in (SEED, SEED + 1):
        (tmp_path / str(seed)).mkdir()
        paths = workloads.write_inputs(WORKLOAD, seed, str(tmp_path / str(seed)))
        calibs.append(Path(paths.calib).read_bytes())
    assert calibs[0] != calibs[1]


def test_every_declared_metric_is_emitted(traced_run):
    _, bench, reps = traced_run
    layer = harness.per_layer(bench, reps, pool_workers=1, job_mb=harness.job_mb_pickled(bench))
    assert set(layer) == {m["name"] for m in SPEC["per_layer"]}
    e2e = harness.end_to_end(reps, energy=1.0, setup_s=1.0, peak_rss=1.0)
    assert set(e2e) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for k, v in layer.items() if k.startswith("engine."))


def test_corrupted_payload_raises_error_rate(tmp_path):
    with bench_for(tmp_path) as bench:
        cwm = str(tmp_path / "model.cwm")
        _, model_tf, _, _, encoded = bench.compress_file(bench.workload.file_config, cwm, no_span)
        clean = harness.Tally()
        bench.roundtrip(cwm, str(tmp_path / "recon.tns"), model_tf, encoded, no_span, clean, "clean")
        control = bench.negative_control(cwm, model_tf, encoded)
    assert clean.error_rate == 0
    assert control.error_rate > 0
    assert bench.tally.failed == 0  # the control caught the corruption


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOAD.name, "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""

"""Measurement loop, correctness checks and metrics of the cerwu benchmark.

One repetition runs the calls of ``cerwu compress`` (load,
``collect_hessians``, ``compress_model``, ``write_compressed``) once and
those of ``cerwu decompress`` (``read_compressed``, ``decompress_model``,
``write_tensor_file``) the workload's number of passes, checking each
round trip; then it runs ``run_sweep`` and ``pareto_front`` over the
workload's sweep grid and checks the rows. Only the library calls named in
each metric are timed; loading inputs and checking outputs are not.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
import os
import pickle
import platform
import resource
import statistics
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List

import numpy as np
import scipy

from cerwu import modelio, pipeline, sweep
from cerwu.grids import ROW_MAJOR
from cerwu.modelio import QuantizedRecord

from .tracing import Capture, HessianCacheCounter, Patch, Tracer
from .workloads import GRID_SIZE, InputPaths, Workload

# Repetitions of each kind (untraced, and traced when tracing) before the
# time budget may end a run: the median of three drops one outlier.
MIN_REPS = 3
# A layer's paid bits may exceed its predicted bits by the coder's flush
# constant plus this share of the prediction (the README's coder bound).
FLUSH_BITS = 64
CODER_SLACK = 1e-3

# Shared hosts change speed for tens of seconds at a time: the same decode
# ran anywhere from 0.9 to 1.8 s per 10^6 params from one run to the next,
# and every metric of a run moved together, interpreted Python about twice
# as much as BLAS-bound linear algebra. So each end-to-end timing sample is
# scaled to a fixed machine speed: multiplied by REFERENCE_S over the
# duration of a fixed reference kernel run just before it. The kernel is
# half interpreted loop, half streaming matrix product, like cerwu's mix;
# REFERENCE_S is about its duration on a 2-vCPU x86-64 VM. The raw wall
# times are kept in the details.
REFERENCE_S = 0.010
REFERENCE_LOOP = 750
_REFERENCE_MATRIX = np.random.default_rng(0).normal(size=(208, 4096))


def reference_seconds() -> float:
    """Duration of the fixed reference kernel: tiny numpy reductions and
    Python integer arithmetic, then a Gram matrix of a 7 MB operand."""
    levels = np.arange(9.0)
    acc = 0
    t0 = perf_counter()
    for i in range(REFERENCE_LOOP):
        acc += int(np.argmin(np.abs(levels - (i % 9)))) + ((i * 2654435761) >> 7) % 13
    x = _REFERENCE_MATRIX
    x @ x.T
    return perf_counter() - t0


def _no_span(name: str):
    return nullcontext()


class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def record(self, what: str, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.errors.extend(f"{what}: {p}" for p in problems)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


@dataclass
class Rep:
    """Timings and exact counts of one repetition."""

    index: int
    traced: bool
    compress_s: float = 0.0
    decompress_s: List[float] = field(default_factory=list)  # one per pass
    sweep_s: float = 0.0
    # reference_seconds() taken just before each of the timings above
    compress_ref: float = REFERENCE_S
    decompress_ref: List[float] = field(default_factory=list)
    sweep_ref: float = REFERENCE_S
    weights: int = 0  # quantized weights of the model
    points: list = field(default_factory=list)
    exact: Dict[str, object] = field(default_factory=dict)
    entropy: Dict[str, float] = field(default_factory=dict)  # traced only

    @property
    def timed_s(self) -> float:
        return self.compress_s + sum(self.decompress_s) + self.sweep_s


def summarize(samples: List[float]) -> dict:
    """Median (as ``value``), the highest percentile with ten samples above it, and the count."""
    s = sorted(samples)
    n = len(s)
    out = {"value": statistics.median(s), "n": n, "tail_pct": None, "tail": None,
           "samples": samples}
    if n > 10:
        out["tail_pct"] = round(100.0 * (n - 10) / n, 1)
        out["tail"] = s[n - 11]
    return out


def layer_energy(paths: InputPaths) -> float:
    """Sum over quantized layers of ||W X||^2, the base of ``rel_layer_loss``."""
    model_tf = modelio.load_tensor_file(paths.model)
    calib_tf = modelio.load_tensor_file(paths.calib)
    total = 0.0
    for name in pipeline.quantizable_names(model_tf):
        w = model_tf[name].astype(np.float64).reshape(model_tf[name].shape[0], -1)
        x = calib_tf[name + pipeline.ACTIVATION_SUFFIX].astype(np.float64)
        total += float(np.sum((w @ x) ** 2))
    return total


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def corrupt_payload_copy(src: str, dst: str) -> None:
    """Copy a .cwm, flipping one byte early in its first quantized payload."""
    with open(src, "rb") as fh:
        data = bytearray(fh.read())
    payload = modelio.read_compressed(src).quantized()[0].payload
    data[data.index(payload) + len(payload) // 4] ^= 0xFF
    with open(dst, "wb") as fh:
        fh.write(bytes(data))


class Bench:
    """One workload's inputs, instruments and repetitions."""

    def __init__(self, workload: Workload, paths: InputPaths, work_dir: str,
                 sweep_threads: int, tally: Tally):
        self.workload = workload
        self.paths = paths
        self.work_dir = work_dir
        self.sweep_threads = sweep_threads
        self.tally = tally
        self.capture = Capture()
        self.hcache = HessianCacheCounter()
        self.tracer = Tracer()
        self._patch = Patch()
        self.peak_rss = 0.0

    def __enter__(self) -> "Bench":
        self.capture.install(self._patch)
        self.hcache.attach()
        return self

    def __exit__(self, *exc) -> None:
        self._patch.restore()
        self.hcache.detach()

    # -- the file path -------------------------------------------------------
    def compress_file(self, config, cwm: str, phase):
        model_tf = modelio.load_tensor_file(self.paths.model)
        calib_tf = modelio.load_tensor_file(self.paths.calib)
        if self.workload.cold_cache and os.path.exists(self.paths.hcache):
            os.remove(self.paths.hcache)
        self.capture.clear()
        with phase("bench.compress"):
            t0 = perf_counter()
            hessians = pipeline.collect_hessians(
                model_tf, calib_tf, calib_path=self.paths.calib, cache_path=self.paths.hcache
            )
            report = pipeline.compress_model(model_tf, hessians, config)
            modelio.write_compressed(report.compressed, cwm)
            seconds = perf_counter() - t0
        return seconds, model_tf, calib_tf, hessians, list(self.capture.encoded)

    def decompress_file(self, cwm: str, recon: str, phase):
        self.capture.clear()
        with phase("bench.decompress"):
            t0 = perf_counter()
            cm = modelio.read_compressed(cwm)
            tf = pipeline.decompress_model(cm)
            modelio.write_tensor_file(tf, recon)
            seconds = perf_counter() - t0
        return seconds, cm, list(self.capture.decoded)

    @staticmethod
    def check_roundtrip(model_tf, encoded, cm, decoded, recon: str) -> List[str]:
        """Decoded indices, dequantized values and paid bits against the encoder."""
        problems = []
        records = cm.quantized()
        if not (len(encoded) == len(decoded) == len(records)):
            return [f"{len(encoded)} layers encoded, {len(decoded)} decoded, "
                    f"{len(records)} records"]
        recon_tf = modelio.load_tensor_file(recon)
        for (result, _), layer, rec in zip(encoded, decoded, records):
            q = result.quantized
            if not np.array_equal(layer.indices, q.indices):
                problems.append(f"{rec.name}: decoded indices differ from quantized indices")
            expected = q.grid.levels[q.indices].astype(np.float32)
            got = recon_tf[rec.name] if rec.name in recon_tf else None
            if got is None or got.size != expected.size or not np.array_equal(
                got.reshape(expected.shape), expected
            ):
                problems.append(f"{rec.name}: dequantized tensor differs from grid.levels[indices]")
            paid = 8 * len(rec.payload)
            predicted = result.predicted_rate_bits
            if not predicted <= paid <= predicted + FLUSH_BITS + CODER_SLACK * predicted:
                problems.append(f"{rec.name}: paid {paid} bits for {predicted:.1f} predicted")
        for rec in cm.records:
            if not isinstance(rec, QuantizedRecord) and not (
                rec.name in recon_tf and np.array_equal(recon_tf[rec.name], model_tf[rec.name])
            ):
                problems.append(f"{rec.name}: raw tensor changed")
        return problems

    def roundtrip(self, cwm: str, recon: str, model_tf, encoded, phase, tally: Tally,
                  what: str):
        """Decompress ``cwm`` and check it against what was encoded.

        Records one operation in ``tally``; returns (seconds, model) or
        None when decompression raised.
        """
        try:
            seconds, cm, decoded = self.decompress_file(cwm, recon, phase)
        except Exception as exc:  # a failed operation is counted, the run goes on
            tally.record(what, [f"{type(exc).__name__}: {exc}"])
            return None
        tally.record(what, self.check_roundtrip(model_tf, encoded, cm, decoded, recon))
        return seconds, cm

    def negative_control(self, cwm: str, model_tf, encoded) -> Tally:
        """Run the round-trip checks on a copy of ``cwm`` with a corrupted payload.

        The checks must reject it; if they do not, that is itself counted
        as a failure, since checks that cannot fail prove nothing.
        """
        bad = os.path.join(self.work_dir, "corrupted.cwm")
        corrupt_payload_copy(cwm, bad)
        control = Tally()
        self.roundtrip(bad, bad + ".tns", model_tf, encoded, _no_span, control,
                       "corrupted payload")
        self.tally.record("negative control", [] if control.failed else
                          ["a corrupted payload passed the round-trip checks"])
        return control

    # -- the sweep -----------------------------------------------------------
    def run_sweep(self, model_tf, calib_tf, hessians, test_tf, phase):
        wl = self.workload
        with phase("bench.sweep"):
            t0 = perf_counter()
            points = sweep.run_sweep(
                model_tf, calib_tf, hessians,
                lambdas=wl.sweep_lambdas, grid_sizes=(GRID_SIZE,), scan_orders=(ROW_MAJOR,),
                model_kinds=wl.sweep_kinds, test_tf=test_tf, threads=self.sweep_threads,
            )
            front = sweep.pareto_front(points)
            seconds = perf_counter() - t0
        return seconds, points, front

    def check_sweep(self, points, front, config, file_bpw: float) -> None:
        """Each row, and the file path's rate where the row has its configuration."""
        for p in points:
            key = (p.lam, p.grid_size, p.model_kind)
            problems = []
            if p.error:
                problems.append(p.error)
            else:
                if not (p.bits_per_weight > 0 and math.isfinite(p.bits_per_weight)):
                    problems.append(f"bits per weight {p.bits_per_weight}")
                if not (p.layer_loss >= 0 and math.isfinite(p.layer_loss)):
                    problems.append(f"layer loss {p.layer_loss}")
                if not 0.0 <= p.accuracy <= 1.0:
                    problems.append(f"accuracy {p.accuracy}")
                if key == (config.lam, config.grid_size, config.model_kind) and (
                    p.bits_per_weight != file_bpw
                ):
                    problems.append(f"sweep bpw {p.bits_per_weight} != compress bpw {file_bpw}")
            self.tally.record(f"sweep {key}", problems)
        rates = [p.bits_per_weight for p in front]
        problems = []
        if not front or rates != sorted(rates) or any(p not in points for p in front):
            problems.append(f"Pareto front of {len(front)} points is not a sorted subset")
        self.tally.record("pareto_front", problems)

    # -- one repetition ------------------------------------------------------
    def run_rep(self, index: int, traced: bool) -> Rep:
        rep = Rep(index=index, traced=traced)
        patch = Patch()
        phase = _no_span
        if traced:
            self.tracer.rep = index
            self.tracer.install(patch)
            phase = self.tracer.span
        hits, misses = self.hcache.hits, self.hcache.misses
        tr = self.tracer
        entropy0 = (tr.entropy_s, tr.entropy_calls, tr.update_calls)
        try:
            self._run_rep(rep, phase, control=index == 0)
        finally:
            patch.restore()
            self.capture.clear()
        rep.exact["hcache_hits"] = self.hcache.hits - hits
        rep.exact["hcache_misses"] = self.hcache.misses - misses
        if traced:
            rep.entropy = {
                "seconds": tr.entropy_s - entropy0[0],
                "calls": tr.entropy_calls - entropy0[1],
                "updates": tr.update_calls - entropy0[2],
            }
        return rep

    def _run_rep(self, rep: Rep, phase, control: bool) -> None:
        config = self.workload.file_config
        cwm = os.path.join(self.work_dir, "model.cwm")
        recon = os.path.join(self.work_dir, "recon.tns")
        try:
            rep.compress_ref = reference_seconds()
            rep.compress_s, model_tf, calib_tf, hessians, encoded = self.compress_file(
                config, cwm, phase)
        except Exception as exc:  # a failed operation is counted, the run goes on
            self.tally.record("compress", [f"{type(exc).__name__}: {exc}"])
            return
        for _ in range(self.workload.decompress_passes):
            ref = reference_seconds()
            done = self.roundtrip(cwm, recon, model_tf, encoded, phase, self.tally, "decompress")
            if done is None:
                return
            seconds, cm = done
            rep.decompress_s.append(seconds)
            rep.decompress_ref.append(ref)
        if control:
            self.negative_control(cwm, model_tf, encoded)
        records = cm.quantized()
        rep.weights = sum(r.param_count for r in records)
        bpw = cm.bits_per_weight()
        rep.exact.update(
            grid_evaluations=sum(r.grid_evaluations for r, _ in encoded),
            symbols=sum(r.symbol_count for r in records),
            payload_bytes=sum(len(r.payload) for r in records),
            bits_per_weight=bpw,
            cwm_sha256=_sha256(cwm),
        )
        self.capture.clear()

        test_tf = modelio.load_tensor_file(self.paths.test)
        try:
            rep.sweep_ref = reference_seconds()
            rep.sweep_s, rep.points, front = self.run_sweep(
                model_tf, calib_tf, hessians, test_tf, phase)
        except Exception as exc:  # counted like a failed row
            self.tally.record("sweep", [f"{type(exc).__name__}: {exc}"])
            return
        self.check_sweep(rep.points, front, config, bpw)

    def warm_up(self) -> None:
        """Fill the Hessian cache of a warm-cache workload before timing."""
        if not self.workload.cold_cache:
            pipeline.collect_hessians(
                modelio.load_tensor_file(self.paths.model),
                modelio.load_tensor_file(self.paths.calib),
                calib_path=self.paths.calib, cache_path=self.paths.hcache,
            )

    def measure(self, seconds: float, trace: bool) -> List[Rep]:
        """Repeat until ``seconds`` would be exceeded by one more round.

        With tracing, untraced and traced repetitions alternate, so their
        difference is the tracing overhead under the same conditions.
        """
        kinds = (False, True) if trace else (False,)
        reps: List[Rep] = []
        round_s: List[float] = []
        start = perf_counter()
        while True:
            t0 = perf_counter()
            for traced in kinds:
                reps.append(self.run_rep(len(reps), traced))
            round_s.append(perf_counter() - t0)
            if len(round_s) == MIN_REPS:
                # Read after a fixed amount of work: the peak keeps creeping
                # up with heap fragmentation, so a run that fits more
                # repetitions in its time would otherwise report more.
                self.peak_rss = peak_rss_mib()
            elapsed = perf_counter() - start
            if len(round_s) >= MIN_REPS and elapsed + statistics.median(round_s) > seconds:
                return reps


# ---------------------------------------------------------------------------
# metrics


def end_to_end(reps: List[Rep], energy: float, setup_s: float, peak_rss: float) -> Dict[str, dict]:
    """Every end-to-end metric, summarized over the untraced repetitions.

    Timings are scaled to the reference speed; ``wall`` holds the same
    summary of the unscaled wall times.
    """
    plain = [r for r in reps if not r.traced and r.weights and r.points]
    if not plain:
        return {}
    last = plain[-1].points
    ok = [p for p in last if not p.error]
    pairs = {
        "compress_us_per_weight": [
            (1e6 * r.compress_s / r.weights, r.compress_ref) for r in plain],
        "decompress_s_per_mparam": [
            (s / (r.weights / 1e6), ref)
            for r in plain for s, ref in zip(r.decompress_s, r.decompress_ref)],
        "sweep_s_per_config": [(r.sweep_s / len(r.points), r.sweep_ref) for r in plain],
    }
    out = {}
    for name, values in pairs.items():
        out[name] = summarize([v * REFERENCE_S / ref for v, ref in values])
        out[name]["wall"] = summarize([v for v, _ in values])
    if ok:
        out["bits_per_weight"] = {"value": statistics.fmean(p.bits_per_weight for p in ok)}
        out["rel_layer_loss"] = {"value": statistics.fmean(p.layer_loss for p in ok) / energy}
        out["accuracy"] = {"value": statistics.fmean(p.accuracy for p in ok)}
    out["peak_rss_mib"] = {"value": peak_rss}
    out["setup_s"] = {"value": setup_s}
    return out


def peak_rss_mib() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def per_layer(bench: Bench, reps: List[Rep], pool_workers: int, job_mb: float) -> Dict[str, dict]:
    """Every per-layer metric: the median over traced repetitions."""
    traced = [r for r in reps if r.traced]
    by_rep: Dict[int, list] = {r.index: [] for r in traced}
    for span in bench.tracer.spans:
        if span.rep in by_rep:
            by_rep[span.rep].append(span)
    rows = [_layer_row(by_rep[r.index], r) for r in traced]
    out = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    plain = [r.timed_s for r in reps if not r.traced]
    out["sweep.job_mb_pickled"] = job_mb
    out["sweep.pool_workers"] = pool_workers
    out["trace.overhead"] = statistics.median(r.timed_s for r in traced) / statistics.median(plain) - 1
    return {name: {"value": v} for name, v in out.items()}


def _layer_row(spans, rep: Rep) -> Dict[str, float]:
    def tot(*names):
        return sum(s.duration for s in spans if s.name in names)

    def self_s(name):
        return sum(s.self_s for s in spans if s.name == name)

    def attr(key, *names):
        return sum(s.attrs.get(key, 0) for s in spans if s.name in names)

    # Shares are of one compress plus one decompress, as a user runs them,
    # so the decompress phase is divided by its passes.
    weight = {"bench.compress": 1.0, "bench.decompress": 1.0 / max(len(rep.decompress_s), 1)}
    phases = [s for s in spans if s.name in weight]
    in_phase = [s for s in spans if s.root in weight]
    compress_path = sum(s.duration for s in phases if s.name == "bench.compress")
    codec_path = sum(weight[s.name] * s.duration for s in phases)
    linalg_in_compress = sum(
        s.duration for s in in_phase
        if s.root == "bench.compress" and s.name in ("linalg.accumulate_hessian", "linalg.build_context"))
    coder_in_codec = sum(weight[s.name] * s.entropy_s for s in phases) + sum(
        weight[s.root] * s.self_s for s in in_phase
        if s.name in ("rangecoder.encode", "rangecoder.decode"))

    entropy = rep.entropy
    quantize_self = self_s("engine.quantize_layer")
    failed_rows = sum(1 for p in rep.points if p.error)
    return {
        "linalg.hessian_s": tot("linalg.accumulate_hessian"),
        "linalg.context_s": tot("linalg.build_context"),
        "linalg.hessian_gflop": attr("gflop", "linalg.accumulate_hessian"),
        "linalg.context_gflop": attr("gflop", "linalg.build_context"),
        "grids.build_grid_s": tot("grids.build_grid"),
        "grids.static_prepass_s": tot("grids.model_spec_for"),
        "entropy.calls": entropy["calls"],
        "entropy.self_s": entropy["seconds"],
        "entropy.us_per_symbol": 1e6 * entropy["seconds"] / max(entropy["updates"], 1),
        "engine.quantize_self_s": quantize_self,
        "engine.us_per_weight": 1e6 * quantize_self / max(attr("weights", "engine.quantize_layer"), 1),
        "engine.grid_evaluations": attr("grid_evaluations", "engine.quantize_layer"),
        "rangecoder.encode_self_s": self_s("rangecoder.encode"),
        "rangecoder.decode_self_s": self_s("rangecoder.decode"),
        "rangecoder.symbols": attr("symbols", "rangecoder.encode"),
        "rangecoder.payload_bytes": attr("bytes", "rangecoder.encode"),
        "rangecoder.overhead_bits": attr("overhead_bits", "engine.compress_layer"),
        "modelio.write_s": tot("modelio.write_compressed", "modelio.write_tensor_file"),
        "modelio.read_s": tot("modelio.read_compressed"),
        "modelio.bytes": attr("bytes", "modelio.write_compressed", "modelio.read_compressed",
                              "modelio.write_tensor_file"),
        "pipeline.collect_hessians_s": tot("pipeline.collect_hessians"),
        "pipeline.hcache_hits": rep.exact["hcache_hits"],
        "pipeline.hcache_misses": rep.exact["hcache_misses"],
        "pipeline.compress_self_s": self_s("pipeline.compress_model"),
        "pipeline.decompress_self_s": self_s("pipeline.decompress_model"),
        "pipeline.evaluate_s": tot("pipeline.evaluate_model"),
        "sweep.run_s": tot("sweep.run_sweep"),
        "sweep.configs": len(rep.points),
        "sweep.failed_configs": failed_rows,
        "sweep.pareto_s": tot("sweep.pareto_front"),
        "shares.linalg_of_compress": linalg_in_compress / compress_path if compress_path else 0.0,
        "shares.entropy_rangecoder_of_codec": coder_in_codec / codec_path if codec_path else 0.0,
    }


def job_mb_pickled(bench: Bench) -> float:
    """Size of one sweep job as ``run_sweep`` pickles it for a pool worker (computed)."""
    model_tf = modelio.load_tensor_file(bench.paths.model)
    calib_tf = modelio.load_tensor_file(bench.paths.calib)
    test_tf = modelio.load_tensor_file(bench.paths.test)
    hessians = pipeline.collect_hessians(model_tf, calib_tf)
    job = (model_tf, hessians, bench.workload.file_config, pipeline.METHOD_CERWU, calib_tf,
           test_tf)
    return len(pickle.dumps(job, protocol=pickle.HIGHEST_PROTOCOL)) / 1e6


# ---------------------------------------------------------------------------
# environment


def _openblas_libraries() -> List[dict]:
    """Version and thread count of each OpenBLAS this process has loaded."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    out = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        info = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if get_config is not None and get_threads is not None:
                    get_config.restype, get_config.argtypes = ctypes.c_char_p, []
                    get_threads.restype, get_threads.argtypes = ctypes.c_int, []
                    info["config"] = get_config().decode(errors="replace")
                    info["threads"] = get_threads()
                    break
            if "threads" in info:
                break
        out.append(info)
    return out


def environment(workload: str, seed: int, trace: bool, seconds: float,
                pool_workers: int, sweep_threads: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "run_seconds": seconds,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas_libraries(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "pool_workers": pool_workers,
        "sweep_threads": sweep_threads,
        "platform": platform.platform(),
    }


def write_trace(tracer: Tracer, path: str) -> None:
    with open(path, "w") as fh:
        json.dump([s.as_json() for s in tracer.spans], fh)

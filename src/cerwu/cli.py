"""Command-line interface.

Subcommands: compress, decompress, eval, sweep, pareto (and a hidden
oracle command for debugging tiny instances). Exit status: 0 on success,
1 on input errors (usage errors among them), 2 on internal errors.
"""

from __future__ import annotations

import argparse
import logging
import sys
import time

import numpy as np

from . import entropy
from .engine import (GAMMA_STANDARD, GAMMA_ZERO, METHOD_CERWU, METHOD_RTN, METHODS,
                     CompressionConfig)
from .errors import CerwuError, InputError
from .grids import COLUMN_MAJOR, ROW_MAJOR, build_grid
from .linalg import DEFAULT_DAMPING
from .modelio import (
    COMPRESSED_MAGIC,
    TENSOR_MAGIC,
    atomic_output,
    load_tensor_file,
    read_compressed,
    write_compressed,
    write_tensor_file,
)
from .pipeline import (
    accuracy,
    collect_hessians,
    compress_model,
    decompress_model,
    evaluate_model,
    quantizable_names,
)
from .sweep import (
    DEFAULT_LAMBDAS,
    pareto_front,
    points_from_csv,
    points_to_csv,
    run_sweep,
    sweep_configs,
)


def _add_engine_flags(p: argparse.ArgumentParser):
    """Flags of one compression configuration (compress, oracle)."""
    p.add_argument("--lambda", dest="lam", type=float, default=0.0,
                   help="rate-distortion trade-off weight (default 0)")
    p.add_argument("--grid-size", type=int, default=17, help="number of grid levels "
                   "(an even size has one fewer positive level than negative levels)")
    p.add_argument("--scan-order", choices=[ROW_MAJOR, COLUMN_MAJOR],
                   default=ROW_MAJOR)
    p.add_argument("--model-kind", choices=list(entropy.MODEL_KINDS),
                   default=entropy.ADAPTIVE)
    _add_solver_flags(p)


def _add_solver_flags(p: argparse.ArgumentParser):
    """Flags a sweep holds fixed over its configurations."""
    p.add_argument("--delta", type=float, default=DEFAULT_DAMPING,
                   help="relative Hessian damping")
    p.add_argument("--gamma-mode", choices=[GAMMA_STANDARD, GAMMA_ZERO],
                   default=GAMMA_STANDARD,
                   help="'zero' disables regularized weight updates")
    p.add_argument("--method", choices=list(METHODS), default=METHOD_CERWU,
                   help="'rtn' is the nearest-level + entropy coding baseline")


def _load_model(path):
    """The model container, refused right after loading, before any
    Hessian work, when it holds no tensor to quantize or an empty one;
    ``compress``, ``sweep`` and ``eval`` all load the model through it."""
    model_tf = load_tensor_file(path)
    names = quantizable_names(model_tf)
    if not names:
        raise InputError(f"{path}: no 2-D or 4-D tensor to quantize")
    for name in names:
        if model_tf[name].size == 0:
            raise InputError(f"{path}: entry {name!r} of shape {model_tf[name].shape} is empty")
    return model_tf


def _load_calibration(args, model_tf):
    """The calibration container and the Hessians the method needs (none
    for rtn), cached next to the calibration file."""
    calib_tf = load_tensor_file(args.calib)
    hessians = {}
    if args.method == METHOD_CERWU:
        hessians = collect_hessians(
            model_tf, calib_tf, calib_path=args.calib,
            cache_path=args.calib + ".hcache.npz",
        )
    return calib_tf, hessians


def _config(args) -> CompressionConfig:
    """The run configuration that :func:`_add_engine_flags` describes."""
    return CompressionConfig(
        lam=args.lam,
        grid_size=args.grid_size,
        scan_order=args.scan_order,
        model_kind=args.model_kind,
        damping_delta=args.delta,
        gamma_mode=args.gamma_mode,
        method=args.method,
    )


def cmd_compress(args) -> int:
    config = _config(args)  # a bad flag is reported before any Hessian work
    model_tf = _load_model(args.model)
    _, hessians = _load_calibration(args, model_tf)
    report = compress_model(model_tf, hessians, config)
    write_compressed(report.compressed, args.out)
    for st in report.layers:
        print(
            f"layer {st.name}: {st.params} params, {st.bits_per_weight:.4f} bpw, "
            f"loss delta {st.quadratic_loss_delta:.6g}, rounds {st.rounds}, "
            f"{st.predicted_rate_bits:.1f} bits predicted, {st.actual_bits} paid"
        )
    print(
        f"total: {report.compressed.bits_per_weight():.4f} bpw, "
        f"loss delta {report.total_loss_delta:.6g}, "
        f"wall {report.wall_seconds:.2f}s -> {args.out}"
    )
    return 0


def cmd_decompress(args) -> int:
    t0 = time.perf_counter()
    cm = read_compressed(args.input)
    tf = decompress_model(cm)
    write_tensor_file(tf, args.out)
    print(f"decompressed {len(cm.records)} tensors in "
          f"{time.perf_counter() - t0:.2f}s -> {args.out}")
    return 0


def _load_model_or_reconstruction(path):
    """Accept either a compressed model or a plain tensor container."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == COMPRESSED_MAGIC:
        cm = read_compressed(path)
        return decompress_model(cm), cm
    if magic == TENSOR_MAGIC:
        return load_tensor_file(path), None
    raise InputError(f"{path}: neither a compressed model nor a tensor container")


def cmd_eval(args) -> int:
    model_tf = _load_model(args.model)
    recon_tf, cm = _load_model_or_reconstruction(args.compressed)
    calib_tf = load_tensor_file(args.calib)
    test_tf = load_tensor_file(args.test) if args.test else None
    report = evaluate_model(model_tf, recon_tf, calib_tf, test_tf)
    for name, loss in report.layer_losses.items():
        print(f"layer {name}: loss {loss:.6g}")
    line = f"total loss {report.total_loss:.6g}"
    if cm is not None:
        line += f", {cm.bits_per_weight():.4f} bpw"
    if report.accuracy is not None:
        line += f", accuracy {report.accuracy:.4f}"
    print(line)
    return 0


def cmd_sweep(args) -> int:
    settings = dict(
        lambdas=args.lambdas or list(DEFAULT_LAMBDAS),
        grid_sizes=args.grid_sizes,
        scan_orders=args.scan_orders,
        model_kinds=args.model_kinds,
        method=args.method,
        damping_delta=args.delta,
        gamma_mode=args.gamma_mode,
    )
    sweep_configs(**settings)  # a bad flag is reported before any Hessian work
    model_tf = _load_model(args.model)
    test_tf = load_tensor_file(args.test) if args.test else None
    if test_tf is not None:
        accuracy(model_tf, test_tf)  # so is a bad test set, once, not in every row
    calib_tf, hessians = _load_calibration(args, model_tf)
    points = run_sweep(
        model_tf, calib_tf, hessians, test_tf=test_tf, threads=args.threads, **settings
    )
    _write_csv(args.csv_out, points)
    failures = sum(1 for p in points if p.error)
    print(f"{len(points)} configurations -> {args.csv_out}"
          + (f" ({failures} failed)" if failures else ""))
    return 0


def _write_csv(path, points) -> None:
    """Write sweep points as CSV; a failed write leaves ``path`` as it was."""
    with atomic_output(path) as fh:
        fh.write(points_to_csv(points).encode("utf-8"))


def cmd_pareto(args) -> int:
    with open(args.csv_in, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")  # as _write_csv writes it
    except UnicodeDecodeError as exc:
        raise InputError(f"{args.csv_in}: not UTF-8 text: {exc}") from exc
    points = points_from_csv(text)
    front = pareto_front(points)
    _write_csv(args.csv_out, front)
    print(f"{len(front)} of {len(points)} points on the front -> {args.csv_out}")
    return 0


def cmd_oracle(args) -> int:
    # Debugging aid: exhaustive optimum vs the method on a tiny random instance.
    from .engine import compress_layer, model_spec_for
    from .grids import round_to_nearest
    from .linalg import accumulate_hessian
    from .oracle import brute_force_minimize, evaluate_objective

    config = _config(args)
    rng = np.random.default_rng(args.seed)
    w = rng.normal(size=(args.rows, args.cols))
    x = rng.normal(size=(args.cols, 4 * args.cols))
    hessian = accumulate_hessian([x])
    grid = build_grid(w, args.grid_size)
    factory = model_spec_for(w, grid, config).fresh
    best_layer, best = brute_force_minimize(
        w, x, grid, args.lam, factory, scan_order=args.scan_order
    )
    result, _, _ = compress_layer(w, hessian, config)
    ran = evaluate_objective(w, x, result.quantized, args.lam, factory)
    print(f"brute force: total {best.total:.6f} "
          f"(distortion {best.distortion:.6f}, rate {best.rate_bits:.3f} bits)")
    # Labelled by the method that ran; rtn's line already is the nearest levels.
    print(f"{config.method + ':':<13}total {ran.total:.6f} "
          f"(distortion {ran.distortion:.6f}, rate {ran.rate_bits:.3f} bits)")
    if config.method != METHOD_RTN:
        nearest = evaluate_objective(
            w, x, round_to_nearest(w, grid, args.scan_order), args.lam, factory
        )
        print(f"nearest:     total {nearest.total:.6f}")
    return 0


class _Parser(argparse.ArgumentParser):
    """A usage error is an input error: the usage, one ``error:`` line,
    exit status 1. Subcommand parsers are built from this class too."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cerwu",
        description="Rate-distortion optimized weight compression",
    )
    parser.add_argument("--threads", type=int, default=1,
                        help="worker processes for sweeps")
    # metavar omits the debugging-only oracle command from --help
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar="{compress,decompress,eval,sweep,pareto}",
    )

    p = sub.add_parser("compress", help="compress a tensor container")
    p.add_argument("--model", required=True)
    p.add_argument("--calib", required=True)
    p.add_argument("--out", required=True)
    _add_engine_flags(p)
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("decompress", help="reconstruct tensors from a compressed model")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_decompress)

    p = sub.add_parser("eval", help="loss/bpw/accuracy of a reconstruction")
    p.add_argument("--model", required=True)
    p.add_argument("--compressed", required=True,
                   help="compressed model or tensor container to evaluate")
    p.add_argument("--calib", required=True)
    p.add_argument("--test", default=None, help="optional test tensor container")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="sweep configurations, write CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--calib", required=True)
    p.add_argument("--test", default=None)
    p.add_argument("--csv-out", required=True)
    p.add_argument("--lambdas", type=float, nargs="*", default=None,
                   help="default: 1e-8 .. 1e-1 at half-decade steps")
    p.add_argument("--grid-sizes", type=int, nargs="+", default=[5, 9, 17, 33],
                   help="numbers of grid levels (an even size has one fewer positive "
                   "level than negative levels)")
    p.add_argument("--scan-orders", nargs="+", default=[ROW_MAJOR],
                   choices=[ROW_MAJOR, COLUMN_MAJOR])
    p.add_argument("--model-kinds", nargs="+", default=[entropy.ADAPTIVE],
                   choices=list(entropy.MODEL_KINDS))
    _add_solver_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("pareto", help="extract the Pareto front from a sweep CSV")
    p.add_argument("--csv-in", required=True)
    p.add_argument("--csv-out", required=True)
    p.set_defaults(func=cmd_pareto)

    # debugging command, not advertised in --help
    p = sub.add_parser("oracle")
    p.add_argument("--rows", type=int, default=2)
    p.add_argument("--cols", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    _add_engine_flags(p)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error("--threads must be >= 1")
    try:
        return args.func(args)
    except (InputError, OSError) as exc:  # OSError: a missing, unreadable or unwritable path
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CerwuError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

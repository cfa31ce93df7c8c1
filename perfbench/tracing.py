"""Spans and counters taken from outside cerwu.

Nothing under ``src/`` knows about the benchmark. Instead, the functions
one cerwu module calls in another are swapped, at the calling module's
attribute, for wrappers that record a span (name, start, end, parent) or
capture a result. ``Patch`` puts every original back.

Entropy-model calls are far too many for one span each. The models handed
out by ``engine.make_model`` (quantize and encode side) and
``entropy.make_model`` (decode side) are wrapped in ``TimedModel``, which
adds each ``rate_vector``/``cum``/``update`` call's duration and count to
running totals. A span records those totals at its start and end, so a
layer's self time excludes both its child spans and the entropy time
spent inside it.
"""

from __future__ import annotations

import logging
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional

from cerwu import engine, entropy, modelio, pipeline, sweep


class Patch:
    """Module attributes replaced for a while; ``restore`` undoes them."""

    def __init__(self):
        self._saved = []

    def set(self, module, attr: str, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def restore(self) -> None:
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)


class Capture:
    """Per-layer results of the quantizer and the decoder.

    Installed for the whole run, traced or not: one extra Python call per
    layer, so the correctness checks can compare what was quantized with
    what was decoded.
    """

    def __init__(self):
        self.encoded: list = []  # (LayerResult, Payload) per compressed layer
        self.decoded: list = []  # QuantizedLayer per decoded record

    def clear(self) -> None:
        self.encoded.clear()
        self.decoded.clear()

    def install(self, patch: Patch) -> None:
        compress_layer = pipeline.compress_layer
        layer_from_symbols = modelio.layer_from_symbols

        def captured_compress_layer(*args, **kwargs):
            result, payload, spec = compress_layer(*args, **kwargs)
            self.encoded.append((result, payload))
            return result, payload, spec

        def captured_layer_from_symbols(*args, **kwargs):
            layer = layer_from_symbols(*args, **kwargs)
            self.decoded.append(layer)
            return layer

        patch.set(pipeline, "compress_layer", captured_compress_layer)
        patch.set(modelio, "layer_from_symbols", captured_layer_from_symbols)


class HessianCacheCounter(logging.Handler):
    """Counts the Hessian-cache messages ``collect_hessians`` logs."""

    def __init__(self):
        super().__init__(logging.INFO)
        self.hits = 0
        self.misses = 0
        self._level = logging.NOTSET

    def emit(self, record: logging.LogRecord) -> None:
        msg = record.getMessage()
        if msg.startswith("hessian cache hit"):
            self.hits += 1
        elif msg.startswith("hessian cache written"):
            self.misses += 1

    def attach(self) -> None:
        log = logging.getLogger("cerwu")
        log.addHandler(self)
        self._level = log.level
        if log.getEffectiveLevel() > logging.INFO:
            log.setLevel(logging.INFO)

    def detach(self) -> None:
        log = logging.getLogger("cerwu")
        log.removeHandler(self)
        log.setLevel(self._level)


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    root: str  # name of the outermost open span when this one started
    rep: int
    start: float
    end: float = 0.0
    children_s: float = 0.0  # time covered by direct child spans
    entropy_s: float = 0.0  # entropy-model time inside this span
    child_entropy_s: float = 0.0  # ... of which inside child spans
    attrs: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s - (self.entropy_s - self.child_entropy_s)

    def as_json(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "rep": self.rep,
            "start": self.start,
            "end": self.end,
            "self_s": self.self_s,
            **self.attrs,
        }


class Tracer:
    """In-memory spans plus the entropy-model call counters."""

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._opened = 0
        self.rep = 0
        self.entropy_s = 0.0
        self.entropy_calls = 0  # rate_vector, cum and update
        self.update_calls = 0  # one per symbol a model sees

    # -- spans ---------------------------------------------------------------
    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(
            id=self._opened,
            name=name,
            parent=parent.id if parent else None,
            root=self._stack[0].name if self._stack else name,
            rep=self.rep,
            start=perf_counter(),
        )
        span.entropy_s = self.entropy_s  # start mark, turned into a delta on close
        self._opened += 1
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        span.entropy_s = self.entropy_s - span.entropy_s
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        if self._stack:
            parent = self._stack[-1]
            parent.children_s += span.duration
            parent.child_entropy_s += span.entropy_s
        self.spans.append(span)

    @contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def wrap(self, fn: Callable, name: str, attrs: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span per call; ``attrs(args, result)`` adds counts."""

        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if attrs is not None:
                span.attrs.update(attrs(args, result))
            return result

        return traced

    def span_calls(self, patch: Patch, module, attr: str, name: str, attrs=None) -> None:
        patch.set(module, attr, self.wrap(getattr(module, attr), name, attrs))

    # -- installation --------------------------------------------------------
    def install(self, patch: Patch) -> None:
        """Wrap the calls between cerwu modules that the benchmark times."""
        for module in (pipeline, sweep):
            self.span_calls(patch, module, "compress_model", "pipeline.compress_model")
            self.span_calls(patch, module, "decompress_model", "pipeline.decompress_model")
            self.span_calls(patch, module, "evaluate_model", "pipeline.evaluate_model")
        self.span_calls(patch, pipeline, "collect_hessians", "pipeline.collect_hessians")
        self.span_calls(patch, pipeline, "accumulate_hessian", "linalg.accumulate_hessian",
                        _hessian_attrs)
        self.span_calls(patch, pipeline, "compress_layer", "engine.compress_layer",
                        _compress_layer_attrs)
        self.span_calls(patch, engine, "build_grid", "grids.build_grid")
        self.span_calls(patch, engine, "model_spec_for", "grids.model_spec_for")
        self.span_calls(patch, engine, "quantize_layer", "engine.quantize_layer",
                        _quantize_attrs)
        self.span_calls(patch, engine, "build_context", "linalg.build_context",
                        _context_attrs)
        self.span_calls(patch, engine, "encode", "rangecoder.encode", _encode_attrs)
        self.span_calls(patch, modelio, "decode", "rangecoder.decode")
        self.span_calls(patch, modelio, "write_compressed", "modelio.write_compressed",
                        lambda args, _: {"bytes": os.path.getsize(args[1])})
        self.span_calls(patch, modelio, "read_compressed", "modelio.read_compressed",
                        lambda args, _: {"bytes": os.path.getsize(args[0])})
        self.span_calls(patch, modelio, "write_tensor_file", "modelio.write_tensor_file",
                        lambda args, _: {"bytes": os.path.getsize(args[1])})
        self.span_calls(patch, sweep, "run_sweep", "sweep.run_sweep")
        self.span_calls(patch, sweep, "pareto_front", "sweep.pareto_front")
        for module in (engine, entropy):
            patch.set(module, "make_model", self._timed_factory(module.make_model))

    def _timed_factory(self, make_model: Callable) -> Callable:
        def timed_make_model(*args, **kwargs):
            return TimedModel(make_model(*args, **kwargs), self)

        return timed_make_model


class TimedModel:
    """An ``EntropyModel`` whose hot calls add to the tracer's counters."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    def rate_vector(self):
        t0 = perf_counter()
        rates = self._inner.rate_vector()
        tracer = self._tracer
        tracer.entropy_s += perf_counter() - t0
        tracer.entropy_calls += 1
        return rates

    def cum(self):
        t0 = perf_counter()
        cum = self._inner.cum()
        tracer = self._tracer
        tracer.entropy_s += perf_counter() - t0
        tracer.entropy_calls += 1
        return cum

    def update(self, symbol: int) -> None:
        t0 = perf_counter()
        self._inner.update(symbol)
        tracer = self._tracer
        tracer.entropy_s += perf_counter() - t0
        tracer.entropy_calls += 1
        tracer.update_calls += 1

    def fresh(self) -> "TimedModel":
        return TimedModel(self._inner.fresh(), self._tracer)

    def __getattr__(self, name):
        return getattr(self._inner, name)


# Work done by each wrapped call, from its arguments and result. Flop
# counts are computed from shapes, not measured.


def _hessian_attrs(args, h) -> dict:
    (batches,) = args
    m = h.shape[0]
    return {"gflop": sum(2.0 * m * m * x.shape[1] for x in batches) / 1e9}


def _context_attrs(args, ctx) -> dict:
    n, m = ctx.w_prime.shape
    # cho_factor m^3/3, cho_solve against I 2m^3, cholesky m^3/3,
    # W @ H_d 2nm^2, cho_solve against n right-hand sides 2nm^2.
    return {"gflop": (m**3 / 3 + 2 * m**3 + m**3 / 3 + 4.0 * n * m * m) / 1e9}


def _quantize_attrs(args, result) -> dict:
    return {
        "weights": result.quantized.rows * result.quantized.cols,
        "grid_evaluations": result.grid_evaluations,
    }


def _encode_attrs(args, payload) -> dict:
    return {"symbols": payload.symbol_count, "bytes": len(payload.data)}


def _compress_layer_attrs(args, out) -> dict:
    result, payload, _ = out
    return {"overhead_bits": 8 * len(payload.data) - result.predicted_rate_bits}

"""Whole-model compression, decompression and evaluation.

:func:`compress_model` hands every quantizable layer to
:func:`~cerwu.engine.compress_layer` with one :class:`CompressionConfig`,
whose ``method`` picks the rate-aware engine or the nearest-level baseline;
only the engine needs the layer's Hessian.

Conventions for the tensor containers:

* every 2-D or 4-D entry in the model file is quantized and must have a
  matching ``"<name>.activations"`` entry (m x p, one calibration sample
  per column) in the calibration file; a 4-D convolution kernel
  ``(out, in, kh, kw)`` is quantized as the ``(out, in*kh*kw)`` matrix
  and decompresses to that 2-D shape;
* 1-D and scalar entries (biases etc.) are stored raw and excluded from
  the bits-per-weight accounting;
* the minimal inference path chains the quantized entries, 4-D kernels
  flattened, in lexicographic name order as dense layers with ReLU between
  all but the last, adding ``"<name minus .weight>.bias"`` when present;
* test data lives in its own container as ``test.features`` (samples x
  input dim) and ``test.labels``.
"""

from __future__ import annotations

import hashlib
import logging
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .engine import METHOD_CERWU, CompressionConfig, compress_layer, layer_context
from .errors import CerwuError, InputError, ShapeError
from .linalg import LayerContext, accumulate_hessian
from .modelio import (
    CompressedModel,
    QuantizedRecord,
    RawRecord,
    TensorFile,
    atomic_output,
    bits_per_weight,
)

log = logging.getLogger("cerwu")

ACTIVATION_SUFFIX = ".activations"


def quantizable_names(model_tf: TensorFile) -> List[str]:
    """Names of model entries that get quantized, in forward (name) order."""
    return sorted(
        name
        for name, arr in model_tf.entries.items()
        if arr.ndim in (2, 4) and not name.endswith(ACTIVATION_SUFFIX)
    )


def _layer_weight_matrix(arr: np.ndarray) -> np.ndarray:
    """2-D view used for quantization (4-D conv kernels are flattened)."""
    if arr.ndim == 4:
        return arr.reshape(arr.shape[0], -1).astype(np.float64)
    return arr.astype(np.float64)


def _file_sha256(path) -> str:
    """Hex sha256 of a file, read 1 MiB at a time rather than whole."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _activations(calib_tf: TensorFile, name: str, m: int) -> np.ndarray:
    """Layer ``name``'s calibration activations, checked to be m x p."""
    act_name = name + ACTIVATION_SUFFIX
    if act_name not in calib_tf:
        raise InputError(
            f"missing calibration activations for layer {name!r} "
            f"(expected entry {act_name!r})"
        )
    x = calib_tf[act_name]
    if x.ndim != 2 or x.shape[0] != m:
        raise ShapeError(f"activations for {name!r} must be {m} x p, got {x.shape}")
    return x


def collect_hessians(
    model_tf: TensorFile,
    calib_tf: TensorFile,
    calib_path=None,
    cache_path=None,
) -> Dict[str, np.ndarray]:
    """Per-layer Hessians from calibration activations, with an npz cache.

    When ``cache_path`` is given and holds Hessians built from a
    calibration file with the same content hash, accumulation is skipped.
    """
    names = quantizable_names(model_tf)
    digest = None if calib_path is None else _file_sha256(calib_path)

    if cache_path is not None and digest is not None:
        try:
            with np.load(cache_path) as npz:
                if str(npz["calib_sha256"]) == digest and all(
                    f"H::{n}" in npz for n in names
                ):
                    log.info("hessian cache hit: %s (skipping accumulation)", cache_path)
                    return {n: npz[f"H::{n}"] for n in names}
        except FileNotFoundError:
            pass
        except Exception as exc:  # stale or foreign file: rebuild
            log.warning("ignoring unreadable hessian cache %s: %s", cache_path, exc)

    hessians = {}
    for name in names:
        m = int(np.prod(model_tf[name].shape[1:]))  # the columns of the 2-D view
        x = _activations(calib_tf, name, m).astype(np.float64)
        hessians[name] = accumulate_hessian([x])

    if cache_path is not None and digest is not None:
        payload = {f"H::{n}": h for n, h in hessians.items()}
        payload["calib_sha256"] = np.str_(digest)
        with atomic_output(cache_path) as fh:
            np.savez(fh, **payload)
        log.info("hessian cache written: %s", cache_path)
    return hessians


@dataclass
class LayerStats:
    name: str
    params: int
    record_bytes: int
    quadratic_loss_delta: float
    predicted_rate_bits: float
    actual_bits: int
    # The quantizer's rounds (LayerResult.rounds): 1 for static and rtn.
    rounds: int

    @property
    def bits_per_weight(self) -> float:
        return bits_per_weight(self.record_bytes, self.params)


@dataclass
class CompressionReport:
    """A compressed model, its per-layer statistics and its reconstruction.

    ``reconstruction`` holds every tensor as :func:`decompress_model` of
    ``compressed`` returns it, by the same rule, each record's ``array``,
    but without decoding a payload: a quantized record is handed the layer
    it was built from. That is each quantized layer's levels as float32
    (a 4-D kernel as its 2-D matrix) and each raw record's stored array.
    """

    compressed: CompressedModel
    reconstruction: TensorFile = field(default_factory=TensorFile)
    layers: List[LayerStats] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def total_loss_delta(self) -> float:
        return sum(s.quadratic_loss_delta for s in self.layers)


def compress_model(
    model_tf: TensorFile,
    hessians: Dict[str, np.ndarray],
    config: CompressionConfig,
    contexts: Optional[Dict[str, LayerContext]] = None,
) -> CompressionReport:
    """Compress every quantizable tensor by ``config.method``; store the rest raw.

    ``contexts`` maps layer names to their :func:`~cerwu.engine.layer_context`
    at ``config``'s ``lam``, ``damping_delta`` and ``gamma_mode``; the call
    reads it and fills it. A ``cerwu`` layer in it is quantized with that
    context, and one missing builds its own and stores it there; ``rtn``
    stores nothing. Calls that differ only in grid size, scan order or
    model kind can share one map, as a sweep job's configurations do;
    ``None`` means a map of this call's own. The report carries the
    reconstruction the compressed model decodes to.
    """
    t0 = time.perf_counter()
    cm = CompressedModel()
    recon = TensorFile()
    stats: List[LayerStats] = []
    quant_names = set(quantizable_names(model_tf))
    if contexts is None:
        contexts = {}

    for name, arr in model_tf.entries.items():
        if name.endswith(ACTIVATION_SUFFIX):
            continue
        if name not in quant_names:
            raw = RawRecord(name=name, shape=arr.shape, data=arr.astype("<f4").tobytes())
            cm.records.append(raw)
            recon.add(name, raw.array())
            continue
        w = _layer_weight_matrix(arr)
        if config.method == METHOD_CERWU and name not in hessians:
            raise InputError(f"no Hessian available for layer {name!r}")
        try:
            if config.method == METHOD_CERWU and name not in contexts:
                contexts[name] = layer_context(w, hessians[name], config)
            result, payload, model = compress_layer(
                w, hessians.get(name), config, context=contexts.get(name)
            )
        except CerwuError as exc:
            raise type(exc)(f"layer {name!r}: {exc}") from exc
        rec = QuantizedRecord.of(name, result.quantized, model, payload)
        cm.records.append(rec)
        recon.add(name, rec.array(result.quantized))
        stats.append(
            LayerStats(
                name=name,
                params=rec.param_count,
                record_bytes=rec.header_bytes() + len(payload.data),
                quadratic_loss_delta=result.quadratic_loss_delta,
                predicted_rate_bits=result.predicted_rate_bits,
                actual_bits=8 * len(payload.data),
                rounds=result.rounds,
            )
        )

    return CompressionReport(
        compressed=cm,
        reconstruction=recon,
        layers=stats,
        wall_seconds=time.perf_counter() - t0,
    )


def decompress_model(cm: CompressedModel) -> TensorFile:
    """Every record's tensor, by its own :meth:`~cerwu.modelio.QuantizedRecord.array`
    or :meth:`~cerwu.modelio.RawRecord.array`: a quantized record's decoded
    levels, exactly, and a raw record's stored array."""
    tf = TensorFile()
    for rec in cm.records:
        tf.add(rec.name, rec.array())
    return tf


# ---------------------------------------------------------------------------
# minimal inference (dense + ReLU) and evaluation


def _bias_name(weight_name: str) -> str:
    if weight_name.endswith(".weight"):
        return weight_name[: -len(".weight")] + ".bias"
    return weight_name + ".bias"


def forward(model_tf: TensorFile, features: np.ndarray) -> np.ndarray:
    """Feed-forward pass through the dense layers in name order, in float64.

    Each layer's bias and ReLU are applied in place to the product that
    layer has just made, so each layer allocates one array, its product,
    and ``features`` is never written.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"features must be samples x inputs, got shape {x.shape}")
    names = quantizable_names(model_tf)
    if not names:
        raise InputError("model has no dense layers to run")
    for pos, name in enumerate(names):
        w = _layer_weight_matrix(model_tf[name])
        if x.shape[1] != w.shape[1]:
            raise ShapeError(
                f"architecture mismatch at {name!r}: inputs have {x.shape[1]} "
                f"features, layer expects {w.shape[1]}"
            )
        x = x @ w.T
        bias = _bias_name(name)
        if bias in model_tf:
            if model_tf[bias].shape != (w.shape[0],):
                raise ShapeError(f"bias {bias!r} must have shape ({w.shape[0]},)")
            np.add(x, model_tf[bias].astype(np.float64), out=x)
        if pos + 1 < len(names):
            np.maximum(x, 0.0, out=x)
    return x


def accuracy(
    model_tf: TensorFile,
    test_tf: TensorFile,
    widened: Optional[Dict[str, np.ndarray]] = None,
) -> float:
    """Top-1 accuracy on ``test.features`` / ``test.labels``. An empty test
    set, or labels that are not integers in ``[0, outputs)``, raise InputError.

    ``widened`` maps entry names of ``test_tf`` to their float64 copies;
    the call reads it and fills it. The features are widened for the
    forward pass by the first call that finds them missing there and held
    by the map after it; calls on the same ``test_tf`` can share one map,
    as a sweep process's rows do. ``None`` means a copy of this call's own.
    """
    for entry in ("test.features", "test.labels"):
        if entry not in test_tf:
            raise InputError(f"test data missing entry {entry!r}")
    if widened is None:
        widened = {}
    if "test.features" not in widened:
        widened["test.features"] = np.asarray(test_tf["test.features"], dtype=np.float64)
    logits = forward(model_tf, widened["test.features"])
    labels = test_tf["test.labels"].ravel()
    if logits.shape[0] != labels.size:
        raise ShapeError("test features and labels disagree on sample count")
    if not labels.size:
        raise InputError("test.labels: the test set has no samples")
    outputs = logits.shape[1]
    if not np.all((labels >= 0) & (labels < outputs) & (np.floor(labels) == labels)):
        raise InputError(f"test.labels: every label must be an integer in [0, {outputs})")
    return float(np.mean(np.argmax(logits, axis=1) == labels))


@dataclass
class EvalReport:
    """Losses and accuracy of a reconstruction; its rate is the compressed model's."""

    layer_losses: Dict[str, float]
    total_loss: float
    accuracy: Optional[float]


def evaluate_model(
    model_tf: TensorFile,
    recon_tf: TensorFile,
    calib_tf: TensorFile,
    test_tf: Optional[TensorFile] = None,
    widened: Optional[Dict[str, np.ndarray]] = None,
) -> EvalReport:
    """Layer-output losses of a reconstruction against the original model,
    and its accuracy on ``test_tf`` when given.

    ``widened`` is :func:`accuracy`'s map of float64 test entries, read
    and filled by this call. Each layer's calibration activations are
    widened to float64 per call and freed before the next layer, not kept
    in that map: memory then holds at most one layer's copy, and a call
    that widens the test features holds no calibration copy beside them,
    so a one-row sweep peaks no higher than a call without a map.
    """
    losses: Dict[str, float] = {}
    for name in quantizable_names(model_tf):
        if name not in recon_tf:
            raise InputError(f"reconstruction is missing layer {name!r}")
        w = _layer_weight_matrix(model_tf[name])
        x = _activations(calib_tf, name, w.shape[1])
        what = _layer_weight_matrix(recon_tf[name])
        if what.shape != w.shape:
            raise ShapeError(f"shape mismatch for layer {name!r}")
        # The float64 copy of the activations dies with this statement, so
        # it is not held through the next layer or the accuracy pass.
        err = (w - what) @ np.asarray(x, dtype=np.float64)
        losses[name] = float(np.sum(np.multiply(err, err, out=err)))
    acc = accuracy(recon_tf, test_tf, widened) if test_tf is not None else None
    return EvalReport(layer_losses=losses, total_loss=sum(losses.values()), accuracy=acc)

"""Tensor container and compressed-model file formats.

Both formats are little-endian throughout and byte-exact across versions.
Each carries its own version: the tensor container is at version 1, the
compressed model at version 3. Version 3 codes static payloads with rANS
and adaptive and context payloads with the range coder, straight from the
models' counts (:mod:`cerwu.rangecoder`). Version 2 range-coded static
payloads too, and version 1 coded adaptive payloads from re-quantized
2**15 tables; both are rejected.

Tensor container (".tns"):

    magic  b"TNSR" | version u16 | entry count u32
    per entry:
        name length u16 | name utf-8
        dtype u8 (0 = float32) | ndim u8 | dims u32 x ndim
        raw data (prod(dims) * 4 bytes, little-endian float32)

Compressed model (".cwm"):

    magic  b"CERW" | version u16 | record count u32
    per record:
        name length u16 | name utf-8 | kind u8 (0 = quantized, 1 = raw)
        quantized:
            rows u32 | cols u32 | grid size u32
            scan order u8 (0 = row-major, 1 = column-major)
            model kind u8 (0 = static, 1 = adaptive, 2 = context)
            scale binary16 (the grid step)
            has static table u8 (1 for the static kind, else 0); if set:
            grid-size x u16 frequencies (fitted: each >= 1, total 2**15)
            symbol count u64 (= rows * cols) | payload length u64 | payload bytes
        raw:
            dtype u8 (0 = float32) | ndim u8 | dims u32 x ndim
            data length u64 (= 4 * prod(dims)) | raw bytes

A tensor entry and a raw record share the dtype/ndim/dims header, written
by ``_tensor_header`` and read by ``_Reader.shape``. A quantized record's
bytes up to its payload are defined in one place,
:meth:`QuantizedRecord.header`: the writer emits them, and header sizes are
measured from them. A record is built from its coded layer in one place
too, :meth:`QuantizedRecord.of`, the inverse of its ``decode_layer``, and
reconstructs its tensor by one rule, its ``array``. Reported bits per
weight divide 8x the quantized records' bytes (headers plus payloads) by
the number of quantized parameters; raw records and the file preamble are
excluded.

Readers check every length and count against the bytes actually present
(a name must not repeat an earlier one in the file; a grid size must lie
in ``[2, 2**15]``; a grid step must be finite with its sign bit clear, so
``-0.0`` is rejected and ``+0``, which all-zero layers store, reads as the
degenerate step; a static table must be fitted, every frequency >= 1 and
the total 2**15) and raise ParseError with the byte offset. Writers go
through :func:`atomic_output`, so a failed write never leaves a partial
file in place of an existing one.
"""

from __future__ import annotations

import math
import os
import secrets
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from . import entropy
from .errors import DecodeError, ParseError, ShapeError
from .grids import COLUMN_MAJOR, ROW_MAJOR, Grid, QuantizedLayer, grid_from_scale, layer_from_symbols
from .rangecoder import Payload, decode

TENSOR_MAGIC = b"TNSR"
COMPRESSED_MAGIC = b"CERW"
TENSOR_VERSION = 1
COMPRESSED_VERSION = 3

_DTYPE_F32 = 0
_KIND_QUANTIZED = 0
_KIND_RAW = 1
_SCAN_CODES = {ROW_MAJOR: 0, COLUMN_MAJOR: 1}
_SCAN_NAMES = {v: n for n, v in _SCAN_CODES.items()}
_MODEL_CODES = {entropy.STATIC: 0, entropy.ADAPTIVE: 1, entropy.CONTEXT: 2}
_MODEL_NAMES = {v: n for n, v in _MODEL_CODES.items()}
_QUANT_FIELDS = "<IIIBBe"  # rows, cols, grid size, scan, model, binary16 step
_QUANT_COUNTS = "<QQ"  # symbol count, payload length


# ---------------------------------------------------------------------------
# tensor container


@dataclass(eq=False)
class TensorFile:
    """Ordered name -> float32 ndarray container.

    Two containers are equal when they hold the same names in the same
    order, each with the same dtype, shape and bytes.
    """

    entries: Dict[str, np.ndarray] = field(default_factory=dict)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TensorFile):
            return NotImplemented
        return _layout(self) == _layout(other)

    def add(self, name: str, array) -> None:
        a = np.ascontiguousarray(array, dtype=np.float32)
        if not np.all(np.isfinite(a)):
            raise ShapeError(f"tensor {name!r} contains non-finite entries")
        self.entries[name] = a

    def __contains__(self, name: str) -> bool:
        return name in self.entries

    def __getitem__(self, name: str) -> np.ndarray:
        return self.entries[name]


def _layout(tf: TensorFile) -> list:
    return [(name, a.dtype.str, a.shape, a.tobytes()) for name, a in tf.entries.items()]


@contextmanager
def atomic_output(path):
    """Binary file handle whose contents replace ``path`` when the block ends.

    The bytes go to a new file in the same directory, which ``os.replace``
    moves over ``path`` only once the block completes. If the block raises,
    the new file is removed and an existing ``path`` is left untouched.
    """
    path = os.fspath(path)
    tmp = f"{path}.{secrets.token_hex(6)}.tmp"
    try:
        with open(tmp, "xb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise


def _name_bytes(name: str) -> bytes:
    """A name as :meth:`_Reader.name` reads it: u16 length, then UTF-8."""
    raw = name.encode("utf-8")
    return struct.pack("<H", len(raw)) + raw


def _tensor_header(shape: Tuple[int, ...]) -> bytes:
    """A float32 tensor's header as :meth:`_Reader.shape` reads it:
    dtype u8 | ndim u8 | dims u32 x ndim."""
    return struct.pack(f"<BB{len(shape)}I", _DTYPE_F32, len(shape), *shape)


def write_tensor_file(tf: TensorFile, path) -> None:
    with atomic_output(path) as fh:
        fh.write(TENSOR_MAGIC + struct.pack("<HI", TENSOR_VERSION, len(tf.entries)))
        for name, arr in tf.entries.items():
            fh.write(_name_bytes(name) + _tensor_header(arr.shape))
            fh.write(np.ascontiguousarray(arr, dtype="<f4").data)  # no copy on little-endian hosts


class _Reader:
    """Cursor over a byte buffer; raises ParseError with the offset."""

    def __init__(self, data: bytes, what: str):
        self.data = data
        self.pos = 0
        self.what = what

    def take(self, size: int) -> bytes:
        return self.data[self._advance(size) : self.pos]

    def view(self, size: int) -> memoryview:
        """Like :meth:`take`, but a view of the buffer: no copy."""
        return memoryview(self.data)[self._advance(size) : self.pos]

    def _advance(self, size: int) -> int:
        """Move past ``size`` bytes; returns where they start."""
        if self.pos + size > len(self.data):
            raise ParseError(
                f"{self.what}: truncated at byte offset {self.pos} "
                f"(needed {size} more bytes)"
            )
        self.pos += size
        return self.pos - size

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def name(self, seen) -> str:
        """A name: u16 length, then that many bytes of UTF-8. A name that
        ``seen`` holds is refused: a container names each entry once, and
        a repeated name would hide one of them."""
        (size,) = self.unpack("<H")
        at = self.pos
        raw = self.take(size)
        try:
            name = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(
                f"{self.what}: name at byte offset {at} is not valid UTF-8"
            ) from exc
        if name in seen:
            raise ParseError(f"{self.what}: repeated name {name!r} at byte offset {at}")
        return name

    def shape(self) -> Tuple[int, ...]:
        """A tensor header: dtype u8 (float32 only), ndim u8, dims u32 x ndim."""
        dtype, ndim = self.unpack("<BB")
        if dtype != _DTYPE_F32:
            raise ParseError(
                f"{self.what}: unknown dtype code {dtype} at byte offset {self.pos - 2}"
            )
        return self.unpack(f"<{ndim}I")


def _open_container(path, magic: bytes, version: int, what: str) -> Tuple[_Reader, int]:
    """A reader past ``path``'s checked preamble (magic | version u16 |
    count u32), and the count."""
    with open(path, "rb") as fh:
        data = fh.read()
    r = _Reader(data, str(path))
    if r.take(4) != magic:
        raise ParseError(
            f"{path}: bad magic at byte offset 0 (expected {magic.decode('ascii')})"
        )
    found, count = r.unpack("<HI")
    if found != version:
        raise ParseError(
            f"{path}: unsupported {what} version {found}; supported: {version}"
        )
    return r, count


def _float32_view(raw, shape: Tuple[int, ...], what: str) -> np.ndarray:
    """``raw`` as a little-endian float32 array of ``shape``, without a copy.

    Raises ParseError, prefixed by ``what``, when the bytes do not fill
    exactly that shape or numpy cannot represent the shape.
    """
    try:
        return np.frombuffer(raw, dtype="<f4").reshape(shape)
    except ValueError as exc:
        raise ParseError(f"{what}: {exc}") from exc


def load_tensor_file(path) -> TensorFile:
    """Parse a tensor container; validates magic, version, shapes and values."""
    r, count = _open_container(path, TENSOR_MAGIC, TENSOR_VERSION, "tensor container")
    tf = TensorFile()
    for _ in range(count):
        name = r.name(tf.entries)
        shape = r.shape()
        at = r.pos
        what = f"{path}: tensor {name!r} at byte offset {at}"
        a = _float32_view(r.view(4 * math.prod(shape)), shape, what)
        if not np.isfinite(a).all():
            raise ParseError(f"{what} has non-finite entries")
        tf.entries[name] = a.copy()
    return tf


# ---------------------------------------------------------------------------
# compressed model


@dataclass(eq=False)
class QuantizedRecord:
    """One entropy-coded layer inside a compressed model.

    :meth:`of` builds the record of a coded layer and :meth:`decode_layer`
    is its inverse; :meth:`array` is the one rule for the tensor a record
    reconstructs. Two records are equal when they serialize to the same
    bytes, ``header() + payload``.
    """

    name: str
    rows: int
    cols: int
    grid_size: int
    scan_order: str
    model_kind: str
    step: float  # the grid step, stored as binary16
    static_freqs: Optional[np.ndarray]
    symbol_count: int
    payload: bytes

    @classmethod
    def of(cls, name: str, layer: QuantizedLayer, model: entropy.EntropyModel,
           payload: Payload) -> "QuantizedRecord":
        """The record of ``layer`` coded into ``payload`` by ``model`` in its
        initial state: the inverse of :meth:`decode_layer`."""
        return cls(name, layer.rows, layer.cols, layer.grid.size, layer.scan_order, model.kind,
                   layer.grid.step, model.counts, payload.symbol_count, payload.data)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuantizedRecord):
            return NotImplemented
        return self.header() + self.payload == other.header() + other.payload

    @property
    def param_count(self) -> int:
        return self.rows * self.cols

    def grid(self) -> Grid:
        return grid_from_scale(self.grid_size, self.step)

    def header(self) -> bytes:
        """The record's serialized bytes up to its payload."""
        has_table = self.static_freqs is not None
        table = np.asarray(self.static_freqs, dtype="<u2").tobytes() if has_table else b""
        fields = (self.rows, self.cols, self.grid_size, _SCAN_CODES[self.scan_order],
                  _MODEL_CODES[self.model_kind], self.step)
        return (
            _name_bytes(self.name) + struct.pack("<B", _KIND_QUANTIZED)
            + struct.pack(_QUANT_FIELDS, *fields)
            + struct.pack("<B", has_table) + table
            + struct.pack(_QUANT_COUNTS, self.symbol_count, len(self.payload))
        )

    def header_bytes(self) -> int:
        """Serialized size of the record minus its payload bytes."""
        return len(self.header())

    def model(self):
        """Fresh entropy model for decoding this record."""
        return entropy.make_model(
            self.model_kind, self.grid_size, static_counts=self.static_freqs
        )

    def decode_layer(self) -> QuantizedLayer:
        """Decode the payload; a corrupt or truncated one is a ParseError
        naming the record, its symbol count and what failed."""
        try:
            symbols = decode(Payload(self.payload, self.symbol_count), self.model())
        except DecodeError as exc:
            raise ParseError(
                f"record {self.name!r} (symbol_count {self.symbol_count}): {exc}"
            ) from exc
        return layer_from_symbols(
            symbols, self.rows, self.cols, self.grid(), self.scan_order
        )

    def array(self, layer: Optional[QuantizedLayer] = None) -> np.ndarray:
        """The layer's levels as float32, a ``rows x cols`` matrix.

        ``layer`` is the coded layer this record was built from, whose
        levels are the payload's; without it the payload is decoded.
        """
        if layer is None:
            layer = self.decode_layer()
        return layer.dequantize().astype(np.float32)


@dataclass
class RawRecord:
    """A tensor stored verbatim (not quantized, not entropy coded)."""

    name: str
    shape: Tuple[int, ...]
    data: bytes  # little-endian float32

    def array(self) -> np.ndarray:
        return np.frombuffer(self.data, dtype="<f4").reshape(self.shape).copy()


Record = Union[QuantizedRecord, RawRecord]


@dataclass
class CompressedModel:
    records: List[Record] = field(default_factory=list)

    def quantized(self) -> List[QuantizedRecord]:
        return [r for r in self.records if isinstance(r, QuantizedRecord)]

    def bits_per_weight(self) -> float:
        quantized = self.quantized()
        total_bytes = sum(r.header_bytes() + len(r.payload) for r in quantized)
        params = sum(r.param_count for r in quantized)
        if params == 0:
            raise ShapeError("no quantized parameters in the model")
        return bits_per_weight(total_bytes, params)


def bits_per_weight(total_bytes: int, param_count: int) -> float:
    """8 * (header + payload bytes) / quantized parameter count."""
    if param_count <= 0:
        raise ShapeError("parameter count must be positive")
    return 8.0 * total_bytes / param_count


def _encode_record(rec: Record) -> bytes:
    if isinstance(rec, QuantizedRecord):
        return rec.header() + rec.payload
    return (
        _name_bytes(rec.name)
        + struct.pack("<B", _KIND_RAW)
        + _tensor_header(rec.shape)
        + struct.pack("<Q", len(rec.data))
        + rec.data
    )


def write_compressed(model: CompressedModel, path) -> None:
    with atomic_output(path) as fh:
        fh.write(COMPRESSED_MAGIC + struct.pack("<HI", COMPRESSED_VERSION, len(model.records)))
        for rec in model.records:
            fh.write(_encode_record(rec))


def read_compressed(path) -> CompressedModel:
    r, count = _open_container(path, COMPRESSED_MAGIC, COMPRESSED_VERSION, "compressed-model")
    model = CompressedModel()
    names = set()
    for _ in range(count):
        name = r.name(names)
        names.add(name)
        (kind,) = r.unpack("<B")
        if kind == _KIND_QUANTIZED:
            grid_at = r.pos + 8  # after rows and cols
            rows, cols, grid_size, scan, mkind, step = r.unpack(_QUANT_FIELDS)
            if not 2 <= grid_size <= entropy.TOTAL:
                raise ParseError(
                    f"{path}: record {name!r} has grid size {grid_size} at byte "
                    f"offset {grid_at}, outside [2, {entropy.TOTAL}]"
                )
            if scan not in _SCAN_NAMES:
                raise ParseError(f"{path}: unknown scan code {scan} before offset {r.pos}")
            if mkind not in _MODEL_NAMES:
                raise ParseError(f"{path}: unknown model code {mkind} before offset {r.pos}")
            model_kind = _MODEL_NAMES[mkind]
            # No writer stores one: a NaN would not re-write exactly, and a
            # negative step (-0.0 too) would read as the degenerate step.
            if not math.isfinite(step) or math.copysign(1.0, step) < 0:
                raise ParseError(
                    f"{path}: record {name!r} has a non-finite or negative grid step "
                    f"{step!r} before offset {r.pos}"
                )
            (has_static,) = r.unpack("<B")
            if has_static != (model_kind == entropy.STATIC):
                raise ParseError(
                    f"{path}: static-table flag {has_static} does not fit a "
                    f"{model_kind} model at byte offset {r.pos - 1}"
                )
            static_freqs = None
            if has_static:
                raw = r.take(2 * grid_size)
                static_freqs = np.frombuffer(raw, dtype="<u2").astype(np.int64)
                if static_freqs.min() < 1 or static_freqs.sum() != entropy.TOTAL:
                    raise ParseError(
                        f"{path}: record {name!r} has an unfitted static table at byte offset "
                        f"{r.pos - len(raw)} (every frequency >= 1, total {entropy.TOTAL})"
                    )
            symbol_count, payload_len = r.unpack(_QUANT_COUNTS)
            if symbol_count != rows * cols:
                raise ParseError(
                    f"{path}: record {name!r} holds {symbol_count} symbols "
                    f"for a {rows}x{cols} layer, before offset {r.pos}"
                )
            # No model gives a symbol probability above 1 - 1/COUNT_CAP, so
            # every symbol costs more than 1/COUNT_CAP bits.
            if symbol_count > 8 * payload_len * entropy.COUNT_CAP:
                raise ParseError(
                    f"{path}: record {name!r} claims {symbol_count} symbols "
                    f"in a {payload_len}-byte payload, before offset {r.pos}"
                )
            model.records.append(QuantizedRecord(
                name, rows, cols, grid_size, _SCAN_NAMES[scan], model_kind, step,
                static_freqs, symbol_count, r.take(payload_len)))
        elif kind == _KIND_RAW:
            shape = r.shape()
            (length,) = r.unpack("<Q")
            at = r.pos
            raw = r.take(length)
            _float32_view(raw, shape, f"{path}: raw record {name!r} at byte offset {at}")
            model.records.append(RawRecord(name=name, shape=shape, data=raw))
        else:
            raise ParseError(
                f"{path}: unknown record kind {kind} at byte offset {r.pos - 1}"
            )
    return model

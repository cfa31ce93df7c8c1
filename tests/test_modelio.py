import struct

import numpy as np
import pytest

from cerwu.engine import CompressionConfig, compress_layer
from cerwu.entropy import CONTEXT, COUNT_CAP, STATIC
from cerwu.errors import ParseError, ShapeError
from cerwu.grids import ROW_MAJOR
from cerwu.linalg import accumulate_hessian
from cerwu.modelio import (
    CompressedModel,
    QuantizedRecord,
    RawRecord,
    TensorFile,
    bits_per_weight,
    load_tensor_file,
    read_compressed,
    scale16_bits,
    unfold_convolution,
    write_compressed,
    write_tensor_file,
)


class TestTensorFile:
    def test_single_tensor_round_trip(self, tmp_path):
        tf = TensorFile()
        tf.add("w", np.zeros((2, 2), dtype=np.float32))
        path = tmp_path / "a.tns"
        write_tensor_file(tf, path)
        back = load_tensor_file(path)
        assert back["w"].shape == (2, 2)
        assert back["w"].dtype == np.float32
        assert path.stat().st_size == 4 + 6 + (2 + 1) + 2 + 8 + 16

    def test_version_one_layout(self, tmp_path):
        path = tmp_path / "v1.tns"
        path.write_bytes(
            b"TNSR" + struct.pack("<HIH", 1, 1, 1) + b"w"
            + struct.pack("<BBI", 0, 1, 2) + struct.pack("<2f", 1.5, -2.0)
        )
        assert load_tensor_file(path)["w"].tolist() == [1.5, -2.0]

    def test_empty_container(self, tmp_path):
        path = tmp_path / "empty.tns"
        write_tensor_file(TensorFile(), path)
        assert load_tensor_file(path).entries == {}

    def test_fuzz_round_trip_byte_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        for trial in range(20):
            tf = TensorFile()
            for e in range(int(rng.integers(0, 5))):
                ndim = int(rng.integers(1, 4))
                shape = tuple(int(s) for s in rng.integers(1, 6, size=ndim))
                tf.add(f"t{trial}.{e}", rng.normal(size=shape))
            p1 = tmp_path / f"f{trial}a.tns"
            p2 = tmp_path / f"f{trial}b.tns"
            write_tensor_file(tf, p1)
            write_tensor_file(load_tensor_file(p1), p2)
            assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_offset_zero(self, tmp_path):
        path = tmp_path / "bad.tns"
        path.write_bytes(b"JUNKxxxxxxx")
        with pytest.raises(ParseError, match="offset 0"):
            load_tensor_file(path)

    def test_truncation_reports_offset(self, tmp_path):
        tf = TensorFile()
        tf.add("w", np.ones((4, 4), dtype=np.float32))
        path = tmp_path / "t.tns"
        write_tensor_file(tf, path)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(ParseError, match="offset"):
            load_tensor_file(path)

    def test_unknown_dtype(self, tmp_path):
        tf = TensorFile()
        tf.add("w", np.ones((1, 1), dtype=np.float32))
        path = tmp_path / "d.tns"
        write_tensor_file(tf, path)
        data = bytearray(path.read_bytes())
        data[4 + 2 + 4 + 2 + 1] = 9  # dtype byte of the first entry
        path.write_bytes(bytes(data))
        with pytest.raises(ParseError, match="dtype"):
            load_tensor_file(path)

    def test_rejects_non_finite(self):
        tf = TensorFile()
        with pytest.raises(ShapeError):
            tf.add("w", np.array([np.inf]))


class TestUnfoldConvolution:
    def test_one_by_one_kernel(self):
        rng = np.random.default_rng(1)
        kernel = rng.normal(size=(4, 3, 1, 1))
        patches = rng.normal(size=(3, 7))
        w, x = unfold_convolution(kernel, patches)
        assert w.shape == (4, 3)
        assert np.array_equal(w, kernel[:, :, 0, 0])
        assert x is not kernel

    def test_identity_kernel_one_hot(self):
        kernel = np.zeros((1, 1, 3, 3))
        kernel[0, 0, 1, 1] = 1.0
        w, _ = unfold_convolution(kernel, np.zeros((9, 1)))
        assert w.tolist() == [[0, 0, 0, 0, 1, 0, 0, 0, 0]]

    def test_matmul_equals_direct_convolution(self):
        rng = np.random.default_rng(2)
        kernel = rng.normal(size=(2, 3, 3, 3)).astype(np.float32)
        patches = rng.normal(size=(27, 10)).astype(np.float32)
        w, x = unfold_convolution(kernel, patches)
        fast = w @ x
        direct = np.zeros((2, 10))
        for o in range(2):
            for p in range(10):
                field = patches[:, p].reshape(3, 3, 3)
                acc = 0.0
                for c in range(3):
                    for u in range(3):
                        for v in range(3):
                            acc += kernel[o, c, u, v] * field[c, u, v]
                direct[o, p] = acc
        assert np.max(np.abs(fast - direct)) <= 1e-5 * max(1.0, np.max(np.abs(direct)))

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            unfold_convolution(np.zeros((2, 3, 3, 3)), np.zeros((10, 4)))


def _quantized_record(rng, name="layer", model_kind=CONTEXT, k=5, n=6, m=8, lam=0.02):
    w = rng.normal(size=(n, m))
    h = accumulate_hessian([rng.normal(size=(m, 2 * m))])
    cfg = CompressionConfig(lam=lam, grid_size=k, model_kind=model_kind)
    result, payload, spec = compress_layer(w, h, cfg)
    return w, result, QuantizedRecord(
        name=name,
        rows=n,
        cols=m,
        grid_size=k,
        scan_order=ROW_MAJOR,
        model_kind=model_kind,
        scale16_bits=scale16_bits(result.quantized.grid.step),
        static_freqs=spec.static_counts if model_kind == STATIC else None,
        symbol_count=payload.symbol_count,
        payload=payload.data,
    )


class TestCompressedModel:
    def test_raw_record_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        arr = rng.normal(size=(3, 2)).astype(np.float32)
        cm = CompressedModel()
        cm.records.append(RawRecord("bias", arr.shape, arr.tobytes()))
        path = tmp_path / "raw.cwm"
        write_compressed(cm, path)
        back = read_compressed(path)
        assert np.array_equal(back.records[0].array(), arr)

    @pytest.mark.parametrize("model_kind", [STATIC, CONTEXT])
    def test_quantized_round_trip_bit_exact(self, tmp_path, model_kind):
        rng = np.random.default_rng(4)
        w, result, rec = _quantized_record(rng, model_kind=model_kind)
        cm = CompressedModel()
        cm.records.append(rec)
        path = tmp_path / "q.cwm"
        write_compressed(cm, path)
        back = read_compressed(path)
        layer = back.records[0].decode_layer()
        assert np.array_equal(layer.indices, result.quantized.indices)
        # dequantization agrees bit-exactly (same 16-bit scale both sides)
        assert np.array_equal(layer.dequantize(), result.quantized.dequantize())

    def test_file_round_trip_byte_identical(self, tmp_path):
        rng = np.random.default_rng(5)
        _, _, rec = _quantized_record(rng)
        cm = CompressedModel()
        cm.records.append(rec)
        cm.records.append(RawRecord("b", (4,), np.ones(4, dtype="<f4").tobytes()))
        p1, p2 = tmp_path / "a.cwm", tmp_path / "b.cwm"
        write_compressed(cm, p1)
        write_compressed(read_compressed(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_version_mismatch_names_supported(self, tmp_path):
        path = tmp_path / "v.cwm"
        write_compressed(CompressedModel(), path)
        data = bytearray(path.read_bytes())
        struct.pack_into("<H", data, 4, 99)
        path.write_bytes(bytes(data))
        with pytest.raises(ParseError, match="supported: 2"):
            read_compressed(path)

    def test_version_one_rejected(self, tmp_path):
        # version 1 coded adaptive payloads from re-quantized 2**15 tables
        rng = np.random.default_rng(8)
        _, _, rec = _quantized_record(rng)
        path = tmp_path / "v1.cwm"
        write_compressed(CompressedModel(records=[rec]), path)
        data = bytearray(path.read_bytes())
        struct.pack_into("<H", data, 4, 1)
        path.write_bytes(bytes(data))
        with pytest.raises(ParseError, match="version 1; supported: 2"):
            read_compressed(path)

    @pytest.mark.parametrize("model_kind", [STATIC, CONTEXT])
    def test_header_bytes_match_file_size(self, tmp_path, model_kind):
        rng = np.random.default_rng(9)
        _, _, rec = _quantized_record(rng, name="layér", model_kind=model_kind)
        path = tmp_path / "h.cwm"
        write_compressed(CompressedModel(records=[rec]), path)
        assert path.stat().st_size == 10 + rec.header_bytes() + len(rec.payload)

    def _hostile_copy(self, tmp_path, symbol_count, rows=None, cols=None):
        rng = np.random.default_rng(10)
        _, _, rec = _quantized_record(rng)
        path = tmp_path / "hostile.cwm"
        write_compressed(CompressedModel(records=[rec]), path)
        data = bytearray(path.read_bytes())
        counts_at = len(data) - len(rec.payload) - 16
        struct.pack_into("<Q", data, counts_at, symbol_count)
        shape_at = 10 + 2 + len(rec.name) + 1
        struct.pack_into("<II", data, shape_at, rows or rec.rows, cols or rec.cols)
        path.write_bytes(bytes(data))
        return path, rec

    def test_symbol_count_must_match_shape(self, tmp_path):
        path, _ = self._hostile_copy(tmp_path, 2**40)
        with pytest.raises(ParseError, match="symbols for a 6x8 layer"):
            read_compressed(path)

    def test_symbol_count_bounded_by_payload(self, tmp_path):
        # every symbol costs more than 1/COUNT_CAP bits, so a payload of
        # L bytes holds at most 8 * L * COUNT_CAP symbols
        path, rec = self._hostile_copy(tmp_path, 2**40, rows=2**20, cols=2**20)
        with pytest.raises(ParseError, match="-byte payload"):
            read_compressed(path)
        bound = 8 * len(rec.payload) * COUNT_CAP
        path, _ = self._hostile_copy(tmp_path, bound, rows=bound // 8, cols=8)
        assert read_compressed(path).quantized()[0].symbol_count == bound

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.cwm"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ParseError, match="CERW"):
            read_compressed(path)

    def test_bits_per_weight_formula(self):
        # 900-byte payload + 20-byte header on 1000 parameters
        assert bits_per_weight(920, 1000) == pytest.approx(7.36)

    def test_bits_per_weight_excludes_raw(self, tmp_path):
        rng = np.random.default_rng(6)
        _, _, rec = _quantized_record(rng)
        cm = CompressedModel()
        cm.records.append(rec)
        before = cm.bits_per_weight()
        cm.records.append(RawRecord("big", (1000,), b"\x00" * 4000))
        assert cm.bits_per_weight() == before

    def test_scale_survives_round_trip(self, tmp_path):
        # degenerate scale serializes as zero bits and reconstructs the guard
        rng = np.random.default_rng(7)
        w = np.zeros((2, 2))
        h = np.eye(2)
        cfg = CompressionConfig(lam=0.0, grid_size=5)
        result, payload, spec = compress_layer(w, h, cfg)
        rec = QuantizedRecord(
            name="z", rows=2, cols=2, grid_size=5, scan_order=ROW_MAJOR,
            model_kind="adaptive",
            scale16_bits=scale16_bits(result.quantized.grid.step),
            static_freqs=None, symbol_count=4, payload=payload.data,
        )
        assert rec.scale16_bits == 0
        assert rec.grid().step == result.quantized.grid.step

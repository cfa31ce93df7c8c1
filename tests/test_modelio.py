import builtins
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cerwu.engine import METHOD_CERWU, METHOD_RTN, CompressionConfig, compress_layer
from cerwu.entropy import CONTEXT, COUNT_CAP, MODEL_KINDS, STATIC
from cerwu.errors import CerwuError, ParseError, ShapeError
from cerwu.grids import ROW_MAJOR, SCAN_ORDERS
from cerwu.linalg import accumulate_hessian
from cerwu import modelio
from cerwu.modelio import (
    CompressedModel,
    QuantizedRecord,
    RawRecord,
    TensorFile,
    bits_per_weight,
    load_tensor_file,
    read_compressed,
    write_compressed,
    write_tensor_file,
)
from cerwu.pipeline import collect_hessians, compress_model, decompress_model

from conftest import DiskFull


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
            back = load_tensor_file(p1)
            # each array owns its data: none holds on to the file's buffer
            assert all(a.flags.owndata and a.flags.writeable for a in back.entries.values())
            write_tensor_file(back, p2)
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

    def test_repeated_name_is_parse_error(self, tmp_path):
        # two entries named "x": the second would silently replace the first
        def entry(value):
            return struct.pack("<H", 1) + b"x" + struct.pack("<BBIf", 0, 1, 1, value)

        path = tmp_path / "twice.tns"
        path.write_bytes(b"TNSR" + struct.pack("<HI", 1, 2) + entry(1.0) + entry(2.0))
        # preamble 10, the first entry 13, the second's name length 2
        with pytest.raises(ParseError, match=f"repeated name 'x' at byte offset {10 + 13 + 2}$"):
            load_tensor_file(path)

    def test_rejects_non_finite(self):
        tf = TensorFile()
        with pytest.raises(ShapeError):
            tf.add("w", np.array([np.inf]))


def _quantized_record(rng, name="layer", model_kind=CONTEXT, k=5, n=6, m=8, lam=0.02):
    w = rng.normal(size=(n, m))
    h = accumulate_hessian([rng.normal(size=(m, 2 * m))])
    cfg = CompressionConfig(lam=lam, grid_size=k, model_kind=model_kind)
    result, payload, model = compress_layer(w, h, cfg)
    return w, result, QuantizedRecord.of(name, result.quantized, model, payload)


class TestRecordOfLayer:
    """``QuantizedRecord.of`` builds the record ``compress_model`` stores,
    ``decode_layer`` inverts it and ``array`` reconstructs it."""

    @pytest.mark.parametrize("method", [METHOD_CERWU, METHOD_RTN])
    @pytest.mark.parametrize("scan_order", SCAN_ORDERS)
    @pytest.mark.parametrize("model_kind", MODEL_KINDS)
    def test_of_inverts_decode_layer(self, tmp_path, model_kind, scan_order, method):
        rng = np.random.default_rng(14)
        model_tf = TensorFile()
        model_tf.add("fc.weight", rng.normal(size=(6, 8)))
        w = model_tf["fc.weight"].astype(np.float64)
        h = accumulate_hessian([rng.normal(size=(8, 16))])
        cfg = CompressionConfig(lam=0.02, grid_size=5, scan_order=scan_order,
                                model_kind=model_kind, method=method)
        result, payload, model = compress_layer(w, h, cfg)
        rec = QuantizedRecord.of("fc.weight", result.quantized, model, payload)

        # every field is the one the weights, the config, the grid, the
        # model and the payload give
        grid = result.quantized.grid
        assert (rec.name, rec.rows, rec.cols, rec.grid_size, rec.scan_order, rec.model_kind,
                rec.step, rec.symbol_count, rec.payload) == (
            "fc.weight", 6, 8, 5, scan_order, model_kind, grid.step, 48, payload.data)
        if model_kind == STATIC:
            assert np.array_equal(rec.static_freqs, model.counts)
        else:
            assert rec.static_freqs is None
        stored = compress_model(model_tf, {"fc.weight": h}, cfg).compressed.quantized()
        assert [r.header() + r.payload for r in stored] == [rec.header() + rec.payload]

        path = tmp_path / "of.cwm"
        write_compressed(CompressedModel(records=[rec]), path)
        for back in (rec, read_compressed(path).quantized()[0]):
            layer = back.decode_layer()
            assert np.array_equal(layer.indices, result.quantized.indices)
            assert (layer.grid, layer.scan_order) == (grid, scan_order)
            decoded = back.array()
            assert decoded.dtype == np.float32 and decoded.shape == (6, 8)
            assert back.array(result.quantized).tobytes() == decoded.tobytes()


class TestEquality:
    """Records compare by their serialized bytes and containers by their
    names, dtypes, shapes and bytes; the generated equality compared
    ndarrays and raised."""

    def _static_record(self, name="fc.weight"):
        rng = np.random.default_rng(31)
        w = rng.normal(size=(4, 6))
        cfg = CompressionConfig(lam=0.0, grid_size=5, model_kind=STATIC, method=METHOD_RTN)
        result, payload, model = compress_layer(w, None, cfg)
        return QuantizedRecord.of(name, result.quantized, model, payload)

    def test_static_records(self):
        a, b = self._static_record(), self._static_record()
        assert a == b and not (a != b)
        assert a != self._static_record("other")
        assert a != RawRecord("fc.weight", (4, 6), bytes(96))

    def test_tensor_files(self):
        a, b = TensorFile(), TensorFile()
        for tf in (a, b):
            tf.add("w", np.arange(6.0).reshape(2, 3))
        assert a == b
        b.entries["w"] = b["w"].reshape(3, 2)
        assert a != b
        c = TensorFile()
        c.add("v", np.arange(6.0).reshape(2, 3))
        assert a != c
        assert TensorFile() == TensorFile() and a != TensorFile()

    def test_compressed_models(self, tmp_path):
        cm = CompressedModel(records=[self._static_record(),
                                      RawRecord("b", (2,), np.ones(2, dtype="<f4").tobytes())])
        path = tmp_path / "eq.cwm"
        write_compressed(cm, path)
        assert read_compressed(path) == cm
        assert CompressedModel(records=[self._static_record()]) != cm


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

    @pytest.mark.parametrize("kind", ["raw", "quantized"])
    def test_repeated_name_is_parse_error(self, tmp_path, kind):
        if kind == "raw":
            rec = RawRecord("a.bias", (2,), np.ones(2, dtype="<f4").tobytes())
        else:
            _, _, rec = _quantized_record(np.random.default_rng(15), name="a.bias")
        path = tmp_path / "twice.cwm"
        write_compressed(CompressedModel(records=[rec, rec]), path)
        # preamble 10, two equal records, then the second's name length 2
        second_at = (len(path.read_bytes()) + 10) // 2 + 2
        with pytest.raises(ParseError,
                           match=f"repeated name 'a.bias' at byte offset {second_at}$"):
            read_compressed(path)

    def test_version_mismatch_names_supported(self, tmp_path):
        path = tmp_path / "v.cwm"
        write_compressed(CompressedModel(), path)
        data = bytearray(path.read_bytes())
        struct.pack_into("<H", data, 4, 99)
        path.write_bytes(bytes(data))
        with pytest.raises(ParseError, match="supported: 3"):
            read_compressed(path)

    def test_version_one_rejected(self, tmp_path):
        # version 1 coded adaptive payloads from re-quantized 2**15 tables,
        # version 2 range-coded static payloads
        rng = np.random.default_rng(8)
        _, _, rec = _quantized_record(rng)
        path = tmp_path / "v1.cwm"
        write_compressed(CompressedModel(records=[rec]), path)
        data = bytearray(path.read_bytes())
        for version in (1, 2):
            struct.pack_into("<H", data, 4, version)
            path.write_bytes(bytes(data))
            with pytest.raises(ParseError, match=f"version {version}; supported: 3"):
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

    @pytest.mark.parametrize("model_kind", [STATIC, CONTEXT])
    def test_static_table_flag_must_fit_model_kind(self, tmp_path, model_kind):
        rng = np.random.default_rng(11)
        _, _, rec = _quantized_record(rng, model_kind=model_kind)
        # a table on an adaptive kind, or none on the static kind
        rec.static_freqs = None if model_kind == STATIC else np.ones(rec.grid_size)
        path = tmp_path / "flag.cwm"
        write_compressed(CompressedModel(records=[rec]), path)
        with pytest.raises(ParseError, match=f"flag .* {model_kind} model at byte offset"):
            read_compressed(path)

    def test_static_table_must_be_fitted(self, tmp_path):
        # every writer stores a fitted table (each frequency >= 1, total
        # 2**15), so any change to one of its bytes breaks the total
        rng = np.random.default_rng(11)
        _, _, rec = _quantized_record(rng, model_kind=STATIC, k=3)
        path = tmp_path / "table.cwm"
        write_compressed(CompressedModel(records=[rec]), path)
        data = path.read_bytes()
        # preamble 10, then the header up to its symbol and payload counts
        table_at = 10 + rec.header_bytes() - 16 - 2 * rec.grid_size
        table = np.asarray(rec.static_freqs, dtype="<u2").tobytes()
        assert data[table_at : table_at + len(table)] == table
        for at in range(table_at, table_at + len(table)):
            for mask in range(1, 256):
                mutant = bytearray(data)
                mutant[at] ^= mask
                path.write_bytes(bytes(mutant))
                with pytest.raises(ParseError, match=f"'layer' has an unfitted static "
                                   f"table at byte offset {table_at} "):
                    read_compressed(path)

    @pytest.mark.parametrize("grid_size", [1, 2, 2**15, 2**15 + 1])
    def test_grid_size_bounds(self, tmp_path, grid_size):
        rec = QuantizedRecord(
            name="q", rows=1, cols=2, grid_size=grid_size, scan_order=ROW_MAJOR,
            model_kind=CONTEXT, step=0.1, static_freqs=None,
            symbol_count=2, payload=bytes(16),
        )
        path = tmp_path / "g.cwm"
        write_compressed(CompressedModel(records=[rec]), path)
        if 2 <= grid_size <= 2**15:
            assert read_compressed(path).quantized()[0].grid_size == grid_size
        else:
            # preamble 10, name length 2, name 1, kind 1, rows 4, cols 4
            with pytest.raises(ParseError, match="grid size .* at byte offset 22"):
                read_compressed(path)

    # -0.1 and -0.0 are a written step with its binary16 sign bit flipped
    @pytest.mark.parametrize("step", [np.inf, np.nan, -0.1, -0.0])
    def test_non_finite_step_rejected(self, tmp_path, step):
        rec = QuantizedRecord(
            name="q", rows=1, cols=2, grid_size=5, scan_order=ROW_MAJOR,
            model_kind=CONTEXT, step=step, static_freqs=None,
            symbol_count=2, payload=bytes(16),
        )
        path = tmp_path / "s.cwm"
        write_compressed(CompressedModel(records=[rec]), path)
        with pytest.raises(ParseError, match="'q' has a non-finite or negative grid step"):
            read_compressed(path)

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
        result, payload, model = compress_layer(w, h, cfg)
        rec = QuantizedRecord(
            name="z", rows=2, cols=2, grid_size=5, scan_order=ROW_MAJOR,
            model_kind="adaptive", step=result.quantized.grid.step,
            static_freqs=None, symbol_count=4, payload=payload.data,
        )
        # the scale sits before the table flag (1 byte) and the counts (16)
        assert rec.header()[-19:-17] == b"\x00\x00"
        assert rec.grid().step == result.quantized.grid.step
        path = tmp_path / "z.cwm"
        write_compressed(CompressedModel(records=[rec]), path)
        assert read_compressed(path).quantized()[0].grid().step == result.quantized.grid.step


@pytest.mark.parametrize("what", ["tns", "cwm", "hcache"])
def test_write_failing_midway_leaves_file_untouched(tmp_path, monkeypatch, what):
    rng = np.random.default_rng(12)
    model_tf = TensorFile()
    model_tf.add("fc.weight", rng.normal(size=(16, 12)))
    calib_tf = TensorFile()
    calib_tf.add("fc.weight.activations", rng.normal(size=(12, 40)))
    calib_path = tmp_path / "calib.tns"
    write_tensor_file(calib_tf, calib_path)
    path = tmp_path / {"tns": "out.tns", "cwm": "out.cwm", "hcache": "calib.tns.hcache.npz"}[what]
    if what == "tns":
        write = lambda: write_tensor_file(model_tf, path)
    elif what == "cwm":
        _, _, rec = _quantized_record(rng)
        write = lambda: write_compressed(CompressedModel(records=[rec]), path)
    else:
        write = lambda: collect_hessians(model_tf, calib_tf, calib_path, cache_path=path)
    path.write_bytes(b"previous contents")
    monkeypatch.setattr(
        modelio, "open", lambda p, mode: DiskFull(builtins.open(p, mode), 20), raising=False
    )
    with pytest.raises(OSError, match="No space"):
        write()
    assert path.read_bytes() == b"previous contents"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["calib.tns", path.name]


@pytest.fixture(scope="module")
def sample_files(tmp_path_factory):
    """Bytes of a small .tns and of small static and context .cwm files.

    The .tns holds ``w = [1.5, -2.0]`` first: its name byte sits at offset
    12 and the top byte of 1.5 at offset 22. Each .cwm starts with the raw
    record ``fc.bias`` of shape (3,): its name starts at offset 12 and the
    low byte of its one dimension sits at offset 22.
    """
    d = tmp_path_factory.mktemp("samples")
    tf = TensorFile()
    tf.add("w", np.array([1.5, -2.0]))
    tf.add("m", np.arange(6.0).reshape(2, 3))
    write_tensor_file(tf, d / "s.tns")
    files = {"tns": (d / "s.tns").read_bytes()}
    rng = np.random.default_rng(12)
    model = TensorFile()
    model.add("fc.bias", rng.normal(size=3))
    model.add("fc.weight", rng.normal(size=(3, 4)))
    for kind in (STATIC, CONTEXT):
        cfg = CompressionConfig(lam=0.0, grid_size=5, model_kind=kind, method="rtn")
        write_compressed(compress_model(model, {}, cfg).compressed, d / kind)
        files[kind] = (d / kind).read_bytes()
    return files


class TestHostileBytes:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        which=st.sampled_from(["tns", STATIC, CONTEXT]),
        truncate=st.booleans(),
        at=st.integers(0, 2**16),
        mask=st.integers(1, 255),
    )
    @example(which="tns", truncate=False, at=12, mask=0x88)  # name byte 0xFF
    @example(which="tns", truncate=False, at=22, mask=0x40)  # 1.5 becomes NaN
    @example(which=CONTEXT, truncate=False, at=12, mask=0x99)  # name byte 0xFF
    @example(which=STATIC, truncate=False, at=22, mask=0x01)  # 12 bytes for shape (2,)
    def test_truncated_or_flipped_file_loads_finite_or_raises_cerwu_error(
        self, sample_files, tmp_path_factory, which, truncate, at, mask
    ):
        data = bytearray(sample_files[which])
        at %= len(data)
        if truncate:
            del data[at:]
        else:
            data[at] ^= mask
        path = tmp_path_factory.getbasetemp() / "mutant"
        path.write_bytes(bytes(data))
        try:
            if which == "tns":
                tf = load_tensor_file(path)
            else:
                tf = decompress_model(read_compressed(path))
        except CerwuError:
            return
        assert all(np.isfinite(a).all() for a in tf.entries.values())

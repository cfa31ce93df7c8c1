import builtins
import re
import struct

import numpy as np
import pytest

from cerwu import modelio
from cerwu.cli import main
from cerwu.engine import CompressionConfig, compress_layer
from cerwu.linalg import accumulate_hessian
from cerwu.modelio import (
    CompressedModel, QuantizedRecord, RawRecord, TensorFile, load_tensor_file,
    read_compressed, write_compressed, write_tensor_file,
)
from cerwu.oracle import evaluate_objective
from cerwu.pipeline import compress_model
from cerwu.sweep import CSV_COLUMNS, points_from_csv

from conftest import DiskFull


def write_diag_model(tmp_path, rng, m=6, n=4, layers=1):
    """Model whose calibration activations give a diagonal Hessian."""
    model = TensorFile()
    calib = TensorFile()
    for i in range(layers):
        w = rng.normal(size=(n, m))
        model.add(f"fc{i}.weight", w)
        model.add(f"fc{i}.bias", rng.normal(size=n))
        calib.add(f"fc{i}.weight.activations", np.diag(rng.uniform(0.5, 2.0, size=m)))
    model_path = tmp_path / "model.tns"
    calib_path = tmp_path / "calib.tns"
    write_tensor_file(model, model_path)
    write_tensor_file(calib, calib_path)
    return model_path, calib_path


class TestCompressDecompressEval:
    def test_full_cycle(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        model_path, calib_path = write_diag_model(tmp_path, rng)
        out = tmp_path / "out.cwm"
        rc = main([
            "compress", "--model", str(model_path), "--calib", str(calib_path),
            "--lambda", "0.01", "--grid-size", "9", "--out", str(out),
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "bpw" in text and "wall" in text

        recon = tmp_path / "recon.tns"
        assert main(["decompress", "--input", str(out), "--out", str(recon)]) == 0
        tf = load_tensor_file(recon)
        assert set(tf.entries) == {"fc0.weight", "fc0.bias"}

        assert main([
            "eval", "--model", str(model_path), "--compressed", str(out),
            "--calib", str(calib_path),
        ]) == 0
        assert "total loss" in capsys.readouterr().out

    def test_eval_accepts_tensor_container(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        model_path, calib_path = write_diag_model(tmp_path, rng)
        rc = main([
            "eval", "--model", str(model_path), "--compressed", str(model_path),
            "--calib", str(calib_path),
        ])
        assert rc == 0
        assert "total loss 0" in capsys.readouterr().out

    def test_lambda_zero_diagonal_matches_rtn_bytes(self, tmp_path):
        rng = np.random.default_rng(2)
        model_path, calib_path = write_diag_model(tmp_path, rng)
        a, b = tmp_path / "a.cwm", tmp_path / "b.cwm"
        assert main([
            "compress", "--model", str(model_path), "--calib", str(calib_path),
            "--lambda", "0", "--grid-size", "3", "--delta", "0",
            "--model-kind", "context", "--out", str(a),
        ]) == 0
        assert main([
            "compress", "--model", str(model_path), "--calib", str(calib_path),
            "--grid-size", "3", "--method", "rtn", "--model-kind", "context",
            "--out", str(b),
        ]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_hessian_cache_reused(self, tmp_path, caplog):
        import logging

        rng = np.random.default_rng(3)
        model_path, calib_path = write_diag_model(tmp_path, rng)
        with caplog.at_level(logging.INFO, logger="cerwu"):
            main(["compress", "--model", str(model_path), "--calib", str(calib_path),
                  "--lambda", "0.001", "--grid-size", "5",
                  "--out", str(tmp_path / "x.cwm")])
            assert not any("cache hit" in r.message for r in caplog.records)
            caplog.clear()
            main(["compress", "--model", str(model_path), "--calib", str(calib_path),
                  "--lambda", "0.02", "--grid-size", "5",
                  "--out", str(tmp_path / "y.cwm")])
            assert any("cache hit" in r.message for r in caplog.records)

    def test_constant_layers_keep_their_sign(self, tmp_path):
        # a constant layer has zero variance: its Gaussian fit is degenerate
        rng = np.random.default_rng(4)
        model, calib = TensorFile(), TensorFile()
        for name, value in (("pos", 0.5), ("neg", -0.25), ("zero", 0.0)):
            model.add(f"{name}.weight", np.full((4, 16), value))
            calib.add(f"{name}.weight.activations", rng.normal(size=(16, 64)))
        write_tensor_file(model, tmp_path / "model.tns")
        write_tensor_file(calib, tmp_path / "calib.tns")
        out, recon = tmp_path / "out.cwm", tmp_path / "recon.tns"
        assert main([
            "compress", "--model", str(tmp_path / "model.tns"),
            "--calib", str(tmp_path / "calib.tns"), "--lambda", "0.03", "--out", str(out),
        ]) == 0
        assert main(["decompress", "--input", str(out), "--out", str(recon)]) == 0
        back = load_tensor_file(recon)
        for name, w in model.entries.items():
            assert np.array_equal(np.sign(back.entries[name]), np.sign(w)), name

    @pytest.mark.parametrize("kind", ["static", "context"])
    def test_layer_lines_show_rounds(self, tmp_path, capsys, kind):
        # a static layer takes one round; the layer of 10 rows is walked,
        # one round per entry; the 80-row layer takes the speculative pass,
        # in fewer rounds than entries
        rng = np.random.default_rng(2)
        model, calib = TensorFile(), TensorFile()
        for name, (rows, cols) in {"a.weight": (80, 16), "b.weight": (10, 80)}.items():
            model.add(name, rng.normal(size=(rows, cols)) / 4)
            calib.add(name + ".activations", rng.normal(size=(cols, 64)))
        mp, cp = tmp_path / "model.tns", tmp_path / "calib.tns"
        write_tensor_file(model, mp)
        write_tensor_file(calib, cp)
        capsys.readouterr()
        assert main(["compress", "--model", str(mp), "--calib", str(cp), "--lambda", "0.03",
                     "--grid-size", "9", "--model-kind", kind,
                     "--out", str(tmp_path / "m.cwm")]) == 0
        rounds = dict(re.findall(r"^layer (\S+): .*, rounds (\d+), [0-9.]+ bits predicted, \d+ paid$",
                                 capsys.readouterr().out, re.M))
        if kind == "static":
            assert rounds == {"a.weight": "1", "b.weight": "1"}
        else:
            assert rounds["b.weight"] == "800" and 1 < int(rounds["a.weight"]) < 80 * 16


class TestErrors:
    def test_missing_file_is_input_error(self, tmp_path):
        rc = main(["decompress", "--input", str(tmp_path / "no.cwm"),
                   "--out", str(tmp_path / "o.tns")])
        assert rc == 1

    @pytest.mark.parametrize("argv", [
        "decompress --input DIR --out OUT",
        "eval --model MODEL --compressed DIR --calib CALIB",
        "compress --model DIR --calib CALIB --out OUT",
    ], ids=["decompress", "eval", "compress"])
    def test_directory_as_file_is_input_error(self, tmp_path, capsys, argv):
        model_path, calib_path = write_diag_model(tmp_path, np.random.default_rng(6))
        paths = {"DIR": tmp_path, "MODEL": model_path, "CALIB": calib_path, "OUT": tmp_path / "o"}
        capsys.readouterr()
        assert main([str(paths.get(a, a)) for a in argv.split()]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_missing_activations_names_layer(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        model = TensorFile()
        model.add("alpha.weight", rng.normal(size=(3, 4)))
        calib = TensorFile()
        mp, cp = tmp_path / "m.tns", tmp_path / "c.tns"
        write_tensor_file(model, mp)
        write_tensor_file(calib, cp)
        rc = main(["compress", "--model", str(mp), "--calib", str(cp),
                   "--out", str(tmp_path / "o.cwm")])
        assert rc == 1
        assert "alpha.weight" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["activation-height", "1-d-features", "bias-length"])
    def test_eval_input_shapes_are_input_errors(self, tmp_path, capsys, bad):
        rng = np.random.default_rng(7)
        model_path, calib_path = write_diag_model(tmp_path, rng)  # fc0.weight is 4 x 6
        test = TensorFile()
        test.add("test.labels", np.zeros(1))
        test.add("test.features", rng.normal(size=6 if bad == "1-d-features" else (1, 6)))
        if bad == "activation-height":
            calib = TensorFile()
            calib.add("fc0.weight.activations", rng.normal(size=(5, 8)))
            write_tensor_file(calib, calib_path)
        elif bad == "bias-length":
            model = load_tensor_file(model_path)
            model.add("fc0.bias", np.zeros(3))
            write_tensor_file(model, model_path)
        test_path = tmp_path / "test.tns"
        write_tensor_file(test, test_path)
        capsys.readouterr()
        assert main(["eval", "--model", str(model_path), "--compressed", str(model_path),
                     "--calib", str(calib_path), "--test", str(test_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_bad_container_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.tns"
        bad.write_bytes(b"garbage!")
        rc = main(["decompress", "--input", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 1

    def _compressed(self, tmp_path):
        model_path, calib_path = write_diag_model(tmp_path, np.random.default_rng(5))
        out = tmp_path / "out.cwm"
        assert main([
            "compress", "--model", str(model_path), "--calib", str(calib_path),
            "--lambda", "0.01", "--model-kind", "context", "--out", str(out),
        ]) == 0
        return out

    def test_hostile_symbol_count_is_input_error(self, tmp_path, capsys):
        out = self._compressed(tmp_path)
        payload = read_compressed(out).quantized()[0].payload
        data = bytearray(out.read_bytes())
        struct.pack_into("<Q", data, data.index(payload) - 16, 2**40)
        out.write_bytes(bytes(data))
        capsys.readouterr()
        rc = main(["decompress", "--input", str(out), "--out", str(tmp_path / "o.tns")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_unallocatable_record_is_input_error(self, tmp_path, capsys):
        # 2^40 symbols pass the header checks with a 2 MiB payload. The
        # decoder grows its output as it goes, so nothing that size is
        # allocated: the 0xFF payload stops decoding at symbol 0.
        rec = QuantizedRecord(
            name="huge.weight", rows=2**20, cols=2**20, grid_size=9,
            scan_order="row-major", model_kind="context",
            step=0.1, static_freqs=None,
            symbol_count=2**40, payload=b"\xff" * 2**21,
        )
        path = tmp_path / "huge.cwm"
        write_compressed(CompressedModel(records=[rec]), path)
        capsys.readouterr()
        rc = main(["decompress", "--input", str(path), "--out", str(tmp_path / "o.tns")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert "huge.weight" in err and str(2**40) in err

    def test_negative_grid_step_is_input_error(self, tmp_path, capsys):
        out = self._compressed(tmp_path)
        data = bytearray(out.read_bytes())
        # the binary16 step's high byte follows the name, the kind byte,
        # rows, cols and grid size (u32 each) and the scan and model codes
        at = data.index(b"fc0.weight\x00") + len("fc0.weight") + 1 + 12 + 2 + 1
        data[at] ^= 0x80
        out.write_bytes(bytes(data))
        capsys.readouterr()
        rc = main(["decompress", "--input", str(out), "--out", str(tmp_path / "o.tns")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert "record 'fc0.weight' has a non-finite or negative grid step -" in err
        assert not (tmp_path / "o.tns").exists()

    @pytest.mark.parametrize("argv", [
        ["compress", "--model", "m.tns", "--out", "o.cwm"],
        ["compress", "--model", "m.tns", "--calib", "c.tns", "--out", "o.cwm",
         "--lambda", "abc"],
        ["--threads", "0", "sweep", "--model", "m.tns", "--calib", "c.tns",
         "--csv-out", "o.csv"],
        ["frobnicate"],
    ], ids=["missing-calib", "lambda-abc", "threads-0", "unknown-command"])
    def test_usage_error_is_input_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: cerwu") and "Traceback" not in err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and errors == err.splitlines()[-1:]

    @pytest.mark.parametrize("grid_size", [1, 2**15 + 1])
    def test_grid_size_out_of_range_is_input_error(self, tmp_path, capsys, grid_size):
        rec = QuantizedRecord(
            name="fc0.weight", rows=2, cols=2, grid_size=grid_size,
            scan_order="row-major", model_kind="context",
            step=0.1, static_freqs=None,
            symbol_count=4, payload=bytes(16),
        )
        path = tmp_path / "grid.cwm"
        write_compressed(CompressedModel(records=[rec]), path)
        self._assert_parse_error(
            capsys, ["decompress", "--input", str(path), "--out", str(tmp_path / "o.tns")]
        )

    def test_version_one_file_is_input_error(self, tmp_path, capsys):
        out = self._compressed(tmp_path)
        data = bytearray(out.read_bytes())
        struct.pack_into("<H", data, 4, 1)
        out.write_bytes(bytes(data))
        capsys.readouterr()
        rc = main(["decompress", "--input", str(out), "--out", str(tmp_path / "o.tns")])
        assert rc == 1
        assert "supported: 2" in capsys.readouterr().err

    def _assert_parse_error(self, capsys, argv):
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "byte offset" in err and "Traceback" not in err

    def _compress_argv(self, tmp_path, tns_path):
        return ["compress", "--model", str(tns_path), "--calib", str(tns_path),
                "--out", str(tmp_path / "o.cwm")]

    def test_raw_record_length_must_fit_shape(self, tmp_path, capsys):
        path = tmp_path / "raw.cwm"
        rec = RawRecord("fc0.bias", (3,), np.zeros(2, dtype="<f4").tobytes())
        write_compressed(CompressedModel(records=[rec]), path)
        self._assert_parse_error(
            capsys, ["decompress", "--input", str(path), "--out", str(tmp_path / "o.tns")]
        )

    @pytest.mark.parametrize("suffix", [".tns", ".cwm"])
    def test_name_must_be_utf8(self, tmp_path, capsys, suffix):
        path = tmp_path / ("bad" + suffix)
        if suffix == ".tns":
            tf = TensorFile()
            tf.add("fc0.weight", np.ones((2, 2)))
            write_tensor_file(tf, path)
            argv = self._compress_argv(tmp_path, path)
        else:
            rec = RawRecord("fc0.bias", (1,), np.ones(1, dtype="<f4").tobytes())
            write_compressed(CompressedModel(records=[rec]), path)
            argv = ["decompress", "--input", str(path), "--out", str(tmp_path / "o.tns")]
        path.write_bytes(path.read_bytes().replace(b"fc0", b"\xff\xfe0"))
        self._assert_parse_error(capsys, argv)

    def test_tensor_values_must_be_finite(self, tmp_path, capsys):
        path = tmp_path / "nan.tns"
        tf = TensorFile()
        tf.add("fc0.weight", np.full((2, 2), 1.5))
        write_tensor_file(tf, path)
        data = bytearray(path.read_bytes())
        struct.pack_into("<f", data, data.index(struct.pack("<f", 1.5)), np.nan)
        path.write_bytes(bytes(data))
        self._assert_parse_error(capsys, self._compress_argv(tmp_path, path))

    @pytest.mark.parametrize("method", ["cerwu", "rtn"])
    @pytest.mark.parametrize("peak, rc", [(4 * 65504.0, 0), (3e5, 1), (1e38, 1)])
    def test_grid_step_beyond_binary16_names_layer(self, tmp_path, capsys, method, peak, rc):
        # at k=9 the step is max|W| / 4, stored as binary16 (at most 65504):
        # a larger step would clip every weight beyond +-262016
        rng = np.random.default_rng(9)
        w = rng.normal(size=(4, 6))
        w[1, 2] = peak
        model, calib = TensorFile(), TensorFile()
        model.add("big.weight", w)
        calib.add("big.weight.activations", rng.normal(size=(6, 12)))
        mp, cp = tmp_path / "m.tns", tmp_path / "c.tns"
        write_tensor_file(model, mp)
        write_tensor_file(calib, cp)
        capsys.readouterr()
        assert main(["compress", "--model", str(mp), "--calib", str(cp), "--grid-size", "9",
                     "--method", method, "--out", str(tmp_path / "o.cwm")]) == rc
        err = capsys.readouterr().err
        if rc:
            assert err.startswith("error:") and "'big.weight'" in err and "65504" in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("method", ["cerwu", "rtn"])
    @pytest.mark.parametrize("peak, rc", [(3e-7, 0), (1e-7, 1)])
    def test_grid_step_below_binary16_names_layer(self, tmp_path, capsys, method, peak, rc):
        # at k=9 a step of max|W| / 4 below 2^-25 rounds to zero in
        # binary16; the degenerate step in its place would zero the layer
        rng = np.random.default_rng(10)
        w = rng.normal(size=(4, 6))
        w *= peak / np.max(np.abs(w))
        model, calib = TensorFile(), TensorFile()
        model.add("tiny.weight", w)
        calib.add("tiny.weight.activations", rng.normal(size=(6, 12)))
        mp, cp = tmp_path / "m.tns", tmp_path / "c.tns"
        write_tensor_file(model, mp)
        write_tensor_file(calib, cp)
        capsys.readouterr()
        assert main(["compress", "--model", str(mp), "--calib", str(cp), "--grid-size", "9",
                     "--method", method, "--out", str(tmp_path / "o.cwm")]) == rc
        err = capsys.readouterr().err
        if rc:
            assert err.startswith("error:") and "'tiny.weight'" in err and "binary16" in err
            assert "Traceback" not in err
        else:
            assert (tmp_path / "o.cwm").exists()

    def test_vanishing_activations_are_input_error(self, tmp_path, capsys):
        # activations of 1e-160 are stored as float32 zeros, so the Hessian
        # is zero: exit 1 with an error line, not an internal error
        rng = np.random.default_rng(11)
        model, calib = TensorFile(), TensorFile()
        model.add("fc.weight", rng.normal(size=(4, 6)))
        calib.add("fc.weight.activations", rng.normal(size=(6, 12)) * 1e-160)
        mp, cp = tmp_path / "m.tns", tmp_path / "c.tns"
        write_tensor_file(model, mp)
        write_tensor_file(calib, cp)
        capsys.readouterr()
        assert main(["compress", "--model", str(mp), "--calib", str(cp),
                     "--out", str(tmp_path / "o.cwm")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "zero or subnormal" in err
        assert "Traceback" not in err and not (tmp_path / "o.cwm").exists()

    @pytest.mark.parametrize("command,flags", [
        ("compress", ["--lambda", "nan"]), ("compress", ["--lambda", "inf"]),
        ("compress", ["--lambda", "-1"]), ("compress", ["--delta", "nan"]),
        ("compress", ["--delta", "inf"]), ("compress", ["--delta", "-1"]),
        ("sweep", ["--lambdas", "nan", "0.01"]), ("sweep", ["--delta", "inf"]),
        ("sweep", ["--lambdas", "-1", "0.01"]), ("sweep", ["--delta", "nan"]),
        ("sweep", ["--lambdas", "inf"]),
    ], ids=lambda v: v if isinstance(v, str) else v[0].lstrip("-") + "=" + v[1])
    def test_bad_lambda_or_delta_is_input_error(self, tmp_path, capsys, command, flags):
        model_path, calib_path = write_diag_model(tmp_path, np.random.default_rng(8))
        out = tmp_path / "out"
        out_flag = "--out" if command == "compress" else "--csv-out"
        capsys.readouterr()
        assert main([command, "--model", str(model_path), "--calib", str(calib_path),
                     out_flag, str(out), *flags]) == 1
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "finite and nonnegative" in errors[0]
        assert "Traceback" not in err and not out.exists()
        # rejected before any Hessian work
        assert not (tmp_path / "calib.tns.hcache.npz").exists()

    @pytest.mark.parametrize("shift", ["fraction", "negative", "huge"])
    def test_labels_must_be_class_indices(self, tmp_path, capsys, shift):
        # labels that casting to integers would truncate or that name no
        # output are refused by eval and by sweep before any row runs
        rng = np.random.default_rng(9)
        model_path, calib_path = write_diag_model(tmp_path, rng)  # 4 outputs
        y = rng.integers(0, 4, size=5).astype(np.float64)
        labels = {"fraction": y + 0.5, "negative": -y - 1, "huge": y + 1e30}[shift]
        test = TensorFile()
        test.add("test.features", rng.normal(size=(5, 6)))
        test.add("test.labels", labels)
        test_path = tmp_path / "test.tns"
        write_tensor_file(test, test_path)
        csv_path = tmp_path / "sweep.csv"
        for argv in (
            ["eval", "--model", str(model_path), "--compressed", str(model_path),
             "--calib", str(calib_path), "--test", str(test_path)],
            ["sweep", "--model", str(model_path), "--calib", str(calib_path),
             "--test", str(test_path), "--lambdas", "0.01", "--grid-sizes", "3",
             "--csv-out", str(csv_path)],
        ):
            capsys.readouterr()
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert [line for line in err.splitlines() if line.startswith("error:")] == [
                "error: test.labels: every label must be an integer in [0, 4)"]
            assert "Traceback" not in err
        assert not csv_path.exists()

    @pytest.mark.parametrize("command", ["eval", "sweep"])
    def test_empty_test_set_is_input_error(self, tmp_path, capsys, command):
        # no samples has no accuracy: eval, and sweep before any row runs,
        # refuse it rather than report NaN
        rng = np.random.default_rng(10)
        model_path, calib_path = write_diag_model(tmp_path, rng)
        test = TensorFile()
        test.add("test.features", np.zeros((0, 6)))
        test.add("test.labels", np.zeros(0))
        test_path = tmp_path / "test.tns"
        write_tensor_file(test, test_path)
        csv_path = tmp_path / "sweep.csv"
        argv = {
            "eval": ["eval", "--model", str(model_path), "--compressed", str(model_path),
                     "--calib", str(calib_path), "--test", str(test_path)],
            "sweep": ["sweep", "--model", str(model_path), "--calib", str(calib_path),
                      "--test", str(test_path), "--lambdas", "0.01", "--grid-sizes", "3",
                      "--csv-out", str(csv_path)],
        }[command]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            "error: test.labels: the test set has no samples"]
        assert "Traceback" not in err and "RuntimeWarning" not in err
        assert not csv_path.exists()


    @pytest.mark.parametrize("command,flags", [
        ("compress", ["--grid-size", "40000"]), ("sweep", ["--grid-sizes", "9", "40000"]),
    ], ids=["compress", "sweep"])
    def test_grid_size_above_model_cap_is_input_error(self, tmp_path, capsys, command, flags):
        model_path, calib_path = write_diag_model(tmp_path, np.random.default_rng(11))
        out = tmp_path / "out"
        out_flag = "--out" if command == "compress" else "--csv-out"
        capsys.readouterr()
        assert main([command, "--model", str(model_path), "--calib", str(calib_path),
                     out_flag, str(out), *flags]) == 1
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            "error: grid_size must lie in [2, 32768], got 40000"]
        assert "Traceback" not in err and not out.exists()
        # rejected before any Hessian work
        assert not (tmp_path / "calib.tns.hcache.npz").exists()

    @staticmethod
    def _model_argv(command, model_path, calib_path, out):
        """``command`` on ``model_path``; eval evaluates the model file itself."""
        rest = {"compress": ["--out", str(out), "--lambda", "0.01"],
                "sweep": ["--csv-out", str(out), "--lambdas", "0.01"],
                "eval": ["--compressed", str(model_path)]}[command]
        return [command, "--model", str(model_path), "--calib", str(calib_path), *rest]

    @pytest.mark.parametrize("command", ["compress", "sweep", "eval"])
    def test_model_with_nothing_to_quantize_is_input_error(self, tmp_path, capsys, command):
        # a bias-only model is refused before any Hessian work, and leaves
        # no compressed file, CSV or Hessian cache behind; eval would report
        # a total loss of 0 over no layers
        model_path, calib_path = write_diag_model(tmp_path, np.random.default_rng(12))
        model = load_tensor_file(model_path)
        biases = TensorFile()
        biases.add("fc0.bias", model["fc0.bias"])
        write_tensor_file(biases, model_path)
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(self._model_argv(command, model_path, calib_path, out)) == 1
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            f"error: {model_path}: no 2-D or 4-D tensor to quantize"]
        assert "Traceback" not in err and not out.exists()
        assert not (tmp_path / "calib.tns.hcache.npz").exists()

    @pytest.mark.parametrize("command", ["compress", "sweep", "eval"])
    @pytest.mark.parametrize("shape", [(0, 6), (0, 6, 1, 1)], ids=["matrix", "kernel"])
    def test_empty_entry_is_input_error(self, tmp_path, capsys, command, shape):
        # an entry with no rows (a kernel with no output channels) is refused
        # before any Hessian work, and leaves no compressed file, CSV or
        # Hessian cache behind
        model_path, calib_path = write_diag_model(tmp_path, np.random.default_rng(13))
        model = load_tensor_file(model_path)
        model.add("fc0.weight", np.zeros(shape))
        write_tensor_file(model, model_path)
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(self._model_argv(command, model_path, calib_path, out)) == 1
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            f"error: {model_path}: entry 'fc0.weight' of shape {shape} is empty"]
        assert "Traceback" not in err and not out.exists()
        assert not (tmp_path / "calib.tns.hcache.npz").exists()

    def test_repeated_record_name_is_input_error(self, tmp_path, capsys):
        # two raw records named a.bias would decompress to one tensor
        rec = RawRecord("a.bias", (2,), np.ones(2, dtype="<f4").tobytes())
        path = tmp_path / "twice.cwm"
        write_compressed(CompressedModel(records=[rec, rec]), path)
        out = tmp_path / "o.tns"
        capsys.readouterr()
        assert main(["decompress", "--input", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert "repeated name 'a.bias' at byte offset" in err
        assert not out.exists()

    def test_sweep_checks_test_set_before_hessian_work(self, tmp_path, capsys):
        model_path, calib_path = write_diag_model(tmp_path, np.random.default_rng(10))
        test = TensorFile()
        test.add("test.features", np.zeros((0, 6)))
        test.add("test.labels", np.zeros(0))
        test_path = tmp_path / "test.tns"
        write_tensor_file(test, test_path)
        assert main(["sweep", "--model", str(model_path), "--calib", str(calib_path),
                     "--test", str(test_path), "--lambdas", "0.01", "--grid-sizes", "3",
                     "--csv-out", str(tmp_path / "sweep.csv")]) == 1
        assert "the test set has no samples" in capsys.readouterr().err
        assert not (tmp_path / "calib.tns.hcache.npz").exists()


class TestSweepPareto:
    def test_sweep_rows_and_pareto(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        model_path, calib_path = write_diag_model(tmp_path, rng)
        csv_path = tmp_path / "sweep.csv"
        rc = main([
            "sweep", "--model", str(model_path), "--calib", str(calib_path),
            "--lambdas", "0.0001", "0.01", "--grid-sizes", "3", "5",
            "--csv-out", str(csv_path),
        ])
        assert rc == 0
        text = csv_path.read_text()
        lines = text.strip().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + 4

        front_path = tmp_path / "front.csv"
        assert main(["pareto", "--csv-in", str(csv_path),
                     "--csv-out", str(front_path)]) == 0
        front = points_from_csv(front_path.read_text())
        assert 1 <= len(front) <= 4

    @pytest.mark.parametrize("command", ["sweep", "pareto"])
    def test_failed_csv_write_leaves_file_intact(self, tmp_path, monkeypatch, capsys,
                                                 command):
        rng = np.random.default_rng(8)
        model_path, calib_path = write_diag_model(tmp_path, rng)
        sweep_csv = tmp_path / "sweep.csv"
        sweep = ["sweep", "--model", str(model_path), "--calib", str(calib_path),
                 "--lambdas", "0.01", "--grid-sizes", "3", "5", "--csv-out", str(sweep_csv)]
        assert main(sweep) == 0  # also leaves the Hessian cache, so a rerun only writes the CSV
        out = sweep_csv if command == "sweep" else tmp_path / "front.csv"
        argv = sweep if command == "sweep" else [
            "pareto", "--csv-in", str(sweep_csv), "--csv-out", str(out)]
        out.write_bytes(b"previous,contents\n")
        before = sorted(p.name for p in tmp_path.iterdir())
        monkeypatch.setattr(
            modelio, "open", lambda p, mode: DiskFull(builtins.open(p, mode), 20), raising=False
        )
        capsys.readouterr()
        assert main(argv) == 1
        assert "No space" in capsys.readouterr().err
        assert out.read_bytes() == b"previous,contents\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    def test_sweep_singleton_matches_compress_eval(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        model_path, calib_path = write_diag_model(tmp_path, rng)
        csv_path = tmp_path / "one.csv"
        main(["sweep", "--model", str(model_path), "--calib", str(calib_path),
              "--lambdas", "0.005", "--grid-sizes", "7", "--csv-out", str(csv_path)])
        pt = points_from_csv(csv_path.read_text())[0]

        out = tmp_path / "one.cwm"
        main(["compress", "--model", str(model_path), "--calib", str(calib_path),
              "--lambda", "0.005", "--grid-size", "7", "--out", str(out)])
        capsys.readouterr()
        main(["eval", "--model", str(model_path), "--compressed", str(out),
              "--calib", str(calib_path)])
        eval_out = capsys.readouterr().out
        cm = read_compressed(out)
        assert pt.bits_per_weight == pytest.approx(cm.bits_per_weight())
        # the eval command prints 6 significant digits
        total = float(eval_out.strip().splitlines()[-1].split("total loss ")[1].split(",")[0])
        assert pt.layer_loss == pytest.approx(total, rel=1e-5)


class TestCompressTiming:
    def test_three_layer_model_under_five_seconds(self, tmp_path, capsys):
        import time

        rng = np.random.default_rng(7)
        model = TensorFile()
        calib = TensorFile()
        for i, (n, m) in enumerate(((64, 128), (128, 64), (32, 128))):
            w = rng.normal(size=(n, m))
            model.add(f"fc{i}.weight", w)
            calib.add(f"fc{i}.weight.activations", rng.normal(size=(m, 2 * m)))
        mp, cp = tmp_path / "m.tns", tmp_path / "c.tns"
        write_tensor_file(model, mp)
        write_tensor_file(calib, cp)
        t0 = time.perf_counter()
        rc = main([
            "compress", "--model", str(mp), "--calib", str(cp),
            "--lambda", "0.01", "--grid-size", "9", "--model-kind", "context",
            "--out", str(tmp_path / "o.cwm"),
        ])
        elapsed = time.perf_counter() - t0
        assert rc == 0
        assert elapsed < 5.0


class TestMlpAccuracy:
    def test_quantized_accuracy_close_to_float(self, tmp_path, capsys, mlp_fixture):
        from cerwu.modelio import write_tensor_file

        mp = tmp_path / "model.tns"
        cp = tmp_path / "calib.tns"
        tp = tmp_path / "test.tns"
        write_tensor_file(mlp_fixture["model"], mp)
        write_tensor_file(mlp_fixture["calib"], cp)
        write_tensor_file(mlp_fixture["test"], tp)
        out = tmp_path / "m.cwm"
        assert main([
            "compress", "--model", str(mp), "--calib", str(cp),
            "--lambda", "0.001", "--grid-size", "17", "--model-kind", "context",
            "--out", str(out),
        ]) == 0
        capsys.readouterr()
        assert main([
            "eval", "--model", str(mp), "--compressed", str(out),
            "--calib", str(cp), "--test", str(tp),
        ]) == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        acc = float(line.split("accuracy ")[1])
        assert acc >= 0.99 * mlp_fixture["float_accuracy"]

    def test_layer_lines_show_predicted_and_paid_bits(self, tmp_path, capsys, mlp_fixture):
        # each layer line prints the report's predicted and paid bits, and
        # the paid bits keep within the coder bound of the predicted ones
        mp = tmp_path / "model.tns"
        cp = tmp_path / "calib.tns"
        write_tensor_file(mlp_fixture["model"], mp)
        write_tensor_file(mlp_fixture["calib"], cp)
        capsys.readouterr()
        assert main([
            "compress", "--model", str(mp), "--calib", str(cp), "--lambda", "0.03",
            "--grid-size", "9", "--model-kind", "context", "--out", str(tmp_path / "m.cwm"),
        ]) == 0
        printed = {}
        for line in capsys.readouterr().out.splitlines():
            m = re.fullmatch(r"layer (\S+): .*, ([0-9.]+) bits predicted, (\d+) paid", line)
            if m:
                printed[m[1]] = (m[2], int(m[3]))
        report = compress_model(mlp_fixture["model"], mlp_fixture["hessians"], CompressionConfig(
            lam=0.03, grid_size=9, model_kind="context"))
        assert printed == {
            st.name: (f"{st.predicted_rate_bits:.1f}", st.actual_bits) for st in report.layers}
        for st in report.layers:
            predicted = st.predicted_rate_bits
            assert predicted <= st.actual_bits <= predicted + 64 + 0.001 * predicted


class TestOracleCommand:
    def test_hidden_from_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        text = capsys.readouterr().out
        assert "oracle" not in text

    @pytest.mark.parametrize("kind", ["static", "adaptive", "context"])
    def test_runs(self, capsys, kind):
        rc = main(["oracle", "--rows", "1", "--cols", "3", "--grid-size", "3",
                   "--lambda", "0.01", "--seed", "1", "--model-kind", kind])
        assert rc == 0
        out = capsys.readouterr().out
        assert "brute force" in out and "cerwu:" in out
        bf = float(out.splitlines()[0].split("total ")[1].split()[0])
        eng = float(out.splitlines()[1].split("total ")[1].split()[0])
        assert eng >= bf - 1e-9

    @pytest.mark.parametrize("flags,settings", [
        ([], {}),
        (["--gamma-mode", "zero"], {"gamma_mode": "zero"}),
        (["--method", "rtn"], {"method": "rtn"}),
    ], ids=["standard", "gamma-zero", "rtn"])
    def test_engine_line_follows_flags(self, capsys, flags, settings):
        assert main(["oracle", "--rows", "1", "--cols", "3", "--grid-size", "3",
                     "--lambda", "0.5", "--seed", "1", *flags]) == 0
        lines = capsys.readouterr().out.splitlines()
        engine_line = lines[1]
        # the command's instance, run through compress_layer with the same settings
        rng = np.random.default_rng(1)
        w = rng.normal(size=(1, 3))
        x = rng.normal(size=(3, 12))
        cfg = CompressionConfig(lam=0.5, grid_size=3, **settings)
        result, _, model = compress_layer(w, accumulate_hessian([x]), cfg)
        expected = evaluate_objective(w, x, result.quantized, 0.5, model.fresh)
        # labelled by the method that ran; rtn's line is the nearest levels, printed once
        label = f"{cfg.method}:".ljust(13)
        assert engine_line.startswith(f"{label}total {expected.total:.6f} ")
        assert [line.split(":")[0] for line in lines] == (
            ["brute force", "rtn"] if cfg.method == "rtn"
            else ["brute force", "cerwu", "nearest"])

"""Command-line workflows: init, synth, train, infer, eval, count."""

import json
import os
import struct
import subprocess
import sys
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest

from sasmamba.cli import main
from sasmamba.fileio import read_keypoints, write_keypoints

TINY_CFG = dict(L=1, D=8, T=6, V=4, K=1, N=2)
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def tiny_config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY_CFG))
    return path


def run(argv, capsys):
    rc = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestInitAndCount:
    def test_init_writes_checkpoint(self, tmp_path, tiny_config_path, capsys):
        out = tmp_path / "m.ckpt"
        rc, stdout, _ = run(["init", "--config", tiny_config_path,
                             "--seed", 3, "--out", out], capsys)
        assert rc == 0 and out.exists()
        assert "parameters" in stdout

    def test_init_deterministic(self, tmp_path, tiny_config_path, capsys):
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        assert run(["init", "--config", tiny_config_path, "--seed", 5, "--out", a],
                   capsys)[0] == 0
        assert run(["init", "--config", tiny_config_path, "--seed", 5, "--out", b],
                   capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_count_reports_budget_and_tables(self, capsys):
        rc, stdout, _ = run(["count", "--frames", 243], capsys)
        assert rc == 0
        lines = stdout.splitlines()
        total = int(next(l.split()[1] for l in lines if l.startswith("total_params")))
        macs = int(next(l.split()[1] for l in lines if l.startswith("total_macs")))
        per_frame = int(next(l.split()[1] for l in lines if l.startswith("macs_per_frame")))
        assert abs(total - 624_000) / 624_000 < 0.2
        assert 0.5e9 <= macs <= 3.0e9
        assert per_frame == macs // 243
        assert any("blocks.mlp" in l for l in lines)
        assert any("tap_mixing" in l for l in lines)

    def test_bad_config_field_is_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"L": 1, "nonsense": True}))
        rc, _, stderr = run(["count", "--config", cfg], capsys)
        assert rc == 2 and "error" in stderr


class TestGradcheckCommand:
    def test_passes_and_prints_lines(self, capsys):
        rc, stdout, _ = run(["gradcheck", "--seed", 7, "--rounds", 1], capsys)
        assert rc == 0
        assert "gradient check passed" in stdout
        assert stdout.count("PASS") >= 20 and "FAIL" not in stdout


def test_cli_import_leaves_scipy_sparse_out():
    # only the model's sampling product and gradient scatter use it, so
    # eval, count, init, synth and keypoint I/O never load its modules
    code = "import sys, sasmamba.cli; print('scipy.sparse' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        rc, _, stderr = run(["count", "--bogus"], capsys)
        assert rc == 1 and stderr

    def test_missing_file(self, tmp_path, capsys):
        rc, _, stderr = run(["infer", "--model", tmp_path / "none.ckpt",
                             "--input", tmp_path / "none.json",
                             "--output", tmp_path / "o.json"], capsys)
        assert rc == 2 and "not found" in stderr

    def test_directory_error_names_the_path(self, tmp_path, capsys):
        rc, _, stderr = run(["count", "--config", tmp_path], capsys)
        assert rc == 2 and stderr.count("\n") == 1
        assert stderr.startswith("error: ") and str(tmp_path) in stderr

    def test_output_directory_leaves_nothing_behind(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        rc, _, stderr = run(["init", "--out", out], capsys)
        assert rc == 2 and stderr == f"error: cannot use path (Is a directory): {out}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]


def _keypoint_doc(path, **fields):
    doc = {"version": 1, "fps": 50.0, "num_joints": 4, "dims": 2, "frames": [[[0, 0]] * 4]}
    doc.update(fields)
    path.write_text(json.dumps(doc))
    return path


def _edited_checkpoint(src, dst, edit):
    blob = src.read_bytes()
    mlen = struct.unpack_from("<I", blob, 8)[0]
    manifest = json.loads(blob[12:12 + mlen])
    edit(manifest)
    text = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    dst.write_bytes(blob[:8] + struct.pack("<I", len(text)) + text + blob[12 + mlen:])
    return dst


def _infer(ckpt_edit=None, **keypoint_fields):
    def argv(tmp, ckpt, data):
        if ckpt_edit is not None:
            ckpt = _edited_checkpoint(ckpt, tmp / "edited.ckpt", ckpt_edit)
        inp = _keypoint_doc(tmp / "in.json", **keypoint_fields)
        return ["infer", "--model", ckpt, "--input", inp, "--output", tmp / "out.json"]
    return argv


def _set(*path_and_value):
    *path, key, value = path_and_value

    def edit(doc):
        for step in path:
            doc = doc[step]
        doc[key] = value
    return edit


def _train(*flags):
    return lambda tmp, ckpt, data: ["train", "--data", data, "--model", ckpt,
                                    "--out", tmp / "t.ckpt", *flags]


def _eval(*flags):
    return lambda tmp, ckpt, data: ["eval", "--pred", data / "seq_0000_3d.json",
                                    "--gt", data / "seq_0000_3d.json", *flags]


def _init(**config):
    return _init_text(json.dumps({**TINY_CFG, **config}))


def _init_text(text):
    return _init_bytes(text.encode())


def _init_bytes(blob):
    def argv(tmp, ckpt, data):
        path = tmp / "config.json"
        path.write_bytes(blob)
        return ["init", "--config", path, "--out", tmp / "i.ckpt"]
    return argv


# deeper than the JSON decoder's recursion allows
DEEP = "[" * 100_000 + "]" * 100_000
# longer than the interpreter converts from a decimal string
LONG_INT = "1" * 5000


def _infer_keypoints(blob):
    def argv(tmp, ckpt, data):
        inp = tmp / "in.json"
        inp.write_bytes(blob)
        return ["infer", "--model", ckpt, "--input", inp, "--output", tmp / "out.json"]
    return argv


def _infer_manifest(text):
    def argv(tmp, ckpt, data):
        blob = ckpt.read_bytes()
        mlen = struct.unpack_from("<I", blob, 8)[0]
        edited = tmp / "edited.ckpt"
        edited.write_bytes(blob[:8] + struct.pack("<I", len(text)) + text + blob[12 + mlen:])
        return ["infer", "--model", edited, "--input", data / "seq_0000_2d.json",
                "--output", tmp / "out.json"]
    return argv


def _infer_nan_in(tensor_name):
    """infer with a checkpoint whose first value of one tensor is NaN, under a valid CRC."""
    def argv(tmp, ckpt, data):
        blob = bytearray(ckpt.read_bytes())
        mlen = struct.unpack_from("<I", blob, 8)[0]
        entries = json.loads(blob[12:12 + mlen])["tensors"]
        start = 12 + mlen + next(e["offset"] for e in entries if e["name"] == tensor_name)
        blob[start:start + 4] = struct.pack("<f", float("nan"))
        poisoned = tmp / "nan.ckpt"
        poisoned.write_bytes(blob)
        edited = _edited_checkpoint(poisoned, tmp / "edited.ckpt",
                                    _set("checksum", zlib.crc32(blob[12 + mlen:])))
        return ["infer", "--model", edited, "--input", data / "seq_0000_2d.json",
                "--output", tmp / "out.json"]
    return argv


HOSTILE_INPUTS = {
    "manifest offset past the payload": _infer(_set("tensors", 1, "offset", 10**9)),
    "manifest shape with a string": _infer(_set("tensors", 0, "shape", [8, "x"])),
    "manifest config with a float width": _infer(_set("config", "D", 8.0)),
    "string coordinates": _infer(frames=[[["a", "b"]] * 4]),
    "object coordinate": _infer(frames=[[[{}, 1]] * 4]),
    "ragged confidence": _infer(confidence=[[1] * 4, [1] * 3]),
    "string confidence": _infer(confidence=[["x"] * 4]),
    "four-dimensional frames": _infer(frames=[[[[1], [2]]] * 4]),
    "train --batch 0": _train("--batch", 0),
    "train --batch -1": _train("--batch", -1),
    "train --epochs -1": _train("--epochs", -1),
    "eval --root past the joints": _eval("--root", 99),
    "eval --root -1": _eval("--root", -1),
    "config with a float width": _init(D=8.0),
    "config with a string depth": _init(L="x"),
    "deeply nested keypoint frames": _infer_keypoints(
        ('{"version": 1, "num_joints": 4, "dims": 2, "frames": ' + DEEP + "}").encode()),
    "deeply nested manifest": _infer_manifest(('{"config": ' + DEEP + "}").encode()),
    "deeply nested config": _init_text('{"L": ' + DEEP + "}"),
    "keypoint file with invalid UTF-8": _infer_keypoints(
        b'{"version": 1, "note": "\xff\xfe", "num_joints": 4, "dims": 2, "frames": []}'),
    "manifest with invalid UTF-8": _infer_manifest(b'{"config": "\xff"}'),
    "config with invalid UTF-8": _init_bytes(b'{"L": "\xff"}'),
    "config with no strides": _init(strides=[]),
    "keypoint integer past the float range": _infer(frames=[[[10**400, 1]] * 4]),
    "keypoint float past the float32 range": _infer(frames=[[[1e300, 1]] * 4]),
    "keypoint file with a 5000-digit integer": _infer_keypoints(
        ('{"version": 1, "num_joints": 4, "dims": 2, "frames": [[[' + LONG_INT
         + ", 1]]]}").encode()),
    "manifest with a 5000-digit integer": _infer_manifest(
        ('{"config": ' + LONG_INT + "}").encode()),
    "config with a 5000-digit integer": _init_text('{"L": ' + LONG_INT + "}"),
    # the synthetic data directory stands in for a file
    "init --config a directory": lambda tmp, ckpt, data: [
        "init", "--config", data, "--out", tmp / "i.ckpt"],
    "count --config a directory": lambda tmp, ckpt, data: ["count", "--config", data],
    "infer --input a directory": lambda tmp, ckpt, data: [
        "infer", "--model", ckpt, "--input", data, "--output", tmp / "out.json"],
    "infer --model a directory": lambda tmp, ckpt, data: [
        "infer", "--model", data, "--input", data / "seq_0000_2d.json",
        "--output", tmp / "out.json"],
    "train --model a directory": lambda tmp, ckpt, data: [
        "train", "--data", data, "--model", data, "--out", tmp / "t.ckpt"],
    "eval --pred a directory": lambda tmp, ckpt, data: [
        "eval", "--pred", data, "--gt", data / "seq_0000_3d.json"],
    "init --out a directory": lambda tmp, ckpt, data: ["init", "--out", data],
    "infer --output a directory": lambda tmp, ckpt, data: [
        "infer", "--model", ckpt, "--input", data / "seq_0000_2d.json", "--output", data],
    "checkpoint with a NaN offset bias": _infer_nan_in("blocks.0.sas.offset.bias"),
}


class TestHostileInputs:
    @pytest.mark.parametrize("case", sorted(HOSTILE_INPUTS))
    def test_exits_2_with_one_error_line(self, case, tmp_path, tiny_config_path, capsys):
        ckpt, data = tmp_path / "m.ckpt", tmp_path / "data"
        run(["init", "--config", tiny_config_path, "--out", ckpt], capsys)
        run(["synth", "--sequences", 2, "--frames", 6, "--joints", 4, "--out", data], capsys)
        # a warning would print more lines to stderr, so it fails the case
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, _, stderr = run(HOSTILE_INPUTS[case](tmp_path, ckpt, data), capsys)
        assert rc == 2
        assert stderr.startswith("error: ") and stderr.count("\n") == 1
        assert "Traceback" not in stderr


class TestSynthTrainInferEval:
    def test_full_workflow(self, tmp_path, tiny_config_path, capsys):
        data = tmp_path / "data"
        ckpt = tmp_path / "m.ckpt"
        ckpt2 = tmp_path / "m2.ckpt"
        trace = tmp_path / "trace.csv"
        pred = tmp_path / "pred.json"

        assert run(["synth", "--seed", 1, "--sequences", 2, "--frames", 6,
                    "--joints", 4, "--out", data], capsys)[0] == 0
        assert len(list(data.glob("*_2d.json"))) == 2
        assert run(["init", "--config", tiny_config_path, "--seed", 0,
                    "--out", ckpt], capsys)[0] == 0
        assert run(["train", "--data", data, "--model", ckpt, "--epochs", 2,
                    "--batch", 2, "--out", ckpt2, "--trace", trace],
                   capsys)[0] == 0
        assert trace.read_text().startswith("epoch,lr,total,wmpjpe,tcloss,mpjve")
        assert run(["infer", "--model", ckpt2,
                    "--input", data / "seq_0000_2d.json",
                    "--output", pred], capsys)[0] == 0
        out = read_keypoints(pred)
        assert out.shape == (6, 4, 3)
        rc, stdout, _ = run(["eval", "--pred", pred,
                             "--gt", data / "seq_0000_3d.json",
                             "--protocol", "p1", "--root", 0], capsys)
        assert rc == 0
        float(stdout.strip())  # a single decimal line

    def test_eval_equal_files_prints_zero(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        seq = rng.normal(size=(4, 5, 3)).astype(np.float32)
        path = tmp_path / "gt.json"
        write_keypoints(path, seq)
        for protocol in ("p1", "p2"):
            rc, stdout, _ = run(["eval", "--pred", path, "--gt", path,
                                 "--protocol", protocol], capsys)
            assert rc == 0
            assert float(stdout.strip()) == pytest.approx(0.0, abs=1e-6)

    def test_eval_center_only(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        gt = rng.normal(size=(5, 4, 3)).astype(np.float32)
        pred = gt.copy()
        pred[0] += 100.0   # corrupt a non-center frame
        gt_p, pred_p = tmp_path / "gt.json", tmp_path / "pred.json"
        write_keypoints(gt_p, gt)
        write_keypoints(pred_p, pred)
        rc, stdout, _ = run(["eval", "--pred", pred_p, "--gt", gt_p,
                             "--center-only"], capsys)
        assert rc == 0
        assert float(stdout.strip()) == pytest.approx(0.0, abs=1e-6)

    def test_infer_windows_long_input(self, tmp_path, tiny_config_path, capsys):
        ckpt = tmp_path / "m.ckpt"
        assert run(["init", "--config", tiny_config_path, "--seed", 0,
                    "--out", ckpt], capsys)[0] == 0
        rng = np.random.default_rng(2)
        seq = rng.normal(size=(15, 4, 2)).astype(np.float32)  # 2*6 + 3 leftover
        inp, outp = tmp_path / "in.json", tmp_path / "out.json"
        write_keypoints(inp, seq)
        rc, _, stderr = run(["infer", "--model", ckpt, "--input", inp,
                             "--output", outp], capsys)
        assert rc == 0
        assert "dropping 3 trailing frames" in stderr
        assert read_keypoints(outp).shape == (12, 4, 3)

    def test_infer_deterministic(self, tmp_path, tiny_config_path, capsys):
        ckpt = tmp_path / "m.ckpt"
        run(["init", "--config", tiny_config_path, "--seed", 0, "--out", ckpt], capsys)
        rng = np.random.default_rng(3)
        seq = rng.normal(size=(6, 4, 2)).astype(np.float32)
        inp = tmp_path / "in.json"
        write_keypoints(inp, seq)
        o1, o2 = tmp_path / "o1.json", tmp_path / "o2.json"
        run(["infer", "--model", ckpt, "--input", inp, "--output", o1], capsys)
        run(["infer", "--model", ckpt, "--input", inp, "--output", o2], capsys)
        assert o1.read_bytes() == o2.read_bytes()

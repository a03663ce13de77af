"""Command-line workflows: init, synth, train, infer, eval, count."""

import ctypes
import json
import math
import os
import struct
import subprocess
import sys
import warnings
import zlib
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from sasmamba import cli
from sasmamba.cli import main
from sasmamba.fileio import load_ckpt, read_keypoints, write_keypoints
from sasmamba.model import forward

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


@pytest.mark.parametrize("module", ["scipy.sparse", "scipy.special"])
def test_cli_import_leaves_scipy_out(module):
    # only the model's sampling product, gradient scatter and GELU use them,
    # so eval, count, init, synth and keypoint I/O never load their modules
    code = f"import sys, sasmamba.cli; print({module!r} in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_seeded_train_does_not_depend_on_the_core_count(tmp_path):
    # a BLAS thread count splits a matrix product's sums its own way, so a
    # seeded train must write the same bytes with the thread variables
    # unset, where BLAS would take every core, as at one thread
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"L": 2, "D": 32, "T": 27}))
    base = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    base["PYTHONPATH"] = str(SRC)

    def cli(*argv, **env):
        proc = subprocess.run([sys.executable, "-m", "sasmamba.cli", *map(str, argv)],
                              env={**base, **env}, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr

    cli("synth", "--seed", 1, "--sequences", 2, "--frames", 27, "--out", tmp_path / "data")
    cli("init", "--config", cfg, "--seed", 0, "--out", tmp_path / "m.ckpt")
    outs = {}
    for name, env in (("unset", {}), ("one", {"OPENBLAS_NUM_THREADS": "1"})):
        outs[name] = tmp_path / f"{name}.ckpt"
        cli("train", "--data", tmp_path / "data", "--model", tmp_path / "m.ckpt",
            "--epochs", 2, "--batch", 2, "--seed", 0, "--out", outs[name], **env)
    assert outs["unset"].read_bytes() == outs["one"].read_bytes()


class _Mallopt:
    """A stand-in for libc's ``mallopt`` that records its calls."""

    def __init__(self):
        self.calls = []

    def __call__(self, param, value):
        self.calls.append((param, value))
        return 1


class TestHeapSetting:
    @pytest.fixture
    def no_malloc_vars(self, monkeypatch):
        for name in [k for k in os.environ if k.startswith("MALLOC_") and k.endswith("_")]:
            monkeypatch.delenv(name)

    @pytest.fixture
    def mallopt(self, no_malloc_vars, monkeypatch):
        mallopt = _Mallopt()
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
        return mallopt

    def test_sets_the_mmap_and_trim_thresholds(self, mallopt):
        # glibc's M_MMAP_THRESHOLD is -3 and M_TRIM_THRESHOLD -1
        cli._heap_keeps_freed_memory()
        assert mallopt.calls == [(-3, 32 << 20), (-1, 64 << 20)]
        assert mallopt.argtypes == [ctypes.c_int, ctypes.c_int]

    def test_a_malloc_variable_leaves_the_allocator_alone(self, mallopt, monkeypatch):
        monkeypatch.setenv("MALLOC_TRIM_THRESHOLD_", "131072")
        cli._heap_keeps_freed_memory()
        assert mallopt.calls == []

    def test_a_libc_without_mallopt_is_left_alone(self, no_malloc_vars, monkeypatch):
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: SimpleNamespace())
        cli._heap_keeps_freed_memory()


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


def _count(**config):
    def argv(tmp, ckpt, data):
        path = tmp / "config.json"
        path.write_text(json.dumps({**TINY_CFG, **config}))
        return ["count", "--config", path]
    return argv


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


def _poisoned_checkpoint(ckpt, tmp, tensor_name, value, count=None):
    """A copy of ckpt whose first ``count`` values of one tensor, all of them
    when None, are ``value``, under a valid CRC."""
    blob = bytearray(ckpt.read_bytes())
    mlen = struct.unpack_from("<I", blob, 8)[0]
    entries = json.loads(blob[12:12 + mlen])["tensors"]
    entry = next(e for e in entries if e["name"] == tensor_name)
    count = math.prod(entry["shape"]) if count is None else count
    start = 12 + mlen + entry["offset"]
    blob[start:start + 4 * count] = struct.pack(f"<{count}f", *[value] * count)
    poisoned = tmp / "poisoned.ckpt"
    poisoned.write_bytes(blob)
    return _edited_checkpoint(poisoned, tmp / "edited.ckpt",
                              _set("checksum", zlib.crc32(blob[12 + mlen:])))


def _infer_nan_in(tensor_name):
    """infer with a checkpoint whose first value of one tensor is NaN, under a valid CRC."""
    def argv(tmp, ckpt, data):
        edited = _poisoned_checkpoint(ckpt, tmp, tensor_name, float("nan"), count=1)
        return ["infer", "--model", edited, "--input", data / "seq_0000_2d.json",
                "--output", tmp / "out.json"]
    return argv


def _train_on(*files):
    """train on a directory of copies of the synthetic files, each given as
    (source name, copy name)."""
    def argv(tmp, ckpt, data):
        pairs = tmp / "pairs"
        pairs.mkdir()
        for src, name in files:
            (pairs / name).write_bytes((data / src).read_bytes())
        return ["train", "--data", pairs, "--model", ckpt, "--out", tmp / "t.ckpt"]
    return argv


def _synth_blocked(tmp, ckpt, data):
    """synth into a directory where the second pair's 2d file is a directory."""
    (tmp / "blocked" / "seq_0001_2d.json").mkdir(parents=True)
    return ["synth", "--sequences", 3, "--frames", 6, "--joints", 4, "--out", tmp / "blocked"]


def _infer_version(version):
    """infer with a checkpoint whose header claims another format version."""
    def argv(tmp, ckpt, data):
        blob = bytearray(ckpt.read_bytes())
        blob[4:8] = struct.pack("<I", version)
        edited = tmp / "edited.ckpt"
        edited.write_bytes(blob)
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
    # numbers written as strings, and a joint count that only equals an integer
    "numeric string coordinates": _infer(frames=[[["1.5", "2"]] * 4]),
    "numeric string confidence": _infer(confidence=[["0.5"] * 4]),
    "float num_joints": _infer(num_joints=4.0),
    "boolean num_joints": _infer(num_joints=True, frames=[[[0, 0]]]),
    "four-dimensional frames": _infer(frames=[[[[1], [2]]] * 4]),
    "train --batch 0": _train("--batch", 0),
    "train --batch -1": _train("--batch", -1),
    "train --epochs -1": _train("--epochs", -1),
    "eval --root past the joints": _eval("--root", 99),
    "eval --root -1": _eval("--root", -1),
    "eval --center-only of 2 predicted frames against 6": lambda tmp, ckpt, data: [
        "eval", "--pred", _keypoint_doc(tmp / "pred.json", dims=3, frames=[[[0, 0, 0]] * 4] * 2),
        "--gt", data / "seq_0000_3d.json", "--center-only"],
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
    # sizes past any address space: the first allocation fails before it is touched
    "init --config with a width of 4e16": _init(D=4 * 10**16),
    "synth --frames 1e15": lambda tmp, ckpt, data: [
        "synth", "--frames", 10**15, "--sequences", 1, "--out", tmp / "big"],
    "count --config with a stream named twice": _count(
        streams=["temporal_forward", "temporal_forward"]),
    "count --config with stride groups that cannot split the width": _count(
        strides=[1, 2, 3, 4, 5]),
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
    "keypoint file with a NaN fps": _infer(fps=float("nan")),
    "train --trace into a missing directory": lambda tmp, ckpt, data: [
        "train", "--data", data, "--model", ckpt, "--epochs", 1, "--out", tmp / "t.ckpt",
        "--trace", tmp / "missing" / "t.csv"],
    # the trace is written first, and removed when the checkpoint then fails
    "train --out into a missing directory after a --trace": lambda tmp, ckpt, data: [
        "train", "--data", data, "--model", ckpt, "--epochs", 1,
        "--out", tmp / "missing" / "t.ckpt", "--trace", tmp / "t.csv"],
    # the first pair is written, then removed when the second one fails
    "synth into a directory where a later file is a directory": _synth_blocked,
    "train on a 2d file with no 3d counterpart": _train_on(("seq_0000_2d.json", "a_2d.json")),
    "train on a pair whose 3d file holds 2d": _train_on(("seq_0000_2d.json", "a_2d.json"),
                                                         ("seq_0000_2d.json", "a_3d.json")),
    "train on a directory with no pairs": _train_on(),
    "infer on 3d keypoints": lambda tmp, ckpt, data: [
        "infer", "--model", ckpt, "--input", data / "seq_0000_3d.json",
        "--output", tmp / "out.json"],
    "eval on 2d keypoints": lambda tmp, ckpt, data: [
        "eval", "--pred", data / "seq_0000_2d.json", "--gt", data / "seq_0000_2d.json"],
    # rejected before the output directory is made
    "synth --sequences 0": lambda tmp, ckpt, data: [
        "synth", "--sequences", 0, "--out", tmp / "new"],
    "synth --noise -1": lambda tmp, ckpt, data: [
        "synth", "--noise", -1, "--out", tmp / "new"],
    "gradcheck --rounds 0": lambda tmp, ckpt, data: ["gradcheck", "--rounds", 0],
    "gradcheck --seed -1": lambda tmp, ckpt, data: ["gradcheck", "--seed", -1],
    "synth --seed -1": lambda tmp, ckpt, data: [
        "synth", "--seed", -1, "--out", tmp / "new"],
    "init --seed -1": lambda tmp, ckpt, data: ["init", "--seed", -1, "--out", tmp / "i.ckpt"],
    "train --seed -1": _train("--seed", -1),
    "train --lr -1": _train("--lr", -1),
    "train --lr nan": _train("--lr", "nan"),
    "checkpoint header claiming format version 0": _infer_version(0),
}


class TestHostileInputs:
    @pytest.mark.parametrize("case", sorted(HOSTILE_INPUTS))
    def test_exits_2_with_one_error_line(self, case, tmp_path, tiny_config_path, capsys):
        ckpt, data = tmp_path / "m.ckpt", tmp_path / "data"
        run(["init", "--config", tiny_config_path, "--out", ckpt], capsys)
        run(["synth", "--sequences", 2, "--frames", 6, "--joints", 4, "--out", data], capsys)
        argv = HOSTILE_INPUTS[case](tmp_path, ckpt, data)
        before = sorted(tmp_path.rglob("*"))
        # a warning would print more lines to stderr, so it fails the case
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, _, stderr = run(argv, capsys)
        assert rc == 2
        assert stderr.startswith("error: ") and stderr.count("\n") == 1
        assert "Traceback" not in stderr
        # a failing command leaves no partial outputs behind
        assert sorted(tmp_path.rglob("*")) == before


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
        assert rc == 0 and stderr == ""
        out = read_keypoints(outp)
        assert out.shape == (15, 4, 3)
        # the 3 leftover frames run as a window of their own
        np.testing.assert_array_equal(out[12:], forward(load_ckpt(ckpt), seq[12:]).data)

    @pytest.mark.parametrize("command", ["infer", "train"])
    @pytest.mark.parametrize("tensor_name", ["blocks.0.mlp1.weight",
                                             "blocks.0.sas.offset.weight"])
    def test_infer_overflow_exits_3_with_one_line(self, tensor_name, command, tmp_path, capsys):
        # 3e38 is finite in float32, so the checkpoint loads; the forward
        # overflows, in the MLP to a non-finite output or loss, in the offset
        # net to non-finite sampling positions. Every command runs under one
        # float-error policy, so neither prints numpy warnings
        config = tmp_path / "config.json"
        config.write_text(json.dumps(dict(L=1, D=8, T=9, V=4, N=2)))
        ckpt, data = tmp_path / "m.ckpt", tmp_path / "data"
        run(["init", "--config", config, "--out", ckpt], capsys)
        run(["synth", "--sequences", 1, "--frames", 9, "--joints", 4, "--out", data], capsys)
        edited = _poisoned_checkpoint(ckpt, tmp_path, tensor_name, 3e38)
        outputs = [tmp_path / "out.json"]
        argv = ["infer", "--model", edited, "--input", data / "seq_0000_2d.json",
                "--output", outputs[0]]
        if command == "train":
            outputs = [tmp_path / "t.ckpt", tmp_path / "t.csv"]
            argv = ["train", "--data", data, "--model", edited, "--epochs", 1,
                    "--out", outputs[0], "--trace", outputs[1]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, _, stderr = run(argv, capsys)
        assert rc == 3
        assert stderr.startswith(("error: non-finite", "error: loss diverged"))
        assert stderr.count("\n") == 1
        assert not any(path.exists() for path in outputs)

    def test_synth_noise_moves_only_the_2d(self, tmp_path, capsys):
        clean, noisy = tmp_path / "clean", tmp_path / "noisy"
        for out, noise in ((clean, 0.0), (noisy, 0.01)):
            assert run(["synth", "--seed", 4, "--sequences", 1, "--frames", 6, "--joints", 4,
                        "--noise", noise, "--out", out], capsys)[0] == 0
        name3d, name2d = "seq_0000_3d.json", "seq_0000_2d.json"
        assert (clean / name3d).read_bytes() == (noisy / name3d).read_bytes()
        diff = np.abs(read_keypoints(noisy / name2d) - read_keypoints(clean / name2d))
        assert 0 < diff.max() < 0.1

    def test_synth_failure_removes_the_directories_it_made(self, tmp_path, capsys, monkeypatch):
        # the third write fails: the two files before it go, then the two
        # directories this run made
        calls = []

        def fail_third(path, poses):
            calls.append(path)
            if len(calls) == 3:
                raise OSError(28, "No space left on device", str(path))
            write_keypoints(path, poses)

        monkeypatch.setattr(cli, "write_keypoints", fail_third)
        rc, _, stderr = run(["synth", "--sequences", 2, "--frames", 6, "--joints", 4,
                             "--out", tmp_path / "new" / "data"], capsys)
        assert rc == 2 and stderr.count("\n") == 1
        assert len(calls) == 3 and list(tmp_path.iterdir()) == []

    def test_failed_synth_keeps_the_dataset_it_would_overwrite(self, tmp_path, capsys):
        # a second run into the same directory, where the second pair's 2d
        # file has become a directory: the first pair keeps its bytes
        out = tmp_path / "data"
        argv = ["synth", "--sequences", 2, "--frames", 6, "--joints", 4, "--out", out]
        assert run(argv + ["--seed", 1], capsys)[0] == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        (out / "seq_0001_2d.json").unlink()
        (out / "seq_0001_2d.json").mkdir()
        rc, _, stderr = run(argv + ["--seed", 2], capsys)
        assert rc == 2 and stderr.count("\n") == 1 and "seq_0001_2d.json" in stderr
        assert sorted(p.name for p in out.iterdir()) == sorted(before)
        for name in ("seq_0000_2d.json", "seq_0000_3d.json", "seq_0001_3d.json"):
            assert (out / name).read_bytes() == before[name], name

    def test_failed_checkpoint_write_keeps_an_earlier_trace(self, tmp_path, tiny_config_path,
                                                           capsys, monkeypatch):
        ckpt, data, trace = tmp_path / "m.ckpt", tmp_path / "data", tmp_path / "t.csv"
        run(["init", "--config", tiny_config_path, "--out", ckpt], capsys)
        run(["synth", "--sequences", 1, "--frames", 6, "--joints", 4, "--out", data], capsys)
        trace.write_text("an earlier trace\n")

        def full_disk(model, path):
            raise OSError(28, "No space left on device", str(path))

        monkeypatch.setattr(cli, "save_ckpt", full_disk)
        rc, _, stderr = run(["train", "--data", data, "--model", ckpt, "--epochs", 1,
                             "--out", tmp_path / "t.ckpt", "--trace", trace], capsys)
        assert rc == 2 and stderr.count("\n") == 1 and "t.ckpt" in stderr
        assert trace.read_text() == "an earlier trace\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "data", "m.ckpt",
                                                              "t.csv"]

    @pytest.mark.parametrize("fps_in, fps_out", [(25.0, 25.0), (None, 50.0)])
    def test_infer_writes_its_inputs_frame_rate(self, fps_in, fps_out, tmp_path,
                                                tiny_config_path, capsys):
        # a file without a frame rate reads as 50 frames per second
        ckpt = tmp_path / "m.ckpt"
        run(["init", "--config", tiny_config_path, "--seed", 0, "--out", ckpt], capsys)
        inp, outp = tmp_path / "in.json", tmp_path / "out.json"
        doc = {"version": 1, "num_joints": 4, "dims": 2, "frames": [[[0, 0]] * 4]}
        if fps_in is not None:
            doc["fps"] = fps_in
        inp.write_text(json.dumps(doc))
        assert run(["infer", "--model", ckpt, "--input", inp, "--output", outp],
                   capsys)[0] == 0
        assert json.loads(outp.read_text())["fps"] == fps_out

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

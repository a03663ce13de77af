"""Keypoint JSON and checkpoint binary formats."""

import json
import os
import struct
import subprocess
import sys
import textwrap
import zlib
from pathlib import Path

import numpy as np
import pytest

from sasmamba.errors import (ChecksumError, CorruptionError, FormatError,
                             NumericError, VersionError)
from sasmamba.fileio import (FORMAT_VERSION, MAGIC, load_ckpt, read_keypoints,
                             read_keypoints_and_fps, save_ckpt, write_keypoints)
from sasmamba.model import ModelConfig, count_params, forward, init_model
from sasmamba.training import OptimState, optim_step

TINY = ModelConfig(L=1, D=8, T=5, V=4, K=1, N=2)
SRC = Path(__file__).resolve().parent.parent / "src"
DATA = Path(__file__).resolve().parent / "data"


class TestKeypointFiles:
    def test_roundtrip_2d(self, tmp_path):
        rng = np.random.default_rng(0)
        seq = rng.normal(size=(6, 5, 2)).astype(np.float32)
        path = tmp_path / "kp.json"
        write_keypoints(path, seq)
        np.testing.assert_array_equal(read_keypoints(path), seq)

    def test_roundtrip_3d_with_confidence(self, tmp_path):
        # the writer writes no confidences; files from elsewhere may hold them
        rng = np.random.default_rng(1)
        seq = rng.normal(size=(4, 3, 3)).astype(np.float32)
        conf = rng.uniform(0, 1, size=(4, 3)).astype(np.float32)
        path = tmp_path / "pose.json"
        path.write_text(json.dumps({"version": 1, "fps": 50.0, "num_joints": 3, "dims": 3,
                                    "frames": seq.tolist(), "confidence": conf.tolist()}))
        np.testing.assert_array_equal(read_keypoints(path), seq)

    def test_bad_dims_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        doc = {"version": 1, "fps": 50.0, "num_joints": 1, "dims": 4,
               "frames": [[[0, 0, 0, 0]]]}
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="dims"):
            read_keypoints(path)

    def test_ragged_frames_rejected(self, tmp_path):
        path = tmp_path / "ragged.json"
        doc = {"version": 1, "fps": 50.0, "num_joints": 2, "dims": 2,
               "frames": [[[0, 0], [1, 1]], [[2, 2]]]}
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="frames"):
            read_keypoints(path)

    def test_extra_nesting_rejected(self, tmp_path):
        path = tmp_path / "deep.json"
        doc = {"version": 1, "fps": 50.0, "num_joints": 1, "dims": 2,
               "frames": [[[[1], [2]]]]}
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="frames"):
            read_keypoints(path)

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"version": 1,\n "fps": oops}')
        with pytest.raises(FormatError, match="line 2"):
            read_keypoints(path)

    def test_non_finite_write_rejected(self, tmp_path):
        seq = np.full((2, 2, 2), np.inf, dtype=np.float32)
        with pytest.raises(FormatError):
            write_keypoints(tmp_path / "inf.json", seq)

    @pytest.mark.parametrize("shape", [(0, 17, 3), (2, 0, 3)])
    def test_empty_sequence_write_rejected(self, tmp_path, shape):
        # read_keypoints refuses either file, so none is written
        with pytest.raises(FormatError, match="T, V >= 1"):
            write_keypoints(tmp_path / "empty.json", np.zeros(shape))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("fps", [float("nan"), float("inf"), -5, 0, "50", True, None])
    def test_bad_fps_read_rejected(self, tmp_path, fps):
        path = tmp_path / "fps.json"
        doc = {"version": 1, "fps": fps, "num_joints": 2, "dims": 2,
               "frames": [[[0, 0], [1, 1]]]}
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="'fps'"):
            read_keypoints(path)

    @pytest.mark.parametrize("num_joints", [True, 1.0, "1", 0, -1, None])
    def test_num_joints_must_be_a_positive_integer(self, tmp_path, num_joints):
        # True == 1 and 1.0 == 1, so a shape check alone lets both through
        path = tmp_path / "joints.json"
        doc = {"version": 1, "num_joints": num_joints, "dims": 2, "frames": [[[0, 0]]]}
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="'num_joints'"):
            read_keypoints(path)

    @pytest.mark.parametrize("field, value", [
        ("frames", [[["1.5", "2"]]]), ("frames", [[[True, False]]]),
        ("frames", [[[None, 1]]]), ("confidence", [["0.5"]]), ("confidence", [[False]])])
    def test_non_numbers_are_not_converted(self, tmp_path, field, value):
        path = tmp_path / "kinds.json"
        doc = {"version": 1, "num_joints": 1, "dims": 2, "frames": [[[0, 0]]], field: value}
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=f"'{field}' must hold numbers only"):
            read_keypoints(path)

    def test_numbers_of_every_json_kind_read_as_float32(self, tmp_path):
        # integers, floats, integers past 64 bits, and a bool among numbers,
        # which numpy's inference reads as 0 or 1 (README)
        path = tmp_path / "numbers.json"
        path.write_text('{"version": 1, "num_joints": 2, "dims": 2, '
                        '"frames": [[[1, 2.5], [36893488147419103232, true]]]}')
        np.testing.assert_array_equal(read_keypoints(path),
                                      np.array([[[1, 2.5], [2.0**65, 1]]], np.float32))

    def test_non_finite_confidence_read_rejected(self, tmp_path):
        path = tmp_path / "conf.json"
        doc = {"version": 1, "fps": 50.0, "num_joints": 2, "dims": 2,
               "frames": [[[0, 0], [1, 1]]], "confidence": [[1.0, float("nan")]]}
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="'confidence'.*non-finite"):
            read_keypoints(path)

    @pytest.mark.parametrize("value", [
        np.finfo(np.float32).max, -np.finfo(np.float32).max,
        np.finfo(np.float32).smallest_subnormal, -np.finfo(np.float32).smallest_subnormal,
        -0.0, 0.0, 1e8, 16777217.0])
    def test_extreme_values_read_back_bit_identical(self, tmp_path, value):
        seq = np.full((2, 3, 3), value, dtype=np.float32)
        path = tmp_path / "extreme.json"
        write_keypoints(path, seq)
        np.testing.assert_array_equal(read_keypoints(path).view(np.uint32), seq.view(np.uint32))

    def test_random_bit_patterns_read_back_bit_identical(self, tmp_path):
        # about 1.5% of float32 values need the ninth significant digit
        bits = np.random.default_rng(3).integers(0, 2**32, size=300_000, dtype=np.uint32)
        values = bits.view(np.float32)
        values = values[np.isfinite(values)]
        seq = values[:len(values) // 51 * 51].reshape(-1, 17, 3)
        path = tmp_path / "bits.json"
        write_keypoints(path, seq)
        np.testing.assert_array_equal(read_keypoints(path).view(np.uint32), seq.view(np.uint32))

    def test_file_is_one_line_with_the_keys_in_order(self, tmp_path):
        path = tmp_path / "kp.json"
        write_keypoints(path, np.zeros((2, 3, 2)))
        text = path.read_text()
        assert text.count("\n") == 1 and text.endswith("}\n")
        doc = json.loads(text)
        assert list(doc) == ["version", "fps", "num_joints", "dims", "frames"]
        assert (doc["version"], doc["fps"], doc["num_joints"], doc["dims"]) == (1, 50.0, 3, 2)

    def test_frame_rate_round_trips(self, tmp_path):
        path = tmp_path / "kp.json"
        write_keypoints(path, np.zeros((2, 3, 2)), fps=25)
        assert read_keypoints_and_fps(path)[1] == 25.0
        assert json.loads(path.read_text())["fps"] == 25.0
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(FormatError, match="frame rate"):
                write_keypoints(path, np.zeros((2, 3, 2)), fps=bad)

    def test_written_bytes_are_pinned(self, tmp_path):
        # -0.0 at a row's start and end, nine significant digits, and
        # integral values printed without a fraction
        seq = np.array([[[-0.0, 0.1, 16777216.0], [1.0, -2.5, 1 / 3]],
                        [[0.0, -1e-8, 3.4e38], [0.2, 100.0, -0.0]]], dtype=np.float32)
        path = tmp_path / "kp.json"
        write_keypoints(path, seq)
        assert path.read_bytes() == (
            b'{"version":1,"fps":50.0,"num_joints":2,"dims":3,"frames":'
            b'[[[-0.0,0.100000001,16777216],[1,-2.5,0.333333343]],'
            b'[[0,-9.99999994e-09,3.39999995e+38],[0.200000003,100,-0.0]]]}\n')

    def test_indented_file_still_reads(self, tmp_path):
        # the layout written before keypoint files became a single line
        rng = np.random.default_rng(2)
        seq = rng.normal(size=(3, 4, 3)).astype(np.float32)
        seq[0, 0, 0] = -0.0
        doc = {"version": 1, "fps": 50.0, "num_joints": 4, "dims": 3,
               "frames": [[[float(x) for x in joint] for joint in frame] for frame in seq],
               "confidence": [[1.0] * 4] * 3}
        path = tmp_path / "indented.json"
        path.write_text(json.dumps(doc, indent=1) + "\n")
        np.testing.assert_array_equal(read_keypoints(path).view(np.uint32), seq.view(np.uint32))


class TestCheckpoint:
    def test_save_load_save_is_byte_identical(self, tmp_path):
        model = init_model(TINY, seed=3)
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        save_ckpt(model, p1)
        save_ckpt(load_ckpt(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_reload_preserves_inference(self, tmp_path):
        model = init_model(TINY, seed=4)
        x = np.random.default_rng(2).normal(size=(5, 4, 2)).astype(np.float32)
        before = forward(model, x).data
        path = tmp_path / "m.ckpt"
        save_ckpt(model, path)
        after = forward(load_ckpt(path), x).data
        assert before.tobytes() == after.tobytes()

    def test_manifest_tensor_count_matches_breakdown(self, tmp_path):
        model = init_model(TINY, seed=5)
        path = tmp_path / "m.ckpt"
        save_ckpt(model, path)
        blob = path.read_bytes()
        mlen = struct.unpack_from("<I", blob, 8)[0]
        manifest = json.loads(blob[12:12 + mlen])
        _, breakdown = count_params(TINY)
        assert len(manifest["tensors"]) == len(breakdown)

    def test_huge_depth_is_rejected_by_the_manifest_length(self, tmp_path):
        # the layout check must stop at the first tensor the manifest lacks;
        # the load runs in a child process with capped address space, so
        # unbounded work fails this test instead of exhausting host memory
        path = tmp_path / "m.ckpt"
        save_ckpt(init_model(TINY, seed=9), path)
        blob = path.read_bytes()
        mlen = struct.unpack_from("<I", blob, 8)[0]
        manifest = json.loads(blob[12:12 + mlen])
        manifest["config"]["L"] = 1_000_000_000
        text = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
        path.write_bytes(blob[:8] + struct.pack("<I", len(text)) + text + blob[12 + mlen:])
        code = textwrap.dedent("""
            import resource, sys
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
            from sasmamba.errors import CorruptionError
            from sasmamba.fileio import load_ckpt
            try:
                load_ckpt(sys.argv[1])
            except CorruptionError:
                sys.exit(0)
            sys.exit(1)
            """)
        env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}
        proc = subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(b"XXXX" + b"\x00" * 32)
        with pytest.raises(FormatError, match="magic"):
            load_ckpt(path)

    def test_future_version(self, tmp_path):
        model = init_model(TINY, seed=6)
        path = tmp_path / "m.ckpt"
        save_ckpt(model, path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", FORMAT_VERSION + 1)
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionError):
            load_ckpt(path)

    def test_older_version_names_it(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_ckpt(init_model(TINY, seed=6), path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", 0)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="version 0") as info:
            load_ckpt(path)
        assert not isinstance(info.value, VersionError)

    def test_truncated_payload(self, tmp_path):
        model = init_model(TINY, seed=7)
        path = tmp_path / "m.ckpt"
        save_ckpt(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(CorruptionError):
            load_ckpt(path)

    def test_flipped_payload_byte_reports_checksum(self, tmp_path):
        model = init_model(TINY, seed=8)
        path = tmp_path / "m.ckpt"
        save_ckpt(model, path)
        blob = bytearray(path.read_bytes())
        blob[-3] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ChecksumError):
            load_ckpt(path)

    def test_non_finite_value_names_the_tensor(self, tmp_path):
        # a NaN patched into the payload under a valid checksum
        path = tmp_path / "m.ckpt"
        save_ckpt(init_model(TINY, seed=9), path)
        blob = bytearray(path.read_bytes())
        mlen = struct.unpack_from("<I", blob, 8)[0]
        manifest = json.loads(blob[12:12 + mlen])
        entry = next(e for e in manifest["tensors"] if e["name"] == "blocks.0.sas.offset.bias")
        payload = bytearray(blob[12 + mlen:])
        struct.pack_into("<f", payload, entry["offset"] + 4, float("nan"))
        manifest["checksum"] = zlib.crc32(payload)
        text = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
        path.write_bytes(blob[:8] + struct.pack("<I", len(text)) + text + payload)
        with pytest.raises(CorruptionError, match=r"'blocks\.0\.sas\.offset\.bias'"):
            load_ckpt(path)

    @pytest.mark.parametrize("key, index, name", [
        ("blocks.0.sas.taps.down", (3, 1, 2), "blocks.0.sas.tap3.down"),
        ("blocks.0.sas.scan.skip", (1, 0), "blocks.0.sas.temporal_backward.skip"),
        ("head.bias", (2,), "head.bias"),
    ])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_save_refuses_non_finite_values(self, tmp_path, key, index, name, value):
        model = init_model(ModelConfig(L=1, D=8, T=5, V=4, K=3, N=2), seed=9)
        model.params[key].data[index] = value
        with pytest.raises(NumericError, match=f"'{name}'"):
            save_ckpt(model, tmp_path / "m.ckpt")
        # nothing is written, not even a temporary file
        assert list(tmp_path.iterdir()) == []

    def test_every_path_names_the_first_non_finite_tensor_in_manifest_order(self, tmp_path):
        # NaNs in tap 1's diag and tap 0's down; tap 0's maps come first in
        # the manifest, so the step, the save and the load all name tap0.down
        model = init_model(ModelConfig(L=1, D=8, T=5, V=4, K=3, N=2), seed=9)
        path = tmp_path / "m.ckpt"
        save_ckpt(model, path)
        blob = path.read_bytes()
        mlen = struct.unpack_from("<I", blob, 8)[0]
        manifest = json.loads(blob[12:12 + mlen])
        payload = bytearray(blob[12 + mlen:])
        for entry in manifest["tensors"]:
            if entry["name"] in ("blocks.0.sas.tap1.diag", "blocks.0.sas.tap0.down"):
                struct.pack_into("<f", payload, entry["offset"], float("nan"))
        manifest["checksum"] = zlib.crc32(payload)
        text = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
        path.write_bytes(blob[:8] + struct.pack("<I", len(text)) + text + payload)
        name = r"'blocks\.0\.sas\.tap0\.down'"
        with pytest.raises(CorruptionError, match=name):
            load_ckpt(path)
        for key, row in (("blocks.0.sas.taps.diag", 1), ("blocks.0.sas.taps.down", 0)):
            t = model.params[key]
            t.grad = np.zeros_like(t.data)
            t.grad[row] = np.nan
            t.data[row] = np.nan
        with pytest.raises(NumericError, match=name):
            optim_step(model, OptimState(), lr=1e-3)
        with pytest.raises(NumericError, match=name):
            save_ckpt(model, tmp_path / "nan.ckpt")

    def test_magic_constant(self):
        assert MAGIC == b"SASM"


class TestFormatV1Golden:
    """Files written before the tap maps and scan streams were stored stacked.

    ``v1_gated_tiny.ckpt`` is ``init_model(GOLDEN, seed=0)``, and
    ``v1_gated_tiny_forward.npy`` its forward output on ``golden_input()``.
    Its streams are listed out of ``STREAM_ORDER`` and gated, so a wrong
    mapping between checkpoint tensors and stacked rows, shared by save and
    load, still changes the bytes or the output.
    """

    GOLDEN = ModelConfig(L=1, D=8, T=3, V=4, K=3, N=2, gated_streams=True,
                         streams=("spatial_backward", "temporal_forward"))

    @staticmethod
    def golden_input():
        return np.random.default_rng(0).normal(size=(3, 4, 2)).astype(np.float32)

    def test_init_writes_the_golden_bytes(self, tmp_path):
        save_ckpt(init_model(self.GOLDEN, seed=0), tmp_path / "m.ckpt")
        assert (tmp_path / "m.ckpt").read_bytes() == (DATA / "v1_gated_tiny.ckpt").read_bytes()

    def test_load_save_is_byte_identical_and_forward_matches(self, tmp_path):
        model = load_ckpt(DATA / "v1_gated_tiny.ckpt")
        assert model.config == self.GOLDEN
        save_ckpt(model, tmp_path / "again.ckpt")
        assert (tmp_path / "again.ckpt").read_bytes() == (DATA / "v1_gated_tiny.ckpt").read_bytes()
        np.testing.assert_allclose(forward(model, self.golden_input()).data,
                                   np.load(DATA / "v1_gated_tiny_forward.npy"),
                                   rtol=0, atol=1e-5)

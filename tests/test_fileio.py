"""Keypoint JSON and checkpoint binary formats."""

import json
import os
import struct
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from sasmamba.errors import (ChecksumError, CorruptionError, FormatError,
                             VersionError)
from sasmamba.fileio import (FORMAT_VERSION, MAGIC, load_ckpt, read_keypoints,
                             save_ckpt, write_keypoints)
from sasmamba.model import ModelConfig, count_params, forward, init_model

TINY = ModelConfig(L=1, D=8, T=5, V=4, K=1, N=2)
SRC = Path(__file__).resolve().parent.parent / "src"


class TestKeypointFiles:
    def test_roundtrip_2d(self, tmp_path):
        rng = np.random.default_rng(0)
        seq = rng.normal(size=(6, 5, 2)).astype(np.float32)
        path = tmp_path / "kp.json"
        write_keypoints(path, seq, fps=25.0)
        np.testing.assert_array_equal(read_keypoints(path), seq)

    def test_roundtrip_3d_with_confidence(self, tmp_path):
        rng = np.random.default_rng(1)
        seq = rng.normal(size=(4, 3, 3)).astype(np.float32)
        conf = rng.uniform(0, 1, size=(4, 3)).astype(np.float32)
        path = tmp_path / "pose.json"
        write_keypoints(path, seq, confidence=conf)
        np.testing.assert_array_equal(read_keypoints(path), seq)
        doc = json.loads(path.read_text())
        assert doc["dims"] == 3 and doc["num_joints"] == 3

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
        model = init_model(TINY, seed=9)
        dict(model.named_params())["blocks.0.sas.offset.bias"].data[1] = np.nan
        path = tmp_path / "m.ckpt"
        save_ckpt(model, path)
        with pytest.raises(CorruptionError, match=r"'blocks\.0\.sas\.offset\.bias'"):
            load_ckpt(path)

    def test_magic_constant(self):
        assert MAGIC == b"SASM"

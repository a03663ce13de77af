"""File formats: keypoint JSON sequences and the binary checkpoint.

Checkpoint layout: magic ``SASM``, format version (u32 LE), manifest length
(u32 LE), canonical-JSON manifest (config, payload checksum, per-tensor name /
shape / byte offset), then the payload of little-endian 32-bit floats in
manifest order. Saves are byte-deterministic so save -> load -> save is an
identity on bytes.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import struct
import zlib
from collections.abc import Iterator

import numpy as np

from .errors import (ChecksumError, ConfigError, CorruptionError, FormatError,
                     VersionError)
from .model import Model, ModelConfig, build_model, param_entries
from .tensor import Tensor

MAGIC = b"SASM"
FORMAT_VERSION = 1


def _atomic_write(path, blob: bytes) -> None:
    """Write through a temporary file; on failure nothing is left behind.

    A failure raises the OSError of the same errno, naming ``path`` rather
    than the temporary file.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except OSError as exc:
        if os.path.lexists(tmp):
            os.unlink(tmp)
        raise OSError(exc.errno, exc.strerror, str(path)) from None


def parse_json(raw: bytes, what: str, error: type[FormatError] = FormatError):
    """Decode a JSON document, raising ``error`` for every way it can fail."""
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise error(f"malformed {what} JSON at line {exc.lineno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise error(f"{what} JSON nested too deeply") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{what} is not valid UTF-8 at byte {exc.start}") from exc
    except ValueError as exc:
        # an integer literal past the interpreter's digit limit
        raise error(f"{what} JSON holds an unreadable number: {exc}") from exc


# --- keypoint sequences ------------------------------------------------------


def write_keypoints(path, seq: np.ndarray, fps: float = 50.0,
                    confidence: np.ndarray | None = None) -> None:
    """Write a (T, V, 2) or (T, V, 3) sequence as a keypoint JSON file."""
    arr = np.asarray(seq, dtype=np.float32)
    if arr.ndim != 3 or arr.shape[-1] not in (2, 3):
        raise FormatError(f"sequence must be (T, V, 2|3), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise FormatError("sequence contains non-finite values")
    doc = {
        "version": 1,
        "fps": float(fps),
        "num_joints": int(arr.shape[1]),
        "dims": int(arr.shape[2]),
        "frames": [[[float(x) for x in joint] for joint in frame] for frame in arr],
    }
    if confidence is not None:
        conf = np.asarray(confidence, dtype=np.float32)
        if conf.shape != arr.shape[:2]:
            raise FormatError(f"confidence shape {conf.shape} != {arr.shape[:2]}")
        doc["confidence"] = [[float(c) for c in frame] for frame in conf]
    _atomic_write(path, (json.dumps(doc, indent=1) + "\n").encode("utf-8"))


def _float32_array(value, field: str) -> np.ndarray:
    try:
        # a float past the float32 range becomes inf, which callers reject
        # as non-finite; numpy's overflow warning would be a second stderr line
        with np.errstate(over="ignore"):
            return np.asarray(value, dtype=np.float32)
    except (ValueError, TypeError) as exc:
        raise FormatError(
            f"field '{field}' is not a rectangular array of numbers: {exc}") from exc
    except OverflowError as exc:
        raise FormatError(f"field '{field}' holds a number past the float range") from exc


def read_keypoints(path) -> np.ndarray:
    """Read a keypoint JSON file back as a float32 (T, V, dims) array."""
    with open(path, "rb") as fh:
        raw = fh.read()
    doc = parse_json(raw, "keypoint file")
    if not isinstance(doc, dict):
        raise FormatError("keypoint file must contain a JSON object")
    if doc.get("version") != 1:
        raise FormatError(f"unsupported keypoint file version: {doc.get('version')!r}")
    dims = doc.get("dims")
    if dims not in (2, 3):
        raise FormatError(f"field 'dims' must be 2 or 3, got {dims!r}")
    frames = doc.get("frames")
    if not isinstance(frames, list) or not frames:
        raise FormatError("field 'frames' must be a nonempty array")
    v = doc.get("num_joints")
    arr = _float32_array(frames, "frames")
    if arr.shape[1:] != (v, dims):
        raise FormatError(f"field 'frames' must be (T, {v}, {dims}), got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise FormatError("field 'frames' contains non-finite values")
    if "confidence" in doc:
        conf = _float32_array(doc["confidence"], "confidence")
        if conf.shape != arr.shape[:2]:
            raise FormatError("field 'confidence' shape does not match frames")
    return arr


# --- checkpoints -------------------------------------------------------------


def _tensor_layout(shapes) -> Iterator[dict]:
    """Manifest entries for (name, shape) pairs packed back to back as f32."""
    offset = 0
    for name, shape in shapes:
        yield {"name": name, "shape": list(shape), "offset": offset}
        offset += math.prod(shape) * 4


def _manifest_bytes(cfg: ModelConfig, tensors: list[tuple[str, Tensor]],
                    checksum: int) -> bytes:
    manifest = {"config": cfg.to_dict(), "checksum": checksum,
                "tensors": list(_tensor_layout((name, t.shape) for name, t in tensors))}
    return json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")


def save_ckpt(model: Model, path) -> None:
    tensors = list(model.named_params())
    payload = b"".join(np.ascontiguousarray(t.data.astype("<f4")).tobytes()
                       for _, t in tensors)
    manifest = _manifest_bytes(model.config, tensors, zlib.crc32(payload))
    blob = MAGIC + struct.pack("<I", FORMAT_VERSION) + struct.pack("<I", len(manifest)) \
        + manifest + payload
    _atomic_write(path, blob)


def load_ckpt(path) -> Model:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 12 or blob[:4] != MAGIC:
        raise FormatError("not a checkpoint file: bad magic")
    version = struct.unpack_from("<I", blob, 4)[0]
    if version > FORMAT_VERSION:
        raise VersionError(f"checkpoint format version {version} is newer than "
                           f"supported version {FORMAT_VERSION}")
    mlen = struct.unpack_from("<I", blob, 8)[0]
    if len(blob) < 12 + mlen:
        raise CorruptionError("truncated manifest")
    manifest = parse_json(blob[12:12 + mlen], "manifest", CorruptionError)
    try:
        cfg = ModelConfig.from_dict(manifest["config"])
        entries = manifest["tensors"]
        checksum = manifest["checksum"]
    except (KeyError, TypeError, ConfigError) as exc:
        raise CorruptionError(f"manifest incomplete or inconsistent: {exc}") from exc

    # the payload is read by the config's own layout, so a manifest that
    # disagrees with it in any name, shape or offset is rejected up front; the
    # layout is generated as it is compared, so the check stops at the first
    # disagreement and a config asking for a huge model costs no more work
    # than the manifest's own length
    if not isinstance(entries, list):
        raise CorruptionError("manifest tensor list is not a JSON array")
    layout = []
    for stored, expected in itertools.zip_longest(
            entries, _tensor_layout((name, shape) for name, shape, _ in param_entries(cfg))):
        if stored != expected:
            raise CorruptionError("manifest tensor names, shapes or offsets do not match "
                                  "the layout the config requires")
        layout.append(expected)
    total = sum(math.prod(entry["shape"]) for entry in layout)
    payload = blob[12 + mlen:]
    if len(payload) != total * 4:
        raise CorruptionError(
            f"payload holds {len(payload) // 4} scalars, config requires {total}")
    if zlib.crc32(payload) != checksum:
        raise ChecksumError("stored payload checksum does not match payload bytes")
    finite = np.isfinite(np.frombuffer(payload, dtype="<f4"))
    if not finite.all():
        # neither init nor train writes one, so the file is corrupt
        first = int(np.argmin(finite))
        name = next(e["name"] for e in layout
                    if first < e["offset"] // 4 + math.prod(e["shape"]))
        raise CorruptionError(f"tensor '{name}' holds non-finite values")

    params: dict[str, Tensor] = {}
    for entry in layout:
        shape = tuple(entry["shape"])
        arr = np.frombuffer(payload, dtype="<f4", count=math.prod(shape),
                            offset=entry["offset"])
        params[entry["name"]] = Tensor(arr.reshape(shape).astype(np.float32))
    try:
        return build_model(cfg, params)
    except ConfigError as exc:
        raise CorruptionError(f"tensor list does not match the config manifest: {exc}") from exc

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
                     NumericError, VersionError)
from .model import (Model, ModelConfig, build_model, non_finite_entry,
                    param_entries, stack_params)
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


def _json_rows(arr: np.ndarray) -> str:
    """The rows of a (T, ...) array as comma-separated JSON arrays, one
    ``%``-format template filled per row. Nine significant digits identify
    every float32 exactly, so a read returns the same bits."""
    template = json.dumps(np.zeros(arr.shape[1:]).tolist(),
                          separators=(",", ":")).replace("0.0", "%.9g")
    rows = arr.reshape(len(arr), -1).astype(np.float64).tolist()
    text = ",".join(template % tuple(row) for row in rows)
    # %g prints -0.0 as -0, which JSON reads as the integer 0
    return text.replace("-0,", "-0.0,").replace("-0]", "-0.0]")


# the frame rate of a keypoint file that does not give one
DEFAULT_FPS = 50.0


def write_keypoints(path, seq: np.ndarray, fps: float = DEFAULT_FPS) -> None:
    """Write a (T, V, 2) or (T, V, 3) sequence as a single-line keypoint JSON
    file at ``fps`` frames per second, without confidences."""
    arr = np.asarray(seq, dtype=np.float32)
    if arr.ndim != 3 or arr.shape[-1] not in (2, 3) or 0 in arr.shape:
        raise FormatError(f"sequence must be (T, V, 2|3) with T, V >= 1, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise FormatError("sequence contains non-finite values")
    if not 0 < fps < math.inf:
        raise FormatError(f"frame rate must be a finite positive number, got {fps!r}")
    head = json.dumps({"version": 1, "fps": float(fps), "num_joints": int(arr.shape[1]),
                       "dims": int(arr.shape[2])}, separators=(",", ":"))
    _atomic_write(path, f'{head[:-1]},"frames":[{_json_rows(arr)}]}}\n'.encode("utf-8"))


def _float32_array(value, field: str) -> np.ndarray:
    """A JSON array of numbers as float32. The array is read with numpy's own
    type inference, then cast, so strings, booleans, nulls and objects are
    rejected rather than converted; a bool among numbers reads as 0 or 1."""
    try:
        arr = np.asarray(value)
    except (ValueError, TypeError) as exc:
        raise FormatError(
            f"field '{field}' is not a rectangular array of numbers: {exc}") from exc
    kind = arr.dtype.kind
    if kind == "O" and all(type(v) in (int, float, bool) for v in arr.flat):
        kind = "f"      # integers past 64 bits among numbers
    if kind not in "iuf":
        got = {"U": "strings", "b": "booleans"}.get(kind, "values of other types")
        raise FormatError(f"field '{field}' must hold numbers only, got {got}")
    try:
        # a number past the float32 range becomes inf, which callers reject
        # as non-finite; numpy's overflow warning would be a second stderr line
        with np.errstate(over="ignore"):
            return arr.astype(np.float32)
    except OverflowError as exc:
        raise FormatError(f"field '{field}' holds a number past the float range") from exc


def _positive_int(doc: dict, field: str) -> int:
    value = doc.get(field)
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise FormatError(f"field '{field}' must be a positive integer, got {value!r}")
    return value


def read_keypoints(path) -> np.ndarray:
    """Read a keypoint JSON file back as a float32 (T, V, dims) array."""
    return read_keypoints_and_fps(path)[0]


def read_keypoints_and_fps(path) -> tuple[np.ndarray, float]:
    """Read a keypoint JSON file back as a float32 (T, V, dims) array and
    its frame rate, ``DEFAULT_FPS`` when the file gives none."""
    with open(path, "rb") as fh:
        raw = fh.read()
    doc = parse_json(raw, "keypoint file")
    if not isinstance(doc, dict):
        raise FormatError("keypoint file must contain a JSON object")
    if doc.get("version") != 1:
        raise FormatError(f"unsupported keypoint file version: {doc.get('version')!r}")
    fps = doc.get("fps")
    if "fps" in doc and (isinstance(fps, bool) or not isinstance(fps, (int, float))
                         or not 0 < fps < math.inf):
        raise FormatError("field 'fps' must be a finite positive number")
    dims = _positive_int(doc, "dims")
    if dims not in (2, 3):
        raise FormatError(f"field 'dims' must be 2 or 3, got {dims!r}")
    frames = doc.get("frames")
    if not isinstance(frames, list) or not frames:
        raise FormatError("field 'frames' must be a nonempty array")
    v = _positive_int(doc, "num_joints")
    arr = _float32_array(frames, "frames")
    if arr.shape[1:] != (v, dims):
        raise FormatError(f"field 'frames' must be (T, {v}, {dims}), got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise FormatError("field 'frames' contains non-finite values")
    if "confidence" in doc:
        conf = _float32_array(doc["confidence"], "confidence")
        if conf.shape != arr.shape[:2]:
            raise FormatError("field 'confidence' shape does not match frames")
        if not np.all(np.isfinite(conf)):
            raise FormatError("field 'confidence' contains non-finite values")
    return arr, float(doc.get("fps", DEFAULT_FPS))


# --- checkpoints -------------------------------------------------------------


def _tensor_layout(cfg: ModelConfig) -> Iterator[tuple[dict, str, int | None]]:
    """The config's manifest entries, packed back to back as f32, each with
    the ``(key, index)`` of the model parameter slice that holds it."""
    offset = 0
    for name, shape, _, key, index in param_entries(cfg):
        yield {"name": name, "shape": list(shape), "offset": offset}, key, index
        offset += math.prod(shape) * 4


def _check_finite(cfg: ModelConfig, payload: bytes, params: dict[str, Tensor],
                  error: type[Exception]) -> None:
    """Raise ``error`` naming the first tensor of ``params``, which the
    payload holds as float32, with a NaN or an infinity, if the payload has
    one."""
    if not np.isfinite(np.frombuffer(payload, dtype="<f4")).all():
        arrays = {key: t.data.astype("<f4") for key, t in params.items()}
        raise error(f"tensor '{non_finite_entry(cfg, arrays)}' holds non-finite values")


def save_ckpt(model: Model, path) -> None:
    """Write a format-v1 checkpoint; a non-finite value raises
    :class:`NumericError` naming its tensor, and nothing is written."""
    layout = list(_tensor_layout(model.config))
    payload = b"".join((model.params[key].data if index is None
                        else model.params[key].data[index]).astype("<f4").tobytes()
                       for _, key, index in layout)
    entries = [entry for entry, _, _ in layout]
    _check_finite(model.config, payload, model.params, NumericError)
    manifest = json.dumps({"config": model.config.to_dict(), "checksum": zlib.crc32(payload),
                           "tensors": entries},
                          sort_keys=True, separators=(",", ":")).encode("utf-8")
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
    if version < FORMAT_VERSION:
        raise FormatError(f"checkpoint format version {version} predates "
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
    for stored, expected in itertools.zip_longest(entries, _tensor_layout(cfg)):
        if expected is None or stored != expected[0]:
            raise CorruptionError("manifest tensor names, shapes or offsets do not match "
                                  "the layout the config requires")
        layout.append(expected)
    total = sum(math.prod(entry["shape"]) for entry in entries)
    payload = blob[12 + mlen:]
    if len(payload) != total * 4:
        raise CorruptionError(
            f"payload holds {len(payload) // 4} scalars, config requires {total}")
    if zlib.crc32(payload) != checksum:
        raise ChecksumError("stored payload checksum does not match payload bytes")
    params = stack_params(
        (key, index, np.frombuffer(payload, dtype="<f4", count=math.prod(entry["shape"]),
                                   offset=entry["offset"]).reshape(entry["shape"]))
        for entry, key, index in layout)
    # save_ckpt writes no non-finite value, so the file is corrupt
    _check_finite(cfg, payload, params, CorruptionError)
    return build_model(cfg, params)

"""Property tests of the file readers, where every input loads or raises
FormatError, and of small model configs, which all run, train and round-trip.

Examples are derandomized and bounded, so a run is short and repeats itself
as long as the code does not change. It is not fixed across edits to
``src/``: hypothesis mixes constants it mines from the loaded modules into
generation, so an edit there changes which examples are drawn. A reader that
ends in any other exception fails the property; the CLI maps ``FormatError``
and its subclasses to exit code 2.
"""

import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sasmamba.errors import FormatError
from sasmamba.fileio import MAGIC, load_ckpt, read_keypoints, save_ckpt, write_keypoints
from sasmamba.model import Model, ModelConfig, astype_model, forward, init_model
from sasmamba.sas import STREAM_ORDER
from sasmamba.training import gen_synthetic, total_loss

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=250,
                    suppress_health_check=[HealthCheck.too_slow])

scalars = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
           | st.sampled_from([10**400, -10**400, 1e300, "1.5", "x", [], {}]))
values = st.recursive(scalars, lambda inner: st.lists(inner, max_size=4)
                      | st.dictionaries(st.text(max_size=4), inner, max_size=4),
                      max_leaves=12)
KEYPOINT_FIELDS = ("version", "fps", "num_joints", "dims", "frames", "confidence")


@st.composite
def keypoint_files(draw):
    """A valid keypoint file with a few of its parts replaced by anything."""
    t_n, v_n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    dims = draw(st.sampled_from([2, 3]))
    frames = draw(st.lists(st.floats(width=32), min_size=t_n * v_n * dims,
                           max_size=t_n * v_n * dims))
    doc = {"version": 1, "fps": 50.0, "num_joints": v_n, "dims": dims,
           "frames": np.reshape(frames, (t_n, v_n, dims)).tolist()}
    if draw(st.booleans()):
        doc["confidence"] = np.ones((t_n, v_n)).tolist()
    replaced = set()
    for _ in range(draw(st.integers(0, 2))):
        field = draw(st.sampled_from(KEYPOINT_FIELDS))
        # index into a field only while it still holds the valid array
        if (field in ("frames", "confidence") and field in doc and field not in replaced
                and draw(st.booleans())):
            # one coordinate (or confidence) replaced, the rest left valid
            row = doc[field][draw(st.integers(0, t_n - 1))]
            if field == "frames":
                row = row[draw(st.integers(0, v_n - 1))]
            row[draw(st.integers(0, len(row) - 1))] = draw(scalars)
        else:
            doc[field] = draw(values)
            replaced.add(field)
    # NaN and Infinity come out as the bare names that json.loads accepts
    text = json.dumps(doc)
    if draw(st.booleans()):
        # a digit run past the interpreter's int conversion limit
        text = text.replace("1", "1" * 4400, 1)
    return text.encode()


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("properties")


@PROPERTY
@given(blob=st.binary(max_size=64) | values.map(lambda v: json.dumps(v).encode())
       | keypoint_files())
def test_keypoint_reader_loads_or_raises_format_error(scratch, blob):
    path = scratch / "kp.json"
    path.write_bytes(blob)
    try:
        arr = read_keypoints(path)
    except FormatError:
        return
    assert arr.dtype == np.float32 and arr.ndim == 3 and np.all(np.isfinite(arr))


# hypothesis favours short, simple floats; raw bit patterns add ones that need
# all nine significant digits
finite_float32 = (st.floats(width=32, allow_nan=False, allow_infinity=False)
                  | st.integers(0, 2**32 - 1).map(lambda b: np.uint32(b).view(np.float32))
                  .filter(np.isfinite))


@st.composite
def keypoint_arrays(draw):
    """A finite float32 (T, V, 2|3) sequence."""
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 5)), draw(st.sampled_from([2, 3])))
    return draw(arrays(np.float32, shape, elements=finite_float32))


@PROPERTY
@given(seq=keypoint_arrays())
def test_keypoint_write_read_is_bit_identical(scratch, seq):
    path = scratch / "roundtrip.json"
    write_keypoints(path, seq)
    # compared as bits, so that -0.0 must come back as -0.0
    np.testing.assert_array_equal(read_keypoints(path).view(np.uint32), seq.view(np.uint32))


TINY = ModelConfig(L=1, D=8, T=3, V=2, K=1, N=1, strides=(1, 2))


@pytest.fixture(scope="module")
def valid_blob(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "m.ckpt"
    save_ckpt(init_model(TINY, seed=0), path)
    return path.read_bytes()


def _with_manifest(blob, edit) -> bytes:
    """``blob`` with its manifest passed through ``edit``, the length kept right."""
    mlen = struct.unpack_from("<I", blob, 8)[0]
    text = edit(json.loads(blob[12:12 + mlen])).encode()
    return MAGIC + struct.pack("<I", 1) + struct.pack("<I", len(text)) + text + blob[12 + mlen:]


def _set_path(root, path, value):
    """``root`` with the entry that ``path`` (indices taken modulo each
    container's length) walks to set to ``value``."""
    doc = root
    for i, step in enumerate(path):
        keys = list(doc) if isinstance(doc, dict) else list(range(len(doc)))
        if not keys:
            break
        key = keys[step % len(keys)]
        if i == len(path) - 1 or not isinstance(doc[key], (dict, list)):
            doc[key] = value
            break
        doc = doc[key]
    return root


edits = st.one_of(
    st.tuples(st.just("flip"), st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 255)),
                                        min_size=1, max_size=4)),
    st.tuples(st.just("truncate"), st.integers(0, 10**6)),
    st.tuples(st.just("bytes"), st.binary(max_size=80)),
    # any entry of the manifest, or one config field, or all of it replaced
    st.tuples(st.just("manifest entry"), st.tuples(st.lists(st.integers(0, 40), min_size=1,
                                                            max_size=4), values)),
    st.tuples(st.just("config field"), st.tuples(
        st.sampled_from(sorted(TINY.to_dict())),
        values | st.integers(-2, 40) | st.lists(st.integers(-2, 9), max_size=4))),
    st.tuples(st.just("manifest"), values),
    st.tuples(st.just("long digits"), st.integers(0, 10**6)),
)


@PROPERTY
@given(edit=edits)
def test_checkpoint_reader_loads_or_raises_format_error(valid_blob, scratch, edit):
    kind, arg = edit
    if kind == "flip":
        blob = bytearray(valid_blob)
        for pos, byte in arg:
            blob[pos % len(blob)] = byte
    elif kind == "truncate":
        blob = valid_blob[:arg % len(valid_blob)]
    elif kind == "bytes":
        blob = arg
    elif kind == "manifest entry":
        blob = _with_manifest(valid_blob, lambda m: json.dumps(_set_path(m, *arg)))
    elif kind == "config field":
        field, value = arg
        blob = _with_manifest(valid_blob, lambda m: json.dumps(
            {**m, "config": {**m["config"], field: value}}))
    elif kind == "manifest":
        blob = _with_manifest(valid_blob, lambda m: json.dumps(arg))
    else:
        # one digit of the manifest stretched past the int conversion limit
        def stretch(m):
            text = json.dumps(m)
            digits = [i for i, ch in enumerate(text) if ch.isdigit()]
            i = digits[arg % len(digits)]
            return text[:i] + text[i] * 4400 + text[i + 1:]
        blob = _with_manifest(valid_blob, stretch)
    path = scratch / "m.ckpt"
    path.write_bytes(bytes(blob))
    try:
        model = load_ckpt(path)
    except FormatError:
        return
    assert isinstance(model, Model)


def test_checkpoint_reader_accepts_the_valid_file(valid_blob, scratch):
    # the file every edit above starts from must itself load
    path = scratch / "valid.ckpt"
    path.write_bytes(valid_blob)
    assert load_ckpt(path).config == TINY


@st.composite
def model_configs(draw):
    """A small config: any grid from 1 x 1 up, any tap grid, stride set,
    non-empty stream subset in any order, and gating."""
    strides = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=3)))
    # the stride groups split D into (2, 1, 1) parts for three strides, equal ones otherwise
    parts = 4 if len(strides) == 3 else len(strides)
    return ModelConfig(
        L=draw(st.integers(1, 2)), D=parts * draw(st.integers(1, 3)),
        T=draw(st.integers(1, 8)), V=draw(st.integers(1, 5)),
        K=draw(st.sampled_from([1, 3, 5, 7])), N=draw(st.integers(1, 3)), strides=strides,
        streams=tuple(draw(st.lists(st.sampled_from(STREAM_ORDER), min_size=1, unique=True))),
        mlp_ratio=draw(st.integers(1, 2)), gated_streams=draw(st.booleans()))


@settings(PROPERTY, max_examples=60)
@given(cfg=model_configs(), seed=st.integers(0, 3))
def test_small_configs_run_train_and_round_trip(scratch, cfg, seed):
    model = init_model(cfg, seed)
    model.mark_trainable()
    kp2d, pose3d = gen_synthetic(seed, 1, cfg.T, cfg.V).pairs[0]
    out = forward(model, kp2d)
    assert out.shape == (cfg.T, cfg.V, 3) and out.dtype == np.float32
    assert np.isfinite(out.data).all()
    ref = forward(astype_model(model, np.float64), kp2d.astype(np.float64)).data
    assert np.abs(out.data - ref).max() <= 1e-4 * np.abs(ref).max()
    total_loss(out, pose3d).backward()
    for name, t in model.named_params():
        assert t.grad is not None and np.isfinite(t.grad).all(), name
    path = scratch / "config.ckpt"
    save_ckpt(model, path)
    blob = path.read_bytes()
    save_ckpt(load_ckpt(path), path)
    assert path.read_bytes() == blob

import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from twostream.errors import DataError
from twostream.fileio import (
    read_checkpoint,
    read_tensor,
    read_tensor_from,
    write_checkpoint,
    write_json,
    write_tensor,
)


def test_write_json_sorts_keys_indents_by_two_and_ends_in_one_newline(tmp_path):
    path = tmp_path / "a.json"
    write_json(path, {"b": [1, 2.5], "a": {"d": None, "c": "x"}})
    assert path.read_bytes() == (
        b'{\n  "a": {\n    "c": "x",\n    "d": null\n  },\n  "b": [\n    1,\n    2.5\n  ]\n}\n'
    )


def test_tensor_roundtrip_f64(tmp_path, rng):
    path = tmp_path / "a.tsr"
    original = rng.normal(size=(3, 4, 5))
    write_tensor(path, original)
    back = read_tensor(path)
    assert back.dtype == np.float64
    assert np.array_equal(back, original)


def test_read_tensor_is_a_writable_view_of_the_bytes_read(tmp_path, rng):
    path = tmp_path / "a.tsr"
    write_tensor(path, rng.normal(size=(3, 4)))
    back = read_tensor(path)
    assert back.dtype.isnative
    assert back.flags.writeable and not back.flags.owndata  # no second copy of the payload
    back[0, 0] = 1.5
    assert back[0, 0] == 1.5


def test_tensor_roundtrip_f32(tmp_path):
    path = tmp_path / "a.tsr"
    original = np.arange(6, dtype=np.float32).reshape(2, 3)
    write_tensor(path, original)
    back = read_tensor(path)
    assert back.dtype == np.float32
    assert np.array_equal(back, original)


# ndim 0-5 with zero-size extents, every float value (NaN payloads, infinities,
# subnormals, -0.0), at both stored precisions
tensors = st.sampled_from([np.float32, np.float64]).flatmap(
    lambda dtype: arrays(dtype, array_shapes(min_dims=0, max_dims=5, min_side=0, max_side=4))
)


def _same_tensor(back, original):
    return (
        back.dtype == original.dtype
        and back.shape == original.shape
        and back.tobytes() == original.tobytes()
    )


@settings(derandomize=True, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tensors)
def test_tensor_roundtrip_any_shape_and_precision(tmp_path, original):
    path = tmp_path / "a.tsr"
    write_tensor(path, original)
    assert _same_tensor(read_tensor(path), original)


@settings(derandomize=True, max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(tensors, min_size=0, max_size=4))
def test_checkpoint_roundtrip_any_shapes_and_precisions(tmp_path, originals):
    path = tmp_path / "m.ckpt"
    items = [(f"t{k}.w", a) for k, a in enumerate(originals)]
    write_checkpoint(path, items)
    back = read_checkpoint(path)
    assert list(back) == [name for name, _ in items]
    for name, original in items:
        assert _same_tensor(back[name], original), name


def test_header_is_ascii_and_self_describing(tmp_path):
    path = tmp_path / "a.tsr"
    write_tensor(path, np.zeros((2, 7)))
    header = path.read_bytes().split(b"\n", 1)[0]
    assert header == b"TSR1 2 2 7 f64"


def test_payload_is_little_endian_row_major(tmp_path):
    path = tmp_path / "a.tsr"
    write_tensor(path, np.array([[1.0, 2.0], [3.0, 4.0]]))
    blob = path.read_bytes().split(b"\n", 1)[1]
    assert np.array_equal(np.frombuffer(blob, dtype="<f8"), [1.0, 2.0, 3.0, 4.0])


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "a.tsr"
    write_tensor(path, np.ones((4, 4)))
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(DataError, match="truncated"):
        read_tensor(path)


@pytest.mark.parametrize(
    "header",
    [
        b"TSR1 x 3 f64",  # ndim not an integer
        b"TSR1 1 3q f64",  # a dimension not an integer
        b"TSR1 1 \xc3\xa9 f64",  # not ASCII
        b"TSR1 2 3 f64",  # ndim 2, one dimension
        b"TSR1 1 -3 f64",
        b"TSR1 f64",
        b"TSR2 1 3 f64",
        b"TSR1 1 3 f16",
    ],
)
def test_malformed_header_names_the_file(tmp_path, header):
    path = tmp_path / "a.tsr"
    path.write_bytes(header + b"\n" + bytes(24))
    with pytest.raises(DataError, match=re.escape(f"{path}: ")):
        read_tensor(path)


@pytest.mark.parametrize(
    "header",
    [
        b"TSR1 2 4294967296 4294967296 f64",  # the extents' int64 product wraps to 0
        b"TSR1 2 3037000500 3037000500 f64",  # their int64 product overflows
        b"TSR1 1 144115188075855872 f64",  # asks for 2**60 payload bytes
        b"TSR1 2 0 4611686018427387904 f64",  # no payload, but extents no array can have
    ],
)
def test_header_asking_for_more_than_the_file_holds_fails_before_allocating(tmp_path, header):
    record = header + b"\n" + bytes(16)
    path, ckpt = tmp_path / "a.tsr", tmp_path / "m.ckpt"
    path.write_bytes(record)
    ckpt.write_bytes(b"CKPT1 1\nw 0\n" + record)
    read_fd, write_fd = os.pipe()
    os.write(write_fd, record)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:  # no size to check: a bounded read
        tracemalloc.start()
        try:
            reads = [(read_tensor, path, path), (read_checkpoint, ckpt, ckpt), (read_tensor_from, pipe, read_fd)]
            for read, source, name in reads:
                with pytest.raises(DataError, match=re.escape(f"{name}: ")):
                    read(source)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 4 << 20


def test_checkpoint_roundtrip_preserves_order_and_values(tmp_path, rng):
    path = tmp_path / "model.ckpt"
    items = [
        ("layer0.W", rng.normal(size=(4, 6))),
        ("layer0.b", rng.normal(size=4)),
        ("out.W", rng.normal(size=(2, 4)).astype(np.float32)),
    ]
    write_checkpoint(path, items)
    back = read_checkpoint(path)
    assert list(back) == ["layer0.W", "layer0.b", "out.W"]
    for name, arr in items:
        assert np.array_equal(back[name], arr)
        assert back[name].dtype == arr.dtype


def test_checkpoint_rejects_whitespace_names(tmp_path):
    with pytest.raises(DataError):
        write_checkpoint(tmp_path / "x.ckpt", [("bad name", np.zeros(2))])


def test_checkpoint_rejects_repeated_names(tmp_path):
    path = tmp_path / "x.ckpt"
    with pytest.raises(DataError, match=re.escape(f"{path}: checkpoint name 'w'")):
        write_checkpoint(path, [("w", np.ones(2)), ("w", np.zeros(3))])
    assert not path.exists()


def test_checkpoint_rejects_non_ascii_names_before_opening_the_file(tmp_path):
    path, name = tmp_path / "x.ckpt", "w\xe9"
    with pytest.raises(DataError, match=re.escape(f"{path}: checkpoint name {name!r}")):
        write_checkpoint(path, [("w", np.ones(2)), (name, np.zeros(3))])
    assert not path.exists()


def test_checkpoint_manifest_offsets_are_exact(tmp_path):
    path = tmp_path / "m.ckpt"
    write_checkpoint(path, [("a", np.zeros(2)), ("b", np.ones(3))])
    lines = path.read_bytes().split(b"\n")
    assert lines[0] == b"CKPT1 2"
    name_a, off_a = lines[1].split()
    name_b, off_b = lines[2].split()
    assert (name_a, int(off_a)) == (b"a", 0)
    # record a = header "TSR1 1 2 f64\n" (13 bytes) + 16 payload bytes
    assert (name_b, int(off_b)) == (b"b", 13 + 16)


@pytest.mark.parametrize(
    "head, payload",
    [
        (b"CKPT1 two\n", b""),
        (b"CKPT1\n", b""),
        (b"CKPT2 1\nw 0\n", b""),
        (b"CKPT1 1\nw zz\n", b""),
        (b"CKPT1 1\nw -5\n", b""),
        (b"CKPT1 1\n\xc3\xa9 0\n", b""),
        (b"CKPT1 2\nw 0\n", b"TSR1 1 2 f64\n" + bytes(16)),
        (b"CKPT1 1\nw 0\n", b"TSR1 x 2 f64\n" + bytes(16)),
        (b"CKPT1 1\nw 0\n", b"TSR1 1 2 f64\n" + bytes(8)),
        (b"CKPT1 2\nw 0\nw 29\n", b"TSR1 1 2 f64\n" + bytes(16) + b"TSR1 1 3 f64\n" + bytes(24)),
    ],
    ids=[
        "count-not-int", "no-count", "wrong-magic", "offset-not-int", "negative-offset",
        "name-not-ascii", "manifest-short", "record-header", "record-truncated", "name-repeated",
    ],
)
def test_malformed_checkpoint_names_the_file(tmp_path, head, payload):
    path = tmp_path / "m.ckpt"
    path.write_bytes(head + payload)
    with pytest.raises(DataError, match=re.escape(f"{path}: ")):
        read_checkpoint(path)

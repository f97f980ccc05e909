"""On-disk interchange formats.

JSON — every results file (`run.json`, `ladder_results.json`, `timing.json`,
`fuse --out`): sorted keys, a 2-space indent and one final newline.

TSR1 — a single tensor: ASCII header line
    ``TSR1 <ndim> <d1> ... <dn> <f32|f64>\\n``
followed by the little-endian binary payload in row-major order.

CKPT1 — a checkpoint of named tensors:
    ``CKPT1 <count>\\n`` then <count> manifest lines ``<name> <offset>\\n``
    (offset into the payload section), then the payload: the TSR1 records
    back to back, in manifest order.
"""

from __future__ import annotations

import io
import json
import math
import os
import stat

import numpy as np

from .errors import DataError

_DTYPE_TO_TAG = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}
_TAG_TO_DTYPE = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}


def write_json(path, obj) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _tsr1_header(array: np.ndarray) -> bytes:
    tag = _DTYPE_TO_TAG.get(array.dtype)
    if tag is None:
        raise DataError(f"TSR1 stores f32/f64 tensors only, got dtype {array.dtype}")
    dims = " ".join(str(d) for d in array.shape)
    return f"TSR1 {array.ndim} {dims} {tag}\n".encode("ascii")


def write_tensor_to(fh, array: np.ndarray) -> int:
    """Write one TSR1 record to an open binary file; returns bytes written."""
    array = np.asarray(array, order="C")  # ascontiguousarray would make a 0-d array 1-d
    header = _tsr1_header(array)
    payload = array.astype(array.dtype.newbyteorder("<"), copy=False).tobytes(order="C")
    fh.write(header)
    fh.write(payload)
    return len(header) + len(payload)


def write_tensor(path, array: np.ndarray) -> None:
    with open(path, "wb") as fh:
        write_tensor_to(fh, array)


def read_tensor_from(fh) -> np.ndarray:
    """Read one TSR1 record from an open binary file. A record that is not
    well formed raises a DataError that names the file."""
    source = getattr(fh, "name", "<stream>")
    line = fh.readline()
    if not line.endswith(b"\n"):
        raise DataError(f"{source}: truncated TSR1 header")
    try:
        magic, ndim, *dims, tag = line.decode("ascii").split()
        shape = tuple(int(d) for d in dims)
        well_formed = magic == "TSR1" and int(ndim) == len(shape) and min(shape, default=0) >= 0
    except ValueError:  # too few fields, a non-ASCII byte or a non-integer
        well_formed = False
    if not well_formed:
        raise DataError(f"{source}: malformed TSR1 header {line[:64]!r}")
    if tag not in _TAG_TO_DTYPE:
        raise DataError(f"{source}: unknown TSR1 dtype tag {tag!r}")
    dtype = _TAG_TO_DTYPE[tag]
    nbytes = math.prod(shape) * dtype.itemsize  # Python ints, so no extent wraps around
    if math.prod(max(d, 1) for d in shape) * dtype.itemsize > np.iinfo(np.intp).max:
        raise DataError(f"{source}: TSR1 extents {shape} are too large for an array")
    array = np.frombuffer(_payload(fh, nbytes, source), dtype=dtype).reshape(shape)  # writable: a bytearray's view
    return array if dtype.isnative else array.astype(dtype.newbyteorder("="))


def _payload(fh, nbytes, source):
    """The next `nbytes` bytes of `fh`, read once into a bytearray, and never
    more memory than the file holds: a regular file's bytes left are checked
    before the allocation, and any other stream is read in bounded chunks."""
    try:
        st = os.fstat(fh.fileno())
        left = st.st_size - fh.tell() if stat.S_ISREG(st.st_mode) else None
    except (AttributeError, OSError):  # no descriptor (io.UnsupportedOperation is an OSError)
        left = None
    if left is None:
        payload = bytearray()
        while len(payload) < nbytes and (chunk := fh.read(min(nbytes - len(payload), 1 << 20))):
            payload += chunk
        got = len(payload)
    else:
        payload = bytearray(nbytes if nbytes <= left else 0)  # nothing for a file too short
        got = fh.readinto(payload)
    if got != nbytes:
        raise DataError(f"{source}: truncated TSR1 payload: the header asks for {nbytes} bytes")
    return payload


def read_tensor(path) -> np.ndarray:
    with open(path, "rb") as fh:
        return read_tensor_from(fh)


def write_checkpoint(path, named_tensors) -> None:
    """Write a CKPT1 file from an ordered mapping (or pair list) of name -> tensor."""
    items = list(named_tensors.items()) if hasattr(named_tensors, "items") else list(named_tensors)
    records = {}
    for name, array in items:
        if not name or any(c.isspace() for c in name):
            raise DataError(f"checkpoint names must be non-empty and whitespace-free: {name!r}")
        if not name.isascii():
            raise DataError(f"{path}: checkpoint name {name!r} is not ASCII")
        _check_new_name(path, name, records)
        buf = io.BytesIO()
        write_tensor_to(buf, array)
        records[name] = buf.getvalue()
    with open(path, "wb") as fh:
        fh.write(f"CKPT1 {len(records)}\n".encode("ascii"))
        offset = 0
        for name, blob in records.items():
            fh.write(f"{name} {offset}\n".encode("ascii"))
            offset += len(blob)
        fh.writelines(records.values())


def _check_new_name(path, name, seen):
    """A CKPT1 file maps each name to one tensor: refuse a name already in `seen`."""
    if name in seen:
        raise DataError(f"{path}: checkpoint name {name!r} appears more than once")


def _name_and_number(fh, path, what):
    """The next line of a CKPT1 file's head, `<name> <count or offset>`."""
    try:
        name, number = fh.readline().decode("ascii").split()
    except ValueError:  # a wrong field count or a non-ASCII byte
        number = ""
    if not number.isdigit():
        raise DataError(f"{path}: malformed CKPT1 {what}")
    return name, int(number)


def read_checkpoint(path) -> dict:
    """Read a CKPT1 file into an ordered dict name -> tensor."""
    with open(path, "rb") as fh:
        magic, count = _name_and_number(fh, path, "header")
        if magic != "CKPT1":
            raise DataError(f"{path}: not a CKPT1 file")
        entries = [_name_and_number(fh, path, "manifest line") for _ in range(count)]
        payload_start = fh.tell()
        out = {}
        for name, offset in entries:
            _check_new_name(path, name, out)
            fh.seek(payload_start + offset)
            out[name] = read_tensor_from(fh)
    return out

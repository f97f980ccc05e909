"""On-disk interchange formats.

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
import numpy as np

from .errors import DataError

_DTYPE_TO_TAG = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}
_TAG_TO_DTYPE = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}


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
    line = bytearray()
    while True:
        ch = fh.read(1)
        if not ch:
            raise DataError("truncated TSR1 header")
        if ch == b"\n":
            break
        line += ch
    parts = line.decode("ascii").split()
    if len(parts) < 3 or parts[0] != "TSR1":
        raise DataError(f"not a TSR1 record: {line[:32]!r}")
    ndim = int(parts[1])
    if len(parts) != 2 + ndim + 1:
        raise DataError(f"malformed TSR1 header: {line!r}")
    shape = tuple(int(d) for d in parts[2 : 2 + ndim])
    tag = parts[-1]
    if tag not in _TAG_TO_DTYPE:
        raise DataError(f"unknown TSR1 dtype tag {tag!r}")
    dtype = _TAG_TO_DTYPE[tag]
    count = int(np.prod(shape, dtype=np.int64)) if shape else 1
    raw = fh.read(count * dtype.itemsize)
    if len(raw) != count * dtype.itemsize:
        raise DataError("truncated TSR1 payload")
    return np.frombuffer(raw, dtype=dtype).reshape(shape).astype(dtype.newbyteorder("="))


def read_tensor(path) -> np.ndarray:
    with open(path, "rb") as fh:
        return read_tensor_from(fh)


def write_checkpoint(path, named_tensors) -> None:
    """Write a CKPT1 file from an ordered mapping (or pair list) of name -> tensor."""
    items = list(named_tensors.items()) if hasattr(named_tensors, "items") else list(named_tensors)
    records = []
    offset = 0
    manifest = []
    for name, array in items:
        if not name or any(c.isspace() for c in name):
            raise DataError(f"checkpoint names must be non-empty and whitespace-free: {name!r}")
        buf = io.BytesIO()
        write_tensor_to(buf, array)
        blob = buf.getvalue()
        manifest.append(f"{name} {offset}\n")
        records.append(blob)
        offset += len(blob)
    with open(path, "wb") as fh:
        fh.write(f"CKPT1 {len(items)}\n".encode("ascii"))
        for line in manifest:
            fh.write(line.encode("ascii"))
        for blob in records:
            fh.write(blob)


def read_checkpoint(path) -> dict:
    """Read a CKPT1 file into an ordered dict name -> tensor."""
    with open(path, "rb") as fh:
        head = fh.readline().decode("ascii").split()
        if len(head) != 2 or head[0] != "CKPT1":
            raise DataError(f"not a CKPT1 file: {path}")
        count = int(head[1])
        entries = []
        for _ in range(count):
            parts = fh.readline().decode("ascii").split()
            if len(parts) != 2:
                raise DataError(f"malformed CKPT1 manifest line in {path}")
            entries.append((parts[0], int(parts[1])))
        payload_start = fh.tell()
        out = {}
        for name, offset in entries:
            fh.seek(payload_start + offset)
            out[name] = read_tensor_from(fh)
    return out

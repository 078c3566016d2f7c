"""The binary container shared by cell files, model files and stored features.

Layout: a 4-byte magic, a little-endian uint32 header length, a UTF-8 JSON
header whose ``blocks`` array gives the name, shape and dtype of every block
in order, then the blocks themselves. A block's dtype is ``<f8`` (little-
endian float64) when its ``dtype`` key is absent, or one of the integer
dtypes ``<i4`` (int32), ``<i2`` (int16) and ``|u1`` (uint8): an int32 array
is written at the narrowest of them that holds its values, and read back as
int32. A block marked ``"repeat": true`` stores one element that every
element of its shape repeats, in the way of Arrow's run-end encoding with a
single run (https://arrow.apache.org/docs/format/Columnar.html#run-end-encoded-layout).
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

_DTYPES = ("<f8", "<i4", "<i2", "|u1")
_NARROW = ("|u1", "<i2")  # the integer dtypes below int32, narrowest first


def _block_dtype(arr: np.ndarray) -> str:
    return "<i4" if arr.dtype.kind == "i" and arr.dtype.itemsize == 4 else "<f8"


def _narrowest(values: np.ndarray) -> np.ndarray:
    """The int32 ``values`` in the narrowest integer dtype that holds them."""
    lo, hi = (int(values.min()), int(values.max())) if values.size else (0, 0)
    for dtype in _NARROW:
        info = np.iinfo(dtype)
        if info.min <= lo and hi <= info.max:
            return values.astype(dtype)
    return values


def _stored(arr: np.ndarray, dtype: str) -> tuple[np.ndarray, bool]:
    """The values a ``dtype`` block of ``arr`` stores, and whether the block
    repeats one element: it does when ``arr`` has two or more elements and
    all of them have the same bytes (so ``0.0`` and ``-0.0``, or two NaN
    payloads, differ)."""
    if arr.size >= 2 and not any(arr.strides):  # one element seen through every index
        return np.array(arr.flat[0], dtype=dtype).reshape(1), True
    flat = np.ascontiguousarray(arr, dtype=dtype).reshape(-1)  # the buffer itself, not a copy
    bits = flat.view(f"u{flat.itemsize}")
    if flat.size >= 2 and (bits == bits[0]).all():
        return flat[:1], True
    return flat, False


def write_container(path, magic: bytes, header: dict, blocks) -> Path:
    """Write ``header`` and the ordered (name, array) pairs ``blocks`` to
    ``path``, which appears complete or not at all. An int32 array is
    stored as the narrowest of ``|u1``, ``<i2`` and ``<i4`` that holds its
    values, any other array as ``<f8``; a block whose elements all have the
    same bytes stores one of them."""
    path = Path(path)
    specs, stored = [], []
    for name, arr in blocks:
        dtype = _block_dtype(arr)
        values, repeat = _stored(arr, dtype)
        spec = {"name": name, "shape": list(arr.shape)}
        if dtype == "<i4":
            values = _narrowest(values)
            spec["dtype"] = values.dtype.str
        if repeat:
            spec["repeat"] = True
        specs.append(spec)
        stored.append(values)
    header = {**header, "blocks": specs}
    payload = json.dumps(header, sort_keys=True).encode("utf-8")
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<I", len(payload)))
        fh.write(payload)
        for values in stored:
            fh.write(values)
    os.replace(tmp, path)
    return path


def parse_container(data: bytes, magic: bytes, error) -> tuple[dict, dict]:
    """Split a container's bytes into its header and {block name: array}.

    The arrays are read-only, float64 or int32: a float64 or int32 block is
    a view of ``data``, and a narrower integer block is widened to a new
    int32 array. A repeated block is its one stored element broadcast to
    the block's shape (every stride 0). A wrong magic, a truncated or
    non-JSON header, a malformed block list (a ``dtype`` other than
    ``<f8``, ``<i4``, ``<i2`` or ``|u1``, or a ``repeat`` other than true or
    false, included), or blocks that do not fill the rest of the file
    exactly raise ``error``.
    """
    if data[:4] != magic:
        raise error(f"bad magic {data[:4]!r}, expected {magic!r}")
    if len(data) < 8:
        raise error("truncated before the header length")
    (length,) = struct.unpack_from("<I", data, 4)
    offset = 8 + length
    if len(data) < offset:
        raise error(f"truncated header: {length} bytes declared, {len(data) - 8} present")
    try:
        header = json.loads(data[8:offset].decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # also an overlong integer, or nesting too deep
        raise error(f"header is not UTF-8 JSON: {exc}") from exc
    specs = header.get("blocks") if isinstance(header, dict) else None
    if not isinstance(specs, list):
        raise error("header must be a JSON object with a 'blocks' array")
    blocks = {}
    for i, spec in enumerate(specs):
        name, shape = (spec.get("name"), spec.get("shape")) if isinstance(spec, dict) else (None, None)
        if (not isinstance(name, str) or name in blocks or not isinstance(shape, list)
                or not all(type(n) is int and n >= 0 for n in shape)):
            raise error(f"blocks[{i}]: expected a new name and a shape of non-negative integers")
        dtype = spec.get("dtype", "<f8")
        if dtype not in _DTYPES:
            raise error(f"blocks[{i}]: dtype must be '<f8' (the default), '<i4', '<i2' or '|u1', "
                        f"got {dtype!r}")
        repeat = spec.get("repeat", False)
        if type(repeat) is not bool:
            raise error(f"blocks[{i}]: repeat must be true or false, got {repeat!r}")
        count = 1 if repeat else math.prod(shape)
        size = count * np.dtype(dtype).itemsize
        if offset + size > len(data):
            raise error(f"truncated block '{name}'")
        arr = np.frombuffer(data, dtype=dtype, count=count, offset=offset)
        if dtype in _NARROW:
            arr = arr.astype("<i4")
            arr.flags.writeable = False
        blocks[name] = np.broadcast_to(arr.reshape(()), shape) if repeat else arr.reshape(shape)
        offset += size
    if offset != len(data):
        raise error(f"{len(data) - offset} bytes follow the last block")
    return header, blocks

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

A 1-D float64 block that does not repeat may be stored as its runs of
elements with the same bytes (so ``0.0`` and ``-0.0``, or two NaN payloads,
start new runs), Arrow's run-end encoding with the run lengths in place of
their ends: ``"runs": r`` and ``"lengths"`` of ``|u1``, ``<i2`` or ``<i4``,
and a body of the r run values, then the r lengths at that width, each at
least 1 and together the block's length. It reads back as a new float64
array. A writer that does not deflate stores a block so when its runs take
at most half of its plain bytes: in a cell file, a current held through
each step and a capacity held through the other half of the cycle. Readers
from before this block existed refuse the unknown key ``runs``.

A header that says ``"deflate": true`` stores the blocks as one zlib stream
(RFC 1950, which ends in an Adler-32 checksum of the blocks) instead, and
the stream must inflate to exactly the bytes the block list declares. A
writer asks for it, and gets it only when it makes the file smaller: model
files and stored features ask; cell files never do, so their plain blocks
stay views of the mapped file.

In a deflated file, a 2-D float64 block that does not repeat may be stored
as the differences of its IEEE bit patterns, read as uint64, between
neighbours along one axis (modulo 2**64, the first along that axis against
0), the neighbour coding of Gorilla (Pelkonen et al., VLDB 2015): smooth
rows of floats then share their high bits, which zlib shrinks where it
cannot shrink the floats. Such a block says ``"dtype": "<u8"`` and
``"delta": 0`` or ``1``, the axis, each valid only with the other and only
on a 2-D shape, and reads back as the running sums of the differences along
that axis, bit for bit the float64 block that was written. The writer
deflates the file with no delta, then with every block that is at least 2
long along axis 0 differenced along it, then the same for axis 1, and keeps
whichever is smallest. Readers from before this block existed refuse
``<u8`` as a dtype, so they refuse such a file instead of misreading it.
"""

from __future__ import annotations

import json
import math
import mmap
import os
import struct
import sys
import zlib
from pathlib import Path

import numpy as np

_DTYPES = ("<f8", "<i4", "<i2", "|u1")  # and "<u8", which only a delta block has
_NARROW = ("|u1", "<i2")  # the integer dtypes below int32, narrowest first
_LENGTHS = ("|u1", "<i2", "<i4")  # the dtypes of a run block's lengths
_SPEC_KEYS = {"name", "shape", "dtype", "repeat", "delta", "runs", "lengths"}


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


def _runs(flat: np.ndarray):
    """The body of a run block of the float64 ``flat`` and the keys its spec
    adds, or None when the block would take more than half of ``flat``'s bytes."""
    bits = flat.view("<u8")
    changes = bits[1:] != bits[:-1]
    if 2 * 9 * (np.count_nonzero(changes) + 1) > flat.nbytes or flat.size > 2**31 - 1:
        return None  # as a run takes 9 bytes or more
    starts = np.flatnonzero(changes) + 1
    lengths = _narrowest(np.diff(starts, prepend=0, append=flat.size).astype(np.int32))
    values = flat[np.append(0, starts)]
    if 2 * (values.nbytes + lengths.nbytes) > flat.nbytes:
        return None
    body = np.concatenate((values.view(np.uint8), lengths.view(np.uint8)))
    return body, {"runs": values.size, "lengths": lengths.dtype.str}


def _codings(specs, stored):
    """The block ``specs`` and ``stored`` values as they are, then, for each
    axis along which some block is eligible, with every eligible block (2-D,
    float64, not repeated, at least 2 long along the axis) stored as the
    differences of its uint64 bits along that axis."""
    yield specs, stored
    for axis in (0, 1):
        coded, values = list(specs), list(stored)
        for i, spec in enumerate(specs):
            shape = spec["shape"]
            if len(shape) == 2 and shape[axis] >= 2 and "dtype" not in spec and "repeat" not in spec:
                bits = stored[i].view("<u8").reshape(shape)
                values[i] = np.diff(bits, axis=axis, prepend=np.uint64(0))  # wraps modulo 2**64
                coded[i] = {**spec, "dtype": "<u8", "delta": axis}
        if coded != specs:
            yield coded, values


def write_container(path, magic: bytes, header: dict, blocks, *, deflate: bool = False) -> Path:
    """Write ``header`` and the ordered (name, array) pairs ``blocks`` to
    ``path``, which appears complete or not at all. An int32 array is
    stored as the narrowest of ``|u1``, ``<i2`` and ``<i4`` that holds its
    values, any other array as ``<f8``; a block whose elements all have the
    same bytes stores one of them. With ``deflate``, the blocks are stored
    as one zlib stream when that makes the file smaller, each 2-D float64
    block as bit differences along the axis, if any, that makes it smallest;
    without it, a 1-D float64 block is stored as runs when they take at most
    half of its bytes."""
    path = Path(path)
    specs, stored = [], []
    for name, arr in blocks:
        dtype = _block_dtype(arr)
        values, repeat = _stored(arr, dtype)
        spec = {"name": name, "shape": list(arr.shape)}
        runs = None if deflate or repeat or dtype != "<f8" or arr.ndim != 1 else _runs(values)
        if dtype == "<i4":
            values = _narrowest(values)
            spec["dtype"] = values.dtype.str
        if repeat:
            spec["repeat"] = True
        if runs is not None:
            values, keys = runs
            spec.update(keys)
        specs.append(spec)
        stored.append(values)
    header = {**header, "blocks": specs}
    header.pop("deflate", None)  # like "blocks", the container's own key
    payload = json.dumps(header, sort_keys=True).encode("utf-8")
    body, size = stored, len(payload) + sum(values.nbytes for values in stored)
    for coded, values in _codings(specs, stored) if deflate else ():  # no delta first: it wins a tie
        packer = zlib.compressobj()
        stream = [packer.compress(block) for block in values] + [packer.flush()]
        packed = json.dumps({**header, "blocks": coded, "deflate": True},
                            sort_keys=True).encode("utf-8")
        if len(packed) + sum(map(len, stream)) < size:
            payload, body, size = packed, stream, len(packed) + sum(map(len, stream))
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<I", len(payload)))
        fh.write(payload)
        for values in body:
            fh.write(values)
    os.replace(tmp, path)
    return path


def read_header(data: bytes, magic: bytes, error) -> tuple[dict, int]:
    """A container's header and the offset of its first block, read from the
    start of ``data`` alone. A wrong magic, or a header that is truncated,
    not JSON or not an object with a ``blocks`` array, raises ``error``."""
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
    if not isinstance(header, dict) or not isinstance(header.get("blocks"), list):
        raise error("header must be a JSON object with a 'blocks' array")
    return header, offset


def parse_container(data: bytes, magic: bytes, error) -> tuple[dict, dict]:
    """Split a container's bytes into its header and {block name: array}.

    The arrays are read-only, float64 or int32: a float64 or int32 block is
    a view of ``data`` (of the inflated bytes, when the blocks are one zlib
    stream), and a narrower integer block is widened to a new int32 array.
    A repeated block is its one stored element broadcast to the block's
    shape (every stride 0). A delta block is the running sums of its uint64
    differences along its axis, a new float64 array, and a run block its
    runs repeated, another; when ``data`` is an ``mmap``, the whole pages
    inside a run block are returned to the system once it is decoded. What
    :func:`read_header` refuses, a malformed block list (a key other than
    ``name``, ``shape``, ``dtype``, ``repeat``, ``delta``, ``runs`` and
    ``lengths``, a ``dtype`` other than ``<f8``, ``<i4``, ``<i2``, ``|u1``
    and ``<u8``, a ``repeat`` other than true or false, a ``<u8`` dtype and
    a ``delta`` of 0 or 1 that do not come together on a 2-D block that
    does not repeat, a ``runs`` and ``lengths`` that do not come together on
    a 1-D block without ``repeat``, ``dtype`` and ``delta``, or a
    ``lengths`` other than ``|u1``, ``<i2`` and ``<i4``, included), run
    lengths below 1 or not summing to the block's length, a ``deflate``
    other than true or false, blocks that do not fill the rest of the file
    exactly, or a stream that is corrupt, incomplete, followed by more bytes
    or inflates to any other size than the blocks declare raise ``error``.
    """
    header, offset = read_header(data, magic, error)
    layout, declared = {}, 0
    for i, spec in enumerate(header["blocks"]):
        name, shape = (spec.get("name"), spec.get("shape")) if isinstance(spec, dict) else (None, None)
        if (not isinstance(name, str) or name in layout or not isinstance(shape, list)
                or not all(type(n) is int and n >= 0 for n in shape)):
            raise error(f"blocks[{i}]: expected a new name and a shape of non-negative integers")
        unknown = sorted(set(spec) - _SPEC_KEYS)
        if unknown:
            raise error(f"blocks[{i}]: unknown key {', '.join(map(repr, unknown))}")
        dtype = spec.get("dtype", "<f8")
        if dtype not in _DTYPES and dtype != "<u8":
            raise error(f"blocks[{i}]: dtype must be '<f8' (the default), '<i4', '<i2' or '|u1', "
                        f"got {dtype!r}")
        repeat = spec.get("repeat", False)
        if type(repeat) is not bool:
            raise error(f"blocks[{i}]: repeat must be true or false, got {repeat!r}")
        delta = spec.get("delta")
        if (dtype == "<u8" or delta is not None) and not (
                dtype == "<u8" and type(delta) is int and delta in (0, 1)
                and len(shape) == 2 and not repeat):
            raise error(f"blocks[{i}]: dtype '<u8' and a delta of 0 or 1 go together, on a 2-D "
                        f"block that does not repeat; got dtype {dtype!r}, delta {delta!r}, "
                        f"shape {shape}, repeat {repeat}")
        runs, lengths = spec.get("runs"), spec.get("lengths")
        if (runs is not None or lengths is not None) and not (
                type(runs) is int and runs >= 0 and lengths is not None and len(shape) == 1
                and not {"dtype", "repeat", "delta"} & spec.keys()):
            raise error(f"blocks[{i}]: a count of runs and their lengths go together, on a 1-D "
                        f"block without repeat, dtype or delta; got runs {runs!r}, lengths "
                        f"{lengths!r}, shape {shape}, keys {sorted(spec)}")
        if lengths is not None and lengths not in _LENGTHS:
            raise error(f"blocks[{i}]: lengths must be '|u1', '<i2' or '<i4', got {lengths!r}")
        if runs is not None:
            count, size = runs, runs * (8 + np.dtype(lengths).itemsize)
        else:
            count = 1 if repeat else math.prod(shape)
            size = count * np.dtype(dtype).itemsize
        layout[name] = (shape, dtype, repeat, count, size, delta, lengths)
        declared += size
    deflate = header.get("deflate", False)
    if type(deflate) is not bool:
        raise error(f"deflate must be true or false, got {deflate!r}")
    if deflate:
        data, offset = _inflate(memoryview(data)[offset:], declared, error), 0
    blocks = {}
    for name, (shape, dtype, repeat, count, size, delta, lengths) in layout.items():
        if offset + size > len(data):
            raise error(f"truncated block '{name}'")
        if lengths is not None:
            arr = _repeat_runs(data, offset, count, lengths, shape[0], name, error)
        else:
            arr = np.frombuffer(data, dtype=dtype, count=count, offset=offset)
        if dtype in _NARROW:
            arr = arr.astype("<i4")
        elif delta is not None:  # the sums wrap modulo 2**64, as the differences did
            arr = np.cumsum(arr.reshape(shape), axis=delta, dtype=np.uint64).view("<f8")
        arr.flags.writeable = False
        if repeat:
            arr = np.broadcast_to(arr.reshape(()), shape)
        blocks[name] = arr if arr.shape == tuple(shape) else arr.reshape(shape)
        offset += size
    if offset != len(data):
        raise error(f"{len(data) - offset} bytes follow the last block")
    return header, blocks


def _repeat_runs(data, offset: int, runs: int, lengths: str, n: int, name: str, error) -> np.ndarray:
    """The ``n`` float64 elements of the run block at ``offset`` in ``data``;
    when ``data`` is an ``mmap``, the whole pages the block spans leave this
    process's memory, as the block is read once."""
    values = np.frombuffer(data, dtype="<f8", count=runs, offset=offset)
    counts = np.frombuffer(data, dtype=lengths, count=runs, offset=offset + 8 * runs)
    if runs and counts.min() < 1:
        raise error(f"block '{name}': run lengths must be at least 1, got {counts.min()}")
    total = int(counts.sum(dtype=np.int64))
    if total != n:
        raise error(f"block '{name}': run lengths sum to {total}, its shape holds {n}")
    arr = np.repeat(values, counts)
    if isinstance(data, mmap.mmap) and hasattr(mmap, "MADV_DONTNEED"):
        start = -(-offset // mmap.PAGESIZE) * mmap.PAGESIZE
        stop = (offset + values.nbytes + counts.nbytes) // mmap.PAGESIZE * mmap.PAGESIZE
        if start < stop:
            data.madvise(mmap.MADV_DONTNEED, start, stop - start)
    return arr


def _inflate(stream, size: int, error) -> bytes:
    """The ``size`` bytes that the one zlib stream ``stream`` holds.
    Inflating stops one byte past ``size``, so a stream that holds more
    costs no more memory than one that holds enough."""
    inflater = zlib.decompressobj()
    try:
        data = inflater.decompress(stream, min(size + 1, sys.maxsize))
    except zlib.error as exc:
        raise error(f"deflated blocks: {exc}") from exc
    if len(data) > size:
        raise error(f"deflated blocks: the stream holds more than the {size} bytes the blocks declare")
    if not inflater.eof:
        raise error("deflated blocks: the stream is truncated")
    if inflater.unused_data:
        raise error(f"deflated blocks: {len(inflater.unused_data)} bytes follow the stream")
    if len(data) != size:
        raise error(f"deflated blocks: the stream holds {len(data)} bytes, the blocks declare {size}")
    return data

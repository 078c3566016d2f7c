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

A 1-D float64 block that does not repeat may be stored as the second
differences of its IEEE bit patterns, read as uint64 (modulo 2**64, the
first two elements differenced against 0), the delta-of-delta coding of
Gorilla's timestamps (Pelkonen et al., VLDB 2015): smooth samples then
differ twice by little. Such a block says ``"escapes": e`` and stores one
int8 residual per element, then e little-endian int64 escape values; the
residual -128 takes its second difference from the next escape value, and
every other residual is its second difference. It reads back as the running
sums, taken twice, of its second differences, bit for bit the float64 block
that was written, as a new array. A writer that does not deflate stores a
block so when its residuals and escapes take fewer bytes than the plain
block, which wins a tie: in a cell file, every signal of smooth samples,
where a noisy voltage stays plain. :func:`stored_form` applies that rule to
one array and returns the :class:`Coded` block it would store, which is how
a cell holds such a signal in memory, generated or read; handed a
:class:`Coded`, :func:`write_container` writes its residuals and escape
values as they are, without coding the array again. Readers from before
this block existed refuse the unknown key ``escapes``.

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
deflates the first 64 KiB of the blocks with no delta, then with every
block that is at least 2 long along axis 0 differenced along it, then the
same for axis 1, and deflates the whole file in whichever made that
smallest, the first on a tie; a file of at most 64 KiB of blocks, as every
model file and the stored features of the shipped configs are, so keeps
the smallest of the three. Readers from before this block existed refuse
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
_SPEC_KEYS = {"name", "shape", "dtype", "repeat", "delta", "escapes"}
_ESCAPE = -128  # the residual that takes its second difference from the escape values
# The bytes of the blocks whose deflated size chooses a deflated file's delta axis. On a
# 2-CPU x86 host the three trials take about 2 ms, where one whole deflate of 5 MB of
# stored features takes about 55 ms; every shipped model file is smaller, so is tried whole.
_TRIAL = 1 << 16


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
    if flat.size >= 2 and bits[1] == bits[0] and (bits == bits[0]).all():
        return flat[:1], True
    return flat, False


def _second_differences(flat: np.ndarray):
    """The body of a second-difference block of the float64 ``flat`` and its
    escape count, or None when the block would take at least ``flat``'s
    bytes (plain wins a tie) or is empty."""
    bits = flat.view("<u8")
    second = bits.copy()  # bits[i] - 2 * bits[i - 1] + bits[i - 2], those before the first 0
    second[1:] -= bits[:-1]  # in place: a tenth of the time of np.diff with prepend, twice
    second[1:] -= bits[:-1]
    second[2:] += bits[:-2]
    second = second.view("<i8")
    escaped = (second < -127) | (second > 127)
    escapes = int(np.count_nonzero(escaped))
    if not flat.size or flat.size + 8 * escapes >= flat.nbytes:
        return None
    residuals = second.astype(np.int8)
    np.putmask(residuals, escaped, _ESCAPE)  # half the time of residuals[escaped] = _ESCAPE
    return np.concatenate((residuals.view(np.uint8), second[escaped].view(np.uint8))), escapes


def stored_form(arr):
    """The 1-D float64 ``arr``, or a :class:`Coded` block, in the form that
    :func:`write_container` stores it in a file it does not deflate: a block
    whose elements all have the same bytes as it is (stored as one element),
    else a :class:`Coded` block over read-only bytes of its own when its
    second differences take fewer bytes than it, else ``arr`` as it is. A
    :class:`Coded` block that its values would store so is returned itself,
    and one they would not (the prefix of a block may repeat, or hold too
    many escapes) is decoded first."""
    if isinstance(arr, Coded):
        if arr.size and arr.size + 8 * arr.escapes < 8 * arr.size and not arr.repeats():
            return arr
        arr = arr.decode()
    flat, repeat = _stored(arr, "<f8")
    coded = None if repeat else _second_differences(flat)
    if coded is None:
        return arr
    body, escapes = coded
    body.flags.writeable = False
    return Coded(body, 0, flat.size, escapes)


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


def _deflated(values, limit: int | None = None) -> list:
    """The zlib stream of the blocks ``values`` in order, in pieces; with
    ``limit``, of their first ``limit`` bytes alone."""
    packer, stream = zlib.compressobj(), []
    for block in values:
        data = block.reshape(-1).view(np.uint8)
        if limit is not None:
            data = data[:limit]
            limit -= data.size
        stream.append(packer.compress(data))
    return [*stream, packer.flush()]


def write_container(path, magic: bytes, header: dict, blocks, *, deflate: bool = False) -> Path:
    """Write ``header`` and the ordered (name, array) pairs ``blocks`` to
    ``path``, which appears complete or not at all. An int32 array is
    stored as the narrowest of ``|u1``, ``<i2`` and ``<i4`` that holds its
    values, any other array as ``<f8``; a block whose elements all have the
    same bytes stores one of them. With ``deflate``, the blocks are stored
    as one zlib stream when that makes the file smaller, each 2-D float64
    block as bit differences along the axis, if any, that makes the stream
    of the blocks' first ``_TRIAL`` bytes smallest, and a :class:`Coded`
    block decoded; without it, a 1-D float64 block or a :class:`Coded` one
    is stored in its :func:`stored_form`, a :class:`Coded` form as its
    residuals and escape values, copied as they are from a mapped file
    whose pages then leave memory (see :func:`_drop_pages`)."""
    path = Path(path)
    specs, stored, copied = [], [], []
    for name, arr in blocks:
        if not deflate and (isinstance(arr, Coded) or arr.ndim == 1 and _block_dtype(arr) == "<f8"):
            arr = stored_form(arr)
        elif isinstance(arr, Coded):  # a deflated file stores it plain
            arr = arr.decode()
        spec = {"name": name, "shape": list(arr.shape)}
        if isinstance(arr, Coded):
            spec["escapes"] = arr.escapes
            specs.append(spec)
            stored.append(arr.body())
            copied.append(arr)
            continue
        dtype = _block_dtype(arr)
        values, repeat = _stored(arr, dtype)
        if dtype == "<i4":
            values = _narrowest(values)
            spec["dtype"] = values.dtype.str
        if repeat:
            spec["repeat"] = True
        specs.append(spec)
        stored.append(values)
    header = {**header, "blocks": specs}
    header.pop("deflate", None)  # like "blocks", the container's own key
    payload = json.dumps(header, sort_keys=True).encode("utf-8")
    nbytes = sum(values.nbytes for values in stored)
    body, best = stored, None
    for coded, values in _codings(specs, stored) if deflate else ():  # no delta first: it wins a tie
        packed = json.dumps({**header, "blocks": coded, "deflate": True},
                            sort_keys=True).encode("utf-8")
        stream = _deflated(values, _TRIAL)
        trial = len(packed) + sum(map(len, stream))
        if best is None or trial < best[0]:
            best = trial, packed, values, stream
    if best is not None:
        _, packed, values, stream = best
        if nbytes > _TRIAL:  # the trial deflated a prefix alone
            stream = _deflated(values)
        if len(packed) + sum(map(len, stream)) < len(payload) + nbytes:
            payload, body = packed, stream
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<I", len(payload)))
        fh.write(payload)
        for values in body:
            fh.write(values)
    for arr in copied:  # its pages leave memory once copied, as after a decode
        _drop_pages(arr._data)
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
    differences along its axis, a new float64 array, and a second-difference
    block is decoded into another (see :meth:`Coded.decode`). What
    :func:`read_header` and :func:`parse_blocks` refuse raises ``error``.
    """
    header, offset = read_header(data, magic, error)
    blocks = parse_blocks(data, header, offset, error)
    return header, {name: arr.decode() if isinstance(arr, Coded) else arr
                    for name, arr in blocks.items()}


def parse_blocks(data: bytes, header: dict, offset: int, error) -> dict:
    """The blocks of a container whose ``header`` :func:`read_header` read
    from ``data`` and whose first block starts at ``offset``, as
    :func:`parse_container` returns them, except that a second-difference
    block is a :class:`Coded`, checked and not yet decoded; the pages of an
    ``mmap`` then leave memory, as checking read them (see :func:`_drop_pages`).

    A malformed block list (a key other than ``name``, ``shape``, ``dtype``,
    ``repeat``, ``delta`` and ``escapes``, a ``dtype`` other than ``<f8``,
    ``<i4``, ``<i2``, ``|u1`` and ``<u8``, a ``repeat`` other than true or
    false, a ``<u8`` dtype and a ``delta`` of 0 or 1 that do not come
    together on a 2-D block that does not repeat, or an ``escapes`` that is
    not a count from 0 to the length of a 1-D block without ``dtype``,
    ``repeat`` and ``delta``), a count of -128 residuals other than the
    block's ``escapes``, a ``deflate`` other than true or false, blocks that
    do not fill the rest of the file exactly, or a stream that is corrupt,
    incomplete, followed by more bytes or inflates to any other size than
    the blocks declare raise ``error``.
    """
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
        count = 1 if repeat else math.prod(shape)
        escapes = spec.get("escapes")
        if "escapes" not in spec:
            size = count * np.dtype(dtype).itemsize
        elif (type(escapes) is int and 0 <= escapes <= count and len(shape) == 1
              and not {"dtype", "repeat", "delta"} & spec.keys()):
            size = count + 8 * escapes
        else:
            raise error(f"blocks[{i}]: escapes must count from 0 to the length of a 1-D block "
                        f"without repeat, dtype or delta; got escapes {escapes!r}, shape {shape}, "
                        f"keys {sorted(spec)}")
        layout[name] = (shape, dtype, repeat, count, size, delta, escapes)
        declared += size
    deflate = header.get("deflate", False)
    if type(deflate) is not bool:
        raise error(f"deflate must be true or false, got {deflate!r}")
    if deflate:
        data, offset = _inflate(memoryview(data)[offset:], declared, error), 0
    blocks = {}
    for name, (shape, dtype, repeat, count, size, delta, escapes) in layout.items():
        if offset + size > len(data):
            raise error(f"truncated block '{name}'")
        if escapes is not None:
            blocks[name] = Coded(data, offset, count, escapes)
            found = int(np.count_nonzero(blocks[name].residuals() == _ESCAPE))  # one pass
            if found != escapes:
                raise error(f"block '{name}': {found} residuals are escapes, "
                            f"its spec declares {escapes}")
            offset += size
            continue
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
    _drop_pages(data)
    return blocks


def _drop_pages(data) -> None:
    """Take every page of ``data``, when it is an ``mmap``, out of memory; a
    later read faults a page back in from the page cache of the same file, as
    a file :func:`write_container` writes is replaced, never rewritten in place."""
    if isinstance(data, mmap.mmap) and hasattr(mmap, "MADV_DONTNEED"):
        data.madvise(mmap.MADV_DONTNEED)


class Coded:
    """A second-difference block of ``n`` elements at ``offset`` in ``data``,
    with ``escapes`` escape values, kept undecoded until :meth:`decode`; or,
    made by :meth:`head`, the first ``n`` elements of such a block, whose
    escape values start at ``escapes_at``. It is immutable: pickling or
    copying one copies its residuals and escape values alone, whether
    ``data`` is a mapped file, whose pages then leave memory, or bytes of
    its own."""

    __slots__ = ("_data", "_offset", "_escapes_at", "shape", "escapes")

    def __init__(self, data, offset: int, n: int, escapes: int, escapes_at: int | None = None):
        self._data, self._offset, self.shape, self.escapes = data, offset, (n,), escapes
        self._escapes_at = offset + n if escapes_at is None else escapes_at

    @property
    def size(self) -> int:
        return self.shape[0]

    def residuals(self) -> np.ndarray:
        """The block's int8 residuals, a view of ``data``."""
        return np.frombuffer(self._data, dtype=np.int8, count=self.size, offset=self._offset)

    def body(self) -> np.ndarray:
        """The block as a file stores it, uint8: its residuals, then its
        escape values; a view of ``data`` unless it is a prefix."""
        escapes = np.frombuffer(self._data, dtype=np.uint8, count=8 * self.escapes,
                                offset=self._escapes_at)
        if self._escapes_at == self._offset + self.size:  # a whole block
            return np.frombuffer(self._data, dtype=np.uint8, count=self.size + escapes.size,
                                 offset=self._offset)
        return np.concatenate((self.residuals().view(np.uint8), escapes))

    def repeats(self) -> bool:
        """Whether the block has two or more elements with the same bytes:
        then every second difference past the first two is 0, and the first
        two elements are equal."""
        if self.size < 2 or self.residuals()[2:].any():
            return False
        first, second = self.head(2).decode().view(np.uint64)
        return first == second

    def __reduce__(self):
        body = self.body().tobytes()
        _drop_pages(self._data)  # once copied, as after a decode
        return Coded, (body, 0, self.size, self.escapes)

    def head(self, k: int | None) -> Coded:
        """The block of the first ``k`` elements, undecoded: ``k`` residuals
        and the escape values of the escapes among them, which come first;
        the block itself when ``k`` is None or its length, as ``seq[:None]``."""
        if k is None or k == self.size:
            return self
        escapes = int(np.count_nonzero(self.residuals()[:k] == _ESCAPE))
        return Coded(self._data, self._offset, k, escapes, self._escapes_at)

    def decode(self) -> np.ndarray:
        """The block's float64 elements, a new read-only array: its second
        differences summed twice, modulo 2**64. When ``data`` is an
        ``mmap``, its pages leave memory afterwards (see :func:`_drop_pages`),
        as the decoded array is either kept by its reader or dropped after
        one pass."""
        residuals, arr = self.residuals(), np.empty(self.size, dtype="<f8")
        second = arr.view(np.int64)
        np.copyto(second, residuals)
        if self.escapes:
            second[residuals == _ESCAPE] = np.frombuffer(
                self._data, dtype="<i8", count=self.escapes, offset=self._escapes_at)
        bits = arr.view(np.uint64)
        np.cumsum(bits, dtype=np.uint64, out=bits)  # the first differences
        np.cumsum(bits, dtype=np.uint64, out=bits)  # the bits
        _drop_pages(self._data)
        arr.flags.writeable = False
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

"""Unified cell-level cycling records: types, validation, cell files.

One cell is one binary file named ``<cell_id>.cfc``, in the container model
checkpoints also use: the magic ``CFC2``, a little-endian uint32 header
length, a UTF-8 JSON header, then little-endian float64 and integer blocks
(see :mod:`cellforge.container`). The header holds the cell's JSON document
without its cycles (metadata, protocols and ``extra``, as
:func:`cell_to_dict` writes them) and ``cycle_extra``, which maps the index
of each cycle that has an ``extra`` to it. Each signal is one float64 block:
the per-cycle values concatenated in cycle order, temperature over only the
cycles that have it, and internal resistance with one value per cycle that
has it. Four integer blocks, read as int32, hold one value per cycle: its
number, its point count, and whether it has a temperature and an internal
resistance (0 or 1). A block whose values are all one value, such as a
constant temperature or a fixed point count, stores that value once, and a
signal whose second differences take fewer bytes than it as int8 residuals
and escapes, such as a smooth voltage or capacity, stores those.
:func:`read_cell` refuses the ``CFC1`` files of older versions, and the
``CFC2`` files whose signals were stored as runs, with one line, and also
reads a cell stored as one UTF-8 JSON document
(``<cell_id>.json``), the format of older corpora; :func:`cell_to_dict`
exports one.

Field names use snake_case with unit suffixes (``nominal_capacity_in_Ah``,
``time_in_s``, ...) and are identical in memory and on disk. Unknown keys
found in a JSON document are preserved in an ``extra`` side map and
round-trip unchanged, but nothing in the package interprets them.

Sign convention for ``current_in_A``: charge positive, discharge negative.
Converters enforce it at ingestion time; nothing downstream re-derives it.

Capacities are per-cycle cumulative amounts in Ah and must be non-decreasing
within a cycle (up to 1e-9 sensor jitter). ``time_in_s`` is strictly
increasing within a cycle. Missing optional values serialize as absent keys,
never as null.

In memory a cell keeps its cycles as columns, the layout its file has on
disk: ``cell.cycle_data`` is a :class:`CycleData` holding each signal as one
read-only float64 column with every cycle's values in cycle order, and one
``offsets`` array of n_cycles + 1 bounds, the running total of the file's
point counts, that puts cycle ``i`` of every sampled signal at
``column[offsets[i]:offsets[i + 1]]`` (the values-plus-offsets layout of
Arrow's variable-size lists). Cycle numbers, temperature and resistance
presence, resistances and ``extra`` are short per-cell arrays and a sparse
map. A record copies the arrays it is given, so it never shares a buffer
its caller can still change, unless the code making it passes ``copy=False``:
:func:`read_cell` does, handing over its columns as views of the file it
maps (a repeated block is a stride-0 view of its one stored value); it
builds one record per file. A signal stored as second differences is held
as that block, a :class:`~cellforge.container.Coded`, which is immutable
and so never copied: :func:`read_cell` keeps its file's block, and leaves
no page of the file resident but those read again; the synthetic generator
codes each signal through :func:`~cellforge.container.stored_form`, the
writer's rule, as it makes it, so a generated cell holds its columns as its
file will. One rule reads such a block: ``columns[name]``, which
``maxima``, :func:`validate`, ``==`` and the plots read through, decodes
it into a new array for that read alone, and only a cycle view keeps what
it decodes: the first signal it reads of a coded column decodes the whole
column, and the cell keeps the array, so a pass over the cycles decodes
each signal once (``head`` cuts the block, so nothing past the cut is
decoded). :func:`write_cell` writes the block as it is, without decoding
or coding it again, and pickling or copying hands it over as it is, so a
corpus, generated or loaded, stays the size of its files once it is
labelled, checked, plotted, written or copied. ``cycle_data`` still reads as
a sequence of :class:`CycleRecord`: its length comes from the offsets, and
indexing or slicing builds records whose signals are views of the columns,
anew on every access. ``cell.head(h)`` is the cell with its first ``h``
cycles alone, each column cut at its ``offsets[h]`` and a column not yet
decoded cut as a block, so that no value past them is decoded through it.
A :class:`CycleRecord` is the per-cycle value: built
directly it copies its signals, and a sequence of them given as
``CellRecord(cycle_data=...)`` is gathered into columns, or refused with
:func:`validate`'s text when a cycle's signals differ in length. Record equality is
exact: two cells are equal when their scalars, ``extra`` maps and every
signal's per-cycle lengths and values match. Records are unhashable.
"""

from __future__ import annotations

import itertools
import json
import math
import mmap
import operator
import resource
import weakref
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from types import MappingProxyType

import numpy as np
import yaml

from .container import Coded, parse_blocks, read_header, write_container
from .container import parse_container  # noqa: F401  (re-exported for callers that import it here)
from .errors import CellforgeError, SchemaError, ValidationError

# Allowance for sensor jitter when checking cumulative capacities (Ah).
CAPACITY_JITTER_TOL = 1e-9

# The largest cycle number a cell file's int32 block holds.
MAX_CYCLE_NUMBER = 2**31 - 1

_CYCLE_SEQ_FIELDS = (
    "voltage_in_V",
    "current_in_A",
    "charge_capacity_in_Ah",
    "discharge_capacity_in_Ah",
    "time_in_s",
)

_PROTOCOL_FIELDS = (
    "rate_in_C",
    "current_in_A",
    "voltage_in_V",
    "power_in_W",
    "start_voltage_in_V",
    "start_soc",
    "end_voltage_in_V",
    "end_soc",
)

# The cell's scalar fields in the order its document lists them, each with
# its document type; a field that is None is left out of the document.
_CELL_SCALARS = {
    "cell_id": str,
    "form_factor": str,
    "anode_material": str,
    "cathode_material": str,
    "electrolyte_material": str,
    "description": str,
    "nominal_capacity_in_Ah": float,
    "depth_of_charge": float,
    "depth_of_discharge": float,
    "already_spent_cycles": int,
    "max_voltage_limit_in_V": float,
    "min_voltage_limit_in_V": float,
    "max_current_limit_in_A": float,
    "min_current_limit_in_A": float,
}

_SIGNAL_FIELDS = _CYCLE_SEQ_FIELDS + ("temperature_in_C",)

# The element types json.load produces for numbers (bool is its own type).
_JSON_NUMBER_TYPES = frozenset((int, float))


def _signal(values, name, copy=True) -> np.ndarray | Coded:
    """A read-only one-dimensional float64 signal: a second-difference block
    not yet decoded, which is immutable, is kept as it is, as is a float64
    array when ``copy`` is False, and anything else is copied."""
    if isinstance(values, Coded):
        return values
    if not copy and isinstance(values, np.ndarray) and values.dtype == np.float64:
        arr = values
    else:
        arr = np.array(values, dtype=np.float64)
    arr.flags.writeable = False
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


def _small(values, dtype, name, n) -> np.ndarray:
    """A read-only copy of one per-cycle array of ``n`` entries."""
    arr = np.array(values, dtype=dtype)
    if arr.shape != (n,):
        raise ValueError(f"{name}: expected {n} values, got shape {arr.shape}")
    arr.flags.writeable = False
    return arr


def _bounds(counts) -> np.ndarray:
    """Offsets (0, then the running totals) of consecutive runs of ``counts`` values."""
    out = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


@dataclass(frozen=True)
class ProtocolStep:

    """One step of a charge or discharge protocol.

    At least one of the drive fields (rate, current, voltage, power) must be
    set for the step to validate. SOC endpoints are fractions in [0, 1].
    """

    rate_in_C: float | None = None
    current_in_A: float | None = None
    voltage_in_V: float | None = None
    power_in_W: float | None = None
    start_voltage_in_V: float | None = None
    start_soc: float | None = None
    end_voltage_in_V: float | None = None
    end_soc: float | None = None
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in _PROTOCOL_FIELDS:
            v = getattr(self, name)
            if v is not None:
                object.__setattr__(self, name, float(v))


class _Signal:
    """A signal field of :class:`CycleRecord`, a non-data descriptor. A record
    holds each signal in its ``__dict__``, which hides the descriptor, except
    a cycle view of a column not yet decoded: there the first read decodes
    the cell's column, which the cell keeps (the one read that keeps what it
    decodes, so a pass over the cycles decodes each signal once), and the
    record keeps its slice."""

    def __init__(self, default):
        self.default = default

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, record, owner=None):
        if record is None:
            return self.default  # the dataclass field's default
        cycles, i = record.__dict__["_view_of"]
        columns, off = cycles.columns._columns, cycles.offsets[self.name]
        if isinstance(columns[self.name], Coded):  # the one read that keeps what it decodes
            columns[self.name] = columns[self.name].decode()
        value = record.__dict__[self.name] = columns[self.name][off[i] : off[i + 1]]
        return value


@dataclass(frozen=True, eq=False)
class CycleRecord:
    """Time-series signals of one full cycle.

    All sequences, temperature included, share one length (>= 2 points); a
    cell refuses a record whose signals do not. Temperature is
    optional per source; internal resistance is an optional per-cycle scalar.
    Built directly, a record holds a read-only float64 copy of each signal
    passed in; ``cell.cycle_data[i]`` returns one whose signals are views of
    the cell's columns: a coded column is decoded when a view first reads
    it, and the cell keeps the array.
    """

    cycle_number: int
    voltage_in_V: np.ndarray = _Signal(())
    current_in_A: np.ndarray = _Signal(())
    charge_capacity_in_Ah: np.ndarray = _Signal(())
    discharge_capacity_in_Ah: np.ndarray = _Signal(())
    time_in_s: np.ndarray = _Signal(())
    temperature_in_C: np.ndarray | None = _Signal(None)
    internal_resistance_in_ohm: float | None = None
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "cycle_number", int(self.cycle_number))
        for name in _CYCLE_SEQ_FIELDS:
            object.__setattr__(self, name, _signal(getattr(self, name), name))
        if self.temperature_in_C is not None:
            object.__setattr__(self, "temperature_in_C", _signal(self.temperature_in_C, "temperature_in_C"))
        if self.internal_resistance_in_ohm is not None:
            object.__setattr__(self, "internal_resistance_in_ohm", float(self.internal_resistance_in_ohm))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.cycle_number == other.cycle_number
            and self.internal_resistance_in_ohm == other.internal_resistance_in_ohm
            and self.extra == other.extra
            # np.array_equal also holds for None against None, and only for that
            and all(np.array_equal(getattr(self, n), getattr(other, n)) for n in _SIGNAL_FIELDS)
        )

    __hash__ = None

    def __reduce__(self):
        # pickle and copy rebuild through the constructor, whose copies are read-only
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


class _Columns(Mapping):
    """A cell's columns by signal name. ``columns[name]`` gives a plain
    column as it is, and a column held as a second-difference block decoded
    into a new array for that read alone: it keeps nothing."""

    def __init__(self, columns: dict):
        self._columns = columns

    def __getitem__(self, name) -> np.ndarray:
        column = self._columns[name]
        return column.decode() if isinstance(column, Coded) else column

    def __contains__(self, name):
        return name in self._columns

    def __iter__(self):
        return iter(self._columns)

    def __len__(self):
        return len(self._columns)


class CycleData(tuple):
    """The cycles of one cell, held as columns; a cell's ``cycle_data``.

    ``columns[name]`` is one read-only float64 column per signal with every
    cycle's values in cycle order, and ``offsets[name]`` (n_cycles + 1 int64
    bounds) puts cycle ``i`` at ``columns[name][offsets[name][i]:offsets[name][i + 1]]``.
    The five sampled signals share one offsets array, the running total of
    a cell file's ``points`` block; temperature's bounds, derived from it,
    skip the cycles not flagged in ``has_temperature``.
    A column held as a second-difference block, as :func:`read_cell` and
    the synthetic generator leave one, is decoded anew by each read of
    ``columns[name]``, which ``maxima``, :func:`validate` and ``==`` read
    through, and the cell keeps nothing; only a cycle view keeps what it
    decodes, the whole column, the first time it reads one of its signals.
    :func:`write_cell` writes such a block as it is, and
    pickling or copying hands it over as it is (a block pickles as its
    residuals and escape values, a repeated column as its one value).
    ``cycle_number`` (int64), ``internal_resistance_in_ohm`` (float64, NaN
    where ``has_internal_resistance`` is False) and the two flags have one
    entry per cycle; ``extra`` maps a cycle index to that cycle's ``extra``
    when it is not empty.

    It reads as a sequence of :class:`CycleRecord`: ``len`` counts cycles,
    and indexing or slicing builds records whose signals are views of the
    columns, anew on each access, so nothing is stored per cycle. It is a
    ``tuple`` subclass, as ``cycle_data`` was a tuple before, so code that
    checks for a tuple keeps working; it holds no items of its own, so it
    equals only another ``CycleData`` (never a tuple, even of the same
    cycles), and ordering comparisons raise TypeError. Compare it with
    ``len`` or with another ``CycleData``.

    The constructor takes the columns (a mapping of signal name to values;
    the five mandatory signals, plus ``temperature_in_C`` if any cycle has
    one) and the one offsets array; a cycle without temperature takes no
    temperature values. ``has_temperature`` defaults to every
    cycle when a non-empty temperature column is given; ``has_internal_resistance``
    defaults to every cycle when resistances are given. ``extra`` maps a
    cycle index to that cycle's ``extra``; an empty one is dropped. Columns
    are copied, so the cell never shares a buffer its caller can still
    change, unless the caller passes ``copy=False`` to hand over float64
    columns that nothing else will change: ones it made for the cell alone,
    a read-only broadcast of one value, or the read-only views of a file
    that :func:`read_cell` makes. They are made read-only. A coded block is
    immutable, so it is kept as it is either way.
    """

    def __new__(cls, cycle_number=(), columns=None, offsets=(0,), *, has_temperature=None,
                internal_resistance_in_ohm=None, has_internal_resistance=None, extra=None,
                copy=True):
        columns = columns or {}
        numbers = _small(cycle_number, np.int64, "cycle_number", len(cycle_number))
        n = numbers.size
        signals = {name: _signal(columns.get(name, ()), name, copy) for name in _SIGNAL_FIELDS}
        if has_temperature is None:
            has_temperature = [signals["temperature_in_C"].size > 0] * n
        has_temperature = _small(has_temperature, bool, "has_temperature", n)
        points = _small(offsets, np.int64, "offsets", n + 1)
        temperature = points if has_temperature.all() else _bounds(np.diff(points) * has_temperature)
        temperature.flags.writeable = False
        bounds = MappingProxyType({**dict.fromkeys(_CYCLE_SEQ_FIELDS, points), "temperature_in_C": temperature})
        if signals["temperature_in_C"].size > temperature[-1] and not has_temperature.all():
            raise ValueError("temperature values given for a cycle without a temperature")
        rises = points[0] == 0 and not (np.diff(points) < 0).any()
        for name, column in signals.items():
            if not rises or bounds[name][-1] != column.size:
                raise ValueError(f"offsets[{name!r}] must rise from 0 to the column's {column.size} values")
        if internal_resistance_in_ohm is None:
            internal_resistance_in_ohm, has_internal_resistance = np.full(n, np.nan), [False] * n
        elif has_internal_resistance is None:
            has_internal_resistance = [True] * n
        extra = {operator.index(i): e for i, e in (extra or {}).items() if e}
        if not all(0 <= i < n for i in extra):
            raise ValueError(f"extra: cycle indices must lie in [0, {n})")
        self = super().__new__(cls)
        self.__dict__.update(
            cycle_number=numbers,
            columns=_Columns(signals),
            offsets=bounds,
            has_temperature=has_temperature,
            internal_resistance_in_ohm=_small(
                internal_resistance_in_ohm, np.float64, "internal_resistance_in_ohm", n),
            has_internal_resistance=_small(has_internal_resistance, bool, "has_internal_resistance", n),
            extra=extra,
        )
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"CycleData is read-only: cannot set {name!r}")

    def __reduce__(self):
        # pickle and copy rebuild through the constructor, whose copies are read-only; a
        # coded block goes as it is, and pickles as its residuals and escape values, and a
        # column of one repeated value (every stride 0) goes as that value and its length
        columns, repeated = {}, {}
        for name, column in self.columns._columns.items():
            if isinstance(column, np.ndarray) and column.size >= 2 and not any(column.strides):
                repeated[name] = column[:1], column.size
            else:
                columns[name] = column
        return _rebuilt, (type(self), (self.cycle_number, columns, self.offsets["time_in_s"]), {
            "has_temperature": self.has_temperature,
            "internal_resistance_in_ohm": self.internal_resistance_in_ohm,
            "has_internal_resistance": self.has_internal_resistance,
            "extra": self.extra,
            "copy": False,  # the columns are read-only and the cell's own
        }, repeated)

    @classmethod
    def from_cycles(cls, cycles) -> CycleData:
        """Gather a sequence of :class:`CycleRecord` into columns, in order;
        :class:`ValidationError` names each cycle whose signals, temperature
        included, differ in length, as they cannot share one offsets array."""
        cycles = tuple(cycles)
        points, ragged = [], []
        for i, cyc in enumerate(cycles):
            if not isinstance(cyc, CycleRecord):
                raise TypeError(f"cycle_data[{i}]: expected a CycleRecord, got {type(cyc).__name__}")
            sizes = {name: getattr(cyc, name).size for name in _CYCLE_SEQ_FIELDS}
            points.append(n := sizes["time_in_s"])
            if len(set(sizes.values())) > 1:
                ragged.append(Violation(f"cycle_data[{i}]", f"mandatory sequences differ in length: {sizes}"))
            elif cyc.temperature_in_C is not None and cyc.temperature_in_C.size != n:
                ragged.append(Violation(f"cycle_data[{i}].temperature_in_C",
                                        f"length {cyc.temperature_in_C.size} != {n}"))
        if ragged:
            raise ValidationError(ragged)
        resistances = [c.internal_resistance_in_ohm for c in cycles]
        return cls(
            [c.cycle_number for c in cycles],
            {name: np.concatenate([np.empty(0), *(getattr(c, name) for c in cycles if getattr(c, name) is not None)])
             for name in _SIGNAL_FIELDS},
            _bounds(points),
            has_temperature=[c.temperature_in_C is not None for c in cycles],
            internal_resistance_in_ohm=[math.nan if r is None else r for r in resistances],
            has_internal_resistance=[r is not None for r in resistances],
            extra=dict(enumerate(c.extra for c in cycles)),
            copy=False,  # the concatenated columns are new
        )

    def head(self, h: int | None) -> CycleData:
        """The first ``h`` cycles (all of them when there are no more, or ``h``
        is None, as ``seq[:None]``): the same columns cut at each signal's
        ``offsets[h]``, as views, and a column not yet decoded as the block of
        its first values alone, so that nothing past them is ever decoded."""
        if h is None or h >= len(self):
            return self
        columns = {name: column[: self.offsets[name][h]]
                   if isinstance(column, np.ndarray) else column.head(int(self.offsets[name][h]))
                   for name, column in self.columns._columns.items()}
        return CycleData(
            self.cycle_number[:h], columns, self.offsets["time_in_s"][: h + 1],
            has_temperature=self.has_temperature[:h],
            internal_resistance_in_ohm=self.internal_resistance_in_ohm[:h],
            has_internal_resistance=self.has_internal_resistance[:h],
            extra={i: e for i, e in self.extra.items() if i < h},
            copy=False,  # views and blocks of this cell's read-only columns
        )

    def maxima(self, name: str, start: int = 0, stop: int | None = None) -> np.ndarray:
        """The largest value of signal ``name`` in each cycle from ``start``
        up to ``stop`` (exclusive; the last cycle by default), read through
        ``head(stop).columns``, so that a coded column is decoded up to
        ``stop`` alone and kept nowhere. Raises ValueError if one of them has
        no values."""
        bounds = self.offsets[name][start : (len(self) if stop is None else stop) + 1]
        if not np.diff(bounds).all():
            raise ValueError(f"a cycle has no {name} values")
        return np.maximum.reduceat(self.head(stop).columns[name], bounds[:-1])

    def __len__(self):
        return len(self.offsets["time_in_s"]) - 1

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self._cycle, range(*index.indices(len(self)))))
        i, n = operator.index(index), len(self)
        if not -n <= i < n:
            raise IndexError("cycle index out of range")
        return self._cycle(i % n)

    def __iter__(self):
        return map(self._cycle, range(len(self)))

    def _cycle(self, i: int) -> CycleRecord:
        cyc = object.__new__(CycleRecord)  # a view: the copying constructor is skipped
        view = cyc.__dict__
        for name, column in self.columns._columns.items():
            if not isinstance(column, Coded):  # a coded one is sliced when read (see _Signal)
                off = self.offsets[name]
                view[name] = column[off[i] : off[i + 1]]
        if not self.has_temperature[i]:
            view["temperature_in_C"] = None
        view["cycle_number"] = int(self.cycle_number[i])
        view["internal_resistance_in_ohm"] = (
            float(self.internal_resistance_in_ohm[i]) if self.has_internal_resistance[i] else None)
        view["extra"] = self.extra.get(i, {})
        view["_view_of"] = (self, i)
        return cyc

    def __eq__(self, other):
        if not isinstance(other, CycleData):
            # tuple's own comparison would see this tuple's empty storage
            return False if isinstance(other, tuple) else NotImplemented
        if other is self:
            return True
        has_r = self.has_internal_resistance
        return (
            np.array_equal(self.cycle_number, other.cycle_number)
            and np.array_equal(self.has_temperature, other.has_temperature)
            and np.array_equal(has_r, other.has_internal_resistance)
            and np.array_equal(self.internal_resistance_in_ohm[has_r], other.internal_resistance_in_ohm[has_r])
            and self.extra == other.extra
            and np.array_equal(self.offsets["time_in_s"], other.offsets["time_in_s"])
            and all(np.array_equal(self.columns[name], other.columns[name]) for name in _SIGNAL_FIELDS)
        )

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def __repr__(self):
        return f"CycleData({len(self)} cycles, {self.offsets['time_in_s'][-1]} points)"

    # The sequence operations tuple would run on its own (empty) items.
    __contains__ = Sequence.__contains__
    index = Sequence.index
    count = Sequence.count

    def __add__(self, other):
        return tuple(self) + tuple(other) if isinstance(other, tuple) else NotImplemented

    def __radd__(self, other):
        return tuple(other) + tuple(self) if isinstance(other, tuple) else NotImplemented

    def __mul__(self, times):
        return tuple(self) * times

    __rmul__ = __mul__

    def _unordered(self, other):
        raise TypeError(f"cycles are not ordered: cannot compare CycleData with {type(other).__name__}")

    __lt__ = __le__ = __gt__ = __ge__ = _unordered


def _rebuilt(cls, args, kwargs, repeated) -> CycleData:
    """The :class:`CycleData` that ``CycleData.__reduce__`` hands over: its
    constructor's arguments, and each repeated column as its value and length."""
    numbers, columns, offsets = args
    columns = {**columns, **{name: np.broadcast_to(value.reshape(()), n)
                             for name, (value, n) in repeated.items()}}
    return cls(numbers, columns, offsets, **kwargs)


@dataclass(frozen=True)
class CellRecord:
    """A single cell: metadata, per-cycle signals, and cycling protocols.

    ``cycle_data`` is always a :class:`CycleData`; a sequence of
    :class:`CycleRecord` given in its place is gathered into one.
    """

    cell_id: str
    nominal_capacity_in_Ah: float = 0.0
    cycle_data: CycleData = ()
    form_factor: str | None = None
    anode_material: str | None = None
    cathode_material: str | None = None
    electrolyte_material: str | None = None
    depth_of_charge: float = 1.0
    depth_of_discharge: float = 1.0
    already_spent_cycles: int = 0
    max_voltage_limit_in_V: float | None = None
    min_voltage_limit_in_V: float | None = None
    max_current_limit_in_A: float | None = None
    min_current_limit_in_A: float | None = None
    charge_protocol: tuple = ()
    discharge_protocol: tuple = ()
    description: str | None = None
    extra: dict = field(default_factory=dict)

    def head(self, h: int | None) -> CellRecord:
        """The same cell with its first ``h`` cycles alone (see :meth:`CycleData.head`)."""
        cycles = self.cycle_data.head(h)
        return self if cycles is self.cycle_data else replace(self, cycle_data=cycles)

    def __post_init__(self):
        for name, kind in _CELL_SCALARS.items():
            v = getattr(self, name)
            if kind is not str and v is not None:
                object.__setattr__(self, name, kind(v))
        if not isinstance(self.cycle_data, CycleData):
            object.__setattr__(self, "cycle_data", CycleData.from_cycles(self.cycle_data))
        object.__setattr__(self, "charge_protocol", tuple(self.charge_protocol))
        object.__setattr__(self, "discharge_protocol", tuple(self.discharge_protocol))

    __hash__ = None


@dataclass(frozen=True)
class Violation:
    """One validation failure: a field path and a human-readable reason."""

    path: str
    message: str

    def __str__(self):
        return f"{self.path}: {self.message}"


def _flag_cycles(bad, offsets, n, *, steps=False) -> np.ndarray:
    """Per cycle, whether a value of a column flagged in ``bad`` lies in it.

    With ``steps``, ``bad`` flags the steps between neighbouring values
    (``np.diff`` of the column), and a step across a cycle boundary counts
    for no cycle.
    """
    pos = np.flatnonzero(bad)
    cyc = np.searchsorted(offsets, pos, side="right") - 1
    if steps:
        cyc = cyc[pos + 1 < offsets[cyc + 1]]
    hit = np.zeros(n, dtype=bool)
    hit[cyc] = True
    return hit


# The signals that may not step backwards within a cycle: the test that flags a
# step (``np.diff`` of the column) as backwards, and what the violation says.
_CUMULATIVE = "must be non-decreasing (cumulative per cycle)"
_FORWARD = {
    "time_in_s": (lambda steps: steps <= 0, "must be strictly increasing"),
    "charge_capacity_in_Ah": (lambda steps: steps < -CAPACITY_JITTER_TOL, _CUMULATIVE),
    "discharge_capacity_in_Ah": (lambda steps: steps < -CAPACITY_JITTER_TOL, _CUMULATIVE),
}


def _validate_cycles(cycles: CycleData, out: list):
    """The per-cycle checks, computed over the columns at once and reported
    cycle by cycle, in the order a check of one cycle after another finds them."""
    n = len(cycles)
    numbers, cols, offs = cycles.cycle_number, cycles.columns, cycles.offsets
    points = np.diff(offs["time_in_s"])
    descending = numbers <= np.concatenate(([0], numbers[:-1]))
    non_finite, backwards = {}, {}
    for name in _SIGNAL_FIELDS:
        column = cols[name]  # one decode per call, dropped before the next signal's
        non_finite[name] = _flag_cycles(~np.isfinite(column), offs[name], n)
        if name in _FORWARD:
            with np.errstate(invalid="ignore", over="ignore"):  # steps of non-finite cycles are not reported
                bad = _FORWARD[name][0](np.diff(column))
            backwards[name] = _flag_cycles(bad, offs[name], n, steps=True)
        del column
    bad_resistance = cycles.has_internal_resistance & ~np.isfinite(cycles.internal_resistance_in_ohm)
    flagged = descending | (numbers < 1) | (numbers > MAX_CYCLE_NUMBER) | (points < 2) | bad_resistance
    for flags in (*non_finite.values(), *backwards.values()):
        flagged |= flags

    for i in np.flatnonzero(flagged).tolist():
        path = f"cycle_data[{i}]"
        if descending[i]:
            out.append(Violation(f"{path}.cycle_number", "cycle numbers must be strictly ascending"))
        if numbers[i] < 1:
            out.append(Violation(f"{path}.cycle_number", "must be a positive integer"))
        if numbers[i] > MAX_CYCLE_NUMBER:
            out.append(Violation(f"{path}.cycle_number", f"must be at most {MAX_CYCLE_NUMBER}"))
        if points[i] < 2:
            out.append(Violation(path, f"sequences must have >= 2 points, got {points[i]}"))
            continue
        for name in _SIGNAL_FIELDS:
            if non_finite[name][i]:
                out.append(Violation(f"{path}.{name}", "contains non-finite values"))
        if bad_resistance[i]:
            out.append(Violation(f"{path}.internal_resistance_in_ohm", "non-finite"))
        if any(non_finite[name][i] for name in _SIGNAL_FIELDS):
            continue
        for name, (_, message) in _FORWARD.items():
            if backwards[name][i]:
                out.append(Violation(f"{path}.{name}", message))


def _validate_protocol(steps, path, out):
    for i, step in enumerate(steps):
        p = f"{path}[{i}]"
        drives = (step.rate_in_C, step.current_in_A, step.voltage_in_V, step.power_in_W)
        if all(v is None for v in drives):
            out.append(Violation(p, "needs at least one of rate/current/voltage/power"))
        for name in ("start_soc", "end_soc"):
            v = getattr(step, name)
            if v is not None and not (0.0 <= v <= 1.0):
                out.append(Violation(f"{p}.{name}", f"must be within [0, 1], got {v}"))


def validate(cell: CellRecord) -> list[Violation]:
    """Return all invariant violations of `cell` (empty list = valid).

    Pure: does not mutate the record and returns the same list every call.
    """
    out: list[Violation] = []
    if not isinstance(cell.cell_id, str) or not cell.cell_id:
        out.append(Violation("cell_id", "must be a non-empty string"))
    if not (cell.nominal_capacity_in_Ah > 0):
        out.append(Violation("nominal_capacity_in_Ah", f"must be > 0, got {cell.nominal_capacity_in_Ah}"))
    elif cell.nominal_capacity_in_Ah == math.inf:
        out.append(Violation("nominal_capacity_in_Ah", "must be finite, got inf"))
    for name in ("depth_of_charge", "depth_of_discharge"):
        v = getattr(cell, name)
        if not (0.0 < v <= 1.0):
            out.append(Violation(name, f"must be within (0, 1], got {v}"))
    if cell.already_spent_cycles < 0:
        out.append(Violation("already_spent_cycles", "must be >= 0"))
    for name in ("max_voltage_limit_in_V", "min_voltage_limit_in_V", "max_current_limit_in_A",
                 "min_current_limit_in_A"):
        v = getattr(cell, name)
        if v is not None and not math.isfinite(v):
            out.append(Violation(name, f"must be finite, got {v}"))
    if (
        cell.max_voltage_limit_in_V is not None
        and cell.min_voltage_limit_in_V is not None
        and not (cell.min_voltage_limit_in_V < cell.max_voltage_limit_in_V)
    ):
        out.append(Violation("min_voltage_limit_in_V", "voltage limits must satisfy min < max"))
    if not cell.cycle_data:
        out.append(Violation("cycle_data", "must contain at least one cycle"))
    _validate_cycles(cell.cycle_data, out)
    _validate_protocol(cell.charge_protocol, "charge_protocol", out)
    _validate_protocol(cell.discharge_protocol, "discharge_protocol", out)
    return out


# ---------------------------------------------------------------------------
# JSON documents

def _step_to_dict(step: ProtocolStep) -> dict:
    d = {}
    for name in _PROTOCOL_FIELDS:
        v = getattr(step, name)
        if v is not None:
            d[name] = v
    d.update(step.extra)
    return d


def _cycle_to_dict(cyc: CycleRecord) -> dict:
    d = {"cycle_number": cyc.cycle_number}
    for name in _SIGNAL_FIELDS:
        if getattr(cyc, name) is not None:
            d[name] = getattr(cyc, name).tolist()
    if cyc.internal_resistance_in_ohm is not None:
        d["internal_resistance_in_ohm"] = cyc.internal_resistance_in_ohm
    d.update(cyc.extra)
    return d


def _cell_document(cell: CellRecord, cycles: list) -> dict:
    """The cell's JSON document, with ``cycles`` as its ``cycle_data``."""
    d = {name: getattr(cell, name) for name in _CELL_SCALARS if getattr(cell, name) is not None}
    d["charge_protocol"] = [_step_to_dict(s) for s in cell.charge_protocol]
    d["discharge_protocol"] = [_step_to_dict(s) for s in cell.discharge_protocol]
    d["cycle_data"] = cycles
    d.update(cell.extra)
    return d


def cell_to_dict(cell: CellRecord) -> dict:
    return _cell_document(cell, [_cycle_to_dict(c) for c in cell.cycle_data])


def _expect(obj, key, path):
    if key not in obj:
        raise SchemaError(f"{path}: missing mandatory field '{key}'")
    return obj[key]


def _num(v, path) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SchemaError(f"{path}: expected a number, got {type(v).__name__}")
    return float(v)


def _intval(v, path) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise SchemaError(f"{path}: expected an integer, got {type(v).__name__}")
    return v


def _strval(v, path) -> str:
    if not isinstance(v, str):
        raise SchemaError(f"{path}: expected a string, got {type(v).__name__}")
    return v


def _num_seq(v, path) -> np.ndarray:
    if not isinstance(v, list):
        raise SchemaError(f"{path}: expected an array of numbers, got {type(v).__name__}")
    if set(map(type, v)) <= _JSON_NUMBER_TYPES:
        return np.array(v, dtype=np.float64)
    return np.array([_num(x, f"{path}[{i}]") for i, x in enumerate(v)], dtype=np.float64)


def _step_from_dict(obj, path) -> ProtocolStep:
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: expected an object")
    kwargs = {}
    extra = {}
    for k, v in obj.items():
        if k in _PROTOCOL_FIELDS:
            kwargs[k] = _num(v, f"{path}.{k}")
        else:
            extra[k] = v
    return ProtocolStep(extra=extra, **kwargs)


def _cycle_from_dict(obj, path) -> CycleRecord:
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: expected an object")
    number = _intval(_expect(obj, "cycle_number", path), f"{path}.cycle_number")
    seqs = {name: _num_seq(_expect(obj, name, path), f"{path}.{name}") for name in _CYCLE_SEQ_FIELDS}
    temperature = None
    if "temperature_in_C" in obj:
        temperature = _num_seq(obj["temperature_in_C"], f"{path}.temperature_in_C")
    resistance = None
    if "internal_resistance_in_ohm" in obj:
        resistance = _num(obj["internal_resistance_in_ohm"], f"{path}.internal_resistance_in_ohm")
    known = {"cycle_number", "temperature_in_C", "internal_resistance_in_ohm", *_CYCLE_SEQ_FIELDS}
    extra = {k: v for k, v in obj.items() if k not in known}
    return CycleRecord(
        cycle_number=number,
        temperature_in_C=temperature,
        internal_resistance_in_ohm=resistance,
        extra=extra,
        **seqs,
    )


_SCALAR_PARSERS = {str: _strval, float: _num, int: _intval}

_CELL_KEYS = {*_CELL_SCALARS, "charge_protocol", "discharge_protocol", "cycle_data"}


def _cell_fields(obj: dict) -> dict:
    """The :class:`CellRecord` arguments a cell document holds apart from
    its cycles: its scalars, protocols and ``extra``."""
    for name in ("cell_id", "nominal_capacity_in_Ah"):
        _expect(obj, name, "cell")
    args = {name: _SCALAR_PARSERS[kind](obj[name], name)
            for name, kind in _CELL_SCALARS.items() if name in obj}
    for key in ("charge_protocol", "discharge_protocol"):
        raw = obj.get(key, [])
        if not isinstance(raw, list):
            raise SchemaError(f"{key}: expected an array")
        args[key] = tuple(_step_from_dict(s, f"{key}[{i}]") for i, s in enumerate(raw))
    args["extra"] = {k: v for k, v in obj.items() if k not in _CELL_KEYS}
    return args


def cell_from_dict(obj: dict) -> CellRecord:
    if not isinstance(obj, dict):
        raise SchemaError("cell file must contain a JSON object at top level")
    args = _cell_fields(obj)
    raw_cycles = _expect(obj, "cycle_data", "cell")
    if not isinstance(raw_cycles, list):
        raise SchemaError("cycle_data: expected an array")
    cycles = tuple(_cycle_from_dict(c, f"cycle_data[{i}]") for i, c in enumerate(raw_cycles))
    return CellRecord(**args, cycle_data=cycles)


# ---------------------------------------------------------------------------
# Reading files: every file the package reads goes through read_file

# The live mappings read_file made; one leaves the set when the last array
# viewing it goes. Before Python 3.13 (whose trackfd=False removes the cause)
# each keeps a duplicate of its file's descriptor open, so read_file maps only
# while they hold fewer than half of the soft RLIMIT_NOFILE, and reads the
# bytes past that.
_MAPPINGS = weakref.WeakSet()


def _may_map() -> bool:
    soft = resource.getrlimit(resource.RLIMIT_NOFILE)[0]
    return soft == resource.RLIM_INFINITY or len(_MAPPINGS) < soft // 2


def read_file(path, error, parse, *, mapped=False):
    """Read the file at ``path`` once and return ``parse`` of its bytes.

    With ``mapped``, ``parse`` gets a read-only ``mmap`` of the file
    instead, so the arrays it builds with ``np.frombuffer`` are views of the
    page cache and hold the mapping open; an empty file, one that cannot be
    mapped, or one read while too many mappings are live gets its bytes.

    A file that cannot be read, or whose bytes ``parse`` rejects with a
    :class:`CellforgeError`, ``ValueError`` (bad UTF-8, JSON and YAML
    included), ``OverflowError`` or ``RecursionError``, raises ``error``
    with one line: ``"<path>: <reason>"``, the path as given.
    """
    try:
        with open(path, "rb") as fh:
            data = None
            if mapped and _may_map():
                try:
                    data = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
                except (OSError, ValueError):  # ValueError: an empty file cannot be mapped
                    pass
                else:
                    _MAPPINGS.add(data)
            if data is None:
                data = fh.read()
    except OSError as exc:
        raise error(f"{path}: cannot read: {exc.strerror or exc}") from exc
    try:
        return parse(data)
    except (CellforgeError, ValueError, OverflowError, RecursionError) as exc:
        raise error(f"{path}: {' '.join(str(exc).split())}") from exc


def json_document(data: bytes):
    """The JSON document held in ``data``, decoded as strict UTF-8."""
    try:
        return json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # also an overlong integer, or nesting too deep
        raise ValueError(f"not valid JSON: {exc}") from exc


def write_json(path, payload) -> None:
    """Write ``payload`` to ``path`` as compact ASCII JSON without NaN or infinity; the one
    JSON writer, as ``dumps`` with no ``indent`` runs in C where ``json.dump`` does not."""
    Path(path).write_text(json.dumps(payload, separators=(",", ":"), allow_nan=False))


def yaml_document(data: bytes):
    """The YAML document held in ``data``, decoded as strict UTF-8."""
    try:
        return yaml.safe_load(data.decode("utf-8"))
    except (ValueError, RecursionError, yaml.YAMLError) as exc:
        raise ValueError(f"not valid YAML: {exc}") from exc


# ---------------------------------------------------------------------------
# Cell files

CELL_MAGIC = b"CFC2"

# The int32 blocks holding one value per cycle. They and the resistances come
# first, next to the header, so reading a cell touches the pages at the start
# of its file and no others until a signal is read.
_PER_CYCLE_BLOCKS = ("cycle_number", "points", "has_temperature", "has_internal_resistance")


def write_cell(cell: CellRecord, path) -> Path:
    """Write a valid cell as a binary cell file to ``path``.

    Given a directory, the file is named ``<cell_id>.cfc``; any other path
    is used as it is. Raises :class:`ValidationError` when the record does
    not validate. A coded column is written as its block, residuals and
    escape values copied as they are, and only a plain column is coded
    (see :func:`~cellforge.container.stored_form`), so the file is byte for
    byte the one the cell's plain columns would make.
    """
    violations = validate(cell)
    if violations:
        raise ValidationError(violations)
    path = Path(path)
    if path.is_dir():
        path = path / f"{cell.cell_id}.cfc"
    cycles = cell.cycle_data
    header = {
        "cell": _cell_document(cell, []),
        "cycle_extra": {str(i): e for i, e in cycles.extra.items()},
    }
    per_cycle = (cycles.cycle_number, np.diff(cycles.offsets["time_in_s"]),
                 cycles.has_temperature, cycles.has_internal_resistance)
    blocks = [(name, values.astype(np.int32)) for name, values in zip(_PER_CYCLE_BLOCKS, per_cycle)]
    resistance = cycles.internal_resistance_in_ohm[cycles.has_internal_resistance]
    blocks.append(("internal_resistance_in_ohm", resistance))
    # a coded column is written as its block, never decoded or coded again here
    signals = ((name, cycles.columns._columns[name]) for name in _SIGNAL_FIELDS)
    return write_container(path, CELL_MAGIC, header, itertools.chain(blocks, signals))


def _cycle_index(key: str, n: int) -> int:
    if not (key.isdecimal() and str(int(key)) == key and int(key) < n):
        raise SchemaError(f"cycle_extra: {key!r} is not the index of one of the {n} cycles")
    return int(key)


def _header_cell(header: dict) -> dict:
    """The :class:`CellRecord` arguments, apart from its cycles, that a cell file's header holds."""
    if not isinstance(header.get("cell"), dict):
        raise SchemaError("header: 'cell' must be an object")
    return _cell_fields(header["cell"])


def _cell_id_from_bytes(data: bytes) -> str:
    if data[:4] != CELL_MAGIC:
        return _cell_from_bytes(data).cell_id
    return _header_cell(read_header(data, CELL_MAGIC, SchemaError)[0])["cell_id"]


def _cell_from_bytes(data: bytes) -> CellRecord:
    if data[:4] == b"CFC1":
        raise SchemaError("CFC1 cell file from an older cellforge; regenerate or preprocess it again")
    if data[:4] != CELL_MAGIC:
        return cell_from_dict(json_document(bytes(data)))
    header, offset = read_header(data, CELL_MAGIC, SchemaError)
    if any(isinstance(spec, dict) and "runs" in spec for spec in header["blocks"]):
        raise SchemaError("cell file with run blocks from an older cellforge; "
                          "regenerate or preprocess it again")
    blocks = parse_blocks(data, header, offset, SchemaError)
    n = blocks["cycle_number"].size if "cycle_number" in blocks else -1
    per_cycle = [blocks.get(name) for name in _PER_CYCLE_BLOCKS]
    if not all(b is not None and b.dtype == np.int32 and b.shape == (n,) for b in per_cycle):
        raise SchemaError(f"blocks {list(_PER_CYCLE_BLOCKS)} must be int32 with one value per cycle")
    numbers, points, *flags = per_cycle
    if (points < 0).any():
        raise SchemaError("block 'points': counts must be >= 0")
    has_temperature, has_resistance = (flag.astype(bool) for flag in flags)
    if (has_temperature != flags[0]).any() or (has_resistance != flags[1]).any():
        raise SchemaError("blocks 'has_temperature' and 'has_internal_resistance' must hold 0 or 1")
    sizes = {name: (int(points.sum()),) for name in _CYCLE_SEQ_FIELDS}
    sizes["temperature_in_C"] = (int(points[has_temperature].sum()),)
    sizes["internal_resistance_in_ohm"] = (int(has_resistance.sum()),)
    sizes.update((name, (n,)) for name in _PER_CYCLE_BLOCKS)
    found = {name: arr.shape for name, arr in blocks.items()}
    if found != sizes:
        raise SchemaError(f"blocks {found} do not match the per-cycle counts, which need {sizes}")
    extras = header.get("cycle_extra")
    if not isinstance(extras, dict) or not all(isinstance(e, dict) for e in extras.values()):
        raise SchemaError("header: 'cycle_extra' must be an object of objects")

    resistance = np.full(n, np.nan)
    stored = blocks["internal_resistance_in_ohm"]
    resistance[has_resistance] = stored.decode() if isinstance(stored, Coded) else stored
    return CellRecord(**_header_cell(header), cycle_data=CycleData(
        numbers,
        {name: blocks[name] for name in _SIGNAL_FIELDS},
        _bounds(points),
        has_temperature=has_temperature,
        internal_resistance_in_ohm=resistance,
        has_internal_resistance=has_resistance,
        extra={_cycle_index(k, n): e for k, e in extras.items()},
        copy=False,  # read-only views and coded blocks of the file read_file read
    ))


def read_cell(path) -> CellRecord:
    """Read one cell file, binary or JSON: its first four bytes decide which.

    A binary cell's columns are views of the mapped file (see
    :func:`read_file`), apart from those stored as second differences,
    which are checked here and decoded into new arrays when read (see
    :class:`CycleData`).
    Malformed content raises :class:`SchemaError` naming the file.
    """
    return read_file(path, SchemaError, _cell_from_bytes, mapped=True)


def _read_cell_id(path) -> str:
    """The ``cell_id`` of one cell file, read from the header of a binary
    cell alone; a JSON cell is read whole. Malformed content raises
    :class:`SchemaError` naming the file."""
    return read_file(path, SchemaError, _cell_id_from_bytes, mapped=True)


def _each_cell(cell_dir, read):
    """``(path, read(path))`` for every ``*.cfc`` and ``*.json`` cell file in
    a directory, sorted by file name, each read when it is taken; ``read``
    gives a :class:`CellRecord` or a ``cell_id``. A file holding a
    ``cell_id`` that an earlier one holds raises :class:`SchemaError`."""
    cell_dir = Path(cell_dir)
    if not cell_dir.is_dir():
        raise SchemaError(f"cell directory not found: {cell_dir}")
    paths = sorted([*cell_dir.glob("*.cfc"), *cell_dir.glob("*.json")], key=lambda p: p.name)
    if not paths:
        raise SchemaError(f"no cell files (*.cfc or *.json) in {cell_dir}")
    seen = {}
    for p in paths:
        got = read(p)
        cell_id = got.cell_id if isinstance(got, CellRecord) else got
        if cell_id in seen:
            raise SchemaError(f"cell_id {cell_id!r} is in both {seen[cell_id].name} and {p.name}")
        seen[cell_id] = p
        yield p, got


def load_cells(cell_dir) -> list[CellRecord]:
    """Read every ``*.cfc`` and ``*.json`` cell file in a directory, sorted
    by file name. Two files holding one ``cell_id`` raise :class:`SchemaError`."""
    return [cell for _, cell in _each_cell(cell_dir, read_cell)]


def cell_files(cell_dir) -> dict[str, Path]:
    """The file of each ``cell_id`` in a directory, as :func:`load_cells`
    finds and checks them, reading only the headers of binary cells."""
    return {cell_id: p for p, cell_id in _each_cell(cell_dir, _read_cell_id)}

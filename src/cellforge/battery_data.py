"""Unified cell-level cycling records: types, validation, cell files.

One cell is one binary file named ``<cell_id>.cfc``, in the container model
checkpoints also use: the magic ``CFC1``, a little-endian uint32 header
length, a UTF-8 JSON header, then little-endian float64 blocks. The header
holds the cell's JSON document without its cycles (metadata, protocols and
``extra``, as :func:`cell_to_dict` writes them) and, per cycle, its number,
point count, whether it has a temperature and an internal resistance, and
its ``extra``. Each signal is one block: the per-cycle values concatenated
in cycle order, temperature over only the cycles that have it, and internal
resistance with one value per cycle that has it. :func:`read_cell` also
reads a cell stored as one UTF-8 JSON document (``<cell_id>.json``), the
format of older corpora; :func:`cell_to_dict` exports one.

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

In memory every per-cycle signal (the five mandatory sequences and the
optional ``temperature_in_C``) is a read-only one-dimensional float64
ndarray, copied from whatever the caller passed, so a record never shares a
buffer the caller can still change. Record equality is exact: two cycles are
equal when their scalars, ``extra`` maps and every signal's shape and values
match. Records are unhashable.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field, replace
from itertools import accumulate
from pathlib import Path

import numpy as np

from .errors import SchemaError, ValidationError

# Allowance for sensor jitter when checking cumulative capacities (Ah).
CAPACITY_JITTER_TOL = 1e-9

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

_CELL_OPTIONAL_STR_FIELDS = (
    "form_factor",
    "anode_material",
    "cathode_material",
    "electrolyte_material",
    "description",
)

_CELL_OPTIONAL_NUM_FIELDS = (
    "max_voltage_limit_in_V",
    "min_voltage_limit_in_V",
    "max_current_limit_in_A",
    "min_current_limit_in_A",
)


_SIGNAL_FIELDS = _CYCLE_SEQ_FIELDS + ("temperature_in_C",)

# The element types json.load produces for numbers (bool is its own type).
_JSON_NUMBER_TYPES = frozenset((int, float))


def _signal(values, name) -> np.ndarray:
    """A private, read-only float64 copy of one per-cycle signal."""
    arr = np.array(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    arr.flags.writeable = False
    return arr


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


@dataclass(frozen=True, eq=False)
class CycleRecord:
    """Time-series signals of one full cycle.

    All mandatory sequences share one length (>= 2 points). Temperature is
    optional per source; internal resistance is an optional per-cycle scalar.
    Each signal is stored as a read-only float64 copy of the value passed in.
    """

    cycle_number: int
    voltage_in_V: np.ndarray = ()
    current_in_A: np.ndarray = ()
    charge_capacity_in_Ah: np.ndarray = ()
    discharge_capacity_in_Ah: np.ndarray = ()
    time_in_s: np.ndarray = ()
    temperature_in_C: np.ndarray | None = None
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


@dataclass(frozen=True)
class CellRecord:
    """A single cell: metadata, per-cycle signals, and cycling protocols."""

    cell_id: str
    nominal_capacity_in_Ah: float = 0.0
    cycle_data: tuple = ()
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

    def __post_init__(self):
        object.__setattr__(self, "nominal_capacity_in_Ah", float(self.nominal_capacity_in_Ah))
        object.__setattr__(self, "depth_of_charge", float(self.depth_of_charge))
        object.__setattr__(self, "depth_of_discharge", float(self.depth_of_discharge))
        object.__setattr__(self, "already_spent_cycles", int(self.already_spent_cycles))
        object.__setattr__(self, "cycle_data", tuple(self.cycle_data))
        object.__setattr__(self, "charge_protocol", tuple(self.charge_protocol))
        object.__setattr__(self, "discharge_protocol", tuple(self.discharge_protocol))
        for name in _CELL_OPTIONAL_NUM_FIELDS:
            v = getattr(self, name)
            if v is not None:
                object.__setattr__(self, name, float(v))

    __hash__ = None


@dataclass(frozen=True)
class Violation:
    """One validation failure: a field path and a human-readable reason."""

    path: str
    message: str

    def __str__(self):
        return f"{self.path}: {self.message}"


def _check_finite_seq(arr, path, out):
    if not np.isfinite(arr).all():
        out.append(Violation(path, "contains non-finite values"))
        return False
    return True


def _validate_cycle(cyc: CycleRecord, path: str, out: list):
    if cyc.cycle_number < 1:
        out.append(Violation(f"{path}.cycle_number", "must be a positive integer"))
    lengths = {name: len(getattr(cyc, name)) for name in _CYCLE_SEQ_FIELDS}
    if len(set(lengths.values())) != 1:
        out.append(Violation(path, f"mandatory sequences differ in length: {lengths}"))
        return
    n = lengths["time_in_s"]
    if n < 2:
        out.append(Violation(path, f"sequences must have >= 2 points, got {n}"))
        return
    if cyc.temperature_in_C is not None and len(cyc.temperature_in_C) != n:
        out.append(Violation(f"{path}.temperature_in_C", f"length {len(cyc.temperature_in_C)} != {n}"))
    ok = True
    for name in _SIGNAL_FIELDS:
        if getattr(cyc, name) is not None:
            ok &= _check_finite_seq(getattr(cyc, name), f"{path}.{name}", out)
    if cyc.internal_resistance_in_ohm is not None and not math.isfinite(cyc.internal_resistance_in_ohm):
        out.append(Violation(f"{path}.internal_resistance_in_ohm", "non-finite"))
    if not ok:
        return
    if np.any(np.diff(cyc.time_in_s) <= 0):
        out.append(Violation(f"{path}.time_in_s", "must be strictly increasing"))
    for name in ("charge_capacity_in_Ah", "discharge_capacity_in_Ah"):
        if np.any(np.diff(getattr(cyc, name)) < -CAPACITY_JITTER_TOL):
            out.append(Violation(f"{path}.{name}", "must be non-decreasing (cumulative per cycle)"))


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
    for name in ("depth_of_charge", "depth_of_discharge"):
        v = getattr(cell, name)
        if not (0.0 < v <= 1.0):
            out.append(Violation(name, f"must be within (0, 1], got {v}"))
    if cell.already_spent_cycles < 0:
        out.append(Violation("already_spent_cycles", "must be >= 0"))
    if (
        cell.max_voltage_limit_in_V is not None
        and cell.min_voltage_limit_in_V is not None
        and not (cell.min_voltage_limit_in_V < cell.max_voltage_limit_in_V)
    ):
        out.append(Violation("min_voltage_limit_in_V", "voltage limits must satisfy min < max"))
    if not cell.cycle_data:
        out.append(Violation("cycle_data", "must contain at least one cycle"))
    prev = 0
    for i, cyc in enumerate(cell.cycle_data):
        path = f"cycle_data[{i}]"
        if cyc.cycle_number <= prev:
            out.append(Violation(f"{path}.cycle_number", "cycle numbers must be strictly ascending"))
        prev = cyc.cycle_number
        _validate_cycle(cyc, path, out)
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


def cell_to_dict(cell: CellRecord) -> dict:
    d = {"cell_id": cell.cell_id}
    for name in _CELL_OPTIONAL_STR_FIELDS:
        v = getattr(cell, name)
        if v is not None:
            d[name] = v
    d["nominal_capacity_in_Ah"] = cell.nominal_capacity_in_Ah
    d["depth_of_charge"] = cell.depth_of_charge
    d["depth_of_discharge"] = cell.depth_of_discharge
    d["already_spent_cycles"] = cell.already_spent_cycles
    for name in _CELL_OPTIONAL_NUM_FIELDS:
        v = getattr(cell, name)
        if v is not None:
            d[name] = v
    d["charge_protocol"] = [_step_to_dict(s) for s in cell.charge_protocol]
    d["discharge_protocol"] = [_step_to_dict(s) for s in cell.discharge_protocol]
    d["cycle_data"] = [_cycle_to_dict(c) for c in cell.cycle_data]
    d.update(cell.extra)
    return d


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


def cell_from_dict(obj: dict) -> CellRecord:
    if not isinstance(obj, dict):
        raise SchemaError("cell file must contain a JSON object at top level")
    cell_id = _strval(_expect(obj, "cell_id", "cell"), "cell_id")
    nominal = _num(_expect(obj, "nominal_capacity_in_Ah", "cell"), "nominal_capacity_in_Ah")
    raw_cycles = _expect(obj, "cycle_data", "cell")
    if not isinstance(raw_cycles, list):
        raise SchemaError("cycle_data: expected an array")
    cycles = tuple(_cycle_from_dict(c, f"cycle_data[{i}]") for i, c in enumerate(raw_cycles))

    kwargs = {}
    for name in _CELL_OPTIONAL_STR_FIELDS:
        if name in obj:
            kwargs[name] = _strval(obj[name], name)
    for name in _CELL_OPTIONAL_NUM_FIELDS:
        if name in obj:
            kwargs[name] = _num(obj[name], name)
    if "depth_of_charge" in obj:
        kwargs["depth_of_charge"] = _num(obj["depth_of_charge"], "depth_of_charge")
    if "depth_of_discharge" in obj:
        kwargs["depth_of_discharge"] = _num(obj["depth_of_discharge"], "depth_of_discharge")
    if "already_spent_cycles" in obj:
        kwargs["already_spent_cycles"] = _intval(obj["already_spent_cycles"], "already_spent_cycles")

    def steps(key):
        raw = obj.get(key, [])
        if not isinstance(raw, list):
            raise SchemaError(f"{key}: expected an array")
        return tuple(_step_from_dict(s, f"{key}[{i}]") for i, s in enumerate(raw))

    known = {
        "cell_id",
        "nominal_capacity_in_Ah",
        "cycle_data",
        "charge_protocol",
        "discharge_protocol",
        "depth_of_charge",
        "depth_of_discharge",
        "already_spent_cycles",
        *_CELL_OPTIONAL_STR_FIELDS,
        *_CELL_OPTIONAL_NUM_FIELDS,
    }
    extra = {k: v for k, v in obj.items() if k not in known}
    return CellRecord(
        cell_id=cell_id,
        nominal_capacity_in_Ah=nominal,
        cycle_data=cycles,
        charge_protocol=steps("charge_protocol"),
        discharge_protocol=steps("discharge_protocol"),
        extra=extra,
        **kwargs,
    )




def _json_document(data: bytes):
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"not valid UTF-8: {exc}") from exc
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # also an overlong integer, or nesting too deep
        raise SchemaError(f"not valid JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# Binary container, shared by cell files and model checkpoints
#
# Layout: a 4-byte magic, a little-endian uint32 header length, a UTF-8 JSON
# header whose ``blocks`` array gives the name and shape of every block in
# order, then the blocks themselves as little-endian float64.

def write_container(path, magic: bytes, header: dict, blocks) -> Path:
    """Write ``header`` and the ordered (name, array) pairs ``blocks`` to
    ``path``, which appears complete or not at all."""
    path = Path(path)
    header = {**header, "blocks": [{"name": name, "shape": list(arr.shape)} for name, arr in blocks]}
    payload = json.dumps(header, sort_keys=True).encode("utf-8")
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<I", len(payload)))
        fh.write(payload)
        for _, arr in blocks:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    os.replace(tmp, path)
    return path


def parse_container(data: bytes, magic: bytes, error) -> tuple[dict, dict]:
    """Split a container's bytes into its header and {block name: array}.

    The arrays are read-only views of ``data``. A wrong magic, a truncated
    or non-JSON header, a malformed block list, or blocks that do not fill
    the rest of the file exactly raise ``error``.
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
        count = math.prod(shape)
        if offset + 8 * count > len(data):
            raise error(f"truncated block '{name}'")
        blocks[name] = np.frombuffer(data, dtype="<f8", count=count, offset=offset).reshape(shape)
        offset += 8 * count
    if offset != len(data):
        raise error(f"{len(data) - offset} bytes follow the last block")
    return header, blocks


# ---------------------------------------------------------------------------
# Cell files

CELL_MAGIC = b"CFC1"


def _column(arrays) -> np.ndarray:
    """The present (not None) per-cycle arrays, concatenated in cycle order."""
    return np.concatenate([np.empty(0), *(a for a in arrays if a is not None)])


def write_cell(cell: CellRecord, path) -> Path:
    """Write a valid cell as a binary cell file to ``path``.

    Given a directory, the file is named ``<cell_id>.cfc``; any other path
    is used as it is. Raises :class:`ValidationError` when the record does
    not validate.
    """
    violations = validate(cell)
    if violations:
        raise ValidationError(violations)
    path = Path(path)
    if path.is_dir():
        path = path / f"{cell.cell_id}.cfc"
    cycles = cell.cycle_data
    header = {
        "cell": cell_to_dict(replace(cell, cycle_data=())),
        "cycles": {
            "cycle_number": [c.cycle_number for c in cycles],
            "points": [c.time_in_s.size for c in cycles],
            "has_temperature": [c.temperature_in_C is not None for c in cycles],
            "has_internal_resistance": [c.internal_resistance_in_ohm is not None for c in cycles],
            "extra": [c.extra for c in cycles],
        },
    }
    blocks = [(name, _column(getattr(c, name) for c in cycles)) for name in _SIGNAL_FIELDS]
    resistance = [c.internal_resistance_in_ohm for c in cycles if c.internal_resistance_in_ohm is not None]
    blocks.append(("internal_resistance_in_ohm", np.array(resistance, dtype=np.float64)))
    return write_container(path, CELL_MAGIC, header, blocks)


def _per_cycle(cycles: dict, key: str, kind: type, n: int) -> list:
    values = cycles.get(key)
    if not isinstance(values, list) or len(values) != n or any(type(v) is not kind for v in values):
        raise SchemaError(f"cycles.{key}: expected an array of {n} {kind.__name__} values")
    return values


def _cell_from_container(data: bytes) -> CellRecord:
    header, blocks = parse_container(data, CELL_MAGIC, SchemaError)
    cycles = header.get("cycles")
    if not isinstance(cycles, dict) or not isinstance(cycles.get("cycle_number"), list):
        raise SchemaError("header: 'cycles' must be an object with a 'cycle_number' array")
    n = len(cycles["cycle_number"])
    numbers = _per_cycle(cycles, "cycle_number", int, n)
    points = _per_cycle(cycles, "points", int, n)
    has_temperature = _per_cycle(cycles, "has_temperature", bool, n)
    has_resistance = _per_cycle(cycles, "has_internal_resistance", bool, n)
    extras = _per_cycle(cycles, "extra", dict, n)
    if min(points, default=0) < 0:
        raise SchemaError("cycles.points: counts must be >= 0")
    sizes = {name: (sum(points),) for name in _CYCLE_SEQ_FIELDS}
    sizes["temperature_in_C"] = (sum(p for p, t in zip(points, has_temperature) if t),)
    sizes["internal_resistance_in_ohm"] = (sum(has_resistance),)
    found = {name: arr.shape for name, arr in blocks.items()}
    if found != sizes:
        raise SchemaError(f"blocks {found} do not match the per-cycle counts, which need {sizes}")
    if not isinstance(header.get("cell"), dict):
        raise SchemaError("header: 'cell' must be an object")
    meta = cell_from_dict(header["cell"])

    signals = {name: blocks[name] for name in _CYCLE_SEQ_FIELDS}
    bounds = list(accumulate(points, initial=0))
    t = r = 0
    out = []
    for i, (a, b) in enumerate(zip(bounds, bounds[1:])):
        temperature = resistance = None
        if has_temperature[i]:
            temperature = blocks["temperature_in_C"][t : t + b - a]
            t += b - a
        if has_resistance[i]:
            resistance = blocks["internal_resistance_in_ohm"][r]
            r += 1
        out.append(CycleRecord(
            cycle_number=numbers[i],
            temperature_in_C=temperature,
            internal_resistance_in_ohm=resistance,
            extra=extras[i],
            **{name: col[a:b] for name, col in signals.items()},
        ))
    return replace(meta, cycle_data=out)


def read_cell(path) -> CellRecord:
    """Read one cell file, binary or JSON: its first four bytes decide which.

    Malformed content raises :class:`SchemaError` naming the file.
    """
    path = Path(path)
    data = path.read_bytes()
    try:
        if data[:4] == CELL_MAGIC:
            return _cell_from_container(data)
        return cell_from_dict(_json_document(data))
    except (SchemaError, OverflowError) as exc:  # an integer too large for a float
        raise SchemaError(f"{path.name}: {exc}") from exc


def load_cells(cell_dir) -> list[CellRecord]:
    """Read every ``*.cfc`` and ``*.json`` cell file in a directory, sorted
    by file name. Two files holding one ``cell_id`` raise :class:`SchemaError`."""
    cell_dir = Path(cell_dir)
    if not cell_dir.is_dir():
        raise SchemaError(f"cell directory not found: {cell_dir}")
    paths = sorted([*cell_dir.glob("*.cfc"), *cell_dir.glob("*.json")], key=lambda p: p.name)
    if not paths:
        raise SchemaError(f"no cell files (*.cfc or *.json) in {cell_dir}")
    cells, seen = [], {}
    for p in paths:
        cell = read_cell(p)
        if cell.cell_id in seen:
            raise SchemaError(f"cell_id {cell.cell_id!r} is in both {seen[cell.cell_id].name} and {p.name}")
        seen[cell.cell_id] = p
        cells.append(cell)
    return cells

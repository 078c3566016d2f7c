"""Unified cell-level cycling records: types, validation, JSON serialization.

One cell is one UTF-8 JSON document named ``<cell_id>.json``. Field names use
snake_case with unit suffixes (``nominal_capacity_in_Ah``, ``time_in_s``, ...)
and are identical in memory and on disk. Unknown keys found in a file are
preserved in an ``extra`` side map and round-trip unchanged, but nothing in
the package interprets them.

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
from dataclasses import dataclass, field
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
# JSON serialization

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


def write_cell(cell: CellRecord, path) -> Path:
    """Serialize a valid cell to ``path`` (a file or a directory).

    Given a directory, the file is named ``<cell_id>.json``. Raises
    :class:`ValidationError` when the record does not validate; JSON output
    rejects NaN/Inf outright (``allow_nan=False``).
    """
    violations = validate(cell)
    if violations:
        raise ValidationError(violations)
    path = Path(path)
    if path.is_dir():
        path = path / f"{cell.cell_id}.json"
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(cell_to_dict(cell), fh, allow_nan=False)
    os.replace(tmp, path)
    return path


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


def read_cell(path) -> CellRecord:
    """Parse one cell file; malformed content raises :class:`SchemaError`."""
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path.name}: not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path.name}: not valid UTF-8: {exc}") from exc
    return cell_from_dict(obj)


def load_cells(cell_dir) -> list[CellRecord]:
    """Read every ``*.json`` cell file in a directory, sorted by filename."""
    cell_dir = Path(cell_dir)
    if not cell_dir.is_dir():
        raise SchemaError(f"cell directory not found: {cell_dir}")
    paths = sorted(cell_dir.glob("*.json"))
    if not paths:
        raise SchemaError(f"no cell files (*.json) in {cell_dir}")
    return [read_cell(p) for p in paths]

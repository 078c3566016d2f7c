"""Dataset source registry and raw-data converters.

Seven public cycling datasets are registered with their chemistry, nominal
capacity, voltage window, and cell count. URLs point at the public landing
pages, where the raw files are retrieved by hand; they are plain editable
data.

CSV ingestion is column-map driven: a JSON object maps the logical names
``time_s, voltage_V, current_A, cycle_index`` (mandatory) and
``charge_capacity_Ah, discharge_capacity_Ah`` (optional) onto the CSV header
strings of a given cycler export. When capacity columns are absent they are
integrated from current by the trapezoidal rule, split by current sign.
"""

from __future__ import annotations

import csv
import io
import logging
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .battery_data import CellRecord, CycleData, json_document, read_file, validate, write_cell
from .errors import SchemaError

log = logging.getLogger("cellforge")

_REQUIRED_COLUMNS = ("time_s", "voltage_V", "current_A", "cycle_index")
_OPTIONAL_COLUMNS = ("charge_capacity_Ah", "discharge_capacity_Ah")
# Logical column -> the CycleData signal it fills.
_SIGNALS = {
    "time_s": "time_in_s",
    "voltage_V": "voltage_in_V",
    "current_A": "current_in_A",
    "charge_capacity_Ah": "charge_capacity_in_Ah",
    "discharge_capacity_Ah": "discharge_capacity_in_Ah",
}


@dataclass(frozen=True)
class SourceDescriptor:
    """Static metadata of one public dataset."""

    name: str
    cathode_material: str
    anode_material: str
    nominal_capacity_in_Ah: float
    min_voltage_limit_in_V: float
    max_voltage_limit_in_V: float
    cell_count: int
    urls: tuple = ()
    notes: str = ""


SOURCES: dict[str, SourceDescriptor] = {
    d.name: d
    for d in (
        SourceDescriptor(
            "CALCE", "LCO", "graphite", 1.1, 2.7, 4.2, 13,
            urls=("https://web.calce.umd.edu/batteries/data.htm",),
        ),
        SourceDescriptor(
            "MATR", "LFP", "graphite", 1.1, 2.0, 3.6, 180,
            urls=("https://data.matr.io/1/",),
        ),
        SourceDescriptor(
            "HUST", "LFP", "graphite", 1.1, 2.0, 3.6, 77,
            urls=("https://data.mendeley.com/datasets/nsc7hnsg4s/2",),
        ),
        SourceDescriptor(
            "HNEI", "NMC_LCO", "graphite", 2.8, 3.0, 4.3, 14,
            urls=("https://www.batteryarchive.org/",),
        ),
        SourceDescriptor(
            "RWTH", "NMC", "carbon", 1.11, 3.5, 3.9, 48,
            urls=("https://publications.rwth-aachen.de/record/818642",),
        ),
        SourceDescriptor(
            "SNL", "NCA,NMC,LFP", "graphite", 1.1, 2.0, 3.6, 61,
            urls=("https://www.batteryarchive.org/",),
        ),
        SourceDescriptor(
            "UL_PUR", "NCA", "graphite", 3.4, 2.7, 4.2, 10,
            urls=("https://www.batteryarchive.org/",),
        ),
    )
}


def get_source(name: str) -> SourceDescriptor:
    try:
        return SOURCES[name]
    except KeyError:
        known = ", ".join(sorted(SOURCES))
        raise SchemaError(f"unknown source '{name}'; known sources: {known}") from None


def list_sources() -> list[SourceDescriptor]:
    """All registered descriptors, in registry order."""
    return list(SOURCES.values())


# ---------------------------------------------------------------------------
# Column-map CSV ingestion

def load_column_map(path) -> dict[str, str]:
    return read_file(path, SchemaError, lambda data: parse_column_map(json_document(data)))


def parse_column_map(obj) -> dict[str, str]:
    if not isinstance(obj, dict):
        raise SchemaError("column map: expected a JSON object")
    allowed = set(_REQUIRED_COLUMNS) | set(_OPTIONAL_COLUMNS)
    for key, value in obj.items():
        if key not in allowed:
            raise SchemaError(f"column map: unknown logical column '{key}'; allowed: {sorted(allowed)}")
        if not isinstance(value, str) or not value:
            raise SchemaError(f"column map: '{key}' must map to a CSV header string")
    for key in _REQUIRED_COLUMNS:
        if key not in obj:
            raise SchemaError(f"column map: missing mandatory logical column '{key}'")
    return dict(obj)


def _csv_columns(data: bytes, mapping: dict[str, str]) -> dict[str, np.ndarray]:
    """The mapped columns of a cycler CSV export, one float64 array per logical name.

    Blank lines are skipped. A row's fields are read cycle index first, then
    in signal order, and the first one that is missing or not a number is
    reported with its line.
    """
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline=""))
    try:
        header = next(reader, None)
        if header is None:
            raise SchemaError("empty file (no header row)")
        for logical, column in mapping.items():
            count = header.count(column)
            if count == 0:
                raise SchemaError(f"mapped column '{column}' (for {logical}) not in header")
            if count > 1:
                raise SchemaError(f"mapped column '{column}' (for {logical}) appears {count} times in header")
        columns = {logical: array("d") for logical in ("cycle_index", *_SIGNALS) if logical in mapping}
        fields = [(mapping[logical], header.index(mapping[logical]), values.append)
                  for logical, values in columns.items()]
        for row in reader:
            if not row:
                continue
            for column, index, append in fields:
                try:
                    append(float(row[index]))
                except (IndexError, ValueError):
                    raw = row[index] if index < len(row) else None
                    raise SchemaError(f"line {reader.line_num}: column '{column}': not numeric: {raw!r}") from None
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise SchemaError(f"line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError:
        data.decode("utf-8-sig")  # raises the same error, its position counted from the file's start
        raise
    if not columns["cycle_index"]:
        raise SchemaError("no data rows")
    columns = {logical: np.frombuffer(values) for logical, values in columns.items()}
    lo, hi = columns["cycle_index"].min(), columns["cycle_index"].max()  # NaN if any index is NaN
    # parse_csv_cycler truncates the indices to int64 and numbers them from 1
    if not -2.0**63 <= lo <= hi < 2.0**63 or int(hi) - min(int(lo), 1) + 1 >= 2**63:
        raise SchemaError(f"column '{mapping['cycle_index']}': cycle indices {lo:g} to {hi:g} are not "
                          "finite or do not fit in int64 when numbered from 1")
    return columns


def _integrate_split_by_sign(current_A: np.ndarray, time_s: np.ndarray):
    """Trapezoidal charge/discharge capacity (Ah) from a signed current."""
    t_h = (time_s - time_s[0]) / 3600.0
    dt = np.diff(t_h)
    pos = np.clip(current_A, 0.0, None)
    neg = np.clip(-current_A, 0.0, None)
    qc = np.concatenate([[0.0], np.cumsum(0.5 * (pos[1:] + pos[:-1]) * dt)])
    qd = np.concatenate([[0.0], np.cumsum(0.5 * (neg[1:] + neg[:-1]) * dt)])
    return qc, qd


def parse_csv_cycler(
    path,
    mapping: dict[str, str],
    *,
    cell_id: str | None = None,
    nominal_capacity_in_Ah: float,
    min_voltage_limit_in_V: float | None = None,
    max_voltage_limit_in_V: float | None = None,
) -> CellRecord:
    """Parse one cycler CSV export into a validated :class:`CellRecord`.

    Rows are grouped by the cycle-index column, truncated to an integer, and
    time-sorted within each cycle; equal times keep their file order. Cycle
    indices are shifted to be 1-based when the file starts at 0 or below.
    The returned record always passes ``validate``; a file whose
    data cannot satisfy the record invariants raises :class:`SchemaError`.
    """
    path = Path(path)
    mapping = parse_column_map(mapping)
    columns = read_file(path, SchemaError, lambda data: _csv_columns(data, mapping))
    cycle = columns.pop("cycle_index").astype(np.int64)  # truncated toward zero, as int() does
    cycle = cycle - min(cycle.min(), 1) + 1  # numbered from 1 if the file starts at 0 or below
    order = np.lexsort((columns["time_s"], cycle))  # stable: equal times keep their file order
    numbers, starts = np.unique(cycle[order], return_index=True)
    offsets = np.append(starts, cycle.size)
    signals = {_SIGNALS[logical]: values[order] for logical, values in columns.items()}
    if len(signals) < len(_SIGNALS):  # integrate the capacities the map leaves out
        time, current = signals["time_in_s"], signals["current_in_A"]
        integrated = zip(*(_integrate_split_by_sign(current[a:b], time[a:b])
                           for a, b in zip(offsets[:-1], offsets[1:])))
        for name, parts in zip(("charge_capacity_in_Ah", "discharge_capacity_in_Ah"), integrated):
            if name not in signals:
                signals[name] = np.concatenate(parts)

    cell = CellRecord(
        cell_id=cell_id or path.stem,
        nominal_capacity_in_Ah=nominal_capacity_in_Ah,
        min_voltage_limit_in_V=min_voltage_limit_in_V,
        max_voltage_limit_in_V=max_voltage_limit_in_V,
        cycle_data=CycleData(numbers, signals, offsets, copy=False),  # the sorted columns are new
    )
    violations = validate(cell)
    if violations:
        detail = "; ".join(str(v) for v in violations[:5])
        raise SchemaError(f"{path}: parsed data violates record invariants: {detail}")
    return cell


def packaged_column_map_path(source_name: str) -> Path:
    return Path(__file__).parent / "data" / "column_maps" / f"{source_name.lower()}.json"


def preprocess_source(source_name: str, raw_dir, out_dir, column_map_path=None) -> list[Path]:
    """Convert every CSV in ``raw_dir`` into a cell file in ``out_dir``.

    One CSV is one cell; cell ids are ``<SOURCE>_<file stem>``. The column
    map defaults to the packaged per-source map and is an editable data file.
    """
    desc = get_source(source_name)
    raw_dir = Path(raw_dir)
    out_dir = Path(out_dir)
    csv_paths = sorted(raw_dir.glob("*.csv"))
    if not csv_paths:
        raise SchemaError(f"no CSV files found in {raw_dir}")
    mapping = load_column_map(column_map_path or packaged_column_map_path(source_name))
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for p in csv_paths:
        cell = parse_csv_cycler(
            p,
            mapping,
            cell_id=f"{desc.name}_{p.stem}",
            nominal_capacity_in_Ah=desc.nominal_capacity_in_Ah,
            min_voltage_limit_in_V=desc.min_voltage_limit_in_V,
            max_voltage_limit_in_V=desc.max_voltage_limit_in_V,
        )
        written.append(write_cell(cell, out_dir))
        log.info("converted %s -> %s", p.name, written[-1].name)
    return written

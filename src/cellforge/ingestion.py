"""Dataset source registry and raw-data converters.

Seven public cycling datasets are registered with their chemistry, nominal
capacity, voltage window, and cell count. URLs point at the public landing
pages and are plain editable data; :func:`download` fetches them when the
network allows and otherwise writes a newline-separated URL manifest and
raises, so offline runs fail loudly but leave the user a recipe.

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
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .battery_data import CellRecord, CycleData, json_document, read_file, validate, write_cell
from .errors import DownloadError, SchemaError

log = logging.getLogger("cellforge")

_REQUIRED_COLUMNS = ("time_s", "voltage_V", "current_A", "cycle_index")
_OPTIONAL_COLUMNS = ("charge_capacity_Ah", "discharge_capacity_Ah")


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


def download(source_name: str, dest, timeout: float = 30.0) -> list[Path]:
    """Fetch all registered URLs of a source into ``dest``.

    On any failure a manifest of every registered URL is written to
    ``dest/manifest.txt`` and :class:`DownloadError` is raised, so callers can
    retrieve the data manually.
    """
    desc = get_source(source_name)
    dest = Path(dest)
    dest.mkdir(parents=True, exist_ok=True)
    fetched: list[Path] = []
    failures: list[str] = []
    for url in desc.urls:
        target = dest / (url.rstrip("/").rsplit("/", 1)[-1] or desc.name)
        try:
            with urllib.request.urlopen(url, timeout=timeout) as resp, open(target, "wb") as out:
                out.write(resp.read())
            fetched.append(target)
        except Exception as exc:  # URLError, timeout, HTTP errors, DNS ...
            failures.append(f"{url} ({exc})")
    if failures or not desc.urls:
        manifest = dest / "manifest.txt"
        manifest.write_text("".join(f"{u}\n" for u in desc.urls), encoding="utf-8")
        detail = "; ".join(failures) if failures else "no fetchable URLs registered"
        raise DownloadError(
            f"could not download '{source_name}': {detail}; URL manifest written to {manifest}"
        )
    return fetched


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


def _to_float(raw: str, line: int, column: str) -> float:
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise SchemaError(f"line {line}: column '{column}': not numeric: {raw!r}") from None


def _csv_rows(data: bytes, mapping: dict[str, str]) -> list[dict]:
    """The data rows of a cycler CSV export, as floats keyed by logical name."""
    reader = csv.DictReader(io.StringIO(data.decode("utf-8-sig"), newline=""))
    if reader.fieldnames is None:
        raise SchemaError("empty file (no header row)")
    header = set(reader.fieldnames)
    for logical, column in mapping.items():
        if column not in header:
            raise SchemaError(f"mapped column '{column}' (for {logical}) not in header")
    rows = []
    for rec in reader:
        line = reader.line_num
        cyc = _to_float(rec[mapping["cycle_index"]], line, mapping["cycle_index"])
        row = {
            "cycle": int(cyc),
            "t": _to_float(rec[mapping["time_s"]], line, mapping["time_s"]),
            "v": _to_float(rec[mapping["voltage_V"]], line, mapping["voltage_V"]),
            "i": _to_float(rec[mapping["current_A"]], line, mapping["current_A"]),
        }
        for logical in _OPTIONAL_COLUMNS:
            if logical in mapping:
                row[logical] = _to_float(rec[mapping[logical]], line, mapping[logical])
        rows.append(row)
    if not rows:
        raise SchemaError("no data rows")
    return rows


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

    Rows are grouped by the cycle-index column and time-sorted within each
    cycle. Cycle indices are shifted to be 1-based when the file starts at 0
    or below. The returned record always passes ``validate``; a file whose
    data cannot satisfy the record invariants raises :class:`SchemaError`.
    """
    path = Path(path)
    mapping = parse_column_map(mapping)
    rows = read_file(path, SchemaError, lambda data: _csv_rows(data, mapping))

    shift = 1 - min(r["cycle"] for r in rows)
    if shift > 0:
        for r in rows:
            r["cycle"] += shift

    by_cycle: dict[int, list] = {}
    for r in rows:
        by_cycle.setdefault(r["cycle"], []).append(r)

    numbers = sorted(by_cycle)
    cycles = []
    for number in numbers:
        group = sorted(by_cycle[number], key=lambda r: r["t"])
        t = np.array([r["t"] for r in group])
        v = np.array([r["v"] for r in group])
        i = np.array([r["i"] for r in group])
        if "charge_capacity_Ah" in mapping and "discharge_capacity_Ah" in mapping:
            qc = np.array([r["charge_capacity_Ah"] for r in group])
            qd = np.array([r["discharge_capacity_Ah"] for r in group])
        else:
            qc_int, qd_int = _integrate_split_by_sign(i, t)
            qc = (
                np.array([r["charge_capacity_Ah"] for r in group])
                if "charge_capacity_Ah" in mapping
                else qc_int
            )
            qd = (
                np.array([r["discharge_capacity_Ah"] for r in group])
                if "discharge_capacity_Ah" in mapping
                else qd_int
            )
        cycles.append({
            "voltage_in_V": v,
            "current_in_A": i,
            "charge_capacity_in_Ah": qc,
            "discharge_capacity_in_Ah": qd,
            "time_in_s": t,
        })

    cell = CellRecord(
        cell_id=cell_id or path.stem,
        nominal_capacity_in_Ah=nominal_capacity_in_Ah,
        min_voltage_limit_in_V=min_voltage_limit_in_V,
        max_voltage_limit_in_V=max_voltage_limit_in_V,
        cycle_data=CycleData(
            numbers,
            {name: np.concatenate([c[name] for c in cycles]) for name in cycles[0]},
            np.cumsum([0, *(len(c["time_in_s"]) for c in cycles)]),
            copy=False,  # the concatenated columns are new
        ),
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

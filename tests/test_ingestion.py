"""Source registry, column-map parsing, CSV conversion, download fallback."""

import csv
import json

import numpy as np
import pytest

from cellforge.battery_data import read_cell, validate
from cellforge.errors import DownloadError, SchemaError
from cellforge.ingestion import (
    SOURCES,
    download,
    get_source,
    list_sources,
    load_column_map,
    packaged_column_map_path,
    parse_column_map,
    parse_csv_cycler,
    preprocess_source,
)

SIMPLE_MAP = {
    "time_s": "t",
    "voltage_V": "v",
    "current_A": "i",
    "cycle_index": "cyc",
    "charge_capacity_Ah": "qc",
    "discharge_capacity_Ah": "qd",
}

NO_CAPACITY_MAP = {k: SIMPLE_MAP[k] for k in ("time_s", "voltage_V", "current_A", "cycle_index")}


def write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return path


def simple_rows(cycle, n=5, t0=0.0):
    """One CC discharge-ish cycle with explicit non-decreasing capacities."""
    rows = []
    for k in range(n):
        rows.append([t0 + 10.0 * k, 3.5 - 0.1 * k, -1.0, cycle, 0.0, 0.1 * k])
    return rows


class TestSourceRegistry:
    def test_seven_sources_registered(self):
        names = {s.name for s in list_sources()}
        assert names == {"CALCE", "MATR", "HUST", "HNEI", "RWTH", "SNL", "UL_PUR"}

    def test_cell_counts(self):
        counts = {s.name: s.cell_count for s in list_sources()}
        assert counts == {
            "CALCE": 13, "MATR": 180, "HUST": 77, "HNEI": 14,
            "RWTH": 48, "SNL": 61, "UL_PUR": 10,
        }
        assert sum(counts.values()) == 403

    def test_voltage_windows_are_ordered(self):
        for s in list_sources():
            assert s.min_voltage_limit_in_V < s.max_voltage_limit_in_V
            assert s.nominal_capacity_in_Ah > 0
            assert s.urls

    def test_unknown_source(self):
        with pytest.raises(SchemaError, match="known sources"):
            get_source("NOPE")


class TestColumnMaps:
    def test_parse_accepts_minimal_map(self):
        assert parse_column_map(NO_CAPACITY_MAP) == NO_CAPACITY_MAP

    def test_unknown_logical_column(self):
        with pytest.raises(SchemaError, match="unknown logical column"):
            parse_column_map({**NO_CAPACITY_MAP, "impedance": "z"})

    def test_missing_mandatory_column(self):
        bad = dict(NO_CAPACITY_MAP)
        del bad["voltage_V"]
        with pytest.raises(SchemaError, match="missing mandatory logical column"):
            parse_column_map(bad)

    @pytest.mark.parametrize("value", ["", 3, None])
    def test_values_must_be_header_strings(self, value):
        with pytest.raises(SchemaError):
            parse_column_map({**NO_CAPACITY_MAP, "time_s": value})

    def test_must_be_object(self):
        with pytest.raises(SchemaError, match="JSON object"):
            parse_column_map(["time_s"])

    def test_load_rejects_bad_json(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text("{", encoding="utf-8")
        with pytest.raises(SchemaError, match="not valid JSON"):
            load_column_map(p)

    def test_every_packaged_map_parses(self):
        for name in SOURCES:
            path = packaged_column_map_path(name)
            assert path.exists(), name
            mapping = load_column_map(path)
            for key in ("time_s", "voltage_V", "current_A", "cycle_index"):
                assert key in mapping


class TestParseCsv:
    def test_basic_parse_groups_and_sorts(self, tmp_path):
        rows = simple_rows(cycle=2, t0=100.0) + simple_rows(cycle=1, t0=0.0)
        rows[0], rows[3] = rows[3], rows[0]  # scramble row order
        p = write_csv(tmp_path / "cellA.csv", list(SIMPLE_MAP.values()), rows)
        cell = parse_csv_cycler(p, SIMPLE_MAP, nominal_capacity_in_Ah=1.1)
        assert cell.cell_id == "cellA"
        assert [c.cycle_number for c in cell.cycle_data] == [1, 2]
        for cyc in cell.cycle_data:
            assert list(cyc.time_in_s) == sorted(cyc.time_in_s)
        assert validate(cell) == []

    def test_zero_based_cycles_are_shifted(self, tmp_path):
        rows = simple_rows(cycle=0) + simple_rows(cycle=1, t0=100.0)
        p = write_csv(tmp_path / "z.csv", list(SIMPLE_MAP.values()), rows)
        cell = parse_csv_cycler(p, SIMPLE_MAP, nominal_capacity_in_Ah=1.0)
        assert [c.cycle_number for c in cell.cycle_data] == [1, 2]

    def test_explicit_cell_id_and_limits(self, tmp_path):
        p = write_csv(tmp_path / "x.csv", list(SIMPLE_MAP.values()), simple_rows(1))
        cell = parse_csv_cycler(
            p, SIMPLE_MAP, cell_id="LAB_9", nominal_capacity_in_Ah=2.5,
            min_voltage_limit_in_V=2.0, max_voltage_limit_in_V=3.6,
        )
        assert cell.cell_id == "LAB_9"
        assert cell.nominal_capacity_in_Ah == 2.5
        assert cell.min_voltage_limit_in_V == 2.0
        assert cell.max_voltage_limit_in_V == 3.6

    def test_capacity_integration_linear_ramp_is_exact(self, tmp_path):
        # current ramps 0 -> 2 A over one hour; trapezoid is exact on a ramp
        header = list(NO_CAPACITY_MAP.values())
        rows = [[600.0 * k, 3.0 + 0.01 * k, 2.0 * k / 6.0, 1] for k in range(7)]
        p = write_csv(tmp_path / "ramp.csv", header, rows)
        cell = parse_csv_cycler(p, NO_CAPACITY_MAP, nominal_capacity_in_Ah=1.0)
        qc = cell.cycle_data[0].charge_capacity_in_Ah
        qd = cell.cycle_data[0].discharge_capacity_in_Ah
        assert qc[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(qd, [0.0] * 7)

    def test_capacity_integration_splits_by_sign(self, tmp_path):
        # 2 A charge then 2 A discharge, zero crossing exactly at a sample
        header = list(NO_CAPACITY_MAP.values())
        t = [0.0, 900.0, 1800.0, 2700.0, 3600.0]
        i = [2.0, 2.0, 0.0, -2.0, -2.0]
        rows = [[t[k], 3.3, i[k], 1] for k in range(5)]
        p = write_csv(tmp_path / "sign.csv", header, rows)
        cell = parse_csv_cycler(p, NO_CAPACITY_MAP, nominal_capacity_in_Ah=1.0)
        assert cell.cycle_data[0].charge_capacity_in_Ah[-1] == pytest.approx(0.75, abs=1e-12)
        assert cell.cycle_data[0].discharge_capacity_in_Ah[-1] == pytest.approx(0.75, abs=1e-12)

    def test_bom_header_is_tolerated(self, tmp_path):
        p = tmp_path / "bom.csv"
        body = "t,v,i,cyc,qc,qd\n" + "\n".join(
            ",".join(str(x) for x in row) for row in simple_rows(1)
        )
        p.write_bytes(b"\xef\xbb\xbf" + body.encode("utf-8"))
        cell = parse_csv_cycler(p, SIMPLE_MAP, nominal_capacity_in_Ah=1.0)
        assert len(cell.cycle_data) == 1

    def test_mapped_column_missing_from_header(self, tmp_path):
        p = write_csv(tmp_path / "h.csv", ["t", "v", "i"], [[0, 3, 1]])
        with pytest.raises(SchemaError, match="mapped column"):
            parse_csv_cycler(p, NO_CAPACITY_MAP, nominal_capacity_in_Ah=1.0)

    def test_non_numeric_value_reports_line(self, tmp_path):
        rows = simple_rows(1)
        rows[2][1] = "burp"
        p = write_csv(tmp_path / "n.csv", list(SIMPLE_MAP.values()), rows)
        with pytest.raises(SchemaError, match=r"line 4.*not numeric"):
            parse_csv_cycler(p, SIMPLE_MAP, nominal_capacity_in_Ah=1.0)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("", encoding="utf-8")
        with pytest.raises(SchemaError, match="no header"):
            parse_csv_cycler(p, SIMPLE_MAP, nominal_capacity_in_Ah=1.0)

    def test_header_only(self, tmp_path):
        p = write_csv(tmp_path / "ho.csv", list(SIMPLE_MAP.values()), [])
        with pytest.raises(SchemaError, match="no data rows"):
            parse_csv_cycler(p, SIMPLE_MAP, nominal_capacity_in_Ah=1.0)

    def test_invariant_violations_surface_as_schema_errors(self, tmp_path):
        rows = simple_rows(1)
        rows[1][0] = rows[0][0]  # duplicate timestamp within the cycle
        p = write_csv(tmp_path / "dup.csv", list(SIMPLE_MAP.values()), rows)
        with pytest.raises(SchemaError, match="violates record invariants"):
            parse_csv_cycler(p, SIMPLE_MAP, nominal_capacity_in_Ah=1.0)


class TestPreprocess:
    def test_converts_every_csv(self, tmp_path):
        raw = tmp_path / "raw"
        raw.mkdir()
        map_path = tmp_path / "map.json"
        map_path.write_text(json.dumps(SIMPLE_MAP), encoding="utf-8")
        for stem in ("b01", "a02"):
            write_csv(raw / f"{stem}.csv", list(SIMPLE_MAP.values()), simple_rows(1))
        out = tmp_path / "proc"
        written = preprocess_source("CALCE", raw, out, column_map_path=map_path)
        assert [p.name for p in written] == ["CALCE_a02.cfc", "CALCE_b01.cfc"]
        cell = read_cell(written[0])
        assert cell.nominal_capacity_in_Ah == SOURCES["CALCE"].nominal_capacity_in_Ah
        assert validate(cell) == []

    def test_default_map_integration_path(self, tmp_path):
        # RWTH export style: German headers, no capacity columns
        raw = tmp_path / "raw"
        raw.mkdir()
        header = ["Zeit[s]", "Spannung[V]", "Strom[A]", "Zyklus"]
        rows = [[60.0 * k, 3.6 + 0.001 * k, 1.0, 1] for k in range(4)]
        write_csv(raw / "k1.csv", header, rows)
        written = preprocess_source("RWTH", raw, tmp_path / "out")
        cell = read_cell(written[0])
        assert cell.cell_id == "RWTH_k1"
        # constant 1 A for 3 minutes
        assert cell.cycle_data[0].charge_capacity_in_Ah[-1] == pytest.approx(0.05, abs=1e-12)

    def test_no_csv_files(self, tmp_path):
        raw = tmp_path / "raw"
        raw.mkdir()
        with pytest.raises(SchemaError, match="no CSV files"):
            preprocess_source("MATR", raw, tmp_path / "out")


class TestDownload:
    def test_offline_writes_manifest_and_raises(self, tmp_path):
        with pytest.raises(DownloadError, match="manifest"):
            download("MATR", tmp_path, timeout=0.25)
        manifest = tmp_path / "manifest.txt"
        assert manifest.exists()
        assert manifest.read_text(encoding="utf-8").splitlines() == list(SOURCES["MATR"].urls)

    def test_unknown_source(self, tmp_path):
        with pytest.raises(SchemaError):
            download("WAT", tmp_path)

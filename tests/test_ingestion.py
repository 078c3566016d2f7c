"""Source registry, column-map parsing, CSV conversion."""

import csv
import hashlib
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellforge import ingestion
from cellforge.battery_data import read_cell, validate, write_cell
from cellforge.errors import SchemaError
from cellforge.ingestion import (
    SOURCES,
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


def pinned_rows():
    """Two zero-based cycles, charge then discharge, written in reverse order."""
    rows = []
    for cycle in (0, 1):
        for k in range(6):
            current = 1.1 if k < 3 else -1.1
            rows.append([100.0 * cycle + 7.5 * k, 3.6 - 0.07 * k - 0.01 * cycle, current,
                         cycle, 0.0025 * min(k, 3), 0.0025 * max(k - 3, 0)])
    return rows[::-1]


def cycle_columns(cell):
    return [(c.cycle_number, c.time_in_s.tolist(), c.voltage_in_V.tolist(),
             c.current_in_A.tolist(), c.charge_capacity_in_Ah.tolist(),
             c.discharge_capacity_in_Ah.tolist()) for c in cell.cycle_data]


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

    def test_bad_utf8_reports_its_position_in_the_file(self, tmp_path):
        p = write_csv(tmp_path / "u.csv", list(SIMPLE_MAP.values()), simple_rows(1, n=2000))
        size = p.stat().st_size
        p.write_bytes(p.read_bytes() + b"\xff\n")
        with pytest.raises(SchemaError, match=f"can't decode byte 0xff in position {size}:"):
            parse_csv_cycler(p, SIMPLE_MAP, nominal_capacity_in_Ah=1.0)

    def test_bad_utf8_in_the_header_reports_its_position(self, tmp_path):
        p = tmp_path / "u.csv"
        p.write_bytes(b"t,\xffv\n0,1\n")
        with pytest.raises(SchemaError, match=f"^{p}: 'utf-8' codec can't decode byte 0xff in position 2:"):
            parse_csv_cycler(p, SIMPLE_MAP, nominal_capacity_in_Ah=1.0)

    @pytest.mark.parametrize("where, line", [("header", 1), ("row", 4)])
    def test_a_field_over_the_csv_size_limit_reports_its_line(self, tmp_path, where, line):
        rows = simple_rows(1)
        header = list(SIMPLE_MAP.values())
        if where == "header":
            header.append("x" * (csv.field_size_limit() + 1))
        else:
            rows[2][1] = "x" * (csv.field_size_limit() + 1)  # not a number: csv reads the rows
        p = write_csv(tmp_path / "big.csv", header, rows)
        with pytest.raises(SchemaError, match=f"^{p}: line {line}: field larger than field limit"):
            parse_csv_cycler(p, SIMPLE_MAP, nominal_capacity_in_Ah=1.0)

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

    def test_crlf_line_endings_and_blank_lines(self, tmp_path):
        rows = simple_rows(1) + simple_rows(2, t0=100.0)
        plain = write_csv(tmp_path / "plain.csv", list(SIMPLE_MAP.values()), rows)
        crlf = tmp_path / "crlf.csv"
        lines = [",".join(SIMPLE_MAP.values())] + [",".join(map(str, r)) for r in rows]
        crlf.write_bytes(("\r\n\r\n".join(lines) + "\r\n").encode("utf-8"))
        expected = cycle_columns(parse_csv_cycler(plain, SIMPLE_MAP, nominal_capacity_in_Ah=1.0))
        assert cycle_columns(parse_csv_cycler(crlf, SIMPLE_MAP, nominal_capacity_in_Ah=1.0)) == expected

    def test_quoted_numeric_field(self, tmp_path):
        p = tmp_path / "q.csv"
        body = "t,v,i,cyc,qc,qd\n" + "".join(
            f'"{r[0]}",{r[1]},"{r[2]}",{r[3]},{r[4]},{r[5]}\n' for r in simple_rows(1))
        p.write_text(body, encoding="utf-8")
        cell = parse_csv_cycler(p, SIMPLE_MAP, nominal_capacity_in_Ah=1.0)
        assert cell.cycle_data[0].time_in_s.tolist() == [0.0, 10.0, 20.0, 30.0, 40.0]
        assert cell.cycle_data[0].current_in_A.tolist() == [-1.0] * 5

    def test_short_row_reports_the_missing_field(self, tmp_path):
        rows = simple_rows(1)
        rows[1] = rows[1][:4]
        p = write_csv(tmp_path / "short.csv", list(SIMPLE_MAP.values()), rows)
        with pytest.raises(SchemaError, match=r"line 3: column 'qc': not numeric: None$"):
            parse_csv_cycler(p, SIMPLE_MAP, nominal_capacity_in_Ah=1.0)

    def test_interleaved_cycles_are_grouped_in_order(self, tmp_path):
        rows = [r for k in range(5) for r in (simple_rows(3, t0=200.0)[4 - k],
                                              simple_rows(1)[k], simple_rows(2, t0=100.0)[k])]
        p = write_csv(tmp_path / "mix.csv", list(SIMPLE_MAP.values()), rows)
        cell = parse_csv_cycler(p, SIMPLE_MAP, nominal_capacity_in_Ah=1.0)
        expected = [(c, [r[0] for r in simple_rows(c, t0=100.0 * (c - 1))],
                     [r[1] for r in simple_rows(c)]) for c in (1, 2, 3)]
        assert [(c.cycle_number, c.time_in_s.tolist(), c.voltage_in_V.tolist())
                for c in cell.cycle_data] == expected

    @pytest.mark.parametrize("tied, backwards", [((0.1, 0.2), False), ((0.2, 0.1), True)])
    def test_equal_timestamps_keep_file_order(self, tmp_path, tied, backwards):
        # the tie fails validation either way; whether the discharge capacity
        # also runs backwards shows which of the two tied rows came first
        rows = [[0.0, 3.5, -1.0, 1, 0.0, 0.0], [10.0, 3.4, -1.0, 1, 0.0, tied[0]],
                [10.0, 3.3, -1.0, 1, 0.0, tied[1]], [20.0, 3.2, -1.0, 1, 0.0, 0.3]]
        p = write_csv(tmp_path / "tie.csv", list(SIMPLE_MAP.values()), rows)
        with pytest.raises(SchemaError, match="time_in_s: must be strictly increasing") as info:
            parse_csv_cycler(p, SIMPLE_MAP, nominal_capacity_in_Ah=1.0)
        assert ("discharge_capacity_in_Ah: must be non-decreasing" in str(info.value)) == backwards

    def test_non_integral_cycle_index_is_truncated(self, tmp_path):
        rows = simple_rows(2.7, t0=100.0) + simple_rows(1.2)
        p = write_csv(tmp_path / "frac.csv", list(SIMPLE_MAP.values()), rows)
        cell = parse_csv_cycler(p, SIMPLE_MAP, nominal_capacity_in_Ah=1.0)
        assert [(c.cycle_number, c.time_in_s[0]) for c in cell.cycle_data] == [(1, 0.0), (2, 100.0)]

    def test_cycle_indices_too_far_apart_for_int64_are_rejected(self, tmp_path):
        rows = simple_rows(-5e18) + simple_rows(5e18, t0=100.0)
        p = write_csv(tmp_path / "far.csv", list(SIMPLE_MAP.values()), rows)
        with pytest.raises(SchemaError, match="cycle indices -5e\\+18 to 5e\\+18 are not finite or do not fit"):
            parse_csv_cycler(p, SIMPLE_MAP, nominal_capacity_in_Ah=1.0)

    def test_duplicated_mapped_header_is_rejected(self, tmp_path):
        header = ["t", "v", "v", "i", "cyc", "qc", "qd"]
        rows = [r[:2] + r[1:] for r in simple_rows(1)]
        p = write_csv(tmp_path / "dup.csv", header, rows)
        with pytest.raises(SchemaError, match=r"mapped column 'v' \(for voltage_V\) appears 2 times"):
            parse_csv_cycler(p, SIMPLE_MAP, nominal_capacity_in_Ah=1.0)

    def test_duplicated_unmapped_header_is_allowed(self, tmp_path):
        header = [*SIMPLE_MAP.values(), "note", "note"]
        p = write_csv(tmp_path / "extra.csv", header, [r + ["a", "b"] for r in simple_rows(1)])
        cell = parse_csv_cycler(p, SIMPLE_MAP, nominal_capacity_in_Ah=1.0)
        assert cell.cycle_data[0].voltage_in_V.tolist() == [r[1] for r in simple_rows(1)]

    @pytest.mark.parametrize("mapping, digest", [
        (SIMPLE_MAP, "9347ddd62014ded86b0a68a74c0420224a1893db9bbc426f61b81658387d93b1"),
        (NO_CAPACITY_MAP, "c3e72f9762e9d4859d62b56c8c9d9a6ae87f27706219ea5184beae5808707d14"),
    ], ids=["capacity-columns", "integrated-capacity"])
    def test_written_bytes_are_pinned(self, tmp_path, mapping, digest):
        p = write_csv(tmp_path / "pin.csv", list(SIMPLE_MAP.values()), pinned_rows())
        cell = parse_csv_cycler(p, mapping, nominal_capacity_in_Ah=1.1)
        assert hashlib.sha256(write_cell(cell, tmp_path).read_bytes()).hexdigest() == digest

    def test_invariant_violations_surface_as_schema_errors(self, tmp_path):
        rows = simple_rows(1)
        rows[1][0] = rows[0][0]  # duplicate timestamp within the cycle
        p = write_csv(tmp_path / "dup.csv", list(SIMPLE_MAP.values()), rows)
        with pytest.raises(SchemaError, match="violates record invariants: 1 violation"):
            parse_csv_cycler(p, SIMPLE_MAP, nominal_capacity_in_Ah=1.0)

    def test_many_violations_are_summarized(self, tmp_path):
        # a duplicate timestamp in each of seven cycles: five shown, two counted
        rows = []
        for cycle in range(1, 8):
            cycle_rows = simple_rows(cycle, t0=100.0 * cycle)
            cycle_rows[1][0] = cycle_rows[0][0]
            rows += cycle_rows
        p = write_csv(tmp_path / "dup.csv", list(SIMPLE_MAP.values()), rows)
        with pytest.raises(SchemaError) as info:
            parse_csv_cycler(p, SIMPLE_MAP, nominal_capacity_in_Ah=1.0)
        assert str(info.value).startswith(f"{p}: parsed data violates record invariants: "
                                          "7 violation(s): cycle_data[0].time_in_s: ")
        assert str(info.value).endswith("; and 2 more") and str(info.value).count(";") == 5


# fields both parsers read, then fields one or both refuse
NUMBERS = ["1", "-2.5", " 3 ", '"4"', "5e-3", "nan", "-inf", "+0", "-0", "\xa06", "7.", ".5", "1e400"]
OTHERS = ["1_0", "x", "", " ", "0x1", "1\x1c", "\x1f2", '"1"2', "\u0661", "#1", '"1\n"']


def outcome(data, mapping):
    try:
        columns = ingestion._csv_columns(data, mapping)
    except (SchemaError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return {name: values.view(np.uint64).tolist() for name, values in columns.items()}


class TestCParser:
    """``np.loadtxt`` reads an export's rows when it reads them all and the
    csv loop reads the rest, so both give the same columns and errors."""

    MAP = {"time_s": "t", "voltage_V": "v", "current_A": "i", "cycle_index": "c"}

    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(st.lists(st.sampled_from(NUMBERS) | st.sampled_from(OTHERS),
                                  min_size=3, max_size=6), max_size=5),
           newline=st.sampled_from(["\n", "\r\n", "\r"]), blank=st.booleans(), bom=st.booleans())
    def test_the_c_parser_reads_as_the_csv_loop_does(self, rows, newline, blank, bom):
        lines = ["c,t,v,i", *(",".join(row) for row in rows)]
        if blank:
            lines.insert(len(lines) // 2 + 1, "")
        data = ("\ufeff" if bom else "").encode() + newline.join(lines).encode()
        with mock.patch.object(ingestion, "_parsed_rows", lambda data, indices: None):
            loop = outcome(data, self.MAP)
        assert outcome(data, self.MAP) == loop

    def test_a_clean_export_is_read_by_the_c_parser(self, tmp_path, monkeypatch):
        path = write_csv(tmp_path / "clean.csv", list(SIMPLE_MAP.values()), pinned_rows())
        tables, parse = [], ingestion._parsed_rows
        monkeypatch.setattr(ingestion, "_parsed_rows", lambda *args: tables.append(parse(*args)) or tables[-1])
        cell = parse_csv_cycler(path, SIMPLE_MAP, nominal_capacity_in_Ah=1.1)
        assert [table.shape for table in tables] == [(12, 6)]
        assert cycle_columns(cell)[0][1] == [0.0, 7.5, 15.0, 22.5, 30.0, 37.5]

    @pytest.mark.parametrize("field", ["3.5\x1c", "\x1d3.5", "\x1e3.5\x1e", "3.5\x1f"])
    def test_a_number_between_separator_bytes_is_refused(self, tmp_path, field):
        rows = simple_rows(1)
        rows[0][1] = field
        path = write_csv(tmp_path / "sep.csv", list(SIMPLE_MAP.values()), rows)
        with pytest.raises(SchemaError) as info:
            parse_csv_cycler(path, SIMPLE_MAP, nominal_capacity_in_Ah=1.0)
        assert str(info.value) == f"{path}: line 2: column 'v': not numeric: {field!r}"


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

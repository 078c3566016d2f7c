"""Record types, validation rules, and cell-file and JSON round-trips."""

import array
import ast
import copy
import dataclasses
import gc
import hashlib
import json
import math
import mmap
import os
import pickle
import re
import resource
import struct
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cellforge
from cellforge import battery_data
from cellforge.battery_data import (
    CAPACITY_JITTER_TOL,
    CELL_MAGIC,
    MAX_CYCLE_NUMBER,
    CellRecord,
    CycleData,
    CycleRecord,
    ProtocolStep,
    Violation,
    cell_from_dict,
    cell_to_dict,
    load_cells,
    parse_container,
    read_cell,
    read_file,
    validate,
    write_cell,
    write_container,
)
from cellforge.errors import CheckpointError, SchemaError, ValidationError
from cellforge.models import load_model
from cellforge.models.io import read_model_file, write_model_file
from cellforge.synthetic import SynthSpec, generate_synthetic
from conftest import cell_strategy, cycle_strategy, linear_cycle, make_cell, random_valid_cell


def paths_of(violations):
    return [v.path for v in violations]


class TestValidate:
    def test_builder_cell_is_valid(self):
        assert validate(make_cell()) == []

    def test_empty_cell_id(self):
        cell = dataclasses.replace(make_cell(), cell_id="")
        assert "cell_id" in paths_of(validate(cell))

    @pytest.mark.parametrize("nominal", [0.0, -1.5])
    def test_nonpositive_nominal_capacity(self, nominal):
        cell = dataclasses.replace(make_cell(), nominal_capacity_in_Ah=nominal)
        assert "nominal_capacity_in_Ah" in paths_of(validate(cell))

    @pytest.mark.parametrize("field_name", ["depth_of_charge", "depth_of_discharge"])
    @pytest.mark.parametrize("value", [0.0, -0.2, 1.0001])
    def test_depth_out_of_range(self, field_name, value):
        cell = dataclasses.replace(make_cell(), **{field_name: value})
        assert field_name in paths_of(validate(cell))

    def test_depth_of_one_is_allowed(self):
        cell = dataclasses.replace(make_cell(), depth_of_charge=1.0, depth_of_discharge=1.0)
        assert validate(cell) == []

    def test_negative_spent_cycles(self):
        cell = dataclasses.replace(make_cell(), already_spent_cycles=-1)
        assert "already_spent_cycles" in paths_of(validate(cell))

    def test_voltage_limits_must_order(self):
        cell = dataclasses.replace(
            make_cell(), min_voltage_limit_in_V=3.6, max_voltage_limit_in_V=2.0
        )
        assert "min_voltage_limit_in_V" in paths_of(validate(cell))

    def test_no_cycles(self):
        cell = dataclasses.replace(make_cell(), cycle_data=())
        assert "cycle_data" in paths_of(validate(cell))

    def test_cycle_numbers_strictly_ascending(self):
        cell = dataclasses.replace(
            make_cell(), cycle_data=(linear_cycle(2), linear_cycle(2))
        )
        assert any(p.endswith("cycle_number") for p in paths_of(validate(cell)))

    def test_cycle_number_positive(self):
        cell = dataclasses.replace(make_cell(), cycle_data=(linear_cycle(0),))
        assert any("cycle_number" in p for p in paths_of(validate(cell)))

    def test_sequence_length_mismatch(self):
        cyc = linear_cycle(1)
        bad = dataclasses.replace(cyc, voltage_in_V=cyc.voltage_in_V[:-1])
        cell = dataclasses.replace(make_cell(), cycle_data=(bad,))
        assert any("differ in length" in v.message for v in validate(cell))

    def test_too_few_points(self):
        cyc = CycleRecord(
            cycle_number=1,
            voltage_in_V=[3.0],
            current_in_A=[1.0],
            charge_capacity_in_Ah=[0.0],
            discharge_capacity_in_Ah=[0.0],
            time_in_s=[0.0],
        )
        cell = dataclasses.replace(make_cell(), cycle_data=(cyc,))
        assert any(">= 2 points" in v.message for v in validate(cell))

    def test_temperature_length_mismatch(self):
        cyc = dataclasses.replace(linear_cycle(1), temperature_in_C=(25.0, 25.0))
        cell = dataclasses.replace(make_cell(), cycle_data=(cyc,))
        assert any(p.endswith("temperature_in_C") for p in paths_of(validate(cell)))

    def test_non_finite_voltage(self):
        cyc = linear_cycle(1)
        v = list(cyc.voltage_in_V)
        v[2] = float("nan")
        cell = dataclasses.replace(
            make_cell(), cycle_data=(dataclasses.replace(cyc, voltage_in_V=v),)
        )
        assert any("non-finite" in v.message for v in validate(cell))

    def test_time_not_strictly_increasing(self):
        cyc = linear_cycle(1)
        t = list(cyc.time_in_s)
        t[3] = t[2]
        cell = dataclasses.replace(
            make_cell(), cycle_data=(dataclasses.replace(cyc, time_in_s=t),)
        )
        assert any(p.endswith("time_in_s") for p in paths_of(validate(cell)))

    def test_capacity_jitter_within_tolerance_is_ok(self):
        cyc = linear_cycle(1)
        qd = list(cyc.discharge_capacity_in_Ah)
        qd[-1] = qd[-2] - 0.9 * CAPACITY_JITTER_TOL
        cell = dataclasses.replace(
            make_cell(), cycle_data=(dataclasses.replace(cyc, discharge_capacity_in_Ah=qd),)
        )
        assert validate(cell) == []

    def test_capacity_decrease_beyond_tolerance(self):
        cyc = linear_cycle(1)
        qd = list(cyc.discharge_capacity_in_Ah)
        qd[-1] = qd[-2] - 5e-9
        cell = dataclasses.replace(
            make_cell(), cycle_data=(dataclasses.replace(cyc, discharge_capacity_in_Ah=qd),)
        )
        assert any(p.endswith("discharge_capacity_in_Ah") for p in paths_of(validate(cell)))

    def test_protocol_step_needs_drive_field(self):
        cell = dataclasses.replace(
            make_cell(), charge_protocol=(ProtocolStep(start_soc=0.0, end_soc=0.8),)
        )
        assert "charge_protocol[0]" in paths_of(validate(cell))

    def test_protocol_soc_bounds(self):
        cell = dataclasses.replace(
            make_cell(), discharge_protocol=(ProtocolStep(rate_in_C=1.0, end_soc=1.5),)
        )
        assert any(p.endswith("end_soc") for p in paths_of(validate(cell)))

    def test_validate_is_pure(self):
        cell = dataclasses.replace(make_cell(), cell_id="")
        first = validate(cell)
        second = validate(cell)
        assert first == second
        assert cell.cell_id == ""


class TestSerialization:
    def test_file_round_trip_exact(self, tmp_path):
        cell = make_cell(
            "RT_1",
            caps=(1.1, 1.05, 0.99),
            form_factor="pouch",
            cathode_material="LFP",
            charge_protocol=(ProtocolStep(rate_in_C=4.0, start_soc=0.0, end_soc=0.8),),
            extra={"batch": 7, "tags": ["x", "y"]},
        )
        path = write_cell(cell, tmp_path)
        assert path == tmp_path / "RT_1.cfc"
        assert read_cell(path) == cell

    def test_round_trip_many_randomized_cells(self, tmp_path):
        rng = np.random.default_rng(3)
        for i in range(40):
            cell = random_valid_cell(rng, i)
            back = read_cell(write_cell(cell, tmp_path))
            assert back == cell

    @settings(max_examples=60, deadline=None)
    @given(cell=cell_strategy())
    def test_dict_round_trip_property(self, cell):
        through_json = json.loads(json.dumps(cell_to_dict(cell)))
        assert cell_from_dict(through_json) == cell

    def test_write_rejects_invalid_cell(self, tmp_path):
        cell = dataclasses.replace(make_cell("BAD"), nominal_capacity_in_Ah=0.0)
        with pytest.raises(ValidationError):
            write_cell(cell, tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_write_to_explicit_file_path(self, tmp_path):
        target = tmp_path / "custom_name.json"
        assert write_cell(make_cell(), target) == target
        assert target.exists()
        assert not list(tmp_path.glob("*.tmp"))

    def test_missing_optionals_serialize_as_absent_keys(self):
        d = cell_to_dict(make_cell("MIN"))
        assert "form_factor" not in d
        assert "description" not in d
        assert None not in d.values()
        assert "temperature_in_C" not in d["cycle_data"][0]

    def test_unknown_keys_preserved_in_extra(self):
        d = cell_to_dict(make_cell("X"))
        d["lab_bench"] = 4
        d["cycle_data"][0]["vendor_flag"] = "q"
        cell = cell_from_dict(d)
        assert cell.extra == {"lab_bench": 4}
        assert cell.cycle_data[0].extra == {"vendor_flag": "q"}
        again = cell_to_dict(cell)
        assert again["lab_bench"] == 4
        assert again["cycle_data"][0]["vendor_flag"] == "q"


class TestSchemaErrors:
    def base(self):
        return cell_to_dict(make_cell("S", caps=(1.0,)))

    def test_top_level_must_be_object(self):
        with pytest.raises(SchemaError, match="top level"):
            cell_from_dict([1, 2])

    def test_missing_mandatory_field(self):
        d = self.base()
        del d["cell_id"]
        with pytest.raises(SchemaError, match="missing mandatory field 'cell_id'"):
            cell_from_dict(d)

    def test_cell_id_must_be_string(self):
        d = self.base()
        d["cell_id"] = 12
        with pytest.raises(SchemaError, match="cell_id"):
            cell_from_dict(d)

    def test_cycle_number_must_be_integer(self):
        d = self.base()
        d["cycle_data"][0]["cycle_number"] = 1.5
        with pytest.raises(SchemaError, match="cycle_number"):
            cell_from_dict(d)

    def test_bool_is_not_a_number(self):
        d = self.base()
        d["nominal_capacity_in_Ah"] = True
        with pytest.raises(SchemaError, match="nominal_capacity_in_Ah"):
            cell_from_dict(d)

    def test_sequence_with_string_element(self):
        d = self.base()
        d["cycle_data"][0]["voltage_in_V"][1] = "oops"
        with pytest.raises(SchemaError, match=r"voltage_in_V\[1\]"):
            cell_from_dict(d)

    @pytest.mark.parametrize("field_name", ["current_in_A", "temperature_in_C"])
    @pytest.mark.parametrize("element", [True, [1.0], None], ids=["bool", "nested", "null"])
    def test_sequence_element_must_be_a_number(self, field_name, element):
        d = cell_to_dict(dataclasses.replace(
            make_cell("S", caps=(1.0,)), cycle_data=(linear_cycle(1, temperature=25.0),)))
        d["cycle_data"][0][field_name][2] = element
        with pytest.raises(SchemaError, match=rf"^cycle_data\[0\]\.{field_name}\[2\]: expected a number"):
            cell_from_dict(d)

    def test_cycle_data_must_be_array(self):
        d = self.base()
        d["cycle_data"] = {"0": {}}
        with pytest.raises(SchemaError, match="cycle_data"):
            cell_from_dict(d)

    def test_protocol_must_be_array_of_objects(self):
        d = self.base()
        d["charge_protocol"] = [3]
        with pytest.raises(SchemaError, match="charge_protocol"):
            cell_from_dict(d)

    def test_read_cell_rejects_invalid_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json", encoding="utf-8")
        with pytest.raises(SchemaError, match="not valid JSON"):
            read_cell(p)

    @pytest.mark.parametrize("document", [
        '{"cell_id": "x", "nominal_capacity_in_Ah": 1%s, "cycle_data": []}' % ("0" * 400),
        '{"cell_id": "x", "nominal_capacity_in_Ah": 1%s, "cycle_data": []}' % ("0" * 5000),
        "[" * 100_000 + "]" * 100_000,
    ], ids=["int-beyond-float", "int-beyond-str-limit", "deep-nesting"])
    def test_read_cell_rejects_unrepresentable_json(self, tmp_path, document):
        p = tmp_path / "odd.json"
        p.write_text(document, encoding="utf-8")
        with pytest.raises(SchemaError, match=f"^{re.escape(str(p))}: "):
            read_cell(p)

    def test_read_cell_rejects_non_utf8(self, tmp_path):
        p = tmp_path / "binary.json"
        p.write_bytes(b"\xff\xfe\x00\x01")
        with pytest.raises(SchemaError):
            read_cell(p)


class TestArraySignals:
    SIGNALS = (
        "voltage_in_V",
        "current_in_A",
        "charge_capacity_in_Ah",
        "discharge_capacity_in_Ah",
        "time_in_s",
        "temperature_in_C",
    )

    def test_signals_are_read_only_float64_copies(self):
        inputs = {name: np.arange(3, dtype=np.float32) + 1 for name in self.SIGNALS}
        cyc = CycleRecord(cycle_number=1, **inputs)
        for name, given_values in inputs.items():
            signal = getattr(cyc, name)
            assert signal.dtype == np.float64 and signal.ndim == 1
            assert not signal.flags.writeable
            assert not np.shares_memory(signal, given_values)
            given_values[0] = 99.0
            assert signal[0] == 1.0
            with pytest.raises(ValueError, match="read-only"):
                signal[0] = 5.0

    def test_list_and_tuple_inputs_are_copied_exactly(self):
        values = [0.1, 1e-300, 2.0**60 + 1.0, -0.0]
        cyc = CycleRecord(cycle_number=1, voltage_in_V=values, time_in_s=tuple(values))
        assert cyc.voltage_in_V.tolist() == values
        assert cyc.time_in_s.tolist() == values

    @pytest.mark.parametrize("bad", [1.0, [[1.0, 2.0], [3.0, 4.0]]], ids=["scalar", "2-D"])
    def test_signal_must_be_one_dimensional(self, bad):
        with pytest.raises(ValueError, match="voltage_in_V must be one-dimensional"):
            CycleRecord(cycle_number=1, voltage_in_V=bad)

    def test_equality_is_exact(self):
        cyc = linear_cycle(1, temperature=25.0, internal_resistance=0.01)
        assert cyc == linear_cycle(1, temperature=25.0, internal_resistance=0.01)
        nudged = cyc.voltage_in_V.copy()
        nudged[3] = np.nextafter(nudged[3], np.inf)
        assert cyc != dataclasses.replace(cyc, voltage_in_V=nudged)
        assert cyc != dataclasses.replace(cyc, time_in_s=cyc.time_in_s[:-1])
        assert cyc != dataclasses.replace(cyc, temperature_in_C=None)
        assert cyc != dataclasses.replace(cyc, internal_resistance_in_ohm=0.02)
        assert cyc != dataclasses.replace(cyc, extra={"segment": 1})
        cell = make_cell()
        assert cell == make_cell()
        assert cell != dataclasses.replace(cell, cycle_data=(*cell.cycle_data[:-1], cyc))

    def test_records_are_unhashable(self):
        with pytest.raises(TypeError):
            hash(linear_cycle(1))
        with pytest.raises(TypeError):
            hash(make_cell())

    def test_written_bytes_are_pinned(self, tmp_path):
        cells = generate_synthetic(SynthSpec(
            n_cells=2, cycle_life_mean=30.0, cycle_life_std=5.0,
            points_per_cycle=16, noise_sigma=0.005, seed=3,
        ))
        json_digests = [
            hashlib.sha256(json.dumps(cell_to_dict(c), allow_nan=False).encode()).hexdigest()
            for c in cells
        ]
        assert json_digests == [
            "b34b222161ea3381ff73a740c330f5fa45c3353e36643962a8daf05736d92bec",
            "9fe3fa93f7f1eda2aa6886f842327d82c6f39b62c91e3155320ff8d2164c0104",
        ]
        digests = [hashlib.sha256(write_cell(c, tmp_path).read_bytes()).hexdigest() for c in cells]
        assert digests == [
            "87ddead4794234a4f4c25b4b24d5822ed2f1eeda0827a2cb7df42ff0d500d1b9",
            "1f8b5b09b813cf82bd5996c0b96bdbd41fc0335345c1972aee840f8d1e259476",
        ]

    def test_quickstart_corpus_reads_back_equal(self, quickstart_corpus):
        assert quickstart_corpus.loaded == quickstart_corpus.generated
        for cell in quickstart_corpus.loaded:
            for cyc in cell.cycle_data:
                for name in self.SIGNALS:
                    signal = getattr(cyc, name)
                    assert signal.dtype == np.float64 and not signal.flags.writeable


class TestLoadCells:
    def test_sorted_by_filename(self, tmp_path):
        for cid in ("B_2", "A_1", "C_3"):
            write_cell(make_cell(cid), tmp_path)
        cells = load_cells(tmp_path)
        assert [c.cell_id for c in cells] == ["A_1", "B_2", "C_3"]

    def test_missing_directory(self, tmp_path):
        with pytest.raises(SchemaError, match="not found"):
            load_cells(tmp_path / "nope")

    def test_empty_directory(self, tmp_path):
        with pytest.raises(SchemaError, match="no cell files"):
            load_cells(tmp_path)

    def test_empty_directory_message_names_both_patterns(self, tmp_path):
        (tmp_path / "notes.txt").write_text("not a cell")
        with pytest.raises(SchemaError, match=r"no cell files \(\*\.cfc or \*\.json\)"):
            load_cells(tmp_path)

    def test_legacy_json_corpus_loads_equal(self, tmp_path):
        rng = np.random.default_rng(11)
        cells = [random_valid_cell(rng, i) for i in range(4)]
        for cell in cells:
            (tmp_path / f"{cell.cell_id}.json").write_text(
                json.dumps(cell_to_dict(cell), allow_nan=False), encoding="utf-8")
        assert load_cells(tmp_path) == cells

    def test_mixed_directory_sorted_by_filename(self, tmp_path):
        write_cell(make_cell("B_2"), tmp_path)
        (tmp_path / "A_1.json").write_text(json.dumps(cell_to_dict(make_cell("A_1"))))
        write_cell(make_cell("C_3"), tmp_path)
        assert [c.cell_id for c in load_cells(tmp_path)] == ["A_1", "B_2", "C_3"]

    def test_duplicate_cell_id_names_both_files(self, tmp_path):
        cell = make_cell("SYN_0000")
        (tmp_path / "SYN_0000.json").write_text(json.dumps(cell_to_dict(cell)))
        write_cell(cell, tmp_path)
        with pytest.raises(SchemaError, match=r"'SYN_0000' is in both SYN_0000\.cfc and SYN_0000\.json"):
            load_cells(tmp_path)

    # Each mapping holds a file descriptor, so more cells than the soft
    # RLIMIT_NOFILE allows must still load, and leave descriptors to train with.
    DESCRIPTOR_LIMIT_SCRIPT = textwrap.dedent("""
        import dataclasses, os, resource, sys
        from pathlib import Path
        resource.setrlimit(resource.RLIMIT_NOFILE, (256, resource.getrlimit(resource.RLIMIT_NOFILE)[1]))
        from cellforge.battery_data import load_cells, write_cell
        from cellforge.pipeline import run_train
        from cellforge.synthetic import SynthSpec, generate_synthetic

        root = Path(sys.argv[1])
        base = generate_synthetic(SynthSpec(n_cells=3, cycle_life_mean=150.0, cycle_life_std=10.0,
                                            points_per_cycle=16, seed=2))
        written = [dataclasses.replace(base[i % 3], cell_id=f"C{i:04d}") for i in range(300)]
        (root / "cells").mkdir()
        for cell in written:
            write_cell(cell, root / "cells")
        loaded = load_cells(root / "cells")
        assert len(loaded) == 300
        assert all(back == cell for back, cell in zip(loaded, written))
        spare = [open(os.devnull, "rb") for _ in range(100)]  # the mappings hold fewer than half
        for fh in spare:
            fh.close()
        run_train({
            "train_test_split": {"name": "RandomTrainTestSplitter", "test_fraction": 0.34, "seed": 1,
                                 "cell_data_path": str(root / "cells")},
            "feature": {"name": "VarianceModelFeatureExtractor", "interp_dims": 64},
            "feature_transformation": {"name": "ZScoreDataTransformation"},
            "label": {"name": "RULLabelAnnotator"},
            "label_transformation": {"name": "ZScoreDataTransformation"},
            "model": {"name": "LinearRegressionRULPredictor"},
            "seeds": [0],
        }, root / "ws")
        print("trained")
    """)

    def test_more_cells_than_the_descriptor_limit_load_and_train(self, tmp_path):
        src = str(Path(cellforge.__file__).parent.parent)
        result = subprocess.run(
            [sys.executable, "-c", self.DESCRIPTOR_LIMIT_SCRIPT, str(tmp_path)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))})
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "trained"


class TestCellFile:
    """The binary layout: magic, header length, JSON header, float64 and integer blocks."""

    def written(self, tmp_path, cell=None):
        path = write_cell(cell or make_cell("BIN"), tmp_path)
        data = path.read_bytes()
        (length,) = struct.unpack_from("<I", data, 4)
        return path, data, json.loads(data[8 : 8 + length])

    def rewrite(self, path, data, header_text):
        payload = header_text.encode()
        offset = 8 + struct.unpack_from("<I", data, 4)[0]
        path.write_bytes(data[:4] + struct.pack("<I", len(payload)) + payload + data[offset:])

    def test_layout(self, tmp_path):
        cell = make_cell("BIN", extra={"batch": 7}, charge_protocol=(ProtocolStep(rate_in_C=1.0),))
        cell = dataclasses.replace(cell, cycle_data=(
            linear_cycle(1, temperature=25.0),
            linear_cycle(2, n_dis=5, internal_resistance=0.02),
            dataclasses.replace(linear_cycle(3, temperature=26.0), extra={"step": "rest"}),
        ))
        path, data, header = self.written(tmp_path, cell)
        assert data[:4] == b"CFC2" == CELL_MAGIC
        assert header["cell"] == cell_to_dict(dataclasses.replace(cell, cycle_data=()))
        assert header["cycle_extra"] == {"2": {"step": "rest"}}
        _, blocks = parse_container(data, CELL_MAGIC, SchemaError)
        n = sum(len(c.time_in_s) for c in cell.cycle_data)
        assert list(blocks) == ["cycle_number", "points", "has_temperature",
                                "has_internal_resistance", "internal_resistance_in_ohm",
                                *TestArraySignals.SIGNALS]
        assert blocks["voltage_in_V"].shape == (n,)
        assert blocks["temperature_in_C"].shape == (n - len(cell.cycle_data[1].time_in_s),)
        assert blocks["internal_resistance_in_ohm"].tolist() == [0.02]
        per_cycle = {name: blocks[name].tolist() for name in
                     ("cycle_number", "points", "has_temperature", "has_internal_resistance")}
        assert per_cycle == {
            "cycle_number": [1, 2, 3],
            "points": [len(c.time_in_s) for c in cell.cycle_data],
            "has_temperature": [1, 0, 1],
            "has_internal_resistance": [0, 1, 0],
        }
        assert all(blocks[name].dtype == np.int32 for name in per_cycle)
        specs = {b["name"]: b for b in header["blocks"]}
        assert all(specs[name]["dtype"] == "|u1" for name in per_cycle)
        assert all("dtype" not in specs[name] for name in (*TestArraySignals.SIGNALS,
                                                            "internal_resistance_in_ohm"))
        floats = 5 * n + blocks["temperature_in_C"].size + 1
        assert len(data) == 8 + struct.unpack_from("<I", data, 4)[0] + 8 * floats + 1 * 4 * 3
        assert read_cell(path) == cell

    def test_uniform_per_cycle_blocks_store_one_value(self, tmp_path):
        cell = dataclasses.replace(make_cell("UNI"), cycle_data=tuple(
            linear_cycle(k, temperature=25.0) for k in (1, 2, 3)))
        path, data, header = self.written(tmp_path, cell)
        repeated = sorted(b["name"] for b in header["blocks"] if b.get("repeat"))
        assert repeated == ["has_internal_resistance", "has_temperature", "points", "temperature_in_C"]
        n = 3 * len(cell.cycle_data[0].time_in_s)
        # five float64 signals of n values, a temperature of 25.0 stored once, no
        # resistance, three one-byte cycle numbers and three one-byte blocks of one value
        assert len(data) == 8 + struct.unpack_from("<I", data, 4)[0] + 8 * 5 * n + 8 + 1 * 3 + 1 * 3
        assert read_cell(path) == cell

    def test_cfc1_file_is_one_line_error(self, tmp_path):
        path, data, _ = self.written(tmp_path)
        path.write_bytes(b"CFC1" + data[4:])
        with pytest.raises(SchemaError) as info:
            read_cell(path)
        assert str(info.value) == (f"{path}: CFC1 cell file from an older cellforge; "
                                   "regenerate or preprocess it again")

    def test_format_is_read_from_content_not_name(self, tmp_path):
        cell = make_cell("NAMED")
        binary = write_cell(cell, tmp_path / "binary.json")
        text = tmp_path / "text.cfc"
        text.write_text(json.dumps(cell_to_dict(cell)))
        assert read_cell(binary) == cell == read_cell(text)

    @pytest.mark.parametrize("cut", [0, 3, 6, 20, -1])
    def test_truncation(self, tmp_path, cut):
        path, data, _ = self.written(tmp_path)
        path.write_bytes(data[:cut])
        with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}: "):
            read_cell(path)

    @pytest.mark.parametrize("length", [0, 1, 2**32 - 1])
    def test_header_length_lie(self, tmp_path, length):
        path, data, _ = self.written(tmp_path)
        path.write_bytes(data[:4] + struct.pack("<I", length) + data[8:])
        with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}: "):
            read_cell(path)

    @pytest.mark.parametrize("header_edit", [
        lambda h: [],
        lambda h: {**h, "blocks": "none"},
        lambda h: {**h, "cycle_extra": None},
        lambda h: {**h, "cell": []},
        lambda h: {**h, "blocks": [{**b, "name": "point_count"} if b["name"] == "points" else b
                                   for b in h["blocks"]]},
        lambda h: {**h, "blocks": [{**b, "shape": [b["shape"][0] + 1]}
                                   if b["name"] == "temperature_in_C" else b for b in h["blocks"]]},
        lambda h: {**h, "cycle_extra": {"0": True}},
        lambda h: {**h, "cycle_extra": {"3": {"step": "rest"}}},
    ], ids=["not-object", "blocks", "cycles", "cell", "points", "temperature", "bool-number", "extra"])
    def test_header_disagrees(self, tmp_path, header_edit):
        path, data, header = self.written(tmp_path)
        self.rewrite(path, data, json.dumps(header_edit(header)))
        with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}: "):
            read_cell(path)

    @pytest.mark.parametrize("payload", [
        lambda h: json.dumps({**h, "cell": {**h["cell"], "nominal_capacity_in_Ah": 10**400}}),
        lambda h: '{"blocks": [], "cell": %s}' % ("[" * 100_000 + "]" * 100_000),
    ], ids=["int-beyond-float", "deep-nesting"])
    def test_header_unrepresentable(self, tmp_path, payload):
        path, data, header = self.written(tmp_path)
        self.rewrite(path, data, payload(header))
        with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}: "):
            read_cell(path)

    def test_header_not_utf8(self, tmp_path):
        path, data, _ = self.written(tmp_path)
        path.write_bytes(data[:8] + b"\xff" + data[9:])
        with pytest.raises(SchemaError, match="header is not UTF-8 JSON"):
            read_cell(path)

    @pytest.mark.parametrize("key", ["01", "-1", "+1", " 1", "1.0", "x", "\u0661"])
    def test_cycle_extra_key_must_be_a_cycle_index(self, tmp_path, key):
        path, data, header = self.written(tmp_path)
        self.rewrite(path, data, json.dumps({**header, "cycle_extra": {key: {"a": 1}}}))
        with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}: cycle_extra: "):
            read_cell(path)

    @pytest.mark.parametrize("edit", [
        lambda b: {**b, "points": b["points"] + np.int32(1)},
        lambda b: {**b, "points": np.array([-1, *b["points"][1:] + 1], dtype=np.int32)},
        lambda b: {**b, "has_temperature": np.full(b["has_temperature"].shape, 2, dtype=np.int32)},
        lambda b: {**b, "has_internal_resistance": b["has_internal_resistance"] - np.int32(1)},
        lambda b: {**b, "cycle_number": b["cycle_number"].astype(np.float64)},
        lambda b: {**b, "points": b["points"][:-1]},
        lambda b: {k: v for k, v in b.items() if k != "has_temperature"},
        lambda b: {**b, "stray": np.zeros(2)},
    ], ids=["points-sum", "negative-points", "flag-2", "flag-minus-1", "float-numbers",
            "short-points", "missing-block", "extra-block"])
    def test_blocks_disagree(self, tmp_path, edit):
        path = write_cell(dataclasses.replace(make_cell("BLK"), cycle_data=(
            linear_cycle(1, temperature=25.0), linear_cycle(2, n_dis=5))), tmp_path)
        header, blocks = parse_container(path.read_bytes(), CELL_MAGIC, SchemaError)
        header = {k: v for k, v in header.items() if k != "blocks"}
        write_container(path, CELL_MAGIC, header, list(edit(blocks).items()))
        with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}: [^\n]+$"):
            read_cell(path)

    def test_cycle_numbers_past_int32_do_not_validate(self, tmp_path):
        cell = dataclasses.replace(make_cell("BIG"), cycle_data=(
            linear_cycle(MAX_CYCLE_NUMBER - 1), linear_cycle(MAX_CYCLE_NUMBER)))
        assert read_cell(write_cell(cell, tmp_path)) == cell
        big = dataclasses.replace(cell, cycle_data=(linear_cycle(1), linear_cycle(2**31)))
        assert validate(big) == [
            Violation("cycle_data[1].cycle_number", f"must be at most {MAX_CYCLE_NUMBER}")]
        with pytest.raises(ValidationError):
            write_cell(big, tmp_path)


class TestContainerDtypes:
    """A block is little-endian float64 unless its spec names an integer dtype."""

    def test_int32_block_round_trips_exactly(self, tmp_path):
        ints = np.array([-2**31, -1, 0, 7, 2**31 - 1], dtype=np.int32)
        floats = np.array([0.1, -2.5])
        path = write_container(tmp_path / "x.bin", b"TST1", {}, [("ints", ints), ("floats", floats)])
        data = path.read_bytes()
        header, blocks = parse_container(data, b"TST1", CheckpointError)
        assert header["blocks"] == [{"dtype": "<i4", "name": "ints", "shape": [5]},
                                    {"name": "floats", "shape": [2]}]
        assert blocks["ints"].dtype == np.dtype("<i4") and blocks["floats"].dtype == np.dtype("<f8")
        np.testing.assert_array_equal(blocks["ints"], ints)
        assert blocks["floats"].tobytes() == floats.tobytes()
        assert len(data) == 8 + struct.unpack_from("<I", data, 4)[0] + 4 * 5 + 8 * 2

    def test_an_explicit_float64_dtype_reads_like_none(self):
        payload = json.dumps({"blocks": [{"name": "x", "shape": [1], "dtype": "<f8"}]}).encode()
        data = b"TST1" + struct.pack("<I", len(payload)) + payload + struct.pack("<d", 2.5)
        assert parse_container(data, b"TST1", CheckpointError)[1]["x"].tolist() == [2.5]

    def test_other_integer_arrays_are_still_stored_as_float64(self, tmp_path):
        path = write_container(tmp_path / "x.bin", b"TST1", {}, [("n", np.arange(3))])
        header, blocks = parse_container(path.read_bytes(), b"TST1", CheckpointError)
        assert header["blocks"] == [{"name": "n", "shape": [3]}]
        assert blocks["n"].dtype == np.dtype("<f8") and blocks["n"].tolist() == [0.0, 1.0, 2.0]

    @pytest.mark.parametrize("dtype", ["<f4", "|O", "<i8", ">i4", 8, None, ["<i4"], "|i1", ">i2", "<u2"])
    def test_any_other_dtype_is_the_callers_one_line_error(self, tmp_path, dtype):
        cell = write_cell(make_cell("DT"), tmp_path)
        header, blocks = parse_container(cell.read_bytes(), CELL_MAGIC, SchemaError)
        header["blocks"][0]["dtype"] = dtype
        TestCellFile().rewrite(cell, cell.read_bytes(), json.dumps(header))
        fragment = r"blocks\[0\]: dtype must be '<f8' \(the default\), '<i4', '<i2' or '\|u1', got "
        with pytest.raises(SchemaError, match=f"^{re.escape(str(cell))}: {fragment}") as info:
            read_cell(cell)
        assert "\n" not in str(info.value)
        model = write_model_file(tmp_path / "m.bin", "dummy", {}, {"n_features": 1},
                                 [("mean", np.array([1.0]))])
        header, _ = read_model_file(model)
        header["blocks"][0]["dtype"] = dtype
        TestCellFile().rewrite(model, model.read_bytes(), json.dumps(header))
        with pytest.raises(CheckpointError, match=f"^{re.escape(str(model))}: {fragment}"):
            load_model(model)


def _nans(*payloads):
    return np.array([0x7FF8000000000000 | p for p in payloads], dtype=np.uint64).view(np.float64)


class TestRepeatBlocks:
    """A block of two or more elements with the same bytes stores one of them."""

    def round_trip(self, tmp_path, arr):
        path = write_container(tmp_path / "r.bin", b"TST1", {}, [("x", arr)])
        data = path.read_bytes()
        header, blocks = parse_container(data, b"TST1", CheckpointError)
        return header["blocks"][0], blocks["x"], len(data) - 8 - struct.unpack_from("<I", data, 4)[0]

    @pytest.mark.parametrize("arr, repeat, width", [
        (np.array([0.0, -0.0]), False, 8),
        (np.array([-0.0, -0.0, -0.0]), True, 8),
        (_nans(1, 2), False, 8),
        (_nans(5, 5, 5), True, 8),
        (np.array([2.5]), False, 8),
        (np.full(7, 2**31 - 1, dtype=np.int32), True, 4),
        (np.array([3, 3, 4], dtype=np.int32), False, 1),
        (np.full((3, 4), 1.25), True, 8),
        (np.arange(12.0).reshape(3, 4), False, 8),
        (np.broadcast_to(np.float64(30.0), (4, 5)), True, 8),
        (np.broadcast_to(np.arange(3, dtype=np.int32), (2, 3)), False, 1),
        (np.full(4, 9), True, 8),  # int64: stored as float64
        (np.zeros((0, 3)), False, 8),
    ], ids=["zero-and-negative-zero", "negative-zeros", "nan-payloads", "same-nan", "one-element",
            "int32", "int32-varied", "2d", "2d-varied", "2d-stride-0", "2d-broadcast-row",
            "int64", "empty"])
    def test_round_trip_is_bit_exact(self, tmp_path, arr, repeat, width):
        spec, back, stored = self.round_trip(tmp_path, arr)
        dtype = "<i4" if arr.dtype == np.int32 else "<f8"
        want = np.ascontiguousarray(arr, dtype=dtype)
        assert back.dtype == np.dtype(dtype) and back.shape == arr.shape
        assert back.tobytes() == want.tobytes()
        assert spec.get("repeat", False) is repeat
        # an int32 block is stored at the narrowest width that holds its values
        assert np.dtype(spec.get("dtype", "<f8")).itemsize == width
        assert stored == width * (1 if repeat else arr.size)
        assert not back.flags.writeable
        if repeat:
            assert not any(back.strides)

    def test_a_repeated_block_is_a_view_of_its_one_element(self):
        payload = json.dumps({"blocks": [{"name": "x", "shape": [2, 3], "repeat": True},
                                         {"name": "y", "shape": [1]}]}).encode()
        data = b"TST1" + struct.pack("<I", len(payload)) + payload + struct.pack("<2d", 4.5, 1.0)
        _, blocks = parse_container(data, b"TST1", CheckpointError)
        assert blocks["x"].tolist() == [[4.5] * 3] * 2 and blocks["y"].tolist() == [1.0]
        assert root_buffer(blocks["x"]) is data

    @pytest.mark.parametrize("repeat", [1, 0, "true", None, [True]])
    def test_a_non_boolean_repeat_is_one_line_naming_the_file(self, tmp_path, repeat):
        path = write_cell(make_cell("RP"), tmp_path)
        header, _ = parse_container(path.read_bytes(), CELL_MAGIC, SchemaError)
        header["blocks"][0]["repeat"] = repeat
        TestCellFile().rewrite(path, path.read_bytes(), json.dumps(header))
        with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}: blocks\\[0\\]: repeat must "
                                              f"be true or false, got [^\n]+$"):
            read_cell(path)

    def test_a_truncated_repeated_block_is_one_line_naming_the_file(self, tmp_path):
        cell = dataclasses.replace(make_cell("TR"), cycle_data=(
            linear_cycle(1, temperature=25.0), linear_cycle(2, temperature=25.0)))
        path = write_cell(cell, tmp_path)
        data = path.read_bytes()
        header, _ = parse_container(data, CELL_MAGIC, SchemaError)
        n = sum(len(c.time_in_s) for c in cell.cycle_data)
        assert header["blocks"][-1] == {"name": "temperature_in_C", "repeat": True, "shape": [n]}
        path.write_bytes(data[:-1])
        with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}: "
                                              "truncated block 'temperature_in_C'$"):
            read_cell(path)


class TestNarrowBlocks:
    """An int32 block is stored at the narrowest of ``|u1``, ``<i2`` and
    ``<i4`` that holds its values, and read back as int32."""

    @pytest.mark.parametrize("values, dtype", [
        ([-32769], "<i4"), ([-32768], "<i2"), ([-1], "<i2"), ([0], "|u1"), ([255], "|u1"),
        ([256], "<i2"), ([32767], "<i2"), ([32768], "<i4"), ([-2**31, 2**31 - 1], "<i4"),
        ([0, 255], "|u1"), ([-1, 255], "<i2"), ([-32768, 32767], "<i2"), ([], "|u1"),
    ])
    def test_round_trip_at_each_width_boundary(self, tmp_path, values, dtype):
        arr = np.array(values, dtype=np.int32)
        spec, back, stored = TestRepeatBlocks().round_trip(tmp_path, arr)
        assert spec == {"dtype": dtype, "name": "x", "shape": [len(values)]}
        assert stored == np.dtype(dtype).itemsize * len(values)
        assert back.dtype == np.int32 and not back.flags.writeable
        assert back.tolist() == values

    def test_a_repeated_narrow_block_stores_one_element(self, tmp_path):
        spec, back, stored = TestRepeatBlocks().round_trip(tmp_path, np.full((2, 3), 300, dtype=np.int32))
        assert spec == {"dtype": "<i2", "name": "x", "repeat": True, "shape": [2, 3]} and stored == 2
        assert back.dtype == np.int32 and not back.flags.writeable and not any(back.strides)
        assert back.tolist() == [[300] * 3] * 2

    def test_a_wide_block_of_small_values_still_reads(self):
        # files of older versions store every int32 block as <i4
        payload = json.dumps({"blocks": [{"name": "x", "shape": [3], "dtype": "<i4"}]}).encode()
        data = b"TST1" + struct.pack("<I", len(payload)) + payload + struct.pack("<3i", 1, 2, 3)
        x = parse_container(data, b"TST1", CheckpointError)[1]["x"]
        assert x.dtype == np.int32 and x.tolist() == [1, 2, 3] and root_buffer(x) is data

    def test_a_truncated_narrow_block_is_one_line_naming_the_file(self, tmp_path):
        path = write_model_file(tmp_path / "m.bin", "dummy", {}, {"n_features": 1},
                                [("mean", np.array([1.0])), ("codes", np.array([1, 2, 300], dtype=np.int32))])
        assert read_model_file(path)[0]["blocks"][-1] == {"dtype": "<i2", "name": "codes", "shape": [3]}
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(CheckpointError) as info:
            read_model_file(path)
        assert str(info.value) == f"{path}: truncated block 'codes'"


def file_reads(source: str) -> list[tuple[str, int]]:
    """(enclosing function, line) of each call in ``source`` that reads a file:
    ``read_bytes``, ``read_text``, ``json.load``, ``yaml.safe_load``, or
    ``open`` without a w, a or x mode."""
    reads = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call) and _reads_a_file(node):
            reads.append((owner, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return reads


def _reads_a_file(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Attribute):
        module = func.value.id if isinstance(func.value, ast.Name) else None
        return (func.attr in ("read_bytes", "read_text")
                or (module, func.attr) in (("json", "load"), ("yaml", "safe_load")))
    if isinstance(func, ast.Name) and func.id == "open":
        modes = [k.value for k in call.keywords if k.arg == "mode"] + call.args[1:2]
        return not any(isinstance(m, ast.Constant) and set(str(m.value)) & set("wax") for m in modes)
    return False


class TestReadFile:
    def test_every_file_read_goes_through_read_file(self):
        # yaml_document parses text that read_file already read, as
        # parse_container's json.loads parses bytes already in memory
        src = Path(cellforge.__file__).parent
        found = [f"{path.relative_to(src)}:{line} in {owner}"
                 for path in sorted(src.rglob("*.py"))
                 for owner, line in file_reads(path.read_text(encoding="utf-8"))
                 if owner not in ("read_file", "yaml_document")]
        assert found == []

    @pytest.mark.parametrize("call, reads", [
        ("p.read_bytes()", True), ("p.read_text()", True), ("json.load(fh)", True),
        ("yaml.safe_load(fh)", True), ("open(p)", True), ("open(p, 'rb')", True),
        ("open(p, mode='r')", True), ("open(p, 'w')", False), ("open(p, 'ab')", False),
        ("open(p, mode='x')", False), ("json.loads(text)", False),
    ])
    def test_guard_recognises_reads(self, call, reads):
        assert file_reads(f"def f(p, fh, text):\n    return {call}\n") == ([("f", 2)] if reads else [])

    @pytest.mark.parametrize("raised", [SchemaError, ValueError, OverflowError, RecursionError])
    def test_parse_failure_is_one_line_naming_the_file(self, tmp_path, raised):
        path = tmp_path / "f.dat"
        path.write_bytes(b"x")

        def parse(data):
            raise raised("first line\n    second line")

        with pytest.raises(CheckpointError) as info:
            read_file(path, CheckpointError, parse)
        assert str(info.value) == f"{path}: first line second line"

    @pytest.mark.parametrize("name, reason", [("gone", "No such file or directory"),
                                              (".", "Is a directory")])
    def test_unreadable_file_is_named(self, tmp_path, name, reason):
        with pytest.raises(SchemaError, match=f"^{re.escape(str(tmp_path / name))}: cannot read: {reason}$"):
            read_file(tmp_path / name, SchemaError, bytes)


class TestColumns:
    """Cells hold one column per signal; ``cycle_data`` builds views on demand."""

    def test_read_cell_views_share_the_file_buffer(self, tmp_path):
        cell = dataclasses.replace(make_cell("ZC"), cycle_data=(
            linear_cycle(1, temperature=25.0), linear_cycle(2, temperature=26.0)))
        back = read_cell(write_cell(cell, tmp_path))
        first, second = back.cycle_data[0], back.cycle_data[1]
        for name in TestArraySignals.SIGNALS:
            column = back.cycle_data.columns[name]
            assert np.shares_memory(getattr(first, name), column)
            assert np.shares_memory(getattr(second, name), column)
            assert isinstance(root_buffer(column), mmap.mmap)
            assert memoryview(root_buffer(column)).readonly
            assert not column.flags.writeable
            assert not getattr(first, name).flags.writeable
        assert root_buffer(back.cycle_data.columns["voltage_in_V"]) is root_buffer(
            back.cycle_data.columns["time_in_s"])

    def test_past_the_mapping_cap_a_cell_is_read_as_bytes(self, tmp_path, monkeypatch):
        gc.collect()
        # room for exactly one more mapping
        limit = 2 * (len(battery_data._MAPPINGS) + 1)
        monkeypatch.setattr(resource, "getrlimit", lambda which: (limit, resource.RLIM_INFINITY))
        cells = [dataclasses.replace(make_cell(cell_id), cycle_data=(
            linear_cycle(1, temperature=25.0), linear_cycle(2, temperature=26.0))) for cell_id in ("MAPPED", "READ")]
        mapped, read = [read_cell(write_cell(cell, tmp_path)) for cell in cells]
        assert isinstance(root_buffer(mapped.cycle_data.columns["time_in_s"]), mmap.mmap)
        assert read == cells[1]
        for name in TestArraySignals.SIGNALS:
            column = read.cycle_data.columns[name]
            assert isinstance(root_buffer(column), bytes)
            assert np.shares_memory(getattr(read.cycle_data[0], name), column)
            assert not column.flags.writeable

    def test_rewriting_a_mapped_cell_keeps_the_loaded_record(self, tmp_path):
        cell = make_cell("RW")
        path = write_cell(cell, tmp_path)
        back = read_cell(path)
        assert isinstance(root_buffer(back.cycle_data.columns["time_in_s"]), mmap.mmap)
        rewritten = make_cell("RW", caps=(2.0, 1.9))
        write_cell(rewritten, path)
        assert back == cell
        assert read_cell(path) == rewritten

    def test_empty_cell_file_is_one_line_error(self, tmp_path):
        path = tmp_path / "EMPTY.cfc"
        path.write_bytes(b"")
        with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}: [^\n]+$"):
            read_cell(path)

    def test_caller_arrays_are_copied_and_file_bytes_are_not(self):
        values = np.arange(3.0)
        from_bytes = np.frombuffer(values.tobytes())
        from_array = np.frombuffer(array.array("d", values))  # held through a memoryview, as a mapping is
        columns = {name: values for name in TestArraySignals.SIGNALS}
        columns["time_in_s"] = from_bytes
        columns["current_in_A"] = from_array
        cycles = CycleData([1], columns, [0, 3])
        assert not np.shares_memory(cycles.columns["voltage_in_V"], values)
        assert not np.shares_memory(cycles.columns["current_in_A"], from_array)
        assert not np.shares_memory(cycles.columns["time_in_s"], from_bytes)  # bytes too
        values[0] = 99.0
        assert cycles[0].voltage_in_V[0] == 0.0
        assert all(not col.flags.writeable for col in cycles.columns.values())
        # only copy=False, which read_cell passes for the views of its file, keeps a column
        handed_over = CycleData([1], columns, [0, 3], copy=False)
        assert np.shares_memory(handed_over.columns["time_in_s"], from_bytes)

    def test_len_validate_and_write_build_no_cycle_record(self, tmp_path, monkeypatch):
        cell = make_cell("NOVIEW")

        def no_views(self, i):
            raise AssertionError("a CycleRecord was built")

        monkeypatch.setattr(CycleData, "_cycle", no_views)
        assert len(cell.cycle_data) == 3 and cell.cycle_data
        assert validate(cell) == []
        write_cell(cell, tmp_path)

    def test_read_builds_one_record_and_write_none(self, tmp_path, monkeypatch):
        cell = make_cell("ONCE")
        built, gathered = [], []
        post_init, from_cycles = CellRecord.__post_init__, CycleData.from_cycles.__func__

        def counted_post_init(self):
            built.append(self)
            post_init(self)

        def counted_from_cycles(cls, cycles):
            gathered.append(cycles)
            return from_cycles(cls, cycles)

        monkeypatch.setattr(CellRecord, "__post_init__", counted_post_init)
        monkeypatch.setattr(CycleData, "from_cycles", classmethod(counted_from_cycles))
        path = write_cell(cell, tmp_path)
        assert built == [] and gathered == []
        back = read_cell(path)
        assert len(built) == 1 and built[0] is back and gathered == []
        assert back == cell

    def test_load_cells_memory_is_the_corpus_bytes(self, quickstart_corpus):
        on_disk = sum(p.stat().st_size for p in quickstart_corpus.directory.iterdir())
        gc.collect()
        tracemalloc.start()
        try:
            cells = load_cells(quickstart_corpus.directory)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(cells) == 10
        assert peak <= 1.05 * on_disk, f"peak {peak} bytes for {on_disk} bytes on disk"

    def test_a_constant_column_costs_no_pages(self, tmp_path):
        generated = generate_synthetic(SynthSpec(n_cells=1, cycle_life_mean=60.0, cycle_life_std=5.0,
                                                 points_per_cycle=16, seed=3))[0]
        mapped = read_cell(write_cell(generated, tmp_path))
        for cell in (generated, mapped):
            temperature = cell.cycle_data.columns["temperature_in_C"]
            assert temperature.strides == (0,) and temperature.size == 16 * len(cell.cycle_data)
            assert (temperature == 30.0).all() and not temperature.flags.writeable
            assert cell.cycle_data[5].temperature_in_C.strides == (0,)
        column = mapped.cycle_data.columns["temperature_in_C"]
        assert isinstance(root_buffer(column), mmap.mmap)
        assert root_buffer(column) is root_buffer(mapped.cycle_data.columns["time_in_s"])
        for cell in (generated, mapped):
            assert copy.deepcopy(cell) == cell == pickle.loads(pickle.dumps(cell))

    def test_sequence_of_views(self):
        cycles = (linear_cycle(1), linear_cycle(2, internal_resistance=0.02), linear_cycle(3))
        cell = dataclasses.replace(make_cell(), cycle_data=cycles)
        data = cell.cycle_data
        assert isinstance(data, tuple) and len(data) == 3
        assert list(data) == list(cycles) == [data[0], data[1], data[-1]]
        assert data[1:] == cycles[1:] and data[::-2] == cycles[::-2]
        assert data[0] is not data[0]  # built anew on each access
        assert data.cycle_number.tolist() == [1, 2, 3]
        assert data[1].internal_resistance_in_ohm == 0.02 and data[0].internal_resistance_in_ohm is None
        assert cycles[2] in data and data.index(cycles[1]) == 1 and data.count(cycles[0]) == 1
        assert data + (cycles[0],) == (*cycles, cycles[0]) == (*cycles,) + data[:1]
        with pytest.raises(IndexError):
            data[3]
        with pytest.raises(IndexError):
            data[-4]
        assert len(CellRecord("EMPTY").cycle_data) == 0
        # equal only to a CycleData: tuple's comparisons would see its empty storage
        assert make_cell().cycle_data != () and data != tuple(data)
        with pytest.raises(TypeError, match="not ordered"):
            make_cell().cycle_data < (1,)

    def test_records_pickle_and_stay_read_only(self):
        cell = make_cell("PK")
        assert pickle.loads(pickle.dumps(cell)) == cell
        with pytest.raises(AttributeError, match="read-only"):
            cell.cycle_data.columns = {}

    ROUND_TRIPS = {
        "pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
        "deepcopy": copy.deepcopy,
        "copy": copy.copy,
    }

    @pytest.mark.parametrize("trip", ROUND_TRIPS)
    @pytest.mark.parametrize("source", ["generated", "read", "mixed"])
    def test_round_tripped_cells_stay_read_only(self, tmp_path, source, trip):
        if source == "mixed":  # temperature and resistance on some cycles, one cycle's extra
            cell = dataclasses.replace(make_cell("MIX"), cycle_data=(
                linear_cycle(1, temperature=25.0), linear_cycle(2, internal_resistance=0.02),
                dataclasses.replace(linear_cycle(3), extra={"note": "x"})))
        else:
            spec = SynthSpec(n_cells=1, cycle_life_mean=60.0, cycle_life_std=5.0,
                             points_per_cycle=16, seed=3)
            cell = generate_synthetic(spec)[0]
            if source == "read":
                cell = read_cell(write_cell(cell, tmp_path))
        back = self.ROUND_TRIPS[trip](cell)
        assert back == cell
        data = back.cycle_data
        arrays = [*data.columns.values(), *data.offsets.values(), data.cycle_number,
                  data.has_temperature, data.internal_resistance_in_ohm,
                  data.has_internal_resistance]
        arrays += [getattr(cyc, name) for cyc in data for name in TestArraySignals.SIGNALS
                   if getattr(cyc, name) is not None]
        assert not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError, match="read-only"):
            data.columns["voltage_in_V"][0] = 99.0

    @pytest.mark.parametrize("trip", ROUND_TRIPS)
    def test_round_tripped_cycle_record_stays_read_only(self, trip):
        cyc = dataclasses.replace(linear_cycle(2, temperature=25.0, internal_resistance=0.02),
                                  extra={"note": "x"})
        back = self.ROUND_TRIPS[trip](cyc)
        assert type(back) is CycleRecord and back == cyc
        assert not any(getattr(back, name).flags.writeable for name in TestArraySignals.SIGNALS)

    def test_cycle_data_rejects_other_items(self):
        with pytest.raises(TypeError, match=r"cycle_data\[0\]: expected a CycleRecord"):
            CellRecord("X", 1.0, cycle_data=[{"cycle_number": 1}])

    @pytest.mark.parametrize("offsets", [[0, 2], [1, 3], [0, 4], [0]])
    def test_offsets_must_cover_the_columns(self, offsets):
        columns = {name: np.arange(3.0) for name in TestArraySignals.SIGNALS[:5]}
        with pytest.raises(ValueError, match="offsets"):
            CycleData([1], columns, offsets)


def root_buffer(arr):
    """The object that owns ``arr``'s memory; numpy holds a mapping through a memoryview."""
    while isinstance(arr, np.ndarray):
        arr = arr.base
    return arr.obj if isinstance(arr, memoryview) else arr


# -- validate against the per-cycle checks it replaced ------------------------

_SEQ = TestArraySignals.SIGNALS[:5]


def validate_per_cycle(cell):
    """The oracle: the invariant checks one cycle after another, on views."""
    out = []
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
        _validate_one_cycle(cyc, path, out)
    for key in ("charge_protocol", "discharge_protocol"):
        for i, step in enumerate(getattr(cell, key)):
            p = f"{key}[{i}]"
            drives = (step.rate_in_C, step.current_in_A, step.voltage_in_V, step.power_in_W)
            if all(v is None for v in drives):
                out.append(Violation(p, "needs at least one of rate/current/voltage/power"))
            for name in ("start_soc", "end_soc"):
                v = getattr(step, name)
                if v is not None and not (0.0 <= v <= 1.0):
                    out.append(Violation(f"{p}.{name}", f"must be within [0, 1], got {v}"))
    return out


def _validate_one_cycle(cyc, path, out):
    if cyc.cycle_number < 1:
        out.append(Violation(f"{path}.cycle_number", "must be a positive integer"))
    if cyc.cycle_number > MAX_CYCLE_NUMBER:
        out.append(Violation(f"{path}.cycle_number", f"must be at most {MAX_CYCLE_NUMBER}"))
    lengths = {name: len(getattr(cyc, name)) for name in _SEQ}
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
    for name in TestArraySignals.SIGNALS:
        values = getattr(cyc, name)
        if values is not None and not np.isfinite(values).all():
            out.append(Violation(f"{path}.{name}", "contains non-finite values"))
            ok = False
    if cyc.internal_resistance_in_ohm is not None and not math.isfinite(cyc.internal_resistance_in_ohm):
        out.append(Violation(f"{path}.internal_resistance_in_ohm", "non-finite"))
    if not ok:
        return
    if np.any(np.diff(cyc.time_in_s) <= 0):
        out.append(Violation(f"{path}.time_in_s", "must be strictly increasing"))
    for name in ("charge_capacity_in_Ah", "discharge_capacity_in_Ah"):
        if np.any(np.diff(getattr(cyc, name)) < -CAPACITY_JITTER_TOL):
            out.append(Violation(f"{path}.{name}", "must be non-decreasing (cumulative per cycle)"))


CORRUPTIONS = ("non_finite", "resistance", "time", "capacity", "ragged", "temperature_length",
               "short", "number")


def corrupt(draw, cyc, kind):
    n = len(cyc.time_in_s)
    if kind == "non_finite":
        name = draw(st.sampled_from(TestArraySignals.SIGNALS))
        values = getattr(cyc, name)
        if values is None or values.size == 0:
            return cyc
        values = values.copy()
        values[draw(st.integers(0, values.size - 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        return dataclasses.replace(cyc, **{name: values})
    if kind == "resistance":
        return dataclasses.replace(cyc, internal_resistance_in_ohm=draw(st.sampled_from([np.nan, np.inf, 0.01])))
    if kind in ("time", "capacity"):
        name = "time_in_s" if kind == "time" else draw(
            st.sampled_from(["charge_capacity_in_Ah", "discharge_capacity_in_Ah"]))
        values = getattr(cyc, name).copy()
        if values.size < 2:
            return cyc
        k = draw(st.integers(1, values.size - 1))
        values[k] = values[k - 1] - draw(st.sampled_from([0.0, 0.5e-9, 2e-9, 0.3]))
        return dataclasses.replace(cyc, **{name: values})
    if kind == "ragged":
        name = draw(st.sampled_from(_SEQ))
        m = draw(st.integers(0, n + 1).filter(lambda m: m != n))
        return dataclasses.replace(cyc, **{name: np.concatenate([getattr(cyc, name), [1.0]])[:m]})
    if kind == "temperature_length":
        m = draw(st.integers(0, n + 2))
        return dataclasses.replace(cyc, temperature_in_C=np.full(m, 25.0))
    if kind == "short":
        m = draw(st.integers(0, 1))
        cut = {name: getattr(cyc, name)[:m] for name in _SEQ}
        if cyc.temperature_in_C is not None:
            cut["temperature_in_C"] = cyc.temperature_in_C[:m]
        return dataclasses.replace(cyc, **cut)
    return dataclasses.replace(cyc, cycle_number=draw(
        st.integers(-1, 6) | st.sampled_from([MAX_CYCLE_NUMBER, MAX_CYCLE_NUMBER + 1])))


@st.composite
def corrupted_cells(draw):
    cycles = []
    for number in range(1, draw(st.integers(0, 5)) + 1):
        cyc = draw(cycle_strategy(number=number))
        for kind in draw(st.lists(st.sampled_from(CORRUPTIONS), max_size=3)):
            cyc = corrupt(draw, cyc, kind)
        cycles.append(cyc)
    return dataclasses.replace(make_cell("BAD"), cycle_data=tuple(cycles))


@settings(max_examples=300, deadline=None)
@given(cell=corrupted_cells())
def test_validate_matches_the_per_cycle_checks(cell):
    assert validate(cell) == validate_per_cycle(cell)

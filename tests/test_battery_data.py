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
import shutil
import struct
import subprocess
import sys
import textwrap
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cellforge
from cellforge import battery_data, container
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
from cellforge.labels import soh_per_cycle
from cellforge.models import load_model
from cellforge.models.base import MAGIC as MODEL_MAGIC
from cellforge.pipeline import FEATURES_MAGIC, read_features
from cellforge.plots import degradation_series, voltage_curve_series
from cellforge.synthetic import SynthSpec, generate_synthetic, synthetic_cell
from conftest import (block_size, cell_strategy, cycle_strategy, linear_cycle, make_cell,
                      plain_copy, random_valid_cell, read_model_file, store_current_as_runs,
                      store_plain, write_model_file)


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

    @pytest.mark.parametrize("name", ["nominal_capacity_in_Ah", "max_voltage_limit_in_V",
                                      "min_voltage_limit_in_V", "max_current_limit_in_A",
                                      "min_current_limit_in_A"])
    def test_an_infinite_scalar_is_reported(self, name):
        # JSON's 1e999 parses to inf: the variance feature of such a cell read 0.0, and every
        # SOH label of a cell of infinite nominal capacity 0
        d = cell_to_dict(make_cell())
        d[name] = 1e999
        cell = cell_from_dict(json.loads(json.dumps(d).replace("Infinity", "1e999")))
        assert getattr(cell, name) == math.inf
        found = validate(cell)  # an infinite lower voltage limit also breaks their order
        assert found[0] == Violation(name, "must be finite, got inf") and len(found) <= 2

    @pytest.mark.parametrize("value", [-math.inf, math.nan])
    def test_a_non_finite_limit_is_reported(self, value):
        cell = dataclasses.replace(make_cell(), max_current_limit_in_A=value)
        assert validate(cell) == [Violation("max_current_limit_in_A", f"must be finite, got {value}")]

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
        # signals of one cycle that differ in length share no offsets: the cell is refused when built
        cyc = linear_cycle(1)
        bad = dataclasses.replace(cyc, voltage_in_V=cyc.voltage_in_V[:-1])
        with pytest.raises(ValidationError) as refused:
            dataclasses.replace(make_cell(), cycle_data=(bad,))
        assert any("differ in length" in v.message for v in refused.value.violations)

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
        with pytest.raises(ValidationError) as refused:
            dataclasses.replace(make_cell(), cycle_data=(cyc,))
        assert any(p.endswith("temperature_in_C") for p in paths_of(refused.value.violations))

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

    @pytest.mark.parametrize("n, tail", [(5, "e4: bad"), (7, "e4: bad; and 2 more")])
    def test_validation_error_shows_five_violations_and_counts_the_rest(self, n, tail):
        error = ValidationError([Violation(f"e{i}", "bad") for i in range(n)])
        assert str(error) == f"{n} violation(s): e0: bad; e1: bad; e2: bad; e3: bad; {tail}"
        assert paths_of(error.violations) == [f"e{i}" for i in range(n)]

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
        # a noisy voltage of 16-point cycles stays plain; every other signal is coded
        digests = [hashlib.sha256(write_cell(c, tmp_path).read_bytes()).hexdigest() for c in cells]
        assert digests == [
            "348ea335a9e19493652484a13298710348437445b5d495327412ec2a4f909bf6",
            "1ca07d3d5f2edbbb607ae752e4052d0f57abdd4e93cd9df41a401435817cc5db",
        ]
        # without noise the voltage is a second-difference block too
        smooth = generate_synthetic(SynthSpec(
            n_cells=2, cycle_life_mean=30.0, cycle_life_std=5.0, points_per_cycle=16, seed=3,
        ))
        digests = [hashlib.sha256(write_cell(c, tmp_path).read_bytes()).hexdigest() for c in smooth]
        assert digests == [
            "933cc3da6d44bab90130894c8f63d6dd6a77aec5432ba9c931e36aa7d02b663f",
            "551524ae260949c1d2f62e6825ca365802299e4ea8ffed53cd03edcd4ab0b170",
        ]

    def test_a_cell_without_coded_blocks_reads_with_every_column_mapped(self, tmp_path):
        # the bytes cellforge wrote before run and second-difference blocks existed
        cell = generate_synthetic(SynthSpec(
            n_cells=2, cycle_life_mean=30.0, cycle_life_std=5.0,
            points_per_cycle=16, noise_sigma=0.005, seed=3,
        ))[0]
        path = store_plain(write_cell(cell, tmp_path), *self.SIGNALS)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "87ddead4794234a4f4c25b4b24d5822ed2f1eeda0827a2cb7df42ff0d500d1b9")
        back = read_cell(path)
        assert back == cell
        for column in back.cycle_data.columns.values():
            assert isinstance(root_buffer(column), mmap.mmap) and not column.flags.writeable

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
        coded = {name: spec["escapes"] for name, spec in specs.items() if "escapes" in spec}
        assert coded == {"voltage_in_V": 9, "current_in_A": 12, "charge_capacity_in_Ah": 14,
                         "discharge_capacity_in_Ah": 16, "time_in_s": 24, "temperature_in_C": 4}
        # one float64 resistance; five signals as n int8 residuals each, temperature
        # as n - 9 of them, and 79 int64 escapes
        assert len(data) == (8 + struct.unpack_from("<I", data, 4)[0] + 8 * 1
                             + 5 * n + (n - 9) + 8 * 79 + 1 * 4 * 3)
        assert read_cell(path) == cell

    def test_uniform_per_cycle_blocks_store_one_value(self, tmp_path):
        cell = dataclasses.replace(make_cell("UNI"), cycle_data=tuple(
            linear_cycle(k, temperature=25.0) for k in (1, 2, 3)))
        path, data, header = self.written(tmp_path, cell)
        repeated = sorted(b["name"] for b in header["blocks"] if b.get("repeat"))
        assert repeated == ["has_internal_resistance", "has_temperature", "points", "temperature_in_C"]
        n = 3 * len(cell.cycle_data[0].time_in_s)
        # five signals as n int8 residuals each and 77 int64 escapes, a temperature of
        # 25.0 stored once, no resistance, three one-byte cycle numbers and three
        # one-byte blocks of one value
        assert [(b["name"], b["escapes"]) for b in header["blocks"] if "escapes" in b] == [
            ("voltage_in_V", 9), ("current_in_A", 12), ("charge_capacity_in_Ah", 14),
            ("discharge_capacity_in_Ah", 16), ("time_in_s", 26)]
        assert len(data) == (8 + struct.unpack_from("<I", data, 4)[0] + 5 * n + 8 * 77
                             + 8 + 1 * 3 + 1 * 3)
        assert read_cell(path) == cell

    def test_cfc1_file_is_one_line_error(self, tmp_path):
        path, data, _ = self.written(tmp_path)
        path.write_bytes(b"CFC1" + data[4:])
        with pytest.raises(SchemaError) as info:
            read_cell(path)
        assert str(info.value) == (f"{path}: CFC1 cell file from an older cellforge; "
                                   "regenerate or preprocess it again")

    def test_run_coded_file_is_one_line_error(self, tmp_path):
        path = store_current_as_runs(write_cell(make_cell("RUN"), tmp_path))
        with pytest.raises(SchemaError) as info:
            read_cell(path)
        assert str(info.value) == (f"{path}: cell file with run blocks from an older cellforge; "
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
        path = write_container(tmp_path / "x.bin", b"TST1", {}, [("n", np.arange(1, 4))])
        header, blocks = parse_container(path.read_bytes(), b"TST1", CheckpointError)
        assert header["blocks"] == [{"name": "n", "shape": [3]}]
        assert blocks["n"].dtype == np.dtype("<f8") and blocks["n"].tolist() == [1.0, 2.0, 3.0]

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
        (np.array([[0.0, -0.0]]), False, 8),  # 2-D: a 1-D pair would code its one escape
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
            load_model(path)
        assert str(info.value) == f"{path}: truncated block 'codes'"



def deflated(header: dict, body: bytes, magic: bytes = b"TST1") -> bytes:
    """A container of ``header`` whose bytes after the header are ``body``."""
    payload = json.dumps({"deflate": True, **header}).encode()
    return magic + struct.pack("<I", len(payload)) + payload + body


class TestDeflatedBlocks:
    """A writer that asks for it stores the blocks as one zlib stream when
    that makes the file smaller; the stream must inflate to exactly the
    blocks the header declares."""

    BLOCKS = [("ints", np.tile(np.arange(40, dtype=np.int32), 5)), ("floats", np.tile([0.1, -2.5], 50)),
              ("same", np.full(9, 7.0)), ("none", np.zeros((0, 2)))]

    def test_round_trip_is_bit_exact(self, tmp_path):
        raw = write_container(tmp_path / "raw.bin", b"TST1", {"k": 1}, self.BLOCKS).read_bytes()
        path = write_container(tmp_path / "z.bin", b"TST1", {"k": 1}, self.BLOCKS, deflate=True)
        data = path.read_bytes()
        header, blocks = parse_container(data, b"TST1", CheckpointError)
        raw_header, raw_blocks = parse_container(raw, b"TST1", CheckpointError)
        assert header == {**raw_header, "deflate": True} and "deflate" not in raw_header
        assert len(data) < len(raw)
        (length,) = struct.unpack_from("<I", data, 4)
        assert zlib.decompress(data[8 + length:]) == raw[8 + struct.unpack_from("<I", raw, 4)[0]:]
        for name, arr in raw_blocks.items():
            back = blocks[name]
            assert back.dtype == arr.dtype and back.shape == arr.shape and back.strides == arr.strides
            assert back.tobytes() == arr.tobytes() and not back.flags.writeable, name

    @pytest.mark.parametrize("blocks", [
        [("x", np.random.default_rng(0).normal(size=20))],
        [("x", np.array([1.0, 2.0]))],
        [],
    ], ids=["random-floats", "two-floats", "no-blocks"])
    def test_blocks_that_do_not_shrink_the_file_stay_raw(self, tmp_path, blocks):
        raw = write_container(tmp_path / "raw.bin", b"TST1", {}, blocks).read_bytes()
        assert write_container(tmp_path / "z.bin", b"TST1", {}, blocks, deflate=True).read_bytes() == raw

    def test_a_deflate_key_in_the_given_header_is_the_writers_own(self, tmp_path):
        path = write_container(tmp_path / "x.bin", b"TST1", {"deflate": True}, [("x", np.array([1.0]))])
        header, blocks = parse_container(path.read_bytes(), b"TST1", CheckpointError)
        assert "deflate" not in header and blocks["x"].tolist() == [1.0]

    def test_a_raw_file_reads_as_before(self, tmp_path):
        raw = write_container(tmp_path / "raw.bin", b"TST1", {}, self.BLOCKS).read_bytes()
        _, blocks = parse_container(raw, b"TST1", CheckpointError)
        assert root_buffer(blocks["floats"]) is raw

    HEADER = {"blocks": [{"name": "x", "shape": [4]}]}
    BODY = np.arange(4.0).tobytes()

    @pytest.mark.parametrize("header, body, message", [
        ({**HEADER, "deflate": 1}, zlib.compress(BODY), "deflate must be true or false, got 1$"),
        ({**HEADER, "deflate": "true"}, zlib.compress(BODY), "deflate must be true or false, got 'true'$"),
        ({**HEADER, "deflate": None}, zlib.compress(BODY), "deflate must be true or false, got None$"),
        (HEADER, BODY, "deflated blocks: Error -3 while decompressing data: "),
        (HEADER, zlib.compress(BODY)[:-1], "deflated blocks: the stream is truncated$"),
        (HEADER, zlib.compress(BODY)[:-4], "deflated blocks: the stream is truncated$"),
        (HEADER, b"", "deflated blocks: the stream is truncated$"),
        (HEADER, zlib.compress(BODY) + b"\0", "deflated blocks: 1 bytes follow the stream$"),
        (HEADER, zlib.compress(BODY) * 2, r"deflated blocks: \d+ bytes follow the stream$"),
        (HEADER, zlib.compress(BODY + b"\0"),
         "deflated blocks: the stream holds more than the 32 bytes the blocks declare$"),
        (HEADER, zlib.compress(bytes(10**6)),
         "deflated blocks: the stream holds more than the 32 bytes the blocks declare$"),
        (HEADER, zlib.compress(BODY[:-1]), "deflated blocks: the stream holds 31 bytes, the blocks declare 32$"),
        ({"blocks": [{"name": "x", "shape": [2**62, 2**62]}]}, zlib.compress(BODY),
         r"deflated blocks: the stream holds 32 bytes, the blocks declare \d+$"),
        (HEADER, zlib.compress(BODY)[:-1] + bytes([zlib.compress(BODY)[-1] ^ 1]),
         "deflated blocks: Error -3 while decompressing data: incorrect data check$"),
    ], ids=["deflate-1", "deflate-string", "deflate-null", "raw-body", "no-checksum-byte",
            "no-checksum", "empty-stream", "a-byte-after", "two-streams", "one-byte-more",
            "a-million-bytes-more", "one-byte-less", "declared-beyond-memory", "bad-checksum"])
    def test_a_bad_stream_is_the_callers_one_line_error(self, header, body, message):
        with pytest.raises(CheckpointError, match=f"^{message}") as info:
            parse_container(deflated(header, body), b"TST1", CheckpointError)
        assert "\n" not in str(info.value)

    def test_a_bad_stream_in_a_model_file_names_the_file(self, tmp_path):
        path = write_model_file(tmp_path / "m.bin", "dummy", {}, {"n_features": 4},
                                [("mean", np.tile([1.0, 2.0], 32))])
        data = path.read_bytes()
        assert read_model_file(path)[0]["deflate"] is True
        path.write_bytes(data[:-1])
        with pytest.raises(CheckpointError) as info:
            load_model(path)
        assert str(info.value) == f"{path}: deflated blocks: the stream is truncated"

    def test_a_cell_file_is_never_deflated(self, tmp_path):
        # long cycles of evenly spaced samples: their columns would deflate well
        cell = dataclasses.replace(make_cell("Z"), cycle_data=tuple(
            linear_cycle(i + 1, n_charge=200, n_dis=400) for i in range(4)))
        path, data, header = TestCellFile().written(tmp_path, cell)
        body = data[8 + struct.unpack_from("<I", data, 4)[0]:]
        assert len(zlib.compress(body)) < len(body) / 4
        assert "deflate" not in header
        back = read_cell(path)
        assert back == cell
        coded = {b["name"] for b in header["blocks"] if "escapes" in b}
        assert coded == set(TestArraySignals.SIGNALS[:5])
        for name, column in back.cycle_data.columns.items():
            if name in coded:
                assert column.flags.owndata and not column.flags.writeable
            else:
                assert isinstance(root_buffer(column), mmap.mmap)


# NaN payloads (quiet, signalling, negative), -0.0, +-inf, subnormals at both
# ends, the smallest normal and the largest finite value, as IEEE bit patterns
SPECIAL_BITS = [0x7FF8000000000000, 0x7FF0000000000001, 0xFFF8000000000123, 0x8000000000000000,
                0x7FF0000000000000, 0xFFF0000000000000, 0x1, 0x800FFFFFFFFFFFFF,
                0x0010000000000000, 0x7FEFFFFFFFFFFFFF, 0x0]


@st.composite
def float_blocks(draw):
    """A 2-D float64 block: a smooth ramp, as stored features are, with some
    elements replaced by special or arbitrary bit patterns, so that
    neighbour differences jump and wrap modulo 2**64."""
    n = draw(st.integers(0, 64))
    shape = draw(st.sampled_from([(1, n), (n, 1), (0, n), (n, 3), (3, n)]))
    start, step = draw(st.floats(-1e3, 1e3)), draw(st.floats(-1.0, 1.0))
    bits = (start + step * np.arange(math.prod(shape))).view(np.uint64)
    if bits.size:
        for i, value in draw(st.lists(st.tuples(
                st.integers(0, bits.size - 1),
                st.sampled_from(SPECIAL_BITS) | st.integers(0, 2**64 - 1)), max_size=6)):
            bits[i] = value
    return bits.view(np.float64).reshape(shape)


def as_bits(arr: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(arr).view(np.uint64 if arr.dtype.kind == "f" else arr.dtype)


class TestDeltaBlocks:
    """In a deflated file, a 2-D float64 block that does not repeat may be
    stored as the uint64 differences of its bits along one axis, whichever
    of no delta, axis 0 and axis 1 deflates the first 64 KiB of the blocks
    smallest; it reads back bit for bit."""

    SMOOTH = np.cumsum(np.linspace(0.0, 1.0, 2000).reshape(2, 1000) ** 2, axis=1) / 7.0

    @settings(max_examples=200, deadline=None)
    @given(block=float_blocks(), ints=st.lists(st.integers(-2**31, 2**31 - 1), max_size=8),
           fill=st.sampled_from(SPECIAL_BITS))
    def test_round_trip_is_bit_exact_and_never_larger_than_plain_deflate(self, tmp_path_factory,
                                                                         block, ints, fill):
        root = tmp_path_factory.mktemp("delta")
        blocks = [("f", block), ("i", np.array(ints, dtype=np.int32)),
                  ("r", np.full((2, 3), np.uint64(fill)).view(np.float64)), ("t", block.T.copy())]
        raw = write_container(root / "raw.bin", b"TST1", {}, blocks).read_bytes()
        data = write_container(root / "z.bin", b"TST1", {}, blocks, deflate=True).read_bytes()
        raw_header, _ = parse_container(raw, b"TST1", CheckpointError)
        (length,) = struct.unpack_from("<I", raw, 4)
        plain = deflated(raw_header, zlib.compress(raw[8 + length:]))
        assert len(data) <= min(len(raw), len(plain))
        header, back = parse_container(data, b"TST1", CheckpointError)
        for name, arr in blocks:
            assert back[name].shape == arr.shape and not back[name].flags.writeable, name
            assert back[name].dtype == (np.int32 if name == "i" else np.float64), name
            assert np.array_equal(as_bits(back[name]), as_bits(arr)), name
        for spec in header["blocks"]:
            assert spec.get("dtype") != "<u8" or (spec["name"] in ("f", "t") and header["deflate"])

    @settings(max_examples=200, deadline=None)
    @given(block=float_blocks(), axis=st.sampled_from([0, 1]))
    def test_a_delta_block_reads_back_as_the_running_sums_of_its_differences(self, block, axis):
        diffs = np.diff(block.view(np.uint64), axis=axis, prepend=np.uint64(0))
        header = {"blocks": [{"name": "x", "shape": list(block.shape), "dtype": "<u8", "delta": axis}]}
        _, back = parse_container(deflated(header, zlib.compress(diffs.tobytes())), b"TST1",
                                  CheckpointError)
        assert back["x"].dtype == np.float64 and not back["x"].flags.writeable
        assert np.array_equal(as_bits(back["x"]), as_bits(block))

    @pytest.mark.parametrize("block, axis", [(SMOOTH, 1), (SMOOTH.T.copy(), 0)],
                             ids=["rows", "columns"])
    def test_smooth_rows_are_differenced_along_them(self, tmp_path, block, axis):
        raw = write_container(tmp_path / "raw.bin", b"TST1", {}, [("x", block)]).read_bytes()
        data = write_container(tmp_path / "z.bin", b"TST1", {}, [("x", block)], deflate=True).read_bytes()
        header, back = parse_container(data, b"TST1", CheckpointError)
        # an older reader refuses the '<u8' dtype instead of misreading the differences
        assert header["blocks"] == [{"name": "x", "shape": list(block.shape), "dtype": "<u8",
                                     "delta": axis}]
        assert len(data) < len(zlib.compress(raw))
        assert np.array_equal(as_bits(back["x"]), as_bits(block))

    @pytest.mark.parametrize("rows, deflated_bytes", [
        (2, [16_000] * 3),  # each coding whole: the trial chose the file
        (200, [65_536] * 3 + [1_600_000]),  # a prefix of each, then the chosen whole once
    ], ids=["within-the-trial", "beyond-the-trial"])
    def test_the_axis_is_chosen_from_the_first_64_kib(self, tmp_path, monkeypatch, rows,
                                                       deflated_bytes):
        block = np.cumsum(np.linspace(0.0, 1.0, rows * 1000).reshape(rows, 1000) ** 2, axis=1) / 7.0
        fed, compressobj = [], zlib.compressobj

        class Counted:
            def __init__(self):
                self.packer = compressobj()
                fed.append(0)

            def compress(self, data):
                fed[-1] += memoryview(data).nbytes
                return self.packer.compress(data)

            def flush(self):
                return self.packer.flush()

        monkeypatch.setattr(zlib, "compressobj", Counted)
        path = write_container(tmp_path / "z.bin", b"TST1", {}, [("x", block)], deflate=True)
        monkeypatch.undo()
        assert fed == deflated_bytes
        header, back = parse_container(path.read_bytes(), b"TST1", CheckpointError)
        assert header["blocks"] == [{"name": "x", "shape": [rows, 1000], "dtype": "<u8", "delta": 1}]
        assert np.array_equal(as_bits(back["x"]), as_bits(block))
        diffs = np.diff(block.view(np.uint64), axis=1, prepend=np.uint64(0))
        assert path.read_bytes()[8 + struct.unpack_from("<I", path.read_bytes(), 4)[0]:] == (
            zlib.compress(diffs.tobytes()))

    def test_one_dimensional_blocks_are_never_differenced(self, tmp_path):
        path = write_container(tmp_path / "z.bin", b"TST1", {}, [("x", self.SMOOTH.reshape(-1))],
                               deflate=True)
        header, _ = parse_container(path.read_bytes(), b"TST1", CheckpointError)
        assert header["deflate"] and header["blocks"] == [{"name": "x", "shape": [2000]}]

    @pytest.mark.parametrize("spec, fragment", [
        ({"dtype": "<u8"}, "dtype '<u8' and a delta of 0 or 1 go together, on a 2-D block that "
                           "does not repeat; got dtype '<u8', delta None, shape [2, 2], repeat False"),
        ({"delta": 0}, "got dtype '<f8', delta 0,"),
        ({"dtype": "<i4", "delta": 1}, "got dtype '<i4', delta 1,"),
        ({"dtype": "<u8", "delta": 2}, "got dtype '<u8', delta 2,"),
        ({"dtype": "<u8", "delta": -1}, "got dtype '<u8', delta -1,"),
        ({"dtype": "<u8", "delta": True}, "got dtype '<u8', delta True,"),
        ({"dtype": "<u8", "delta": 1.0}, "got dtype '<u8', delta 1.0,"),
        ({"dtype": "<u8", "delta": "1"}, "got dtype '<u8', delta '1',"),
        ({"dtype": "<u8", "delta": 0, "shape": [4]}, "got dtype '<u8', delta 0, shape [4],"),
        ({"dtype": "<u8", "delta": 0, "shape": [1, 2, 2]}, "shape [1, 2, 2],"),
        ({"dtype": "<u8", "delta": 0, "repeat": True}, "delta 0, shape [2, 2], repeat True"),
        ({"axis": 1}, "unknown key 'axis'"),
        ({"dtype": "<u8", "delta": 1, "order": "C", "axis": 1}, "unknown key 'axis', 'order'"),
    ], ids=["u8-alone", "delta-alone", "delta-on-int32", "delta-2", "delta-negative",
            "delta-bool", "delta-float", "delta-string", "one-dimensional", "three-dimensional",
            "repeated", "unknown-key", "two-unknown-keys"])
    def test_a_malformed_block_spec_is_the_callers_one_line_error(self, spec, fragment):
        header = {"blocks": [{"name": "x", "shape": [2, 2], **spec}]}
        with pytest.raises(CheckpointError) as info:
            parse_container(deflated(header, zlib.compress(bytes(32))), b"TST1", CheckpointError)
        message = str(info.value)
        assert message.startswith("blocks[0]: ") and fragment in message and "\n" not in message


@st.composite
def coded_blocks(draw):
    """A 1-D float64 block of any length from 0: a smooth ramp, or bits whose
    second differences are drawn around the residual limits (-129 to -127,
    127 and 128) and from all 64 bits, so that differences wrap; then some
    elements replaced by special or arbitrary bit patterns."""
    n = draw(st.sampled_from([0, 1, 2, 3]) | st.integers(0, 300))
    if draw(st.booleans()):
        start, step = draw(st.floats(-1e3, 1e3)), draw(st.floats(-1.0, 1.0))
        bits = (start + step * np.arange(n)).view(np.uint64)
    else:
        second = draw(st.lists(st.sampled_from([-129, -128, -127, -1, 0, 1, 126, 127, 128])
                               | st.integers(-2**63, 2**63 - 1), min_size=n, max_size=n))
        bits = np.array(second, dtype=np.int64).view(np.uint64)
        bits = np.cumsum(np.cumsum(bits, dtype=np.uint64), dtype=np.uint64)
    if n:
        for i, value in draw(st.lists(st.tuples(
                st.integers(0, n - 1), st.sampled_from(SPECIAL_BITS) | st.integers(0, 2**64 - 1)),
                max_size=4)):
            bits[i] = value
    return bits.view(np.float64)


def escape_count(block: np.ndarray) -> int:
    """The second differences of ``block``'s bits outside [-127, 127], in Python integers."""
    count = previous = previous_difference = 0
    for bits in block.view(np.uint64).tolist():
        difference = (bits - previous) % 2**64
        second = (difference - previous_difference + 2**63) % 2**64 - 2**63
        count += not -127 <= second <= 127
        previous, previous_difference = bits, difference
    return count


def coded_columns(cell) -> dict:
    """The columns of a cell, generated or read by :func:`read_cell`, that are still coded."""
    return {name: column for name, column in cell.cycle_data.columns._columns.items()
            if isinstance(column, container.Coded)}


class TestSecondDifferenceBlocks:
    """A writer that does not deflate stores a 1-D float64 block as int8
    second differences of its bits, with escapes, when they take fewer bytes
    than the block; it reads back bit for bit, as a read-only array of its
    own, and a cell decodes such a column the first time it is read."""

    @settings(max_examples=200, deadline=None)
    @given(block=coded_blocks(), ints=st.lists(st.integers(-2**31, 2**31 - 1), max_size=8),
           fill=st.sampled_from(SPECIAL_BITS), deflate=st.booleans())
    def test_round_trip_is_bit_exact(self, tmp_path_factory, block, ints, fill, deflate):
        blocks = [("f", block), ("i", np.array(ints, dtype=np.int32)),
                  ("r", np.full(3, np.uint64(fill)).view(np.float64)), ("one", block[:1]),
                  ("none", block[:0]), ("m", TestDeltaBlocks.SMOOTH[:, :8])]
        path = write_container(tmp_path_factory.mktemp("coded") / "x.bin", b"TST1", {}, blocks,
                               deflate=deflate)
        for mapped in (False, True):
            header, back = read_file(path, CheckpointError, lambda data: parse_container(
                data, b"TST1", CheckpointError), mapped=mapped)
            for name, arr in blocks:
                assert back[name].shape == arr.shape and not back[name].flags.writeable, name
                assert back[name].dtype == (np.int32 if name == "i" else np.float64), name
                assert np.array_equal(as_bits(back[name]), as_bits(arr)), name
        specs = {spec["name"]: spec for spec in header["blocks"]}
        for name in ("f", "one"):
            arr = dict(blocks)[name]
            bits = arr.view(np.uint64)
            repeat = arr.size >= 2 and (bits == bits[0]).all()
            escapes = escape_count(arr)
            coded = not deflate and not repeat and arr.size and arr.size + 8 * escapes < arr.nbytes
            assert ("escapes" in specs[name]) == bool(coded), name
            if coded:
                assert specs[name] == {"name": name, "shape": [arr.size], "escapes": escapes}
                assert back[name].flags.owndata
        assert not any("escapes" in specs[name] for name in ("i", "r", "none", "m"))
        if not deflate:
            assert path.stat().st_size == 8 + struct.unpack_from("<I", path.read_bytes(), 4)[0] + sum(
                block_size(spec) for spec in header["blocks"])

    @pytest.mark.parametrize("second, escapes", [
        ([0, -127, 127, 0, 0, 0, 0, 0], 0), ([5, -128, 0, 0, 0, 0, 0, 0], 1),
        ([5, 128, 0, 0, 0, 0, 0, 0], 1), ([0, -2**63, 2**63 - 1, 0, 0, 0, 0, 0], 2)])
    def test_residuals_at_their_limits(self, tmp_path, second, escapes):
        # -128 is the escape, so it is stored as one, as are 128 and beyond
        bits = np.cumsum(np.cumsum(np.array(second, dtype=np.int64).view(np.uint64),
                                   dtype=np.uint64), dtype=np.uint64)
        block = bits.view(np.float64)
        path = write_container(tmp_path / "x.bin", b"TST1", {}, [("x", block)])
        header, back = parse_container(path.read_bytes(), b"TST1", CheckpointError)
        assert header["blocks"] == [{"name": "x", "shape": [8], "escapes": escapes}]
        assert back["x"].view(np.uint64).tolist() == bits.tolist()

    def test_a_block_is_coded_when_it_takes_fewer_bytes_than_plain(self, tmp_path):
        # 6 escapes take 8 + 48 = 56 bytes of 8 elements' 64; 7 take 64, a tie plain wins
        second = np.zeros(8, dtype=np.uint64)
        second[:6] = [2**40, 2**41, 2**42, 2**43, 2**44, 2**45]
        fewer = np.cumsum(np.cumsum(second, dtype=np.uint64), dtype=np.uint64).view(np.float64)
        second[6] = 2**46
        tie = np.cumsum(np.cumsum(second, dtype=np.uint64), dtype=np.uint64).view(np.float64)
        path = write_container(tmp_path / "x.bin", b"TST1", {}, [
            ("fewer", fewer), ("tie", tie), ("zero", np.zeros(1)), ("empty", np.zeros(0))])
        header, back = parse_container(path.read_bytes(), b"TST1", CheckpointError)
        assert [escape_count(fewer), escape_count(tie)] == [6, 7]
        assert back["fewer"].tobytes() == fewer.tobytes() and back["tie"].tobytes() == tie.tobytes()
        assert back["zero"].tolist() == [0.0] and back["empty"].size == 0
        assert header["blocks"] == [{"name": "fewer", "shape": [8], "escapes": 6},
                                    {"name": "tie", "shape": [8]},
                                    {"name": "zero", "shape": [1], "escapes": 0},
                                    {"name": "empty", "shape": [0]}]
        smooth = np.linspace(3.0, 4.0, 64)
        ramp = np.r_[smooth[:40], smooth[40:] + 1.0]  # one step: two escapes
        path = write_container(tmp_path / "y.bin", b"TST1", {}, [("x", ramp)])
        header, back = parse_container(path.read_bytes(), b"TST1", CheckpointError)
        assert header["blocks"][0]["escapes"] == escape_count(ramp) <= 24
        assert back["x"].tobytes() == ramp.tobytes()

    def test_a_coded_block_spanning_pages_reads_from_a_mapping(self, tmp_path):
        # 30,000 residuals span several whole pages, which decoding returns
        block = np.linspace(2.0, 3.9, 30000)
        after = np.linspace(0.0, 1.0, 5000)
        path = write_container(tmp_path / "x.bin", b"TST1", {}, [("x", block), ("after", after)])
        for _ in range(2):
            header, back = read_file(path, CheckpointError, lambda data: parse_container(
                data, b"TST1", CheckpointError), mapped=True)
            assert "escapes" in header["blocks"][0]
            assert back["x"].tobytes() == block.tobytes()
            assert back["after"].tobytes() == after.tobytes()

    def coded_cell(self, tmp_path, edit=lambda spec: None, escape=False, cut=0):
        """A cell file whose ``current_in_A`` block's spec ``edit`` changes in
        place, its first residual that is not an escape made one if
        ``escape``, and the file cut ``cut`` bytes into the block."""
        path = write_cell(make_cell("CODED"), tmp_path)
        data = path.read_bytes()
        (length,) = struct.unpack_from("<I", data, 4)
        header = json.loads(data[8:8 + length])
        offset = 8 + length
        for spec in header["blocks"]:
            if spec["name"] == "current_in_A":
                break
            offset += block_size(spec)
        assert spec == {"name": "current_in_A", "shape": [36], "escapes": 12}
        end = offset + block_size(spec)
        body = bytearray(data[offset:end])
        if escape:
            body[next(i for i, b in enumerate(body) if b != 0x80)] = 0x80
        edit(spec)
        payload = json.dumps(header).encode()
        rest = data[end:] if not cut else b""
        path.write_bytes(data[:4] + struct.pack("<I", len(payload)) + payload + data[8 + length:offset]
                         + bytes(body[:cut or None]) + rest)
        return path

    @pytest.mark.parametrize("edit, escape, message", [
        (lambda s: s.update(escapes=11), None,
         "block 'current_in_A': 12 residuals are escapes, its spec declares 11"),
        (lambda s: s.update(escapes=13), None,
         "block 'current_in_A': 12 residuals are escapes, its spec declares 13"),
        (lambda s: None, True, "block 'current_in_A': 13 residuals are escapes, its spec declares 12"),
        (lambda s: s.update(shape=[2, 18]), None,
         "blocks[6]: escapes must count from 0 to the length of a 1-D block without repeat, dtype "
         "or delta; got escapes 12, shape [2, 18], keys ['escapes', 'name', 'shape']"),
        (lambda s: s.update(shape=[]), None, "got escapes 12, shape [], keys"),
        (lambda s: s.update(escapes=-1), None, "got escapes -1, shape [36]"),
        (lambda s: s.update(escapes=37), None, "got escapes 37, shape [36]"),
        (lambda s: s.update(escapes=True), None, "got escapes True,"),
        (lambda s: s.update(escapes=12.0), None, "got escapes 12.0,"),
        (lambda s: s.update(escapes="12"), None, "got escapes '12',"),
        (lambda s: s.update(escapes=None), None, "got escapes None,"),
        (lambda s: s.update(repeat=True), None, "keys ['escapes', 'name', 'repeat', 'shape']"),
        (lambda s: s.update(repeat=False), None, "keys ['escapes', 'name', 'repeat', 'shape']"),
        (lambda s: s.update(dtype="<f8"), None, "keys ['dtype', 'escapes', 'name', 'shape']"),
        (lambda s: s.update(dtype="|u1"), None, "keys ['dtype', 'escapes', 'name', 'shape']"),
        (lambda s: s.update(dtype="<u8", delta=0, shape=[2, 18]), None,
         "keys ['delta', 'dtype', 'escapes', 'name', 'shape']"),
        (lambda s: s.update(delta=0), None, "dtype '<u8' and a delta of 0 or 1 go together"),
        (lambda s: s.update(lengths="|u1"), None, "blocks[6]: unknown key 'lengths'"),
        (lambda s: s.update(runs=6), None,
         "cell file with run blocks from an older cellforge; regenerate or preprocess it again"),
    ], ids=["fewer-escapes", "more-escapes", "extra-escape-residual", "two-dimensional",
            "zero-dimensional", "negative", "more-than-n", "bool", "float", "string", "null",
            "with-repeat", "with-repeat-false", "with-dtype", "with-narrow-dtype", "with-delta",
            "delta-on-floats", "with-lengths", "with-runs"])
    def test_a_malformed_coded_block_is_one_line_naming_the_file(self, tmp_path, edit, escape,
                                                                 message):
        path = self.coded_cell(tmp_path, edit, escape)
        with pytest.raises(SchemaError) as info:
            read_cell(path)
        assert str(info.value).startswith(f"{path}: ") and message in str(info.value)
        assert "\n" not in str(info.value)

    def test_a_run_block_in_another_container_is_an_unknown_key(self):
        header = json.dumps({"blocks": [{"name": "x", "shape": [2], "runs": 1, "lengths": "|u1"}]})
        data = b"TST1" + struct.pack("<I", len(header)) + header.encode() + bytes(9)
        with pytest.raises(CheckpointError, match=r"^blocks\[0\]: unknown key 'lengths', 'runs'$"):
            parse_container(data, b"TST1", CheckpointError)

    @pytest.mark.parametrize("cut", [1, 35, 36, 131])
    def test_a_truncated_coded_block_is_one_line_naming_the_file(self, tmp_path, cut):
        path = self.coded_cell(tmp_path, cut=cut)
        with pytest.raises(SchemaError) as info:
            read_cell(path)
        assert str(info.value) == f"{path}: truncated block 'current_in_A'"

    def test_reading_a_cell_decodes_nothing(self, quickstart_corpus, monkeypatch):
        monkeypatch.setattr(container.Coded, "decode",
                            lambda self: pytest.fail("a block was decoded"))
        cells = load_cells(quickstart_corpus.directory)
        assert [len(c.cycle_data) for c in cells] == [len(c.cycle_data) for c in quickstart_corpus.generated]
        assert all(len(coded_columns(cell)) == 5 for cell in cells)
        assert repr(cells[0].cycle_data).startswith(f"CycleData({len(cells[0].cycle_data)} cycles")

    def test_columns_decode_for_each_read_and_a_cycle_view_keeps(self, quickstart_corpus, monkeypatch):
        # the reference, whose generated columns are coded too, is decoded before decodes count
        reference = plain_copy(quickstart_corpus.generated[0])
        expected = reference.cycle_data.columns
        decoded = []
        monkeypatch.setattr(container.Coded, "decode",
                            lambda self, decode=container.Coded.decode: decoded.append(self) or decode(self))
        path = quickstart_corpus.directory / "SYN_0000.cfc"
        cell = read_cell(path)
        coded = coded_columns(cell)
        assert decoded == []
        # columns[name] decodes a coded column for that read alone, and the cell keeps nothing
        voltage = cell.cycle_data.columns["voltage_in_V"]
        assert decoded == [coded["voltage_in_V"]] and voltage.tobytes() == expected["voltage_in_V"].tobytes()
        assert cell.cycle_data.columns["voltage_in_V"] is not voltage
        assert decoded == [coded["voltage_in_V"]] * 2 and coded_columns(cell) == coded
        assert "time_in_s" in cell.cycle_data.columns and len(decoded) == 2
        # a cycle view decodes a column when one of its signals reads it, and the cell keeps it
        view = cell.cycle_data[3]
        assert len(decoded) == 2
        current = view.current_in_A
        assert decoded[2:] == [coded["current_in_A"]] and view.current_in_A is current
        offsets = cell.cycle_data.offsets["current_in_A"]
        assert current.tobytes() == expected["current_in_A"][offsets[3] : offsets[4]].tobytes()
        assert "current_in_A" not in coded_columns(cell)
        kept = cell.cycle_data.columns["current_in_A"]
        assert cell.cycle_data.columns["current_in_A"] is kept and np.shares_memory(kept, current)
        assert np.shares_memory(cell.cycle_data[4].current_in_A, kept) and len(decoded) == 3
        assert view == reference.cycle_data[3]  # == reads every signal
        assert {id(block) for block in decoded} == {id(block) for block in coded.values()}
        assert len(decoded) == 2 + len(coded) and coded_columns(cell) == {}  # voltage twice before
        # the labels decode the discharge capacity alone, once, and leave every column coded
        cell = read_cell(path)
        coded, decoded[:] = coded_columns(cell), []
        soh_per_cycle(cell)
        assert decoded == [coded["discharge_capacity_in_Ah"]]
        assert coded_columns(cell) == coded and len(coded) == 5

    def test_maxima_decodes_the_prefix_it_reduces_and_keeps_nothing(self, quickstart_corpus, monkeypatch):
        reference = plain_copy(quickstart_corpus.generated[1])
        decoded = []
        monkeypatch.setattr(container.Coded, "decode",
                            lambda self, decode=container.Coded.decode: decoded.append(self.size) or decode(self))
        cell = read_cell(quickstart_corpus.directory / "SYN_0001.cfc")
        offsets = cell.cycle_data.offsets["time_in_s"]
        assert soh_per_cycle(cell).tobytes() == soh_per_cycle(reference).tobytes()
        got = cell.cycle_data.maxima("charge_capacity_in_Ah", 5, 20)
        assert got.tobytes() == reference.cycle_data.maxima("charge_capacity_in_Ah", 5, 20).tobytes()
        assert decoded == [offsets[-1], offsets[20]]
        assert set(coded_columns(cell)) == set(battery_data._CYCLE_SEQ_FIELDS)
        # a column that a cycle view decoded, and the cell kept, is reduced as it is
        cell.cycle_data[0].discharge_capacity_in_Ah
        assert soh_per_cycle(cell).tobytes() == soh_per_cycle(reference).tobytes()
        assert decoded == [offsets[-1], offsets[20], offsets[-1]]
        assert "discharge_capacity_in_Ah" not in coded_columns(cell)

    # what is done with each loaded cell: label it, write it to another directory, pickle it
    USES = {
        "label": lambda cell, elsewhere: soh_per_cycle(cell),
        "write": write_cell,
        "pickle": lambda cell, elsewhere: pickle.dumps(cell),
    }

    @pytest.mark.parametrize("use", USES.values(), ids=USES)
    def test_a_read_leaves_no_pages_of_its_file_resident(self, quickstart_corpus, tmp_path, use):
        # checking each block's escapes reads every residual, and writing or pickling a cell
        # copies them: over the ten files, 6,228 KB stayed resident once the cells were read and
        # labelled, 7,400 KB once they were written elsewhere and 7,880 KB once pickled
        smaps = Path("/proc/self/smaps")
        if not smaps.is_file():
            pytest.skip("needs /proc/self/smaps")
        read, elsewhere = tmp_path / "read", tmp_path / "elsewhere"
        read.mkdir()
        elsewhere.mkdir()
        for path in quickstart_corpus.directory.iterdir():
            shutil.copy(path, read)
        cells = load_cells(read)
        for cell in cells:
            use(cell, elsewhere)
        rss, mapped = {}, None
        for line in smaps.read_text().splitlines():
            fields = line.split()
            if re.fullmatch(r"[0-9a-f]+-[0-9a-f]+", fields[0]):  # a mapping's first line
                mapped = Path(" ".join(fields[5:])) if len(fields) > 5 else None
            elif fields[0] == "Rss:" and mapped and mapped.parent == read:
                rss[mapped.name] = int(fields[1])  # in KiB
        assert sorted(rss) == sorted(f"{cell.cell_id}.cfc" for cell in cells) and len(cells) == 10
        assert max(rss.values()) <= 128, rss

    # the reads of a whole cell, each given the cell and a directory to write to: every read
    # but a cycle view's decodes a coded column for that read alone
    READS = {
        "columns": lambda cell, out: [cell.cycle_data.columns[name] for name in cell.cycle_data.columns],
        "maxima": lambda cell, out: [cell.cycle_data.maxima(name) for name in battery_data._CYCLE_SEQ_FIELDS],
        "validate": lambda cell, out: validate(cell),
        "equality": lambda cell, out: cell == plain_copy(cell),
        "write": write_cell,
        "pickle": lambda cell, out: pickle.dumps(cell),
        "degradation_plot": lambda cell, out: degradation_series([cell]),
        "voltage_curve_plot": lambda cell, out: voltage_curve_series(cell),
    }

    @staticmethod
    def small_coded_cell():
        """A generated cell of 16-point cycles whose five sampled signals are all coded."""
        return generate_synthetic(SynthSpec(
            n_cells=1, cycle_life_mean=30.0, cycle_life_std=5.0, points_per_cycle=16, seed=3))[0]

    @pytest.mark.parametrize("read", READS.values(), ids=READS)
    @pytest.mark.parametrize("loaded", [False, True], ids=["generated", "loaded"])
    def test_every_read_but_a_cycle_view_leaves_the_cell_coded(self, tmp_path, read, loaded):
        cell = self.small_coded_cell()
        if loaded:
            cell = read_cell(write_cell(cell, tmp_path))
        coded = coded_columns(cell)
        assert set(coded) == set(battery_data._CYCLE_SEQ_FIELDS)
        out = tmp_path / "out"
        out.mkdir()
        read(cell, out)
        assert coded_columns(cell) == coded

    @pytest.mark.parametrize("loaded", [False, True], ids=["generated", "loaded"])
    def test_a_pass_over_the_cycle_views_decodes_each_signal_it_reads_once(self, tmp_path, monkeypatch,
                                                                           loaded):
        cell = self.small_coded_cell()
        reference = plain_copy(cell)
        if loaded:
            cell = read_cell(write_cell(cell, tmp_path))
        coded, decoded = coded_columns(cell), []
        monkeypatch.setattr(container.Coded, "decode",
                            lambda self, decode=container.Coded.decode: decoded.append(self) or decode(self))
        for cycle, expected in zip(cell.cycle_data, reference.cycle_data):
            assert cycle.voltage_in_V.tobytes() == expected.voltage_in_V.tobytes()
            assert cycle.current_in_A.tobytes() == expected.current_in_A.tobytes()
            cycle.voltage_in_V
        assert decoded == [coded["voltage_in_V"], coded["current_in_A"]]
        assert set(coded_columns(cell)) == set(coded) - {"voltage_in_V", "current_in_A"}
        for cycle in cell.cycle_data:  # a second pass reads what the cell kept
            cycle.voltage_in_V
        assert len(decoded) == 2

    @pytest.mark.parametrize("trip", [lambda c: pickle.loads(pickle.dumps(c)), copy.copy, copy.deepcopy],
                             ids=["pickle", "copy", "deepcopy"])
    def test_a_view_of_coded_columns_is_a_record_to_pickle_copy_and_compare(self, quickstart_corpus, trip):
        cell = read_cell(quickstart_corpus.directory / "SYN_0002.cfc")
        assert coded_columns(cell)
        view, source = cell.cycle_data[5], quickstart_corpus.generated[2].cycle_data[5]
        built = CycleRecord(**{f.name: getattr(source, f.name) for f in dataclasses.fields(CycleRecord)})
        back = trip(view)  # before any signal of the view is read
        assert type(view) is type(back) is CycleRecord
        assert back == built and built == back and view == built and built == view
        assert repr(back) == repr(built) == repr(cell.cycle_data[5])
        assert not any(getattr(back, name).flags.writeable for name in battery_data._CYCLE_SEQ_FIELDS)
        renumbered = dataclasses.replace(cell.cycle_data[5], cycle_number=7)
        assert renumbered == dataclasses.replace(built, cycle_number=7)

    @pytest.mark.parametrize("trip", [lambda c: pickle.loads(pickle.dumps(c)), copy.copy, copy.deepcopy],
                             ids=["pickle", "copy", "deepcopy"])
    def test_a_lazily_read_cell_stays_coded_to_pickle_copy_and_compare(self, quickstart_corpus, trip):
        path = quickstart_corpus.directory / "SYN_0001.cfc"
        cell = read_cell(path)
        coded = coded_columns(cell)
        assert len(coded) == 5
        back = trip(cell)
        assert set(coded_columns(back)) == set(coded) and coded_columns(cell) == coded
        temperature = back.cycle_data.columns["temperature_in_C"]
        assert temperature.strides == (0,) and not temperature.flags.writeable  # one value still
        assert back == read_cell(path) == quickstart_corpus.generated[1]
        assert not any(c.flags.writeable for c in back.cycle_data.columns.values())
        assert not any(c.flags.writeable for c in cell.cycle_data.columns.values())

    def test_a_pickled_cell_is_the_size_of_its_file(self, quickstart_corpus, tmp_path):
        # the largest quickstart cell pickled as 3.6 times its file while a copy held decoded arrays
        path = max(quickstart_corpus.directory.iterdir(), key=lambda p: p.stat().st_size)
        generated = next(c for c in quickstart_corpus.generated if path.stem == c.cell_id)
        for cell in (generated, read_cell(path)):
            for _ in range(2):  # as it is, then with every column read, which keeps nothing
                data = pickle.dumps(cell)
                assert len(data) <= 1.05 * path.stat().st_size
                back = pickle.loads(data)
                assert back == cell and write_cell(back, tmp_path).read_bytes() == path.read_bytes()
                dict(cell.cycle_data.columns)

    @staticmethod
    def coded_names(path) -> set:
        data = Path(path).read_bytes()
        header = json.loads(data[8:8 + struct.unpack_from("<I", data, 4)[0]])
        return {b["name"] for b in header["blocks"] if "escapes" in b}

    def test_a_cell_in_the_half_size_layout_reads_bit_identically(self, quickstart_corpus, tmp_path):
        # the layout of writers that coded a signal only within half its bytes:
        # a quickstart cell's charge capacity plain, every other signal coded
        cell = quickstart_corpus.generated[0]
        path = store_plain(write_cell(cell, tmp_path), "charge_capacity_in_Ah")
        assert self.coded_names(path) == {"voltage_in_V", "current_in_A", "discharge_capacity_in_Ah",
                                          "time_in_s"}
        back = read_cell(path)
        assert isinstance(root_buffer(back.cycle_data.columns["charge_capacity_in_Ah"]), mmap.mmap)
        assert back == cell and validate(back) == []
        for name in TestArraySignals.SIGNALS:
            assert np.array_equal(as_bits(back.cycle_data.columns[name]),
                                  as_bits(cell.cycle_data.columns[name])), name
        # a smooth 16-point cell coded only its voltage: byte for byte such a writer's file
        smooth = generate_synthetic(SynthSpec(
            n_cells=1, cycle_life_mean=30.0, cycle_life_std=5.0, points_per_cycle=16, seed=3,
        ))[0]
        path = store_plain(write_cell(smooth, tmp_path), "current_in_A", "charge_capacity_in_Ah",
                           "discharge_capacity_in_Ah", "time_in_s")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "f3e9c573a2d4c8ba17876716e19cd3db15e68641a7b83028e9800a54715ccfbd")
        back = read_cell(path)
        assert back == smooth and validate(back) == []

    def test_a_16_point_cell_codes_every_mandatory_signal(self, tmp_path):
        cells = generate_synthetic(SynthSpec(
            n_cells=2, cycle_life_mean=30.0, cycle_life_std=5.0, points_per_cycle=16, seed=3,
        ))
        for cell in cells:
            path = write_cell(cell, tmp_path)
            assert self.coded_names(path) == set(battery_data._CYCLE_SEQ_FIELDS)
            back = read_cell(path)
            assert set(coded_columns(back)) == set(battery_data._CYCLE_SEQ_FIELDS)
            for name in TestArraySignals.SIGNALS:
                assert np.array_equal(as_bits(back.cycle_data.columns[name]),
                                      as_bits(cell.cycle_data.columns[name])), name
            assert back == cell and validate(back) == []

    def test_the_quickstart_corpus_stays_small(self, quickstart_corpus):
        on_disk = sum(p.stat().st_size for p in quickstart_corpus.directory.iterdir())
        assert on_disk <= 7.7e6, f"{on_disk} bytes"
        for path in quickstart_corpus.directory.iterdir():
            assert self.coded_names(path) == set(battery_data._CYCLE_SEQ_FIELDS), path.name

    def test_model_and_feature_files_read_coded_blocks_as_arrays(self, tmp_path):
        # files cellforge writes deflate, so never code; one written by hand may
        coef = np.linspace(-1.0, 1.0, 64)
        path = write_container(tmp_path / "model.bin", MODEL_MAGIC, {
            "kind": "linear", "hyperparameters": {}, "metadata": {"n_features": 64}},
            [("coef", coef), ("intercept", np.array([0.5]))])
        assert "escapes" in read_model_file(path)[0]["blocks"][0]
        model = load_model(path)
        assert type(model.coef_) is np.ndarray and model.coef_.tobytes() == coef.tobytes()
        assert model.predict(np.ones((1, 64))).tolist() == [coef.sum() + 0.5]
        escapes = escape_count(coef)
        data = bytearray(path.read_bytes())
        start = 8 + struct.unpack_from("<I", data, 4)[0]
        data[next(i for i in range(start, start + 64) if data[i] != 0x80)] = 0x80
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError) as info:
            load_model(path)
        assert str(info.value) == (f"{path}: block 'coef': {escapes + 1} residuals are escapes, "
                                   f"its spec declares {escapes}")
        features = write_container(tmp_path / "features_test.bin", FEATURES_MAGIC, {},
                                   [("values", coef)])
        with pytest.raises(CheckpointError) as info:
            read_features(features)
        assert str(info.value) == (f"{features}: expected one 2-D 'values' block, "
                                   "got shapes {'values': (64,)}")


@st.composite
def repeated_blocks(draw):
    """A 1-D float64 block of 0 to 5 elements that all have one bit pattern,
    held as an array of its own or as a stride-0 view of one element."""
    value = np.uint64(draw(st.sampled_from(SPECIAL_BITS) | st.integers(0, 2**64 - 1)))
    n = draw(st.integers(0, 5))
    if draw(st.booleans()):
        return np.broadcast_to(value.view(np.float64), n)
    return np.full(n, value).view(np.float64)


# a block of arbitrary bit patterns, whose second differences almost all escape
escaped_only = st.lists(st.integers(0, 2**64 - 1), max_size=40).map(
    lambda bits: np.array(bits, dtype=np.uint64).view(np.float64))


class TestStoredForm:
    """``stored_form`` gives a 1-D float64 array in the form a file that is
    not deflated stores it, the one rule ``write_container`` also follows; a
    generated cell holds its signals in that form, as a loaded cell does, and
    ``write_cell`` copies a coded block as it is."""

    @staticmethod
    def written(path, block, deflate=False) -> bytes:
        return write_container(path, b"TST1", {}, [("x", block)], deflate=deflate).read_bytes()

    @settings(max_examples=300, deadline=None)
    @given(block=coded_blocks() | repeated_blocks() | escaped_only, cut=st.integers(0, 300))
    def test_the_stored_form_is_the_form_a_file_stores(self, tmp_path_factory, block, cut):
        path = tmp_path_factory.mktemp("form") / "x.bin"
        form = container.stored_form(block)
        data = self.written(path, block)
        spec = container.read_header(data, b"TST1", CheckpointError)[0]["blocks"][0]
        bits = as_bits(block)
        repeat = block.size >= 2 and (bits == bits[0]).all()
        coded = not repeat and block.size and block.size + 8 * escape_count(block) < block.nbytes
        assert isinstance(form, container.Coded) == bool(coded) == ("escapes" in spec)
        if not coded:
            assert form is block
            return
        assert form.shape == block.shape and form.escapes == escape_count(block)
        assert as_bits(form.decode()).tobytes() == bits.tobytes()
        assert container.stored_form(form) is form
        assert self.written(path, form) == data
        assert self.written(path, form, deflate=True) == self.written(path, block, deflate=True)
        back = pickle.loads(pickle.dumps(form))
        assert back.escapes == form.escapes and as_bits(back.decode()).tobytes() == bits.tobytes()
        # a prefix may repeat, or hold too many escapes: its form is still its values' form
        k = min(cut, block.size)
        prefix = form.head(k)
        assert as_bits(prefix.decode()).tobytes() == bits[:k].tobytes()
        assert self.written(path, prefix) == self.written(path, block[:k])
        assert isinstance(container.stored_form(prefix), container.Coded) == isinstance(
            container.stored_form(block[:k]), container.Coded)

    def test_a_generated_corpus_is_held_at_its_file_size(self, quickstart_corpus):
        # 23.0 MB of plain columns were held for the 7.55 MB of its files
        on_disk = sum(p.stat().st_size for p in quickstart_corpus.directory.iterdir())
        gc.collect()
        tracemalloc.start()
        try:
            cells = generate_synthetic(SynthSpec())
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= 1.1 * on_disk, f"{held} bytes held for {on_disk} bytes of files"
        assert cells == quickstart_corpus.generated

    @pytest.mark.parametrize("noise_sigma", [0.0, 0.003])
    def test_a_cell_is_generated_in_little_more_than_its_columns(self, noise_sigma):
        # each signal is coded as soon as it is made: the 1,689-cycle cell peaks at 5.15
        # plain columns, where building all five before coding any peaked at 6.86
        gc.collect()
        tracemalloc.start()
        try:
            cell = synthetic_cell(SynthSpec(noise_sigma=noise_sigma), 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        column = cell.cycle_data.offsets["time_in_s"][-1] * 8
        assert len(cell.cycle_data) >= 1500
        assert peak <= 5.5 * column, f"peak {peak / column:.2f} columns"

    @pytest.mark.parametrize("source", ["generated", "loaded", "head"])
    def test_write_cell_copies_coded_blocks(self, quickstart_corpus, tmp_path, monkeypatch, source):
        cell = synthetic_cell(SynthSpec(), 0)
        if source != "generated":
            cell = read_cell(quickstart_corpus.directory / "SYN_0000.cfc")
        if source == "head":
            cell = cell.head(100)
        coded = coded_columns(cell)
        assert set(coded) == set(battery_data._CYCLE_SEQ_FIELDS)
        assert all(block.escapes for block in coded.values())
        expected = write_cell(plain_copy(cell), tmp_path / "plain.cfc").read_bytes()
        decoded, differenced = [], []
        monkeypatch.setattr(container.Coded, "decode",
                            lambda self, decode=container.Coded.decode: decoded.append(self) or decode(self))
        monkeypatch.setattr(container, "_second_differences",
                            lambda flat, code=container._second_differences: differenced.append(flat.size)
                            or code(flat))
        assert write_cell(cell, tmp_path / "coded.cfc").read_bytes() == expected
        assert sorted(map(id, decoded)) == sorted(map(id, coded.values()))  # once each, to validate
        assert differenced == [len(cell.cycle_data)]  # the resistances alone
        assert coded_columns(cell) == coded


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


def noisy_cells(*cell_ids, seed=3) -> list:
    """Synthetic cells of 16-point cycles whose noisy voltage stays a plain
    block, mapped, as does their one repeated temperature; their other
    signals are coded (see ``CODED``)."""
    cells = generate_synthetic(SynthSpec(n_cells=len(cell_ids), cycle_life_mean=30.0, cycle_life_std=5.0,
                                         points_per_cycle=16, noise_sigma=0.005, seed=seed))
    return [dataclasses.replace(cell, cell_id=cell_id) for cell, cell_id in zip(cells, cell_ids)]


# the columns of noisy_cells() that are second-difference blocks
@st.composite
def escaped_blocks(draw):
    """A 1-D float64 block of 1 to 20,000 elements, long enough to span
    pages: a smooth ramp with some elements replaced by arbitrary bit
    patterns, each of which makes up to three escapes."""
    n = draw(st.integers(1, 20000))
    start, step = draw(st.floats(-1e3, 1e3)), draw(st.floats(-1.0, 1.0))
    bits = (start + step * np.arange(n)).view(np.uint64)
    for i, value in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 2**64 - 1)),
                                  max_size=min(n // 4, 400))):
        bits[i] = value
    return bits.view(np.float64)


class _AdvisedMap(mmap.mmap):
    """A read-only mapping that records the span, () for all of it, of each ``madvise``."""

    def madvise(self, option, *span):
        self.advised.append(span)
        return super().madvise(option, *span)


class TestPrefixDecode:
    """``Coded.head(k)`` is the block of a coded block's first ``k`` values,
    still undecoded: its ``k`` residuals and the escape values of the
    escapes among them, which come first."""

    @settings(max_examples=60, deadline=None)
    @given(block=escaped_blocks(), data=st.data())
    def test_a_prefix_decodes_to_the_first_values(self, tmp_path_factory, block, data):
        path = write_container(tmp_path_factory.mktemp("prefix") / "x.bin", b"TST1", {},
                               [("x", block)])
        raw = path.read_bytes()
        header, offset = container.read_header(raw, b"TST1", CheckpointError)
        assume("escapes" in header["blocks"][0])
        k = data.draw(st.integers(0, block.size), label="k")
        j = data.draw(st.integers(0, k), label="j")
        with open(path, "rb") as fh:
            mapped = _AdvisedMap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        for source in (raw, mapped):
            mapped.advised = []
            coded = container.parse_blocks(source, header, offset, CheckpointError)["x"]
            prefix = coded.head(k)
            assert prefix.shape == (k,) and prefix.escapes == escape_count(block[:k])
            assert as_bits(prefix.decode()).tobytes() == as_bits(block[:k]).tobytes()
            # parsing, then decoding, each take every page of a mapping out of memory
            assert mapped.advised == ([(), ()] if source is mapped else [])
            assert as_bits(prefix.head(j).decode()).tobytes() == as_bits(block[:j]).tobytes()
            assert as_bits(coded.decode()).tobytes() == as_bits(block).tobytes()  # the whole block after

    def test_parsing_and_decoding_a_long_prefix_each_drop_the_whole_mapping(self, tmp_path):
        block = np.linspace(2.0, 3.9, 30000)
        block[[100, 20000, 29000]] = [1e300, -5.0, 7.0]  # three escapes each, beside the first two
        path = write_container(tmp_path / "x.bin", b"TST1", {}, [("x", block)])
        header, offset = container.read_header(path.read_bytes(), b"TST1", CheckpointError)
        with open(path, "rb") as fh:
            mapped = _AdvisedMap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        mapped.advised = []
        coded = container.parse_blocks(mapped, header, offset, CheckpointError)["x"]
        assert mapped.advised == [()]
        assert coded.escapes == escape_count(block) == 11 and coded.head(25000).escapes == 8
        assert coded.head(25000).decode().tobytes() == block[:25000].tobytes()
        assert mapped.advised == [(), ()]
        # the pages come back from the file when read again
        assert coded.decode().tobytes() == block.tobytes() and mapped.advised == [(), (), ()]


class TestHead:
    """``cell.head(h)`` is the cell with its first ``h`` cycles alone, its
    columns cut as views and its coded columns as coded prefixes."""

    def test_a_read_cell_keeps_its_columns_lazy(self, quickstart_corpus, monkeypatch):
        generated = plain_copy(quickstart_corpus.generated[0])  # coded too, so decoded before counting
        decoded = []
        monkeypatch.setattr(container.Coded, "decode",
                            lambda self, decode=container.Coded.decode: decoded.append(self.size) or decode(self))
        cell = read_cell(quickstart_corpus.directory / "SYN_0000.cfc")
        n, offsets = len(cell.cycle_data), cell.cycle_data.offsets["time_in_s"]
        cell.cycle_data[0].discharge_capacity_in_Ah  # a cycle view decodes it whole, and the cell keeps it
        capacity = cell.cycle_data.columns["discharge_capacity_in_Ah"]
        assert decoded == [offsets[-1]]
        head = cell.head(100)
        assert decoded == [offsets[-1]] and len(head.cycle_data) == 100
        assert head.cycle_data.columns["discharge_capacity_in_Ah"].base is capacity
        assert set(coded_columns(head)) == set(coded_columns(cell)) == set(CODED) - {
            "discharge_capacity_in_Ah"} | {"voltage_in_V"}
        assert all(column.size == offsets[100] for column in coded_columns(head).values())
        assert head == generated.head(100) == dataclasses.replace(
            generated, cycle_data=generated.cycle_data[:100])  # == decodes the prefixes alone
        assert decoded == [offsets[-1]] + [offsets[100]] * 4
        assert cell.head(n) is cell and cell.head(n + 1) is cell and generated.head(n) is generated
        assert validate(head) == []

    @pytest.mark.parametrize("h", [0, 1, 2, 3])
    def test_per_cycle_facts_are_cut_with_the_columns(self, tmp_path, h):
        cycles = (linear_cycle(1, temperature=25.0), linear_cycle(2, internal_resistance=0.02),
                  dataclasses.replace(linear_cycle(3, temperature=26.0), extra={"note": "x"}),
                  linear_cycle(4, internal_resistance=0.03))
        cell = dataclasses.replace(make_cell("MIX"), cycle_data=cycles)
        for source in (cell, read_cell(write_cell(cell, tmp_path))):
            head = source.head(h)
            assert head == dataclasses.replace(cell, cycle_data=cycles[:h])
            assert head.cycle_data.extra == ({2: {"note": "x"}} if h > 2 else {})
            assert list(head.cycle_data) == list(cycles[:h])


CODED = ("current_in_A", "charge_capacity_in_Ah", "discharge_capacity_in_Ah", "time_in_s")


class TestColumns:
    """Cells hold one column per signal; ``cycle_data`` builds views on demand."""

    def test_read_cell_views_share_the_file_buffer(self, tmp_path):
        (cell,) = noisy_cells("ZC")
        back = read_cell(write_cell(cell, tmp_path))
        first, second = back.cycle_data[0], back.cycle_data[1]
        for name in TestArraySignals.SIGNALS:
            signal = getattr(first, name)  # which decodes a coded column, and the cell keeps it
            column = back.cycle_data.columns[name]
            assert np.shares_memory(signal, column)
            assert np.shares_memory(getattr(second, name), column)
            if name in CODED:
                assert column.flags.owndata
            else:
                assert isinstance(root_buffer(column), mmap.mmap)
                assert memoryview(root_buffer(column)).readonly
            assert not column.flags.writeable
            assert not getattr(first, name).flags.writeable
        assert root_buffer(back.cycle_data.columns["voltage_in_V"]) is root_buffer(
            back.cycle_data.columns["temperature_in_C"])

    def test_past_the_mapping_cap_a_cell_is_read_as_bytes(self, tmp_path, monkeypatch):
        gc.collect()
        # room for exactly one more mapping
        limit = 2 * (len(battery_data._MAPPINGS) + 1)
        monkeypatch.setattr(resource, "getrlimit", lambda which: (limit, resource.RLIM_INFINITY))
        cells = noisy_cells("MAPPED", "READ")
        mapped, read = [read_cell(write_cell(cell, tmp_path)) for cell in cells]
        assert isinstance(root_buffer(mapped.cycle_data.columns["voltage_in_V"]), mmap.mmap)
        assert read == cells[1]
        for name in TestArraySignals.SIGNALS:
            signal = getattr(read.cycle_data[0], name)  # which decodes a coded column, and the cell keeps it
            column = read.cycle_data.columns[name]
            if name in CODED:
                assert column.flags.owndata
            else:
                assert isinstance(root_buffer(column), bytes)
            assert np.shares_memory(signal, column)
            assert not column.flags.writeable

    def test_rewriting_a_mapped_cell_keeps_the_loaded_record(self, tmp_path):
        (cell,), (rewritten,) = noisy_cells("RW"), noisy_cells("RW", seed=4)
        path = write_cell(cell, tmp_path)
        back = read_cell(path)
        coded = coded_columns(back)
        assert isinstance(root_buffer(back.cycle_data.columns["voltage_in_V"]), mmap.mmap)
        assert set(coded) == set(CODED)
        # written back onto its own path, a loaded cell gives the same bytes and stays coded
        written = path.read_bytes()
        write_cell(back, path)
        assert path.read_bytes() == written and coded_columns(back) == coded
        write_cell(rewritten, path)
        for _ in range(2):  # each pass decodes the bytes of the replaced file anew
            assert validate(back) == []
            assert back == cell and back != rewritten
        assert coded_columns(back) == coded
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

    def test_checking_writing_and_pickling_a_loaded_corpus_keeps_it_coded(self, quickstart_corpus, tmp_path):
        """validate, ==, write_cell and a pickle round trip of each loaded cell
        decode its coded columns for that pass alone: the peak stays within
        the corpus bytes plus one cell's decoded columns (5% slack, as for
        loading), where keeping the decodes would hold every cell's."""
        on_disk = sum(p.stat().st_size for p in quickstart_corpus.directory.iterdir())
        one_cell = max(sum(cell.cycle_data.columns[name].nbytes for name in battery_data._CYCLE_SEQ_FIELDS)
                       for cell in quickstart_corpus.generated)

        def round_trip(cell):  # out of band, so pickle adds no copies of its own to the columns
            buffers = []
            data = pickle.dumps(cell, protocol=5, buffer_callback=buffers.append)
            return pickle.loads(data, buffers=buffers)

        gc.collect()
        tracemalloc.start()
        try:
            cells = load_cells(quickstart_corpus.directory)
            coded = [coded_columns(cell) for cell in cells]
            for cell, generated in zip(cells, quickstart_corpus.generated, strict=True):
                assert validate(cell) == []
                assert cell == generated
                write_cell(cell, tmp_path)
                assert round_trip(cell) == generated
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * on_disk + one_cell, (
            f"peak {peak} bytes for {on_disk} bytes on disk and {one_cell} bytes of one cell's columns")
        assert sum(map(len, coded)) == 5 * len(cells)
        assert [coded_columns(cell) for cell in cells] == coded  # the same blocks, still coded

    def test_a_constant_column_costs_no_pages(self, tmp_path):
        generated = generate_synthetic(SynthSpec(n_cells=1, cycle_life_mean=60.0, cycle_life_std=5.0,
                                                 points_per_cycle=16, noise_sigma=0.005, seed=3))[0]
        mapped = read_cell(write_cell(generated, tmp_path))
        for cell in (generated, mapped):
            temperature = cell.cycle_data.columns["temperature_in_C"]
            assert temperature.strides == (0,) and temperature.size == 16 * len(cell.cycle_data)
            assert (temperature == 30.0).all() and not temperature.flags.writeable
            assert cell.cycle_data[5].temperature_in_C.strides == (0,)
        column = mapped.cycle_data.columns["temperature_in_C"]
        assert isinstance(root_buffer(column), mmap.mmap)
        assert root_buffer(column) is root_buffer(mapped.cycle_data.columns["voltage_in_V"])
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

    @pytest.mark.parametrize("form", ["generated", "loaded", "head", "pickled", "gathered"])
    def test_the_sampled_signals_share_one_offsets_array(self, tmp_path, form):
        # the cycles' point counts, as the file's points block holds them, bound
        # every sampled signal; temperature's bounds skip the cycles without one
        spec = SynthSpec(n_cells=1, cycle_life_mean=60.0, cycle_life_std=5.0, points_per_cycle=16, seed=3)
        cell = {
            "generated": lambda: generate_synthetic(spec)[0],
            "loaded": lambda: read_cell(write_cell(generate_synthetic(spec)[0], tmp_path)),
            "head": lambda: generate_synthetic(spec)[0].head(7),
            "pickled": lambda: pickle.loads(pickle.dumps(generate_synthetic(spec)[0])),
            "gathered": lambda: dataclasses.replace(make_cell("G"), cycle_data=(
                linear_cycle(1, temperature=25.0), linear_cycle(2, n_dis=5), linear_cycle(3, temperature=20.0))),
        }[form]()
        offsets = cell.cycle_data.offsets
        assert len({id(offsets[name]) for name in TestArraySignals.SIGNALS[:5]}) == 1
        points = np.diff(offsets["time_in_s"])
        assert np.diff(offsets["temperature_in_C"]).tolist() == (points * cell.cycle_data.has_temperature).tolist()
        assert not any(a.flags.writeable for a in offsets.values())
        with pytest.raises(TypeError):
            offsets["time_in_s"] = offsets["time_in_s"]

    @pytest.mark.parametrize("offsets", [[0, 2], [1, 3], [0, 4], [0]])
    def test_offsets_must_cover_the_columns(self, offsets):
        columns = {name: np.arange(3.0) for name in TestArraySignals.SIGNALS[:5]}
        with pytest.raises(ValueError, match="offsets"):
            CycleData([1], columns, offsets)

    def test_temperature_values_of_a_cycle_without_temperature_are_refused(self):
        columns = {name: np.arange(6.0) for name in TestArraySignals.SIGNALS}
        offsets = [0, 3, 6]
        with pytest.raises(ValueError, match="^temperature values given for a cycle without a temperature$"):
            CycleData([1, 2], columns, offsets, has_temperature=[True, False])
        assert CycleData([1, 2], columns, offsets, has_temperature=[True, True])[1].temperature_in_C.tolist() == [
            3.0, 4.0, 5.0]

    def test_an_empty_temperature_column_means_no_cycle_has_one(self):
        # the whole-column copy of a cell without temperature built it; it raised
        # "offsets['temperature_in_C'] must rise from 0 to the column's 0 values"
        d = make_cell("NOTEMP", caps=(1.0, 0.9)).cycle_data
        copied = CycleData(d.cycle_number, {n: d.columns[n] for n in d.columns}, d.offsets["time_in_s"])
        assert d.columns["temperature_in_C"].size == 0 and not d.has_temperature.any()
        assert copied == CycleData(d.cycle_number, {n: d.columns[n] for n in TestArraySignals.SIGNALS[:5]},
                                   d.offsets["time_in_s"])
        assert not copied.has_temperature.any()

    @pytest.mark.parametrize("index", [2, -1])
    def test_extra_of_a_cycle_out_of_range_is_refused(self, index):
        columns = {name: np.arange(6.0) for name in TestArraySignals.SIGNALS[:5]}
        with pytest.raises(ValueError, match=re.escape("extra: cycle indices must lie in [0, 2)")):
            CycleData([1, 2], columns, [0, 3, 6], extra={index: {"step": "rest"}})
        assert CycleData([1, 2], columns, [0, 3, 6], extra={1: {"step": "rest"}})[1].extra == {"step": "rest"}


def with_values(path, changes, to=None) -> Path:
    """The cell file at ``path`` written again, to ``to`` if given, through
    ``write_container`` (which checks nothing) with each ``(signal, index,
    value)`` of ``changes`` set in its column; every other block as it was."""
    header, blocks = parse_container(Path(path).read_bytes(), CELL_MAGIC, SchemaError)
    for name, i, value in changes:
        column = blocks[name] = blocks[name].copy()
        column[i] = value
    return write_container(to or path, CELL_MAGIC, header, blocks.items())


class TestOnePassReads:
    """validate and == read a coded column for one pass alone, and find what
    they find in a copy of the cell whose columns are plain arrays."""

    # (signal, cycle, point, value): a non-finite value to set, or a finite step from the point before
    FAULTS = {
        "non_finite": [("current_in_A", 3, 5, np.nan), ("time_in_s", 3, 7, -1.0)],  # a step not reported
        "time": [("time_in_s", 5, 7, -1.0)],
        "capacity": [("discharge_capacity_in_Ah", 7, 12, -10 * CAPACITY_JITTER_TOL),
                     ("charge_capacity_in_Ah", 2, 9, -0.5 * CAPACITY_JITTER_TOL)],  # jitter: not reported
        "infinite": [("charge_capacity_in_Ah", 6, 3, np.inf)],
    }
    FOUND = {
        "non_finite": ["cycle_data[3].current_in_A"],
        "time": ["cycle_data[5].time_in_s"],
        "capacity": ["cycle_data[7].discharge_capacity_in_Ah"],
        "infinite": ["cycle_data[6].charge_capacity_in_Ah"],
    }

    @staticmethod
    def faulty_cell(tmp_path, faults):
        """A cell file whose coded columns hold ``faults``, and the names of those columns."""
        (cell,) = noisy_cells("FAULTY")
        cycles = cell.cycle_data
        changes = []
        for name, cycle, point, value in faults:
            i = cycles.offsets[name][cycle] + point
            changes.append((name, i, cycles.columns[name][i - 1] + value if np.isfinite(value) else value))
        path = with_values(write_cell(cell, tmp_path), changes)
        return path, {name for name, *_ in faults}

    @pytest.mark.parametrize("kinds", [*([kind] for kind in FAULTS), list(FAULTS)],
                             ids=[*FAULTS, "all"])
    def test_validate_of_a_coded_cell_equals_that_of_its_decoded_copy(self, tmp_path, kinds):
        path, names = self.faulty_cell(tmp_path, [f for kind in kinds for f in self.FAULTS[kind]])
        back = read_cell(path)
        coded = coded_columns(back)
        assert names <= set(coded)  # each fault sits in a block stored as second differences
        found = validate(back)
        assert validate(back) == found and coded_columns(back) == coded
        decoded = plain_copy(read_cell(path))
        assert coded_columns(decoded) == {}
        assert validate(decoded) == found == validate_per_cycle(decoded)
        assert paths_of(found) == sorted(found_at for kind in kinds for found_at in self.FOUND[kind])

    # (left, right, whether the cells are equal): the discharge capacity on each side at the
    # fourth point of cycle 2, which is 0.0 in the cell written
    SAMES = {
        "signed_zero": (0.0, -0.0, True),
        "nan": (np.nan, np.nan, False),
        "one_ulp": (0.0, np.nextafter(0.0, 1.0), False),
        "same": (0.0, 0.0, True),
    }

    @pytest.mark.parametrize("left, right, equal", SAMES.values(), ids=SAMES)
    @pytest.mark.parametrize("plain", [False, True], ids=["coded_coded", "coded_plain"])
    def test_equality_of_a_coded_column_is_exact(self, tmp_path, left, right, equal, plain):
        (cell,) = noisy_cells("EQ")
        name = "discharge_capacity_in_Ah"
        i = cell.cycle_data.offsets[name][2] + 3
        assert cell.cycle_data.columns[name][i] == 0.0
        written = write_cell(cell, tmp_path)
        a = read_cell(with_values(written, [(name, i, left)], to=tmp_path / "left.cfc"))
        b = read_cell(with_values(written, [(name, i, right)], to=tmp_path / "right.cfc"))
        assert name in coded_columns(a) and name in coded_columns(b)
        if plain:
            b = plain_copy(b)
            assert coded_columns(b) == {}
        coded = coded_columns(a), coded_columns(b)
        assert (a == b) is (b == a) is (a.cycle_data == b.cycle_data) is equal
        assert (a != b) is (not equal)
        assert (coded_columns(a), coded_columns(b)) == coded


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
    # checked before the point count: a cycle of any length is refused when built for it
    if cyc.temperature_in_C is not None and len(cyc.temperature_in_C) != n:
        out.append(Violation(f"{path}.temperature_in_C", f"length {len(cyc.temperature_in_C)} != {n}"))
    if n < 2:
        out.append(Violation(path, f"sequences must have >= 2 points, got {n}"))
        return
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
def corrupted_cycles(draw):
    cycles = []
    for number in range(1, draw(st.integers(0, 5)) + 1):
        cyc = draw(cycle_strategy(number=number))
        for kind in draw(st.lists(st.sampled_from(CORRUPTIONS), max_size=3)):
            cyc = corrupt(draw, cyc, kind)
        cycles.append(cyc)
    return tuple(cycles)


def _unbuildable(violation):
    """Whether ``violation`` is of a kind that refuses a cell when it is built:
    a cycle whose signals, temperature included, differ in length."""
    return (violation.message.startswith("mandatory sequences differ in length")
            or (violation.path.endswith(".temperature_in_C") and violation.message.startswith("length ")))


@settings(max_examples=300, deadline=None)
@given(cycles=corrupted_cycles())
def test_validate_matches_the_per_cycle_checks(cycles):
    # the oracle reads the cycles as given; a cell of cycles that cannot share
    # one offsets array is refused when built, with exactly its violations of that kind
    unbuilt = copy.copy(make_cell("BAD"))
    object.__setattr__(unbuilt, "cycle_data", cycles)
    expected = validate_per_cycle(unbuilt)
    refused = [v for v in expected if _unbuildable(v)]
    if refused:
        with pytest.raises(ValidationError) as error:
            dataclasses.replace(make_cell("BAD"), cycle_data=cycles)
        assert error.value.violations == refused
    else:
        assert validate(dataclasses.replace(make_cell("BAD"), cycle_data=cycles)) == expected

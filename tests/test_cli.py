"""CLI behavior: exit codes, subcommand workflows, plot file outputs."""

import csv
import gc
import hashlib
import json
import re
import shutil
import weakref
from pathlib import Path

import numpy as np
import pytest
import yaml

from cellforge.battery_data import (CELL_MAGIC, load_cells, parse_container, read_cell,
                                    validate, write_cell, write_container)
from cellforge import battery_data, cli
from cellforge.cli import main
from cellforge.errors import CheckpointError, ConfigError, SchemaError
from cellforge.features import MAX_POINTS
from cellforge.ingestion import SOURCES
from cellforge.pipeline import PipelineConfig, run_evaluate
from cellforge.plots import (
    Series,
    make_plot,
    pred_vs_truth_series,
    write_series_csv,
)

from conftest import read_model_file, store_current_as_runs, write_model_file

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

GEN_SPEC = {
    "n_cells": 6,
    "cycle_life_mean": 150.0,
    "cycle_life_std": 10.0,
    "points_per_cycle": 16,
    "seed": 2,
}

TRAIN_CONFIG = {
    "train_test_split": {
        "name": "RandomTrainTestSplitter",
        "test_fraction": 0.34,
        "seed": 1,
    },
    "feature": {"name": "VarianceModelFeatureExtractor", "interp_dims": 64},
    "feature_transformation": {"name": "ZScoreDataTransformation"},
    "label": {"name": "RULLabelAnnotator"},
    "label_transformation": {"name": "ZScoreDataTransformation"},
    "model": {"name": "LinearRegressionRULPredictor"},
    "seeds": [0, 1],
}


def write_spec(tmp_path, **extra):
    path = tmp_path / "spec.yaml"
    path.write_text(yaml.safe_dump({**GEN_SPEC, **extra}))
    return path


def write_train_config(root, corpus_dir, **sections):
    """TRAIN_CONFIG reading ``corpus_dir``; keyword args replace whole sections."""
    cfg = {**TRAIN_CONFIG, **sections}
    cfg["train_test_split"] = {**cfg["train_test_split"], "cell_data_path": str(corpus_dir)}
    path = root / "experiment.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


def assert_one_line_error(capsys, fragment):
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert fragment in err


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_corpus")
    spec = write_spec(root)
    out = root / "cells"
    assert main(["generate", "--spec", str(spec), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def checkpoint_dir(corpus_dir, tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_train")
    config_path = write_train_config(root, corpus_dir)
    ws = root / "ws"
    assert main(["train", "--config", str(config_path), "--workspace", str(ws)]) == 0
    children = list(ws.iterdir())
    assert len(children) == 1
    return children[0]


class TestExitCodes:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "list-sources" in capsys.readouterr().out

    def test_domain_error_exits_one_with_single_line(self, tmp_path, capsys):
        code = main(["train", "--config", str(tmp_path / "absent.yaml")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    def test_bad_plot_kind_is_usage_error(self, tmp_path, capsys):
        assert main(["plot", "--kind", "pie", "--out", str(tmp_path / "p")]) == 2


class TestListSources:
    def test_prints_table_of_all_sources(self, capsys):
        assert main(["list-sources"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].startswith("source")
        for name in ("CALCE", "MATR", "HUST", "HNEI", "RWTH", "SNL", "UL_PUR"):
            assert any(line.startswith(name) for line in lines[1:])
        assert "LFP/graphite" in out

    def test_prints_every_source_url(self, capsys):
        assert main(["list-sources"]) == 0
        out = capsys.readouterr().out
        for source in SOURCES.values():
            for url in source.urls:
                assert url in out


class TestGenerate:
    def test_writes_valid_corpus(self, corpus_dir):
        cells = load_cells(corpus_dir)
        assert [c.cell_id for c in cells] == [f"SYN_{i:04d}" for i in range(6)]
        for cell in cells:
            assert validate(cell) == []

    def test_same_spec_same_bytes(self, corpus_dir, tmp_path):
        spec = write_spec(tmp_path)
        out = tmp_path / "again"
        assert main(["generate", "--spec", str(spec), "--out", str(out)]) == 0
        name = "SYN_0003.cfc"
        assert (out / name).read_bytes() == (corpus_dir / name).read_bytes()

    def test_seed_flag_overrides_spec(self, corpus_dir, tmp_path):
        spec = write_spec(tmp_path)
        out = tmp_path / "reseeded"
        assert main(["--seed", "77", "generate", "--spec", str(spec), "--out", str(out)]) == 0
        name = "SYN_0000.cfc"
        assert (out / name).read_bytes() != (corpus_dir / name).read_bytes()

    def test_quiet_suppresses_progress(self, tmp_path, capsys):
        spec = write_spec(tmp_path, n_cells=1, cycle_life_mean=40.0, cycle_life_std=0.0)
        out = tmp_path / "quiet"
        assert main(["--quiet", "generate", "--spec", str(spec), "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""

    def test_progress_names_count_and_directory(self, tmp_path, capsys):
        spec = write_spec(tmp_path, n_cells=2, cycle_life_mean=40.0, cycle_life_std=0.0)
        out = tmp_path / "loud"
        assert main(["generate", "--spec", str(spec), "--out", str(out)]) == 0
        assert f"wrote 2 synthetic cell(s) to {out}" in capsys.readouterr().out

    def test_holds_one_cell_at_a_time(self, tmp_path, monkeypatch):
        # each cell is written as soon as it is made and gone before the next is made
        written = []

        def write_one(cell, path):
            gc.collect()
            assert [ref() for ref in written] == [None] * len(written)
            written.append(weakref.ref(cell))
            return write_cell(cell, path)

        monkeypatch.setattr(cli, "write_cell", write_one)
        out = tmp_path / "cells"
        assert main(["generate", "--spec", str(write_spec(tmp_path)), "--out", str(out)]) == 0
        assert len(written) == GEN_SPEC["n_cells"] == len(list(out.iterdir()))

    @pytest.mark.parametrize(
        "fields,message",
        [
            ({"n_cells": 0}, "bad generator spec"),
            ({"points_per_cycle": 4}, "bad generator spec"),
            ({"no_such_field": 1}, "bad generator spec"),
            ({"n_cells": 2.5}, "bad generator spec: n_cells must be an integer, got 2.5"),
            ({"points_per_cycle": 20.5}, "bad generator spec: points_per_cycle must be an integer"),
            ({"seed": 1.5}, "bad generator spec: seed must be an integer, got 1.5"),
            ({"n_cells": True}, "bad generator spec: n_cells must be an integer, got True"),
        ],
    )
    def test_bad_spec_values(self, tmp_path, capsys, fields, message):
        spec = write_spec(tmp_path, **fields)
        assert main(["generate", "--spec", str(spec), "--out", str(tmp_path / "x")]) == 1
        assert_one_line_error(capsys, message)

    @pytest.mark.parametrize("fields, message", [
        ({"cycle_life_mean": float("inf")}, "cycle_life_mean must be a finite number, got inf"),
        ({"noise_sigma": float("nan")}, "noise_sigma must be a finite number, got nan"),
        ({"nominal_capacity_in_Ah": True}, "nominal_capacity_in_Ah must be a finite number, got True"),
        ({"knee_fraction": "0.5"}, "knee_fraction must be a finite number, got '0.5'"),
        ({"cycle_life_std": 10**400}, f"cycle_life_std must be a finite number, got {10**400}"),
        ({"voltage_min_V": -1.0e308, "voltage_max_V": 1.0e308},
         "voltage_max_V - voltage_min_V must be a finite number, got inf"),
        ({"nominal_capacity_in_Ah": 1.0e308},
         "nominal_capacity_in_Ah must be <= 8.988465674311579e+307, got 1e+308"),
        ({"cycle_life_mean": 1.0e300, "cycle_life_std": 0.0},
         "a cell draws a cycle life of 1e+300; lives above 715827882 would number cycles "
         "past 2147483647"),
    ], ids=["infinite", "nan", "bool", "string", "int-beyond-float", "voltage-span",
            "discharge-current", "cycle-life"])
    def test_a_bad_float_field_is_one_line_naming_it(self, tmp_path, capsys, fields, message):
        spec = write_spec(tmp_path, **fields)
        out = tmp_path / "x"
        assert main(["generate", "--spec", str(spec), "--out", str(out)]) == 1
        assert_one_line_error(capsys, f"error: bad generator spec: {message}\n")
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("knee_fraction, message", [
        (0.99999, "drops cell 0's SOH by 4501 in its last cycle, to -4500"),
        (0.9999999, "drops cell 0's SOH by 4.474e+07 in its last cycle, to -4.474e+07"),
    ])
    def test_a_knee_that_drives_the_soh_to_zero_is_one_line(self, tmp_path, capsys, knee_fraction, message):
        spec = write_spec(tmp_path, n_cells=2, knee_fraction=knee_fraction, cycle_life_std=0.0)
        out = tmp_path / "x"
        assert main(["generate", "--spec", str(spec), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (f"error: bad generator spec: knee_fraction {knee_fraction} "
                                           f"{message}; the SOH must stay above 0\n")
        assert not any(out.iterdir())

    def test_a_cell_too_large_for_one_array_is_one_line_error(self, tmp_path, capsys, capped_address_space):
        # NumPy refuses 21 cycles of 2**63 points with a bare ValueError, so
        # the spec is refused before any cell is made
        spec = write_spec(tmp_path, n_cells=1, cycle_life_mean=20.0, cycle_life_std=0.0,
                          points_per_cycle=2**63)
        out = tmp_path / "x"
        assert main(["generate", "--spec", str(spec), "--out", str(out)]) == 1
        assert_one_line_error(capsys, f"error: bad generator spec: cell 0 needs 21 cycles x {2**63} points, "
                                      f"more than the {MAX_POINTS} one array may hold\n")
        assert not out.exists() or not any(out.iterdir())

    def test_a_cell_refused_late_leaves_no_cell_files(self, tmp_path, capsys):
        # of the default corpus, cell 8 is the first whose SOH this knee drives below 0
        spec = tmp_path / "spec.yaml"
        spec.write_text(yaml.safe_dump({"knee_fraction": 0.9995}))
        out = tmp_path / "x"
        assert main(["generate", "--spec", str(spec), "--out", str(out)]) == 1
        assert_one_line_error(capsys, "error: bad generator spec: knee_fraction 0.9995 drops cell 8's SOH")
        assert list(out.glob("*.cfc")) == []

    def test_a_late_knee_above_zero_writes_valid_cells(self, tmp_path):
        spec = write_spec(tmp_path, n_cells=2, knee_fraction=0.999, cycle_life_std=0.0)
        out = tmp_path / "x"
        assert main(["generate", "--spec", str(spec), "--out", str(out)]) == 0
        cells = load_cells(out)
        assert len(cells) == 2 and all(validate(cell) == [] for cell in cells)
        assert all(0 < cell.cycle_data[-1].discharge_capacity_in_Ah.max() for cell in cells)

    def test_spec_must_be_mapping(self, tmp_path, capsys):
        spec = tmp_path / "list.yaml"
        spec.write_text("- 1\n- 2\n")
        assert main(["generate", "--spec", str(spec), "--out", str(tmp_path / "x")]) == 1
        assert "must be a mapping" in capsys.readouterr().err

    def test_missing_spec_file(self, tmp_path, capsys):
        assert main(["generate", "--spec", str(tmp_path / "gone.yaml"),
                     "--out", str(tmp_path / "x")]) == 1
        assert f"error: {tmp_path / 'gone.yaml'}: cannot read: " in capsys.readouterr().err


class TestTrainEvaluate:
    def test_checkpoint_directory_written(self, checkpoint_dir):
        assert checkpoint_dir.name.startswith("experiment_")
        assert (checkpoint_dir / "report.json").is_file()
        assert (checkpoint_dir / "model_seed0.bin").is_file()

    def test_train_reports_rmse(self, corpus_dir, tmp_path, capsys):
        config_path = write_train_config(tmp_path, corpus_dir)
        assert main(["train", "--config", str(config_path),
                     "--workspace", str(tmp_path / "ws")]) == 0
        out = capsys.readouterr().out
        assert "checkpoint: " in out
        assert "test RMSE" in out and out.endswith(" over 2 seed(s)\n")

    def test_quiet_train_prints_nothing(self, corpus_dir, tmp_path, capsys):
        config_path = write_train_config(tmp_path, corpus_dir)
        assert main(["--quiet", "train", "--config", str(config_path),
                     "--workspace", str(tmp_path / "ws")]) == 0
        assert capsys.readouterr().out == ""

    def test_evaluate_reproduces_stored_report(self, checkpoint_dir, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["evaluate", "--checkpoint", str(checkpoint_dir),
                     "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert f"report written to {out}" in stdout
        assert "test RMSE" in stdout
        assert out.read_text() == (checkpoint_dir / "report.json").read_text()

    def test_evaluate_takes_no_cell_directory(self, checkpoint_dir, corpus_dir, capsys):
        assert main(["evaluate", "--checkpoint", str(checkpoint_dir),
                     "--cells", str(corpus_dir)]) == 2
        assert "unrecognized arguments: --cells" in capsys.readouterr().err

    def test_evaluate_after_the_corpus_is_deleted(self, corpus_dir, tmp_path, capsys):
        corpus = tmp_path / "cells"
        shutil.copytree(corpus_dir, corpus)
        config_path = write_train_config(tmp_path, corpus)
        ws = tmp_path / "ws"
        assert main(["train", "--config", str(config_path), "--workspace", str(ws)]) == 0
        (ckpt,) = ws.iterdir()
        shutil.rmtree(corpus)
        out = tmp_path / "report.json"
        assert main(["evaluate", "--checkpoint", str(ckpt), "--out", str(out)]) == 0
        assert out.read_text() == (ckpt / "report.json").read_text()

    def test_evaluate_missing_checkpoint(self, tmp_path, capsys):
        assert main(["evaluate", "--checkpoint", str(tmp_path / "none")]) == 1
        assert "checkpoint directory not found" in capsys.readouterr().err

    def test_rejected_model_parameter_is_one_line_error(self, corpus_dir, tmp_path, capsys):
        config_path = write_train_config(
            tmp_path, corpus_dir, model={"name": "RidgeRegressor", "alpha": -1}
        )
        assert main(["train", "--config", str(config_path),
                     "--workspace", str(tmp_path / "ws")]) == 1
        assert_one_line_error(capsys, "alpha must be >= 0")

    @pytest.mark.parametrize("section,params,message", [
        ("feature", {"name": "SOHCycleFeatureExtractor", "max_cycle_index": 99.5},
         "feature extractor 'SOHCycleFeatureExtractor': bad parameters: "
         "max_cycle_index must be a non-negative integer, got 99.5"),
        ("feature", {"name": "SOHCycleFeatureExtractor", "max_cycle_index": "10"},
         "max_cycle_index must be a non-negative integer, got '10'"),
        ("feature", {"name": "SOHCycleFeatureExtractor", "max_cycle_index": -1},
         "max_cycle_index must be a non-negative integer, got -1"),
        ("feature", {"name": "SOCStepFeatureExtractor", "max_cycle_index": True},
         "max_cycle_index must be a non-negative integer, got True"),
        ("feature", {"name": "SOCStepFeatureExtractor", "n_qdlin": 1},
         "feature extractor 'SOCStepFeatureExtractor': bad parameters: "
         "n_qdlin must be an integer >= 2, got 1"),
        ("label", {"name": "SOCLabelAnnotator", "max_cycle_index": 2.0},
         "label annotator 'SOCLabelAnnotator': bad parameters: "
         "max_cycle_index must be a non-negative integer, got 2.0"),
        ("feature", {"name": "CapacityFadeSlopeFeatureExtractor", "first_cycle": 2.5},
         "first_cycle must be a non-negative integer, got 2.5"),
        ("feature", {"name": "CapacityFadeSlopeFeatureExtractor", "last_cycle": -1},
         "last_cycle must be a non-negative integer, got -1"),
        # each of these trained, truncated the float or ended in a traceback
        ("model", {"name": "RandomForestRegressor", "n_trees": 2.9},
         "model 'RandomForestRegressor': bad parameters: n_trees must be an integer >= 1, got 2.9"),
        ("label", {"name": "RULLabelAnnotator", "smoothing_window": 3.0},
         "label annotator 'RULLabelAnnotator': bad parameters: "
         "smoothing_window must be an integer >= 1, got 3.0"),
        ("feature", {**TRAIN_CONFIG["feature"], "critical_cycles": [2, 9.7, 99]},
         "critical_cycles[1] must be a non-negative integer, got 9.7"),
        ("model", {"name": "MLPRegressor", "hidden_dims": [32.5]},
         "hidden_dims[0] must be an integer >= 1, got 32.5"),
        ("model", {"name": "DecisionTreeRegressor", "max_depth": 2.5},
         "max_depth must be a non-negative integer, got 2.5"),
        # float parameters: each of these trained, or ended in a traceback or
        # in a line that did not name the parameter
        ("model", {"name": "RidgeRegressor", "alpha": float("inf")},
         "model 'RidgeRegressor': bad parameters: alpha must be a finite number, got inf"),
        ("model", {"name": "RidgeRegressor", "alpha": True},
         "alpha must be a finite number, got True"),
        ("model", {"name": "MLPRegressor", "learning_rate": float("nan")},
         "model 'MLPRegressor': bad parameters: learning_rate must be a finite number, got nan"),
        ("model", {"name": "MLPRegressor", "learning_rate": "0.1"},
         "learning_rate must be a finite number, got '0.1'"),
        ("feature", {**TRAIN_CONFIG["feature"], "v_min": "2.0", "v_max": True},
         "feature extractor 'VarianceModelFeatureExtractor': bad parameters: "
         "v_min must be a finite number, got '2.0'"),
        ("label", {"name": "RULLabelAnnotator", "eol_soh_percent": "80"},
         "label annotator 'RULLabelAnnotator': bad parameters: "
         "eol_soh_percent must be a finite number, got '80'"),
        ("train_test_split", {**TRAIN_CONFIG["train_test_split"], "test_fraction": 1.5},
         "splitter 'RandomTrainTestSplitter': bad parameters: test_fraction must be < 1, got 1.5"),
    ], ids=["float", "string", "negative", "bool", "n_qdlin-1", "label-float", "first-float",
            "last-negative", "n_trees-float", "smoothing-float", "critical-float",
            "hidden-float", "depth-float", "alpha-inf", "alpha-bool", "learning-rate-nan",
            "learning-rate-string", "v-min-string", "eol-string", "test-fraction-above-1"])
    def test_bad_cycle_index_is_one_line_error(self, corpus_dir, tmp_path, capsys,
                                               section, params, message):
        config_path = write_train_config(tmp_path, corpus_dir, **{section: params})
        assert main(["train", "--config", str(config_path),
                     "--workspace", str(tmp_path / "ws")]) == 1
        assert_one_line_error(capsys, message)

    @pytest.mark.parametrize("value", [2**63 - 1, 2**63])
    @pytest.mark.parametrize("name, parameter", [
        ("VoltageCapacityMatrixFeatureExtractor", "interp_dims"),
        ("VarianceModelFeatureExtractor", "interp_dims"),
        ("SOCStepFeatureExtractor", "n_qdlin"),
    ])
    def test_an_array_length_no_array_can_have_is_one_line_error(self, corpus_dir, tmp_path, capsys,
                                                                 name, parameter, value):
        # these reached np.linspace or np.zeros and ended in an IndexError or ValueError
        # traceback; the bound refuses them when the extractor is built, before any array
        config_path = write_train_config(tmp_path, corpus_dir, feature={"name": name, parameter: value})
        assert main(["train", "--config", str(config_path),
                     "--workspace", str(tmp_path / "ws")]) == 1
        assert_one_line_error(capsys, f"feature extractor '{name}': bad parameters: {parameter} "
                                      f"must be an integer <= {MAX_POINTS}, got {value}")

    @pytest.mark.parametrize("edit,message", [
        # the linear model takes no seed, so a seed list is checked before it is used
        ({"seeds": [-3]}, "'seeds' must not be negative"),
        ({"train_test_split": {**TRAIN_CONFIG["train_test_split"], "seed": -2}},
         "seed must be a non-negative integer, got -2"),
    ])
    def test_negative_seed_is_one_line_error(self, corpus_dir, tmp_path, capsys, edit, message):
        config = {**TRAIN_CONFIG, **edit}
        config["train_test_split"] = {**config["train_test_split"], "cell_data_path": str(corpus_dir)}
        config_path = tmp_path / "experiment.yaml"
        config_path.write_text(yaml.safe_dump(config))
        assert main(["train", "--config", str(config_path),
                     "--workspace", str(tmp_path / "ws")]) == 1
        assert_one_line_error(capsys, message)

    def test_split_ids_that_are_not_a_list_are_one_line_error(self, corpus_dir, tmp_path, capsys):
        # a string was split into its characters, each reported absent from the corpus
        config_path = tmp_path / "experiment.yaml"
        config_path.write_text(yaml.safe_dump({**TRAIN_CONFIG, "train_test_split": {
            "name": "ExplicitTrainTestSplitter", "cell_data_path": str(corpus_dir),
            "train_ids": "SYN_0000", "test_ids": ["SYN_0001"]}}))
        assert main(["train", "--config", str(config_path),
                     "--workspace", str(tmp_path / "ws")]) == 1
        assert_one_line_error(capsys, "error: train_ids must be a list of strings\n")

    def test_retired_packaged_splitter_is_one_line_error(self, corpus_dir, tmp_path, capsys):
        config_path = tmp_path / "experiment.yaml"
        config_path.write_text(yaml.safe_dump({**TRAIN_CONFIG, "train_test_split": {
            "name": "MATRPrimaryTestTrainTestSplitter", "cell_data_path": str(corpus_dir)}}))
        assert main(["train", "--config", str(config_path),
                     "--workspace", str(tmp_path / "ws")]) == 1
        assert_one_line_error(capsys, "unknown splitter 'MATRPrimaryTestTrainTestSplitter'; "
                              "registered: ExplicitTrainTestSplitter, FixedSplitTrainTestSplitter, "
                              "RandomTrainTestSplitter")

    def test_retired_qdlin_option_is_one_line_error(self, corpus_dir, tmp_path, capsys):
        config_path = write_train_config(tmp_path, corpus_dir, feature={
            **TRAIN_CONFIG["feature"], "use_precalculated_qdlin": True})
        assert main(["train", "--config", str(config_path),
                     "--workspace", str(tmp_path / "ws")]) == 1
        assert_one_line_error(capsys, "unexpected keyword argument 'use_precalculated_qdlin'")

    def test_checkpoint_with_the_retired_option_evaluates(self, checkpoint_dir, tmp_path):
        # a checkpoint trained while the option was accepted (and ignored): its
        # stored config carries the key and its report the hash of that config
        ckpt = tmp_path / checkpoint_dir.name
        shutil.copytree(checkpoint_dir, ckpt)
        cfg = yaml.safe_load((ckpt / "config.yaml").read_text())
        cfg["feature"]["use_precalculated_qdlin"] = True
        (ckpt / "config.yaml").write_text(yaml.safe_dump(cfg))
        report = json.loads((ckpt / "report.json").read_text())
        report["config_hash"] = PipelineConfig.from_yaml(ckpt / "config.yaml").config_hash()
        (ckpt / "report.json").write_text(json.dumps(report))
        out = tmp_path / "report.json"
        assert main(["evaluate", "--checkpoint", str(ckpt), "--out", str(out)]) == 0
        assert json.loads(out.read_text()) == report == run_evaluate(ckpt)

    def test_evaluate_out_writes_the_bytes_of_report_json(self, checkpoint_dir, tmp_path):
        out = tmp_path / "report.json"
        assert main(["--quiet", "evaluate", "--checkpoint", str(checkpoint_dir),
                     "--out", str(out)]) == 0
        assert out.read_bytes() == (checkpoint_dir / "report.json").read_bytes()

    def test_failing_model_fit_is_one_line_error(self, corpus_dir, tmp_path, capsys):
        # the variance feature is one column, too few for three components
        config_path = write_train_config(
            tmp_path, corpus_dir, model={"name": "PCRRegressor", "n_components": 3}
        )
        ws = tmp_path / "ws"
        assert main(["train", "--config", str(config_path), "--workspace", str(ws)]) == 1
        assert_one_line_error(capsys, "n_components=3 exceeds min(n_samples - 1, n_features)=1")
        assert not ws.exists() or list(ws.iterdir()) == []

    def test_failing_transform_is_one_line_error(self, corpus_dir, tmp_path, capsys):
        # log-variance features are negative, so a log scale cannot fit them
        config_path = write_train_config(
            tmp_path, corpus_dir, feature_transformation={"name": "LogScaleDataTransformation"}
        )
        assert main(["train", "--config", str(config_path),
                     "--workspace", str(tmp_path / "ws")]) == 1
        assert_one_line_error(capsys, "log scale requires strictly positive data")

    @pytest.mark.parametrize("transformations, fragment", [
        ("x", "sequential transformations must be a list, got 'x'"),
        ({"name": "ZScoreDataTransformation"},
         "sequential transformations must be a list, got {'name': 'ZScoreDataTransformation'}"),
        ([1], "sequential child 1 must be a transformation or a mapping with a 'name' string"),
        ([[1]], "sequential child [1] must be a transformation or a mapping with a 'name' string"),
    ], ids=["string", "mapping", "number", "nested-list"])
    def test_sequential_entry_that_is_no_transformation_is_one_line_error(
            self, corpus_dir, tmp_path, capsys, transformations, fragment):
        config_path = write_train_config(tmp_path, corpus_dir, label_transformation={
            "name": "SequentialDataTransformation", "transformations": transformations})
        assert main(["train", "--config", str(config_path),
                     "--workspace", str(tmp_path / "ws")]) == 1
        assert_one_line_error(capsys, fragment)

    def test_an_array_too_large_to_exist_is_one_line_error(self, corpus_dir, tmp_path, capsys):
        # NumPy refuses the 7.11 PiB voltage grid before the OS commits any memory
        config_path = write_train_config(tmp_path, corpus_dir, feature={
            "name": "VarianceModelFeatureExtractor", "interp_dims": 10**15})
        ws = tmp_path / "ws"
        assert main(["train", "--config", str(config_path), "--workspace", str(ws)]) == 1
        assert_one_line_error(capsys, "error: out of memory: ")
        assert not ws.exists() or list(ws.iterdir()) == []

    @pytest.mark.parametrize("feature, label", [
        ({"name": "VoltageCapacityMatrixFeatureExtractor", "interp_dims": 2**47},
         {"name": "RULLabelAnnotator"}),
        ({"name": "SOCStepFeatureExtractor", "n_qdlin": 2**47, "max_cycle_index": 1},
         {"name": "SOCLabelAnnotator", "max_cycle_index": 1}),
    ], ids=["interp_dims", "n_qdlin"])
    def test_a_width_too_large_to_exist_is_one_line_error(
            self, corpus_dir, tmp_path, capsys, capped_address_space, feature, label):
        # 2**47 float64 columns exceed the address space, so NumPy refuses
        # them before the OS commits any memory; no column name is built first
        config_path = write_train_config(tmp_path, corpus_dir, feature=feature, label=label)
        assert main(["train", "--config", str(config_path),
                     "--workspace", str(tmp_path / "ws")]) == 1
        assert_one_line_error(capsys, "error: out of memory: Unable to allocate ")

    @pytest.mark.parametrize("width", [2**62, 2**63])
    def test_a_layer_too_large_for_one_array_is_one_line_error(
            self, corpus_dir, tmp_path, capsys, capped_address_space, width):
        # NumPy refuses such a weight matrix with a bare ValueError, so the
        # model refuses it first
        config_path = write_train_config(tmp_path, corpus_dir, model={
            "name": "MLPRegressor", "hidden_dims": [width], "epochs": 1})
        assert main(["train", "--config", str(config_path),
                     "--workspace", str(tmp_path / "ws")]) == 1
        assert_one_line_error(capsys, f"error: MLP layer 0 needs 1 x {width} weights, more than the "
                                      f"{MAX_POINTS} one array may hold")

    def test_a_row_count_too_large_to_list_is_the_cells_cycle_count_error(
            self, corpus_dir, tmp_path, capsys):
        # 2**47 rows are counted, not listed: each cell is refused for its
        # cycles before any per-row structure exists
        config_path = write_train_config(tmp_path, corpus_dir, feature={
            "name": "VoltageCapacityMatrixFeatureExtractor", "interp_dims": 4,
            "cycles_to_keep": 2**47, "max_cycle_index": 2**47})
        assert main(["train", "--config", str(config_path),
                     "--workspace", str(tmp_path / "ws")]) == 1
        assert_one_line_error(capsys, f": needs >= {2**47} cycles, has ")

    def test_a_memory_error_without_a_message_is_one_line(self, monkeypatch, capsys):
        def exhausted(args, say):
            raise MemoryError()

        monkeypatch.setitem(cli._COMMANDS, "list-sources", exhausted)
        assert main(["list-sources"]) == 1
        assert capsys.readouterr().err == "error: out of memory\n"

    def test_evaluate_rejects_stored_hyperparameters(self, corpus_dir, tmp_path, capsys):
        for model, stored, fragment in [
            # a forest file from before n_jobs was removed carries that parameter
            ({"name": "RandomForestRegressor", "n_trees": 2}, {"n_jobs": 1}, "'n_jobs'"),
            # a PLS file from before its power loop was removed carries its two
            # knobs; the header stores its keys sorted
            ({"name": "PLSRegressor", "n_components": 1}, {"tol": 1e-10, "max_iter": 500},
             "'max_iter'"),
            # a float where an integer belongs is refused, not truncated
            ({"name": "DecisionTreeRegressor", "max_depth": 3}, {"max_depth": 3.0},
             "max_depth must be a non-negative integer, got 3.0"),
            # and a float parameter must be a finite number
            ({"name": "RidgeRegressor", "alpha": 1.0}, {"alpha": float("inf")},
             "alpha must be a finite number, got inf"),
        ]:
            root = tmp_path / model["name"]
            root.mkdir()
            config_path = write_train_config(root, corpus_dir, model=model)
            ws = root / "ws"
            assert main(["--quiet", "train", "--config", str(config_path),
                         "--workspace", str(ws)]) == 0
            (ckpt,) = ws.iterdir()
            path = ckpt / "model_seed0.bin"
            header, blocks = read_model_file(path)
            write_model_file(path, header["kind"], {**header["hyperparameters"], **stored},
                             header["metadata"],
                             [(b["name"], blocks[b["name"]]) for b in header["blocks"]])
            assert main(["evaluate", "--checkpoint", str(ckpt)]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {path}: {header['kind']} model rejects the stored "
                                  "hyperparameters: ") and err.count("\n") == 1
            assert fragment in err

    def test_evaluate_rejects_model_file_without_blocks(self, checkpoint_dir, tmp_path, capsys):
        ckpt = tmp_path / checkpoint_dir.name
        shutil.copytree(checkpoint_dir, ckpt)
        path = ckpt / "model_seed0.bin"
        header, _ = read_model_file(path)
        write_model_file(path, header["kind"], header["hyperparameters"], header["metadata"], [])
        assert main(["evaluate", "--checkpoint", str(ckpt)]) == 1
        assert_one_line_error(capsys, "model_seed0.bin: linear model file lacks parameter block 'coef'")

    def test_evaluate_rejects_a_corrupted_deflated_model_file(self, corpus_dir, tmp_path, capsys):
        config = write_train_config(tmp_path, corpus_dir, model={"name": "RandomForestRegressor", "n_trees": 5})
        assert main(["--quiet", "train", "--config", str(config), "--workspace", str(tmp_path / "ws")]) == 0
        (ckpt,) = (tmp_path / "ws").iterdir()
        path = ckpt / "model_seed1.bin"
        data = path.read_bytes()
        assert read_model_file(path)[0]["deflate"] is True
        path.write_bytes(data[:-1] + bytes([data[-1] ^ 0xFF]))  # the stream's checksum
        assert main(["evaluate", "--checkpoint", str(ckpt)]) == 1
        assert_one_line_error(capsys, f"error: {path}: deflated blocks: ")

    def test_evaluate_rejects_checkpoint_of_the_older_layout(self, checkpoint_dir, tmp_path, capsys):
        # written before models without randomness lost their seed and before the
        # test features moved into one container file
        ckpt = tmp_path / checkpoint_dir.name
        shutil.copytree(checkpoint_dir, ckpt)
        (ckpt / "features_test.bin").unlink()
        np.save(ckpt / "features_test.npy", np.zeros((2, 1)))
        path = ckpt / "model_seed0.bin"
        header, blocks = read_model_file(path)
        write_model_file(path, header["kind"], {"seed": 0}, {**header["metadata"], "seed": 0},
                         [(b["name"], blocks[b["name"]]) for b in header["blocks"]])
        assert main(["evaluate", "--checkpoint", str(ckpt)]) == 1
        assert_one_line_error(capsys, "linear model rejects the stored hyperparameters")

    def test_evaluate_rejects_unknown_transform_name(self, checkpoint_dir, tmp_path, capsys):
        ckpt = tmp_path / checkpoint_dir.name
        shutil.copytree(checkpoint_dir, ckpt)
        payload = json.loads((ckpt / "transforms.json").read_text())
        payload["feature_transformation"]["name"] = "Mystery"
        (ckpt / "transforms.json").write_text(json.dumps(payload))
        assert main(["evaluate", "--checkpoint", str(ckpt)]) == 1
        assert_one_line_error(capsys, "unknown transformation 'Mystery'")

    @pytest.mark.parametrize("name, edit, fragment", [
        ("report.json", lambda p: [],
         "report.json: expected an 'excluded' list and a 'predictions' object"),
        ("report.json", lambda p: {**p, "predictions": {"cell_id": [["SYN_0000", 1]], "y_pred": [1.0]}},
         "a 'predictions' object of 'cell_id', 'y_true' and 'y_pred' lists"),
        ("report.json",
         lambda p: {**p, "predictions": {**p["predictions"],
                                         "y_true": [True] * len(p["predictions"]["y_true"])}},
         "'predictions' 'y_true' must hold numbers alone"),
        ("transforms.json", lambda p: [], "expected an object with"),
        ("transforms.json", lambda p: {"label_transformation": p["label_transformation"]},
         "expected an object with ['feature_transformation', 'label_transformation']"),
        ("transforms.json",
         lambda p: {**p, "feature_transformation": {"name": "ZScoreDataTransformation",
                                                    "state": {"std": 1.0}}},
         "malformed ZScoreDataTransformation state: KeyError: 'mean'"),
        ("report.json", None, "not valid JSON"),
        ("split.json", lambda p: [], "split.json: split payload must be an object"),
    ], ids=["report-list", "report-without-y_true", "report-bool-y_true", "transforms-list",
            "transforms-without-feature-transformation", "zscore-without-mean",
            "report-not-utf8", "split-list"])
    def test_malformed_checkpoint_json_is_one_line_error(self, checkpoint_dir, tmp_path, capsys,
                                                         name, edit, fragment):
        ckpt = tmp_path / checkpoint_dir.name
        shutil.copytree(checkpoint_dir, ckpt)
        path = ckpt / name
        if edit is None:
            path.write_bytes(b"\xff\xfe{}")  # not UTF-8
        else:
            path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        with pytest.raises(CheckpointError, match=re.escape(str(path))):
            run_evaluate(ckpt)
        assert main(["evaluate", "--checkpoint", str(ckpt)]) == 1
        assert_one_line_error(capsys, fragment)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverging_model_is_one_line_error(self, corpus_dir, tmp_path, capsys):
        config_path = write_train_config(tmp_path, corpus_dir, model={
            "name": "MLPRegressor", "hidden_dims": [32], "epochs": 10, "learning_rate": 1e6})
        ws = tmp_path / "ws"
        assert main(["train", "--config", str(config_path), "--workspace", str(ws)]) == 1
        assert_one_line_error(capsys, "seed 0: MLPRegressor predicts non-finite values")
        assert not ws.exists() or list(ws.iterdir()) == []

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_label_inverse_is_one_line_error(self, corpus_dir, tmp_path, capsys):
        # a tampered z-score scale makes the log scale's inverse overflow;
        # numpy's overflow warning used to reach stderr before the error line
        config_path = write_train_config(tmp_path, corpus_dir, label_transformation={
            "name": "SequentialDataTransformation",
            "transformations": [{"name": "LogScaleDataTransformation"},
                                {"name": "ZScoreDataTransformation"}]})
        ws = tmp_path / "ws"
        assert main(["--quiet", "train", "--config", str(config_path), "--workspace", str(ws)]) == 0
        (ckpt,) = ws.iterdir()
        path = ckpt / "transforms.json"
        stored = json.loads(path.read_text())
        stored["label_transformation"]["state"]["children"][1]["state"]["std"] *= 1e6
        path.write_text(json.dumps(stored))
        assert main(["evaluate", "--checkpoint", str(ckpt)]) == 1
        assert_one_line_error(capsys, "error: seed 0: LinearRegressor predicts non-finite values "
                              "(the fit diverged, or the label transformation overflowed)\n")

    def test_cell_without_discharge_samples_is_one_line_error(self, corpus_dir, tmp_path, capsys):
        # the first cycle of SYN_0000 keeps no points; the file reads, its label cannot be made
        cells = shutil.copytree(corpus_dir, tmp_path / "cells")
        path = cells / "SYN_0000.cfc"
        header, blocks = parse_container(path.read_bytes(), CELL_MAGIC, SchemaError)
        points = blocks["points"].copy()
        points[:2] = [0, points[0] + points[1]]
        write_container(path, CELL_MAGIC, {k: v for k, v in header.items() if k != "blocks"},
                        list({**blocks, "points": points}.items()))
        cfg = yaml.safe_load((CONFIG_DIR / "synthetic_variance_linear.yaml").read_text())
        cfg["train_test_split"]["cell_data_path"] = str(cells)
        config_path = tmp_path / "synthetic_variance_linear.yaml"
        config_path.write_text(yaml.safe_dump(cfg))
        assert main(["train", "--config", str(config_path),
                     "--workspace", str(tmp_path / "ws")]) == 1
        assert_one_line_error(capsys, "error: SYN_0000: a cycle has no discharge capacity samples")

    def test_cfc1_corpus_is_one_line_error(self, corpus_dir, tmp_path, capsys):
        # cell files of older versions start with CFC1; the magic alone decides
        cells = shutil.copytree(corpus_dir, tmp_path / "cells")
        path = cells / "SYN_0000.cfc"
        path.write_bytes(b"CFC1" + path.read_bytes()[4:])
        config_path = write_train_config(tmp_path, cells)
        assert main(["train", "--config", str(config_path),
                     "--workspace", str(tmp_path / "ws")]) == 1
        assert_one_line_error(capsys, f"error: {path}: CFC1 cell file from an older cellforge; "
                                      "regenerate or preprocess it again")

    def test_run_coded_corpus_is_one_line_error(self, corpus_dir, tmp_path, capsys):
        # cellforge once stored a signal as its runs; such a cell is refused, not misread
        cells = shutil.copytree(corpus_dir, tmp_path / "cells")
        path = store_current_as_runs(cells / "SYN_0003.cfc")
        config_path = write_train_config(tmp_path, cells)
        assert main(["train", "--config", str(config_path),
                     "--workspace", str(tmp_path / "ws")]) == 1
        assert_one_line_error(capsys, f"error: {path}: cell file with run blocks from an older "
                                      "cellforge; regenerate or preprocess it again")
        assert not (tmp_path / "ws").exists()

    def test_checkpoint_holding_labels_json_evaluates(self, checkpoint_dir, tmp_path):
        # older checkpoints also stored labels.json; evaluation ignores it
        ckpt = tmp_path / checkpoint_dir.name
        shutil.copytree(checkpoint_dir, ckpt)
        (ckpt / "labels.json").write_text("{not json")
        assert run_evaluate(ckpt) == json.loads((ckpt / "report.json").read_text())


class TestPlotCommand:
    def test_degradation_writes_csv_and_svg(self, corpus_dir, tmp_path):
        out = tmp_path / "soh"
        assert main(["--quiet", "plot", "--kind", "degradation",
                     "--out", str(out), "--cells", str(corpus_dir)]) == 0
        csv_text = (tmp_path / "soh.csv").read_text()
        assert csv_text.startswith("series,x,y")
        svg_text = (tmp_path / "soh.svg").read_text()
        assert svg_text.startswith("<svg ")
        assert svg_text.rstrip().endswith("</svg>")
        assert "<polyline" in svg_text

    def test_plot_is_reproducible(self, corpus_dir, tmp_path):
        for name in ("a", "b"):
            assert main(["--quiet", "plot", "--kind", "degradation",
                         "--out", str(tmp_path / name), "--cells", str(corpus_dir)]) == 0
        assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize("kind, csv_sha256, svg_sha256", [
        ("degradation", "354df2549df33eda4558221cfd2555b625e084202b3b6236e50fef7ba913e8bc",
         "9d7b77e707554eeb728740d909cc532fee8812dae9b85d04b2ea5922c2442af4"),
        ("voltage-curves", "3ddab9fefe875a8c4f79063befcc0bccb30f36af3668b01c8fe393a704b88950",
         "edd561a4364366cc74d0ccde9f4cce66555f6962c1aafc54999d8de20a359684"),
        ("pred-vs-truth", "45c14214dad952140f2a09aae57d2816738658d45aa3cf78053cffa0485471ee",
         "66513524db2f89cf6faca08fb2e69dd60e302cbb88b4f9ad498443a6d8c2b177"),
    ])
    def test_written_bytes_are_pinned(self, corpus_dir, checkpoint_dir, tmp_path,
                                      kind, csv_sha256, svg_sha256):
        source = (["--checkpoint", str(checkpoint_dir)] if kind == "pred-vs-truth"
                  else ["--cells", str(corpus_dir)])
        assert main(["--quiet", "plot", "--kind", kind, "--out", str(tmp_path / "p")] + source) == 0
        assert hashlib.sha256((tmp_path / "p.csv").read_bytes()).hexdigest() == csv_sha256
        assert hashlib.sha256((tmp_path / "p.svg").read_bytes()).hexdigest() == svg_sha256

    def test_out_suffix_is_replaced(self, corpus_dir, tmp_path):
        out = tmp_path / "curves.png"
        assert main(["--quiet", "plot", "--kind", "voltage-curves",
                     "--out", str(out), "--cells", str(corpus_dir),
                     "--cell-id", "SYN_0002"]) == 0
        assert (tmp_path / "curves.csv").is_file()
        assert (tmp_path / "curves.svg").is_file()
        assert not out.exists()

    @pytest.mark.parametrize("cell_id", [[], ["--cell-id", "SYN_0002"]], ids=["first", "named"])
    def test_voltage_curves_read_the_plotted_cell_alone(self, corpus_dir, tmp_path, monkeypatch,
                                                         cell_id):
        read, parsed = [], []
        monkeypatch.setattr(cli, "read_cell", lambda path: read.append(path.name) or read_cell(path))
        monkeypatch.setattr(battery_data, "_cell_from_bytes",
                            lambda data, parse=battery_data._cell_from_bytes: parsed.append(1) or parse(data))
        assert main(["--quiet", "plot", "--kind", "voltage-curves", "--out", str(tmp_path / "v"),
                     "--cells", str(corpus_dir), *cell_id]) == 0
        assert read == [f"{cell_id[1] if cell_id else 'SYN_0000'}.cfc"] and parsed == [1]

    def test_degradation_holds_one_cell_at_a_time(self, corpus_dir, tmp_path, monkeypatch):
        read, alive = [], []

        def spy(path):
            alive.append(sum(ref() is not None for ref in read))
            cell = read_cell(path)
            read.append(weakref.ref(cell))
            return cell

        monkeypatch.setattr(cli, "read_cell", spy)
        out = tmp_path / "soh"
        assert main(["--quiet", "plot", "--kind", "degradation", "--out", str(out),
                     "--cells", str(corpus_dir)]) == 0
        cells = load_cells(corpus_dir)
        assert len(read) == len(cells) and alive == [0] * len(cells)
        assert all(ref() is None for ref in read)
        make_plot("degradation", tmp_path / "whole", cells=cells)
        assert out.with_suffix(".csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()

    def test_unknown_cell_id(self, corpus_dir, tmp_path, capsys):
        assert main(["plot", "--kind", "voltage-curves", "--out", str(tmp_path / "v"),
                     "--cells", str(corpus_dir), "--cell-id", "GHOST"]) == 1
        assert "no cell with id 'GHOST'" in capsys.readouterr().err

    def test_pred_vs_truth_from_checkpoint(self, checkpoint_dir, tmp_path):
        out = tmp_path / "fit"
        assert main(["--quiet", "plot", "--kind", "pred-vs-truth",
                     "--out", str(out), "--checkpoint", str(checkpoint_dir)]) == 0
        svg_text = (tmp_path / "fit.svg").read_text()
        assert "<circle" in svg_text

    @pytest.mark.parametrize("text, fragment", [
        ("{not json", "report.json: not valid JSON"),
        (json.dumps({"predictions": {"cell_id": [["SYN_0000", 1]], "y_pred": [1.0]}, "excluded": []}),
         "a 'predictions' object of 'cell_id', 'y_true' and 'y_pred' lists"),
    ], ids=["not-json", "without-y_true"])
    def test_pred_vs_truth_rejects_malformed_report(self, checkpoint_dir, tmp_path, capsys,
                                                    text, fragment):
        ckpt = tmp_path / checkpoint_dir.name
        shutil.copytree(checkpoint_dir, ckpt)
        (ckpt / "report.json").write_text(text)
        assert main(["plot", "--kind", "pred-vs-truth", "--out", str(tmp_path / "fit"),
                     "--checkpoint", str(ckpt)]) == 1
        assert_one_line_error(capsys, fragment)

    def test_pred_vs_truth_requires_checkpoint(self, tmp_path, capsys):
        assert main(["plot", "--kind", "pred-vs-truth", "--out", str(tmp_path / "x")]) == 1
        assert "needs a checkpoint" in capsys.readouterr().err

    def test_line_plots_require_cells(self, tmp_path, capsys):
        assert main(["plot", "--kind", "degradation", "--out", str(tmp_path / "x")]) == 1
        assert "needs cells" in capsys.readouterr().err

    @pytest.mark.parametrize("cells", [[], iter([])], ids=["list", "iterator"])
    def test_degradation_of_no_cells_is_one_line(self, tmp_path, cells):
        with pytest.raises(ConfigError, match="^degradation needs cells$"):
            make_plot("degradation", tmp_path / "x", cells=cells)


class TestPreprocessCommand:
    def test_csv_to_cell_records(self, tmp_path, capsys):
        raw = tmp_path / "raw"
        raw.mkdir()
        with open(raw / "cellA.csv", "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "v", "i", "cyc", "qc", "qd"])
            for cycle in (0, 1):
                for k in range(5):
                    w.writerow([100.0 * cycle + 10.0 * k, 3.5 - 0.1 * k, -1.0,
                                cycle, 0.0, 0.1 * k])
        column_map = tmp_path / "map.json"
        column_map.write_text(json.dumps({
            "time_s": "t",
            "voltage_V": "v",
            "current_A": "i",
            "cycle_index": "cyc",
            "charge_capacity_Ah": "qc",
            "discharge_capacity_Ah": "qd",
        }))
        out = tmp_path / "processed"
        assert main(["preprocess", "CALCE", str(raw), str(out),
                     "--column-map", str(column_map)]) == 0
        assert "wrote 1 cell file(s)" in capsys.readouterr().out
        cells = load_cells(out)
        assert [c.cell_id for c in cells] == ["CALCE_cellA"]
        assert validate(cells[0]) == []

    def test_unknown_source(self, tmp_path, capsys):
        assert main(["preprocess", "NOPE", str(tmp_path), str(tmp_path / "o")]) == 1
        assert "known sources" in capsys.readouterr().err


class TestWriteFailures:
    """A write the file system refuses fails as one error line naming the path."""

    @pytest.mark.parametrize("command", ["evaluate", "plot", "generate", "train"])
    def test_one_error_line_names_the_path(self, corpus_dir, checkpoint_dir, tmp_path, capsys,
                                           command):
        a_file = tmp_path / "afile"
        a_file.write_text("")
        missing = tmp_path / "nodir"
        path, argv = {
            "evaluate": (missing / "r.json", ["evaluate", "--checkpoint", str(checkpoint_dir),
                                              "--out", str(missing / "r.json")]),
            "plot": (missing / "p", ["plot", "--kind", "degradation", "--cells",
                                     str(corpus_dir), "--out", str(missing / "p")]),
            "generate": (a_file, ["generate", "--spec", str(write_spec(tmp_path)),
                                  "--out", str(a_file)]),
            "train": (a_file, ["train", "--config",
                               str(write_train_config(tmp_path, corpus_dir)),
                               "--workspace", str(a_file)]),
        }[command]
        assert main(argv) == 1
        assert_one_line_error(capsys, f"error: {path}")


DEEP_JSON = b"[" * 100_000 + b"]" * 100_000
MATR_CSV_HEADER = b"test_time,voltage,current,cycle_index,charge_capacity,discharge_capacity\n"


def three_coefficients(path):
    """Rewrite a one-feature linear model file with a ``coef`` block of three."""
    header, blocks = read_model_file(path)
    write_model_file(path, header["kind"], header["hyperparameters"], header["metadata"],
                     [("coef", np.ones(3)), ("intercept", blocks["intercept"])])


class TestUnreadableFiles:
    """Every file the CLI reads fails as one error line naming it."""

    @pytest.mark.parametrize("role, content", [
        ("column-map", None),
        ("column-map", "directory"),
        ("column-map", b"\xff"),
        ("column-map", DEEP_JSON),
        ("csv", MATR_CSV_HEADER + b"\xff"),
        ("csv", MATR_CSV_HEADER + b"0,abc,1,1,0,0\n"),
        ("spec", b"\xff"),
        ("spec", b"n_cells: [1,"),
        ("config", b"\xff"),
        ("config", b"a: [1,"),
        ("split", b"\xff"),
        ("split", DEEP_JSON),
        ("csv", MATR_CSV_HEADER + b"0," + b"9" * 200_000 + b",1,1,0,0\n"),
        ("csv", MATR_CSV_HEADER + b"0,3.5,1,nan,0,0\n10,3.4,1,nan,0.01,0\n"),
        ("csv", MATR_CSV_HEADER + b"0,3.5,1,inf,0,0\n10,3.4,1,inf,0.01,0\n"),
        ("csv", MATR_CSV_HEADER + b"0,3.5,1,1e30,0,0\n10,3.4,1,1e30,0.01,0\n"),
        ("csv", MATR_CSV_HEADER.replace(b"voltage", b"voltage,voltage")
         + b"0,3.5,3.5,1,1,0,0\n10,3.4,3.4,1,1,0.01,0\n"),
        ("model", three_coefficients),
    ], ids=["column-map-missing", "column-map-directory", "column-map-not-utf8",
            "column-map-deep-nesting", "csv-not-utf8", "csv-not-numeric", "spec-not-utf8",
            "spec-not-yaml", "config-not-utf8", "config-not-yaml", "split-not-utf8",
            "split-deep-nesting", "csv-field-too-large", "csv-cycle-nan", "csv-cycle-inf",
            "csv-cycle-beyond-int64", "csv-duplicated-mapped-header", "model-coef-shape"])
    def test_one_error_line_names_the_file(self, corpus_dir, checkpoint_dir, tmp_path, capsys,
                                           role, content):
        raw = tmp_path / "raw"
        raw.mkdir()
        (raw / "cell.csv").write_bytes(MATR_CSV_HEADER + b"0,3.5,1,1,0,0\n")
        path = raw / "cell.csv" if role == "csv" else tmp_path / f"{role}.file"
        if role == "model":
            shutil.copytree(checkpoint_dir, tmp_path / "ckpt")
            path = tmp_path / "ckpt" / "model_seed0.bin"
        if content == "directory":
            path.mkdir()
        elif callable(content):
            content(path)
        elif content is not None:
            path.write_bytes(content)
        config = tmp_path / "train.yaml"
        config.write_text(yaml.safe_dump({**TRAIN_CONFIG, "train_test_split": {
            "name": "FixedSplitTrainTestSplitter", "path": str(path),
            "cell_data_path": str(corpus_dir)}}))
        argv = {
            "column-map": ["preprocess", "MATR", str(raw), str(tmp_path / "out"),
                           "--column-map", str(path)],
            "csv": ["preprocess", "MATR", str(raw), str(tmp_path / "out")],
            "spec": ["generate", "--spec", str(path), "--out", str(tmp_path / "out")],
            "config": ["train", "--config", str(path), "--workspace", str(tmp_path / "ws")],
            "split": ["train", "--config", str(config), "--workspace", str(tmp_path / "ws")],
            "model": ["evaluate", "--checkpoint", str(path.parent)],
        }[role]
        assert main(argv) == 1
        assert_one_line_error(capsys, f"{path}: ")


class TestPlotsModule:
    def test_series_validation(self):
        with pytest.raises(ValueError, match="same length"):
            Series("s", (1.0, 2.0), (1.0,))
        with pytest.raises(ValueError, match="is empty"):
            Series("s", (), ())

    def test_csv_round_trip_is_exact(self, tmp_path):
        series = [
            Series("cell, with comma", (0.1, 0.2, 1e-17), (3.3333333333333335, -1.0, 2.0)),
            Series("plain", (5.0,), (7.0,)),
        ]
        path = write_series_csv(series, tmp_path / "pts.csv")
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["series", "x", "y"]
        expected = [(s.name, xv, yv) for s in series for xv, yv in zip(s.x, s.y)]
        assert len(rows) == 1 + len(expected)
        for (name, x, y), (ename, xv, yv) in zip(rows[1:], expected):
            assert (name, x, y) == (ename, repr(xv), repr(yv))
            assert float(x) == xv and float(y) == yv

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown plot kind"):
            make_plot("heatmap", tmp_path / "x")

    def test_missing_report(self, tmp_path):
        with pytest.raises(CheckpointError, match=re.escape(f"{tmp_path / 'report.json'}: cannot read")):
            pred_vs_truth_series(tmp_path)

    def test_empty_predictions(self, tmp_path):
        (tmp_path / "report.json").write_text(json.dumps(
            {"predictions": {"cell_id": [], "y_true": [], "y_pred": []}, "excluded": []}))
        with pytest.raises(CheckpointError, match="no predictions"):
            pred_vs_truth_series(tmp_path)

    def test_flat_series_still_renders(self, corpus_dir, tmp_path):
        # constant-SOH data must not divide by a zero span
        from cellforge.plots import render_svg

        flat = [Series("flat", (0.0, 1.0, 2.0), (5.0, 5.0, 5.0))]
        path = render_svg(flat, tmp_path / "flat.svg", scatter=False,
                          title="t", x_label="x", y_label="y")
        assert path.read_text().startswith("<svg ")

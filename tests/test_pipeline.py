"""End-to-end and unit tests for the config-driven experiment runner."""

import ast
import csv
import dataclasses
import hashlib
import inspect
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import zlib
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import cellforge
from cellforge import battery_data, container, pipeline
from cellforge.battery_data import CycleData, load_cells, read_cell, write_cell, write_container
from cellforge.cli import main as cli_main
from cellforge.errors import (
    CellforgeError,
    CheckpointError,
    ConfigError,
    PipelineError,
    RegistryError,
    SplitError,
    TransformError,
)
from cellforge.features import (MAX_POINTS, BaseFeatureExtractor, FeatureMatrix, RowKeys,
                                VarianceModelFeatureExtractor)
from cellforge.ingestion import packaged_column_map_path
from cellforge.labels import LabelSpec, SOHLabelAnnotator, rul_label
from cellforge.models import BaseRegressor, LinearRegressor, load_model
from cellforge.pipeline import (
    DEFAULT_SEEDS,
    FEATURES_MAGIC,
    Checkpoint,
    PipelineConfig,
    _first_unordered,
    mae,
    read_features,
    read_report,
    rmse,
    run_evaluate,
    run_train,
)
from cellforge.registry import FEATURES, LABELS, MODELS, SPLITTERS, TRANSFORMS, integer, register
from cellforge.synthetic import SynthSpec, generate_synthetic
from cellforge.transforms import ZScoreDataTransformation, _Fitted

from conftest import make_cell, prediction_rows, read_model_file

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
# every file of the ``trained`` checkpoint; the linear model takes no seed, so
# one fit scores both seeds
CHECKPOINT_FILES = (
    "config.yaml",
    "report.json",
    "split.json",
    "transforms.json",
    "features_test.bin",
    "models.bin",
)

def make_config(**sections):
    """A fast RUL experiment config; keyword args replace whole sections."""
    cfg = {
        "train_test_split": {
            "name": "RandomTrainTestSplitter",
            "test_fraction": 0.25,
            "seed": 3,
        },
        "feature": {"name": "VarianceModelFeatureExtractor", "interp_dims": 64},
        "feature_transformation": {"name": "ZScoreDataTransformation"},
        "label": {"name": "RULLabelAnnotator"},
        "label_transformation": {"name": "ZScoreDataTransformation"},
        "model": {"name": "LinearRegressionRULPredictor"},
        "seeds": [0, 1],
    }
    cfg.update(sections)
    return cfg


# every cell outlives cycle 99, which the variance feature reads; a larger
# n_cells adds cells and leaves the first ones as they are
PIPE_SPEC = dict(cycle_life_mean=150.0, cycle_life_std=12.0, points_per_cycle=16, seed=21)


@pytest.fixture(scope="module")
def pipe_cells():
    return generate_synthetic(SynthSpec(n_cells=8, **PIPE_SPEC))


@pytest.fixture(scope="module")
def trained(pipe_cells, tmp_path_factory):
    ws = tmp_path_factory.mktemp("ws_main")
    ckpt = run_train(make_config(), workspace=ws, cells=pipe_cells)
    return ckpt


def rul_oracle(cell, percent=80.0):
    return float(rul_label(cell, LabelSpec(eol_soh_percent=percent)))


class TestConfigParsing:
    def test_unknown_key_rejected(self):
        cfg = make_config()
        cfg["extra"] = 1
        with pytest.raises(ConfigError, match=r"unknown config keys: \['extra'\]"):
            PipelineConfig.from_dict(cfg)

    def test_missing_keys_listed(self):
        cfg = make_config()
        del cfg["label"], cfg["model"]
        with pytest.raises(ConfigError, match=r"missing config keys: \['label', 'model'\]"):
            PipelineConfig.from_dict(cfg)

    def test_root_must_be_mapping(self):
        with pytest.raises(ConfigError, match="config root must be a mapping"):
            PipelineConfig.from_dict(["not", "a", "mapping"])

    def test_section_must_be_mapping(self):
        cfg = make_config(feature="VarianceModelFeatureExtractor")
        with pytest.raises(ConfigError, match="'feature' section must be a mapping"):
            PipelineConfig.from_dict(cfg)

    @pytest.mark.parametrize("section", [{}, {"name": ""}, {"name": 7}])
    def test_section_needs_name(self, section):
        cfg = make_config(model=section)
        with pytest.raises(ConfigError, match="needs a non-empty 'name' string"):
            PipelineConfig.from_dict(cfg)

    @pytest.mark.parametrize("seeds", ["nope", [], [0, 1.5], [0, True]])
    def test_bad_seeds_rejected(self, seeds):
        cfg = make_config(seeds=seeds)
        with pytest.raises(ConfigError, match="'seeds' must be a non-empty list"):
            PipelineConfig.from_dict(cfg)

    def test_duplicate_seeds_rejected(self):
        cfg = make_config(seeds=[4, 4])
        with pytest.raises(ConfigError, match="'seeds' must not repeat"):
            PipelineConfig.from_dict(cfg)

    def test_default_seeds(self):
        cfg = make_config()
        del cfg["seeds"]
        assert PipelineConfig.from_dict(cfg).seeds == DEFAULT_SEEDS == tuple(range(10))

    def test_workspace_must_be_string(self):
        cfg = make_config(workspace=123)
        with pytest.raises(ConfigError, match="'workspace' must be a string"):
            PipelineConfig.from_dict(cfg)

    def test_unsupported_value_type_rejected(self):
        cfg = make_config(feature={"name": "VarianceModelFeatureExtractor", "bad": object()})
        with pytest.raises(ConfigError, match="unsupported config value type"):
            PipelineConfig.from_dict(cfg)

    def test_numpy_scalars_normalized(self):
        cfg = make_config(
            feature={"name": "VarianceModelFeatureExtractor", "interp_dims": np.int64(64)}
        )
        parsed = PipelineConfig.from_dict(cfg)
        dims = parsed.to_dict()["feature"]["interp_dims"]
        assert dims == 64 and type(dims) is int

    def test_to_dict_round_trip(self):
        cfg = make_config()
        parsed = PipelineConfig.from_dict(cfg)
        assert parsed.to_dict() == cfg
        assert PipelineConfig.from_dict(parsed.to_dict()) == parsed

    def test_workspace_omitted_from_dict_when_unset(self):
        assert "workspace" not in PipelineConfig.from_dict(make_config()).to_dict()

    def test_load_passes_through_instances(self):
        parsed = PipelineConfig.from_dict(make_config())
        assert PipelineConfig.load(parsed) is parsed

    def test_from_yaml_file(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump(make_config()))
        parsed = PipelineConfig.from_yaml(path)
        assert parsed.source_path == path
        assert parsed.to_dict() == make_config()

    def test_from_yaml_invalid_yaml(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("a: [1,")
        with pytest.raises(ConfigError, match="not valid YAML"):
            PipelineConfig.from_yaml(path)

    def test_from_yaml_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match=re.escape(f"{tmp_path / 'absent.yaml'}: cannot read")):
            PipelineConfig.from_yaml(tmp_path / "absent.yaml")


class TestConfigHash:
    def test_hash_matches_canonical_sha256(self):
        parsed = PipelineConfig.from_dict(make_config())
        payload = {k: v for k, v in parsed.to_dict().items() if k != "seeds"}
        canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        assert parsed.config_hash() == hashlib.sha256(canon.encode()).hexdigest()

    def test_seeds_and_workspace_do_not_change_hash(self):
        base = PipelineConfig.from_dict(make_config()).config_hash()
        assert PipelineConfig.from_dict(make_config(seeds=[42])).config_hash() == base
        assert (
            PipelineConfig.from_dict(make_config(workspace="elsewhere")).config_hash()
            == base
        )

    def test_component_params_change_hash(self):
        base = PipelineConfig.from_dict(make_config()).config_hash()
        other = make_config(
            feature={"name": "VarianceModelFeatureExtractor", "interp_dims": 65}
        )
        assert PipelineConfig.from_dict(other).config_hash() != base

    def test_key_order_does_not_change_hash(self):
        reordered = make_config(
            train_test_split={
                "seed": 3,
                "test_fraction": 0.25,
                "name": "RandomTrainTestSplitter",
            }
        )
        assert (
            PipelineConfig.from_dict(reordered).config_hash()
            == PipelineConfig.from_dict(make_config()).config_hash()
        )

    def test_run_name_uses_stem_and_hash_prefix(self, tmp_path):
        parsed = PipelineConfig.from_dict(make_config())
        assert parsed.run_name() == f"run_{parsed.config_hash()[:8]}"
        path = tmp_path / "variance_rul.yaml"
        path.write_text(yaml.safe_dump(make_config()))
        from_file = PipelineConfig.from_yaml(path)
        assert from_file.run_name() == f"variance_rul_{from_file.config_hash()[:8]}"


class TestMetrics:
    def test_rmse(self):
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(np.sqrt(12.5))
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_mae(self):
        assert mae([0.0, 0.0], [3.0, -4.0]) == 3.5


def random_keys(data, levels, pools):
    """Random runs of cells ``A``–``D``, no two adjacent runs of one cell,
    with the given levels, their values drawn from ``pools``: the keys as
    ``RowKeys`` and as the ``(cell_id, cycle, step)`` tuples they stood for."""
    cells = data.draw(st.lists(st.sampled_from("ABCD"), max_size=4))
    cells = [c for i, c in enumerate(cells) if i == 0 or c != cells[i - 1]]
    runs, tuples = [], []
    for cell_id in cells:
        n = data.draw(st.integers(1, 5))
        rows = [[data.draw(st.sampled_from(pool)) if name in levels else None
                 for name, pool in zip(("cycle", "step"), pools)] for _ in range(n)]
        runs.append([cell_id, n])
        tuples += [(cell_id, *row) for row in rows]
    columns = {name: [t[i] for t in tuples] for i, name in ((1, "cycle"), (2, "step")) if name in levels}
    return RowKeys(runs, columns.get("cycle"), columns.get("step")), tuples


class TestRowOrder:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_first_unordered_equals_the_pairwise_scan(self, data):
        pools = [data.draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=3))
                 for _ in range(2)]
        levels = data.draw(st.sampled_from([(), ("cycle",), ("step",), ("cycle", "step")]))
        keys, tuples = random_keys(data, levels, pools)
        # the scan it replaced, which returned the row key that breaks the order
        want = next((i for i, (a, b) in enumerate(zip(tuples, tuples[1:]), 1)
                     if a[0] == b[0] and not a < b), None)
        assert _first_unordered(keys) == want


@pytest.fixture(scope="module")
def pipe_corpus(pipe_cells, tmp_path_factory):
    """The ``pipe_cells`` as cell files."""
    corpus = tmp_path_factory.mktemp("pipe_corpus")
    for cell in pipe_cells:
        write_cell(cell, corpus)
    return corpus


# The built-in extractors and annotators, and parameters that keep each small on the
# pipe corpus; one added to the package is walked with its defaults unless named here.
BUILT_IN = {kind: sorted(name for name in registry.names()
                         if registry.get_factory(name).__module__.startswith("cellforge."))
            for kind, registry in (("feature", FEATURES), ("label", LABELS))}
SMALL = {
    "VarianceModelFeatureExtractor": {"interp_dims": 8},
    "DischargeModelFeatureExtractor": {"interp_dims": 8},
    "FullModelFeatureExtractor": {"interp_dims": 8},
    "VoltageCapacityMatrixFeatureExtractor": {"interp_dims": 4, "max_cycle_index": 9, "cycles_to_keep": 10},
    "SOHCycleFeatureExtractor": {"max_cycle_index": 9},
    "SOCStepFeatureExtractor": {"n_qdlin": 4, "max_cycle_index": 2},
}
# Each level of `rows`, and the key columns past `cell_id` that report.json holds at it.
LEVELS = {"cell": set(), "cycle": {"cycle"}, "step": {"cycle", "step"}}


class TestConfigRefusedBeforeReading:
    """A bad model or transformation section, a feature or a label that
    states no row level, or a feature and a label of different row levels,
    fails before the first cell is read."""

    def train(self, corpus, tmp_path, monkeypatch, **sections):
        reads = []
        monkeypatch.setattr(pipeline, "read_cell", lambda path: reads.append(path) or read_cell(path))
        cfg = make_config(**sections)
        cfg["train_test_split"]["cell_data_path"] = str(corpus)
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(cfg))
        return cli_main(["train", "--config", str(path), "--workspace", str(tmp_path / "ws")]), reads

    def test_a_good_config_reads_every_cell(self, pipe_corpus, tmp_path, monkeypatch):
        code, reads = self.train(pipe_corpus, tmp_path, monkeypatch)
        assert code == 0 and sorted(reads) == sorted(pipe_corpus.iterdir())

    @pytest.mark.parametrize("section, value", [
        ("model", {"name": "NoSuchModel"}),
        ("model", {"name": "RidgeRegressor", "alpha": -1}),
        ("feature_transformation", {"name": "NoSuchTransformation"}),
        ("feature_transformation", {"name": "ZScoreDataTransformation", "scale": 2}),
        ("label_transformation", {"name": "NoSuchTransformation"}),
        ("label_transformation", {"name": "ZScoreDataTransformation", "scale": 2}),
        ("feature_transformation", {"name": "SequentialDataTransformation",
                                    "transformations": [{"name": "NoSuchTransformation"}]}),
        ("label_transformation", {"name": "SequentialDataTransformation",
                                  "transformations": [{"name": "LogScaleDataTransformation"},
                                                      {"name": "ZScoreDataTransformation", "scale": 2}]}),
    ], ids=["model-name", "model-parameter", "feature-transformation-name",
            "feature-transformation-parameter", "label-transformation-name",
            "label-transformation-parameter", "sequential-child-name", "sequential-child-parameter"])
    def test_one_error_line_and_no_cell_read(self, pipe_corpus, tmp_path, monkeypatch, capsys,
                                             section, value):
        assert self.train(pipe_corpus, tmp_path, monkeypatch, **{section: value}) == (1, [])
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "ws").exists()

    @pytest.mark.parametrize("feature, budget", [
        ({"name": "VarianceModelFeatureExtractor", "interp_dims": 8}, 50),
        ({"name": "FullModelFeatureExtractor", "interp_dims": 8, "critical_cycles": [2, 9, 40]}, 50),
        ({"name": "VoltageCapacityMatrixFeatureExtractor", "interp_dims": 4, "max_cycle_index": 99}, 50),
        ({"name": "EveryCycleFixedExtractor"}, 500),
    ], ids=["variance", "full", "matrix", "fixed-without-horizon"])
    def test_an_extractor_past_the_budget_reads_no_cell(self, pipe_corpus, tmp_path, monkeypatch, capsys,
                                                       feature, budget):
        monkeypatch.setitem(FEATURES._factories, "EveryCycleFixedExtractor", _EveryCycleFixedExtractor)
        ids = sorted(p.stem for p in pipe_corpus.iterdir())
        split = {"name": "ExplicitTrainTestSplitter", "train_ids": ids[:6], "test_ids": ids[6:],
                 "metadata": {"observed_cycles": budget}}
        code, reads = self.train(pipe_corpus, tmp_path, monkeypatch, train_test_split=split, feature=feature)
        assert (code, reads) == (1, [])
        what = "every cycle" if feature["name"] == "EveryCycleFixedExtractor" else "the first 100 cycles"
        assert capsys.readouterr().err == (f"error: {feature['name']}: reads {what}, "
                                           f"past the observed-cycle budget of {budget}\n")
        assert not (tmp_path / "ws").exists()

    @pytest.mark.parametrize("section, name", [("feature", "NoRowsExtractor"),
                                               ("label", "SOHLabelsOfWhatIsGiven")])
    def test_a_component_that_states_no_rows_reads_no_cell(self, pipe_corpus, tmp_path, monkeypatch,
                                                           capsys, section, name):
        # a registered extractor or annotator of no rows was joined to the other by row key,
        # so a pair of two levels read every cell and ended in one line that they shared none
        monkeypatch.setitem(FEATURES._factories, "NoRowsExtractor", _NoRowsExtractor)
        monkeypatch.setitem(LABELS._factories, "SOHLabelsOfWhatIsGiven", _SOHLabelsOfWhatIsGiven)
        assert self.train(pipe_corpus, tmp_path, monkeypatch, **{section: {"name": name}}) == (1, [])
        assert capsys.readouterr().err == (f"error: {name} must state its rows as 'cell', 'cycle' "
                                           "or 'step', not None\n")
        assert not (tmp_path / "ws").exists()

    def test_every_built_in_component_states_its_rows(self):
        for kind, registry in (("feature", FEATURES), ("label", LABELS)):
            assert BUILT_IN[kind]
            for name in BUILT_IN[kind]:
                assert getattr(registry.get_factory(name), "rows", None) in LEVELS, name

    @pytest.mark.parametrize("feature, label",
                             [(f, lb) for f in BUILT_IN["feature"] for lb in BUILT_IN["label"]])
    def test_every_pair_trains_or_reads_no_cell(self, pipe_corpus, tmp_path, monkeypatch, capsys,
                                                feature, label):
        # the pairs of one level train and evaluate; each other pair failed only once every
        # training cell was read, labelled and featurized
        rows, label_rows = FEATURES.get_factory(feature).rows, LABELS.get_factory(label).rows
        code, reads = self.train(pipe_corpus, tmp_path, monkeypatch, seeds=[0], label={"name": label},
                                 feature={"name": feature, **SMALL.get(feature, {})})
        err = capsys.readouterr().err
        if rows != label_rows:
            assert (code, reads) == (1, [])
            assert err == (f"error: {feature} makes one row per {rows} and {label} one per "
                           f"{label_rows}; a feature and a label must make rows of one level\n")
            assert not (tmp_path / "ws").exists()
            return
        assert (code, err) == (0, "") and sorted(reads) == sorted(pipe_corpus.iterdir())
        [checkpoint] = (tmp_path / "ws").iterdir()
        report = read_report(checkpoint)
        assert run_evaluate(checkpoint) == report
        assert set(report["predictions"]) - {"cell_id", "y_true", "y_pred"} == LEVELS[rows]

    @pytest.mark.parametrize("section, liar, other, stated, made", [
        ("feature", "CycleRowsOfCells", {"name": "SOHLabelAnnotator"}, "cycle", "cell"),
        ("label", "StepRowsOfCycles", {"name": "SOCStepFeatureExtractor", "n_qdlin": 4, "max_cycle_index": 9},
         "step", "cycle"),
    ], ids=["feature", "label"])
    def test_keys_of_another_level_than_the_stated_rows_fail_after_one_cell(
            self, pipe_corpus, tmp_path, monkeypatch, capsys, section, liar, other, stated, made):
        # an extractor stating "cycle" and returning cell keys read every training cell, joined
        # nothing and ended in the line that the feature and label rows share no keys
        monkeypatch.setitem(FEATURES._factories, "CycleRowsOfCells", _CycleRowsOfCells)
        monkeypatch.setitem(LABELS._factories, "StepRowsOfCycles", _StepRowsOfCycles)
        sections = {section: {"name": liar}, "label" if section == "feature" else "feature": other}
        code, reads = self.train(pipe_corpus, tmp_path, monkeypatch, seeds=[0], **sections)
        assert (code, len(reads)) == (1, 1)
        err = capsys.readouterr().err
        assert err == f"error: {liar} states one row per {stated} but returned one per {made}\n"
        assert not (tmp_path / "ws").exists()


class _EveryCycleFixedExtractor(VarianceModelFeatureExtractor):
    """The variance feature, stating no horizon but one of fixed cycles."""

    horizon = None


class _CycleCountExtractor(BaseFeatureExtractor):
    """The simplest subclass: ``col_names``, ``rows`` and ``process_cell``
    alone, one row per cell holding its number of cycles."""

    col_names = ["cycles"]
    rows = "cell"

    def process_cell(self, cell):
        return np.array([[len(cell.cycle_data)]]), RowKeys([[cell.cell_id, 1]])


class _NoRowsExtractor(_CycleCountExtractor):
    """Leaves ``rows`` at the ``BaseFeatureExtractor`` default, None."""

    rows = BaseFeatureExtractor.rows


class _CycleRowsOfCells(_CycleCountExtractor):
    """States one row per cycle, and returns one per cell."""

    rows = "cycle"


class _StepRowsOfCycles(SOHLabelAnnotator):
    """States one row per step, and returns one per cycle."""

    rows = "step"


@pytest.mark.parametrize("extractor", [_EveryCycleFixedExtractor, _CycleCountExtractor],
                         ids=["fixed-without-horizon", "base-subclass"])
def test_an_extractor_without_a_horizon_trains_with_no_budget(pipe_cells, pipe_corpus, tmp_path,
                                                              monkeypatch, capsys, extractor):
    # a horizon of None reads every cycle with no minimum; `cellforge train` of either
    # ended in a TypeError traceback
    monkeypatch.setitem(FEATURES._factories, "NoHorizon", extractor)
    features = extractor().extract(pipe_cells)
    assert features.values.shape == (len(pipe_cells), 1)
    if extractor is _CycleCountExtractor:
        assert features.values[:, 0].tolist() == [len(cell.cycle_data) for cell in pipe_cells]
    cfg = make_config(feature={"name": "NoHorizon"})
    cfg["train_test_split"]["cell_data_path"] = str(pipe_corpus)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert cli_main(["train", "--config", str(path), "--workspace", str(tmp_path / "ws")]) == 0
    [checkpoint] = (tmp_path / "ws").iterdir()
    assert cli_main(["evaluate", "--checkpoint", str(checkpoint)]) == 0
    assert capsys.readouterr().err == ""
    assert run_evaluate(checkpoint) == read_report(checkpoint)


class TestRunTrain:
    def test_returns_checkpoint_with_report(self, trained):
        assert isinstance(trained, Checkpoint)
        assert trained.directory.is_dir()
        cfg = PipelineConfig.from_dict(make_config())
        assert trained.directory.name == f"run_{cfg.config_hash()[:8]}"
        assert trained.report["config_hash"] == cfg.config_hash()

    def test_checkpoint_layout(self, trained):
        names = {p.name for p in trained.directory.iterdir()}
        assert names == set(CHECKPOINT_FILES)

    def test_stored_config_reparses_to_same_experiment(self, trained):
        stored = yaml.safe_load((trained.directory / "config.yaml").read_text())
        assert stored == make_config()

    def test_report_schema(self, trained):
        report = trained.report
        assert set(report) == {
            "config_hash",
            "per_seed",
            "mean_rmse",
            "sd_rmse",
            "mean_mae",
            "sd_mae",
            "predictions",
            "excluded",
        }
        assert report["per_seed"]["seed"] == [0, 1]
        rmses = np.array(report["per_seed"]["rmse"])
        maes = np.array(report["per_seed"]["mae"])
        assert report["mean_rmse"] == float(rmses.mean())
        assert report["sd_rmse"] == float(rmses.std())
        assert report["mean_mae"] == float(maes.mean())
        assert report["sd_mae"] == float(maes.std())
        assert report["excluded"] == []
        assert "overrides" not in report

    @pytest.mark.parametrize("splitter", ["explicit", "random"])
    def test_a_cell_id_given_twice_is_refused(self, pipe_cells, tmp_path, splitter):
        # with an explicit split, the second cell silently replaced the first
        ids = [c.cell_id for c in pipe_cells]
        twin = dataclasses.replace(pipe_cells[3], cell_id=ids[2])
        cfg = make_config()
        if splitter == "explicit":
            cfg["train_test_split"] = {"name": "ExplicitTrainTestSplitter",
                                       "train_ids": ids[:6], "test_ids": ids[6:]}
        with pytest.raises(PipelineError, match=f"^cell_id '{ids[2]}' is given more than once$"):
            run_train(cfg, workspace=tmp_path, cells=[*pipe_cells, twin])
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("renamed, first", [(range(8), 0), ({2: 2, 3: 3}, 2), ({5: ""}, "")],
                             ids=["int", "int-and-str", "empty"])
    def test_a_cell_id_that_is_not_a_string_is_refused(self, pipe_cells, tmp_path, renamed, first):
        # validate() reports it, but cells in memory are not validated: int IDs trained a
        # checkpoint that evaluation refused, and int and str IDs ended in a TypeError from sorting
        cells = [dataclasses.replace(c, cell_id=renamed[i]) if i in renamed else c
                 for i, c in enumerate(pipe_cells)]
        with pytest.raises(PipelineError, match=f"^cell_id must be a non-empty string, got {first!r}$"):
            run_train(make_config(), workspace=tmp_path, cells=cells)
        assert not list(tmp_path.iterdir())

    def test_predictions_cover_test_cells_with_true_labels(self, trained, pipe_cells):
        by_id = {c.cell_id: c for c in pipe_cells}
        rows = prediction_rows(trained.report["predictions"])
        assert len(rows) == 2  # 8 cells, test_fraction 0.25
        for row in rows:
            assert set(row) == {"cell_id", "y_true", "y_pred"}
            assert row["y_true"] == rul_oracle(by_id[row["cell_id"]])
            assert np.isfinite(row["y_pred"])

    def test_report_json_matches_returned_report(self, trained):
        on_disk = json.loads((trained.directory / "report.json").read_text())
        assert on_disk == trained.report

    def test_no_module_writes_json_with_the_pure_python_encoder(self):
        # json.dump and any indent run in pure Python; battery_data.write_json
        # is the one writer, and it uses neither
        calls = []
        for path in sorted(Path(cellforge.__file__).parent.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call) and (
                        getattr(node.func, "attr", None) == "dump"
                        or any(k.arg == "indent" for k in node.keywords)):
                    calls.append(f"{path.name}:{node.lineno}")
        assert calls == []

    def test_split_json_partitions_corpus(self, trained, pipe_cells):
        payload = json.loads((trained.directory / "split.json").read_text())
        listed = set(payload["train"]) | set(payload["test"])
        assert listed == {c.cell_id for c in pipe_cells}
        assert not set(payload["train"]) & set(payload["test"])

    def test_stored_feature_matrices_align_with_labels(self, trained, pipe_cells):
        # the file stores no row keys: row i holds the features of prediction row i
        values = read_features(trained.directory / "features_test.bin")
        rows = prediction_rows(json.loads((trained.directory / "report.json").read_text())["predictions"])
        assert values.shape == (len(rows), 1) == (2, 1)
        by_id = {c.cell_id: c for c in pipe_cells}
        extractor = FEATURES.create("VarianceModelFeatureExtractor", interp_dims=64)
        assert values.tobytes() == extractor.extract([by_id[r["cell_id"]] for r in rows]).values.tobytes()

    def test_training_is_deterministic(self, pipe_cells, tmp_path):
        a = run_train(make_config(), workspace=tmp_path / "a", cells=pipe_cells)
        b = run_train(make_config(), workspace=tmp_path / "b", cells=pipe_cells)
        assert a.report == b.report
        assert (a.directory / "models.bin").read_bytes() == (
            b.directory / "models.bin"
        ).read_bytes()

    def test_config_file_edited_while_training_is_not_what_the_checkpoint_stores(
            self, pipe_cells, tmp_path, monkeypatch):
        # the checkpoint stores the config that trained it, so evaluate accepts it
        path = tmp_path / "named_run.yaml"
        path.write_text("# local tweak of the variance experiment\n" + yaml.safe_dump(make_config()))
        report = pipeline._report

        def edit_then_report(*args):
            path.write_text(yaml.safe_dump(make_config(
                feature={"name": "VarianceModelFeatureExtractor", "interp_dims": 32})))
            return report(*args)

        monkeypatch.setattr(pipeline, "_report", edit_then_report)
        ckpt = run_train(path, workspace=tmp_path / "ws", cells=pipe_cells)
        assert ckpt.directory.name.startswith("named_run_")
        assert "interp_dims: 32" in path.read_text()
        stored = (ckpt.directory / "config.yaml").read_text()
        assert stored == yaml.safe_dump(PipelineConfig.from_dict(make_config()).to_dict())
        assert run_evaluate(ckpt.directory) == ckpt.report

    def test_cells_loaded_from_cell_data_path(self, pipe_cells, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for cell in pipe_cells:
            write_cell(cell, corpus)
        cfg = make_config(
            train_test_split={
                "name": "RandomTrainTestSplitter",
                "test_fraction": 0.25,
                "seed": 3,
                "cell_data_path": str(corpus),
            }
        )
        ckpt = run_train(cfg, workspace=tmp_path / "ws", cells=None)
        expected = run_train(make_config(), workspace=tmp_path / "ws2", cells=pipe_cells)
        # cell_data_path feeds the splitter but stays out of the model stages
        assert ckpt.report["per_seed"] == expected.report["per_seed"]
        assert ckpt.report["predictions"] == expected.report["predictions"]

    def test_missing_cell_data_path_without_cells(self):
        with pytest.raises(ConfigError, match="needs 'cell_data_path'"):
            run_train(make_config(), cells=None)

    def test_empty_corpus_rejected(self):
        with pytest.raises(PipelineError, match="no cells to run on"):
            run_train(make_config(), cells=[])

    def test_unknown_component_name_lists_registered(self, pipe_cells, tmp_path):
        cfg = make_config(model={"name": "NoSuchModel"})
        with pytest.raises(RegistryError, match="unknown model 'NoSuchModel'; registered:"):
            run_train(cfg, workspace=tmp_path, cells=pipe_cells)

    def test_bad_component_params_reported(self, pipe_cells, tmp_path):
        cfg = make_config(model={"name": "RidgeRegressor", "bogus": 1})
        with pytest.raises(RegistryError, match="bad parameters"):
            run_train(cfg, workspace=tmp_path, cells=pipe_cells)

    def test_component_domain_errors_pass_through(self, pipe_cells, tmp_path):
        cfg = make_config(train_test_split={
            "name": "ExplicitTrainTestSplitter", "train_ids": "SYN_0000", "test_ids": ["SYN_0001"]})
        with pytest.raises(SplitError, match="train_ids must be a list of strings"):
            run_train(cfg, workspace=tmp_path, cells=pipe_cells)

    def test_transform_errors_pass_through_although_value_errors(self, pipe_cells, tmp_path):
        cfg = make_config(
            feature_transformation={"name": "SequentialDataTransformation", "transformations": []}
        )
        with pytest.raises(TransformError, match="needs at least one child"):
            run_train(cfg, workspace=tmp_path, cells=pipe_cells)


class TestSeedsAndFits:
    def test_ten_seed_linear_run_fits_once(self, pipe_cells, tmp_path, monkeypatch):
        fits = []
        original = LinearRegressor._fit
        monkeypatch.setattr(LinearRegressor, "_fit",
                            lambda self, X, y: fits.append(1) or original(self, X, y))
        ckpt = run_train(make_config(seeds=list(range(10))), workspace=tmp_path, cells=pipe_cells)
        assert len(fits) == 1
        assert sorted(p.name for p in ckpt.directory.glob("model*")) == ["models.bin"]
        assert "seeds" not in read_model_file(ckpt.directory / "models.bin")[0]  # one fit
        per_seed = ckpt.report["per_seed"]
        assert per_seed["seed"] == list(range(10))
        assert len(set(zip(per_seed["rmse"], per_seed["mae"]))) == 1
        assert ckpt.report["sd_rmse"] == 0.0
        assert run_evaluate(ckpt.directory) == ckpt.report
        assert len(fits) == 1

    @pytest.mark.parametrize("model, seeds, fits", [
        ({"name": "LinearRegressionRULPredictor"}, list(range(10)), 1),
        ({"name": "RandomForestRegressor", "n_trees": 2}, [4, 7, 9], 3),
    ], ids=["seedless", "seeded"])
    def test_each_fit_predicts_once(self, pipe_cells, tmp_path, monkeypatch, model, seeds, fits):
        calls = []
        original = BaseRegressor.predict
        monkeypatch.setattr(BaseRegressor, "predict",
                            lambda self, X: calls.append(id(self)) or original(self, X))
        ckpt = run_train(make_config(model=model, seeds=seeds), workspace=tmp_path, cells=pipe_cells)
        assert len(calls) == len(set(calls)) == fits
        assert ckpt.report["per_seed"]["seed"] == seeds
        calls.clear()
        assert run_evaluate(ckpt.directory) == ckpt.report
        assert len(calls) == fits

    def test_seeded_model_fits_every_seed(self, pipe_cells, tmp_path):
        cfg = make_config(model={"name": "RandomForestRegressor", "n_trees": 3}, seeds=[4, 7])
        ckpt = run_train(cfg, workspace=tmp_path, cells=pipe_cells)
        assert sorted(p.name for p in ckpt.directory.glob("model*")) == ["models.bin"]
        assert read_model_file(ckpt.directory / "models.bin")[0]["seeds"] == [4, 7]
        assert run_evaluate(ckpt.directory) == ckpt.report

    @pytest.mark.parametrize("trained, edited, fragment", [
        ([4, 7], [4], "holds the fits of seeds [4, 7], where the config asks for [4]; "
                      "train the checkpoint again"),
        ([4, 7], [4, 7, 9], "holds the fits of seeds [4, 7], where the config asks for [4, 7, 9]; "
                            "train the checkpoint again"),
        ([4, 7], [7, 4], "holds the fits of seeds [4, 7], where the config asks for [7, 4]; "
                         "train the checkpoint again"),
        ([4], [5], "holds the fit of seed 4, not of seed 5"),
        ([4], [4, 5], "holds the fit of seed 4, not of seed 5"),
    ], ids=["cut", "added", "reordered", "one-fit-other", "one-fit-added"])
    def test_a_models_file_of_other_seeds_than_the_config_is_refused(self, pipe_cells, tmp_path,
                                                                     trained, edited, fragment):
        cfg = make_config(model={"name": "RandomForestRegressor", "n_trees": 2}, seeds=trained)
        ckpt = run_train(cfg, workspace=tmp_path, cells=pipe_cells).directory
        (ckpt / "config.yaml").write_text(yaml.safe_dump({**cfg, "seeds": edited}))
        message = f"{ckpt / 'models.bin'}: {fragment}"
        with pytest.raises(CheckpointError, match=f"^{re.escape(message)}$"):
            run_evaluate(ckpt)


class TestAtomicCheckpoint:
    def test_failed_write_leaves_no_directory(self, pipe_cells, tmp_path, monkeypatch):
        def broken_save(self, path):
            raise OSError("disk full")

        monkeypatch.setattr(BaseRegressor, "save", broken_save)
        with pytest.raises(OSError, match="disk full"):
            run_train(make_config(), workspace=tmp_path, cells=pipe_cells)
        assert list(tmp_path.iterdir()) == []

    def test_rerun_replaces_the_older_checkpoint(self, pipe_cells, tmp_path):
        first = run_train(make_config(), workspace=tmp_path, cells=pipe_cells)
        (first.directory / "model_seed5.bin").write_bytes(b"stale")
        second = run_train(make_config(), workspace=tmp_path, cells=pipe_cells)
        assert second.directory == first.directory
        assert [p.name for p in tmp_path.iterdir()] == [first.directory.name]
        assert not (second.directory / "model_seed5.bin").exists()
        assert run_evaluate(second.directory) == second.report

    def test_concurrent_trains_of_one_run_both_succeed(self, pipe_cells, tmp_path):
        # both wrote into one fixed <run>.tmp/, which each removed when it started
        corpus, ws, config = tmp_path / "cells", tmp_path / "ws", tmp_path / "config.yaml"
        corpus.mkdir()
        for cell in pipe_cells:
            write_cell(cell, corpus)
        split = {"name": "RandomTrainTestSplitter", "test_fraction": 0.25, "seed": 3,
                 "cell_data_path": str(corpus)}
        config.write_text(yaml.safe_dump(make_config(train_test_split=split)))
        src = str(Path(cellforge.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        command = [sys.executable, "-m", "cellforge.cli", "--quiet", "train", "--config", str(config),
                   "--workspace", str(ws)]
        runs = [subprocess.Popen(command, env=env, stderr=subprocess.PIPE, text=True) for _ in range(2)]
        for run in runs:
            assert run.wait(timeout=300) == 0, run.stderr.read()
            run.stderr.close()
        (checkpoint,) = ws.iterdir()  # nothing else is left in the workspace
        assert run_evaluate(checkpoint) == json.loads((checkpoint / "report.json").read_text())


class TestExclusions:
    def immortal(self):
        # stays near 100 % SOH, so the RUL annotator cannot label it
        caps = tuple(1.0 - 0.001 * i for i in range(20))
        return make_cell("IMMORTAL", caps)

    def split_config(self, train_ids, test_ids, metadata=None, **sections):
        section = {
            "name": "ExplicitTrainTestSplitter",
            "train_ids": list(train_ids),
            "test_ids": list(test_ids),
        }
        if metadata is not None:
            section["metadata"] = metadata
        return make_config(train_test_split=section, **sections)

    def test_unlabelable_test_cell_is_reported_and_skipped(self, pipe_cells, tmp_path):
        ids = [c.cell_id for c in pipe_cells]
        cfg = self.split_config(ids[:6], [ids[6], "IMMORTAL"])
        ckpt = run_train(cfg, workspace=tmp_path, cells=pipe_cells + [self.immortal()])
        assert len(ckpt.report["excluded"]) == 1
        entry = ckpt.report["excluded"][0]
        assert entry["cell_id"] == "IMMORTAL"
        assert "80" in entry["reason"]
        assert [r["cell_id"] for r in prediction_rows(ckpt.report["predictions"])] == [ids[6]]

    def test_all_training_cells_excluded(self, pipe_cells, tmp_path):
        ids = [c.cell_id for c in pipe_cells]
        cfg = self.split_config(["IMMORTAL"], ids[:2])
        with pytest.raises(PipelineError, match="all training cells were excluded"):
            run_train(cfg, workspace=tmp_path, cells=pipe_cells + [self.immortal()])

    def test_all_test_cells_excluded(self, pipe_cells, tmp_path):
        ids = [c.cell_id for c in pipe_cells]
        cfg = self.split_config(ids[:6], ["IMMORTAL"])
        with pytest.raises(PipelineError, match="all test cells were excluded"):
            run_train(cfg, workspace=tmp_path, cells=pipe_cells + [self.immortal()])


class TestSplitMetadataOverrides:
    def split_section(self, pipe_cells, metadata):
        ids = [c.cell_id for c in pipe_cells]
        return {
            "name": "ExplicitTrainTestSplitter",
            "train_ids": ids[:6],
            "test_ids": ids[6:],
            "metadata": metadata,
        }

    def test_eol_soh_metadata_reaches_label_annotator(self, pipe_cells, tmp_path):
        cfg = make_config(
            train_test_split=self.split_section(pipe_cells, {"eol_soh": 90.0})
        )
        ckpt = run_train(cfg, workspace=tmp_path, cells=pipe_cells)
        by_id = {c.cell_id: c for c in pipe_cells}
        for row in prediction_rows(ckpt.report["predictions"]):
            assert row["y_true"] == rul_oracle(by_id[row["cell_id"]], percent=90.0)
            assert row["y_true"] < rul_oracle(by_id[row["cell_id"]], percent=80.0)

    def test_explicit_label_params_beat_metadata(self, pipe_cells, tmp_path):
        cfg = make_config(
            train_test_split=self.split_section(pipe_cells, {"eol_soh": 90.0}),
            label={"name": "RULLabelAnnotator", "eol_soh_percent": 80.0},
        )
        ckpt = run_train(cfg, workspace=tmp_path, cells=pipe_cells)
        by_id = {c.cell_id: c for c in pipe_cells}
        for row in prediction_rows(ckpt.report["predictions"]):
            assert row["y_true"] == rul_oracle(by_id[row["cell_id"]], percent=80.0)

    def test_observed_cycles_metadata_reaches_extractor(self, pipe_cells, tmp_path):
        for observed, message in [
            # a 50-cycle budget cannot cover the feature's cycle-99 read
            (50, "VarianceModelFeatureExtractor: reads the first 100 cycles, "
                 "past the observed-cycle budget of 50"),
            (2.5, "split metadata: observed_cycles must be an integer >= 1, got 2.5"),
        ]:
            cfg = make_config(
                train_test_split=self.split_section(pipe_cells, {"observed_cycles": observed})
            )
            with pytest.raises(CellforgeError, match=f"^{re.escape(message)}$"):
                run_train(cfg, workspace=tmp_path, cells=pipe_cells)

    @pytest.mark.parametrize("observed", [2.5, True, "20", 0])
    def test_observed_cycles_in_a_split_file_must_be_an_integer_of_at_least_one(
            self, pipe_cells, tmp_path, observed):
        ids = [c.cell_id for c in pipe_cells]
        split_file = tmp_path / "split.json"
        split_file.write_text(json.dumps(
            {"train": ids[:6], "test": ids[6:], "metadata": {"observed_cycles": observed}}))
        cfg = make_config(
            train_test_split={"name": "FixedSplitTrainTestSplitter", "path": str(split_file)})
        with pytest.raises(SplitError, match=f"^{re.escape(str(split_file))}: split metadata: "
                                             f"observed_cycles must be an integer >= 1, got "
                                             f"{re.escape(repr(observed))}$"):
            run_train(cfg, workspace=tmp_path, cells=pipe_cells)

    def test_a_registered_extractor_sees_at_most_the_budget(self, pipe_cells, tmp_path, monkeypatch):
        # an extractor shaped like the README's "Extending" example states no horizon;
        # the budget binds it as it binds the built-in ones
        seen = []

        class MeanVoltageOfEachCycle:
            col_names = ["mean_voltage"]
            rows = "cycle"

            def extract(self, cells):
                seen.extend((cell.cell_id, len(cell.cycle_data)) for cell in cells)
                values = [[cycle.voltage_in_V.mean()] for cell in cells for cycle in cell.cycle_data]
                keys = [RowKeys([[cell.cell_id, len(cell.cycle_data)]], cell.cycle_data.cycle_number)
                        for cell in cells]
                return FeatureMatrix(np.array(values), RowKeys.concat(keys), self.col_names)

        monkeypatch.setitem(FEATURES._factories, "MeanVoltageOfEachCycle", MeanVoltageOfEachCycle)
        cfg = make_config(train_test_split=self.split_section(pipe_cells, {"observed_cycles": 20}),
                          feature={"name": "MeanVoltageOfEachCycle"}, label={"name": "SOHLabelAnnotator"},
                          seeds=[0])
        ckpt = run_train(cfg, workspace=tmp_path, cells=pipe_cells)
        assert seen == [(c.cell_id, 20) for c in pipe_cells]
        assert all(len(c.cycle_data) > 20 for c in pipe_cells)
        assert run_evaluate(ckpt.directory) == ckpt.report

    def eol_soh_split_file(self, pipe_cells, tmp_path, eol_soh):
        ids = [c.cell_id for c in pipe_cells]
        split_file = tmp_path / "split.json"
        split_file.write_text(json.dumps(
            {"train": ids[:6], "test": ids[6:], "metadata": {"eol_soh": eol_soh}}))
        return split_file

    def test_eol_soh_metadata_in_a_split_file_must_be_a_number(self, pipe_cells, tmp_path):
        # refused where the split is built, naming the split file, not the label parameter
        split_file = self.eol_soh_split_file(pipe_cells, tmp_path, "90")
        cfg = make_config(
            train_test_split={"name": "FixedSplitTrainTestSplitter", "path": str(split_file)})
        with pytest.raises(SplitError, match=f"^{re.escape(str(split_file))}: split metadata: "
                                             "eol_soh must be a finite number, got '90'$"):
            run_train(cfg, workspace=tmp_path, cells=pipe_cells)

    @pytest.mark.parametrize("label, eol_soh, reason", [
        ("RULLabelAnnotator", 0, "must be > 0, got 0"),
        ("RULLabelAnnotator", 100, "must be < 100, got 100"),
        ("RULLabelAnnotator", True, "must be a finite number, got True"),
        # an annotator that takes no threshold accepted any value before
        ("SOHLabelAnnotator", "90", "must be a finite number, got '90'"),
    ], ids=["zero", "hundred", "bool", "soh-label-string"])
    def test_eol_soh_in_a_split_file_is_checked_where_the_split_is_built(
            self, pipe_cells, tmp_path, label, eol_soh, reason):
        split_file = self.eol_soh_split_file(pipe_cells, tmp_path, eol_soh)
        cfg = make_config(
            train_test_split={"name": "FixedSplitTrainTestSplitter", "path": str(split_file)},
            label={"name": label})
        with pytest.raises(SplitError, match=f"^{re.escape(str(split_file))}: split metadata: "
                                             f"eol_soh {re.escape(reason)}$"):
            run_train(cfg, workspace=tmp_path, cells=pipe_cells)

    def test_a_feature_section_cannot_set_the_budget(self, pipe_cells, tmp_path):
        # the budget is the split's alone: a feature section neither sets nor raises it
        for metadata in ({}, {"observed_cycles": 50}):
            cfg = make_config(
                train_test_split=self.split_section(pipe_cells, metadata),
                feature={
                    "name": "VarianceModelFeatureExtractor",
                    "interp_dims": 64,
                    "observed_cycles": 120,
                },
            )
            with pytest.raises(RegistryError, match=re.escape(
                    "feature extractor 'VarianceModelFeatureExtractor': bad parameters: ") + ".*"
                    + re.escape("unexpected keyword argument 'observed_cycles'")):
                run_train(cfg, workspace=tmp_path, cells=pipe_cells)


class _SpyTransformation(ZScoreDataTransformation):
    """Records the shape of every fit call; used to prove train-only fitting."""

    fit_shapes: list = []

    def fit(self, data):
        type(self).fit_shapes.append(np.asarray(data, dtype=float).shape)
        return super().fit(data)


register("transform", "SpyFeatureTransformation", _SpyTransformation)


class TestTransformFitScope:
    def test_transforms_fit_on_training_rows_only(self, pipe_cells, tmp_path):
        _SpyTransformation.fit_shapes.clear()
        cfg = make_config(
            feature_transformation={"name": "SpyFeatureTransformation"},
            label_transformation={"name": "SpyFeatureTransformation"},
        )
        run_train(cfg, workspace=tmp_path, cells=pipe_cells)
        assert _SpyTransformation.fit_shapes == [(6, 1), (6,)]


class _MedianRegressor(BaseRegressor):
    """Predicts the training-label median; a model known only to the registry."""

    kind = "median"

    def _fit(self, X, y):
        self.median_ = float(np.median(y))

    def _predict(self, X):
        return np.full(X.shape[0], self.median_)

    def _param_blocks(self):
        return [("median", np.array([self.median_]))]

    def _restore_blocks(self, blocks):
        self.median_ = float(blocks["median"][0])


class _CenterTransformation(_Fitted):
    """Subtracts the training mean; a transformation known only to the registry."""

    name = "CenterDataTransformation"

    def _fit(self, arr):
        self.mean_ = float(arr.mean())

    def _transform(self, arr):
        return arr - self.mean_

    def _inverse(self, arr):
        return arr + self.mean_

    def _state(self):
        return {"mean": self.mean_}

    @classmethod
    def _restore(cls, state):
        t = cls()
        t.mean_ = float(state["mean"])
        return t


register("model", "MedianRegressor", _MedianRegressor)
register("transform", "CenterDataTransformation", _CenterTransformation)


# integer parameters whose default is None, with a value every component takes
_NONE_DEFAULT_INTEGERS = {"max_depth": 100, "max_cycle_index": 100}


def _stored(component, parameter):
    """The value a component keeps for ``parameter``: its attribute of that
    name, or that of one of its attributes (a label annotator's spec)."""
    for holder in (component, *vars(component).values()):
        if hasattr(holder, parameter):
            return getattr(holder, parameter)
    raise AssertionError(f"{type(component).__name__} keeps no {parameter!r}")


# The values the hostile-value walk gives each constructor parameter, one at a time.
HOSTILE_VALUES = ["x", True, None, [], ["x"], {"a": 1}, -1, 0, 1.5, 2**47, 2**63]
# Loop counts: a huge one is a request that runs for ages, not one that fails.
LOOP_COUNTS = {"epochs", "n_trees"}
# Per registry, the config section its class fills.
WALKED_SECTIONS = {"train_test_split": SPLITTERS, "feature": FEATURES, "label": LABELS,
                   "label_transformation": TRANSFORMS, "model": MODELS}


def walk_start(name: str, corpus: Path, split_file: Path) -> dict:
    """The config sections a walk of the class registered as ``name`` starts
    from, over a fast RUL config: parameters that keep each case small, and
    the feature or label whose rows the class's rows match."""
    ids = sorted(p.stem for p in corpus.glob("*.cfc"))
    soh_feature = {"name": "SOHCycleFeatureExtractor", "max_cycle_index": 9}
    soc_feature = {"name": "SOCStepFeatureExtractor", "n_qdlin": 4, "max_cycle_index": 9}
    soc_label = {"name": "SOCLabelAnnotator"}
    return {
        "VarianceModelFeatureExtractor": {"feature": {"interp_dims": 8}},
        "DischargeModelFeatureExtractor": {"feature": {"interp_dims": 8}},
        "FullModelFeatureExtractor": {"feature": {"interp_dims": 8}},
        "VoltageCapacityMatrixFeatureExtractor": {
            "feature": {"interp_dims": 4, "max_cycle_index": 9, "cycles_to_keep": 10}},
        "SOHCycleFeatureExtractor": {"feature": soh_feature, "label": {"name": "SOHLabelAnnotator"}},
        "SOCStepFeatureExtractor": {"feature": soc_feature, "label": soc_label},
        "SOHLabelAnnotator": {"feature": soh_feature},
        "SOCLabelAnnotator": {"feature": soc_feature, "label": soc_label},
        "SequentialDataTransformation": {
            "label_transformation": {"transformations": [{"name": "ZScoreDataTransformation"}]}},
        "MLPRegressor": {"model": {"epochs": 3}},
        "RandomForestRegressor": {"model": {"n_trees": 2}},
        "ExplicitTrainTestSplitter": {"train_test_split": {"train_ids": ids[:4], "test_ids": ids[4:]}},
        "FixedSplitTrainTestSplitter": {"train_test_split": {"path": str(split_file)}},
    }.get(name, {})


def hostile_cases(corpus: Path, split_file: Path):
    """``(case, command, document)`` for every constructor parameter of every
    registered class and of ``SynthSpec``, set to each hostile value in turn:
    a config for ``train``, or a generator spec for ``generate``."""
    base = make_config(train_test_split={"name": "RandomTrainTestSplitter", "test_fraction": 0.34},
                       feature={"name": "VarianceModelFeatureExtractor", "interp_dims": 8},
                       seeds=[0])
    base["train_test_split"]["cell_data_path"] = str(corpus)
    spec = {"n_cells": 2, "cycle_life_mean": 20.0, "cycle_life_std": 0.0, "points_per_cycle": 16}
    walked = [("generate", "SynthSpec", [f.name for f in dataclasses.fields(SynthSpec)], None)]
    for section, registry in WALKED_SECTIONS.items():
        for name in registry.names():
            factory = registry.get_factory(name)
            parameters = [p.name for p in inspect.signature(factory).parameters.values()
                          if p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)]
            walked.append(("train", name, parameters, section))
    for command, name, parameters, section in walked:
        start = json.loads(json.dumps(base))
        for key, fields in walk_start(name, corpus, split_file).items():
            start[key] = {**start[key], **fields}
        for parameter in parameters:
            for value in HOSTILE_VALUES:
                if parameter in LOOP_COUNTS and isinstance(value, int) and value >= 2**47:
                    continue
                case = f"{name}.{parameter}={value!r}"
                if command == "generate":
                    yield case, command, {**spec, parameter: value}
                else:
                    yield case, command, {**start, section: {**start[section], "name": name,
                                                             parameter: value}}


class TestRegisteredComponents:
    def test_every_integer_parameter_refuses_what_is_not_an_integer(self):
        seen = set()
        for registry in (FEATURES, LABELS, MODELS, SPLITTERS):
            for name in registry.names():
                for p in inspect.signature(registry.get_factory(name)).parameters.values():
                    if type(p.default) is int:
                        valid = p.default
                    elif p.name in _NONE_DEFAULT_INTEGERS:
                        valid = _NONE_DEFAULT_INTEGERS[p.name]
                    else:
                        continue
                    seen.add(p.name)
                    for bad in (valid + 0.5, True, "3"):
                        with pytest.raises(RegistryError, match=f"bad parameters: {p.name} "):
                            registry.create(name, **{p.name: bad})
                    for good in (valid, np.int64(valid)):
                        value = _stored(registry.create(name, **{p.name: good}), p.name)
                        assert type(value) is int and value == valid, (name, p.name, good)
        assert {"interp_dims", "diff_base", "max_cycle_index",
                "cycles_to_keep", "n_qdlin", "first_cycle", "last_cycle", "smoothing_window",
                "n_components", "epochs", "batch_size", "seed", "max_depth",
                "min_samples_leaf", "n_trees"} <= seen

    def test_an_integer_maximum_is_inclusive(self):
        assert integer("n", 5, 2, 5) == 5
        with pytest.raises(ValueError, match=r"^n must be an integer <= 5, got 6$"):
            integer("n", 6, 2, 5)
        with pytest.raises(ValueError, match=r"^n must be an integer >= 2, got 1$"):
            integer("n", 1, 2, 5)

    @pytest.mark.parametrize("name, parameter", [
        ("VarianceModelFeatureExtractor", "interp_dims"),
        ("DischargeModelFeatureExtractor", "interp_dims"),
        ("FullModelFeatureExtractor", "interp_dims"),
        ("VoltageCapacityMatrixFeatureExtractor", "interp_dims"),
        ("SOCStepFeatureExtractor", "n_qdlin"),
    ])
    def test_every_array_length_parameter_is_bounded(self, name, parameter):
        # constructing allocates nothing the parameter sizes, so the bound itself is safe here
        assert getattr(FEATURES.create(name, **{parameter: MAX_POINTS}), parameter) == MAX_POINTS
        with pytest.raises(RegistryError, match=re.escape(
                f"bad parameters: {parameter} must be an integer <= {MAX_POINTS}, "
                f"got {MAX_POINTS + 1}")):
            FEATURES.create(name, **{parameter: MAX_POINTS + 1})

    def test_every_float_parameter_refuses_what_is_not_a_finite_number(self):
        seen = set()
        for registry in (FEATURES, LABELS, MODELS, SPLITTERS):
            for name in registry.names():
                for p in inspect.signature(registry.get_factory(name)).parameters.values():
                    if type(p.default) is float:
                        valid = p.default
                    elif p.name in ("v_min", "v_max"):  # None takes the cell's limit
                        valid = 3.0
                    else:
                        continue
                    seen.add(p.name)
                    for bad in (float("nan"), float("inf"), float("-inf"), True, "0.5"):
                        with pytest.raises(RegistryError, match=f"bad parameters: {p.name} "):
                            registry.create(name, **{p.name: bad})
                    for good in (valid, np.float64(valid)):
                        value = _stored(registry.create(name, **{p.name: good}), p.name)
                        assert type(value) is float and value == valid, (name, p.name, good)
        assert {"alpha", "learning_rate", "feature_subsample_fraction", "test_fraction",
                "eol_soh_percent", "v_min", "v_max"} <= seen

    def test_no_hostile_value_ends_in_a_traceback_or_a_warning(self, tmp_path, capsys,
                                                                 capped_address_space):
        # every constructor parameter takes each hostile value through the CLI, in this process
        # (numpy warnings are errors here); each case exits 0 or 2, or 1 with one error line
        corpus, split_file = tmp_path / "cells", tmp_path / "split.json"
        corpus.mkdir()
        for cell in generate_synthetic(SynthSpec(n_cells=6, cycle_life_mean=110.0, cycle_life_std=5.0,
                                                 points_per_cycle=16, seed=5)):
            write_cell(cell, corpus)
        ids = sorted(p.stem for p in corpus.glob("*.cfc"))
        split_file.write_text(json.dumps({"train": ids[:4], "test": ids[4:]}))
        failures, cases = [], 0
        for case, command, document in hostile_cases(corpus, split_file):
            cases += 1
            path = tmp_path / "case.yaml"
            path.write_text(yaml.safe_dump(document))
            argv = (["--quiet", "train", "--config", str(path), "--workspace", str(tmp_path / "ws")]
                    if command == "train" else
                    ["--quiet", "generate", "--spec", str(path), "--out", str(tmp_path / "out")])
            try:
                code = cli_main(argv)
            except BaseException as exc:  # a traceback, or a warning raised as an error
                code = f"{type(exc).__name__}: {exc}"
            err = capsys.readouterr().err
            one_line = code == 1 and err.startswith("error: ") and err.count("\n") == 1
            if not (code in (0, 2) or one_line):
                failures.append(f"{case}: exit {code}, stderr {err!r}")
            shutil.rmtree(tmp_path / "ws", ignore_errors=True)
            shutil.rmtree(tmp_path / "out", ignore_errors=True)
        assert failures == [] and cases > 500

    def test_registered_model_and_transform_survive_evaluate(self, pipe_cells, tmp_path):
        cfg = make_config(
            feature_transformation={"name": "CenterDataTransformation"},
            label_transformation={
                "name": "SequentialDataTransformation",
                "transformations": [
                    {"name": "CenterDataTransformation"},
                    {"name": "ZScoreDataTransformation"},
                ],
            },
            model={"name": "MedianRegressor"},
        )
        ckpt = run_train(cfg, workspace=tmp_path, cells=pipe_cells)
        stored = json.loads((ckpt.directory / "transforms.json").read_text())
        assert stored["feature_transformation"]["name"] == "CenterDataTransformation"
        assert run_evaluate(ckpt.directory) == ckpt.report

    def test_inherited_name_does_not_claim_a_stored_transform(self):
        # _SpyTransformation inherits the z-score name; z-score state still loads
        t = ZScoreDataTransformation().fit(np.array([1.0, 2.0, 4.0]))
        assert type(_Fitted.from_dict(t.to_dict())) is ZScoreDataTransformation


class TestWorkspaceResolution:
    def test_argument_beats_config(self, pipe_cells, tmp_path):
        arg_ws, cfg_ws = tmp_path / "arg", tmp_path / "cfg"
        cfg = make_config(workspace=str(cfg_ws))
        ckpt = run_train(cfg, workspace=arg_ws, cells=pipe_cells)
        assert ckpt.directory.parent == arg_ws
        assert not cfg_ws.exists()

    def test_config_workspace_used_when_no_argument(self, pipe_cells, tmp_path):
        cfg_ws = tmp_path / "cfg"
        cfg = make_config(workspace=str(cfg_ws))
        ckpt = run_train(cfg, cells=pipe_cells)
        assert ckpt.directory.parent == cfg_ws

    def test_environment_workspace(self, pipe_cells, tmp_path, monkeypatch):
        env_ws = tmp_path / "from_env"
        monkeypatch.setenv("CELLFORGE_WORKSPACE", str(env_ws))
        ckpt = run_train(make_config(), cells=pipe_cells)
        assert ckpt.directory.parent == env_ws

    def test_default_workspace_is_cwd_relative(self, pipe_cells, tmp_path, monkeypatch):
        monkeypatch.delenv("CELLFORGE_WORKSPACE", raising=False)
        monkeypatch.chdir(tmp_path)
        ckpt = run_train(make_config(), cells=pipe_cells)
        assert (tmp_path / "workspace").is_dir()
        assert ckpt.directory.parent.name == "workspace"


class TestRunEvaluate:
    def test_matches_training_report_exactly(self, trained):
        assert run_evaluate(trained.directory) == trained.report

    def test_missing_directory(self, tmp_path):
        with pytest.raises(CheckpointError, match="checkpoint directory not found"):
            run_evaluate(tmp_path / "nowhere")

    def copy_checkpoint(self, trained, tmp_path):
        dst = tmp_path / trained.directory.name
        shutil.copytree(trained.directory, dst)
        return dst

    def test_tampered_config_detected(self, trained, tmp_path):
        dst = self.copy_checkpoint(trained, tmp_path)
        cfg = yaml.safe_load((dst / "config.yaml").read_text())
        cfg["feature"]["interp_dims"] = 99
        (dst / "config.yaml").write_text(yaml.safe_dump(cfg))
        with pytest.raises(CheckpointError, match="modified after training"):
            run_evaluate(dst)

    @pytest.mark.parametrize("argument", ["overrides", "cells"])
    def test_takes_only_the_checkpoint(self, trained, pipe_cells, argument):
        # scoring under another section means training again
        with pytest.raises(TypeError, match=argument):
            run_evaluate(trained.directory, **{argument: pipe_cells if argument == "cells" else {}})

    def test_a_report_holding_an_overrides_key_is_refused(self, trained, tmp_path):
        # only an overridden evaluation's report carried this key; no checkpoint's report holds it
        dst = self.copy_checkpoint(trained, tmp_path)
        report = json.loads((dst / "report.json").read_text())
        (dst / "report.json").write_text(json.dumps({**report, "overrides": None}))
        with pytest.raises(CheckpointError, match=r"differs in \['overrides'\]"):
            run_evaluate(dst)

    @pytest.mark.parametrize("seeds, victim, fragment", [
        ([0], "report.json", "['per_seed']"),
        # the seedless model's one fit stands for every seed, in any order
        ([1, 0], "report.json", "['per_seed']"),
        ([0, 1, 2], "report.json", "['per_seed']"),
    ], ids=["cut", "reordered", "added"])
    def test_edited_seeds_detected(self, trained, tmp_path, seeds, victim, fragment):
        # config_hash leaves the seeds out; the report's per-seed rows hold them
        dst = self.copy_checkpoint(trained, tmp_path)
        cfg = yaml.safe_load((dst / "config.yaml").read_text())
        cfg["seeds"] = seeds
        (dst / "config.yaml").write_text(yaml.safe_dump(cfg))
        with pytest.raises(CheckpointError, match=f"^{re.escape(str(dst / victim))}: ") as info:
            run_evaluate(dst)
        assert fragment in str(info.value) and "\n" not in str(info.value)

    def test_unreadable_config_detected(self, trained, tmp_path):
        dst = self.copy_checkpoint(trained, tmp_path)
        (dst / "config.yaml").write_text("train_test_split: [")
        with pytest.raises(CheckpointError, match=f"^{re.escape(str(dst / 'config.yaml'))}: not valid YAML"):
            run_evaluate(dst)

    def test_corrupt_report_detected(self, trained, tmp_path):
        dst = self.copy_checkpoint(trained, tmp_path)
        (dst / "report.json").write_text("{not json")
        with pytest.raises(CheckpointError, match="not valid JSON"):
            run_evaluate(dst)

    @pytest.mark.parametrize("victim", CHECKPOINT_FILES)
    def test_missing_checkpoint_file(self, trained, tmp_path, victim):
        # test_checkpoint_layout holds CHECKPOINT_FILES to the written files, so
        # a file evaluate never reads cannot come back unnoticed
        dst = self.copy_checkpoint(trained, tmp_path)
        (dst / victim).unlink()
        with pytest.raises(CheckpointError, match=re.escape(str(dst / victim))):
            run_evaluate(dst)

    def test_truncated_features_rejected(self, trained, tmp_path):
        dst = self.copy_checkpoint(trained, tmp_path)
        path = dst / "features_test.bin"
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(CheckpointError, match=re.escape(f"{path}: truncated")):
            run_evaluate(dst)

    def test_a_checkpoint_of_raw_files_evaluates(self, trained):
        # one linear model and one feature column are too small to deflate
        for name in ("models.bin", "features_test.bin"):
            assert "deflate" not in container_parts((trained.directory / name).read_bytes())[0]
        assert run_evaluate(trained.directory) == trained.report

    def test_features_file_with_row_keys_is_refused(self, trained, tmp_path, capsys):
        # older versions also stored each row's key, which report.json now holds alone
        dst = self.copy_checkpoint(trained, tmp_path)
        keys = [[r["cell_id"], None, None] for r in prediction_rows(trained.report["predictions"])]
        write_container(dst / "features_test.bin", FEATURES_MAGIC, {"row_keys": keys},
                        [("values", read_features(trained.directory / "features_test.bin"))])
        assert cli_main(["evaluate", "--checkpoint", str(dst)]) == 1
        assert capsys.readouterr().err == (
            f"error: {dst / 'features_test.bin'}: an older layout, whose header holds "
            "['row_keys']; train the checkpoint again\n")

    @pytest.mark.parametrize("field, value", [
        ("cycle", "x"), ("cycle", True), ("cycle", 2.0), ("cycle", None), ("step", "3"), ("step", False),
    ])
    def test_row_key_fields_must_be_integers(self, trained, tmp_path, field, value):
        # evaluation builds each row key from the prediction columns cell_id, cycle and step
        dst = self.copy_checkpoint(trained, tmp_path)
        report = json.loads((dst / "report.json").read_text())
        report["predictions"][field] = [0, value]
        (dst / "report.json").write_text(json.dumps(report))
        with pytest.raises(CheckpointError, match=f"^{re.escape(str(dst / 'report.json'))}: "
                           f"'predictions' '{field}' must hold integers alone$"):
            run_evaluate(dst)

    @pytest.mark.parametrize("field, value", [("cycle", 2**63), ("step", -2**63 - 1)])
    def test_row_keys_past_int64_are_refused(self, trained, tmp_path, capsys, field, value):
        # training writes int64 keys; evaluation holds them as int64 columns
        dst = self.copy_checkpoint(trained, tmp_path)
        report = json.loads((dst / "report.json").read_text())
        report["predictions"][field] = [0, value]
        (dst / "report.json").write_text(json.dumps(report))
        assert cli_main(["evaluate", "--checkpoint", str(dst)]) == 1
        assert capsys.readouterr().err == (f"error: {dst / 'report.json'}: a 'cycle' or 'step' key "
                                           "is past the int64 range\n")

    @pytest.mark.parametrize("edit", ["lost", "gained"])
    def test_split_test_cells_must_be_those_the_report_scores(self, trained, tmp_path, edit):
        dst = self.copy_checkpoint(trained, tmp_path)
        split = json.loads((dst / "split.json").read_text())
        if edit == "lost":  # a scored cell that split.json no longer lists as a test cell
            split["train"].append(split["test"].pop())
            lacks, adds = [split["train"][-1]], []
        else:  # a listed test cell without a prediction row or an exclusion
            split["test"].append(split["train"].pop())
            lacks, adds = [], [split["test"][-1]]
        (dst / "split.json").write_text(json.dumps(split))
        want = (f"{dst / 'split.json'}: its test cells differ from those report.json scores "
                f"or excludes: it lacks {lacks} and adds {adds}")
        with pytest.raises(CheckpointError, match=f"^{re.escape(want)}$") as info:
            run_evaluate(dst)
        assert "\n" not in str(info.value)

    def test_feature_rows_must_match_label_keys(self, trained, tmp_path):
        dst = self.copy_checkpoint(trained, tmp_path)
        report = json.loads((dst / "report.json").read_text())
        for name in ("y_true", "y_pred"):  # the rows' numbers, against their keys and feature rows
            report["predictions"][name].reverse()
        (dst / "report.json").write_text(json.dumps(report))
        with pytest.raises(CheckpointError, match=f"^{re.escape(str(dst / 'report.json'))}: .*"
                           "'predictions'.*modified after training$"):
            run_evaluate(dst)

    def test_feature_row_count_must_match_prediction_rows(self, trained, tmp_path):
        dst = self.copy_checkpoint(trained, tmp_path)
        report = json.loads((dst / "report.json").read_text())
        for column in report["predictions"].values():  # the first row of each column
            del column[0]
        (dst / "report.json").write_text(json.dumps(report))
        with pytest.raises(CheckpointError, match=f"^{re.escape(str(dst / 'report.json'))}: 1 "
                           "prediction rows, but features_test.bin stores 2 feature rows$"):
            run_evaluate(dst)

    # one stored number changed each: a label z-score std, a test label, a
    # test feature and a model coefficient (a high mantissa bit of the first
    # float64 in each binary file's raw blocks)
    STORED_NUMBER_EDITS = {
        "transforms.json": lambda data: edited_digit(
            data, json.loads(data)["label_transformation"]["state"]["std"]),
        "report.json": lambda data: edited_digit(data, json.loads(data)["predictions"]["y_true"][0]),
        "features_test.bin": lambda data: flipped(data, (len(data) - 16) * 8 + 51),
        "models.bin": lambda data: flipped(data, (len(data) - 16) * 8 + 51),
    }

    @pytest.mark.parametrize("victim", sorted(STORED_NUMBER_EDITS))
    def test_an_edited_stored_number_is_refused(self, trained, tmp_path, victim):
        # each file holds two float64 blocks of one value, or two rows of one column
        dst = self.copy_checkpoint(trained, tmp_path)
        for name in ("features_test.bin", "models.bin"):
            assert len(container_parts((dst / name).read_bytes())[1]) == 16
        path = dst / victim
        path.write_bytes(self.STORED_NUMBER_EDITS[victim](path.read_bytes()))
        with pytest.raises(CheckpointError, match=f"^{re.escape(str(dst / 'report.json'))}: .*"
                           "modified after training$") as info:
            run_evaluate(dst)
        assert "\n" not in str(info.value)

    def test_an_edited_stored_number_fails_evaluate_in_one_line(self, trained, tmp_path, capsys):
        dst = self.copy_checkpoint(trained, tmp_path)
        path = dst / "transforms.json"
        path.write_bytes(self.STORED_NUMBER_EDITS["transforms.json"](path.read_bytes()))
        assert cli_main(["evaluate", "--checkpoint", str(dst)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {dst / 'report.json'}: ") and err.count("\n") == 1
        # a NumPy or BLAS that rounds differently also changes the report
        assert "unless NumPy or its BLAS rounds differently" in err

    def test_step_level_round_trip(self, tmp_path):
        # (cell, cycle, step) keys: evaluation rebuilds them from the report rows
        cells = generate_synthetic(SynthSpec(n_cells=5, cycle_life_mean=40, cycle_life_std=5,
                                             points_per_cycle=16, seed=3))
        cfg = make_config(
            train_test_split={"name": "RandomTrainTestSplitter", "test_fraction": 0.4, "seed": 3},
            feature={"name": "SOCStepFeatureExtractor", "n_qdlin": 4, "max_cycle_index": 2},
            label={"name": "SOCLabelAnnotator"},
        )
        ckpt = run_train(cfg, workspace=tmp_path, cells=cells)
        rows = prediction_rows(ckpt.report["predictions"])
        assert len(rows) == 96  # two test cells, 48 steps over their first three cycles
        assert all({"cycle", "step"} <= set(row) for row in rows)
        assert run_evaluate(ckpt.directory) == ckpt.report

    def test_checkpoint_trained_from_directory_evaluates_from_it(self, pipe_cells, tmp_path,
                                                                 monkeypatch):
        # evaluation reads the checkpoint alone: no corpus, and no cell read
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for cell in pipe_cells:
            write_cell(cell, corpus)
        cfg = make_config(
            train_test_split={
                "name": "RandomTrainTestSplitter",
                "test_fraction": 0.25,
                "seed": 3,
                "cell_data_path": str(corpus),
            }
        )
        ckpt = run_train(cfg, workspace=tmp_path / "ws", cells=None)
        shutil.rmtree(corpus)

        def no_cell(*args, **kwargs):
            raise AssertionError("evaluation read a cell")

        monkeypatch.setattr(battery_data, "read_cell", no_cell)
        assert run_evaluate(ckpt.directory) == ckpt.report


_RUNS = "'predictions' 'cell_id' must be [id, count] runs of a string ID and a positive integer count"


@pytest.fixture(scope="module")
def row_cells():
    return generate_synthetic(SynthSpec(n_cells=5, cycle_life_mean=40, cycle_life_std=5,
                                        points_per_cycle=16, seed=3))


@pytest.fixture(scope="module")
def row_checkpoints(row_cells, tmp_path_factory):
    """A per-cycle SOH and a per-step SOC checkpoint, each scoring two test cells."""
    split = {"name": "RandomTrainTestSplitter", "test_fraction": 0.4, "seed": 3}
    configs = {
        "soh": make_config(train_test_split=split, label={"name": "SOHLabelAnnotator"},
                           feature={"name": "SOHCycleFeatureExtractor", "max_cycle_index": 9}),
        "soc": make_config(train_test_split=split,
                           feature={"name": "SOCStepFeatureExtractor", "n_qdlin": 4, "max_cycle_index": 2},
                           label={"name": "SOCLabelAnnotator"}),
    }
    return {kind: run_train(cfg, workspace=tmp_path_factory.mktemp(f"ws_{kind}"), cells=row_cells)
            for kind, cfg in configs.items()}


def row_layout(report: dict) -> dict:
    """``report`` with its per-seed metrics and predictions as one object per
    row, the layout of report.json before it stored them by column."""
    per_seed = [dict(zip(report["per_seed"], values)) for values in zip(*report["per_seed"].values())]
    return {**report, "per_seed": per_seed, "predictions": prediction_rows(report["predictions"])}


class TestReportColumns:
    """report.json stores its per-seed metrics and prediction rows by column."""

    def test_a_per_cell_report(self, trained):
        report = trained.report
        assert list(report["per_seed"]) == ["seed", "rmse", "mae"] and report["per_seed"]["seed"] == [0, 1]
        columns = report["predictions"]
        split = json.loads((trained.directory / "split.json").read_text())
        assert list(columns) == ["cell_id", "y_true", "y_pred"]
        assert columns["cell_id"] == [[cell_id, 1] for cell_id in split["test"]]

    @pytest.mark.parametrize("kind", ["soh", "soc"])
    def test_per_cycle_and_per_step_columns(self, row_checkpoints, row_cells, kind):
        ckpt = row_checkpoints[kind]
        columns = ckpt.report["predictions"]
        test_ids = json.loads((ckpt.directory / "split.json").read_text())["test"]
        by_id = {c.cell_id: c.cycle_data for c in row_cells}
        if kind == "soh":  # cycles 0 to 9 of each test cell, one row each
            cycles = [by_id[cid].cycle_number[:10].tolist() for cid in test_ids]
            steps = None
        else:  # every step of cycles 0 to 2
            points = {cid: np.diff(by_id[cid].offsets["time_in_s"])[:3].tolist() for cid in test_ids}
            cycles = [[number for number, n in zip(by_id[cid].cycle_number.tolist(), points[cid])
                       for _ in range(n)] for cid in test_ids]
            steps = [step for cid in test_ids for n in points[cid] for step in range(n)]
        assert list(columns) == ["cell_id", "cycle", *(["step"] if steps else []), "y_true", "y_pred"]
        assert columns["cell_id"] == [[cid, len(c)] for cid, c in zip(test_ids, cycles)]
        assert columns["cycle"] == [number for c in cycles for number in c]
        assert columns.get("step") == steps
        assert len(columns["y_true"]) == len(columns["y_pred"]) == len(columns["cycle"])
        assert json.loads((ckpt.directory / "report.json").read_text()) == ckpt.report
        assert run_evaluate(ckpt.directory) == ckpt.report

    def test_columns_take_at_most_45_percent_of_the_row_layout(self, row_checkpoints):
        ckpt = row_checkpoints["soc"]
        rows = len(json.dumps(row_layout(ckpt.report), separators=(",", ":")))
        assert (ckpt.directory / "report.json").stat().st_size <= 0.45 * rows

    def test_pred_vs_truth_plots_the_columns(self, row_checkpoints, tmp_path):
        ckpt = row_checkpoints["soc"]
        assert cli_main(["--quiet", "plot", "--kind", "pred-vs-truth", "--out", str(tmp_path / "p"),
                         "--checkpoint", str(ckpt.directory)]) == 0
        with open(tmp_path / "p.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        columns = ckpt.report["predictions"]
        assert rows == [["test cells", repr(x), repr(y)]
                        for x, y in zip(columns["y_true"], columns["y_pred"])]

    @pytest.mark.parametrize("lists", [("predictions",), ("per_seed",), ("per_seed", "predictions")])
    def test_a_row_layout_report_is_one_line(self, trained, tmp_path, capsys, lists):
        dst = tmp_path / trained.directory.name
        shutil.copytree(trained.directory, dst)
        rows = row_layout(trained.report)
        (dst / "report.json").write_text(json.dumps({**trained.report, **{k: rows[k] for k in lists}}))
        assert cli_main(["evaluate", "--checkpoint", str(dst)]) == 1
        assert capsys.readouterr().err == (
            f"error: {dst / 'report.json'}: an older report layout, with one object per row; "
            "train the checkpoint again\n")

    def edited(self, ckpt, tmp_path, edit):
        """A copy of ``ckpt`` whose report.json predictions ``edit`` changed in place."""
        dst = tmp_path / ckpt.directory.name
        shutil.copytree(ckpt.directory, dst)
        report = json.loads((dst / "report.json").read_text())
        edit(report["predictions"])
        (dst / "report.json").write_text(json.dumps(report))
        return dst

    @pytest.mark.parametrize("edit, message", [
        (lambda c: c["y_pred"].append(1.0),
         "'predictions' columns differ in length: the 'cell_id' runs count 2 rows, "
         "and the columns hold {'y_true': 2, 'y_pred': 3}"),
        (lambda c: c["cell_id"][0].__setitem__(1, 2),
         "'predictions' columns differ in length: the 'cell_id' runs count 3 rows, "
         "and the columns hold {'y_true': 2, 'y_pred': 2}"),
        (lambda c: c["cell_id"][0].__setitem__(1, 0), _RUNS),
        (lambda c: c["cell_id"][0].__setitem__(1, -1), _RUNS),
        (lambda c: c["cell_id"][0].__setitem__(1, True), _RUNS),
        (lambda c: c["cell_id"][0].__setitem__(0, 7), _RUNS),
        (lambda c: c["cell_id"][0].append(1), _RUNS),
        (lambda c: c["y_pred"].__setitem__(1, "1.0"), "'predictions' 'y_pred' must hold numbers alone"),
        (lambda c: c.update(cell_id={}), "a 'predictions' object of 'cell_id', 'y_true' and 'y_pred' lists"),
        (lambda c: c.update(step=3), "a 'predictions' object of 'cell_id', 'y_true' and 'y_pred' lists"),
    ], ids=["length", "run-total", "zero-count", "negative-count", "bool-count", "int-id",
            "run-of-three", "string-y_pred", "runs-not-a-list", "step-not-a-list"])
    def test_a_malformed_column_is_one_line(self, trained, tmp_path, capsys, edit, message):
        # a bool y_true is a case of tests/test_cli.py's malformed-checkpoint test
        dst = self.edited(trained, tmp_path, edit)
        assert cli_main(["evaluate", "--checkpoint", str(dst)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {dst / 'report.json'}: ") and err.count("\n") == 1
        assert message in err

    def test_swapped_cell_ids_are_refused(self, trained, tmp_path):
        # each run keeps its numbers, so the recomputed report would carry the same swap
        def swap(columns):
            (a, _), (b, _) = columns["cell_id"]
            columns["cell_id"][0][0], columns["cell_id"][1][0] = b, a

        dst = self.edited(trained, tmp_path, swap)
        with pytest.raises(CheckpointError, match=f"^{re.escape(str(dst / 'report.json'))}: its 'cell_id' "
                           "runs do not follow split.json's test cells in order, one run per cell$"):
            run_evaluate(dst)

    def test_a_cell_in_two_runs_is_refused(self, row_checkpoints, tmp_path):
        def split_first_run(columns):
            (a, n), rest = columns["cell_id"][0], columns["cell_id"][1:]
            columns["cell_id"] = [[a, n - 4], *rest, [a, 4]]
            for name in ("cycle", "y_true", "y_pred"):  # the first cell's last four rows move last
                column = columns[name]
                columns[name] = column[: n - 4] + column[n:] + column[n - 4 : n]

        dst = self.edited(row_checkpoints["soh"], tmp_path, split_first_run)
        with pytest.raises(CheckpointError, match="runs do not follow split.json's test cells in order"):
            run_evaluate(dst)

    @pytest.mark.parametrize("partition", ["training", "test"])
    @pytest.mark.parametrize("numbers", ["falling", "repeated"])
    def test_training_refuses_rows_evaluation_would_refuse(self, row_cells, tmp_path, partition, numbers):
        # cells in memory are not validated: one whose cycle numbers fall or repeat gives row keys
        # that do not increase; a training cell is refused as a test cell is, where it was trained on
        def unordered(cell):
            n = len(cell.cycle_data)
            number = (lambda i: n - i) if numbers == "falling" else (lambda i: i // 2 + 1)
            return dataclasses.replace(cell, cycle_data=CycleData.from_cycles(
                [dataclasses.replace(c, cycle_number=number(i)) for i, c in enumerate(cell.cycle_data)]))

        ids = [c.cell_id for c in row_cells]
        bad = ids[1] if partition == "training" else ids[4]
        cells = [unordered(c) if c.cell_id == bad else c for c in row_cells]
        split = {"name": "ExplicitTrainTestSplitter", "train_ids": ids[:3], "test_ids": ids[3:]}
        config = make_config(train_test_split=split, label={"name": "SOHLabelAnnotator"},
                             feature={"name": "SOHCycleFeatureExtractor", "max_cycle_index": 9})
        with pytest.raises(PipelineError) as info:
            run_train(config, workspace=tmp_path, cells=cells)
        assert str(info.value) == (f"{bad}: the row keys of SOHLabelAnnotator and SOHCycleFeatureExtractor "
                                   "do not strictly increase in (cycle, step); validate() reports a cell "
                                   "whose cycle numbers do not increase")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind, column", [("soh", "cycle"), ("soc", "cycle"), ("soc", "step")])
    def test_swapped_cycles_or_steps_are_refused(self, row_checkpoints, tmp_path, kind, column):
        def swap(columns):  # two rows of the first run; at SOC, rows of two cycles or two steps
            i, j = (0, 1) if column == "step" or kind == "soh" else (0, 16)
            values = columns[column]
            assert values[i] != values[j]
            values[i], values[j] = values[j], values[i]

        dst = self.edited(row_checkpoints[kind], tmp_path, swap)
        with pytest.raises(CheckpointError, match=f"^{re.escape(str(dst / 'report.json'))}: its "
                           r"\('cycle', 'step'\) keys do not strictly increase within a cell's run$"):
            run_evaluate(dst)


# Every file in configs/ trains in one of the two tests below.
SYNTHETIC_CONFIGS = ["synthetic_soh_mlp", "synthetic_variance_linear", "synthetic_qdmatrix_forest"]
MATR_CONFIGS = ["matr1_variance", "matr1_discharge_ridge"]


# (config, the values one cell decodes in a train, from its offsets, and their sum on
# pipe_cells: 1,274 cycles of 16 points, 100 cycles of each cell at offsets[100] and 10 at
# offsets[10]). Each pass decodes a column once, up to the cycles it reads, and keeps it only
# where a cycle view reads it. RUL labels decode discharge capacity whole; a feature then
# decodes it again, and more columns, to its horizon through its head: through cycle views
# current, voltage and discharge capacity, and the Full feature time once more for its charge
# times and temperature integral. Per-cycle and per-step labels are handed the feature's head:
# SOH labels decode discharge capacity to the horizon, and the SOH feature decodes it and
# charge capacity there again, and the voltage of cycle 0 alone; the SOC labels decode charge
# and discharge capacity through cycle views, and the step feature reads discharge capacity
# through that head and decodes three more columns.
DECODES = [
    ("synthetic_variance_linear", lambda offsets: [offsets[-1]] + [offsets[100]] * 3,
     1274 * 16 + 8 * 3 * 100 * 16),  # 58,784
    ("synthetic_qdmatrix_forest", lambda offsets: [offsets[-1]] + [offsets[10]] * 3,
     1274 * 16 + 8 * 3 * 10 * 16),  # 24,224
    ("synthetic_soh_mlp", lambda offsets: [offsets[100]] * 3 + [offsets[1]],
     8 * (3 * 100 + 1) * 16),  # 38,528
    ("soc_step", lambda offsets: [offsets[10]] * 5, 8 * 5 * 10 * 16),  # 6,400
    ("discharge", lambda offsets: [offsets[-1]] + [offsets[100]] * 3,
     1274 * 16 + 8 * 3 * 100 * 16),  # 58,784
    ("full", lambda offsets: [offsets[-1]] + [offsets[100]] * 4,
     1274 * 16 + 8 * 4 * 100 * 16),  # 71,584
    ("soh", lambda offsets: [offsets[50]] * 3 + [offsets[1]], 8 * (3 * 50 + 1) * 16),  # 19,328
    ("capacity_fade_slope", lambda offsets: [offsets[-1], offsets[100]],
     1274 * 16 + 8 * 100 * 16),  # 33,184
]
SOC_STEP_CONFIG = make_config(
    train_test_split={"name": "RandomTrainTestSplitter", "test_fraction": 0.2, "seed": 0},
    feature={"name": "SOCStepFeatureExtractor", "n_qdlin": 4, "max_cycle_index": 9},
    label={"name": "SOCLabelAnnotator"}, seeds=[0])
# the DECODES configs that are not shipped: each built-in extractor with a label of its level
DECODE_CONFIGS = {
    "soc_step": SOC_STEP_CONFIG,
    "discharge": make_config(feature={"name": "DischargeModelFeatureExtractor", "interp_dims": 64}),
    "full": make_config(feature={"name": "FullModelFeatureExtractor", "interp_dims": 64}),
    "soh": make_config(feature={"name": "SOHCycleFeatureExtractor", "max_cycle_index": 49},
                       label={"name": "SOHLabelAnnotator"}, seeds=[0]),
    "capacity_fade_slope": make_config(feature={"name": "CapacityFadeSlopeFeatureExtractor"}),
}


class TestShippedConfigs:
    @pytest.mark.parametrize("name", SYNTHETIC_CONFIGS)
    def test_trains_on_quickstart_corpus(self, quickstart_corpus, tmp_path, name):
        cfg = yaml.safe_load((CONFIG_DIR / f"{name}.yaml").read_text())
        ckpt = run_train(cfg, workspace=tmp_path, cells=quickstart_corpus.loaded)
        assert np.isfinite(ckpt.report["mean_rmse"])
        assert run_evaluate(ckpt.directory) == ckpt.report
        # report.json holds the test row keys; features_test.bin stores none
        header = container_parts((ckpt.directory / "features_test.bin").read_bytes())[0]
        assert set(header) <= {"blocks", "deflate"}
        for path in sorted(ckpt.directory.glob("*.json")):  # each written compactly
            text = path.read_text(encoding="utf-8")
            assert text == json.dumps(json.loads(text), separators=(",", ":")), path.name

    def test_every_shipped_config_trains_in_tier_one(self):
        shipped = {path.stem for path in CONFIG_DIR.glob("*.yaml")}
        assert sorted(shipped - set(SYNTHETIC_CONFIGS) - set(MATR_CONFIGS)) == []

    @pytest.mark.parametrize("name, per_cell, total", DECODES, ids=[row[0] for row in DECODES])
    def test_a_train_decodes_the_horizon_of_what_it_reads(self, pipe_cells, tmp_path, monkeypatch,
                                                          name, per_cell, total):
        corpus = tmp_path / "cells"
        corpus.mkdir()
        expected = []
        for cell in pipe_cells:
            header = container_parts(write_cell(cell, corpus).read_bytes())[0]
            assert {b["name"] for b in header["blocks"] if "escapes" in b} == {
                "voltage_in_V", "current_in_A", "charge_capacity_in_Ah", "discharge_capacity_in_Ah",
                "time_in_s"}
            expected += per_cell(cell.cycle_data.offsets["time_in_s"])
        decoded = []
        monkeypatch.setattr(container.Coded, "decode",
                            lambda self, decode=container.Coded.decode: decoded.append(self.size) or decode(self))
        cfg = DECODE_CONFIGS.get(name) or yaml.safe_load((CONFIG_DIR / f"{name}.yaml").read_text())
        cfg = {**cfg, "train_test_split": {**cfg["train_test_split"], "cell_data_path": str(corpus)}}
        run_train(cfg, workspace=tmp_path / "ws")
        assert sorted(decoded) == sorted(expected)
        assert sum(decoded) == total


class _StepCurrentOfEveryCycle:
    """An extractor in the shape of the README's example: ``col_names``,
    ``rows`` and ``extract`` alone, stating no ``horizon``. Records each
    cell's cycle count."""

    col_names = ["current_in_A"]
    rows = "step"
    seen: list = []

    def extract(self, cells):
        values, keys = [], []
        for cell in cells:
            type(self).seen.append(len(cell.cycle_data))
            for cyc in cell.cycle_data:
                values += cyc.current_in_A.tolist()
            keys.append(RowKeys.steps(cell.cell_id, cell.cycle_data.cycle_number,
                                      [cyc.current_in_A.size for cyc in cell.cycle_data]))
        return FeatureMatrix(np.array(values).reshape(-1, 1), RowKeys.concat(keys), self.col_names)


def test_an_extractor_without_a_horizon_sees_every_cycle(pipe_cells, tmp_path, monkeypatch):
    monkeypatch.setitem(FEATURES._factories, "StepCurrentOfEveryCycle", _StepCurrentOfEveryCycle)
    _StepCurrentOfEveryCycle.seen.clear()
    cfg = {**SOC_STEP_CONFIG, "feature": {"name": "StepCurrentOfEveryCycle"}}
    ckpt = run_train(cfg, workspace=tmp_path, cells=pipe_cells)
    lengths = {cell.cell_id: len(cell.cycle_data) for cell in pipe_cells}
    assert sorted(_StepCurrentOfEveryCycle.seen) == sorted(lengths.values())
    rows = prediction_rows(ckpt.report["predictions"])
    assert len(rows) == sum(lengths[cell_id] * 16 for cell_id in {row["cell_id"] for row in rows})


class _SOHLabelsOfWhatIsGiven:
    """A registered annotator that states no ``rows``: the per-cycle SOH
    labels of the cycles it is handed."""

    def annotate(self, cells):
        return SOHLabelAnnotator().annotate(cells)


def test_an_annotator_is_handed_the_cycles_its_rows_need(pipe_cells, tmp_path, monkeypatch):
    # a per-cycle annotator is handed the extractor's head
    given, annotate = [], SOHLabelAnnotator.annotate

    def spy(self, cells):
        given.extend(len(cell.cycle_data) for cell in cells)
        return annotate(self, cells)

    monkeypatch.setattr(SOHLabelAnnotator, "annotate", spy)
    cfg = make_config(feature={"name": "SOHCycleFeatureExtractor", "max_cycle_index": 9},
                      label={"name": "SOHLabelAnnotator"}, seeds=[0])
    ckpt = run_train(cfg, workspace=tmp_path, cells=pipe_cells)
    assert given == [10] * len(pipe_cells)
    assert ckpt.report["predictions"]["cycle"] == list(range(1, 11)) * 2


def test_the_readme_extractor_trains_and_evaluates(pipe_cells, tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("### Extending\n\n```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.setattr(FEATURES, "_factories", dict(FEATURES._factories))  # registers for this test
    exec(example, {})
    ckpt = run_train(make_config(feature={"name": "MyExtractor"}), workspace=tmp_path, cells=pipe_cells)
    assert run_evaluate(ckpt.directory) == ckpt.report
    assert [count for _, count in ckpt.report["predictions"]["cell_id"]] == [1, 1]


@pytest.fixture(scope="module")
def forest_checkpoint(quickstart_corpus, tmp_path_factory):
    """The shipped forest config trained on the quickstart corpus; its model
    files and test features are deflated."""
    cfg = yaml.safe_load((CONFIG_DIR / "synthetic_qdmatrix_forest.yaml").read_text())
    return run_train(cfg, workspace=tmp_path_factory.mktemp("ws_forest"), cells=quickstart_corpus.loaded)


def container_parts(data: bytes) -> tuple[dict, bytes]:
    """A container file's header and the bytes after it."""
    (length,) = struct.unpack_from("<I", data, 4)
    return json.loads(data[8:8 + length]), data[8 + length:]


def with_body(data: bytes, body: bytes) -> bytes:
    (length,) = struct.unpack_from("<I", data, 4)
    return data[:8 + length] + body


def flipped(data: bytes, bit: int) -> bytes:
    out = bytearray(data)
    out[bit // 8] ^= 1 << bit % 8
    return bytes(out)


def edited_digit(data: bytes, value: float) -> bytes:
    """``data`` with the fourth-last digit of the one ``repr`` of ``value`` in it changed."""
    old = repr(value).encode()
    assert data.count(old) == 1 and old[-4:-3].isdigit()
    return data.replace(old, old[:-4] + str((int(old[-4:-3]) + 1) % 10).encode() + old[-3:])


def mutations(data: bytes, kind: str):
    """The mutated copies of ``data`` of one ``kind``: (whether the copy
    must fail to read, bytes)."""
    (length,) = struct.unpack_from("<I", data, 4)
    inflated = zlib.decompress(container_parts(data)[1])
    if kind == "truncation":
        for cut in sorted({*np.linspace(0, len(data) - 1, 64, dtype=int), *range(len(data) - 8, len(data))}):
            yield True, data[:cut]
    elif kind == "bit-flip":
        rng = np.random.default_rng(0)
        tail = range(8 * (len(data) - 8), 8 * len(data))  # the stream's end and its checksum
        for bit in sorted({*rng.integers(0, 8 * len(data), 400).tolist(), *range(32, 64), *tail}):
            yield False, flipped(data, bit)
    elif kind == "appended":
        for extra in (b"\0", bytes(7), zlib.compress(b"x")):
            yield True, data + extra
    elif kind == "header-length":
        for lie in (0, length - 8, length - 1, length + 1, length + 8, 2**32 - 1):
            yield True, data[:4] + struct.pack("<I", lie) + data[8:]
    elif kind == "inflated-size":
        for body in (inflated + b"\0", inflated + bytes(10**5), inflated[:-1], inflated[:-8], b""):
            yield True, with_body(data, zlib.compress(body))


class TestDeflatedCheckpoint:
    """A deflated file reads, or fails as one CheckpointError naming it."""

    READERS = {"models.bin": lambda path: [load_model(path, seed) for seed in (0, 1, 2)],
               "features_test.bin": read_features}

    def test_model_files_and_features_are_deflated(self, forest_checkpoint):
        for name in ("models.bin", "features_test.bin"):
            assert container_parts((forest_checkpoint.directory / name).read_bytes())[0]["deflate"] is True
        assert run_evaluate(forest_checkpoint.directory) == forest_checkpoint.report

    def test_one_models_file_is_smaller_than_a_file_per_seed(self, forest_checkpoint, tmp_path):
        path = forest_checkpoint.directory / "models.bin"
        seeds = read_model_file(path)[0]["seeds"]
        apart = [load_model(path, seed).save(tmp_path / f"model_seed{seed}.bin").stat().st_size
                 for seed in seeds]
        assert len(seeds) == 3 and path.stat().st_size < sum(apart)

    def test_raw_files_of_the_same_blocks_evaluate_the_same(self, forest_checkpoint, tmp_path):
        dst = tmp_path / "raw"
        shutil.copytree(forest_checkpoint.directory, dst)
        for path in dst.glob("*.bin"):
            data = path.read_bytes()
            header, body = container_parts(data)
            del header["deflate"]
            payload = json.dumps(header).encode()
            path.write_bytes(data[:4] + struct.pack("<I", len(payload)) + payload + zlib.decompress(body))
        assert run_evaluate(dst) == forest_checkpoint.report

    @pytest.mark.parametrize("kind", ["truncation", "bit-flip", "appended", "header-length",
                                      "inflated-size"])
    @pytest.mark.parametrize("name", list(READERS))
    def test_a_mutated_file_reads_or_is_one_error_naming_it(self, forest_checkpoint, tmp_path, name, kind):
        data = (forest_checkpoint.directory / name).read_bytes()
        path = tmp_path / name
        cases = list(mutations(data, kind))
        for must_fail, mutated in cases:
            path.write_bytes(mutated)
            try:
                self.READERS[name](path)
            except CheckpointError as exc:
                assert str(path) in str(exc) and "\n" not in str(exc), str(exc)
            else:
                assert not must_fail, mutated
        assert len(cases) >= 3

@pytest.fixture(scope="module")
def matr_corpus(tmp_path_factory):
    """Synthetic cells written as MATR CSV exports, one per cell, and
    converted by ``cellforge preprocess MATR``; the defaults of
    ``SynthSpec`` are MATR's 1.1 Ah and 2.0-3.6 V."""
    spec = SynthSpec(n_cells=6, cycle_life_mean=150.0, cycle_life_std=20.0,
                     points_per_cycle=16, seed=3)
    generated = generate_synthetic(spec)
    root = tmp_path_factory.mktemp("matr")
    raw = root / "raw"
    raw.mkdir()
    headers = json.loads(packaged_column_map_path("MATR").read_text())
    signals = {
        "time_s": "time_in_s",
        "voltage_V": "voltage_in_V",
        "current_A": "current_in_A",
        "charge_capacity_Ah": "charge_capacity_in_Ah",
        "discharge_capacity_Ah": "discharge_capacity_in_Ah",
    }
    for k, cell in enumerate(generated):
        with open(raw / f"b1c{k}.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow([headers["cycle_index"], *(headers[s] for s in signals)])
            for cyc in cell.cycle_data:
                columns = [getattr(cyc, name) for name in signals.values()]
                for row in zip(*columns):
                    writer.writerow([cyc.cycle_number, *map(repr, map(float, row))])
    assert cli_main(["--quiet", "preprocess", "MATR", str(raw), str(root / "out")]) == 0
    split = {"train": [f"MATR_b1c{k}" for k in range(4)],
             "test": [f"MATR_b1c{k}" for k in range(4, 6)], "metadata": {}}
    (root / "split.json").write_text(json.dumps(split))
    return SimpleNamespace(generated=generated, directory=root / "out", split=root / "split.json")


class TestShippedMATRConfigs:
    """The real-data path: CSV exports, ``preprocess``, a split file the
    user writes, ``FixedSplitTrainTestSplitter``."""

    def test_preprocessed_signals_equal_the_generated(self, matr_corpus):
        cells = load_cells(matr_corpus.directory)
        assert [c.cell_id for c in cells] == [f"MATR_b1c{k}" for k in range(6)]
        for cell, source in zip(cells, matr_corpus.generated):
            assert cell.nominal_capacity_in_Ah == source.nominal_capacity_in_Ah
            assert np.array_equal(cell.cycle_data.cycle_number, source.cycle_data.cycle_number)
            for name in ("voltage_in_V", "current_in_A", "charge_capacity_in_Ah",
                         "discharge_capacity_in_Ah", "time_in_s"):
                assert np.array_equal(cell.cycle_data.offsets[name], source.cycle_data.offsets[name])
                assert np.array_equal(cell.cycle_data.columns[name], source.cycle_data.columns[name])

    @pytest.mark.parametrize("name", MATR_CONFIGS)
    def test_trains_and_evaluates_on_the_preprocessed_corpus(self, matr_corpus, tmp_path, name):
        cfg = yaml.safe_load((CONFIG_DIR / f"{name}.yaml").read_text())
        assert cfg["train_test_split"]["name"] == "FixedSplitTrainTestSplitter"
        cfg["train_test_split"].update(path=str(matr_corpus.split),
                                       cell_data_path=str(matr_corpus.directory))
        cfg["seeds"] = [0, 1]
        ckpt = run_train(cfg, workspace=tmp_path)
        assert np.isfinite(ckpt.report["mean_rmse"])
        assert run_evaluate(ckpt.directory) == ckpt.report
        for path in sorted(ckpt.directory.glob("*.json")):  # each written compactly
            text = path.read_text(encoding="utf-8")
            assert text == json.dumps(json.loads(text), separators=(",", ":")), path.name

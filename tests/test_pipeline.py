"""End-to-end and unit tests for the config-driven experiment runner."""

import csv
import hashlib
import inspect
import json
import re
import shutil
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

from cellforge.battery_data import load_cells, write_cell, write_container
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
from cellforge.features import FeatureMatrix
from cellforge.ingestion import packaged_column_map_path
from cellforge.labels import LabelSpec, LabelVector, rul_label
from cellforge.models import BaseRegressor, LinearRegressor
from cellforge.pipeline import (
    DEFAULT_SEEDS,
    FEATURES_MAGIC,
    Checkpoint,
    PipelineConfig,
    _align,
    mae,
    read_features,
    rmse,
    run_evaluate,
    run_train,
)
from cellforge.registry import FEATURES, LABELS, MODELS, SPLITTERS, register
from cellforge.synthetic import SynthSpec, generate_synthetic
from cellforge.transforms import ZScoreDataTransformation, _Fitted

from conftest import make_cell

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
# every file of the ``trained`` checkpoint; the linear model takes no seed, so
# one fit scores both seeds
CHECKPOINT_FILES = (
    "config.yaml",
    "report.json",
    "split.json",
    "transforms.json",
    "features_test.bin",
    "model_seed0.bin",
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


@pytest.fixture(scope="module")
def pipe_cells():
    # every cell outlives cycle 99, which the variance feature reads
    spec = SynthSpec(
        n_cells=8,
        cycle_life_mean=150.0,
        cycle_life_std=12.0,
        points_per_cycle=16,
        seed=21,
    )
    return generate_synthetic(spec)


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


class TestAlign:
    def make_features(self, keys):
        values = np.arange(len(keys), dtype=float).reshape(-1, 1)
        return FeatureMatrix(values=values, row_keys=keys, col_names=["f"])

    def test_join_keeps_feature_row_order_and_drops_unmatched(self):
        feats = self.make_features([("A", None, None), ("B", None, None), ("C", None, None)])
        labels = LabelVector(values=[20.0, 10.0], row_keys=[("B", None, None), ("A", None, None)])
        X, y, keys = _align(feats, labels)
        assert keys == [("A", None, None), ("B", None, None)]
        assert X.tolist() == [[0.0], [1.0]]
        assert y.tolist() == [10.0, 20.0]

    def test_duplicate_label_key_rejected(self):
        feats = self.make_features([("A", None, None)])
        labels = LabelVector(values=[1.0, 2.0], row_keys=[("A", None, None), ("A", None, None)])
        with pytest.raises(PipelineError, match="duplicate label row key"):
            _align(feats, labels)

    def test_disjoint_granularity_rejected(self):
        feats = self.make_features([("A", None, None)])
        labels = LabelVector(values=[1.0], row_keys=[("A", 1, None)])
        with pytest.raises(PipelineError, match="granularity"):
            _align(feats, labels)


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
        assert [s["seed"] for s in report["per_seed"]] == [0, 1]
        rmses = np.array([s["rmse"] for s in report["per_seed"]])
        maes = np.array([s["mae"] for s in report["per_seed"]])
        assert report["mean_rmse"] == float(rmses.mean())
        assert report["sd_rmse"] == float(rmses.std())
        assert report["mean_mae"] == float(maes.mean())
        assert report["sd_mae"] == float(maes.std())
        assert report["excluded"] == []
        assert "overrides" not in report

    def test_predictions_cover_test_cells_with_true_labels(self, trained, pipe_cells):
        by_id = {c.cell_id: c for c in pipe_cells}
        rows = trained.report["predictions"]
        assert len(rows) == 2  # 8 cells, test_fraction 0.25
        for row in rows:
            assert set(row) == {"cell_id", "y_true", "y_pred"}
            assert row["y_true"] == rul_oracle(by_id[row["cell_id"]])
            assert np.isfinite(row["y_pred"])

    def test_report_json_matches_returned_report(self, trained):
        on_disk = json.loads((trained.directory / "report.json").read_text())
        assert on_disk == trained.report

    def test_split_json_partitions_corpus(self, trained, pipe_cells):
        payload = json.loads((trained.directory / "split.json").read_text())
        listed = set(payload["train"]) | set(payload["test"])
        assert listed == {c.cell_id for c in pipe_cells}
        assert not set(payload["train"]) & set(payload["test"])

    def test_stored_feature_matrices_align_with_labels(self, trained):
        values, keys = read_features(trained.directory / "features_test.bin")
        rows = json.loads((trained.directory / "report.json").read_text())["predictions"]
        assert values.shape == (2, 1)
        assert keys == [(r["cell_id"], None, None) for r in rows]

    def test_training_is_deterministic(self, pipe_cells, tmp_path):
        a = run_train(make_config(), workspace=tmp_path / "a", cells=pipe_cells)
        b = run_train(make_config(), workspace=tmp_path / "b", cells=pipe_cells)
        assert a.report == b.report
        assert (a.directory / "model_seed0.bin").read_bytes() == (
            b.directory / "model_seed0.bin"
        ).read_bytes()

    def test_config_file_is_copied_verbatim(self, pipe_cells, tmp_path):
        path = tmp_path / "named_run.yaml"
        text = "# local tweak of the variance experiment\n" + yaml.safe_dump(make_config())
        path.write_text(text)
        ckpt = run_train(path, workspace=tmp_path / "ws", cells=pipe_cells)
        assert ckpt.directory.name.startswith("named_run_")
        assert (ckpt.directory / "config.yaml").read_text() == text

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
        assert sorted(p.name for p in ckpt.directory.glob("model_seed*")) == ["model_seed0.bin"]
        per_seed = ckpt.report["per_seed"]
        assert [s["seed"] for s in per_seed] == list(range(10))
        assert len({(s["rmse"], s["mae"]) for s in per_seed}) == 1
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
        assert [s["seed"] for s in ckpt.report["per_seed"]] == seeds
        calls.clear()
        assert run_evaluate(ckpt.directory) == ckpt.report
        assert len(calls) == fits

    def test_seeded_model_fits_every_seed(self, pipe_cells, tmp_path):
        cfg = make_config(model={"name": "RandomForestRegressor", "n_trees": 3}, seeds=[4, 7])
        ckpt = run_train(cfg, workspace=tmp_path, cells=pipe_cells)
        assert sorted(p.name for p in ckpt.directory.glob("model_seed*")) == [
            "model_seed4.bin", "model_seed7.bin",
        ]
        assert run_evaluate(ckpt.directory) == ckpt.report


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
        assert [r["cell_id"] for r in ckpt.report["predictions"]] == [ids[6]]

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
        for row in ckpt.report["predictions"]:
            assert row["y_true"] == rul_oracle(by_id[row["cell_id"]], percent=90.0)
            assert row["y_true"] < rul_oracle(by_id[row["cell_id"]], percent=80.0)

    def test_explicit_label_params_beat_metadata(self, pipe_cells, tmp_path):
        cfg = make_config(
            train_test_split=self.split_section(pipe_cells, {"eol_soh": 90.0}),
            label={"name": "RULLabelAnnotator", "eol_soh_percent": 80.0},
        )
        ckpt = run_train(cfg, workspace=tmp_path, cells=pipe_cells)
        by_id = {c.cell_id: c for c in pipe_cells}
        for row in ckpt.report["predictions"]:
            assert row["y_true"] == rul_oracle(by_id[row["cell_id"]], percent=80.0)

    def test_observed_cycles_metadata_reaches_extractor(self, pipe_cells, tmp_path):
        for observed, message in [
            # a 50-cycle budget cannot cover the feature's cycle-99 read
            (50, "observed-cycle budget"),
            (2.5, "feature extractor 'VarianceModelFeatureExtractor': bad parameters: "
                  "observed_cycles must be an integer >= 1, got 2.5"),
        ]:
            cfg = make_config(
                train_test_split=self.split_section(pipe_cells, {"observed_cycles": observed})
            )
            with pytest.raises(CellforgeError, match=re.escape(message)):
                run_train(cfg, workspace=tmp_path, cells=pipe_cells)

    def test_eol_soh_metadata_in_a_split_file_must_be_a_number(self, pipe_cells, tmp_path):
        # a string threshold ended in a "'<' not supported" line naming nothing
        ids = [c.cell_id for c in pipe_cells]
        split_file = tmp_path / "split.json"
        split_file.write_text(json.dumps(
            {"train": ids[:6], "test": ids[6:], "metadata": {"eol_soh": "90"}}))
        cfg = make_config(
            train_test_split={"name": "FixedSplitTrainTestSplitter", "path": str(split_file)})
        with pytest.raises(RegistryError, match=re.escape(
                "label annotator 'RULLabelAnnotator': bad parameters: "
                "eol_soh_percent must be a finite number, got '90'")):
            run_train(cfg, workspace=tmp_path, cells=pipe_cells)

    def test_explicit_feature_params_beat_metadata(self, pipe_cells, tmp_path):
        cfg = make_config(
            train_test_split=self.split_section(pipe_cells, {"observed_cycles": 50}),
            feature={
                "name": "VarianceModelFeatureExtractor",
                "interp_dims": 64,
                "observed_cycles": 120,
            },
        )
        ckpt = run_train(cfg, workspace=tmp_path, cells=pipe_cells)
        assert len(ckpt.report["predictions"]) == 2


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
_NONE_DEFAULT_INTEGERS = {"max_depth": 100, "observed_cycles": 100, "max_cycle_index": 100}


def _stored(component, parameter):
    """The value a component keeps for ``parameter``: its attribute of that
    name, or that of one of its attributes (a label annotator's spec)."""
    for holder in (component, *vars(component).values()):
        if hasattr(holder, parameter):
            return getattr(holder, parameter)
    raise AssertionError(f"{type(component).__name__} keeps no {parameter!r}")


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
        assert {"observed_cycles", "interp_dims", "diff_base", "max_cycle_index",
                "cycles_to_keep", "n_qdlin", "first_cycle", "last_cycle", "smoothing_window",
                "n_components", "epochs", "batch_size", "seed", "max_depth",
                "min_samples_leaf", "n_trees"} <= seen

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

    def test_corpus_without_overrides_still_uses_stored_artifacts(self, trained, pipe_cells):
        assert run_evaluate(trained.directory, cells=pipe_cells) == trained.report

    def test_corpus_missing_stored_test_cell(self, trained, pipe_cells):
        gone = trained.report["predictions"][0]["cell_id"]
        reduced = [c for c in pipe_cells if c.cell_id != gone]
        with pytest.raises(CheckpointError, match=f"missing stored test cells: \\['{gone}'\\]"):
            run_evaluate(trained.directory, cells=reduced)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(CheckpointError, match="checkpoint directory not found"):
            run_evaluate(tmp_path / "nowhere")

    def test_unknown_override_keys(self, trained):
        with pytest.raises(ConfigError, match=r"unknown override keys: \['banana'\]"):
            run_evaluate(trained.directory, overrides={"banana": {"name": "x"}})

    @pytest.mark.parametrize("key, section", [
        ("model", {"name": "DummyRegressor"}),
        ("feature_transformation", {"name": "MinMaxDataTransformation"}),
        ("label_transformation", {"name": "MinMaxDataTransformation"}),
    ])
    def test_overrides_of_stored_artifacts_rejected(self, trained, pipe_cells, key, section):
        with pytest.raises(ConfigError, match=f"cannot override \\['{key}'\\]"):
            run_evaluate(trained.directory, overrides={key: section}, cells=pipe_cells)

    def test_feature_override_changing_width_rejected(self, trained, pipe_cells):
        with pytest.raises(ConfigError, match="features have 6 columns but the stored models take \\[1\\]"):
            run_evaluate(
                trained.directory,
                overrides={"feature": {"name": "DischargeModelFeatureExtractor", "interp_dims": 64}},
                cells=pipe_cells,
            )

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

    @pytest.mark.parametrize("seeds", [[0], [1, 0], [0, 1, 2]], ids=["cut", "reordered", "added"])
    def test_edited_seeds_detected(self, trained, tmp_path, seeds):
        # config_hash leaves the seeds out; the report's per-seed rows hold them
        dst = self.copy_checkpoint(trained, tmp_path)
        cfg = yaml.safe_load((dst / "config.yaml").read_text())
        cfg["seeds"] = seeds
        (dst / "config.yaml").write_text(yaml.safe_dump(cfg))
        with pytest.raises(CheckpointError, match=f"^{re.escape(str(dst / 'config.yaml'))}: seeds "):
            run_evaluate(dst)

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

    def test_older_features_file_with_column_names_evaluates_the_same(self, trained, tmp_path):
        # older versions also stored the column names, which evaluation never read
        dst = self.copy_checkpoint(trained, tmp_path)
        values, keys = read_features(dst / "features_test.bin")
        write_container(dst / "features_test.bin", FEATURES_MAGIC,
                        {"col_names": ["log10_var_delta_qdlin"], "row_keys": [list(k) for k in keys]},
                        [("values", values)])
        assert b"col_names" in (dst / "features_test.bin").read_bytes()
        assert run_evaluate(dst) == trained.report

    def test_feature_rows_must_match_label_keys(self, trained, tmp_path):
        dst = self.copy_checkpoint(trained, tmp_path)
        report = json.loads((dst / "report.json").read_text())
        report["predictions"].reverse()
        (dst / "report.json").write_text(json.dumps(report))
        with pytest.raises(CheckpointError, match="features_test.bin: feature rows differ from "
                           "the prediction rows in report.json"):
            run_evaluate(dst)

    def test_step_level_round_trip(self, tmp_path):
        # (cell, cycle, step) keys: evaluation rebuilds them from the report rows
        cells = generate_synthetic(SynthSpec(n_cells=5, cycle_life_mean=40, cycle_life_std=5,
                                             points_per_cycle=16, seed=3))
        cfg = make_config(
            train_test_split={"name": "RandomTrainTestSplitter", "test_fraction": 0.4, "seed": 3},
            feature={"name": "SOCStepFeatureExtractor", "n_qdlin": 4, "max_cycle_index": 2},
            label={"name": "SOCLabelAnnotator", "max_cycle_index": 2},
        )
        ckpt = run_train(cfg, workspace=tmp_path, cells=cells)
        rows = ckpt.report["predictions"]
        assert len(rows) == 96  # two test cells, 48 steps over their first three cycles
        assert all({"cycle", "step"} <= set(row) for row in rows)
        assert run_evaluate(ckpt.directory) == ckpt.report

    def test_label_override_relabels_with_stored_models(self, trained, pipe_cells):
        report = run_evaluate(
            trained.directory,
            overrides={"label": {"name": "RULLabelAnnotator", "eol_soh_percent": 85.0}},
            cells=pipe_cells,
        )
        assert report["overrides"] == ["label"]
        by_id = {c.cell_id: c for c in pipe_cells}
        old = {r["cell_id"]: r for r in trained.report["predictions"]}
        assert len(report["predictions"]) == len(old)
        for row in report["predictions"]:
            assert row["y_true"] == rul_oracle(by_id[row["cell_id"]], percent=85.0)
            assert row["y_true"] < old[row["cell_id"]]["y_true"]
            # stored models and transforms are reused, so predictions persist
            assert row["y_pred"] == old[row["cell_id"]]["y_pred"]

    def test_split_override_scores_new_partition(self, trained, pipe_cells):
        ids = sorted(c.cell_id for c in pipe_cells)
        stored_test = {r["cell_id"] for r in trained.report["predictions"]}
        new_test = [i for i in ids if i not in stored_test][:2]
        new_train = [i for i in ids if i not in new_test]
        report = run_evaluate(
            trained.directory,
            overrides={
                "train_test_split": {
                    "name": "ExplicitTrainTestSplitter",
                    "train_ids": new_train,
                    "test_ids": new_test,
                }
            },
            cells=pipe_cells,
        )
        assert report["overrides"] == ["train_test_split"]
        assert [r["cell_id"] for r in report["predictions"]] == new_test

    def test_split_override_skips_stored_cell_check(self, trained, pipe_cells):
        ids = sorted(c.cell_id for c in pipe_cells)
        stored_test = sorted(r["cell_id"] for r in trained.report["predictions"])
        reduced = [c for c in pipe_cells if c.cell_id != stored_test[0]]
        keep_test = [stored_test[1]]
        keep_train = [i for i in ids if i not in stored_test]
        report = run_evaluate(
            trained.directory,
            overrides={
                "train_test_split": {
                    "name": "ExplicitTrainTestSplitter",
                    "train_ids": keep_train,
                    "test_ids": keep_test,
                }
            },
            cells=reduced,
        )
        assert [r["cell_id"] for r in report["predictions"]] == keep_test

    def test_override_without_corpus_needs_cell_data_path(self, trained):
        with pytest.raises(ConfigError, match="needs 'cell_data_path'"):
            run_evaluate(
                trained.directory,
                overrides={"label": {"name": "RULLabelAnnotator", "eol_soh_percent": 85.0}},
            )

    def test_checkpoint_trained_from_directory_evaluates_from_it(self, pipe_cells, tmp_path):
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
        report = run_evaluate(
            ckpt.directory,
            overrides={"label": {"name": "RULLabelAnnotator", "eol_soh_percent": 85.0}},
        )
        assert report["overrides"] == ["label"]
        by_id = {c.cell_id: c for c in pipe_cells}
        for row in report["predictions"]:
            assert row["y_true"] == rul_oracle(by_id[row["cell_id"]], percent=85.0)


# Every file in configs/ trains in one of the two tests below.
SYNTHETIC_CONFIGS = ["synthetic_soh_mlp", "synthetic_variance_linear", "synthetic_qdmatrix_forest"]
MATR_CONFIGS = ["matr1_variance", "matr1_discharge_ridge"]


class TestShippedConfigs:
    @pytest.mark.parametrize("name", SYNTHETIC_CONFIGS)
    def test_trains_on_quickstart_corpus(self, quickstart_corpus, tmp_path, name):
        cfg = yaml.safe_load((CONFIG_DIR / f"{name}.yaml").read_text())
        ckpt = run_train(cfg, workspace=tmp_path, cells=quickstart_corpus.loaded)
        assert np.isfinite(ckpt.report["mean_rmse"])
        assert run_evaluate(ckpt.directory) == ckpt.report

    def test_every_shipped_config_trains_in_tier_one(self):
        shipped = {path.stem for path in CONFIG_DIR.glob("*.yaml")}
        assert sorted(shipped - set(SYNTHETIC_CONFIGS) - set(MATR_CONFIGS)) == []


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

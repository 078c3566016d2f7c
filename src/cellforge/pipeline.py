"""Config-driven experiment runner.

A run is described by a YAML file with six component sections plus optional
``seeds`` and ``workspace``::

    train_test_split:
        name: 'FixedSplitTrainTestSplitter'
        path: 'data/splits/matr1.json'
        cell_data_path: 'data/processed/MATR'
    feature:
        name: 'VarianceModelFeatureExtractor'
        interp_dims: 1000
    feature_transformation:
        name: 'ZScoreDataTransformation'
    label:
        name: 'RULLabelAnnotator'
    label_transformation:
        name: 'SequentialDataTransformation'
        transformations:
            - name: 'LogScaleDataTransformation'
            - name: 'ZScoreDataTransformation'
    model:
        name: 'LinearRegressionRULPredictor'

Training splits the corpus, then takes one cell at a time, the training
cells before the test cells, through labels and features and drops it before
the next, so a run that reads ``cell_data_path`` holds one cell's pages
instead of the corpus's. It then fits the transforms (on train rows only)
and one model per seed (one model for all seeds when the model takes no
``seed``), and persists everything under
``<workspace>/<config stem>_<hash8>/``; its ``report.json`` is the one home of
the test labels and exclusions. Metrics are computed on labels in original
units (predictions are inverse-transformed before scoring).
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import components as _components  # noqa: F401  (populates registries)
from .battery_data import CellRecord, json_document, load_cells, read_file, yaml_document
from .container import parse_container, write_container
from .errors import CheckpointError, ConfigError, PipelineError
from .features import FeatureMatrix
from .labels import LabelVector
from .models import load_model
from .registry import FEATURES, LABELS, MODELS, SPLITTERS, TRANSFORMS
from .splitters import SplitResult
from .transforms import _Fitted

COMPONENT_KEYS = (
    "train_test_split",
    "feature",
    "feature_transformation",
    "label",
    "label_transformation",
    "model",
)
OPTIONAL_KEYS = ("seeds", "workspace")
# Sections whose fitted artifacts a checkpoint stores; evaluate cannot override them.
STORED_KEYS = ("feature_transformation", "label_transformation", "model")
DEFAULT_SEEDS = tuple(range(10))
FEATURES_MAGIC = b"CFF1"

__all__ = [
    "ComponentSpec",
    "PipelineConfig",
    "Checkpoint",
    "run_train",
    "run_evaluate",
    "read_report",
    "write_features",
    "read_features",
    "rmse",
    "mae",
]


def rmse(y_true, y_pred) -> float:
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    return float(np.sqrt(np.mean((y_true - y_pred) ** 2)))


def mae(y_true, y_pred) -> float:
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    return float(np.mean(np.abs(y_true - y_pred)))


def _jsonify(value):
    """Normalize parsed config values to canonical JSON-safe types."""
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    raise ConfigError(f"unsupported config value type: {type(value).__name__}")


@dataclass(frozen=True)
class ComponentSpec:
    """One config section: a registered name plus constructor parameters."""

    name: str
    params: dict = field(default_factory=dict)

    @classmethod
    def from_config(cls, section, key: str) -> "ComponentSpec":
        if not isinstance(section, dict):
            raise ConfigError(f"{key!r} section must be a mapping with a 'name'")
        section = _jsonify(section)
        name = section.pop("name", None)
        if not isinstance(name, str) or not name:
            raise ConfigError(f"{key!r} section needs a non-empty 'name' string")
        return cls(name=name, params=section)

    def to_dict(self) -> dict:
        return {"name": self.name, **self.params}


@dataclass(frozen=True)
class PipelineConfig:
    train_test_split: ComponentSpec
    feature: ComponentSpec
    feature_transformation: ComponentSpec
    label: ComponentSpec
    label_transformation: ComponentSpec
    model: ComponentSpec
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    workspace: str | None = None
    source_path: Path | None = None

    @classmethod
    def from_dict(cls, obj: dict, source_path=None) -> "PipelineConfig":
        if not isinstance(obj, dict):
            raise ConfigError("config root must be a mapping")
        unknown = sorted(set(obj) - set(COMPONENT_KEYS) - set(OPTIONAL_KEYS))
        if unknown:
            raise ConfigError(f"unknown config keys: {unknown}")
        missing = [k for k in COMPONENT_KEYS if k not in obj]
        if missing:
            raise ConfigError(f"missing config keys: {missing}")
        sections = {k: ComponentSpec.from_config(obj[k], k) for k in COMPONENT_KEYS}
        seeds = obj.get("seeds", list(DEFAULT_SEEDS))
        if (
            not isinstance(seeds, list)
            or not seeds
            or not all(isinstance(s, int) and not isinstance(s, bool) for s in seeds)
        ):
            raise ConfigError("'seeds' must be a non-empty list of integers")
        if len(set(seeds)) != len(seeds):
            raise ConfigError("'seeds' must not repeat")
        if min(seeds) < 0:
            raise ConfigError("'seeds' must not be negative")
        workspace = obj.get("workspace")
        if workspace is not None and not isinstance(workspace, str):
            raise ConfigError("'workspace' must be a string")
        return cls(
            **sections,
            seeds=tuple(seeds),
            workspace=workspace,
            source_path=Path(source_path) if source_path else None,
        )

    @classmethod
    def from_yaml(cls, path) -> "PipelineConfig":
        return read_file(path, ConfigError,
                         lambda data: cls.from_dict(yaml_document(data), source_path=path))

    @classmethod
    def load(cls, config) -> "PipelineConfig":
        if isinstance(config, PipelineConfig):
            return config
        if isinstance(config, dict):
            return cls.from_dict(config)
        return cls.from_yaml(config)

    def to_dict(self) -> dict:
        out = {k: getattr(self, k).to_dict() for k in COMPONENT_KEYS}
        out["seeds"] = list(self.seeds)
        if self.workspace is not None:
            out["workspace"] = self.workspace
        return out

    def config_hash(self) -> str:
        """Identity of the experiment: the six component sections only.

        Seeds and workspace are runtime choices; two runs that differ only
        there share split, features, and labels and may reuse them.
        """
        payload = {k: getattr(self, k).to_dict() for k in COMPONENT_KEYS}
        canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()

    def run_name(self) -> str:
        stem = self.source_path.stem if self.source_path else "run"
        return f"{stem}_{self.config_hash()[:8]}"


def _accepts(factory, param: str) -> bool:
    """Whether a registry factory's signature has the named parameter."""
    try:
        sig = inspect.signature(factory)
    except (TypeError, ValueError):
        return False
    if param in sig.parameters:
        return True
    return any(p.kind is inspect.Parameter.VAR_KEYWORD for p in sig.parameters.values())


def _with_overrides(spec: ComponentSpec, registry, overrides: dict) -> dict:
    """Component params plus split-metadata overrides the factory accepts.

    Explicit config values win over split metadata.
    """
    params = dict(spec.params)
    factory = registry.get_factory(spec.name)
    for key, value in overrides.items():
        if value is None or key in params or factory is None:
            continue
        if _accepts(factory, key):
            params[key] = value
    return params


def _model_params(spec: ComponentSpec, seeds) -> dict:
    """Constructor parameters of each seed that gets a fit of its own: every
    seed when the model takes a ``seed``, otherwise only the first."""
    factory = MODELS.get_factory(spec.name)
    if factory is not None and _accepts(factory, "seed"):
        return {seed: {**spec.params, "seed": seed} for seed in seeds}
    return {seeds[0]: spec.params}


def _align(features, label_vector):
    """Join feature rows to labels by row key, keeping feature-row order.

    Rows of either side without a partner are dropped (an extractor may
    cover fewer cycles than the annotator, or vice versa); an empty join
    is an error.
    """
    by_key = {}
    for key, value in zip(label_vector.row_keys, label_vector.values):
        if key in by_key:
            raise PipelineError(f"duplicate label row key {key!r}")
        by_key[key] = value
    rows, y, keys = [], [], []
    for i, key in enumerate(features.row_keys):
        if key in by_key:
            rows.append(i)
            y.append(by_key[key])
            keys.append(key)
    if not rows:
        raise PipelineError(
            "feature rows and label rows share no keys; feature and label "
            "granularity (cell/cycle/step) must match"
        )
    return features.values[rows], np.asarray(y, dtype=float), keys


def _resolve_workspace(workspace, config: PipelineConfig) -> Path:
    if workspace is not None:
        return Path(workspace)
    if config.workspace is not None:
        return Path(config.workspace)
    env = os.environ.get("CELLFORGE_WORKSPACE")
    if env:
        return Path(env)
    return Path("workspace")


def _split_cells(config: PipelineConfig, cells):
    """Run the splitter and bind the resulting IDs back to cell records."""
    split_params = dict(config.train_test_split.params)
    cell_data_path = split_params.pop("cell_data_path", None)
    if cells is None:
        if cell_data_path is None:
            raise ConfigError(
                "train_test_split needs 'cell_data_path' when cells are not supplied"
            )
        cells = load_cells(cell_data_path)
    cells = sorted(cells, key=lambda c: c.cell_id)
    if not cells:
        raise PipelineError("no cells to run on")
    splitter = SPLITTERS.create(config.train_test_split.name, **split_params)
    split = splitter.split([c.cell_id for c in cells])
    by_id = {c.cell_id: c for c in cells}
    train = [by_id[i] for i in split.train_cell_ids]
    test = [by_id[i] for i in split.test_cell_ids]
    return split, train, test


def _label_and_featurize(config: PipelineConfig, split: SplitResult, **partitions):
    """Labels then features of each named partition, in the order given: for
    each, ``(features, y, excluded)``, where ``features`` is a matrix whose
    rows are the partition's label keys and ``y`` the labels in that order.

    Each partition is a list the pipeline owns; it is emptied one cell at a
    time (see :func:`_take_partition`).
    """
    meta = split.metadata
    label_params = _with_overrides(
        config.label, LABELS, {"eol_soh_percent": meta.get("eol_soh")}
    )
    feature_params = _with_overrides(
        config.feature, FEATURES, {"observed_cycles": meta.get("observed_cycles")}
    )
    annotator = LABELS.create(config.label.name, **label_params)
    extractor = FEATURES.create(config.feature.name, **feature_params)
    return {name: _take_partition(annotator, extractor, cells, name)
            for name, cells in partitions.items()}


def _take_partition(annotator, extractor, cells, partition: str):
    """The aligned features, labels and exclusions of ``cells``, taken one
    cell at a time: each is popped from ``cells``, labelled, featurized when
    it got label rows, and dropped before the next, so a mapped cell's pages
    leave memory before the next cell's are read. The per-cell rows are
    joined once at the end, equal to those of the whole partition at once."""
    features, labels, excluded = [], [], []
    cells.reverse()  # pop from the end in the partition's order
    while cells:
        one = [cells.pop()]
        cell_labels, cell_excluded = annotator.annotate(one)
        excluded += [{"cell_id": cid, "reason": reason} for cid, reason in cell_excluded]
        if cell_labels.row_keys:
            labels.append(cell_labels)
            features.append(extractor.extract(one))
    if not labels:
        raise PipelineError(f"all {partition} cells were excluded by the label annotator")
    X, y, keys = _align(
        FeatureMatrix(np.concatenate([f.values for f in features]),
                      [k for f in features for k in f.row_keys], features[0].col_names),
        LabelVector(np.concatenate([lv.values for lv in labels]),
                    [k for lv in labels for k in lv.row_keys]),
    )
    return FeatureMatrix(X, keys, features[0].col_names), y, excluded


def _fit_transforms(config: PipelineConfig, X_train, y_train):
    ft = TRANSFORMS.create(
        config.feature_transformation.name, **config.feature_transformation.params
    )
    lt = TRANSFORMS.create(
        config.label_transformation.name, **config.label_transformation.params
    )
    ft.fit(X_train)
    lt.fit(y_train)
    return ft, lt


def _score(seeds, models, lt, Xte, y_test):
    """Per-seed metrics plus the across-seed mean prediction per test row;
    each fit predicts once, and a seed without a fit of its own is scored
    with the first seed's fit."""
    predicted = {}
    for seed, model in models.items():
        predicted[seed] = lt.inverse_transform(model.predict(Xte))
        if not np.isfinite(predicted[seed]).all():
            raise PipelineError(
                f"seed {seed}: {type(model).__name__} predicts non-finite values "
                "(the fit diverged, or the label transformation overflowed)"
            )
    per_seed, preds = [], []
    for seed in seeds:
        y_pred = predicted.get(seed, predicted[seeds[0]])
        preds.append(y_pred)
        per_seed.append(
            {"seed": seed, "rmse": rmse(y_test, y_pred), "mae": mae(y_test, y_pred)}
        )
    mean_pred = np.mean(np.stack(preds), axis=0)
    return per_seed, mean_pred


def _prediction_rows(keys, y_true, y_pred):
    rows = []
    for key, yt, yp in zip(keys, y_true, y_pred):
        cell_id, cycle, step = key
        row = {"cell_id": cell_id}
        if cycle is not None:
            row["cycle"] = int(cycle)
        if step is not None:
            row["step"] = int(step)
        row["y_true"] = float(yt)
        row["y_pred"] = float(yp)
        rows.append(row)
    return rows


def _report(config, per_seed, keys_test, y_test, mean_pred, excluded, overrides=()):
    rmses = np.array([s["rmse"] for s in per_seed])
    maes = np.array([s["mae"] for s in per_seed])
    report = {
        "config_hash": config.config_hash(),
        "per_seed": per_seed,
        "mean_rmse": float(rmses.mean()),
        "sd_rmse": float(rmses.std()),
        "mean_mae": float(maes.mean()),
        "sd_mae": float(maes.std()),
        "predictions": _prediction_rows(keys_test, y_test, mean_pred),
        "excluded": excluded,
    }
    if overrides:
        report["overrides"] = sorted(overrides)
    return report


@dataclass(frozen=True)
class Checkpoint:
    """A persisted training run: its directory and the evaluation report."""

    directory: Path
    report: dict


def run_train(config, workspace=None, cells: list[CellRecord] | None = None) -> Checkpoint:
    """Train per config and persist a checkpoint; returns it with the report.

    ``cells`` short-circuits corpus loading (callers that already hold the
    records in memory) and is left as it is; otherwise cells come from
    ``cell_data_path``.
    """
    config = PipelineConfig.load(config)
    split, train_cells, test_cells = _split_cells(config, cells)
    data = _label_and_featurize(config, split, training=train_cells, test=test_cells)
    train, y_train, excl_train = data["training"]
    features_test, y_test, excl_test = data["test"]

    ft, lt = _fit_transforms(config, train.values, y_train)
    Xtr = ft.transform(train.values)
    ytr = lt.transform(y_train)
    Xte = ft.transform(features_test.values)

    models = {seed: MODELS.create(config.model.name, **params).fit(Xtr, ytr)
              for seed, params in _model_params(config.model, config.seeds).items()}

    per_seed, mean_pred = _score(config.seeds, models, lt, Xte, y_test)
    report = _report(
        config, per_seed, features_test.row_keys, y_test, mean_pred, excl_train + excl_test
    )

    ckpt_dir = _resolve_workspace(workspace, config) / config.run_name()
    _write_checkpoint(ckpt_dir, config, split, features_test, ft, lt, models, report)
    return Checkpoint(directory=ckpt_dir, report=report)


def _write_checkpoint(ckpt_dir, config, split, features_test, ft, lt, models, report):
    """Write the checkpoint into ``<run>.tmp/``, then replace any older
    ``<run>/`` with it; on failure the temporary directory is removed."""
    tmp = ckpt_dir.with_name(ckpt_dir.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        if config.source_path is not None and config.source_path.is_file():
            shutil.copyfile(config.source_path, tmp / "config.yaml")
        else:
            (tmp / "config.yaml").write_text(yaml.safe_dump(config.to_dict()))
        _write_json(tmp / "report.json", report)
        _write_json(tmp / "split.json", split.to_dict())
        _write_json(
            tmp / "transforms.json",
            {"feature_transformation": ft.to_dict(), "label_transformation": lt.to_dict()},
        )
        write_features(tmp / "features_test.bin", features_test)
        for seed, model in models.items():
            model.save(tmp / f"model_seed{seed}.bin")
        shutil.rmtree(ckpt_dir, ignore_errors=True)
        tmp.rename(ckpt_dir)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, allow_nan=False)


def write_features(path, matrix: FeatureMatrix) -> Path:
    """Write ``matrix``'s row keys and values as one ``CFF1`` container
    file; its column names stay out, as the config's feature section
    rebuilds them."""
    return write_container(path, FEATURES_MAGIC, {"row_keys": [list(k) for k in matrix.row_keys]},
                           [("values", matrix.values)])


def read_features(path) -> tuple[np.ndarray, list[tuple]]:
    """The values and row keys :func:`write_features` wrote to ``path``; a
    ``col_names`` key that older versions wrote is ignored. A missing or
    malformed file raises :class:`CheckpointError` naming it."""
    return read_file(path, CheckpointError, _features_document)


def _features_document(data: bytes):
    header, blocks = parse_container(data, FEATURES_MAGIC, CheckpointError)
    keys = header.get("row_keys")
    if not (isinstance(keys, list) and all(isinstance(k, list) for k in keys)):
        raise CheckpointError("header needs 'row_keys' (arrays)")
    shapes = {name: b.shape for name, b in blocks.items()}
    if list(shapes) != ["values"] or len(shapes["values"]) != 2 or shapes["values"][0] != len(keys):
        raise CheckpointError(f"expected one 2-D 'values' block of {len(keys)} rows, "
                              f"got shapes {shapes}")
    return blocks["values"], [tuple(k) for k in keys]


def read_report(checkpoint) -> dict:
    """A checkpoint's ``report.json``, checked for the fields evaluation and plotting read."""
    return read_file(Path(checkpoint) / "report.json", CheckpointError, _report_document)


def _report_document(data: bytes) -> dict:
    report = json_document(data)
    rows = report.get("predictions") if isinstance(report, dict) else None
    if not (isinstance(rows, list) and isinstance(report.get("excluded"), list) and all(
            isinstance(r, dict) and isinstance(r.get("cell_id"), str)
            and all(type(r.get(k)) in (int, float) for k in ("y_true", "y_pred")) for r in rows)):
        raise CheckpointError("expected an 'excluded' list and 'predictions' rows with "
                              "a string 'cell_id' and numeric 'y_true' and 'y_pred'")
    return report


def _transforms_document(data: bytes):
    """The fitted feature and label transformations stored in ``data``."""
    payload = json_document(data)
    keys = ("feature_transformation", "label_transformation")
    if not (isinstance(payload, dict) and all(k in payload for k in keys)):
        raise CheckpointError(f"expected an object with {list(keys)}")
    return tuple(_Fitted.from_dict(payload[k]) for k in keys)


def run_evaluate(checkpoint, overrides: dict | None = None,
                 cells: list[CellRecord] | None = None) -> dict:
    """Recompute the evaluation report of a stored checkpoint.

    Without overrides the stored test features, transforms and models
    recompute the predictions and metrics against the test labels and
    exclusions of the stored report, so the result is bit-identical to the
    report written at train time. ``overrides`` replaces whole
    ``train_test_split``, ``feature`` or ``label`` sections and forces those
    stages to rerun on the test cells of a corpus (``cells`` or the split's
    ``cell_data_path``), the only cells scored; the report then flags which
    sections were overridden and lists the test cells' exclusions. The stored transforms and models always score, so
    overriding their sections is an error. A corpus passed without overrides
    is checked for the stored test cells (missing ones are an error) but
    stored features are still used.
    """
    ckpt_dir = Path(checkpoint)
    if not ckpt_dir.is_dir():
        raise CheckpointError(f"checkpoint directory not found: {ckpt_dir}")

    stored_report = read_report(ckpt_dir)
    config_path = ckpt_dir / "config.yaml"
    stored_config = read_file(config_path, CheckpointError,
                              lambda data: PipelineConfig.from_dict(yaml_document(data)))
    if stored_config.config_hash() != stored_report.get("config_hash"):
        raise CheckpointError(
            "stored config does not match the hash in report.json; the "
            "checkpoint was modified after training"
        )
    # config_hash leaves the seeds out, so they are checked against the scored seeds
    per_seed = stored_report.get("per_seed")
    scored = ([s.get("seed") if isinstance(s, dict) else None for s in per_seed]
              if isinstance(per_seed, list) else None)
    if scored != list(stored_config.seeds):
        raise CheckpointError(f"{config_path}: seeds {list(stored_config.seeds)} differ from "
                              f"the seeds scored in report.json, {scored}")

    overrides = dict(overrides or {})
    unknown = sorted(set(overrides) - set(COMPONENT_KEYS))
    if unknown:
        raise ConfigError(f"unknown override keys: {unknown}")
    stored = sorted(set(overrides) & set(STORED_KEYS))
    if stored:
        raise ConfigError(
            f"cannot override {stored} at evaluation: the checkpoint's fitted "
            "transforms and models are what it scores; train a new checkpoint instead"
        )
    merged = stored_config.to_dict()
    merged.update({k: _jsonify(v) for k, v in overrides.items()})
    merged.pop("workspace", None)
    config = PipelineConfig.from_dict(merged)

    ft, lt = read_file(ckpt_dir / "transforms.json", CheckpointError, _transforms_document)
    models = {seed: load_model(ckpt_dir / f"model_seed{seed}.bin")
              for seed in _model_params(config.model, config.seeds)}

    stored_split = read_file(ckpt_dir / "split.json", CheckpointError,
                             lambda data: SplitResult.from_dict(json_document(data)))
    if cells is not None:
        available = {c.cell_id for c in cells}
        missing = [cid for cid in stored_split.test_cell_ids if cid not in available]
        if missing and "train_test_split" not in overrides:
            raise CheckpointError(f"corpus is missing stored test cells: {missing}")

    if not overrides:
        X_test, keys_test = read_features(ckpt_dir / "features_test.bin")
        rows = stored_report["predictions"]
        if keys_test != [(r["cell_id"], r.get("cycle"), r.get("step")) for r in rows]:
            raise CheckpointError(
                f"{ckpt_dir / 'features_test.bin'}: feature rows differ from the "
                "prediction rows in report.json"
            )
        y_test = np.array([r["y_true"] for r in rows], dtype=float)
        excluded = stored_report["excluded"]
    else:
        split, _, test_cells = _split_cells(config, cells)
        features_test, y_test, excluded = _label_and_featurize(config, split, test=test_cells)["test"]
        X_test, keys_test = features_test.values, features_test.row_keys

    widths = sorted({model.n_features_ for model in models.values()})
    if widths != [X_test.shape[1]]:
        raise ConfigError(
            f"features have {X_test.shape[1]} columns but the stored models take {widths}; "
            "a feature override must keep the trained feature width"
        )
    Xte = ft.transform(X_test)
    per_seed, mean_pred = _score(config.seeds, models, lt, Xte, y_test)
    return _report(config, per_seed, keys_test, y_test, mean_pred, excluded, overrides=overrides)

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
cells before the test cells, through labels and features, joins its feature
and label rows by row key and drops all but the joined rows before the
next, so a run that reads ``cell_data_path`` holds one cell's pages instead
of the corpus's. It then fits the transforms (on train rows only)
and one model per seed (one model for all seeds when the model takes no
``seed``), and persists everything under
``<workspace>/<config stem>_<hash8>/``; its ``report.json`` is the one home of
the test labels and exclusions. Metrics are computed on labels in original
units (predictions are inverse-transformed before scoring).
"""

from __future__ import annotations

import contextlib
import errno
import hashlib
import inspect
import json
import os
import shutil
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import components as _components  # noqa: F401  (populates registries)
from .battery_data import (CellRecord, cell_files, json_document, read_cell, read_file, write_json,
                           yaml_document)
from .container import parse_container, write_container
from .errors import CheckpointError, ConfigError, FeatureError, PipelineError, TransformError
from .features import FeatureMatrix, RowKeys
from .models import load_model, model_seeds, save_models
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
    """Whether a registry factory (None for an unknown name) has the named parameter."""
    if factory is None:
        return False
    sig = inspect.signature(factory)
    if param in sig.parameters:
        return True
    return any(p.kind is inspect.Parameter.VAR_KEYWORD for p in sig.parameters.values())


def _model_params(spec: ComponentSpec, seeds) -> dict:
    """Constructor parameters of each seed that gets a fit of its own: every
    seed when the model takes a ``seed``, otherwise only the first."""
    if _accepts(MODELS.get_factory(spec.name), "seed"):
        return {seed: {**spec.params, "seed": seed} for seed in seeds}
    return {seeds[0]: spec.params}


def _key_codes(keys: RowKeys) -> np.ndarray:
    """One int64 code per row, ordered as the keys within a cell: the dense
    rank of its key, cells ranked in the order they first appear, from one
    lexsort and a running count of key changes, so no value range is
    assumed and no code reaches the row count."""
    ids = {}
    levels = [np.array([ids.setdefault(cell_id, len(ids)) for cell_id, _ in keys.cell_id],
                       dtype=np.int64)[keys.runs()]]
    levels += [level for level in (keys.cycle, keys.step) if level is not None]
    order = np.lexsort(levels[::-1])
    changed = np.zeros(len(order), dtype=np.int64)
    for level in levels:
        ordered = level[order]
        changed[1:] |= ordered[1:] != ordered[:-1]
    code = np.empty_like(changed)
    code[order] = np.cumsum(changed)
    return code


def _align(features, label_vector):
    """Join feature rows to labels by row key, keeping feature-row order:
    ``(X, y, keys)`` of the rows both sides have. Training joins one cell's
    rows at a time (see :func:`_take_partition`).

    Rows of either side without a partner are dropped (an extractor may
    cover fewer cycles than the annotator, or vice versa), so the join may
    be empty; a repeated label key is an error.
    """
    fk, lk = features.row_keys, label_vector.row_keys
    same = (fk.cycle is None, fk.step is None) == (lk.cycle is None, lk.step is None)
    codes = _key_codes(RowKeys.concat([lk, fk] if same else [lk]))
    order = np.argsort(codes[: len(lk)], kind="stable")
    label_codes, feature_codes = codes[order], codes[len(lk):]
    repeated = order[1:][label_codes[1:] == label_codes[:-1]]
    if repeated.size:
        i = repeated.min()
        cycle, step = (None if a is None else int(a[i]) for a in (lk.cycle, lk.step))
        raise PipelineError(f"duplicate label row key "
                            f"({lk.cell_id[lk.runs()[i]][0]!r}, {cycle!r}, {step!r})")
    at = np.searchsorted(label_codes, feature_codes).clip(max=max(len(lk) - 1, 0))
    rows = np.flatnonzero(label_codes[at] == feature_codes) if len(lk) else at[:0]
    return features.values[rows], label_vector.values[order[at[rows]]], fk.take(rows)


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
    """Run the splitter on the IDs of ``cells``, or when it is None of the
    cell files at the split section's ``cell_data_path``, read from their
    headers alone, and bind the resulting IDs back to cell records or to
    the files that hold them."""
    split_params = dict(config.train_test_split.params)
    cell_data_path = split_params.pop("cell_data_path", None)
    if cells is not None:
        ids = [c.cell_id for c in cells]
        by_id = dict(zip(ids, cells))
        if len(by_id) < len(ids):
            repeated = next(i for i, n in Counter(ids).items() if n > 1)
            raise PipelineError(f"cell_id {repeated!r} is given more than once")
    elif cell_data_path is not None:
        by_id = cell_files(cell_data_path)
        ids = list(by_id)
    else:
        raise ConfigError("train_test_split needs 'cell_data_path' when cells are not supplied")
    if not ids:
        raise PipelineError("no cells to run on")
    splitter = SPLITTERS.create(config.train_test_split.name, **split_params)
    split = splitter.split(sorted(ids))
    train = [by_id[i] for i in split.train_cell_ids]
    test = [by_id[i] for i in split.test_cell_ids]
    return split, train, test


def _label_and_featurize(config: PipelineConfig, split: SplitResult, **partitions):
    """Labels then features of each named partition, in the order given: for
    each, ``(features, y, excluded)``, where ``features`` is a matrix whose
    rows are the partition's label keys and ``y`` the labels in that order.

    The run's components and cycle window are worked out here, once (see
    "Cycle windows" in the README). A split's ``eol_soh`` is the annotator's
    ``eol_soh_percent``, unless the label section sets one or it takes none.

    Each partition is a list the pipeline owns, of cell records or of cell
    files; it is emptied one cell at a time (see :func:`_take_partition`).
    """
    label_params, eol_soh = dict(config.label.params), split.metadata.get("eol_soh")
    if eol_soh is not None and _accepts(LABELS.get_factory(config.label.name), "eol_soh_percent"):
        label_params.setdefault("eol_soh_percent", eol_soh)
    annotator = LABELS.create(config.label.name, **label_params)
    extractor = FEATURES.create(config.feature.name, **config.feature.params)
    budget, horizon = split.metadata.get("observed_cycles"), getattr(extractor, "horizon", None)
    fixed = getattr(extractor, "fixed_horizon", False)
    if budget is not None and fixed and (horizon is None or horizon > budget):
        reads = "every cycle" if horizon is None else f"the first {horizon} cycles"
        raise FeatureError(f"{config.feature.name}: reads {reads}, "
                           f"past the observed-cycle budget of {budget}")
    cut = min((h for h in (horizon, budget) if h is not None), default=None)
    label_h = getattr(annotator, "horizon", None)
    head = None if None in (label_h, cut) else max(label_h, cut)
    needs = (horizon or 0) if fixed else 0
    return {name: _take_partition(annotator, extractor, cells, name, head, cut, needs)
            for name, cells in partitions.items()}


def _take_partition(annotator, extractor, cells, partition: str, head, cut, needs):
    """The joined features, labels and exclusions of ``cells``, taken one
    cell at a time: each is popped from ``cells`` (and a cell file read), cut
    to its first ``head`` cycles, labelled, featurized when it got label rows
    (cut to ``cut``), joined (:func:`_align`), and dropped with all but its
    joined rows before the next is read; a cut of None keeps every cycle. A
    labelled cell shorter than ``needs`` is excluded with its reason, as the
    annotator excludes a cell. Every row key carries its cell's ID, so the
    rows equal those of one join of the whole partition."""
    joined, excluded = [], []
    cells.reverse()  # pop from the end in the partition's order
    while cells:
        one = [cells.pop()]
        if not isinstance(one[0], CellRecord):
            one = [read_cell(one[0])]
        one = [one[0].head(head)]
        labels, cell_excluded = annotator.annotate(one)
        excluded += [{"cell_id": cid, "reason": reason} for cid, reason in cell_excluded]
        n = len(one[0].cycle_data)  # a head of at least the extractor's horizon, when the cell has it
        if labels.row_keys and n < needs:
            excluded.append({"cell_id": one[0].cell_id, "reason": f"needs >= {needs} cycles, has {n}"})
        elif labels.row_keys:
            features = extractor.extract([one[0].head(cut)])
            joined.append(_align(features, labels))
        del one  # so the next cell is read with this one gone
    if not joined:
        first = f", first {excluded[0]['cell_id']}: {excluded[0]['reason']}" if excluded else ""
        raise PipelineError(f"all {partition} cells were excluded{first}")
    X, y, keys = zip(*joined)
    keys = RowKeys.concat(keys)
    if not keys:
        raise PipelineError(
            "feature rows and label rows share no keys; feature and label "
            "granularity (cell/cycle/step) must match"
        )
    return FeatureMatrix(np.concatenate(X), keys, features.col_names), np.concatenate(y), excluded


def _score(seeds, models, ft, lt, X_test, y_test):
    """Per-seed metrics, as ``seed``, ``rmse`` and ``mae`` columns, plus the
    across-seed mean prediction per test row; each fit predicts once on the
    transformed ``X_test``, and a seed without a fit of its own is scored
    with the first seed's fit."""
    Xte = ft.transform(X_test)
    predicted = {}
    for seed, model in models.items():
        predicted[seed] = lt.inverse_transform(model.predict(Xte))
        if not np.isfinite(predicted[seed]).all():
            raise PipelineError(
                f"seed {seed}: {type(model).__name__} predicts non-finite values "
                "(the fit diverged, or the label transformation overflowed)"
            )
        with np.errstate(over="ignore"):  # refused here, with the seed
            if not np.isfinite(rmse(y_test, predicted[seed])):
                raise PipelineError(f"seed {seed}: {type(model).__name__} predicts values whose "
                                    "squared error overflows (the fit diverged)")
    preds = [predicted.get(seed, predicted[seeds[0]]) for seed in seeds]
    per_seed = {"seed": list(seeds), "rmse": [rmse(y_test, p) for p in preds],
                "mae": [mae(y_test, p) for p in preds]}
    return per_seed, np.mean(np.stack(preds), axis=0)


def _first_unordered(keys: RowKeys):
    """The index of the first row whose key does not strictly follow the one
    before it in its cell's run, or None: training writes each cell's rows
    in key order."""
    code, runs = _key_codes(keys), keys.runs()
    unordered = np.flatnonzero((runs[1:] == runs[:-1]) & (code[1:] <= code[:-1]))
    return int(unordered[0]) + 1 if unordered.size else None


def _report(config, models, ft, lt, X_test, key_columns, y_test, excluded):
    """The evaluation report of ``models`` on the raw test features
    ``X_test``, whose rows have the ``report["predictions"]`` key columns
    ``key_columns`` and labels ``y_test``: the one scoring tail of training
    and of checkpoint verification."""
    per_seed, mean_pred = _score(config.seeds, models, ft, lt, X_test, y_test)
    rmses = np.array(per_seed["rmse"])
    maes = np.array(per_seed["mae"])
    return {
        "config_hash": config.config_hash(),
        "per_seed": per_seed,
        "mean_rmse": float(rmses.mean()),
        "sd_rmse": float(rmses.std()),
        "mean_mae": float(maes.mean()),
        "sd_mae": float(maes.std()),
        "predictions": {**key_columns, "y_true": y_test.tolist(), "y_pred": mean_pred.tolist()},
        "excluded": excluded,
    }


@dataclass(frozen=True)
class Checkpoint:
    """A persisted training run: its directory and the evaluation report."""

    directory: Path
    report: dict


def run_train(config, workspace=None, cells: list[CellRecord] | None = None) -> Checkpoint:
    """Train per config and persist a checkpoint; returns it with the report.

    ``cells`` short-circuits corpus loading (callers that already hold the
    records in memory, each under its own ``cell_id``) and is left as it
    is; otherwise cells come from ``cell_data_path``.
    """
    config = PipelineConfig.load(config)
    # built before the first cell is read, so a bad section fails at once
    ft, lt = (TRANSFORMS.create(spec.name, **spec.params)
              for spec in (config.feature_transformation, config.label_transformation))
    models = {seed: MODELS.create(config.model.name, **params)
              for seed, params in _model_params(config.model, config.seeds).items()}
    split, train_cells, test_cells = _split_cells(config, cells)
    data = _label_and_featurize(config, split, training=train_cells, test=test_cells)
    train, y_train, excl_train = data["training"]
    features_test, y_test, excl_test = data["test"]

    keys = features_test.row_keys
    unordered = _first_unordered(keys)
    if unordered is not None:  # evaluation would refuse the checkpoint
        raise PipelineError(f"{keys.cell_id[keys.runs()[unordered]][0]}: its test rows do not strictly "
                            "increase in (cycle, step), so evaluation would refuse the checkpoint; "
                            "validate() reports a cell whose cycle numbers do not increase")
    Xtr = ft.fit(train.values).transform(train.values)
    ytr = lt.fit(y_train).transform(y_train)
    models = {seed: model.fit(Xtr, ytr) for seed, model in models.items()}

    report = _report(config, models, ft, lt, features_test.values, keys.columns(),
                     y_test, excl_train + excl_test)

    ckpt_dir = _resolve_workspace(workspace, config) / config.run_name()
    _write_checkpoint(ckpt_dir, config, split, features_test, ft, lt, models, report)
    return Checkpoint(directory=ckpt_dir, report=report)


def _write_checkpoint(ckpt_dir, config, split, features_test, ft, lt, models, report):
    """Write the checkpoint into a new directory of its own beside ``<run>/``
    (``tempfile.mkdtemp``), then swap it in with two renames: any older
    ``<run>/`` aside, then the new one in. A train of the same run that
    swaps its checkpoint in between the two is moved aside in turn, so the
    last to finish wins. What was moved aside, or written before a failure,
    is removed with the temporary directory."""
    ckpt_dir.parent.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{ckpt_dir.name}.", suffix=".tmp", dir=ckpt_dir.parent))
    new, old = work / "new", work / "old"
    try:
        new.mkdir()  # with the permissions of any other directory made here
        (new / "config.yaml").write_text(yaml.safe_dump(config.to_dict()))  # the config as trained
        write_json(new / "report.json", report)
        write_json(new / "split.json", split.to_dict())
        write_json(new / "transforms.json",
                   {"feature_transformation": ft.to_dict(), "label_transformation": lt.to_dict()})
        write_features(new / "features_test.bin", features_test.values)
        save_models(new / "models.bin", models.values())
        while True:
            with contextlib.suppress(FileNotFoundError):  # no older checkpoint
                ckpt_dir.rename(old)
            try:
                new.rename(ckpt_dir)
                break
            except OSError as exc:  # another train's checkpoint came in between the renames
                if exc.errno not in (errno.EEXIST, errno.ENOTEMPTY):
                    raise
                shutil.rmtree(old, ignore_errors=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def write_features(path, values: np.ndarray) -> Path:
    """Write the 2-D test feature ``values`` alone as one ``CFF1`` container file,
    deflated when that makes it smaller; ``report.json``'s prediction rows hold
    their row keys, and the config's feature section names their columns."""
    return write_container(path, FEATURES_MAGIC, {}, [("values", values)], deflate=True)


def read_features(path) -> np.ndarray:
    """The values :func:`write_features` wrote to ``path``; a missing or malformed file,
    or one of an older layout, raises :class:`CheckpointError` naming it."""
    return read_file(path, CheckpointError, _features_document)


def _features_document(data: bytes):
    header, blocks = parse_container(data, FEATURES_MAGIC, CheckpointError)
    older = sorted(set(header) - {"blocks", "deflate"})
    if older:
        raise CheckpointError(f"an older layout, whose header holds {older}; train the checkpoint again")
    shapes = {name: b.shape for name, b in blocks.items()}
    if list(shapes) != ["values"] or len(shapes["values"]) != 2:
        raise CheckpointError(f"expected one 2-D 'values' block, got shapes {shapes}")
    return blocks["values"]


def read_report(checkpoint) -> dict:
    """A checkpoint's ``report.json``, checked for the fields evaluation and plotting read."""
    return read_file(Path(checkpoint) / "report.json", CheckpointError, _report_document)


# The per-row columns of report["predictions"] besides its 'cell_id' runs, with the
# type json.load gives the values training writes there: integer keys, and float
# labels and predictions (bool is its own type).
_ROW_COLUMNS = {"cycle": int, "step": int, "y_true": float, "y_pred": float}


def _report_document(data: bytes) -> dict:
    report = json_document(data)
    if isinstance(report, dict) and any(isinstance(report.get(k), list)
                                        for k in ("per_seed", "predictions")):
        raise CheckpointError("an older report layout, with one object per row; "
                              "train the checkpoint again")
    columns = report.get("predictions") if isinstance(report, dict) else None
    if not (isinstance(columns, dict) and isinstance(report.get("excluded"), list)
            and all(isinstance(columns.get(k), list) for k in ("cell_id", "y_true", "y_pred"))
            and all(isinstance(columns[k], list) for k in ("cycle", "step") if k in columns)):
        raise CheckpointError("expected an 'excluded' list and a 'predictions' object of 'cell_id', "
                              "'y_true' and 'y_pred' lists, and 'cycle' and 'step' lists where present")
    runs = columns["cell_id"]
    if not all(isinstance(r, list) and len(r) == 2 and isinstance(r[0], str)
               and type(r[1]) is int and r[1] > 0 for r in runs):
        raise CheckpointError("'predictions' 'cell_id' must be [id, count] runs of a string ID "
                              "and a positive integer count")
    for name, kind in _ROW_COLUMNS.items():
        if name in columns and not set(map(type, columns[name])) <= {kind}:
            held = "integers alone" if kind is int else "numbers alone, written as floats"
            raise CheckpointError(f"'predictions' '{name}' must hold {held}")
    rows = sum(count for _, count in runs)
    lengths = {name: len(columns[name]) for name in _ROW_COLUMNS if name in columns}
    if set(lengths.values()) != {rows}:
        raise CheckpointError(f"'predictions' columns differ in length: the 'cell_id' runs "
                              f"count {rows} rows, and the columns hold {lengths}")
    return report


def _transforms_document(data: bytes):
    """The fitted feature and label transformations stored in ``data``."""
    payload = json_document(data)
    keys = ("feature_transformation", "label_transformation")
    if not (isinstance(payload, dict) and all(k in payload for k in keys)):
        raise CheckpointError(f"expected an object with {list(keys)}")
    return tuple(_Fitted.from_dict(payload[k]) for k in keys)


def _load_models(ckpt_dir, seeds) -> dict:
    """The fit of each of ``seeds`` in the checkpoint's ``models.bin``, which
    must hold the fits of those seeds alone, in that order."""
    older = sorted(ckpt_dir.glob("model_seed*.bin"))
    if older:
        raise CheckpointError(f"{older[0]}: an older layout, one model file per seed; "
                              "train the checkpoint again")
    path = ckpt_dir / "models.bin"
    stored = model_seeds(path)
    if stored not in (None, seeds):
        raise CheckpointError(f"{path}: holds the fits of seeds {stored}, where the config asks for "
                              f"{seeds}; train the checkpoint again")
    return {seed: load_model(path, seed) for seed in seeds}


def run_evaluate(checkpoint) -> dict:
    """Recompute the evaluation report of a stored checkpoint from its
    directory alone.

    The stored config, test features, transforms and models recompute the
    report against the row keys, test labels and exclusions of the stored
    report. The checkpoint is refused unless the result equals its
    ``report.json``, ``split.json``'s test cells are those that the report
    scores or excludes, and the report's rows follow those cells in order,
    each cell's in key order, as training writes them; that report is
    returned, so what evaluation
    returns is what training wrote. No cell is read: to score under another
    label, feature or split section, train again with the edited config.
    """
    ckpt_dir = Path(checkpoint)
    if not ckpt_dir.is_dir():
        raise CheckpointError(f"checkpoint directory not found: {ckpt_dir}")

    stored_report = read_report(ckpt_dir)
    stored_config = read_file(ckpt_dir / "config.yaml", CheckpointError,
                              lambda data: PipelineConfig.from_dict(yaml_document(data)))
    ft, lt = read_file(ckpt_dir / "transforms.json", CheckpointError, _transforms_document)
    models = _load_models(ckpt_dir, list(_model_params(stored_config.model, stored_config.seeds)))

    stored_split = read_file(ckpt_dir / "split.json", CheckpointError,
                             lambda data: SplitResult.from_dict(json_document(data)))
    X_test = read_features(ckpt_dir / "features_test.bin")
    try:  # no rows: only a state of another width than the features refuses them
        ft.inverse_transform(X_test[:0])
    except TransformError as exc:
        raise CheckpointError(f"{ckpt_dir / 'transforms.json'}: its feature transformation does not "
                              f"fit the {X_test.shape[1]} columns of features_test.bin ({exc})") from exc
    columns = stored_report["predictions"]
    n = len(columns["y_true"])
    if n != len(X_test):
        raise CheckpointError(f"{ckpt_dir / 'report.json'}: {n} prediction rows, but "
                              f"features_test.bin stores {len(X_test)} feature rows")
    runs = columns["cell_id"]
    scored = {cell_id for cell_id, _ in runs}
    accounted = scored | {e.get("cell_id") for e in stored_report["excluded"] if isinstance(e, dict)}
    unlisted = sorted(scored - set(stored_split.test_cell_ids))
    unaccounted = [cid for cid in stored_split.test_cell_ids if cid not in accounted]
    if unlisted or unaccounted:
        raise CheckpointError(
            f"{ckpt_dir / 'split.json'}: its test cells differ from those report.json scores "
            f"or excludes: it lacks {unlisted} and adds {unaccounted}"
        )
    # training scores the test cells in split.json's order
    position = {cell_id: i for i, cell_id in enumerate(stored_split.test_cell_ids)}
    order = [position[cell_id] for cell_id, _ in runs]
    if any(a >= b for a, b in zip(order, order[1:])):
        raise CheckpointError(f"{ckpt_dir / 'report.json'}: its 'cell_id' runs do not follow "
                              "split.json's test cells in order, one run per cell")
    try:  # training writes int64 keys
        keys = RowKeys(runs, columns.get("cycle"), columns.get("step"))
    except OverflowError:
        raise CheckpointError(f"{ckpt_dir / 'report.json'}: a 'cycle' or 'step' key is past "
                              "the int64 range") from None
    if _first_unordered(keys) is not None:
        raise CheckpointError(f"{ckpt_dir / 'report.json'}: its ('cycle', 'step') keys do not "
                              "strictly increase within a cell's run")
    y_test = np.array(columns["y_true"], dtype=float)
    report = _report(stored_config, models, ft, lt, X_test,
                     {k: columns[k] for k in ("cell_id", "cycle", "step") if k in columns}, y_test,
                     stored_report["excluded"])
    if report != stored_report:
        differ = sorted(k for k in report.keys() | stored_report.keys()
                        if (k in report, report.get(k)) != (k in stored_report, stored_report.get(k)))
        raise CheckpointError(
            f"{ckpt_dir / 'report.json'}: the stored config, features, transforms and models "
            f"give a report that differs in {differ}; unless NumPy or its BLAS rounds differently "
            'here than where the checkpoint was trained (see "Pipeline configs" in the README), '
            "the checkpoint was modified after training"
        )
    return report

"""Training takes the corpus one cell at a time.

``pipeline._label_and_featurize`` labels and featurizes each cell on its own,
checks that its feature rows are its label rows, and drops it before the
next. These tests hold it to the result of the whole-corpus order (every
cell labelled, then every kept cell featurized), bit for bit, refuse a cell
whose feature rows are not its label rows, and check that a corpus read from
``cell_data_path`` is split on the cell IDs of its file headers and read one
cell file at a time.
"""

import gc
import json
import weakref
from dataclasses import replace

import numpy as np
import pytest

from cellforge import battery_data, pipeline
from cellforge.battery_data import write_cell
from cellforge.cli import main
from cellforge.errors import LabelError, PipelineError, SchemaError, ThresholdNotReached
from cellforge.features import (BaseFeatureExtractor, FeatureMatrix, RowKeys, SOCStepFeatureExtractor,
                                SOHCycleFeatureExtractor, VarianceModelFeatureExtractor)
from cellforge.labels import RULLabelAnnotator, rul_label
from cellforge.pipeline import (
    PipelineConfig,
    _label_and_featurize,
    _split_cells,
    run_train,
)
from cellforge.registry import FEATURES, LABELS, register
from cellforge.synthetic import SynthSpec, generate_synthetic

# (label section, feature section): every registered annotator and extractor,
# paired by the granularity of their row keys
PAIRS = [
    ({"name": "RULLabelAnnotator"}, {"name": "VarianceModelFeatureExtractor", "interp_dims": 16}),
    ({"name": "RULLabelAnnotator"}, {"name": "DischargeModelFeatureExtractor", "interp_dims": 16}),
    ({"name": "RULLabelAnnotator"}, {"name": "FullModelFeatureExtractor", "interp_dims": 16}),
    ({"name": "RULLabelAnnotator"},
     {"name": "VoltageCapacityMatrixFeatureExtractor", "interp_dims": 8, "cycles_to_keep": 4}),
    ({"name": "RULLabelAnnotator"}, {"name": "CapacityFadeSlopeFeatureExtractor"}),
    ({"name": "SOHLabelAnnotator"}, {"name": "SOHCycleFeatureExtractor", "max_cycle_index": 30}),
    ({"name": "SOCLabelAnnotator"}, {"name": "SOCStepFeatureExtractor", "n_qdlin": 4, "max_cycle_index": 2}),
]
PAIR_IDS = [f"{label['name']}-{feature['name']}" for label, feature in PAIRS]
TRAIN_IDS = ["SYN_0000", "SYN_0001", "NEVER_TRAIN", "SYN_0002", "SYN_0003"]
TEST_IDS = ["SYN_0004", "NEVER_TEST", "SYN_0005"]


@pytest.fixture(scope="module")
def corpus():
    """Six synthetic cells plus two cut to their first 100 cycles, before
    SOH falls below 80%, so the RUL annotator excludes them."""
    cells = generate_synthetic(SynthSpec(n_cells=6, cycle_life_mean=150.0, cycle_life_std=12.0,
                                         points_per_cycle=16, seed=21))
    never = [replace(cell, cell_id=cell_id, cycle_data=cell.cycle_data[:100])
             for cell_id, cell in (("NEVER_TRAIN", cells[0]), ("NEVER_TEST", cells[1]))]
    for cell in never:
        with pytest.raises(ThresholdNotReached):
            rul_label(cell)
    return cells + never


def make_config(label, feature, **sections):
    return {
        "train_test_split": {"name": "ExplicitTrainTestSplitter",
                             "train_ids": TRAIN_IDS, "test_ids": TEST_IDS},
        "feature": feature,
        "feature_transformation": {"name": "ZScoreDataTransformation"},
        "label": label,
        "label_transformation": {"name": "ZScoreDataTransformation"},
        "model": {"name": "LinearRegressionRULPredictor"},
        "seeds": [0],
        **sections,
    }


def whole_corpus_label_and_featurize(config, split, **partitions):
    """The reference order: label every cell of every partition, then
    featurize every kept cell of each partition in one call, each cut at the
    extractor's ``horizon`` and the split's ``observed_cycles``, whichever is
    fewer, as a per-cycle or per-step annotator's cells are; the feature rows
    of a partition must be its label rows. No case here sets the split's
    ``eol_soh``, so the label section alone builds the annotator."""
    meta = split.metadata
    assert meta.get("eol_soh") is None
    annotator = LABELS.create(config.label.name, **config.label.params)
    extractor = FEATURES.create(config.feature.name, **config.feature.params)
    cut = min((h for h in (getattr(extractor, "horizon", None), meta.get("observed_cycles"))
               if h is not None), default=None)
    head = None if annotator.rows == "cell" else cut
    labelled = {name: annotator.annotate([c.head(head) for c in cells]) for name, cells in partitions.items()}
    kept = {}
    for name, cells in partitions.items():
        labeled = {cell_id for cell_id, _ in labelled[name][0].row_keys.cell_id}
        kept[name] = [c if cut is None else c.head(cut) for c in cells if c.cell_id in labeled]
        if not kept[name]:
            raise PipelineError(f"all {name} cells were excluded by the label annotator")
    out = {}
    for name, (labels, excluded) in labelled.items():
        features = extractor.extract(kept[name])
        assert features.row_keys == labels.row_keys
        out[name] = (features, labels.values, [{"cell_id": cid, "reason": reason} for cid, reason in excluded])
    return out


def assert_bit_identical(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


class _CycleCountExtractor:
    """Shaped like the README's "Extending" example, with no ``horizon``: one
    row per cell, its first cycle's mean voltage and its number of cycles."""

    col_names = ["first_cycle_mean_voltage", "cycles"]
    rows = "cell"

    def extract(self, cells):
        values = [[cell.cycle_data[0].voltage_in_V.mean(), len(cell.cycle_data)] for cell in cells]
        return FeatureMatrix(np.array(values), RowKeys([[cell.cell_id, 1] for cell in cells]), self.col_names)


class _BaseCycleCountExtractor(BaseFeatureExtractor):
    """A ``BaseFeatureExtractor`` subclass that states no ``horizon``, so it
    reads every cycle: one row per cell holding its number of cycles."""

    col_names = ["cycles"]
    rows = "cell"

    def process_cell(self, cell):
        return np.array([[len(cell.cycle_data)]]), RowKeys([[cell.cell_id, 1]])


# with no budget, a registered extractor and a subclass of BaseFeatureExtractor that
# state no horizon; under an observed-cycle budget, a per-cycle extractor past it and a
# fixed-horizon one within it
HORIZONLESS = [({"name": "RULLabelAnnotator"}, {"name": "CycleCountExtractor"}, None),
               ({"name": "RULLabelAnnotator"}, {"name": "BaseCycleCountExtractor"}, None)]
BUDGETED = [
    ({"name": "SOHLabelAnnotator"}, {"name": "SOHCycleFeatureExtractor", "max_cycle_index": 30}, 20),
    ({"name": "RULLabelAnnotator"},
     {"name": "VoltageCapacityMatrixFeatureExtractor", "interp_dims": 8, "cycles_to_keep": 4}, 30),
]


@pytest.mark.parametrize("label, feature, budget",
                         [(*pair, None) for pair in PAIRS] + HORIZONLESS + BUDGETED,
                         ids=PAIR_IDS + [f"{feature['name']}-budget-{b}"
                                         for _, feature, b in HORIZONLESS + BUDGETED])
def test_per_cell_equals_whole_corpus(corpus, monkeypatch, label, feature, budget):
    monkeypatch.setitem(FEATURES._factories, "CycleCountExtractor", _CycleCountExtractor)
    monkeypatch.setitem(FEATURES._factories, "BaseCycleCountExtractor", _BaseCycleCountExtractor)
    split_section = {"name": "ExplicitTrainTestSplitter", "train_ids": TRAIN_IDS, "test_ids": TEST_IDS,
                     "metadata": {"observed_cycles": budget}}
    config = PipelineConfig.from_dict(make_config(label, feature, train_test_split=split_section))

    def partitions():
        split, train, test = _split_cells(config, corpus)
        return split, {"training": train, "test": test}

    split, cells = partitions()
    got = _label_and_featurize(config, split, **cells)
    split, cells = partitions()
    want = whole_corpus_label_and_featurize(config, split, **cells)
    assert list(got) == list(want) == ["training", "test"]
    for name in got:
        (features, y, excluded), (want_features, want_y, want_excluded) = got[name], want[name]
        assert_bit_identical(features.values, want_features.values)
        assert features.row_keys == want_features.row_keys
        assert features.col_names == want_features.col_names
        assert_bit_identical(y, want_y)
        assert excluded == want_excluded
    if label["name"] == "RULLabelAnnotator":
        assert [e["cell_id"] for name in got for e in got[name][2]] == ["NEVER_TRAIN", "NEVER_TEST"]
    if feature["name"] in ("CycleCountExtractor", "BaseCycleCountExtractor"):  # every cycle of a cell
        lengths = {cell.cell_id: len(cell.cycle_data) for cell in corpus}
        assert [row[-1] for name in got for row in got[name][0].values] == [
            lengths[cell_id] for name in got for cell_id, _ in got[name][0].row_keys.cell_id]
    if budget and feature["name"] == "SOHCycleFeatureExtractor":  # 31 cycles cut to 20
        assert got["test"][0].row_keys.cell_id == [[cell_id, budget] for cell_id in TEST_IDS]


class _SkipsOneCellVarianceExtractor(VarianceModelFeatureExtractor):
    """The variance feature, with no row for the test cell SYN_0005."""

    def process_cell(self, cell):
        if cell.cell_id == "SYN_0005":
            return np.empty((0, 1)), RowKeys([])
        return super().process_cell(cell)


class _DropsLastRowOfOneCell:
    """An extractor's features, with no row for the last cycle or step of SYN_0005."""

    def process_cell(self, cell):
        values, keys = super().process_cell(cell)
        if cell.cell_id == "SYN_0005":
            n = len(values) - 1
            return values[:n], RowKeys([[cell.cell_id, n]], keys.cycle[:n],
                                       None if keys.step is None else keys.step[:n])
        return values, keys


class _DropsOneCycleSOHExtractor(_DropsLastRowOfOneCell, SOHCycleFeatureExtractor):
    pass


class _DropsOneStepSOCExtractor(_DropsLastRowOfOneCell, SOCStepFeatureExtractor):
    pass


class _ReversesOneCellSOHExtractor(SOHCycleFeatureExtractor):
    """The per-cycle SOH features, with the rows of SYN_0005 in falling cycle order."""

    def process_cell(self, cell):
        values, keys = super().process_cell(cell)
        if cell.cell_id == "SYN_0005":
            return values[::-1], RowKeys(keys.cell_id, keys.cycle[::-1])
        return values, keys


@pytest.mark.parametrize("extractor, label, params, rows", [
    (_SkipsOneCellVarianceExtractor, "RULLabelAnnotator", {"interp_dims": 16}, (0, 1)),
    (_DropsOneCycleSOHExtractor, "SOHLabelAnnotator", {"max_cycle_index": 30}, (30, 31)),
    (_ReversesOneCellSOHExtractor, "SOHLabelAnnotator", {"max_cycle_index": 30}, (31, 31)),
    (_DropsOneStepSOCExtractor, "SOCLabelAnnotator", {"n_qdlin": 4, "max_cycle_index": 2}, (47, 48)),
], ids=["no-rows", "some-cycles", "cycles-reordered", "some-steps"])
def test_a_cell_whose_feature_rows_are_not_its_label_rows_is_refused(corpus, tmp_path, monkeypatch, capsys,
                                                                    extractor, label, params, rows):
    # a test cell left out of the join trained a checkpoint that evaluation refused, as
    # split.json listed a test cell that report.json neither scored nor excluded
    monkeypatch.setitem(FEATURES._factories, "Extractor", extractor)
    config = {**written_corpus(corpus, tmp_path / "cells"), "label": {"name": label},
              "feature": {"name": "Extractor", **params}}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["train", "--config", str(config_path), "--workspace", str(tmp_path / "ws")]) == 1
    assert capsys.readouterr().err == (f"error: SYN_0005: the {rows[0]} feature rows of Extractor are not "
                                       f"the {rows[1]} label rows of {label}, key for key\n")
    assert not (tmp_path / "ws").exists()


def test_checkpoint_files_equal_the_whole_corpus_order(corpus, tmp_path, monkeypatch):
    config = make_config(*PAIRS[1])
    mine = run_train(config, workspace=tmp_path / "per_cell", cells=corpus)
    monkeypatch.setattr(pipeline, "_label_and_featurize", whole_corpus_label_and_featurize)
    theirs = run_train(config, workspace=tmp_path / "whole", cells=corpus)
    names = sorted(p.name for p in theirs.directory.iterdir())
    assert sorted(p.name for p in mine.directory.iterdir()) == names
    for name in names:
        assert (mine.directory / name).read_bytes() == (theirs.directory / name).read_bytes(), name


def test_the_callers_cell_list_is_left_as_it_was(corpus, tmp_path):
    cells = list(reversed(corpus))
    before = list(cells)
    run_train(make_config(*PAIRS[0]), workspace=tmp_path, cells=cells)
    assert len(cells) == len(before) and all(a is b for a, b in zip(cells, before))


def test_the_first_failing_cell_in_train_then_test_order_raises(corpus, tmp_path):
    # a train cell too short for the feature, then a test cell the annotator
    # cannot label: the short cell is excluded, so the test cell's label fault
    # is the first failure
    empty = replace(corpus[3], cell_id="EMPTY", cycle_data=())
    short_life = generate_synthetic(SynthSpec(n_cells=1, cycle_life_mean=40.0, cycle_life_std=0.0,
                                              points_per_cycle=16, seed=3))[0]
    short = replace(short_life, cell_id="SHORT")
    config = make_config(*PAIRS[0], train_test_split={
        "name": "ExplicitTrainTestSplitter", "train_ids": ["SYN_0000", "SHORT"],
        "test_ids": ["EMPTY"]})
    with pytest.raises(LabelError, match="^EMPTY: no cycles$"):
        run_train(config, workspace=tmp_path, cells=[*corpus, short, empty])


class _MappingCountingRULAnnotator(RULLabelAnnotator):
    """Records how many mapped files are alive each time it is called."""

    live: list = []

    def annotate(self, cells):
        gc.collect()
        self.live.append(len(battery_data._MAPPINGS))
        return super().annotate(cells)


register("label", "MappingCountingRULAnnotator", _MappingCountingRULAnnotator)


def test_a_corpus_read_from_disk_holds_one_processed_cell_at_a_time(corpus, tmp_path):
    cell_dir = tmp_path / "cells"
    cell_dir.mkdir()
    for cell in corpus:
        write_cell(cell, cell_dir)
    config = make_config({"name": "MappingCountingRULAnnotator"}, PAIRS[0][1])
    config["train_test_split"]["cell_data_path"] = str(cell_dir)
    gc.collect()
    elsewhere = len(battery_data._MAPPINGS)  # mapped cells other tests still hold
    _MappingCountingRULAnnotator.live.clear()
    run_train(config, workspace=tmp_path / "ws")
    assert _MappingCountingRULAnnotator.live == [elsewhere + 1] * len(corpus)
    gc.collect()
    assert len(battery_data._MAPPINGS) == elsewhere


def written_corpus(corpus, cell_dir):
    cell_dir.mkdir()
    for cell in corpus:
        write_cell(cell, cell_dir)
    config = make_config(*PAIRS[0])
    config["train_test_split"]["cell_data_path"] = str(cell_dir)
    return config


def test_a_corpus_read_from_disk_is_read_one_cell_at_a_time(corpus, tmp_path, monkeypatch):
    config = written_corpus(corpus, tmp_path / "cells")
    read, alive = [], []

    def spy(path):
        alive.append(sum(ref() is not None for ref in read))
        cell = battery_data.read_cell(path)
        read.append(weakref.ref(cell))
        return cell

    monkeypatch.setattr(pipeline, "read_cell", spy)
    run_train(config, workspace=tmp_path / "ws")
    assert len(read) == len(TRAIN_IDS) + len(TEST_IDS) == len(corpus)
    assert alive == [0] * len(corpus)
    assert all(ref() is None for ref in read)


def test_duplicate_ids_are_refused_before_a_cell_is_read(corpus, tmp_path, monkeypatch):
    config = written_corpus(corpus, tmp_path / "cells")
    write_cell(replace(corpus[0], cell_id="SYN_0003"), tmp_path / "cells" / "SYN_9999.cfc")
    headers = []
    monkeypatch.setattr(battery_data, "_cell_from_bytes", lambda data: pytest.fail("a cell was read"))
    monkeypatch.setattr(battery_data, "_cell_id_from_bytes",
                        lambda data, read=battery_data._cell_id_from_bytes: headers.append(1) or read(data))
    with pytest.raises(SchemaError) as info:
        run_train(config, workspace=tmp_path / "ws")
    assert str(info.value) == "cell_id 'SYN_0003' is in both SYN_0003.cfc and SYN_9999.cfc"
    assert len(headers) == len(corpus) + 1  # SYN_9999.cfc sorts last


def test_a_corrupt_test_cell_is_one_error_line_and_no_checkpoint(corpus, tmp_path, capsys):
    config = written_corpus(corpus, tmp_path / "cells")
    path = tmp_path / "cells" / f"{TEST_IDS[-1]}.cfc"
    path.write_bytes(path.read_bytes()[:-1])
    config_path = tmp_path / "config.yaml"
    config_path.write_text(json.dumps(config))
    assert main(["train", "--config", str(config_path), "--workspace", str(tmp_path / "ws")]) == 1
    assert capsys.readouterr().err == f"error: {path}: truncated block 'temperature_in_C'\n"
    assert not (tmp_path / "ws").exists()

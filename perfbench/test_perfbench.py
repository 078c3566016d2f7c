"""Tests of the benchmark's own logic: span arithmetic, record compare, summaries.

Run from the repository root with ``python -m pytest perfbench``.
"""

import sys
import types
from dataclasses import replace
from pathlib import Path

import pytest

from checks import Ops, OpFailed, diff_records, summarize
from tracing import LAYERS, Layer, Span, Tracer, layer_values, self_times, subtree

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def _span(id, name, start, end, parent, **counts):
    return Span(id, name, float(start), float(end), parent, "t", counts)


@pytest.fixture
def tree():
    # root [0, 10]
    #   a [1, 4]      child a [2, 3] (same name, nested)
    #   b [5, 9]      children c [5, 7] and c [6, 8] overlap: union [5, 8]
    return [
        _span(0, "root", 0, 10, None),
        _span(1, "a", 1, 4, 0),
        _span(2, "a", 2, 3, 1),
        _span(3, "b", 5, 9, 0, rows=7),
        _span(4, "c", 5, 7, 3, rows=2),
        _span(5, "c", 6, 8, 3),
    ]


def test_self_times_subtract_the_union_of_children(tree):
    selfs = self_times(tree)
    assert selfs == {0: 3.0, 1: 2.0, 2: 1.0, 3: 1.0, 4: 2.0, 5: 2.0}
    assert sum(selfs.values()) != 10.0  # overlapping siblings are not a tree of one thread
    sequential = [s for s in tree if s.id != 5]
    assert sum(self_times(sequential).values()) == 10.0  # self times add up to the root


def test_layer_values_from_a_span_tree(tree):
    got = layer_values(tree, ["a.s", "a.self_s", "a.calls", "c.calls", "rows", "gone.s"],
                       missing={"gone"})
    assert got == {"a.s": 3.0, "a.self_s": 3.0, "a.calls": 2, "c.calls": 2, "rows": 9,
                   "gone.s": None}
    assert sorted(s.id for s in subtree(tree, 3)) == [3, 4, 5]


def test_tracer_wraps_restores_and_marks_missing(monkeypatch):
    mod = types.ModuleType("fake_layer")
    mod.work = lambda x: x + 1
    monkeypatch.setitem(sys.modules, "fake_layer", mod)
    tracer = Tracer()
    tracer.install([Layer("fake.work", ("fake_layer:work",), lambda c, a, r: c.update(out=r)),
                    Layer("fake.renamed", ("fake_layer:renamed",))])
    with tracer.span("root"):
        assert mod.work(1) == 2
        with tracer.suspended():
            mod.work(5)
    tracer.uninstall()
    assert not hasattr(mod.work, "__wrapped__")
    assert tracer.missing == {"fake.renamed"}
    assert [s.name for s in tracer.spans] == ["root", "fake.work"]
    assert layer_values(tracer.spans, ["fake.work.calls", "out", "fake.renamed.s"],
                        tracer.missing) == {"fake.work.calls": 1, "out": 2, "fake.renamed.s": None}


def test_a_count_the_result_no_longer_carries_is_missing(monkeypatch):
    mod = types.ModuleType("fake_labels")
    mod.annotate = lambda cells: {"values": cells}  # not (LabelVector, exclusions)
    monkeypatch.setitem(sys.modules, "fake_labels", mod)
    layer = next(la for la in LAYERS if la.span == "labels.annotate")
    tracer = Tracer()
    tracer.install([replace(layer, targets=("fake_labels:annotate",))])
    mod.annotate([1, 2])
    tracer.uninstall()
    assert layer_values(tracer.spans, ["labels.annotate.calls", "labels.rows"],
                        tracer.missing) == {"labels.annotate.calls": 1, "labels.rows": None}


def test_diff_records_flags_a_changed_float_and_an_extra_key():
    from cellforge.synthetic import SynthSpec, generate_synthetic

    cell = generate_synthetic(SynthSpec(n_cells=1, cycle_life_mean=20, cycle_life_std=0,
                                        points_per_cycle=16))[0]
    assert diff_records(cell, replace(cell)) == []
    cycles = list(cell.cycle_data)
    voltage = list(cycles[3].voltage_in_V)
    voltage[7] = voltage[7] + 1e-12
    cycles[3] = replace(cycles[3], voltage_in_V=voltage)
    changed = replace(cell, cycle_data=tuple(cycles), extra={"note": "x"})
    diffs = diff_records(cell, changed)
    assert len(diffs) == 2
    assert diffs[0].startswith("cell.cycle_data[3].voltage_in_V[7]:")
    assert diffs[1] == "cell.extra['note']: present on one side only"


def test_diff_records_ignores_tuple_versus_ndarray():
    import numpy as np

    assert diff_records({"v": (1.0, 2.5)}, {"v": np.array([1.0, 2.5])}) == []
    assert diff_records({"v": (1.0, 2.5)}, {"v": np.array([1.0, 2.5, 3.0])}) == [
        "cell['v']: shape (2,) != (3,)"]


def test_ops_count_failed_checks_and_raised_calls():
    ops = Ops()
    assert ops.call("ok", len, [1]) == 1
    ops.check("same", True)
    ops.check("differs", False, "detail")
    with pytest.raises(OpFailed):
        ops.call("boom", int, "x")
    assert ops.attempted == 4
    assert [(f["op"], f["error"]) for f in ops.failures] == [
        ("differs", "OutputMismatch"), ("boom", "ValueError")]


def test_summary_reports_its_sample_count():
    small = summarize([3.0, 1.0, 2.0])
    assert small == {"median": 2.0, "n": 3, "percentile": None, "value_at_percentile": None}
    large = summarize(range(100))
    assert (large["n"], large["median"], large["percentile"]) == (100, 49.5, 90.0)
    assert large["value_at_percentile"] == 89


def test_a_forest_whose_trees_changed_shape_reads_missing(monkeypatch):
    mod = types.ModuleType("fake_models")
    forest = types.SimpleNamespace(n_trees=2, trees_=[types.SimpleNamespace(nodes=[1, 2])] * 2)
    linear = types.SimpleNamespace(coef_=[1.0])
    mod.fit = lambda model: model
    monkeypatch.setitem(sys.modules, "fake_models", mod)
    layer = next(la for la in LAYERS if la.span == "models.fit")
    tracer = Tracer()
    tracer.install([replace(layer, targets=("fake_models:fit",))])
    mod.fit(linear)
    assert layer_values(tracer.spans, ["models.forest.nodes"], tracer.missing) == {
        "models.forest.nodes": 0}  # not a forest: no nodes, and nothing missing
    mod.fit(forest)
    tracer.uninstall()
    assert layer_values(tracer.spans, ["models.forest.nodes"], tracer.missing) == {
        "models.forest.nodes": None}


def test_a_saved_file_that_cannot_be_sized_reads_missing(monkeypatch, tmp_path):
    mod = types.ModuleType("fake_save")
    mod.save = lambda model, path: path
    monkeypatch.setitem(sys.modules, "fake_save", mod)
    layer = next(la for la in LAYERS if la.span == "models.save")
    tracer = Tracer()
    tracer.install([replace(layer, targets=("fake_save:save",))])
    (tmp_path / "m.bin").write_bytes(b"abc")
    mod.save(None, tmp_path / "m.bin")
    assert layer_values(tracer.spans, ["models.save.bytes"], tracer.missing) == {
        "models.save.bytes": 3}
    mod.save(None, tmp_path / "gone.bin")
    tracer.uninstall()
    assert layer_values(tracer.spans, ["models.save.bytes"], tracer.missing) == {
        "models.save.bytes": None}

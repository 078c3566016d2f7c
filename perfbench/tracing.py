"""Spans around cellforge's public entry points, recorded from outside the package.

Nothing under ``src/`` knows about tracing: :meth:`Tracer.install` replaces a
module or class attribute with a wrapper that opens a span, calls the
original and closes the span, and :meth:`Tracer.uninstall` puts the original
back. An attribute that no longer exists is recorded as missing, so a layer
metric whose function was removed or renamed reads ``None`` instead of
crashing the benchmark.

Spans form trees through their ``parent`` ids. The parent is the innermost
open span, kept on a stack, which is exact for single-threaded runs (the
benchmark uses the package's default knobs, which start no threads).
"""

from __future__ import annotations

import importlib
import os
import time
import uuid
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    trace_id: str
    counts: dict = field(default_factory=dict)


class Tracer:
    """Keeps every span of one workload run in memory until the run ends."""

    def __init__(self, trace_id: str | None = None):
        self.trace_id = trace_id or uuid.uuid4().hex
        self.spans: list[Span] = []
        self.missing: set[str] = set()
        self.paused = False
        self._stack: list[Span] = []
        self._installed: list[tuple[object, str, object]] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, self.trace_id)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span):
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    @contextmanager
    def span(self, name: str):
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)

    @contextmanager
    def suspended(self):
        """Calls made inside (the benchmark's own output checks) leave no spans."""
        was, self.paused = self.paused, True
        try:
            yield
        finally:
            self.paused = was

    def _wrap(self, fn, name, hook):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            s = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(s)
            if hook is not None:
                try:
                    hook(s.counts, args, result)
                except (AttributeError, TypeError, ValueError, OSError):  # shape changed
                    tracer.missing.update(m for m, src in COUNT_SOURCES.items() if src == name)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, layers):
        """Wrap every target of every ``Layer``; unresolvable ones are missing."""
        for layer in layers:
            targets = resolve(layer.targets)
            if not targets:
                self.missing.add(layer.span)
                continue
            for owner, attr in targets:
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                self._installed.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, layer.span, layer.hook))

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def to_dicts(self) -> list[dict]:
        return [asdict(s) for s in self.spans]

    def absorb(self, span_dicts: list[dict]):
        """Append spans recorded by another process, renumbering their ids."""
        offset = len(self.spans)
        for d in span_dicts:
            parent = None if d["parent"] is None else d["parent"] + offset
            self.spans.append(Span(d["id"] + offset, d["name"], d["start"], d["end"],
                                   parent, self.trace_id, dict(d["counts"])))


@dataclass(frozen=True)
class Layer:
    """One span name and the attributes it wraps.

    A target is ``"module:attr"``, ``"module:Class.method"``, or
    ``"module:*.method"`` for every class of the module that defines the method
    itself (each annotator's ``annotate``, each splitter's ``split``).
    """

    span: str
    targets: tuple[str, ...]
    hook: object = None


def resolve(targets):
    found = []
    for target in targets:
        module_name, _, path = target.partition(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            continue
        owner_name, _, attr = path.rpartition(".")
        if owner_name == "*":
            for obj in vars(module).values():
                if isinstance(obj, type) and obj.__module__ == module_name and attr in obj.__dict__:
                    found.append((obj, attr))
        elif owner_name:
            owner = getattr(module, owner_name, None)
            if isinstance(owner, type) and attr in owner.__dict__:
                found.append((owner, attr))
        elif callable(getattr(module, attr, None)):
            found.append((module, attr))
    return found


# ---------------------------------------------------------------------------
# Counts taken at the layer boundaries, from arguments and results only.

def tree_bytes(path) -> tuple[int, int]:
    """(bytes, files) of a directory taken as a whole."""
    total = files = 0
    for base, _, names in os.walk(path):
        for name in names:
            total += os.path.getsize(os.path.join(base, name))
            files += 1
    return total, files


# A hook that cannot take its count (an attribute, a path or a result shape
# that changed) raises, and the wrapper marks the count missing.

def _read_counts(counts, args, cell):
    counts["battery_data.bytes_read"] = os.path.getsize(args[0])
    counts["battery_data.cycles_read"] = len(cell.cycle_data)


def _write_counts(counts, args, path):
    counts["battery_data.bytes_written"] = os.path.getsize(path)


def _generate_counts(counts, args, cells):
    counts["synthetic.cycles"] = sum(len(c.cycle_data) for c in cells)
    counts["synthetic.points"] = sum(len(cyc.time_in_s) for c in cells for cyc in c.cycle_data)


def _annotate_counts(counts, args, result):
    labels, excluded = result
    counts["labels.rows"] = len(labels.values)
    counts["labels.excluded"] = len(excluded)


def _extract_counts(counts, args, matrix):
    rows, cols = matrix.values.shape
    counts["features.rows"] = rows
    counts["features.cols"] = cols


def _fit_counts(counts, args, model):
    if hasattr(model, "n_trees"):  # a forest; other models have no nodes to count
        counts["models.forest.nodes"] = sum(len(t.feature) for t in model.trees_)


def _save_counts(counts, args, path):
    counts["models.save.bytes"] = os.path.getsize(path)


def _checkpoint_counts(counts, args, checkpoint):
    counts["pipeline.checkpoint.files"] = tree_bytes(checkpoint.directory)[1]


LAYERS = (
    Layer("battery_data.load_cells",
          ("cellforge.pipeline:load_cells", "cellforge.battery_data:load_cells")),
    Layer("battery_data.read_cell", ("cellforge.battery_data:read_cell",), _read_counts),
    Layer("battery_data.cell_from_dict", ("cellforge.battery_data:cell_from_dict",)),
    Layer("battery_data.validate", ("cellforge.battery_data:validate",)),
    Layer("battery_data.write_cell", ("cellforge.battery_data:write_cell",), _write_counts),
    Layer("battery_data.cell_to_dict", ("cellforge.battery_data:cell_to_dict",)),
    Layer("synthetic.generate_synthetic", ("cellforge.synthetic:generate_synthetic",),
          _generate_counts),
    Layer("labels.annotate", ("cellforge.labels:*.annotate",), _annotate_counts),
    Layer("features.extract", ("cellforge.features:BaseFeatureExtractor.extract",),
          _extract_counts),
    Layer("features.qdlinear", ("cellforge.features:qdlinear",)),
    Layer("transforms.fit", ("cellforge.transforms:_Fitted.fit",)),
    Layer("transforms.transform", ("cellforge.transforms:_Fitted.transform",)),
    Layer("transforms.inverse_transform", ("cellforge.transforms:_Fitted.inverse_transform",)),
    Layer("splitters.split", ("cellforge.splitters:*.split",)),
    Layer("models.fit", ("cellforge.models.base:BaseRegressor.fit",), _fit_counts),
    Layer("models.predict", ("cellforge.models.base:BaseRegressor.predict",)),
    Layer("models.save", ("cellforge.models.base:BaseRegressor.save",), _save_counts),
    Layer("models.load_model", ("cellforge.pipeline:load_model",)),
    Layer("pipeline.run_train", ("cellforge.pipeline:run_train",), _checkpoint_counts),
    Layer("pipeline.run_evaluate", ("cellforge.pipeline:run_evaluate",)),
    Layer("plots.make_plot", ("cellforge.plots:make_plot",)),
)

# Count name -> the span whose wrapper takes it.
COUNT_SOURCES = {
    "battery_data.bytes_read": "battery_data.read_cell",
    "battery_data.cycles_read": "battery_data.read_cell",
    "battery_data.bytes_written": "battery_data.write_cell",
    "synthetic.cycles": "synthetic.generate_synthetic",
    "synthetic.points": "synthetic.generate_synthetic",
    "labels.rows": "labels.annotate",
    "labels.excluded": "labels.annotate",
    "features.rows": "features.extract",
    "features.cols": "features.extract",
    "models.forest.nodes": "models.fit",
    "models.save.bytes": "models.save",
    "pipeline.checkpoint.files": "pipeline.run_train",
}
# Counts that describe a shape rather than an amount of work: the largest wins.
MAX_COUNTS = {"features.cols"}


# ---------------------------------------------------------------------------
# Arithmetic on span trees

def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> its duration minus the part of it its children cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        kids = [(max(c.start, s.start), min(c.end, s.end)) for c in children.get(s.id, ())]
        out[s.id] = (s.end - s.start) - _covered([k for k in kids if k[1] > k[0]])
    return out


def subtree(spans, root_id) -> list[Span]:
    """The span ``root_id`` and all its descendants."""
    by_parent: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            by_parent.setdefault(s.parent, []).append(s)
    out, todo = [], [s for s in spans if s.id == root_id]
    while todo:
        s = todo.pop()
        out.append(s)
        todo.extend(by_parent.get(s.id, ()))
    return out


def layer_values(spans, metric_names, missing=()) -> dict:
    """Per-layer metric values over ``spans`` (one or more whole trees).

    ``<span>.s`` sums the durations of that span's outermost calls (a call
    nested in a call of the same name is already inside it), ``<span>.self_s``
    sums self times, ``<span>.calls`` counts calls, and any other name sums the
    count of that name (or takes its largest value, for ``MAX_COUNTS``). A
    metric whose span could not be installed, or whose count could not be
    taken from the call's result, is None.
    """
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)

    def nested_in_same(s):
        p = s.parent
        while p is not None and p in by_id:
            if by_id[p].name == s.name:
                return True
            p = by_id[p].parent
        return False

    out = {}
    for metric in metric_names:
        for suffix in (".self_s", ".s", ".calls"):
            if metric.endswith(suffix):
                name = metric[: -len(suffix)]
                break
        else:
            suffix, name = "", COUNT_SOURCES.get(metric, metric)
        if name in missing or metric in missing:
            out[metric] = None
            continue
        named = [s for s in spans if s.name == name]
        if suffix == ".s":
            out[metric] = sum(s.end - s.start for s in named if not nested_in_same(s))
        elif suffix == ".self_s":
            out[metric] = sum(selfs[s.id] for s in named)
        elif suffix == ".calls":
            out[metric] = len(named)
        else:
            values = [s.counts.get(metric, 0) for s in spans]
            out[metric] = max(values, default=0) if metric in MAX_COUNTS else sum(values)
    return out

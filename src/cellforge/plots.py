"""Plot data export and chart rendering.

Every plot is produced in two files: a CSV of the plotted points and an SVG
chart rendered from the same points. The CSV holds the exact plotted floats:
each is written as its ``repr``, which parses back to the same float.

Kinds:

* ``degradation``: SOH percent vs. cycle number, one line per cell.
* ``voltage-curves``: voltage vs. discharge capacity, one line per cycle
  of a single cell.
* ``pred-vs-truth``: predicted vs. actual labels from a checkpoint's
  report, as a scatter with the identity diagonal.
"""

from __future__ import annotations

import csv
import io
import itertools
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .battery_data import CellRecord, _signal
from .errors import CheckpointError, ConfigError
from .labels import soh_per_cycle
from .pipeline import read_report

PLOT_KINDS = ("degradation", "voltage-curves", "pred-vs-truth")

WIDTH, HEIGHT = 800, 600
MARGIN = 70
N_TICKS = 5
PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)


@dataclass(frozen=True, eq=False)
class Series:
    """One named line or point set, its ``x`` and ``y`` held as read-only
    float64 arrays of their own."""

    name: str
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        for name in ("x", "y"):
            object.__setattr__(self, name, _signal(getattr(self, name), name))
        if len(self.x) != len(self.y):
            raise ValueError("x and y must have the same length")
        if not self.x.size:
            raise ValueError(f"series {self.name!r} is empty")


def degradation_series(cells: Iterable[CellRecord]) -> list[Series]:
    """One SOH series per cell, in ``cell_id`` order. ``cells`` may be any
    iterable: each cell is dropped before the next is taken."""
    return sorted(map(_soh_series, cells), key=lambda s: s.name)


def _soh_series(cell: CellRecord) -> Series:
    return Series(cell.cell_id, cell.cycle_data.cycle_number, soh_per_cycle(cell))


def voltage_curve_series(cell: CellRecord) -> list[Series]:
    """Per-cycle discharge curves: capacity on x, voltage on y, each column
    read once through ``columns.peek``, so the cell keeps nothing decoded."""
    cycles, out = cell.cycle_data, []
    current, q, v = map(cycles.columns.peek, ("current_in_A", "discharge_capacity_in_Ah", "voltage_in_V"))
    bounds = cycles.offsets["current_in_A"].tolist()
    for number, lo, hi in zip(cycles.cycle_number.tolist(), bounds, bounds[1:]):
        mask = current[lo:hi] < 0
        if np.count_nonzero(mask) >= 2:
            out.append(Series(f"cycle {number}", q[lo:hi][mask], v[lo:hi][mask]))
    if not out:
        raise ConfigError(f"{cell.cell_id}: no cycle has a discharge segment to plot")
    return out


def pred_vs_truth_series(checkpoint_dir) -> list[Series]:
    columns = read_report(checkpoint_dir)["predictions"]
    if not columns["y_true"]:
        raise CheckpointError(f"{Path(checkpoint_dir) / 'report.json'}: no predictions")
    return [Series("test cells", columns["y_true"], columns["y_pred"])]


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it in a row of several fields."""
    out = io.StringIO()
    csv.writer(out, lineterminator="").writerow([text, ""])
    return out.getvalue()[:-1]


def write_series_csv(series: list[Series], path) -> Path:
    """The rows ``csv.writer`` writes for ``series``, each value as the
    ``repr`` of its float, joined in one pass per series."""
    path = Path(path)
    rows = ["series,x,y"]
    for s in series:
        rows += map(",".join, zip(itertools.repeat(_csv_field(s.name)),
                                  map(repr, s.x.tolist()), map(repr, s.y.tolist())))
    rows.append("")
    path.write_text("\r\n".join(rows), encoding="utf-8", newline="")
    return path


def _data_range(series, attr):
    values = np.concatenate([getattr(s, attr) for s in series])
    lo, hi = float(values.min()), float(values.max())
    if lo == hi:  # flat data still needs a nonzero span to project onto
        lo, hi = lo - 0.5, hi + 0.5
    return lo, hi


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _tick_label(value: float) -> str:
    return f"{value:.4g}"


class _Projection:
    def __init__(self, series):
        self.x_lo, self.x_hi = _data_range(series, "x")
        self.y_lo, self.y_hi = _data_range(series, "y")
        self.plot_w = WIDTH - 2 * MARGIN
        self.plot_h = HEIGHT - 2 * MARGIN

    # a float or an array of them, in the same IEEE operations in the same order
    def px(self, x):
        return MARGIN + (x - self.x_lo) / (self.x_hi - self.x_lo) * self.plot_w

    def py(self, y):
        return HEIGHT - MARGIN - (y - self.y_lo) / (self.y_hi - self.y_lo) * self.plot_h

    def points(self, s: Series) -> zip:
        """The (x, y) pixel positions of the points of ``s``, as floats."""
        return zip(self.px(s.x).tolist(), self.py(s.y).tolist())


def _axes(proj: _Projection, x_label: str, y_label: str, title: str):
    parts = [
        f'<rect x="{MARGIN}" y="{MARGIN}" width="{proj.plot_w}" height="{proj.plot_h}" '
        'fill="none" stroke="#333333" stroke-width="1"/>',
        f'<text x="{WIDTH // 2}" y="30" text-anchor="middle" font-size="18">{title}</text>',
        f'<text x="{WIDTH // 2}" y="{HEIGHT - 15}" text-anchor="middle" font-size="14">{x_label}</text>',
        f'<text x="20" y="{HEIGHT // 2}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 20 {HEIGHT // 2})">{y_label}</text>',
    ]
    for i in range(N_TICKS):
        fx = proj.x_lo + (proj.x_hi - proj.x_lo) * i / (N_TICKS - 1)
        fy = proj.y_lo + (proj.y_hi - proj.y_lo) * i / (N_TICKS - 1)
        xp, yp = proj.px(fx), proj.py(fy)
        parts.append(
            f'<line x1="{_fmt(xp)}" y1="{HEIGHT - MARGIN}" x2="{_fmt(xp)}" '
            f'y2="{HEIGHT - MARGIN + 6}" stroke="#333333"/>'
        )
        parts.append(
            f'<text x="{_fmt(xp)}" y="{HEIGHT - MARGIN + 22}" text-anchor="middle" '
            f'font-size="12">{_tick_label(fx)}</text>'
        )
        parts.append(
            f'<line x1="{MARGIN - 6}" y1="{_fmt(yp)}" x2="{MARGIN}" y2="{_fmt(yp)}" '
            'stroke="#333333"/>'
        )
        parts.append(
            f'<text x="{MARGIN - 10}" y="{_fmt(yp + 4)}" text-anchor="end" '
            f'font-size="12">{_tick_label(fy)}</text>'
        )
    return parts


def render_svg(series: list[Series], path, *, scatter: bool,
               title: str, x_label: str, y_label: str) -> Path:
    """Render the series to a fixed-size SVG; purely a function of its inputs."""
    path = Path(path)
    proj = _Projection(series)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
    ]
    parts += _axes(proj, x_label, y_label, title)
    if scatter:
        lo = max(proj.x_lo, proj.y_lo)
        hi = min(proj.x_hi, proj.y_hi)
        if lo < hi:  # identity diagonal where the ranges overlap
            parts.append(
                f'<line x1="{_fmt(proj.px(lo))}" y1="{_fmt(proj.py(lo))}" '
                f'x2="{_fmt(proj.px(hi))}" y2="{_fmt(proj.py(hi))}" '
                'stroke="#999999" stroke-dasharray="6,4"/>'
            )
    for i, s in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        if scatter:  # "%.2f" formats as _fmt does
            circle = f'<circle cx="%.2f" cy="%.2f" r="4" fill="{color}" fill-opacity="0.7"/>'
            parts += map(circle.__mod__, proj.points(s))
        else:
            pts = " ".join(map("%.2f,%.2f".__mod__, proj.points(s)))
            parts.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")
    return path


_KIND_LABELS = {
    "degradation": ("State of health over cycling", "cycle number", "SOH [%]"),
    "voltage-curves": ("Discharge voltage curves", "discharge capacity [Ah]", "voltage [V]"),
    "pred-vs-truth": ("Predicted vs. actual", "actual", "predicted"),
}


def make_plot(kind: str, out, *, cells: Iterable[CellRecord] | None = None,
              cell_id: str | None = None, checkpoint=None) -> tuple[Path, Path]:
    """Produce <out>.csv and <out>.svg for the requested plot kind.

    ``degradation`` takes ``cells`` one at a time, so they may come from an
    iterator that reads each cell when it is taken; ``voltage-curves`` takes
    a list."""
    if kind not in PLOT_KINDS:
        raise ConfigError(f"unknown plot kind {kind!r}; kinds: {', '.join(PLOT_KINDS)}")
    if kind == "pred-vs-truth":
        if checkpoint is None:
            raise ConfigError("pred-vs-truth needs a checkpoint directory")
        series = pred_vs_truth_series(checkpoint)
    else:
        if not cells:
            raise ConfigError(f"{kind} needs cells")
        if kind == "degradation":
            series = degradation_series(cells)
            if not series:  # an iterator is true even when it holds no cell
                raise ConfigError(f"{kind} needs cells")
        else:
            if cell_id is not None:
                matches = [c for c in cells if c.cell_id == cell_id]
                if not matches:
                    raise ConfigError(f"no cell with id {cell_id!r}")
                cell = matches[0]
            else:
                cell = sorted(cells, key=lambda c: c.cell_id)[0]
            series = voltage_curve_series(cell)

    out = Path(out)
    base = out.with_suffix("") if out.suffix else out
    csv_path = write_series_csv(series, base.with_suffix(".csv"))
    title, x_label, y_label = _KIND_LABELS[kind]
    svg_path = render_svg(
        series,
        base.with_suffix(".svg"),
        scatter=kind == "pred-vs-truth",
        title=title,
        x_label=x_label,
        y_label=y_label,
    )
    return csv_path, svg_path

"""Label annotation: state of health, remaining useful life, state of charge.

Definitions (capacities in Ah, percentages in [0, 100]):

    SOH(cycle)  = 100 * max(discharge_capacity of cycle) / nominal_capacity
    RUL         = 1-based index of the first cycle whose (median-smoothed)
                  SOH falls strictly below the end-of-life threshold
    SOC(step)   = clamped coulomb count within one cycle, relative to the
                  cycle's own full capacity (max discharge capacity)

A cycle record is assumed to begin at full charge, so SOC starts at 100 and
is clamped to [0, 100] step by step: discharging lowers it by the discharged
charge, charging raises it by the charged capacity. For discharge-only
prefixes this reduces exactly to 100 * (C_full - Q_d(t)) / C_full.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .battery_data import CellRecord
from .errors import LabelError, ThresholdNotReached
from .registry import integer, number

EOL_SOH_PERCENT_DEFAULT = 80.0


@dataclass(frozen=True)
class LabelSpec:
    """Annotation parameters shared by the label functions; ``eol_soh_percent``
    is a number in (0, 100), ``smoothing_window`` an odd integer >= 1."""

    eol_soh_percent: float = EOL_SOH_PERCENT_DEFAULT
    smoothing_window: int = 1

    def __post_init__(self):
        object.__setattr__(self, "eol_soh_percent",
                           number("eol_soh_percent", self.eol_soh_percent, gt=0, lt=100))
        object.__setattr__(self, "smoothing_window",
                           integer("smoothing_window", self.smoothing_window, 1))
        if self.smoothing_window % 2 == 0:
            raise ValueError(f"smoothing_window must be odd and >= 1, got {self.smoothing_window}")


def soh_per_cycle(cell: CellRecord) -> np.ndarray:
    """SOH percentage of every cycle, in cycle order."""
    if not cell.nominal_capacity_in_Ah > 0:
        raise LabelError(f"{cell.cell_id}: nominal capacity must be > 0")
    if not cell.cycle_data:
        raise LabelError(f"{cell.cell_id}: no cycles")
    try:
        caps = cell.cycle_data.maxima("discharge_capacity_in_Ah")
    except ValueError:
        raise LabelError(f"{cell.cell_id}: a cycle has no discharge capacity samples") from None
    return 100.0 * caps / cell.nominal_capacity_in_Ah


def moving_median(values: np.ndarray, window: int) -> np.ndarray:
    """Centered moving median; the window shrinks at the edges.

    ``window`` must be odd; 1 returns the input unchanged.
    """
    if window < 1 or window % 2 == 0:
        raise ValueError(f"window must be odd and >= 1, got {window}")
    values = np.asarray(values, dtype=float)
    if window == 1:
        return values.copy()
    half, n = window // 2, len(values)
    out = np.empty_like(values)
    if n >= window:  # full windows in the interior, one median per row
        out[half : n - half] = np.median(sliding_window_view(values, window), axis=1)
    for i in [*range(min(half, n)), *range(max(half, n - half), n)]:  # shrunk at the edges
        out[i] = np.median(values[max(0, i - half) : i + half + 1])
    return out


def rul_label(cell: CellRecord, spec: LabelSpec | None = None) -> int:
    """Cycle life: first 1-based cycle with smoothed SOH below threshold.

    Raises :class:`ThresholdNotReached` when the cell never crosses. The
    result ignores any recovery after the first crossing and is invariant to
    cycles appended past it.
    """
    spec = spec or LabelSpec()
    soh = moving_median(soh_per_cycle(cell), spec.smoothing_window)
    below = np.nonzero(soh < spec.eol_soh_percent)[0]
    if below.size == 0:
        raise ThresholdNotReached(
            f"{cell.cell_id}: SOH never fell below {spec.eol_soh_percent}% "
            f"(minimum observed {soh.min():.2f}%)"
        )
    return int(below[0]) + 1


def soc_per_step(cell: CellRecord, cycle_index: int) -> np.ndarray:
    """SOC percentage at every recorded step of one cycle (0-based index).

    Clamped coulomb counting anchored at the most recent clamp event, so a
    discharge-only prefix matches 100 * (C_full - Q_d) / C_full bit-exactly
    instead of accumulating float error step by step.
    """
    try:
        cyc = cell.cycle_data[cycle_index]
    except IndexError:
        raise LabelError(f"{cell.cell_id}: no cycle at index {cycle_index}") from None
    qd = np.asarray(cyc.discharge_capacity_in_Ah)
    qc = np.asarray(cyc.charge_capacity_in_Ah)
    c_full = qd.max(initial=0.0)  # an empty cycle has zero capacity too
    if not c_full > 0:
        raise LabelError(f"{cell.cell_id}: cycle {cyc.cycle_number} has zero discharge capacity")
    net = qc - qd
    n = len(net)
    state = np.empty(n)
    anchor_val = min(max(c_full + net[0], 0.0), c_full)
    anchor_net = net[0]
    state[0] = anchor_val
    for k in range(1, n):
        s = anchor_val + (net[k] - anchor_net)
        if s < 0.0:
            s = 0.0
            anchor_val, anchor_net = 0.0, net[k]
        elif s > c_full:
            s = c_full
            anchor_val, anchor_net = c_full, net[k]
        state[k] = s
    return 100.0 * state / c_full


@dataclass
class LabelVector:
    """Labels plus the row keys that align them with a feature matrix.

    Row keys are ``(cell_id, cycle_number or None, step or None)`` tuples;
    the populated tail of the key encodes the task granularity.
    """

    values: np.ndarray
    row_keys: list[tuple]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1 or len(self.values) != len(self.row_keys):
            raise ValueError("labels and row keys must align one-to-one")


class RULLabelAnnotator:
    """One RUL label per cell; never-crossing cells are excluded with a reason."""

    def __init__(self, eol_soh_percent: float = EOL_SOH_PERCENT_DEFAULT, smoothing_window: int = 1):
        self.spec = LabelSpec(eol_soh_percent=eol_soh_percent, smoothing_window=smoothing_window)

    def annotate(self, cells: list[CellRecord]) -> tuple[LabelVector, list[tuple[str, str]]]:
        values, keys, excluded = [], [], []
        for cell in cells:
            try:
                values.append(float(rul_label(cell, self.spec)))
                keys.append((cell.cell_id, None, None))
            except ThresholdNotReached as exc:
                excluded.append((cell.cell_id, str(exc)))
        return LabelVector(np.array(values), keys), excluded


class SOHLabelAnnotator:
    """One SOH label per (cell, cycle)."""

    def annotate(self, cells: list[CellRecord]) -> tuple[LabelVector, list[tuple[str, str]]]:
        values, keys = [], []
        for cell in cells:
            soh = soh_per_cycle(cell)
            for cycle_no, s in zip(cell.cycle_data.cycle_number.tolist(), soh):
                values.append(s)
                keys.append((cell.cell_id, cycle_no, None))
        return LabelVector(np.array(values), keys), []


class SOCLabelAnnotator:
    """One SOC label per (cell, cycle, step) of the cycles up to
    ``max_cycle_index`` (a non-negative integer, or None for every cycle)."""

    def __init__(self, max_cycle_index: int | None = None):
        self.max_cycle_index = (
            None if max_cycle_index is None else integer("max_cycle_index", max_cycle_index))

    def annotate(self, cells: list[CellRecord]) -> tuple[LabelVector, list[tuple[str, str]]]:
        values, keys = [], []
        for cell in cells:
            stop = len(cell.cycle_data)
            if self.max_cycle_index is not None:
                stop = min(stop, self.max_cycle_index + 1)
            for idx, cycle_no in enumerate(cell.cycle_data.cycle_number[:stop].tolist()):
                soc = soc_per_step(cell, idx)
                for step, s in enumerate(soc):
                    values.append(s)
                    keys.append((cell.cell_id, cycle_no, step))
        return LabelVector(np.array(values), keys), []

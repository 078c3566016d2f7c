"""Feature extraction from cycling records.

Conventions used throughout this module:

* Cycle indices are 0-based positions into ``cell.cycle_data`` (index 9 is
  the tenth recorded cycle). Written ranges such as "cycles 2..99" are
  0-based and inclusive.
* ``qdlinear`` resamples a cycle's discharge capacity onto a uniform voltage
  grid running from ``v_max`` down to ``v_min``. Grid bounds default to the
  cell's voltage limits; an extractor's finite ``v_min``/``v_max`` override them.
* Statistics of capacity-difference vectors are population moments; variance
  features take log10 with a 1e-12 floor, the multi-feature extractors take
  raw log10 and rely on sanitization.
* Extractor output is sanitized: NaN and +/-Inf entries become 0.0.

Extractors registered for pipeline use share one shape of contract:
``process_cell(cell) -> (values (k, d), RowKeys of the k rows)`` and
``extract(cells) -> FeatureMatrix``; :class:`RowKeys` is the one form of row
keys from an extractor or annotator to ``report.json``. Each must state its
``rows`` (``"cell"``, ``"cycle"`` or ``"step"``, the level of its row keys),
and a train takes a cell's feature rows only when their keys are the cell's
label keys, in their order. Each states one ``horizon``, the number of
leading cycles it reads; ``extract`` alone calls ``process_cell``, with
``cell.head(horizon)``: no extractor sees a cycle past its horizon, nor past
a split's ``observed_cycles``, which the pipeline enforces for every
extractor (:func:`cellforge.pipeline._label_and_featurize`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .battery_data import CellRecord, CycleData, CycleRecord, _small
from .errors import FeatureError
from .registry import integer, number

# The bound of every parameter that sets an array's length: half the most
# float64 values one array can hold. np.linspace refuses counts within 64 of
# that most with a ValueError; below it, too large an array is a MemoryError,
# one line from the CLI.
MAX_POINTS = np.iinfo(np.intp).max // 16

VARIANCE_FLOOR = 1e-12
COULOMBIC_EPS = 1e-5
_DEGENERATE_SPAN_V = 1e-6


def voltage_bounds(cell: CellRecord, v_min=None, v_max=None) -> tuple[float, float]:
    """Interpolation bounds: explicit overrides, else the cell's limits."""
    lo = v_min if v_min is not None else cell.min_voltage_limit_in_V
    hi = v_max if v_max is not None else cell.max_voltage_limit_in_V
    if lo is None or hi is None:
        raise FeatureError(
            f"{cell.cell_id}: voltage bounds unavailable (no cell limits; pass v_min/v_max)"
        )
    if not np.isfinite([lo, hi]).all():
        raise FeatureError(f"{cell.cell_id}: voltage bounds must be finite, got {lo} and {hi}")
    if not lo < hi:
        raise FeatureError(f"{cell.cell_id}: voltage bounds must satisfy v_min < v_max")
    return float(lo), float(hi)


def qdlinear(cycle: CycleRecord, v_min: float, v_max: float, interp_dims: int) -> np.ndarray:
    """Discharge capacity resampled onto a uniform descending voltage grid.

    Parameters
    ----------
    cycle : CycleRecord
        Must contain a discharge segment (current < 0) of >= 2 samples whose
        observed voltage span is at least 1e-6 V.
    v_min, v_max : float
        Grid endpoints; the grid runs from ``v_max`` down to ``v_min``.
    interp_dims : int
        Number of grid points (>= 2).

    Returns
    -------
    numpy.ndarray
        ``interp_dims`` capacities. Within the observed span the value is the
        piecewise-linear interpolant of the (voltage, discharge capacity)
        samples with exact-duplicate voltages averaged; outside it, the
        nearest endpoint value (clamping).
    """
    if interp_dims < 2:
        raise ValueError(f"interp_dims must be >= 2, got {interp_dims}")
    if not v_min < v_max:
        raise ValueError("v_min must be < v_max")
    current = np.asarray(cycle.current_in_A)
    mask = current < 0
    if np.count_nonzero(mask) < 2:
        raise FeatureError(
            f"cycle {cycle.cycle_number}: no discharge segment (need >= 2 samples with current < 0)"
        )
    v = np.asarray(cycle.voltage_in_V)[mask]
    q = np.asarray(cycle.discharge_capacity_in_Ah)[mask]
    if v.max() - v.min() < _DEGENERATE_SPAN_V:
        raise FeatureError(
            f"cycle {cycle.cycle_number}: degenerate discharge voltage span "
            f"({v.max() - v.min():.2e} V)"
        )
    vu, inverse = np.unique(v, return_inverse=True)
    qu = np.bincount(inverse, weights=q) / np.bincount(inverse)
    grid = np.linspace(v_max, v_min, interp_dims)
    return np.interp(grid[::-1], vu, qu)[::-1]


def delta_q(
    cell: CellRecord,
    late_index: int,
    early_index: int,
    *,
    interp_dims: int = 1000,
    v_min=None,
    v_max=None,
) -> np.ndarray:
    """Between-cycle capacity difference Qd_late(V) - Qd_early(V) on the grid."""
    lo, hi = voltage_bounds(cell, v_min, v_max)
    n = len(cell.cycle_data)
    for idx in (late_index, early_index):
        if not 0 <= idx < n:
            raise FeatureError(f"{cell.cell_id}: cycle index {idx} out of range (have {n})")
    late = qdlinear(cell.cycle_data[late_index], lo, hi, interp_dims)
    early = qdlinear(cell.cycle_data[early_index], lo, hi, interp_dims)
    return late - early


def _moments(x: np.ndarray) -> tuple[float, float, float, float]:
    """(min, population variance, skewness m3/m2^1.5, kurtosis m4/m2^2)."""
    x = np.asarray(x, dtype=float)
    mu = x.mean()
    d = x - mu
    m2 = np.mean(d**2)
    m3 = np.mean(d**3)
    m4 = np.mean(d**4)
    with np.errstate(divide="ignore", invalid="ignore"):
        skew = m3 / m2**1.5
        kurt = m4 / m2**2
    return float(x.min()), float(m2), float(skew), float(kurt)


def sanitize(values: np.ndarray) -> np.ndarray:
    """Replace NaN and +/-Inf feature entries with 0.0."""
    values = np.asarray(values, dtype=float)
    bad = ~np.isfinite(values)
    if bad.any():
        values = values.copy()
        values[bad] = 0.0
    return values


# ---------------------------------------------------------------------------
# Feature matrix

@dataclass(eq=False)
class RowKeys:
    """Row keys as ``report["predictions"]`` stores them: ``cell_id`` as
    ``[id, count]`` runs of positive counts, and ``cycle`` and ``step`` as
    read-only int64 arrays, or None where the task has no such level."""

    cell_id: list
    cycle: np.ndarray | None = None
    step: np.ndarray | None = None

    def __post_init__(self):
        self.cell_id = [[cell_id, int(n)] for cell_id, n in self.cell_id]
        if min([n for _, n in self.cell_id], default=1) < 1:
            raise ValueError(f"row key runs need positive counts, got {self.cell_id}")
        self.cycle, self.step = (None if a is None else _small(a, np.int64, name, len(self))
                                 for name, a in (("cycle", self.cycle), ("step", self.step)))

    @classmethod
    def steps(cls, cell_id, cycle_number, counts) -> RowKeys:
        """One cell's keys of ``counts[i]`` steps of cycle ``cycle_number[i]``."""
        n = int(np.sum(counts))
        return cls([[cell_id, n]] if n else [], np.repeat(cycle_number, counts),
                   np.arange(n) - np.repeat(np.cumsum(counts) - counts, counts))

    @classmethod
    def concat(cls, parts) -> RowKeys:
        """The rows of ``parts``, which share their levels, in order."""
        levels = ([getattr(part, name) for part in parts] for name in ("cycle", "step"))
        return cls([run for part in parts for run in part.cell_id],
                   *(None if all(a is None for a in level) else np.concatenate(level) for level in levels))

    def __len__(self) -> int:
        return sum(n for _, n in self.cell_id)

    def __eq__(self, other) -> bool:  # equal keys, in the form a report stores
        return isinstance(other, RowKeys) and self.columns() == other.columns()

    def runs(self) -> np.ndarray:
        """Each row's index into ``cell_id``."""
        return np.repeat(np.arange(len(self.cell_id)), [n for _, n in self.cell_id])

    def columns(self) -> dict:
        """``report["predictions"]``'s key columns, as lists."""
        levels = (("cycle", self.cycle), ("step", self.step))
        return {"cell_id": [list(run) for run in self.cell_id],
                **{name: a.tolist() for name, a in levels if a is not None}}


def _check_rows(values: np.ndarray, ndim: int, row_keys):
    if values.ndim != ndim:
        raise ValueError(f"values must be {ndim}-D, got shape {values.shape}")
    if not (isinstance(row_keys, RowKeys) and len(row_keys) == len(values)):
        raise ValueError(f"row keys must be one RowKeys of the {len(values)} rows they align")


@dataclass
class FeatureMatrix:
    """2-D feature values plus :class:`RowKeys` and column names.

    A checkpoint stores the test rows' values alone (see
    :func:`cellforge.pipeline.write_features`): its report's prediction rows
    hold the keys, and the config's feature section rebuilds the names.
    """

    values: np.ndarray
    row_keys: RowKeys
    col_names: list[str]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        _check_rows(self.values, 2, self.row_keys)
        if self.values.shape[1] != len(self.col_names):
            raise ValueError("column count and column names disagree")


class BaseFeatureExtractor:
    """Shared per-cell iteration, sanitization, and matrix assembly.

    A subclass must set ``rows``, which a train refuses as None, and may
    set ``horizon``, the number of leading cycles it reads (by default None,
    every cycle with no minimum); :meth:`extract`
    hands :meth:`process_cell` only ``cell.head(horizon)``, and refuses a cell
    shorter than it when the extractor makes one row per cell.
    """

    horizon = rows = None

    def process_cell(self, cell: CellRecord) -> tuple[np.ndarray, RowKeys]:
        raise NotImplementedError

    def extract(self, cells: list[CellRecord]) -> FeatureMatrix:
        if not cells:
            raise FeatureError("no cells to extract features from")
        h, parts = self.horizon, []
        for cell in cells:
            n = len(cell.cycle_data)
            if self.rows == "cell" and n < (h or 0):
                raise FeatureError(f"{cell.cell_id}: needs >= {h} cycles, has {n}")
            parts.append(self.process_cell(cell.head(h)))
        values = np.vstack([p[0] for p in parts])
        keys = RowKeys.concat([p[1] for p in parts])
        return FeatureMatrix(values=sanitize(values), row_keys=keys, col_names=list(self.col_names))


class VarianceModelFeatureExtractor(BaseFeatureExtractor):
    """Single feature: log10 variance (floored) of the late-minus-early
    capacity-difference curve between two critical cycles."""

    col_names = ["log10_var_delta_qdlin"]
    rows = "cell"

    def __init__(
        self,
        interp_dims: int = 1000,
        critical_cycles=(2, 9, 99),
        v_min=None,
        v_max=None,
    ):
        if len(critical_cycles) != 3:
            raise ValueError("critical_cycles must list three 0-based cycle indices")
        self.interp_dims = integer("interp_dims", interp_dims, 2, MAX_POINTS)
        self.critical_cycles = tuple(
            integer(f"critical_cycles[{k}]", c) for k, c in enumerate(critical_cycles))
        self.v_min = None if v_min is None else number("v_min", v_min)
        self.v_max = None if v_max is None else number("v_max", v_max)

    @property
    def horizon(self) -> int:
        return max(self.critical_cycles) + 1

    def _delta(self, cell):
        _, early, late = self.critical_cycles
        return delta_q(cell, late, early, interp_dims=self.interp_dims,
                       v_min=self.v_min, v_max=self.v_max)

    def process_cell(self, cell):
        dq = self._delta(cell)
        var = max(float(np.var(dq)), VARIANCE_FLOOR)
        return np.array([[np.log10(var)]]), RowKeys([[cell.cell_id, 1]])


class DischargeModelFeatureExtractor(VarianceModelFeatureExtractor):
    """Six cell-level features of the capacity-difference curve and the
    early discharge capacities."""

    col_names = [
        "log10_abs_min_delta_q",
        "log10_var_delta_q",
        "log10_abs_skew_delta_q",
        "log10_abs_kurt_delta_q",
        "discharge_capacity_at_cap_cycle",
        "max_discharge_capacity_minus_cap_cycle",
    ]

    def _discharge_vector(self, cell):
        cap_idx, _, late = self.critical_cycles
        dq = self._delta(cell)
        mn, var, skew, kurt = _moments(dq)
        caps = cell.cycle_data.maxima("discharge_capacity_in_Ah", 0, max(cap_idx, late) + 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            row = np.array(
                [
                    np.log10(abs(mn)),
                    np.log10(var),
                    np.log10(abs(skew)),
                    np.log10(abs(kurt)),
                    caps[cap_idx],
                    caps.max() - caps[cap_idx],
                ]
            )
        return row

    def process_cell(self, cell):
        return self._discharge_vector(cell)[None, :], RowKeys([[cell.cell_id, 1]])


class FullModelFeatureExtractor(DischargeModelFeatureExtractor):
    """Discharge features plus charge time, temperature integral, and
    internal-resistance drift (entries sanitize to 0 when signals are absent)."""

    col_names = DischargeModelFeatureExtractor.col_names + [
        "mean_charge_time_s",
        "log10_abs_temperature_integral",
        "internal_resistance_rise_ohm",
    ]

    # 0-based inclusive index ranges read by the extra signals
    CHARGE_TIME_CYCLES = (2, 6)
    INTEGRAL_CYCLES = (2, 99)

    @property
    def horizon(self) -> int:
        return max(*self.critical_cycles, self.CHARGE_TIME_CYCLES[1], self.INTEGRAL_CYCLES[1]) + 1

    @staticmethod
    def _charge_times(cycles, t, lo, hi):
        """Per cycle lo..hi, the time (from the column ``t``) from its first
        to its last charging (current > 0) sample; NaN for a cycle with fewer
        than two."""
        bounds = cycles.offsets["time_in_s"][lo : hi + 2]
        pos = np.flatnonzero(cycles.columns["current_in_A"][bounds[0] : bounds[-1]] > 0) + bounds[0]
        cyc = np.searchsorted(bounds, pos, side="right") - 1
        first = np.searchsorted(cyc, np.arange(len(bounds) - 1))
        last = np.searchsorted(cyc, np.arange(len(bounds) - 1), side="right") - 1
        ok = last > first
        times = np.full(len(bounds) - 1, np.nan)
        times[ok] = t[pos[last[ok]]] - t[pos[first[ok]]]
        return times

    def process_cell(self, cell):
        cycles, (lo, hi) = cell.cycle_data, self.CHARGE_TIME_CYCLES
        base = self._discharge_vector(cell)  # its cycle views decode current, and the cell keeps it
        t = cycles.columns["time_in_s"]  # read once, for the charge times and the integral
        mean_ct = float(np.mean(self._charge_times(cycles, t, lo, hi)))

        lo_i, hi_i = self.INTEGRAL_CYCLES
        off, integral = cycles.offsets["time_in_s"], 0.0
        for i, cyc in enumerate(cycles[lo_i : hi_i + 1], lo_i):
            if cyc.temperature_in_C is None:
                integral = np.nan
                break
            integral += np.trapezoid(np.asarray(cyc.temperature_in_C), t[off[i] : off[i + 1]])
        with np.errstate(divide="ignore", invalid="ignore"):
            log_integral = np.log10(abs(integral))

        resistances = cycles.internal_resistance_in_ohm[lo_i : hi_i + 1]
        present = cycles.has_internal_resistance[lo_i : hi_i + 1]
        ir_rise = resistances[0] - resistances[present].min() if present.size and present[0] else np.nan

        row = np.concatenate([base, [mean_ct, log_integral, ir_rise]])
        return row[None, :], RowKeys([[cell.cell_id, 1]])


class VoltageCapacityMatrixFeatureExtractor(BaseFeatureExtractor):
    """Per-cell matrix of capacity-difference curves against a base cycle.

    Row j is ``qdlinear(cycle j) - qdlinear(cycle diff_base)`` for the first
    ``cycles_to_keep`` cycles with index <= ``max_cycle_index``; rows are
    flattened for tabular models.
    """

    rows = "cell"

    def __init__(
        self,
        interp_dims: int = 1000,
        diff_base: int = 9,
        max_cycle_index: int = 99,
        cycles_to_keep: int = 100,
        v_min=None,
        v_max=None,
    ):
        self.interp_dims = integer("interp_dims", interp_dims, 2, MAX_POINTS)
        self.diff_base = integer("diff_base", diff_base)
        self.max_cycle_index = integer("max_cycle_index", max_cycle_index)
        self.cycles_to_keep = integer("cycles_to_keep", cycles_to_keep, 1)
        self.v_min = None if v_min is None else number("v_min", v_min)
        self.v_max = None if v_max is None else number("v_max", v_max)
        self._last_row = min(self.cycles_to_keep, self.max_cycle_index + 1) - 1
        self.horizon = max(self._last_row, self.diff_base) + 1

    @cached_property
    def row_indices(self) -> list[int]:
        # built when first read, after each cell is checked to hold the cycles
        return list(range(self._last_row + 1))

    @cached_property
    def col_names(self) -> list[str]:
        # built when first read, after the values exist: a huge interp_dims fails at its array
        return [f"dq_c{j}_v{k}" for j in self.row_indices for k in range(self.interp_dims)]

    def matrix(self, cell) -> np.ndarray:
        """The unflattened (cycles_to_keep, interp_dims) matrix of one cell."""
        lo, hi = voltage_bounds(cell, self.v_min, self.v_max)
        base = qdlinear(cell.cycle_data[self.diff_base], lo, hi, self.interp_dims)
        rows = [
            qdlinear(cell.cycle_data[j], lo, hi, self.interp_dims) - base
            for j in self.row_indices
        ]
        return np.vstack(rows)

    def process_cell(self, cell):
        return self.matrix(cell).reshape(1, -1), RowKeys([[cell.cell_id, 1]])


def soh_cycle_features(cell: CellRecord, cycle_index: int) -> np.ndarray:
    """Per-cycle SOH features: normalized charge capacity, first-cycle
    voltage statistics, coulombic efficiency, and the cycle number."""
    if not cell.cycle_data:
        raise FeatureError(f"{cell.cell_id}: no cycles")
    if not 0 <= cycle_index < len(cell.cycle_data):
        raise FeatureError(f"{cell.cell_id}: cycle index {cycle_index} out of range")
    return _soh_cycle_rows(cell, cycle_index, cycle_index + 1)[0]


def _soh_cycle_rows(cell: CellRecord, start: int, stop: int) -> np.ndarray:
    """:func:`soh_cycle_features` of cycles ``start`` to ``stop - 1``, read
    from the columns at once: each capacity column once and up to ``stop``,
    for the maxima and the coulombic efficiency (the last value of each
    cycle) alike, and the voltage of cycle 0 alone."""
    cycles = cell.cycle_data
    off = cycles.offsets["time_in_s"]
    bounds = off[start : stop + 1]
    empty = np.flatnonzero(np.diff(bounds) == 0)
    if empty.size:
        raise FeatureError(f"cycle {cycles.cycle_number[start + empty[0]]}: empty capacity sequences")
    if off[1] == 0:
        raise FeatureError(f"cycle {cycles.cycle_number[0]}: no voltage points for the first-cycle "
                           "voltage statistics")
    columns = cycles.head(stop).columns
    qc, last = columns["charge_capacity_in_Ah"], bounds[1:] - 1
    efficiency = columns["discharge_capacity_in_Ah"][last] / (qc[last] + COULOMBIC_EPS)
    charge = np.maximum.reduceat(qc, bounds[:-1]) / cell.nominal_capacity_in_Ah
    v0 = cycles.head(1).columns["voltage_in_V"]
    first = np.array([v0.mean(), v0.min(), v0.max()])
    return sanitize(np.column_stack([
        charge,
        np.tile(first, (stop - start, 1)),
        efficiency,
        cycles.cycle_number[start:stop].astype(float),
    ]))


SOH_CYCLE_COL_NAMES = [
    "max_charge_capacity_ratio",
    "first_cycle_voltage_mean",
    "first_cycle_voltage_min",
    "first_cycle_voltage_max",
    "coulombic_efficiency",
    "cycle_number",
]


class SOHCycleFeatureExtractor(BaseFeatureExtractor):
    """One row per (cell, cycle) of :func:`soh_cycle_features`."""

    col_names = SOH_CYCLE_COL_NAMES
    rows = "cycle"

    def __init__(self, max_cycle_index: int | None = None):
        self.max_cycle_index = (
            None if max_cycle_index is None else integer("max_cycle_index", max_cycle_index))
        self.horizon = None if self.max_cycle_index is None else self.max_cycle_index + 1

    @staticmethod
    def _cycles(cell) -> CycleData:
        if not cell.cycle_data:
            raise FeatureError(f"{cell.cell_id}: no cycles")
        return cell.cycle_data

    def process_cell(self, cell):
        numbers = self._cycles(cell).cycle_number
        return _soh_cycle_rows(cell, 0, len(numbers)), RowKeys([[cell.cell_id, len(numbers)]], numbers)


class SOCStepFeatureExtractor(SOHCycleFeatureExtractor):
    """One row per (cell, cycle, step): the step's current, voltage and time
    since the cycle's start, the previous cycle's qdlinear curve on
    ``n_qdlin`` (an integer >= 2) points, and a flag that is 1.0 on the
    first cycle, whose curve is zero-filled, so column names stay uniform."""

    rows = "step"

    def __init__(
        self,
        n_qdlin: int = 32,
        max_cycle_index: int | None = None,
        v_min=None,
        v_max=None,
    ):
        super().__init__(max_cycle_index)
        self.n_qdlin = integer("n_qdlin", n_qdlin, 2, MAX_POINTS)
        self.v_min = None if v_min is None else number("v_min", v_min)
        self.v_max = None if v_max is None else number("v_max", v_max)

    @cached_property
    def col_names(self) -> list[str]:
        # built when first read, as for VoltageCapacityMatrixFeatureExtractor
        return (["current_in_A", "voltage_in_V", "elapsed_time_s"]
                + [f"prev_qdlin_{k:02d}" for k in range(self.n_qdlin)]
                + ["prev_qdlin_zero_filled"])

    def process_cell(self, cell):
        cycles = self._cycles(cell)
        off = cycles.offsets["time_in_s"]
        counts = np.diff(off)
        if not counts.all():
            raise FeatureError(f"cycle {cycles.cycle_number[np.argmin(counts)]}: no points")
        prev = [np.zeros(self.n_qdlin)]
        if len(cycles) > 1:
            lo, hi = voltage_bounds(cell, self.v_min, self.v_max)
            prev += [qdlinear(cyc, lo, hi, self.n_qdlin) for cyc in cycles[:-1]]
        t = cycles.columns["time_in_s"]
        with np.errstate(invalid="ignore"):  # a time of inf - inf, which sanitize zeroes
            values = np.column_stack([cycles.columns["current_in_A"], cycles.columns["voltage_in_V"],
                                      t - np.repeat(t[off[:-1]], counts), np.repeat(prev, counts, axis=0),
                                      np.repeat(np.arange(len(cycles)) == 0, counts)])
        return sanitize(values), RowKeys.steps(cell.cell_id, cycles.cycle_number, counts)


class CapacityFadeSlopeFeatureExtractor(BaseFeatureExtractor):
    """Least-squares slope of SOH over an early cycle window (percent/cycle).

    Captures the capacity decay dynamic as a standalone single feature.
    """

    col_names = ["soh_slope_percent_per_cycle"]
    rows = "cell"

    def __init__(self, first_cycle: int = 2, last_cycle: int = 99):
        self.first_cycle = integer("first_cycle", first_cycle)
        self.last_cycle = integer("last_cycle", last_cycle)
        if not first_cycle < last_cycle:
            raise ValueError("need 0 <= first_cycle < last_cycle")
        self.horizon = self.last_cycle + 1

    def process_cell(self, cell):
        from .labels import soh_per_cycle

        soh = soh_per_cycle(cell)[self.first_cycle : self.last_cycle + 1]
        n = np.arange(self.first_cycle, self.last_cycle + 1, dtype=float)
        slope = np.polyfit(n, soh, 1)[0]
        return np.array([[slope]]), RowKeys([[cell.cell_id, 1]])

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
``process_cell(cell) -> (values (k, d), row_keys)`` and
``extract(cells) -> FeatureMatrix``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .battery_data import CellRecord, CycleData, CycleRecord
from .errors import FeatureError
from .registry import integer, number

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


def coulombic_efficiency(cycle: CycleRecord) -> float:
    """Final discharge capacity over final charge capacity of one cycle."""
    qd = cycle.discharge_capacity_in_Ah
    qc = cycle.charge_capacity_in_Ah
    if qd.size == 0 or qc.size == 0:
        raise FeatureError(f"cycle {cycle.cycle_number}: empty capacity sequences")
    return float(qd[-1] / (qc[-1] + COULOMBIC_EPS))


def _coulombic_efficiencies(cycles: CycleData, start: int, stop: int) -> np.ndarray:
    """:func:`coulombic_efficiency` of cycles ``start`` to ``stop - 1``, from
    the last value of each cycle in the capacity columns."""
    qd_bounds = cycles.offsets["discharge_capacity_in_Ah"][start : stop + 1]
    qc_bounds = cycles.offsets["charge_capacity_in_Ah"][start : stop + 1]
    empty = np.flatnonzero((np.diff(qd_bounds) == 0) | (np.diff(qc_bounds) == 0))
    if empty.size:
        raise FeatureError(f"cycle {cycles.cycle_number[start + empty[0]]}: empty capacity sequences")
    qd = cycles.columns["discharge_capacity_in_Ah"][qd_bounds[1:] - 1]
    qc = cycles.columns["charge_capacity_in_Ah"][qc_bounds[1:] - 1]
    return qd / (qc + COULOMBIC_EPS)


def estimate_internal_resistance(cycle: CycleRecord) -> float:
    """|dV/dI| across the largest current step within the cycle.

    A fallback for sources that do not record the per-cycle scalar; not used
    implicitly by any extractor.
    """
    i = np.asarray(cycle.current_in_A)
    v = np.asarray(cycle.voltage_in_V)
    if len(i) < 2:
        raise FeatureError(f"cycle {cycle.cycle_number}: need >= 2 samples")
    di = np.diff(i)
    k = int(np.argmax(np.abs(di)))
    if abs(di[k]) < 1e-12:
        raise FeatureError(f"cycle {cycle.cycle_number}: current is constant; cannot estimate dV/dI")
    return abs((v[k + 1] - v[k]) / di[k])


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

@dataclass
class FeatureMatrix:
    """2-D feature values plus row keys and column names.

    A checkpoint stores the test rows' values and keys (see
    :func:`cellforge.pipeline.write_features`) but not the names, which the
    config's feature section rebuilds.
    """

    values: np.ndarray
    row_keys: list[tuple]
    col_names: list[str]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValueError(f"feature values must be 2-D, got shape {self.values.shape}")
        if self.values.shape[0] != len(self.row_keys):
            raise ValueError("row count and row keys disagree")
        if self.values.shape[1] != len(self.col_names):
            raise ValueError("column count and column names disagree")


class BaseFeatureExtractor:
    """Shared per-cell iteration, sanitization, and matrix assembly."""

    def __init__(self, observed_cycles: int | None = None):
        self.observed_cycles = (
            None if observed_cycles is None else integer("observed_cycles", observed_cycles, 1))

    def _check_observed(self, indices):
        """Raise FeatureError when one of the cycle ``indices`` the extractor
        reads lies past the ``observed_cycles`` budget."""
        if self.observed_cycles is None:
            return
        bad = [i for i in indices if i >= self.observed_cycles]
        if bad:
            raise FeatureError(
                f"{type(self).__name__}: cycle indices {bad} exceed the observed-cycle "
                f"budget of {self.observed_cycles}"
            )

    def _require_cycles(self, cell, count):
        if len(cell.cycle_data) < count:
            raise FeatureError(
                f"{cell.cell_id}: needs >= {count} cycles, has {len(cell.cycle_data)}"
            )

    def process_cell(self, cell: CellRecord) -> tuple[np.ndarray, list[tuple]]:
        raise NotImplementedError

    def extract(self, cells: list[CellRecord]) -> FeatureMatrix:
        if not cells:
            raise FeatureError("no cells to extract features from")
        parts = [self.process_cell(c) for c in cells]
        values = np.vstack([p[0] for p in parts])
        keys = [k for p in parts for k in p[1]]
        return FeatureMatrix(values=sanitize(values), row_keys=keys, col_names=list(self.col_names))


class VarianceModelFeatureExtractor(BaseFeatureExtractor):
    """Single feature: log10 variance (floored) of the late-minus-early
    capacity-difference curve between two critical cycles."""

    col_names = ["log10_var_delta_qdlin"]

    def __init__(
        self,
        interp_dims: int = 1000,
        critical_cycles=(2, 9, 99),
        v_min=None,
        v_max=None,
        observed_cycles: int | None = None,
    ):
        super().__init__(observed_cycles)
        if len(critical_cycles) != 3:
            raise ValueError("critical_cycles must list three 0-based cycle indices")
        self.interp_dims = integer("interp_dims", interp_dims, 2)
        self.critical_cycles = tuple(
            integer(f"critical_cycles[{k}]", c) for k, c in enumerate(critical_cycles))
        self.v_min = None if v_min is None else number("v_min", v_min)
        self.v_max = None if v_max is None else number("v_max", v_max)
        self._check_observed(self._cycles_read())

    def _cycles_read(self):
        """The 0-based cycle indices that bound what ``process_cell`` reads;
        none may lie past ``observed_cycles``."""
        return self.critical_cycles

    def _delta(self, cell):
        _, early, late = self.critical_cycles
        self._require_cycles(cell, late + 1)
        return delta_q(cell, late, early, interp_dims=self.interp_dims,
                       v_min=self.v_min, v_max=self.v_max)

    def process_cell(self, cell):
        dq = self._delta(cell)
        var = max(float(np.var(dq)), VARIANCE_FLOOR)
        return np.array([[np.log10(var)]]), [(cell.cell_id, None, None)]


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
        caps = cell.cycle_data.maxima("discharge_capacity_in_Ah", 0, late + 1)
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
        return self._discharge_vector(cell)[None, :], [(cell.cell_id, None, None)]


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

    def _cycles_read(self):
        return (*self.critical_cycles, *self.CHARGE_TIME_CYCLES, *self.INTEGRAL_CYCLES)

    @staticmethod
    def _charge_times(cycles, lo, hi):
        """Per cycle lo..hi, the time from its first to its last charging
        (current > 0) sample; NaN for a cycle with fewer than two."""
        bounds = cycles.offsets["current_in_A"][lo : hi + 2]
        pos = np.flatnonzero(cycles.columns["current_in_A"][bounds[0] : bounds[-1]] > 0) + bounds[0]
        cyc = np.searchsorted(bounds, pos, side="right") - 1
        first = np.searchsorted(cyc, np.arange(len(bounds) - 1))
        last = np.searchsorted(cyc, np.arange(len(bounds) - 1), side="right") - 1
        ok = last > first
        # the time of each sample, found through its place within its cycle
        time_at = pos - bounds[cyc] + cycles.offsets["time_in_s"][lo + cyc]
        times = np.full(len(bounds) - 1, np.nan)
        t = cycles.columns["time_in_s"]
        times[ok] = t[time_at[last[ok]]] - t[time_at[first[ok]]]
        return times

    def process_cell(self, cell):
        lo, hi = self.CHARGE_TIME_CYCLES
        self._require_cycles(cell, max(self._cycles_read()) + 1)
        base = self._discharge_vector(cell)
        mean_ct = float(np.mean(self._charge_times(cell.cycle_data, lo, hi)))

        lo_i, hi_i = self.INTEGRAL_CYCLES
        integral = 0.0
        for cyc in cell.cycle_data[lo_i : hi_i + 1]:
            if cyc.temperature_in_C is None:
                integral = np.nan
                break
            integral += np.trapezoid(np.asarray(cyc.temperature_in_C), np.asarray(cyc.time_in_s))
        with np.errstate(divide="ignore", invalid="ignore"):
            log_integral = np.log10(abs(integral))

        resistances = cell.cycle_data.internal_resistance_in_ohm[lo_i : hi_i + 1]
        present = cell.cycle_data.has_internal_resistance[lo_i : hi_i + 1]
        ir_rise = resistances[0] - resistances[present].min() if present.size and present[0] else np.nan

        row = np.concatenate([base, [mean_ct, log_integral, ir_rise]])
        return row[None, :], [(cell.cell_id, None, None)]


class VoltageCapacityMatrixFeatureExtractor(BaseFeatureExtractor):
    """Per-cell matrix of capacity-difference curves against a base cycle.

    Row j is ``qdlinear(cycle j) - qdlinear(cycle diff_base)`` for the first
    ``cycles_to_keep`` cycles with index <= ``max_cycle_index``; rows are
    flattened for tabular models.
    """

    def __init__(
        self,
        interp_dims: int = 1000,
        diff_base: int = 9,
        max_cycle_index: int = 99,
        cycles_to_keep: int = 100,
        v_min=None,
        v_max=None,
        observed_cycles: int | None = None,
    ):
        super().__init__(observed_cycles)
        self.interp_dims = integer("interp_dims", interp_dims, 2)
        self.diff_base = integer("diff_base", diff_base)
        self.max_cycle_index = integer("max_cycle_index", max_cycle_index)
        self.cycles_to_keep = integer("cycles_to_keep", cycles_to_keep, 1)
        self.v_min = None if v_min is None else number("v_min", v_min)
        self.v_max = None if v_max is None else number("v_max", v_max)
        self.row_indices = list(range(min(self.cycles_to_keep, self.max_cycle_index + 1)))
        self._check_observed([self.diff_base, self.row_indices[-1]])
        self.col_names = [
            f"dq_c{j}_v{k}" for j in self.row_indices for k in range(self.interp_dims)
        ]

    def matrix(self, cell) -> np.ndarray:
        """The unflattened (cycles_to_keep, interp_dims) matrix of one cell."""
        self._require_cycles(cell, max(self.row_indices[-1], self.diff_base) + 1)
        lo, hi = voltage_bounds(cell, self.v_min, self.v_max)
        base = qdlinear(cell.cycle_data[self.diff_base], lo, hi, self.interp_dims)
        rows = [
            qdlinear(cell.cycle_data[j], lo, hi, self.interp_dims) - base
            for j in self.row_indices
        ]
        return np.vstack(rows)

    def process_cell(self, cell):
        return self.matrix(cell).reshape(1, -1), [(cell.cell_id, None, None)]


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
    from the columns at once."""
    cycles = cell.cycle_data
    charge = cycles.maxima("charge_capacity_in_Ah", start, stop) / cell.nominal_capacity_in_Ah
    v0 = cycles[0].voltage_in_V
    first = np.array([v0.mean(), v0.min(), v0.max()])
    return sanitize(np.column_stack([
        charge,
        np.tile(first, (stop - start, 1)),
        _coulombic_efficiencies(cycles, start, stop),
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

    def __init__(self, max_cycle_index: int | None = None, observed_cycles: int | None = None):
        super().__init__(observed_cycles)
        self.max_cycle_index = (
            None if max_cycle_index is None else integer("max_cycle_index", max_cycle_index))

    def _stop(self, cell):
        if not cell.cycle_data:
            raise FeatureError(f"{cell.cell_id}: no cycles")
        limits = (len(cell.cycle_data), self.observed_cycles,
                  None if self.max_cycle_index is None else self.max_cycle_index + 1)
        return min(n for n in limits if n is not None)

    def process_cell(self, cell):
        stop = self._stop(cell)
        keys = [(cell.cell_id, cycle_no, None) for cycle_no in cell.cycle_data.cycle_number[:stop].tolist()]
        return _soh_cycle_rows(cell, 0, stop), keys


class SOCStepFeatureExtractor(SOHCycleFeatureExtractor):
    """One row per (cell, cycle, step): the step's current, voltage and time
    since the cycle's start, the previous cycle's qdlinear curve on
    ``n_qdlin`` (an integer >= 2) points, and a flag that is 1.0 on the
    first cycle, whose curve is zero-filled, so column names stay uniform."""

    def __init__(
        self,
        n_qdlin: int = 32,
        max_cycle_index: int | None = None,
        v_min=None,
        v_max=None,
        observed_cycles: int | None = None,
    ):
        super().__init__(max_cycle_index, observed_cycles)
        self.n_qdlin = integer("n_qdlin", n_qdlin, 2)
        self.v_min = None if v_min is None else number("v_min", v_min)
        self.v_max = None if v_max is None else number("v_max", v_max)
        self.col_names = (
            ["current_in_A", "voltage_in_V", "elapsed_time_s"]
            + [f"prev_qdlin_{k:02d}" for k in range(self.n_qdlin)]
            + ["prev_qdlin_zero_filled"]
        )

    def process_cell(self, cell):
        cycles = cell.cycle_data
        stop = self._stop(cell)
        if stop > 1:
            lo, hi = voltage_bounds(cell, self.v_min, self.v_max)
        blocks, keys = [], []
        for idx, cycle_no in enumerate(cycles.cycle_number[:stop].tolist()):
            cyc = cycles[idx]
            t = np.asarray(cyc.time_in_s)
            if idx == 0:
                prev, flag = np.zeros(self.n_qdlin), 1.0
            else:
                prev, flag = qdlinear(cycles[idx - 1], lo, hi, self.n_qdlin), 0.0
            blocks.append(np.column_stack([cyc.current_in_A, cyc.voltage_in_V, t - t[0],
                                           np.tile(prev, (len(t), 1)), np.full(len(t), flag)]))
            keys.extend((cell.cell_id, cycle_no, step) for step in range(len(t)))
        return sanitize(np.vstack(blocks)), keys


class CapacityFadeSlopeFeatureExtractor(BaseFeatureExtractor):
    """Least-squares slope of SOH over an early cycle window (percent/cycle).

    Captures the capacity decay dynamic as a standalone single feature.
    """

    col_names = ["soh_slope_percent_per_cycle"]

    def __init__(self, first_cycle: int = 2, last_cycle: int = 99, observed_cycles: int | None = None):
        super().__init__(observed_cycles)
        self.first_cycle = integer("first_cycle", first_cycle)
        self.last_cycle = integer("last_cycle", last_cycle)
        if not first_cycle < last_cycle:
            raise ValueError("need 0 <= first_cycle < last_cycle")
        self._check_observed([self.last_cycle])

    def process_cell(self, cell):
        from .labels import soh_per_cycle

        self._require_cycles(cell, self.last_cycle + 1)
        soh = soh_per_cycle(cell)[self.first_cycle : self.last_cycle + 1]
        n = np.arange(self.first_cycle, self.last_cycle + 1, dtype=float)
        slope = np.polyfit(n, soh, 1)[0]
        return np.array([[slope]]), [(cell.cell_id, None, None)]

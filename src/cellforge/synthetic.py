"""Deterministic synthetic degradation corpora for desk-scale work.

Fade model: the full discharge capacity at cycle n follows

    C(n) = C0 * (1 - a * n**1.7)                          for n <= knee
    C(n) = C0 * (1 - a * n**1.7 - c * (n - knee)**2)      for n >  knee

with per-cell coefficients calibrated so SOH crosses 80% exactly at the
drawn integer cycle life (the curve passes 0.8 at life - 0.5, leaving a
half-cycle margin on either side against float jitter) and the knee sits at
``knee_fraction * life``. Cells are cycled on until SOH first drops below
70%, inclusive of that final cycle.

Each cycle is a CC charge at 1C to the maximum voltage, a CV hold during
which the current ramps linearly to zero, then a CC discharge at 2C to the
minimum voltage. With zero noise the discharge capacity is exactly linear in
voltage, which makes the between-cycle capacity-difference features analytic.
Gaussian noise (``noise_sigma``) perturbs the voltage signal only.

Determinism: cell i uses the sub-seed ``seed XOR i`` (masked to 64 bits), so
corpora are reproducible cell-by-cell regardless of generation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .battery_data import MAX_CYCLE_NUMBER, CellRecord, CycleData, ProtocolStep
from .errors import ConfigError
from .features import MAX_POINTS
from .registry import number

# Fractional capacity lost at end of life: 16% through the power law plus 4%
# through the post-knee quadratic, totalling the 20% that defines EOL.
_POWER = 1.7
_PRE_KNEE_FADE = 0.16
_KNEE_FADE = 0.04
_SOH_FLOOR = 0.70  # generation stops at the first cycle below this fraction
_MIN_LIFE = 10
_MAX_LIFE = MAX_CYCLE_NUMBER // 3  # _n_cycles numbers up to 3x the life

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of one synthetic corpus."""

    n_cells: int = 10
    nominal_capacity_in_Ah: float = 1.1
    voltage_min_V: float = 2.0
    voltage_max_V: float = 3.6
    cycle_life_mean: float = 823.0
    cycle_life_std: float = 368.0
    points_per_cycle: int = 64
    knee_fraction: float = 0.9
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("n_cells", "points_per_cycle", "seed"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.n_cells < 1:
            raise ValueError(f"n_cells must be >= 1, got {self.n_cells}")
        if self.points_per_cycle < 16:
            raise ValueError(f"points_per_cycle must be >= 16, got {self.points_per_cycle}")
        # the 2C discharge current, twice the capacity, must be finite too
        number("nominal_capacity_in_Ah", self.nominal_capacity_in_Ah, gt=0, le=np.finfo(float).max / 2)
        v_min = number("voltage_min_V", self.voltage_min_V)
        number("voltage_max_V - voltage_min_V",
               number("voltage_max_V", self.voltage_max_V, gt=v_min) - v_min)
        number("cycle_life_mean", self.cycle_life_mean, gt=0)
        number("cycle_life_std", self.cycle_life_std, ge=0)
        number("knee_fraction", self.knee_fraction, gt=0, lt=1)
        number("noise_sigma", self.noise_sigma, ge=0)


def fade_curve(n: np.ndarray | int, life: int, knee_fraction: float) -> np.ndarray:
    """SOH fraction at cycle(s) ``n`` for a cell with the given cycle life.

    This is the generator's analytic fade law; tests use it as the oracle for
    the SOH label. ``fade_curve(life - 1) >= 0.8 > fade_curve(life)`` holds
    for every ``life >= 2``.
    """
    n = np.asarray(n, dtype=float)
    scale = life - 0.5
    a = _PRE_KNEE_FADE / scale**_POWER
    knee = knee_fraction * scale
    c = _KNEE_FADE / (scale - knee) ** 2
    soh = 1.0 - a * n**_POWER
    past = n > knee
    soh = np.where(past, soh - c * (n - knee) ** 2, soh)
    return soh


def _cell_life(rng: np.random.Generator, spec: SynthSpec) -> int:
    raw = rng.normal(spec.cycle_life_mean, spec.cycle_life_std)
    if raw > _MAX_LIFE:  # refused before any cycle is made
        raise ConfigError(f"bad generator spec: a cell draws a cycle life of {raw:g}; "
                          f"lives above {_MAX_LIFE} would number cycles past {MAX_CYCLE_NUMBER}")
    return int(round(max(raw, _MIN_LIFE)))


def _n_cycles(life: int, knee_fraction: float) -> int:
    # First cycle with SOH < 70%, inclusive. The quadratic term guarantees
    # the floor is reached; 3x life is a safe search bound.
    hi = max(int(3 * life), life + 10)
    n = np.arange(1, hi + 1)
    soh = fade_curve(n, life, knee_fraction)
    below = np.nonzero(soh < _SOH_FLOOR)[0]
    return int(below[0]) + 1 if below.size else hi


def _cycle_columns(c_n, c0, v_min, v_max, ppc, rng, noise_sigma):
    """The signals of cycles with full capacities ``c_n``, one row per cycle:
    CC charge at 1C, CV hold, CC discharge at 2C."""
    n_cc = max(2, round(0.4 * ppc))
    n_cv = max(2, round(0.2 * ppc))
    n_dis = max(2, ppc - n_cc - n_cv)
    cc, cv, ds = slice(0, n_cc), slice(n_cc, n_cc + n_cv), slice(n_cc + n_cv, None)
    c_n = c_n[:, None]
    t1 = 0.8 * c_n / c0  # hours of CC charge (fills 80% of the cycle capacity)
    t2 = 0.4 * c_n / c0  # CV hold; triangular current fills the last 20%
    t3 = 0.5 * c_n / c0  # CC discharge at 2C
    u = np.linspace(0.0, 1.0, n_cv + 1)[1:]  # CV progress; exact 1.0 at the end
    t, v, i, qc, qd = (np.empty((len(c_n), n_cc + n_cv + n_dis)) for _ in range(5))

    t[:, cc] = np.linspace(0.0, t1[:, 0], n_cc, axis=1)
    t[:, cv] = t1 + t2 * u
    t[:, ds] = np.linspace((t1 + t2)[:, 0], (t1 + t2 + t3)[:, 0], n_dis + 1, axis=1)[:, 1:]

    i[:, cc] = c0
    i[:, cv] = c0 * (1.0 - u)  # ends at exactly 0 A, never dips negative
    i[:, ds] = -2.0 * c0

    qc[:, cc] = c0 * t[:, cc]
    qc[:, cv] = 0.8 * c_n + 0.2 * c_n * (2.0 * u - u * u)
    qc[:, cv.stop - 1] = c_n[:, 0]  # close the integral exactly
    qc[:, ds] = c_n

    qd[:, : cv.stop] = 0.0
    qd[:, ds] = 2.0 * c0 * (t[:, ds] - (t1 + t2))
    qd[:, -1] = c_n[:, 0]  # close the integral exactly

    v[:, cc] = v_min + (v_max - v_min) * (t[:, cc] / t1)
    v[:, cv] = v_max
    v[:, ds] = v_max - (v_max - v_min) * (qd[:, ds] / c_n)

    t *= 3600.0
    if noise_sigma > 0:
        v += rng.normal(0.0, noise_sigma, v.shape)
    return t, v, i, qc, qd


def _fade(spec: SynthSpec, index: int) -> tuple[np.random.Generator, np.ndarray]:
    """Cell ``index``'s generator, past its life draw, and its SOH at each
    cycle; a life, a fade or a point count that makes no valid cell raises
    ConfigError."""
    rng = np.random.default_rng((spec.seed ^ index) & _MASK64)
    life = _cell_life(rng, spec)
    soh = fade_curve(np.arange(1, _n_cycles(life, spec.knee_fraction) + 1), life, spec.knee_fraction)
    if soh[-1] <= 0:  # a knee this late packs the quadratic fade into the last cycle
        raise ConfigError(f"bad generator spec: knee_fraction {spec.knee_fraction!r} drops cell {index}'s "
                          f"SOH by {soh[-2] - soh[-1]:.4g} in its last cycle, to {soh[-1]:.4g}; "
                          "the SOH must stay above 0")
    if len(soh) * spec.points_per_cycle > MAX_POINTS:  # NumPy would refuse the arrays with a bare ValueError
        raise ConfigError(f"bad generator spec: cell {index} needs {len(soh)} cycles x "
                          f"{spec.points_per_cycle} points, more than the {MAX_POINTS} one array may hold")
    return rng, soh


def check_cells(spec: SynthSpec) -> None:
    """Raise the ConfigError that :func:`synthetic_cell` would raise for
    some cell of ``spec``, without making any cell."""
    for index in range(spec.n_cells):
        _fade(spec, index)


def synthetic_cell(spec: SynthSpec, index: int) -> CellRecord:
    """Cell ``index`` of the corpus ``spec`` describes, made on its own."""
    rng, soh = _fade(spec, index)
    n_cycles = len(soh)
    c0 = spec.nominal_capacity_in_Ah
    t, v, i, qc, qd = _cycle_columns(
        c0 * soh, c0, spec.voltage_min_V, spec.voltage_max_V,
        spec.points_per_cycle, rng, spec.noise_sigma,
    )
    cycles = CycleData(
        np.arange(1, n_cycles + 1),
        {
            "voltage_in_V": v.ravel(),
            "current_in_A": i.ravel(),
            "charge_capacity_in_Ah": qc.ravel(),
            "discharge_capacity_in_Ah": qd.ravel(),
            "time_in_s": t.ravel(),
            "temperature_in_C": np.broadcast_to(np.float64(30.0), t.size),  # one value, no column
        },
        np.arange(n_cycles + 1) * t.shape[1],
        internal_resistance_in_ohm=0.015 * (1.0 + 0.5 * (1.0 - soh)),
        copy=False,  # the columns are made here for this cell alone
    )

    return CellRecord(
        cell_id=f"SYN_{index:04d}",
        cycle_data=cycles,
        form_factor="cylindrical_18650",
        anode_material="graphite",
        cathode_material="LFP",
        nominal_capacity_in_Ah=c0,
        depth_of_charge=1.0,
        depth_of_discharge=1.0,
        already_spent_cycles=0,
        max_voltage_limit_in_V=spec.voltage_max_V,
        min_voltage_limit_in_V=spec.voltage_min_V,
        max_current_limit_in_A=c0,
        min_current_limit_in_A=-2.0 * c0,
        charge_protocol=(
            ProtocolStep(rate_in_C=1.0, start_soc=0.0, end_soc=0.8, end_voltage_in_V=spec.voltage_max_V),
            ProtocolStep(voltage_in_V=spec.voltage_max_V, start_soc=0.8, end_soc=1.0),
        ),
        discharge_protocol=(
            ProtocolStep(rate_in_C=2.0, start_soc=1.0, end_soc=0.0, end_voltage_in_V=spec.voltage_min_V),
        ),
        description="synthetic degradation corpus cell",
    )


def generate_synthetic(spec: SynthSpec) -> list[CellRecord]:
    """Generate ``spec.n_cells`` cells; deterministic in ``spec`` alone."""
    return [synthetic_cell(spec, i) for i in range(spec.n_cells)]

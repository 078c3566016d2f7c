"""Synthetic corpus generator: determinism, fade law, emission rules."""

import dataclasses

import numpy as np
import pytest

from cellforge.battery_data import MAX_CYCLE_NUMBER, validate
from cellforge.errors import ConfigError
from cellforge.labels import rul_label, soh_per_cycle
from cellforge.synthetic import MAX_CELLS, SynthSpec, fade_curve, generate_synthetic, synthetic_cell


def spec(**kw):
    base = dict(n_cells=6, cycle_life_mean=180.0, cycle_life_std=30.0,
                points_per_cycle=16, seed=7)
    base.update(kw)
    return SynthSpec(**base)


def drawn_life(s: SynthSpec, index: int) -> int:
    """Replicate the generator's life draw independently of the package."""
    rng = np.random.default_rng((s.seed ^ index) & ((1 << 64) - 1))
    raw = rng.normal(s.cycle_life_mean, s.cycle_life_std)
    return max(10, int(round(raw)))


class TestDeterminism:
    def test_same_spec_same_corpus(self):
        assert generate_synthetic(spec()) == generate_synthetic(spec())

    def test_cells_are_seeded_per_index(self):
        # a longer corpus extends a shorter one rather than reshuffling it
        short = generate_synthetic(spec(n_cells=3))
        longer = generate_synthetic(spec(n_cells=6))
        assert longer[:3] == short

    def test_each_cell_is_made_on_its_own(self):
        s = spec(n_cells=4)
        assert [synthetic_cell(s, i) for i in (3, 1)] == [generate_synthetic(s)[i] for i in (3, 1)]

    def test_different_seed_different_cells(self):
        a = generate_synthetic(spec(seed=1, n_cells=2))
        b = generate_synthetic(spec(seed=2, n_cells=2))
        assert a != b


class TestCorpusShape:
    def test_every_cell_validates(self, synth_cells):
        for cell in synth_cells:
            assert validate(cell) == []

    def test_cell_ids_and_metadata(self, synth_cells):
        assert [c.cell_id for c in synth_cells] == [f"SYN_{i:04d}" for i in range(12)]
        for c in synth_cells:
            assert c.cathode_material == "LFP"
            assert c.min_voltage_limit_in_V == 2.0
            assert c.max_voltage_limit_in_V == 3.6
            assert c.charge_protocol and c.discharge_protocol

    def test_points_per_cycle_is_exact(self):
        for ppc in (16, 24, 64):
            cell = generate_synthetic(spec(n_cells=1, points_per_cycle=ppc))[0]
            assert {len(c.time_in_s) for c in cell.cycle_data} == {ppc}

    def test_internal_resistance_grows_with_fade(self, synth_cells):
        for cell in synth_cells:
            ir = [c.internal_resistance_in_ohm for c in cell.cycle_data]
            assert all(b >= a for a, b in zip(ir, ir[1:]))


class TestFadeLaw:
    @pytest.mark.parametrize("life", [2, 10, 37, 180, 823, 2000])
    def test_soh_crosses_eighty_percent_at_drawn_life(self, life):
        assert fade_curve(life - 0.5, life, 0.9) == pytest.approx(0.8, abs=1e-12)
        assert fade_curve(life - 1, life, 0.9) >= 0.8
        assert fade_curve(life, life, 0.9) < 0.8

    def test_fade_is_monotone_decreasing(self):
        soh = fade_curve(np.arange(1, 600), 200, 0.9)
        assert np.all(np.diff(soh) < 0)

    def test_measured_soh_matches_fade_law(self):
        cell = generate_synthetic(spec(n_cells=1))[0]
        life = drawn_life(spec(), 0)
        n = len(cell.cycle_data)
        expected = 100.0 * fade_curve(np.arange(1, n + 1), life, 0.9)
        np.testing.assert_allclose(soh_per_cycle(cell), expected, rtol=1e-12)

    def test_rul_label_equals_drawn_life(self):
        cells = generate_synthetic(spec(n_cells=8))
        for i, cell in enumerate(cells):
            assert rul_label(cell) == drawn_life(spec(), i)

    def test_emission_stops_at_seventy_percent_floor(self, synth_cells):
        for cell in synth_cells:
            soh = soh_per_cycle(cell)
            assert soh[-1] < 70.0
            assert np.all(soh[:-1] >= 70.0)


class TestNoise:
    def test_noise_perturbs_voltage_only(self):
        clean = generate_synthetic(spec(n_cells=2, noise_sigma=0.0))
        noisy = generate_synthetic(spec(n_cells=2, noise_sigma=0.01))
        for a, b in zip(clean, noisy):
            assert len(a.cycle_data) == len(b.cycle_data)
            for ca, cb in zip(a.cycle_data, b.cycle_data):
                assert np.array_equal(ca.time_in_s, cb.time_in_s)
                assert np.array_equal(ca.current_in_A, cb.current_in_A)
                assert np.array_equal(ca.charge_capacity_in_Ah, cb.charge_capacity_in_Ah)
                assert np.array_equal(ca.discharge_capacity_in_Ah, cb.discharge_capacity_in_Ah)
                assert not np.array_equal(ca.voltage_in_V, cb.voltage_in_V)

    def test_zero_noise_discharge_is_linear_in_voltage(self, synth_cells):
        cell = synth_cells[0]
        for cyc in cell.cycle_data[:3]:
            i = np.asarray(cyc.current_in_A)
            mask = i < 0
            v = np.asarray(cyc.voltage_in_V)[mask]
            qd = np.asarray(cyc.discharge_capacity_in_Ah)[mask]
            coeffs = np.polyfit(v, qd, 1)
            np.testing.assert_allclose(np.polyval(coeffs, v), qd, atol=1e-9)


class TestSpecValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            {"n_cells": 0},
            {"nominal_capacity_in_Ah": 0.0},
            {"voltage_min_V": 3.6, "voltage_max_V": 3.6},
            {"cycle_life_mean": 0.0},
            {"cycle_life_std": -1.0},
            {"points_per_cycle": 8},
            {"knee_fraction": 0.0},
            {"knee_fraction": 1.0},
            {"noise_sigma": -0.1},
            {"voltage_min_V": -1.0e308, "voltage_max_V": 1.0e308},  # the span overflows
            {"nominal_capacity_in_Ah": 1.0e308},  # the 2C discharge current overflows
        ],
    )
    def test_bad_parameters_rejected(self, kw):
        with pytest.raises(ValueError):
            spec(**kw)

    @pytest.mark.parametrize("mean", [MAX_CYCLE_NUMBER // 3 + 1, 1.0e300])
    def test_a_life_numbering_cycles_past_the_bound_is_refused_before_any_cycle(self, mean):
        # _n_cycles numbers up to three times the life
        s = spec(cycle_life_mean=float(mean), cycle_life_std=0.0)
        with pytest.raises(ConfigError, match=f"lives above {MAX_CYCLE_NUMBER // 3} would number "
                                              f"cycles past {MAX_CYCLE_NUMBER}"):
            synthetic_cell(s, 0)

    def test_the_widest_spread_is_refused_above_and_gives_the_shortest_life_below(self):
        # the largest float spread draws lives far past float64 or the bound, on either side
        s = spec(cycle_life_mean=800.0, cycle_life_std=np.finfo(float).max)
        signs = [np.random.default_rng(s.seed ^ i).normal() > 0 for i in range(s.n_cells)]
        assert any(signs) and not all(signs)
        for index, positive in enumerate(signs):
            if positive:
                with pytest.raises(ConfigError, match="a cell draws a cycle life of (inf|[0-9.]+e)"):
                    synthetic_cell(s, index)
            else:
                assert len(synthetic_cell(s, index).cycle_data) == 11  # a life of 10 cycles

    def test_at_most_ten_thousand_cells_whose_ids_keep_four_digits(self):
        assert spec(n_cells=MAX_CELLS).n_cells == MAX_CELLS == 10_000
        assert synthetic_cell(spec(n_cells=MAX_CELLS), MAX_CELLS - 1).cell_id == "SYN_9999"
        for n_cells in (MAX_CELLS + 1, 2**47, 2**63):  # no spec generate_synthetic takes holds them
            with pytest.raises(ValueError, match=rf"^n_cells must be between 1 and 10000, got {n_cells}$"):
                dataclasses.replace(spec(), n_cells=n_cells)

    def test_spec_is_frozen_and_replaceable(self):
        s = spec()
        s2 = dataclasses.replace(s, seed=99)
        assert s2.seed == 99 and s.seed == 7

"""Feature extraction: interpolation oracles, extractors, persistence."""

import dataclasses
import hashlib
import re

import numpy as np
import pytest

from cellforge.battery_data import CycleRecord, write_container
from cellforge.errors import CheckpointError, FeatureError
from cellforge.features import (
    COULOMBIC_EPS,
    CapacityFadeSlopeFeatureExtractor,
    DischargeModelFeatureExtractor,
    FeatureMatrix,
    FullModelFeatureExtractor,
    SOCStepFeatureExtractor,
    SOHCycleFeatureExtractor,
    VarianceModelFeatureExtractor,
    VoltageCapacityMatrixFeatureExtractor,
    coulombic_efficiency,
    delta_q,
    estimate_internal_resistance,
    qdlinear,
    sanitize,
    soh_cycle_features,
    voltage_bounds,
)
from cellforge.pipeline import FEATURES_MAGIC, read_features, write_features
from conftest import V_MAX, V_MIN, linear_cycle, make_cell

SPAN = V_MAX - V_MIN


def discharge_cycle(v, qd, number=1):
    """A pure-discharge cycle from explicit (voltage, capacity) samples."""
    n = len(v)
    return CycleRecord(
        cycle_number=number,
        voltage_in_V=v,
        current_in_A=-np.ones(n),
        charge_capacity_in_Ah=np.zeros(n),
        discharge_capacity_in_Ah=qd,
        time_in_s=np.arange(n, dtype=float),
    )


def interp_oracle(grid, v_samples, q_samples):
    """Piecewise-linear interpolation with endpoint clamping, written plainly.

    ``v_samples`` strictly ascending. Independent of numpy.interp.
    """
    out = []
    for g in grid:
        if g <= v_samples[0]:
            out.append(q_samples[0])
        elif g >= v_samples[-1]:
            out.append(q_samples[-1])
        else:
            j = next(k for k in range(1, len(v_samples)) if v_samples[k] >= g)
            lo_v, hi_v = v_samples[j - 1], v_samples[j]
            lo_q, hi_q = q_samples[j - 1], q_samples[j]
            w = (g - lo_v) / (hi_v - lo_v)
            out.append(lo_q + w * (hi_q - lo_q))
    return np.array(out)


class TestQdlinear:
    @pytest.mark.parametrize("dims", [2, 32, 100, 993])
    def test_exact_on_linear_discharge(self, dims):
        c_full, n_dis = 1.1, 8
        cyc = linear_cycle(1, c_full=c_full, n_dis=n_dis)
        got = qdlinear(cyc, V_MIN, V_MAX, dims)
        grid = np.linspace(V_MAX, V_MIN, dims)
        analytic = c_full * (V_MAX - grid) / SPAN
        # above the highest observed discharge voltage the curve clamps
        expected = np.maximum(analytic, c_full / n_dis)
        np.testing.assert_allclose(got, expected, atol=1e-9)

    def test_output_is_monotone_over_descending_grid(self):
        cyc = linear_cycle(1, c_full=0.9)
        got = qdlinear(cyc, V_MIN, V_MAX, 50)
        assert np.all(np.diff(got) >= -1e-12)

    def test_duplicate_voltages_are_averaged(self):
        cyc = discharge_cycle(
            v=np.array([3.0, 2.5, 2.5, 2.0]),
            qd=np.array([0.0, 0.4, 0.6, 1.0]),
        )
        got = qdlinear(cyc, 2.0, 3.0, 3)  # grid [3.0, 2.5, 2.0]
        assert got[1] == pytest.approx(0.5, abs=1e-12)
        assert got[0] == pytest.approx(0.0, abs=1e-12)
        assert got[2] == pytest.approx(1.0, abs=1e-12)

    def test_clamps_outside_observed_span(self):
        cyc = discharge_cycle(
            v=np.array([3.0, 2.8, 2.6]),
            qd=np.array([0.1, 0.5, 0.9]),
        )
        got = qdlinear(cyc, 2.0, 3.5, 7)  # grid 3.5, 3.25, 3.0, 2.75, 2.5, 2.25, 2.0
        assert got[0] == 0.1 and got[1] == 0.1  # above 3.0
        assert got[-1] == 0.9 and got[-2] == 0.9  # below 2.6

    def test_matches_plain_interpolation_oracle(self):
        rng = np.random.default_rng(17)
        for trial in range(100):
            n = int(rng.integers(3, 25))
            v = np.sort(rng.uniform(2.0, 3.6, n))
            while np.any(np.diff(v) < 1e-9):  # keep samples distinct
                v = np.sort(rng.uniform(2.0, 3.6, n))
            qd = np.sort(rng.uniform(0.0, 1.2, n))[::-1]  # capacity falls as V rises
            cyc = discharge_cycle(v[::-1], qd[::-1], number=trial + 1)
            dims = int(rng.integers(2, 40))
            got = qdlinear(cyc, 2.0, 3.6, dims)
            grid = np.linspace(3.6, 2.0, dims)
            expected = interp_oracle(grid[::-1], list(v), list(qd))[::-1]
            np.testing.assert_allclose(got, expected, atol=1e-9)

    def test_fine_and_coarse_grids_agree_at_shared_points(self):
        cyc = linear_cycle(1, c_full=1.0, n_dis=16)
        fine = qdlinear(cyc, V_MIN, V_MAX, 993)  # 992 = 31 * 32 intervals
        coarse = qdlinear(cyc, V_MIN, V_MAX, 32)
        np.testing.assert_allclose(fine[::32], coarse, atol=1e-9)

    def test_requires_discharge_segment(self):
        cyc = dataclasses.replace(linear_cycle(1), current_in_A=[1.0] * 12)
        with pytest.raises(FeatureError, match="no discharge segment"):
            qdlinear(cyc, V_MIN, V_MAX, 10)

    def test_rejects_degenerate_voltage_span(self):
        cyc = discharge_cycle(np.array([3.0, 3.0 + 1e-9]), np.array([0.0, 1.0]))
        with pytest.raises(FeatureError, match="degenerate"):
            qdlinear(cyc, 2.0, 3.6, 10)

    def test_rejects_bad_grid_parameters(self):
        cyc = linear_cycle(1)
        with pytest.raises(ValueError, match="interp_dims"):
            qdlinear(cyc, V_MIN, V_MAX, 1)
        with pytest.raises(ValueError, match="v_min"):
            qdlinear(cyc, 3.6, 2.0, 10)


class TestDeltaQ:
    def test_linear_cells_give_linear_difference(self):
        cell = make_cell(caps=(1.0, 0.8), n_dis=8)
        dq = delta_q(cell, 1, 0, interp_dims=101)
        grid = np.linspace(V_MAX, V_MIN, 101)
        analytic = (0.8 - 1.0) * (V_MAX - grid) / SPAN
        clamp = (0.8 - 1.0) / 8  # both curves clamp above the first sample
        expected = np.minimum(analytic, clamp)
        np.testing.assert_allclose(dq, expected, atol=1e-9)

    def test_same_cycle_is_zero(self):
        cell = make_cell(caps=(1.0, 0.8))
        assert np.all(delta_q(cell, 1, 1, interp_dims=50) == 0.0)

    def test_index_out_of_range(self):
        with pytest.raises(FeatureError, match="out of range"):
            delta_q(make_cell(caps=(1.0, 0.9)), 5, 0)

    def test_explicit_bounds_override_cell_limits(self):
        cell = make_cell(caps=(1.0, 0.8))
        a = delta_q(cell, 1, 0, interp_dims=11, v_min=2.4, v_max=3.0)
        b = delta_q(cell, 1, 0, interp_dims=11)
        assert a.shape == b.shape and not np.allclose(a, b)


class TestSmallHelpers:
    def test_voltage_bounds_default_to_cell_limits(self):
        assert voltage_bounds(make_cell()) == (V_MIN, V_MAX)

    def test_voltage_bounds_overrides(self):
        assert voltage_bounds(make_cell(), 2.5, 3.0) == (2.5, 3.0)

    def test_voltage_bounds_missing(self):
        cell = dataclasses.replace(
            make_cell(), min_voltage_limit_in_V=None, max_voltage_limit_in_V=None
        )
        with pytest.raises(FeatureError, match="bounds unavailable"):
            voltage_bounds(cell)

    def test_voltage_bounds_must_order(self):
        with pytest.raises(FeatureError, match="v_min < v_max"):
            voltage_bounds(make_cell(), 3.0, 3.0)

    def test_coulombic_efficiency_definition(self):
        cyc = linear_cycle(1, c_full=0.9, c_charge=1.0)
        assert coulombic_efficiency(cyc) == 0.9 / (1.0 + COULOMBIC_EPS)

    def test_coulombic_efficiency_empty(self):
        cyc = CycleRecord(cycle_number=1)
        with pytest.raises(FeatureError, match="empty"):
            coulombic_efficiency(cyc)

    def test_internal_resistance_from_largest_step(self):
        cyc = CycleRecord(
            cycle_number=1,
            voltage_in_V=[3.5, 3.45, 3.15],
            current_in_A=[1.0, 0.9, -2.1],
            charge_capacity_in_Ah=[0.0, 0.1, 0.1],
            discharge_capacity_in_Ah=[0.0, 0.0, 0.2],
            time_in_s=[0.0, 1.0, 2.0],
        )
        # largest |dI| is the 0.9 -> -2.1 step: |dV/dI| = 0.3 / 3.0
        assert estimate_internal_resistance(cyc) == pytest.approx(0.1, abs=1e-12)

    def test_internal_resistance_needs_current_step(self):
        cyc = dataclasses.replace(linear_cycle(1), current_in_A=[0.5] * 12)
        with pytest.raises(FeatureError, match="constant"):
            estimate_internal_resistance(cyc)

    def test_sanitize_replaces_non_finite(self):
        x = np.array([1.0, np.nan, -np.inf, np.inf])
        out = sanitize(x)
        np.testing.assert_array_equal(out, [1.0, 0.0, 0.0, 0.0])
        assert np.isnan(x[1])  # input untouched

    def test_sanitize_no_copy_when_clean(self):
        x = np.array([1.0, 2.0])
        assert sanitize(x) is x


class TestFeatureMatrix:
    """The stored test features: row keys and values, no column names."""

    def test_save_load_round_trip(self, tmp_path):
        fm = FeatureMatrix(
            values=np.array([[1.5, -2.25], [0.0, 3.125]]),
            row_keys=[("a", None, None), ("b", 4, 2)],
            col_names=["f1", "f2"],
        )
        values, keys = read_features(write_features(tmp_path / "feats.bin", fm))
        assert values.tobytes() == fm.values.tobytes() and values.shape == (2, 2)
        assert keys == fm.row_keys

    def test_saved_as_one_container_file(self, tmp_path):
        fm = FeatureMatrix(np.zeros((1, 1)), [("a", None, None)], ["x"])
        assert write_features(tmp_path / "feats.bin", fm) == tmp_path / "feats.bin"
        assert [p.name for p in tmp_path.iterdir()] == ["feats.bin"]
        assert (tmp_path / "feats.bin").read_bytes()[:4] == FEATURES_MAGIC

    def test_file_bytes_are_pinned(self, tmp_path):
        fm = FeatureMatrix(np.array([[0.5, -1.0], [2.0, 1e-3]]),
                           [("C0001", None, None), ("C0002", 7, 3)], ["dq_c0_v0", "dq_c0_v1"])
        path = write_features(tmp_path / "feats.bin", fm)
        assert b"col_names" not in path.read_bytes() and b"dq_c0" not in path.read_bytes()
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "42e8ebcca08ba1de6d4a7551a0ed4f4c0d7f20868eeb045a6b4a9b869e903241")

    def test_older_files_with_column_names_read_the_same(self, tmp_path):
        path = write_container(tmp_path / "old.bin", FEATURES_MAGIC,
                               {"col_names": ["x", "y"], "row_keys": [["a", None, None]]},
                               [("values", np.array([[1.0, 2.0]]))])
        values, keys = read_features(path)
        assert values.tolist() == [[1.0, 2.0]] and keys == [("a", None, None)]

    @pytest.mark.parametrize("header, blocks, match", [
        ({}, [("values", np.zeros((1, 1)))], "needs 'row_keys'"),
        ({"row_keys": "a"}, [("values", np.zeros((1, 1)))], "needs 'row_keys'"),
        ({"col_names": ["x"], "row_keys": None}, [("values", np.zeros((1, 1)))], "needs 'row_keys'"),
        ({"row_keys": ["a"]}, [("values", np.zeros((1, 1)))], "needs 'row_keys'"),
        ({"col_names": ["x"], "row_keys": [["a"]]}, [("values", np.zeros((2, 1)))], "shape"),
        ({"col_names": ["x"], "row_keys": [["a"]]}, [("values", np.zeros(1))], "shape"),
        ({"col_names": ["x"], "row_keys": [["a"]]}, [], "shape"),
        ({"col_names": ["x"], "row_keys": [["a"]]},
         [("values", np.zeros((1, 1))), ("more", np.zeros(1))], "shape"),
    ])
    def test_malformed_file_rejected(self, tmp_path, header, blocks, match):
        path = write_container(tmp_path / "feats.bin", FEATURES_MAGIC, header, blocks)
        with pytest.raises(CheckpointError, match=match) as info:
            read_features(path)
        assert str(path) in str(info.value)

    def test_truncated_and_missing_files_rejected(self, tmp_path):
        fm = FeatureMatrix(np.ones((2, 1)), [("a", None, None), ("b", None, None)], ["x"])
        path = write_features(tmp_path / "feats.bin", fm)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(CheckpointError, match=re.escape(f"{path}: truncated")):
            read_features(path)
        with pytest.raises(CheckpointError, match=re.escape(f"{tmp_path / 'other.bin'}: cannot read")):
            read_features(tmp_path / "other.bin")

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="2-D"):
            FeatureMatrix(np.zeros(3), [("a",)] * 3, ["x"])
        with pytest.raises(ValueError, match="row"):
            FeatureMatrix(np.zeros((2, 1)), [("a",)], ["x"])
        with pytest.raises(ValueError, match="column"):
            FeatureMatrix(np.zeros((1, 2)), [("a",)], ["x"])


class TestVarianceExtractor:
    def test_matches_direct_computation(self, synth_cells):
        cell = synth_cells[0]
        fm = VarianceModelFeatureExtractor().extract([cell])
        dq = delta_q(cell, 99, 9, interp_dims=1000)
        assert fm.values[0, 0] == np.log10(max(np.var(dq), 1e-12))
        assert fm.row_keys == [(cell.cell_id, None, None)]
        assert fm.col_names == ["log10_var_delta_qdlin"]

    def test_variance_floor(self):
        # identical capacities: the difference curve is exactly zero
        cell = make_cell(caps=(1.0,) * 4)
        ex = VarianceModelFeatureExtractor(critical_cycles=(0, 1, 3), interp_dims=50)
        assert ex.extract([cell]).values[0, 0] == -12.0

    def test_requires_enough_cycles(self):
        with pytest.raises(FeatureError, match="needs >= 100"):
            VarianceModelFeatureExtractor().extract([make_cell(caps=(1.0, 0.9))])

    def test_critical_cycles_must_be_three(self):
        with pytest.raises(ValueError, match="three"):
            VarianceModelFeatureExtractor(critical_cycles=(9, 99))

    def test_observed_cycles_budget_enforced_at_construction(self):
        for make in (
            lambda: VarianceModelFeatureExtractor(observed_cycles=50),
            # the temperature integral and resistance rise read cycles 2-99
            lambda: FullModelFeatureExtractor(critical_cycles=[2, 9, 40], observed_cycles=50),
        ):
            with pytest.raises(FeatureError, match=r"cycle indices \[99\] exceed the observed-cycle budget"):
                make()
        VarianceModelFeatureExtractor(observed_cycles=100)  # index 99 fits
        FullModelFeatureExtractor(observed_cycles=100)

    def test_empty_corpus(self):
        with pytest.raises(FeatureError, match="no cells"):
            VarianceModelFeatureExtractor().extract([])


class TestDischargeExtractor:
    def test_capacity_features_are_exact(self):
        caps = (1.0, 1.04, 1.02, 0.9)
        cell = make_cell(caps=caps)
        ex = DischargeModelFeatureExtractor(critical_cycles=(0, 1, 3), interp_dims=64)
        row = ex.extract([cell]).values[0]
        assert len(row) == 6
        assert row[4] == caps[0]
        assert row[5] == pytest.approx(max(caps) - caps[0], abs=1e-12)

    def test_degenerate_difference_sanitizes_to_zero(self):
        cell = make_cell(caps=(1.0,) * 4)
        ex = DischargeModelFeatureExtractor(critical_cycles=(0, 1, 3), interp_dims=64)
        row = ex.extract([cell]).values[0]
        # log10(0) and 0/0 moments sanitize to 0.0
        np.testing.assert_array_equal(row[:4], 0.0)


class TestFullExtractor:
    def test_missing_signals_sanitize_to_zero(self):
        cell = make_cell(caps=tuple(1.0 - 0.001 * i for i in range(100)))
        ex = FullModelFeatureExtractor()
        row = ex.extract([cell]).values[0]
        assert len(row) == 9
        assert row[6] == 180.0  # 4 charge samples spaced 60 s apart
        assert row[7] == 0.0  # no temperature record
        assert row[8] == 0.0  # no internal resistance record

    def test_full_signals_all_finite(self, synth_cells):
        fm = FullModelFeatureExtractor().extract(synth_cells[:3])
        assert fm.values.shape == (3, 9)
        assert np.all(np.isfinite(fm.values))
        assert np.all(fm.values[:, 6] > 0)  # charge takes time
        assert np.all(fm.values[:, 7] != 0)  # temperature integral present


class TestMatrixExtractor:
    def test_matrix_shape_and_base_row(self, synth_cells):
        ex = VoltageCapacityMatrixFeatureExtractor(
            interp_dims=20, diff_base=3, max_cycle_index=9, cycles_to_keep=10
        )
        m = ex.matrix(synth_cells[0])
        assert m.shape == (10, 20)
        np.testing.assert_array_equal(m[3], 0.0)  # the base cycle minus itself

    def test_flattened_row_and_names(self, synth_cells):
        ex = VoltageCapacityMatrixFeatureExtractor(
            interp_dims=5, diff_base=0, max_cycle_index=3, cycles_to_keep=4
        )
        fm = ex.extract(synth_cells[:2])
        assert fm.values.shape == (2, 20)
        assert fm.col_names[0] == "dq_c0_v0"
        assert fm.col_names[-1] == "dq_c3_v4"

    def test_keep_caps_row_count(self):
        ex = VoltageCapacityMatrixFeatureExtractor(
            interp_dims=4, diff_base=0, max_cycle_index=9, cycles_to_keep=3
        )
        assert ex.row_indices == [0, 1, 2]

    def test_linear_cells_give_scaled_profiles(self):
        cell = make_cell(caps=(1.0, 0.9, 0.8), n_dis=8)
        ex = VoltageCapacityMatrixFeatureExtractor(
            interp_dims=9, diff_base=0, max_cycle_index=2, cycles_to_keep=3
        )
        m = ex.matrix(cell)
        # rows scale with the capacity offset against the base cycle
        np.testing.assert_allclose(m[2], 2.0 * m[1], atol=1e-9)

    def test_observed_budget(self):
        with pytest.raises(FeatureError, match="observed-cycle budget"):
            VoltageCapacityMatrixFeatureExtractor(
                interp_dims=4, diff_base=9, max_cycle_index=99, observed_cycles=50
            )


class TestSOHCycleExtractor:
    def test_feature_values(self):
        caps = (1.6, 1.2)
        cell = make_cell("sc", caps=caps, nominal=2.0)
        fm = SOHCycleFeatureExtractor().extract([cell])
        assert fm.values.shape == (2, 6)
        v0 = np.asarray(cell.cycle_data[0].voltage_in_V)
        row0 = fm.values[0]
        assert row0[0] == caps[0] / 2.0
        assert row0[1] == pytest.approx(v0.mean(), abs=1e-12)
        assert row0[2] == v0.min() and row0[3] == v0.max()
        assert row0[4] == pytest.approx(caps[0] / (caps[0] + COULOMBIC_EPS), abs=1e-12)
        assert row0[5] == 1.0
        assert fm.row_keys == [("sc", 1, None), ("sc", 2, None)]

    def test_direct_function_matches_extractor(self):
        cell = make_cell(caps=(1.0, 0.9))
        fm = SOHCycleFeatureExtractor().extract([cell])
        np.testing.assert_array_equal(fm.values[1], soh_cycle_features(cell, 1))

    def test_max_cycle_index_cap(self):
        cell = make_cell(caps=(1.0, 0.9, 0.8))
        fm = SOHCycleFeatureExtractor(max_cycle_index=1).extract([cell])
        assert fm.values.shape[0] == 2

    def test_observed_cycles_cap(self):
        cell = make_cell(caps=(1.0, 0.9, 0.8))
        fm = SOHCycleFeatureExtractor(observed_cycles=2).extract([cell])
        assert fm.values.shape[0] == 2

    def test_bad_cycle_index(self):
        with pytest.raises(FeatureError, match="out of range"):
            soh_cycle_features(make_cell(caps=(1.0,)), 3)


class TestSOCStepExtractor:
    def test_shapes_keys_and_first_cycle_flag(self):
        cell = make_cell("soc", caps=(1.0, 0.9), n_dis=6)
        ex = SOCStepFeatureExtractor(n_qdlin=8)
        fm = ex.extract([cell])
        n_pts = len(cell.cycle_data[0].time_in_s)
        assert fm.values.shape == (2 * n_pts, 3 + 8 + 1)
        assert len(fm.col_names) == 12
        # first cycle: zero-filled history, flag on
        np.testing.assert_array_equal(fm.values[:n_pts, 3:11], 0.0)
        np.testing.assert_array_equal(fm.values[:n_pts, 11], 1.0)
        # second cycle: history equals the first cycle's qdlinear curve
        from cellforge.features import qdlinear as qd

        prev = qd(cell.cycle_data[0], V_MIN, V_MAX, 8)
        np.testing.assert_array_equal(fm.values[n_pts:, 3:11], np.tile(prev, (n_pts, 1)))
        np.testing.assert_array_equal(fm.values[n_pts:, 11], 0.0)
        assert fm.row_keys[0] == ("soc", 1, 0)
        assert fm.row_keys[-1] == ("soc", 2, n_pts - 1)

    @pytest.mark.parametrize("extractor", [SOHCycleFeatureExtractor, SOCStepFeatureExtractor])
    def test_cell_without_cycles_is_a_feature_error(self, extractor):
        # the step extractor raised numpy's "need at least one array to concatenate"
        with pytest.raises(FeatureError, match="^empty: no cycles$"):
            extractor().process_cell(make_cell("empty", caps=()))

    def test_elapsed_time_starts_at_zero(self):
        cell = make_cell(caps=(1.0,))
        fm = SOCStepFeatureExtractor(n_qdlin=4).extract([cell])
        assert fm.values[0, 2] == 0.0
        assert np.all(np.diff(fm.values[:, 2]) > 0)


class TestFadeSlopeExtractor:
    def test_exact_slope_on_linear_fade(self):
        caps = tuple(1.0 - 0.001 * i for i in range(30))
        cell = make_cell(caps=caps, nominal=1.0)
        ex = CapacityFadeSlopeFeatureExtractor(first_cycle=2, last_cycle=29)
        slope = ex.extract([cell]).values[0, 0]
        assert slope == pytest.approx(-0.1, abs=1e-9)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            CapacityFadeSlopeFeatureExtractor(first_cycle=5, last_cycle=5)

    def test_requires_cycles(self):
        ex = CapacityFadeSlopeFeatureExtractor(first_cycle=0, last_cycle=9)
        with pytest.raises(FeatureError, match="needs >= 10"):
            ex.extract([make_cell(caps=(1.0, 0.9))])

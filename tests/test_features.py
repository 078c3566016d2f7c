"""Feature extraction: interpolation oracles, extractors, persistence."""

import ast
import dataclasses
import hashlib
import re
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import cellforge
from cellforge.battery_data import CellRecord, CycleData, CycleRecord, validate, write_container
from cellforge.container import Coded, stored_form
from cellforge.errors import CheckpointError, FeatureError, ValidationError
from cellforge.features import (
    COULOMBIC_EPS,
    CapacityFadeSlopeFeatureExtractor,
    DischargeModelFeatureExtractor,
    FeatureMatrix,
    FullModelFeatureExtractor,
    RowKeys,
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
from cellforge.pipeline import FEATURES_MAGIC, read_features, run_train, write_features
from cellforge.registry import FEATURES
from conftest import V_MAX, V_MIN, linear_cycle, make_cell

SPAN = V_MAX - V_MIN


def train_under_budget(cells, workspace, budget, feature, label=None):
    """``run_train`` of the ``feature`` section on ``cells``, the last two of
    them the test cells, under a split whose metadata sets ``observed_cycles``
    to ``budget``."""
    ids = [cell.cell_id for cell in cells]
    return run_train({
        "train_test_split": {"name": "ExplicitTrainTestSplitter", "train_ids": ids[:-2],
                             "test_ids": ids[-2:], "metadata": {"observed_cycles": budget}},
        "feature": feature,
        "feature_transformation": {"name": "ZScoreDataTransformation"},
        "label": label or {"name": "RULLabelAnnotator"},
        "label_transformation": {"name": "ZScoreDataTransformation"},
        "model": {"name": "RidgeRegressor"},
        "seeds": [0],
    }, workspace=workspace, cells=cells)


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

    def test_internal_resistance_needs_two_samples(self):
        cyc = CycleRecord(cycle_number=3, voltage_in_V=[3.5], current_in_A=[1.0], charge_capacity_in_Ah=[0.0],
                          discharge_capacity_in_Ah=[0.0], time_in_s=[0.0])
        with pytest.raises(FeatureError, match=r"^cycle 3: need >= 2 samples$"):
            estimate_internal_resistance(cyc)

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
    """The stored test features: their values alone, without row keys (the
    prediction rows of report.json hold them) or column names."""

    def test_save_load_round_trip(self, tmp_path):
        values = np.array([[1.5, -2.25], [0.0, 3.125]])
        loaded = read_features(write_features(tmp_path / "feats.bin", values))
        assert loaded.tobytes() == values.tobytes() and loaded.shape == (2, 2)

    def test_saved_as_one_container_file(self, tmp_path):
        assert write_features(tmp_path / "feats.bin", np.zeros((1, 1))) == tmp_path / "feats.bin"
        assert [p.name for p in tmp_path.iterdir()] == ["feats.bin"]
        assert (tmp_path / "feats.bin").read_bytes()[:4] == FEATURES_MAGIC

    def test_file_bytes_are_pinned(self, tmp_path):
        path = write_features(tmp_path / "feats.bin", np.array([[0.5, -1.0], [2.0, 1e-3]]))
        length = int.from_bytes(path.read_bytes()[4:8], "little")
        assert path.read_bytes()[8:8 + length] == b'{"blocks": [{"name": "values", "shape": [2, 2]}]}'
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "af4e98ebf48f3fedf1096f43e4ab2930fc29e69b24c94b3f6fcec5ef46891872")

    def test_deflated_file_bytes_are_pinned(self, tmp_path):
        values = np.tile([[0.5, -1.0], [2.0, 1e-3]], (4, 1))
        data = write_features(tmp_path / "feats.bin", values).read_bytes()
        assert hashlib.sha256(data).hexdigest() == (
            "c732a827bf2e4b7e8f115cd4363c30241fb2c34fdb69eea62d295ee4e17d373f")
        # the inflated blocks are the bytes that files stored before they were deflated
        length = int.from_bytes(data[4:8], "little")
        assert data[8:8 + length] == b'{"blocks": [{"name": "values", "shape": [8, 2]}], "deflate": true}'
        assert hashlib.sha256(zlib.decompress(data[8 + length:])).hexdigest() == (
            "a227864234773ba6d6d0d1024715d1be3fa067be33febd703d88b6a50d82c439")
        assert read_features(tmp_path / "feats.bin").tobytes() == values.tobytes()

    def test_older_files_with_column_names_are_refused(self, tmp_path):
        # older versions stored the column names and row keys next to the values
        path = write_container(tmp_path / "old.bin", FEATURES_MAGIC,
                               {"col_names": ["x", "y"], "row_keys": [["a", None, None]]},
                               [("values", np.array([[1.0, 2.0]]))])
        with pytest.raises(CheckpointError, match=re.escape(
                f"{path}: an older layout, whose header holds ['col_names', 'row_keys']; "
                "train the checkpoint again")):
            read_features(path)

    @pytest.mark.parametrize("header, blocks, match", [
        ({"row_keys": [["a", None, None]]}, [("values", np.zeros((1, 1)))], "train the checkpoint again"),
        ({"col_names": ["x"]}, [("values", np.zeros((1, 1)))], "train the checkpoint again"),
        ({"values": [[0.0]]}, [("values", np.zeros((1, 1)))], "train the checkpoint again"),
        ({}, [("values", np.zeros(1))], "shape"),
        ({}, [("values", np.zeros((1, 1, 1)))], "shape"),
        ({}, [], "shape"),
        ({}, [("rows", np.zeros((1, 1)))], "shape"),
        ({}, [("values", np.zeros((1, 1))), ("more", np.zeros(1))], "shape"),
    ], ids=["row_keys", "col_names", "other-key", "1-D", "3-D", "no-block", "misnamed", "two-blocks"])
    def test_malformed_file_rejected(self, tmp_path, header, blocks, match):
        path = write_container(tmp_path / "feats.bin", FEATURES_MAGIC, header, blocks)
        with pytest.raises(CheckpointError, match=match) as info:
            read_features(path)
        assert str(path) in str(info.value)

    def test_truncated_and_missing_files_rejected(self, tmp_path):
        path = write_features(tmp_path / "feats.bin", np.ones((2, 1)))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(CheckpointError, match=re.escape(f"{path}: truncated")):
            read_features(path)
        with pytest.raises(CheckpointError, match=re.escape(f"{tmp_path / 'other.bin'}: cannot read")):
            read_features(tmp_path / "other.bin")

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="2-D"):
            FeatureMatrix(np.zeros(3), RowKeys([["a", 3]]), ["x"])
        with pytest.raises(ValueError, match="row"):
            FeatureMatrix(np.zeros((2, 1)), RowKeys([["a", 1]]), ["x"])
        with pytest.raises(ValueError, match="column"):
            FeatureMatrix(np.zeros((1, 2)), RowKeys([["a", 1]]), ["x"])
        with pytest.raises(ValueError, match="one RowKeys"):  # the one form of row keys
            FeatureMatrix(np.zeros((1, 1)), [("a", None, None)], ["x"])


class TestVarianceExtractor:
    def test_matches_direct_computation(self, synth_cells):
        cell = synth_cells[0]
        fm = VarianceModelFeatureExtractor().extract([cell])
        dq = delta_q(cell, 99, 9, interp_dims=1000)
        assert fm.values[0, 0] == np.log10(max(np.var(dq), 1e-12))
        assert fm.row_keys == RowKeys([[cell.cell_id, 1]])
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

    def test_observed_cycles_budget_enforced_by_the_pipeline(self, synth_cells, tmp_path):
        variance = {"name": "VarianceModelFeatureExtractor", "interp_dims": 16}
        full = {"name": "FullModelFeatureExtractor", "interp_dims": 16}
        # the temperature integral and resistance rise read cycles 2-99
        for feature in (variance, {**full, "critical_cycles": [2, 9, 40]}):
            with pytest.raises(FeatureError, match=f"^{feature['name']}: reads the first 100 cycles, "
                                                   "past the observed-cycle budget of 50$"):
                train_under_budget(synth_cells[:4], tmp_path, 50, feature)
        for feature in (variance, full):  # index 99 fits
            train_under_budget(synth_cells[:4], tmp_path, 100, feature)

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

    def test_a_capacity_cycle_past_the_late_cycle(self):
        # the capacities stopped at the late cycle, so indexing the capacity cycle raised IndexError
        caps = (1.0, 1.04, 1.02, 0.9)
        ex = DischargeModelFeatureExtractor(critical_cycles=(3, 1, 2), interp_dims=64)
        row = ex.extract([make_cell(caps=caps)]).values[0]
        assert row[4] == caps[3] and row[5] == pytest.approx(max(caps) - caps[3], abs=1e-12)

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

    def test_names_are_built_when_read_and_list_every_column(self, synth_cells):
        ex = VoltageCapacityMatrixFeatureExtractor(
            interp_dims=3, diff_base=0, max_cycle_index=1, cycles_to_keep=2
        )
        assert "col_names" not in vars(ex)
        fm = ex.extract(synth_cells[:1])
        assert fm.col_names == ["dq_c0_v0", "dq_c0_v1", "dq_c0_v2", "dq_c1_v0", "dq_c1_v1", "dq_c1_v2"]
        assert fm.values.shape == (1, 6)

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

    def test_observed_budget(self, synth_cells, tmp_path):
        feature = {"name": "VoltageCapacityMatrixFeatureExtractor", "interp_dims": 4, "diff_base": 9,
                   "max_cycle_index": 99}
        with pytest.raises(FeatureError, match="observed-cycle budget of 50$"):
            train_under_budget(synth_cells[:4], tmp_path, 50, feature)


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
        assert fm.row_keys == RowKeys([["sc", 2]], [1, 2])

    def test_direct_function_matches_extractor(self):
        cell = make_cell(caps=(1.0, 0.9))
        fm = SOHCycleFeatureExtractor().extract([cell])
        np.testing.assert_array_equal(fm.values[1], soh_cycle_features(cell, 1))

    def test_max_cycle_index_cap(self):
        cell = make_cell(caps=(1.0, 0.9, 0.8))
        fm = SOHCycleFeatureExtractor(max_cycle_index=1).extract([cell])
        assert fm.values.shape[0] == 2

    def test_observed_cycles_cap(self, synth_cells, tmp_path):
        cells = synth_cells[:4]
        report = train_under_budget(cells, tmp_path, 2, {"name": "SOHCycleFeatureExtractor"},
                                    {"name": "SOHLabelAnnotator"}).report
        numbers = [c.cycle_data.cycle_number[:2].tolist() for c in cells[-2:]]
        assert report["predictions"]["cell_id"] == [[c.cell_id, 2] for c in cells[-2:]]
        assert report["predictions"]["cycle"] == numbers[0] + numbers[1]

    def test_bad_cycle_index(self):
        with pytest.raises(FeatureError, match="out of range"):
            soh_cycle_features(make_cell(caps=(1.0,)), 3)

    def test_a_cell_without_cycles(self):
        cell = dataclasses.replace(make_cell("NONE"), cycle_data=())
        with pytest.raises(FeatureError, match="^NONE: no cycles$"):
            soh_cycle_features(cell, 0)
        with pytest.raises(FeatureError, match="^NONE: no cycles$"):
            SOHCycleFeatureExtractor().extract([cell])

    @pytest.mark.parametrize("empty", [
        CycleRecord(cycle_number=2),
        dataclasses.replace(linear_cycle(2), discharge_capacity_in_Ah=[]),
    ], ids=["every-signal", "discharge-capacity"])
    def test_a_cycle_without_capacities_is_named(self, empty):
        # one FeatureError, before the charge maxima's ValueError that names no cycle;
        # a cycle whose other signals have values is refused when its cell is built
        if empty.time_in_s.size:
            with pytest.raises(ValidationError, match=re.escape(
                    "cycle_data[1]: mandatory sequences differ in length: {'voltage_in_V': 12, "
                    "'current_in_A': 12, 'charge_capacity_in_Ah': 12, 'discharge_capacity_in_Ah': 0, "
                    "'time_in_s': 12}")):
                dataclasses.replace(make_cell("EMPTY"), cycle_data=(linear_cycle(1), empty))
            return
        cell = dataclasses.replace(make_cell("EMPTY"), cycle_data=(linear_cycle(1), empty))
        with pytest.raises(FeatureError, match="^cycle 2: empty capacity sequences$"):
            soh_cycle_features(cell, 1)
        with pytest.raises(FeatureError, match="^cycle 2: empty capacity sequences$"):
            SOHCycleFeatureExtractor().extract([cell])


def per_cycle_step_block(extractor, cell):
    """The reference: the SOC step block built one cycle view at a time."""
    cycles = extractor._cycles(cell)
    if len(cycles) > 1:
        lo, hi = voltage_bounds(cell, extractor.v_min, extractor.v_max)
    blocks = []
    for idx in range(len(cycles)):
        cyc = cycles[idx]
        t = np.asarray(cyc.time_in_s)
        if idx == 0:
            prev, flag = np.zeros(extractor.n_qdlin), 1.0
        else:
            prev, flag = qdlinear(cycles[idx - 1], lo, hi, extractor.n_qdlin), 0.0
        blocks.append(np.column_stack([cyc.current_in_A, cyc.voltage_in_V, t - t[0],
                                       np.tile(prev, (len(t), 1)), np.full(len(t), flag)]))
    return sanitize(np.vstack(blocks))


@st.composite
def step_cells(draw):
    """Cells of 1 to 6 cycles of 2 to 12 points, charge then discharge; some
    hold a non-finite current, voltage or time, and half of them hold every
    column as a cell file stores it, the smooth ones as second differences."""
    cycles = []
    for number in range(1, draw(st.integers(1, 6)) + 1):
        n = draw(st.integers(2, 12))
        n_charge = draw(st.integers(0, n - 2))
        ramp = np.arange(n, dtype=float) / (n - 1)
        signals = {
            "voltage_in_V": np.r_[np.linspace(2.5, 3.6, n_charge), np.linspace(3.5, 2.1, n - n_charge)],
            "current_in_A": np.r_[np.ones(n_charge), -np.ones(n - n_charge)],
            "charge_capacity_in_Ah": ramp * draw(st.floats(0.5, 1.5)),
            "discharge_capacity_in_Ah": ramp * draw(st.floats(0.5, 1.5)),
            "time_in_s": 60.0 * np.arange(n) + draw(st.floats(0.0, 1e4)),
        }
        if draw(st.booleans()):
            name = draw(st.sampled_from(["voltage_in_V", "current_in_A", "time_in_s"]))
            signals[name][draw(st.integers(0, n - 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        cycles.append(CycleRecord(cycle_number=number, **signals))
    cell = CellRecord("STEPS", 1.0, cycle_data=cycles, min_voltage_limit_in_V=V_MIN,
                      max_voltage_limit_in_V=V_MAX)
    if draw(st.booleans()):
        data = cell.cycle_data
        columns = {name: stored_form(data.columns[name]) for name in data.columns}
        event(f"{sum(isinstance(column, Coded) for column in columns.values())} coded columns")
        cell = dataclasses.replace(cell, cycle_data=CycleData(
            data.cycle_number, columns, data.offsets["time_in_s"], has_temperature=data.has_temperature,
            copy=False))
    return cell


class TestSOCStepExtractor:
    def test_names_are_built_when_read_and_list_every_column(self):
        ex = SOCStepFeatureExtractor(n_qdlin=2)
        assert "col_names" not in vars(ex)
        fm = ex.extract([make_cell("soc", caps=(1.0, 0.9), n_dis=6)])
        assert fm.col_names == ["current_in_A", "voltage_in_V", "elapsed_time_s",
                                "prev_qdlin_00", "prev_qdlin_01", "prev_qdlin_zero_filled"]
        assert fm.values.shape[1] == 6

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
        assert fm.row_keys == RowKeys([["soc", 2 * n_pts]], [1] * n_pts + [2] * n_pts,
                                      [*range(n_pts), *range(n_pts)])

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

    @pytest.mark.parametrize("at", [1, 2], ids=["middle", "last"])
    def test_a_cycle_without_points_is_a_feature_error(self, at):
        # a cycle of no points has no start time to subtract
        cycles = [linear_cycle(1), linear_cycle(2), linear_cycle(3)]
        cycles[at] = CycleRecord(cycle_number=at + 1)
        cell = dataclasses.replace(make_cell("holed"), cycle_data=cycles)
        with pytest.raises(FeatureError, match=f"^cycle {at + 1}: no points$"):
            SOCStepFeatureExtractor(n_qdlin=4).extract([cell])

    @settings(max_examples=200, deadline=None)
    @given(cell=step_cells(), n_qdlin=st.integers(2, 6), max_cycle_index=st.none() | st.integers(0, 5))
    def test_the_step_block_equals_the_per_cycle_loop(self, cell, n_qdlin, max_cycle_index):
        extractor = SOCStepFeatureExtractor(n_qdlin=n_qdlin, max_cycle_index=max_cycle_index)
        h = extractor.horizon or len(cell.cycle_data)
        try:
            with np.errstate(invalid="ignore"):  # inf - inf in the reference, where a time is infinite
                want = per_cycle_step_block(extractor, cell.head(h))
        except FeatureError as exc:
            with pytest.raises(FeatureError, match=f"^{re.escape(str(exc))}$"):
                extractor.process_cell(cell.head(h))
            return
        got, keys = extractor.process_cell(cell.head(h))  # with no warning
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        head = cell.head(h).cycle_data
        assert keys == RowKeys.steps(cell.cell_id, head.cycle_number, np.diff(head.offsets["time_in_s"]))


@pytest.mark.parametrize("extractor, width", [
    (VoltageCapacityMatrixFeatureExtractor, "interp_dims"),
    (SOCStepFeatureExtractor, "n_qdlin"),
])
def test_a_huge_width_builds_no_column_names_at_construction(extractor, width, capped_address_space):
    # the names are built when read; 2**47 columns are refused at their first array
    tracemalloc.start()
    try:
        ex = extractor(**{width: 2**47})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert getattr(ex, width) == 2**47 and peak < 2**20


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


# Every registered extractor with parameters that set its horizon below the
# test cells' length, and that horizon: the number of leading cycles it reads.
HORIZONS = {
    "VarianceModelFeatureExtractor": ({"interp_dims": 16, "critical_cycles": (2, 9, 19)}, 20),
    "DischargeModelFeatureExtractor": ({"interp_dims": 16, "critical_cycles": (2, 19, 9)}, 20),
    # the charge time and temperature integral read cycles 2-6 and 2-99 whatever critical_cycles says
    "FullModelFeatureExtractor": ({"interp_dims": 16, "critical_cycles": (2, 9, 19)}, 100),
    "VoltageCapacityMatrixFeatureExtractor": (
        {"interp_dims": 4, "diff_base": 12, "max_cycle_index": 9, "cycles_to_keep": 10}, 13),
    "SOHCycleFeatureExtractor": ({"max_cycle_index": 9}, 10),
    "SOCStepFeatureExtractor": ({"n_qdlin": 4, "max_cycle_index": 9}, 10),
    "CapacityFadeSlopeFeatureExtractor": ({"first_cycle": 2, "last_cycle": 29}, 30),
}

# A change to each signal that keeps a cycle valid: capacities stay
# non-decreasing and times strictly increasing.
_EDITS = {
    "voltage_in_V": lambda v: v + 0.01,
    "current_in_A": lambda i: 1.5 * i,
    "charge_capacity_in_Ah": lambda q: 0.9 * q,
    "discharge_capacity_in_Ah": lambda q: 0.9 * q,
    "time_in_s": lambda t: t + 7.0,
    "temperature_in_C": lambda t: t + 1.0,
}


def edited_from(cell, h):
    """``cell`` with every signal of its cycles ``h`` onwards changed."""
    cycles = cell.cycle_data
    columns = {}
    for name, edit in _EDITS.items():
        column, start = np.array(cycles.columns[name]), cycles.offsets[name][h]
        column[start:] = edit(column[start:])
        columns[name] = column
    resistance = cycles.internal_resistance_in_ohm.copy()
    resistance[h:] *= 2.0
    return dataclasses.replace(cell, cycle_data=CycleData(
        cycles.cycle_number, columns, cycles.offsets["time_in_s"], has_temperature=cycles.has_temperature,
        internal_resistance_in_ohm=resistance, has_internal_resistance=cycles.has_internal_resistance,
        extra=cycles.extra))


class TestHorizon:
    def test_every_registered_extractor_is_covered(self):
        assert set(HORIZONS) == set(FEATURES.names())

    @pytest.mark.parametrize("name", sorted(HORIZONS))
    def test_cycles_past_the_horizon_change_no_feature(self, name, synth_cells):
        # the leakage oracle: what an extractor is never given cannot reach its features
        params, h = HORIZONS[name]
        extractor = FEATURES.create(name, **params)
        assert extractor.horizon == h
        cell = synth_cells[0]
        edited = edited_from(cell, h)
        assert validate(edited) == [] and edited != cell
        assert edited.cycle_data.head(h) == cell.cycle_data.head(h)
        for signal, column in cell.cycle_data.columns.items():
            start = cell.cycle_data.offsets[signal][h]
            assert not np.array_equal(edited.cycle_data.columns[signal][start:], column[start:])
        truncated = dataclasses.replace(cell, cycle_data=cell.cycle_data[:h])
        expected = extractor.extract([cell])
        for other in (edited, truncated):
            got = extractor.extract([other])
            assert got.values.tobytes() == expected.values.tobytes()
            assert got.row_keys == expected.row_keys

    @pytest.mark.parametrize("name", sorted(HORIZONS))
    def test_process_cell_is_given_the_cycles_of_the_horizon_alone(self, name, synth_cells):
        params, h = HORIZONS[name]
        extractor = FEATURES.create(name, **params)
        given = []

        def spy(cell, process_cell=extractor.process_cell):
            given.append(len(cell.cycle_data))
            return process_cell(cell)

        extractor.process_cell = spy
        cell = synth_cells[0]
        short = dataclasses.replace(cell, cycle_data=cell.cycle_data[: h - 1])
        extractor.extract([cell])
        if extractor.fixed_horizon:
            with pytest.raises(FeatureError, match=f"^{cell.cell_id}: needs >= {h} cycles, has {h - 1}$"):
                extractor.extract([short])
            assert given == [h]
        else:  # a per-cycle extractor takes what cycles a shorter cell has
            extractor.extract([short])
            assert given == [h, h - 1]

    @pytest.mark.parametrize("feature, label", [
        ({"name": "SOHCycleFeatureExtractor"}, {"name": "SOHLabelAnnotator"}),
        ({"name": "SOCStepFeatureExtractor", "n_qdlin": 4}, {"name": "SOCLabelAnnotator"}),
    ], ids=["SOHCycleFeatureExtractor", "SOCStepFeatureExtractor"])
    def test_a_per_cycle_horizon_is_cut_to_the_observed_cycles(self, feature, label, synth_cells,
                                                                 tmp_path):
        # the rows stop at min(horizon, budget), and the horizon itself stays as built
        cells = synth_cells[:4]
        cases = [(None, None, 5, 5), (9, 10, 50, 10), (99, 100, 50, 50)]
        for max_cycle_index, horizon, budget, rows in cases:
            section = {**feature, "max_cycle_index": max_cycle_index}
            assert FEATURES.create(**section).horizon == horizon
            report = train_under_budget(cells, tmp_path, budget, section, label).report
            assert sorted(set(report["predictions"]["cycle"])) == list(range(1, rows + 1))

    def test_only_extract_calls_process_cell(self):
        # extract hands process_cell the cell's head; any other caller could hand it the whole cell
        src = Path(cellforge.__file__).parent
        found = [f"{path.relative_to(src)}:{line} in {owner}"
                 for path in sorted(src.rglob("*.py"))
                 for owner, line in process_cell_uses(path.read_text(encoding="utf-8"))
                 if owner != "BaseFeatureExtractor.extract"]
        assert found == []

    @pytest.mark.parametrize("source, uses", [
        ("class A:\n    def f(self, c):\n        return self.process_cell(c)\n", [("A.f", 3)]),
        ("def f(ex, c):\n    g = ex.process_cell\n    return g(c)\n", [("f", 2)]),
        ("class A:\n    def process_cell(self, c):\n        return c\n", []),
    ])
    def test_guard_recognises_uses(self, source, uses):
        assert process_cell_uses(source) == uses


def process_cell_uses(source: str) -> list[tuple[str, int]]:
    """(enclosing class and function, line) of each use of an attribute
    named ``process_cell`` in ``source``; defining one is not a use."""
    uses = []

    def visit(node, owner):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = f"{owner}.{node.name}" if owner else node.name
        if isinstance(node, ast.Attribute) and node.attr == "process_cell":
            uses.append((owner, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "")
    return uses

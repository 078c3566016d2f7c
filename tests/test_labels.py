"""SOH, RUL, and SOC label definitions and annotators."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellforge.battery_data import CellRecord, CycleRecord, validate
from cellforge.errors import CellforgeError, LabelError, ThresholdNotReached
from cellforge.features import RowKeys
from cellforge.labels import (
    LabelSpec,
    LabelVector,
    RULLabelAnnotator,
    SOCLabelAnnotator,
    SOHLabelAnnotator,
    moving_median,
    rul_label,
    soc_per_step,
    soh_per_cycle,
)
from conftest import linear_cycle, make_cell


def cell_with_soh(percents, nominal=2.0, cell_id="SOH_CELL"):
    caps = [nominal * p / 100.0 for p in percents]
    return make_cell(cell_id, caps=caps, nominal=nominal)


def soc_cycle(qc, qd, number=1):
    n = len(qc)
    return CycleRecord(
        cycle_number=number,
        voltage_in_V=np.linspace(3.6, 2.0, n),
        current_in_A=np.where(np.diff(qd, prepend=qd[0]) > 0, -1.0, 1.0),
        charge_capacity_in_Ah=qc,
        discharge_capacity_in_Ah=qd,
        time_in_s=np.arange(n, dtype=float),
    )


class TestSOH:
    def test_exact_ratio(self):
        cell = make_cell(caps=(1.8,), nominal=2.0)
        assert soh_per_cycle(cell)[0] == 90.0

    def test_per_cycle_order(self):
        cell = cell_with_soh([101.0, 95.0, 82.0])
        np.testing.assert_array_equal(soh_per_cycle(cell), [101.0, 95.0, 82.0])

    def test_uses_max_discharge_capacity(self):
        # qd already cumulative; max is the last and largest sample
        cell = make_cell(caps=(1.5,), nominal=1.5)
        assert soh_per_cycle(cell)[0] == 100.0

    def test_matches_per_cycle_max_with_uneven_cycle_lengths(self, synth_cells):
        # peaks placed first, in the middle and last, in cycles of 3, 5 and 2 points
        qd = ([2.0, 1.0, 0.5], [0.1, 0.4, 1.7, 0.2, 0.3], [0.05, 0.07])
        others = ("voltage_in_V", "current_in_A", "charge_capacity_in_Ah", "time_in_s")
        odd = dataclasses.replace(make_cell(nominal=2.0), cycle_data=tuple(
            CycleRecord(cycle_number=i + 1, discharge_capacity_in_Ah=q,
                        **{name: np.arange(len(q), dtype=float) for name in others})
            for i, q in enumerate(qd)
        ))
        for cell in [odd, *synth_cells]:
            expected = [100.0 * max(c.discharge_capacity_in_Ah.tolist()) / cell.nominal_capacity_in_Ah
                        for c in cell.cycle_data]
            np.testing.assert_array_equal(soh_per_cycle(cell), expected)

    def test_rejects_cycle_without_discharge_samples(self):
        cell = make_cell(caps=(1.0, 0.9))
        empty = CycleRecord(cycle_number=3)
        cell = dataclasses.replace(cell, cycle_data=(*cell.cycle_data, empty))
        with pytest.raises(LabelError, match="no discharge capacity samples"):
            soh_per_cycle(cell)

    def test_requires_cycles(self):
        cell = dataclasses.replace(make_cell(), cycle_data=())
        with pytest.raises(LabelError, match="no cycles"):
            soh_per_cycle(cell)

    def test_requires_positive_nominal(self):
        cell = dataclasses.replace(make_cell(), nominal_capacity_in_Ah=0.0)
        with pytest.raises(LabelError, match="nominal"):
            soh_per_cycle(cell)


class TestMovingMedian:
    def test_window_one_is_identity(self):
        x = np.array([3.0, 1.0, 2.0])
        np.testing.assert_array_equal(moving_median(x, 1), x)

    def test_window_three_with_shrinking_edges(self):
        out = moving_median(np.array([5.0, 0.0, 5.0, 5.0]), 3)
        np.testing.assert_array_equal(out, [2.5, 5.0, 5.0, 5.0])

    @pytest.mark.parametrize("window", [0, -1, 2, 4])
    def test_rejects_non_odd_windows(self, window):
        with pytest.raises(ValueError, match="odd"):
            moving_median(np.array([1.0, 2.0]), window)

    def test_removes_isolated_spike(self):
        x = np.array([90.0, 90.0, 10.0, 90.0, 90.0])
        assert moving_median(x, 3)[2] == 90.0

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(st.floats(-1e6, 1e6) | st.sampled_from([0.0, 1.0, 80.0]), max_size=40),
        window=st.sampled_from([1, 3, 5, 7, 9]),
    )
    def test_equals_the_per_position_loop(self, values, window):
        x = np.array(values, dtype=float)
        np.testing.assert_array_equal(moving_median(x, window), moving_median_loop(x, window))

    def test_equals_the_per_position_loop_on_long_series(self):
        x = np.random.default_rng(5).normal(90.0, 5.0, 1000)
        for window in (3, 9, 31):
            np.testing.assert_array_equal(moving_median(x, window), moving_median_loop(x, window))


def moving_median_loop(values, window):
    """The oracle: one median per position over the window clipped to the series."""
    half = window // 2
    out = np.empty_like(values)
    n = len(values)
    for i in range(n):
        out[i] = np.median(values[max(0, i - half) : min(n, i + half + 1)])
    return out


class TestRUL:
    def test_first_crossing_is_one_based(self):
        cell = cell_with_soh([101.0, 95.0, 85.0, 79.5, 81.0, 70.0])
        assert rul_label(cell) == 4

    def test_strictly_below_threshold(self):
        # exactly 80 does not count as end of life
        cell = cell_with_soh([90.0, 80.0, 79.0])
        assert rul_label(cell) == 3

    def test_threshold_not_reached(self):
        cell = cell_with_soh([99.0, 97.0, 95.0])
        with pytest.raises(ThresholdNotReached, match="never fell below"):
            rul_label(cell)

    def test_custom_threshold(self):
        cell = cell_with_soh([99.0, 92.0, 89.0])
        assert rul_label(cell, LabelSpec(eol_soh_percent=90.0)) == 3

    def test_smoothing_ignores_single_dip(self):
        cell = cell_with_soh([95.0, 70.0, 91.0, 85.0, 75.0, 72.0])
        assert rul_label(cell) == 2
        assert rul_label(cell, LabelSpec(smoothing_window=3)) == 5

    def test_invariant_to_cycles_after_crossing(self):
        head = [95.0, 85.0, 78.0]
        assert rul_label(cell_with_soh(head)) == 3
        assert rul_label(cell_with_soh(head + [85.0, 60.0, 95.0])) == 3

    def test_brute_force_oracle_on_synthetic_cells(self, synth_cells):
        for cell in synth_cells:
            soh = soh_per_cycle(cell)
            expected = next(i + 1 for i, s in enumerate(soh) if s < 80.0)
            assert rul_label(cell) == expected


class TestLabelSpec:
    @pytest.mark.parametrize(
        "kw",
        [
            {"eol_soh_percent": 0.0},
            {"eol_soh_percent": 100.0},
            {"smoothing_window": 2},
            {"smoothing_window": 0},
        ],
    )
    def test_rejects_bad_parameters(self, kw):
        with pytest.raises(ValueError):
            LabelSpec(**kw)


def naive_soc(qc, qd):
    """SOC percentages by clamped coulomb counting, one step at a time."""
    c_full = qd.max()
    net = qc - qd
    s = min(max(c_full + net[0], 0.0), c_full)
    naive = [s]
    for k in range(1, len(net)):
        s = min(max(s + net[k] - net[k - 1], 0.0), c_full)
        naive.append(s)
    return 100.0 * np.array(naive) / c_full


class TestSOC:
    def test_discharge_only_prefix_is_bit_exact(self):
        qd = np.array([0.0, 0.3, 0.7, 1.1, 1.3])
        qc = np.zeros(5)
        cell = dataclasses.replace(make_cell(), cycle_data=(soc_cycle(qc, qd),))
        soc = soc_per_step(cell, 0)
        c_full = qd.max()
        expected = 100.0 * (c_full - qd) / c_full
        assert np.array_equal(soc, expected)

    def test_starts_at_full_charge(self):
        qd = np.array([0.0, 0.5, 1.0])
        cell = dataclasses.replace(make_cell(), cycle_data=(soc_cycle(np.zeros(3), qd),))
        assert soc_per_step(cell, 0)[0] == 100.0

    def test_clamped_to_range(self):
        # heavy overcharge after a partial discharge
        qc = np.array([0.0, 0.0, 2.0, 2.0, 2.0])
        qd = np.array([0.0, 0.5, 0.5, 0.5, 2.0])
        cell = dataclasses.replace(make_cell(), cycle_data=(soc_cycle(qc, qd),))
        soc = soc_per_step(cell, 0)
        assert np.all(soc >= 0.0) and np.all(soc <= 100.0)
        assert soc[2] == 100.0  # overcharge clamps at full

    def test_matches_naive_clamped_coulomb_count(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(4, 30))
            qc = np.cumsum(rng.uniform(0.0, 0.4, n))
            qd = np.cumsum(rng.uniform(0.0, 0.4, n))
            qc -= qc[0]
            qd -= qd[0]
            if qd.max() <= 0:
                continue
            cell = dataclasses.replace(make_cell(), cycle_data=(soc_cycle(qc, qd),))
            soc = soc_per_step(cell, 0)
            np.testing.assert_allclose(soc, naive_soc(qc, qd), atol=1e-9)

    def test_charge_jitter_below_empty_clamps_at_zero(self):
        # a charge capacity that dips within the validation tolerance would
        # take SOC to -1e-8 % at the last step without the lower clamp
        qc = np.array([0.0, 0.0, 0.0, -1e-10])
        qd = np.array([0.0, 0.5, 1.0, 1.0])
        cell = dataclasses.replace(make_cell(), cycle_data=(soc_cycle(qc, qd),))
        validate(cell)
        soc = soc_per_step(cell, 0)
        np.testing.assert_array_equal(soc, [100.0, 50.0, 0.0, 0.0])
        np.testing.assert_array_equal(soc, naive_soc(qc, qd))

    def test_zero_discharge_cycle_rejected(self):
        cyc = soc_cycle(np.array([0.0, 0.1]), np.array([0.0, 0.0]))
        cell = dataclasses.replace(make_cell(), cycle_data=(cyc,))
        with pytest.raises(LabelError, match="zero discharge"):
            soc_per_step(cell, 0)

    def test_cycle_without_samples_rejected(self):
        cell = dataclasses.replace(make_cell(), cycle_data=(CycleRecord(cycle_number=1),))
        with pytest.raises(LabelError, match="CELL_A: cycle 1 has zero discharge"):
            soc_per_step(cell, 0)

    def test_label_error_is_a_cellforge_and_value_error(self):
        assert issubclass(LabelError, CellforgeError) and issubclass(LabelError, ValueError)

    def test_bad_cycle_index(self):
        with pytest.raises(LabelError, match="no cycle at index"):
            soc_per_step(make_cell(), 99)


class TestAnnotators:
    def test_rul_annotator_excludes_non_crossing_cells(self):
        cells = [
            cell_with_soh([95.0, 85.0, 75.0], cell_id="dies"),
            cell_with_soh([99.0, 98.0], cell_id="survives"),
        ]
        vec, excluded = RULLabelAnnotator().annotate(cells)
        assert vec.row_keys == RowKeys([["dies", 1]])
        assert vec.values.tolist() == [3.0]
        assert len(excluded) == 1
        assert excluded[0][0] == "survives"
        assert "never fell below" in excluded[0][1]

    def test_rul_annotator_threshold_parameter(self):
        cells = [cell_with_soh([95.0, 89.0], cell_id="x")]
        vec, _ = RULLabelAnnotator(eol_soh_percent=90.0).annotate(cells)
        assert vec.values.tolist() == [2.0]

    def test_soh_annotator_keys_and_values(self):
        cells = [cell_with_soh([101.0, 95.0], cell_id="a"), cell_with_soh([90.0], cell_id="b")]
        vec, excluded = SOHLabelAnnotator().annotate(cells)
        assert excluded == []
        assert vec.row_keys == RowKeys([["a", 2], ["b", 1]], [1, 2, 1])
        np.testing.assert_array_equal(vec.values, [101.0, 95.0, 90.0])

    def test_soc_annotator_keys_cover_steps(self):
        cell = make_cell("c", caps=(1.0,), n_dis=4)
        vec, _ = SOCLabelAnnotator().annotate([cell])
        n_points = len(cell.cycle_data[0].time_in_s)
        assert len(vec.values) == n_points
        assert vec.row_keys == RowKeys([["c", n_points]], [1] * n_points, range(n_points))

    def test_soc_annotator_cycle_cap(self):
        cell = make_cell("c", caps=(1.0, 0.9, 0.8))
        vec_all, _ = SOCLabelAnnotator().annotate([cell])
        vec_capped, _ = SOCLabelAnnotator(max_cycle_index=0).annotate([cell])
        assert len(vec_capped.values) == len(vec_all.values) // 3
        assert set(vec_capped.row_keys.cycle.tolist()) == {1}

    def test_label_vector_alignment_enforced(self):
        with pytest.raises(ValueError, match="align"):
            LabelVector(np.array([1.0, 2.0]), RowKeys([["a", 1]]))
        with pytest.raises(ValueError, match="one RowKeys"):  # the one form of row keys
            LabelVector(np.array([1.0]), [("a", None, None)])

"""Invertible transformations: round-trips, statistics, serialization."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from cellforge.errors import CheckpointError, TransformError
from cellforge.features import SOHCycleFeatureExtractor
from cellforge.splitters import RandomTrainTestSplitter
from cellforge.transforms import (
    ColumnwiseZScoreDataTransformation,
    LogScaleDataTransformation,
    MinMaxDataTransformation,
    SequentialDataTransformation,
    ZScoreDataTransformation,
    _Fitted,
)

ALL_CLASSES = [
    ZScoreDataTransformation,
    ColumnwiseZScoreDataTransformation,
    MinMaxDataTransformation,
    LogScaleDataTransformation,
]


def sequential():
    return SequentialDataTransformation([LogScaleDataTransformation(), ZScoreDataTransformation()])


def varied(shape=(20, 3), seed=0, positive=False):
    rng = np.random.default_rng(seed)
    x = rng.normal(5.0, 2.0, shape)
    return np.abs(x) + 0.1 if positive else x


class TestRoundTrips:
    @pytest.mark.parametrize("cls", ALL_CLASSES)
    def test_inverse_recovers_input(self, cls):
        x = varied(positive=True)
        t = cls().fit(x)
        np.testing.assert_allclose(t.inverse_transform(t.transform(x)), x, atol=1e-9)

    @pytest.mark.parametrize("cls", ALL_CLASSES)
    def test_round_trip_on_unseen_data(self, cls):
        t = cls().fit(varied(seed=1, positive=True))
        y = varied(seed=2, positive=True)
        np.testing.assert_allclose(t.inverse_transform(t.transform(y)), y, atol=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(
        x=arrays(
            np.float64,
            array_shapes(min_dims=1, max_dims=2, min_side=2, max_side=12),
            elements=st.floats(0.01, 1e6),
        )
    )
    def test_round_trip_property(self, x):
        for cls in ALL_CLASSES:
            try:
                t = cls().fit(x)
            except ValueError:
                continue  # degenerate sample for this transform
            np.testing.assert_allclose(t.inverse_transform(t.transform(x)), x, atol=1e-9 * max(1.0, np.abs(x).max()))

    def test_sequential_round_trip(self):
        x = varied(positive=True)
        t = SequentialDataTransformation(
            [LogScaleDataTransformation(), ZScoreDataTransformation()]
        ).fit(x)
        np.testing.assert_allclose(t.inverse_transform(t.transform(x)), x, atol=1e-9)


class TestStatistics:
    def test_zscore_uses_global_population_moments(self):
        x = varied()
        t = ZScoreDataTransformation().fit(x)
        assert t.mean_ == x.mean()
        assert t.std_ == x.std()  # population, not sample
        out = t.transform(x)
        assert abs(out.mean()) < 1e-12
        assert abs(out.std() - 1.0) < 1e-12

    def test_columnwise_zscore_normalizes_each_column(self):
        x = varied()
        out = ColumnwiseZScoreDataTransformation().fit(x).transform(x)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-12)

    def test_global_and_columnwise_differ_on_offset_columns(self):
        x = np.column_stack([np.arange(10.0), np.arange(10.0) + 100.0])
        g = ZScoreDataTransformation().fit(x).transform(x)
        c = ColumnwiseZScoreDataTransformation().fit(x).transform(x)
        assert not np.allclose(g, c)
        np.testing.assert_allclose(c[:, 0], c[:, 1], atol=1e-12)

    def test_minmax_maps_to_unit_interval(self):
        x = varied()
        out = MinMaxDataTransformation().fit(x).transform(x)
        assert out.min() == 0.0 and out.max() == 1.0

    def test_log_scale_is_base_ten(self):
        t = LogScaleDataTransformation().fit(np.array([1.0, 10.0]))
        np.testing.assert_array_equal(t.transform(np.array([1.0, 100.0])), [0.0, 2.0])

    def test_log_scale_fits_a_scalar(self):
        t = LogScaleDataTransformation().fit(5.0)
        assert t.transform(100.0) == 2.0


class TestErrors:
    @pytest.mark.parametrize("cls", ALL_CLASSES)
    def test_transform_before_fit(self, cls):
        with pytest.raises(ValueError, match="not fitted"):
            cls().transform(np.ones(3))

    @pytest.mark.parametrize("cls", ALL_CLASSES)
    def test_fit_rejects_empty(self, cls):
        with pytest.raises(ValueError, match="empty"):
            cls().fit(np.array([]))

    @pytest.mark.parametrize("cls", ALL_CLASSES)
    def test_fit_rejects_non_finite(self, cls):
        with pytest.raises(ValueError, match="non-finite"):
            cls().fit(np.array([1.0, np.nan]))

    def test_zscore_rejects_constant_data(self):
        with pytest.raises(ValueError, match="deviation is zero"):
            ZScoreDataTransformation().fit(np.full(5, 3.0))

    def test_columnwise_centres_constant_column(self):
        x = np.column_stack([np.arange(5.0), np.full(5, 2.0)])
        t = ColumnwiseZScoreDataTransformation().fit(x)
        assert t.constant_columns_ == [1]
        out = t.transform(x)
        np.testing.assert_array_equal(out[:, 1], np.zeros(5))
        np.testing.assert_allclose(out[:, 0].std(), 1.0)
        np.testing.assert_allclose(t.inverse_transform(out), x, atol=1e-12)
        back = _Fitted.from_dict(json.loads(json.dumps(t.to_dict())))
        assert back.constant_columns_ == [1]
        np.testing.assert_array_equal(back.transform(x + 1.0), t.transform(x + 1.0))

    def test_columnwise_treats_rounding_noise_as_constant(self, quickstart_corpus):
        # the training rows of configs/synthetic_soh_mlp.yaml on the quickstart corpus
        cells = sorted(quickstart_corpus.generated, key=lambda c: c.cell_id)
        split = RandomTrainTestSplitter(test_fraction=0.2, seed=0).split([c.cell_id for c in cells])
        train = [c for c in cells if c.cell_id in split.train_cell_ids]
        x = SOHCycleFeatureExtractor(max_cycle_index=99).extract(train).values
        std = x.std(axis=0)
        # first-cycle voltage mean and max: float noise around 2.95 and 3.6 V
        assert 0.0 < std[1] < 1e-14 and 0.0 < std[3] < 1e-13
        assert std[2] == 0.0
        t = ColumnwiseZScoreDataTransformation().fit(x)
        assert t.constant_columns_ == [1, 2, 3]
        np.testing.assert_array_equal(t.std_[[1, 2, 3]], 1.0)
        assert np.abs(t.transform(x)[:, [1, 2, 3]]).max() < 1e-12

    def test_columnwise_scales_a_small_real_spread(self):
        # coulombic efficiency in the same features: a spread near 1e-7 around 1.0
        x = np.column_stack([1.0 + 1e-7 * np.arange(6.0), np.arange(6.0)])
        t = ColumnwiseZScoreDataTransformation().fit(x)
        assert t.constant_columns_ == []
        np.testing.assert_allclose(t.transform(x)[:, 0].std(), 1.0)

    @pytest.mark.parametrize("cls, x, message", [
        (ZScoreDataTransformation, [1e308, -1e308], "mean and standard deviation must be finite"),
        (ColumnwiseZScoreDataTransformation, [[1e160], [-1e160]],
         "mean and standard deviation must be finite"),
        (MinMaxDataTransformation, [1e308, -1e308], "min and max must be numbers whose difference is finite"),
    ], ids=["zscore", "columnwise", "minmax"])
    def test_fit_refuses_statistics_that_overflow(self, cls, x, message):
        # numpy's overflow warning is an error in this suite, so none is raised
        with pytest.raises(TransformError, match=message):
            cls().fit(np.array(x))

    def test_columnwise_rejects_scalar_data(self):
        with pytest.raises(TransformError, match="1-D or 2-D"):
            ColumnwiseZScoreDataTransformation().fit(5.0)

    def test_columnwise_refuses_data_of_another_width(self):
        x = np.arange(12.0).reshape(4, 3) ** 2
        t = ColumnwiseZScoreDataTransformation().fit(x)
        for data in (x[:, :2], x[0, :2], np.hstack([x, x])):
            for apply in (t.transform, t.inverse_transform):
                message = f"ColumnwiseZScoreDataTransformation was fit on 3 columns, got data of shape {data.shape}"
                with pytest.raises(TransformError, match=f"^{re.escape(message)}$"):
                    apply(data)
        np.testing.assert_array_equal(t.transform(x[0]), t.transform(x)[0])
        # fit on 1-D data, its statistics are scalars, which apply to any width
        one = ColumnwiseZScoreDataTransformation().fit(np.arange(4.0))
        assert one.transform(x).shape == x.shape

    def test_minmax_rejects_constant_data(self):
        with pytest.raises(ValueError, match="max equals min"):
            MinMaxDataTransformation().fit(np.full(4, 1.0))

    def test_log_rejects_non_positive(self):
        with pytest.raises(ValueError, match="strictly positive"):
            LogScaleDataTransformation().fit(np.array([1.0, 0.0]))
        t = LogScaleDataTransformation().fit(np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="strictly positive"):
            t.transform(np.array([-1.0]))

    def test_sequential_needs_children(self):
        with pytest.raises(ValueError, match="at least one child"):
            SequentialDataTransformation([])


class TestSerialization:
    @pytest.mark.parametrize("cls", ALL_CLASSES + [sequential])
    def test_json_state_round_trip(self, cls):
        x = varied(positive=True)
        t = cls().fit(x)
        payload = json.loads(json.dumps(t.to_dict()))
        back = _Fitted.from_dict(payload)
        assert back.to_dict() == t.to_dict()
        y = varied(seed=9, positive=True)
        np.testing.assert_array_equal(back.transform(y), t.transform(y))
        np.testing.assert_array_equal(back.inverse_transform(y), t.inverse_transform(y))

    @pytest.mark.parametrize("name, state, message", [
        ("ZScoreDataTransformation", {"mean": 1.0, "std": 0.0}, "standard deviation is zero"),
        ("ZScoreDataTransformation", {"mean": 1.0, "std": -2.0}, "standard deviation is zero or negative"),
        ("ZScoreDataTransformation", {"mean": 1.0, "std": float("nan")}, "must be finite"),
        ("ZScoreDataTransformation", {"mean": [1.0, 2.0], "std": [1.0, 1.0]},
         r"must be numbers of one shape, got shapes \(2,\) and \(2,\)"),
        ("ZScoreDataTransformation", {"mean": "one", "std": 1.0}, "ValueError: could not convert"),
        ("ColumnwiseZScoreDataTransformation",
         {"mean": [0.0] * 5, "std": [1.0] * 6, "constant_columns": []}, r"got shapes \(5,\) and \(6,\)"),
        ("ColumnwiseZScoreDataTransformation",
         {"mean": [[0.0] * 6], "std": [[1.0] * 6], "constant_columns": []}, r"got shapes \(1, 6\)"),
        ("ColumnwiseZScoreDataTransformation",
         {"mean": [0.0] * 2, "std": [1.0] * 2, "constant_columns": [2]}, "column indexes below 2"),
        ("ColumnwiseZScoreDataTransformation",
         {"mean": [0.0] * 2, "std": [1.0] * 2, "constant_columns": [0.5]}, "column indexes below 2"),
        ("ColumnwiseZScoreDataTransformation", {"mean": [0.0] * 2, "std": [1.0] * 2},
         "KeyError: 'constant_columns'"),
        ("MinMaxDataTransformation", {"min": 1.0, "max": 1.0}, "max equals min"),
        ("MinMaxDataTransformation", {"min": 2.0, "max": 1.0}, "max is below min"),
        ("MinMaxDataTransformation", {"min": -1e308, "max": 1e308}, "difference is finite"),
        ("MinMaxDataTransformation", {"min": [0.0, 1.0], "max": 2.0}, "difference is finite"),
        ("SequentialDataTransformation", {"children": [
            {"name": "ZScoreDataTransformation", "state": {"mean": 0.0, "std": 0.0}}]},
         "malformed ZScoreDataTransformation state: .*standard deviation is zero"),
    ], ids=["zscore-zero-std", "zscore-negative-std", "zscore-nan-std", "zscore-arrays",
            "zscore-string", "columnwise-short-mean", "columnwise-2d", "columnwise-index-out-of-range",
            "columnwise-fractional-index", "columnwise-without-constant-columns", "minmax-equal",
            "minmax-reversed", "minmax-span-overflows", "minmax-array", "sequential-child"])
    def test_restore_runs_the_fit_check(self, name, state, message):
        with pytest.raises(CheckpointError, match=message):
            _Fitted.from_dict({"name": name, "state": state})

    def test_sequential_state_round_trip(self):
        x = varied(positive=True)
        t = SequentialDataTransformation(
            [LogScaleDataTransformation(), MinMaxDataTransformation()]
        ).fit(x)
        back = _Fitted.from_dict(t.to_dict())
        np.testing.assert_array_equal(back.transform(x), t.transform(x))

    def test_to_dict_requires_fit(self):
        with pytest.raises(ValueError, match="not fitted"):
            ZScoreDataTransformation().to_dict()

    def test_unknown_name_rejected(self):
        with pytest.raises(CheckpointError, match="unknown transformation"):
            _Fitted.from_dict({"name": "Mystery", "state": {}})


class TestSequentialSemantics:
    def test_children_are_fit_on_chained_output(self):
        x = np.array([1.0, 10.0, 100.0])
        t = SequentialDataTransformation(
            [LogScaleDataTransformation(), ZScoreDataTransformation()]
        ).fit(x)
        z = t.transformations[1]
        logs = np.log10(x)
        assert z.mean_ == logs.mean()
        assert z.std_ == logs.std()

    def test_order_matters(self):
        x = np.array([1.0, 10.0, 100.0])
        a = SequentialDataTransformation(
            [LogScaleDataTransformation(), MinMaxDataTransformation()]
        ).fit(x).transform(x)
        b = SequentialDataTransformation(
            [MinMaxDataTransformation(), ZScoreDataTransformation()]
        ).fit(x).transform(x)
        assert not np.allclose(a, b)

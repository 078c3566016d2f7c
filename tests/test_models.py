"""Regressors against closed-form oracles, plus the binary checkpoint format."""

import hashlib
import re
import zlib

import numpy as np
import pytest

from cellforge import components  # noqa: F401  (populates MODELS)
from cellforge.errors import CellforgeError, CheckpointError, ModelError
from cellforge.models import (
    DecisionTreeRegressor,
    DummyRegressor,
    LinearRegressor,
    MLPRegressor,
    PCRRegressor,
    PLSRegressor,
    RandomForestRegressor,
    RidgeRegressor,
    gradient_check,
    load_model,
)
from cellforge.models.forest import _NodeTable
from cellforge.registry import MODELS
from cellforge.transforms import ColumnwiseZScoreDataTransformation

from conftest import read_model_file, write_model_file


def toy_problem(n=60, d=4, noise=0.1, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(0.0, 1.0, (n, d))
    w = rng.normal(0.0, 2.0, d)
    y = X @ w + 3.5 + noise * rng.normal(0.0, 1.0, n)
    return X, y, w


def ols_oracle(X, y):
    """Normal equations with an explicit intercept column."""
    A = np.hstack([np.ones((X.shape[0], 1)), X])
    sol = np.linalg.solve(A.T @ A, A.T @ y)
    return sol[1:], sol[0]


class TestInputChecks:
    def test_x_must_be_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            LinearRegressor().fit(np.ones(4), np.ones(4))

    def test_y_must_be_1d(self):
        with pytest.raises(ValueError, match="1-D"):
            LinearRegressor().fit(np.ones((4, 1)), np.ones((4, 1)))

    def test_sample_count_mismatch(self):
        with pytest.raises(ValueError, match="sample count"):
            LinearRegressor().fit(np.ones((4, 1)), np.ones(3))

    def test_empty_input(self):
        with pytest.raises(ValueError, match="at least one sample"):
            LinearRegressor().fit(np.empty((0, 2)), np.empty(0))

    def test_non_finite_input(self):
        with pytest.raises(ValueError, match="finite"):
            LinearRegressor().fit(np.array([[np.nan], [1.0]]), np.ones(2))

    def test_predict_before_fit(self):
        with pytest.raises(ValueError, match="not fitted"):
            LinearRegressor().predict(np.ones((2, 2)))

    def test_predict_feature_count_checked(self):
        X, y, _ = toy_problem(d=3)
        m = LinearRegressor().fit(X, y)
        with pytest.raises(ValueError, match="expected shape"):
            m.predict(np.ones((2, 5)))


class TestModelErrors:
    @pytest.mark.parametrize("make", [
        lambda: LinearRegressor().fit(np.ones(4), np.ones(4)),
        lambda: LinearRegressor().predict(np.ones((2, 2))),
        lambda: LinearRegressor().fit(np.ones((4, 1)), np.ones(4)).predict(np.ones((2, 5))),
        lambda: LinearRegressor().save("unused.bin"),
        lambda: PCRRegressor(n_components=3).fit(np.ones((4, 1)), np.arange(4.0)),
        lambda: PLSRegressor(n_components=3).fit(np.ones((4, 1)), np.arange(4.0)),
    ], ids=["shape", "unfitted", "width", "save_unfitted", "pcr_components", "pls_components"])
    def test_fit_predict_and_save_errors_are_model_errors(self, make):
        # a ModelError is a CellforgeError (one CLI line) and still a ValueError
        with pytest.raises(ModelError) as info:
            make()
        assert isinstance(info.value, CellforgeError) and isinstance(info.value, ValueError)


class TestDummy:
    def test_predicts_training_mean(self):
        X, y, _ = toy_problem()
        m = DummyRegressor().fit(X, y)
        pred = m.predict(X[:7])
        np.testing.assert_array_equal(pred, np.full(7, y.mean()))


class TestLinear:
    def test_recovers_noiseless_map(self):
        X, y, w = toy_problem(noise=0.0)
        m = LinearRegressor().fit(X, y)
        np.testing.assert_allclose(m.coef_, w, atol=1e-8)
        np.testing.assert_allclose(m.intercept_, 3.5, atol=1e-8)

    def test_matches_normal_equations(self):
        X, y, _ = toy_problem(noise=0.5, seed=3)
        m = LinearRegressor().fit(X, y)
        coef, intercept = ols_oracle(X, y)
        np.testing.assert_allclose(m.coef_, coef, atol=1e-8)
        assert m.intercept_ == pytest.approx(intercept, abs=1e-8)

    def test_rank_deficiency_flagged_without_failing(self):
        X = np.ones((10, 2))
        X[:, 1] = 2.0 * X[:, 0]  # collinear, and collinear with the intercept
        y = np.arange(10.0)
        m = LinearRegressor().fit(X, y)
        assert m.metadata.get("rank_deficient") is True
        assert np.isfinite(m.predict(X)).all()


class TestRidge:
    def test_alpha_zero_equals_ols(self):
        X, y, _ = toy_problem(noise=0.3, seed=4)
        ridge = RidgeRegressor(alpha=0.0).fit(X, y)
        ols = LinearRegressor().fit(X, y)
        np.testing.assert_allclose(ridge.coef_, ols.coef_, atol=1e-8)
        assert ridge.intercept_ == pytest.approx(ols.intercept_, abs=1e-8)

    def test_matches_closed_form(self):
        X, y, _ = toy_problem(noise=0.3, seed=5)
        alpha = 2.5
        ridge = RidgeRegressor(alpha=alpha).fit(X, y)
        Xc = X - X.mean(axis=0)
        yc = y - y.mean()
        coef = np.linalg.solve(Xc.T @ Xc + alpha * np.eye(X.shape[1]), Xc.T @ yc)
        np.testing.assert_allclose(ridge.coef_, coef, atol=1e-8)

    def test_shrinkage_is_monotone(self):
        X, y, _ = toy_problem(noise=0.3, seed=6)
        norms = [
            np.linalg.norm(RidgeRegressor(alpha=a).fit(X, y).coef_)
            for a in (0.0, 0.1, 1.0, 10.0, 100.0)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))

    def test_intercept_is_not_penalized(self):
        X, y, _ = toy_problem(noise=0.3, seed=7)
        a = RidgeRegressor(alpha=50.0).fit(X, y)
        b = RidgeRegressor(alpha=50.0).fit(X, y + 1000.0)
        np.testing.assert_allclose(b.predict(X), a.predict(X) + 1000.0, atol=1e-6)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            RidgeRegressor(alpha=-1.0)


class TestPCR:
    def test_full_rank_equals_ols(self):
        X, y, _ = toy_problem(n=50, d=4, noise=0.3, seed=8)
        pcr = PCRRegressor(n_components=4).fit(X, y)
        ols = LinearRegressor().fit(X, y)
        np.testing.assert_allclose(pcr.predict(X), ols.predict(X), atol=1e-6)

    def test_matches_eigendecomposition_oracle(self):
        X, y, _ = toy_problem(n=80, d=5, noise=0.2, seed=9)
        k = 2
        pcr = PCRRegressor(n_components=k).fit(X, y)

        Xc = X - X.mean(axis=0)
        evals, evecs = np.linalg.eigh(Xc.T @ Xc)
        components = evecs[:, np.argsort(evals)[::-1][:k]]  # top-k, any sign
        scores = Xc @ components
        gamma, *_ = np.linalg.lstsq(scores, y - y.mean(), rcond=None)
        coef = components @ gamma
        np.testing.assert_allclose(pcr.coef_, coef, atol=1e-8)

    def test_component_budget_validated(self):
        X, y, _ = toy_problem(n=10, d=3)
        with pytest.raises(ValueError, match="exceeds"):
            PCRRegressor(n_components=4).fit(X, y)
        with pytest.raises(ValueError, match="n_components"):
            PCRRegressor(n_components=0)


class TestPLS:
    def test_single_component_closed_form(self):
        X, y, _ = toy_problem(n=40, d=3, noise=0.2, seed=10)
        m = PLSRegressor(n_components=1).fit(X, y)
        Xc = X - X.mean(axis=0)
        yc = y - y.mean()
        w = Xc.T @ yc
        w = w / np.linalg.norm(w)
        t = Xc @ w
        q = (yc @ t) / (t @ t)
        p = Xc.T @ t / (t @ t)
        coef = w * (q / (p @ w))
        np.testing.assert_allclose(m.coef_, coef, atol=1e-8)

    def test_full_components_equal_ols(self):
        X, y, _ = toy_problem(n=60, d=4, noise=0.3, seed=11)
        pls = PLSRegressor(n_components=4).fit(X, y)
        ols = LinearRegressor().fit(X, y)
        np.testing.assert_allclose(pls.predict(X), ols.predict(X), atol=1e-6)

    def test_constant_target_predicts_mean(self):
        X = np.random.default_rng(0).normal(size=(12, 3))
        y = np.full(12, 7.25)
        m = PLSRegressor(n_components=2).fit(X, y)
        np.testing.assert_allclose(m.predict(X), 7.25, atol=1e-12)
        assert m.effective_components_ == 0

    def test_component_budget_validated(self):
        X, y, _ = toy_problem(n=10, d=3)
        with pytest.raises(ValueError, match="exceeds"):
            PLSRegressor(n_components=5).fit(X, y)

    def test_effective_components_survive_a_round_trip(self, tmp_path):
        X, y, _ = toy_problem(n=20, d=3, seed=12)
        for target, count in [(y, 2), (np.full(20, 1.5), 0)]:
            m = PLSRegressor(n_components=2).fit(X, target)
            assert m.metadata["effective_components"] == count
            assert load_model(m.save(tmp_path / "p.bin")).effective_components_ == count
        # a file whose metadata lacks the count, as older versions wrote it
        header, blocks = read_model_file(tmp_path / "p.bin")
        write_model_file(tmp_path / "old.bin", "plsr", header["hyperparameters"],
                         {"n_samples": 20, "n_features": 3},
                         [(b["name"], blocks[b["name"]]) for b in header["blocks"]])
        assert load_model(tmp_path / "old.bin").effective_components_ is None
        for bad in [3, -1, "2", 1.0, True]:
            write_model_file(tmp_path / "bad.bin", "plsr", header["hyperparameters"],
                             {"n_samples": 20, "n_features": 3, "effective_components": bad},
                             [(b["name"], blocks[b["name"]]) for b in header["blocks"]])
            with pytest.raises(CheckpointError) as info:
                load_model(tmp_path / "bad.bin")
            assert str(info.value) == (
                f"{tmp_path / 'bad.bin'}: plsr model file: metadata 'effective_components' must be "
                f"an integer in [0, 2], got {bad!r}")

    @pytest.mark.parametrize("seed, n, scale", [(2, 25, 1.0), (4, 12, 0.01), (6, 25, 100.0)])
    def test_a_duplicated_column_stops_at_one_component(self, seed, n, scale):
        # z-scored, x and 2x are one column twice; the X'y of the deflated X
        # is rounding noise, and a component fitted to it made P'W singular
        rng = np.random.default_rng(seed)
        x = rng.normal(size=n) * scale
        raw = np.column_stack([x, 2 * x])
        X = ColumnwiseZScoreDataTransformation().fit(raw).transform(raw)
        y = rng.normal(size=n)
        m = PLSRegressor(n_components=2).fit(X, y)
        assert m.effective_components_ == 1
        np.testing.assert_allclose(m.predict(X), PLSRegressor(n_components=1).fit(X, y).predict(X),
                                   rtol=1e-12, atol=1e-12)

    def test_a_file_of_the_mean_centred_layout_is_one_line_naming_intercept(self, tmp_path):
        # older versions stored x_mean, y_mean and coef; every linear model
        # now stores coef and intercept
        X, y, _ = toy_problem(n=20, d=3, seed=13)
        m = PLSRegressor(n_components=2).fit(X, y)
        path = write_model_file(tmp_path / "old.bin", "plsr", m.get_params(), m.metadata, [
            ("x_mean", X.mean(axis=0)), ("y_mean", np.array([y.mean()])), ("coef", m.coef_)])
        with pytest.raises(CheckpointError) as info:
            load_model(path)
        assert str(info.value) == (
            f"{path}: plsr model file lacks parameter block 'intercept' "
            "(stored blocks: ['coef', 'x_mean', 'y_mean']); train the model again")


@pytest.mark.parametrize("name, params", [
    *(pytest.param(name, {"RandomForestRegressor": {"n_trees": 3}, "MLPRegressor": {"epochs": 2}}
                   .get(name, {}), id=name) for name in MODELS.names()),
    pytest.param("RidgeRegressor", {"alpha": 0.0}, id="RidgeRegressor-alpha0"),
])
def test_no_fit_grows_with_the_square_of_the_width(name, params, capped_address_space):
    # a 20,000 x 20,000 float64 matrix is 3.2 GB, far past the cap
    X, y, _ = toy_problem(n=16, d=20_000, seed=14)
    model = MODELS.create(name, **params).fit(X, y)
    assert model.predict(X).shape == (16,)


def stump_oracle_sse(X, y, min_leaf=1):
    """SSE of the best single split, by exhaustive search."""
    best = np.inf
    for f in range(X.shape[1]):
        xs = np.unique(X[:, f])
        for a, b in zip(xs[:-1], xs[1:]):
            m = X[:, f] <= 0.5 * (a + b)
            if m.sum() < min_leaf or (~m).sum() < min_leaf:
                continue
            sse = ((y[m] - y[m].mean()) ** 2).sum() + ((y[~m] - y[~m].mean()) ** 2).sum()
            best = min(best, sse)
    return best


@pytest.mark.parametrize("model", [PCRRegressor, PLSRegressor])
def test_components_stop_at_the_rank_of_the_centred_X(model):
    # four centred rows span at most three dimensions; a fourth component
    # would be fitted to rounding noise
    X, y, _ = toy_problem(n=4, d=10, seed=13)
    with pytest.raises(ModelError, match=r"n_components=4 exceeds min\(n_samples - 1, n_features\)=3"):
        model(n_components=4).fit(X, y)
    assert model(n_components=3).fit(X, y).fitted


class TestDecisionTree:
    def test_memorizes_distinct_training_data(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(30, 3))
        y = rng.normal(size=30)
        m = DecisionTreeRegressor().fit(X, y)
        np.testing.assert_allclose(m.predict(X), y, atol=1e-12)

    def test_stump_split_is_sse_optimal(self):
        rng = np.random.default_rng(13)
        for trial in range(10):
            X = rng.normal(size=(25, 2))
            y = rng.normal(size=25)
            m = DecisionTreeRegressor(max_depth=1).fit(X, y)
            pred = m.predict(X)
            sse = ((y - pred) ** 2).sum()
            assert sse == pytest.approx(stump_oracle_sse(X, y), abs=1e-9)

    def test_split_ties_go_to_lowest_feature_then_lowest_threshold(self):
        from cellforge.models.forest import _best_split

        # both columns split y exactly (SSE 0): column 0 after its third value,
        # column 1 after its first
        X = np.array([[1.0, 2.0], [2.0, 3.0], [3.0, 4.0], [4.0, 1.0]])
        y = np.array([0.0, 0.0, 0.0, 9.0])
        sse, feature, threshold, left = _best_split(X, y, np.arange(2), 1)
        assert (sse, feature, threshold, left.tolist()) == (0.0, 0, 3.5, [True, True, True, False])
        assert _best_split(X, y, np.array([1]), 1)[1:3] == (1, 1.5)
        # one column, two thresholds with the same SSE
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        assert _best_split(X, np.array([0.0, 1.0, 1.0, 0.0]), np.arange(1), 1)[2] == 1.5

    def test_depth_zero_predicts_global_mean(self):
        X, y, _ = toy_problem(n=20)
        m = DecisionTreeRegressor(max_depth=0).fit(X, y)
        np.testing.assert_allclose(m.predict(X), y.mean(), atol=1e-12)

    def test_min_samples_leaf_blocks_splitting(self):
        X, y, _ = toy_problem(n=9)
        m = DecisionTreeRegressor(min_samples_leaf=5).fit(X, y)
        np.testing.assert_allclose(m.predict(X), y.mean(), atol=1e-12)

    @pytest.mark.parametrize(
        "kw", [{"max_depth": -1}, {"min_samples_leaf": 0},
               {"feature_subsample_fraction": 0.0}, {"feature_subsample_fraction": 1.5}]
    )
    def test_parameter_validation(self, kw):
        with pytest.raises(ValueError):
            DecisionTreeRegressor(**kw)


class TestRandomForest:
    def test_seed_determinism(self):
        X, y, _ = toy_problem(noise=0.5, seed=15)
        a = RandomForestRegressor(n_trees=5, seed=1).fit(X, y).predict(X)
        b = RandomForestRegressor(n_trees=5, seed=1).fit(X, y).predict(X)
        c = RandomForestRegressor(n_trees=5, seed=2).fit(X, y).predict(X)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_prediction_is_tree_average(self):
        X, y, _ = toy_problem(n=40, noise=0.5, seed=16)
        m = RandomForestRegressor(n_trees=4, seed=0).fit(X, y)
        stacked = np.stack([t.predict(X) for t in m.trees_])
        np.testing.assert_array_equal(m.predict(X), stacked.mean(axis=0))

    def test_feature_subsampling_changes_trees(self):
        X, y, _ = toy_problem(n=60, d=6, noise=0.5, seed=17)
        full = RandomForestRegressor(n_trees=8, seed=0).fit(X, y).predict(X)
        sub = RandomForestRegressor(
            n_trees=8, seed=0, feature_subsample_fraction=0.34
        ).fit(X, y).predict(X)
        assert not np.array_equal(full, sub)


class TestMLP:
    def test_gradient_check_relu(self):
        rng = np.random.default_rng(18)
        X = rng.normal(size=(12, 5))
        y = rng.normal(size=12)
        m = MLPRegressor(hidden_dims=(7,), activation="relu", seed=1)
        assert gradient_check(m, X, y) < 1e-4

    def test_gradient_check_identity_two_layers(self):
        rng = np.random.default_rng(19)
        X = rng.normal(size=(10, 4))
        y = rng.normal(size=10)
        m = MLPRegressor(hidden_dims=(6, 3), activation="identity", seed=2)
        assert gradient_check(m, X, y) < 1e-4

    def test_gradient_check_after_training(self):
        # identity activation: smooth loss, so the check holds at a trained
        # point too (relu kinks break finite differences near z = 0)
        rng = np.random.default_rng(20)
        X = rng.normal(size=(15, 3))
        y = rng.normal(size=15)
        m = MLPRegressor(hidden_dims=(5,), activation="identity", epochs=30, seed=3).fit(X, y)
        assert gradient_check(m, X, y) < 1e-4

    def test_gradient_check_instance_size_guard(self):
        with pytest.raises(ValueError, match="exhaustive"):
            gradient_check(MLPRegressor(), np.ones((30, 2)), np.ones(30))

    def test_training_is_bit_deterministic(self):
        X, y, _ = toy_problem(n=40, d=3, noise=0.2, seed=21)
        a = MLPRegressor(hidden_dims=(8,), epochs=50, seed=5).fit(X, y)
        b = MLPRegressor(hidden_dims=(8,), epochs=50, seed=5).fit(X, y)
        np.testing.assert_array_equal(a.predict(X), b.predict(X))

    def test_seed_changes_solution(self):
        X, y, _ = toy_problem(n=40, d=3, noise=0.2, seed=22)
        a = MLPRegressor(epochs=20, seed=1).fit(X, y).predict(X)
        b = MLPRegressor(epochs=20, seed=2).fit(X, y).predict(X)
        assert not np.array_equal(a, b)

    def test_learns_linear_function(self):
        X, y, _ = toy_problem(n=120, d=3, noise=0.05, seed=23)
        m = MLPRegressor(hidden_dims=(16,), epochs=300, learning_rate=0.01, seed=0).fit(X, y)
        rmse = np.sqrt(np.mean((m.predict(X) - y) ** 2))
        dummy_rmse = np.sqrt(np.mean((y.mean() - y) ** 2))
        assert rmse < 0.3 * dummy_rmse

    @pytest.mark.parametrize(
        "kw",
        [
            {"activation": "tanh"},
            {"epochs": 0},
            {"batch_size": 0},
            {"learning_rate": 0.0},
            {"hidden_dims": (0,)},
        ],
    )
    def test_parameter_validation(self, kw):
        with pytest.raises(ValueError):
            MLPRegressor(**kw)


ALL_MODELS = [
    DummyRegressor(),
    LinearRegressor(),
    RidgeRegressor(alpha=0.7),
    PCRRegressor(n_components=2),
    PLSRegressor(n_components=2),
    DecisionTreeRegressor(max_depth=4, seed=1),
    RandomForestRegressor(n_trees=5, max_depth=3, seed=2),
    MLPRegressor(hidden_dims=(6,), epochs=25, seed=3),
]


class TestParams:
    @pytest.mark.parametrize("name", MODELS.names())
    def test_params_rebuild_the_model(self, name):
        m = MODELS.create(name)
        params = m.get_params()
        assert type(m)(**params).get_params() == params

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
    def test_params_are_the_constructor_arguments(self, model):
        params = model.get_params()
        assert type(model)(**params).get_params() == params

    def test_only_models_that_draw_random_numbers_take_a_seed(self):
        seeded = {name for name in MODELS.names() if "seed" in MODELS.create(name).get_params()}
        assert seeded == {"DecisionTreeRegressor", "RandomForestRegressor", "MLPRegressor"}
        X, y, _ = toy_problem(n=10, d=2)
        assert "seed" not in LinearRegressor().fit(X, y).metadata


class TestSaveLoad:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
    def test_round_trip_preserves_predictions_exactly(self, model, tmp_path):
        X, y, _ = toy_problem(n=50, d=4, noise=0.4, seed=24)
        model.fit(X, y)
        path = tmp_path / "model.bin"
        model.save(path)
        back = load_model(path)
        assert type(back) is type(model)
        assert back.get_params() == model.get_params()
        np.testing.assert_array_equal(back.predict(X), model.predict(X))
        assert back.save(tmp_path / "again.bin").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
    def test_a_file_holding_the_sample_count_still_loads(self, model, tmp_path):
        # files of older versions store metadata["n_samples"]; nothing reads it
        X, y, _ = toy_problem(n=40, d=3, seed=7)
        path = model.fit(X, y).save(tmp_path / "m.bin")
        header, blocks = read_model_file(path)
        assert "n_samples" not in header["metadata"]
        older = write_model_file(tmp_path / "older.bin", header["kind"], header["hyperparameters"],
                                 {**header["metadata"], "n_samples": 40},
                                 [(b["name"], blocks[b["name"]]) for b in header["blocks"]])
        assert len(older.read_bytes()) > len(path.read_bytes())
        assert load_model(older).predict(X).tobytes() == model.predict(X).tobytes()

    def test_every_shipped_model_class_takes_the_round_trip(self):
        shipped = {MODELS.get_factory(name) for name in MODELS.names()}
        assert {type(m) for m in ALL_MODELS} == {
            cls for cls in shipped if cls.__module__.startswith("cellforge.")}

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
    def test_loading_never_encodes_the_blocks(self, model, tmp_path, monkeypatch):
        X, y, _ = toy_problem(n=30, d=3, seed=42)
        path = model.fit(X, y).save(tmp_path / "m.bin")

        def refuse(self):
            raise AssertionError("load_model encoded the blocks")

        monkeypatch.setattr(type(model), "_param_blocks", refuse)
        assert load_model(path).predict(X).tobytes() == model.predict(X).tobytes()
        header, blocks = read_model_file(path)
        rewrite_blocks(path, header, blocks, {}, [("spare", np.zeros(2))])
        with pytest.raises(CheckpointError) as info:
            load_model(path)
        assert str(info.value) == (f"{path}: {model.kind} model file has unexpected parameter "
                                   "blocks ['spare']; train the model again")

    def test_a_block_read_through_get_counts_as_read(self, tmp_path, monkeypatch):
        class GetRegressor(DummyRegressor):
            kind = "get_mean"

            def _restore_blocks(self, blocks):
                self.mean_ = float(blocks.get("mean")[0])

        monkeypatch.setitem(MODELS._factories, "GetRegressor", GetRegressor)
        X, y, _ = toy_problem(n=10, d=2)
        path = GetRegressor().fit(X, y).save(tmp_path / "m.bin")
        assert load_model(path).mean_ == y.mean()
        header, blocks = read_model_file(path)
        rewrite_blocks(path, header, blocks, {}, [("spare", np.zeros(1))])
        with pytest.raises(CheckpointError, match=r"has unexpected parameter blocks \['spare'\]; "
                                                  "train the model again$"):
            load_model(path)

    def test_cannot_save_unfitted(self, tmp_path):
        with pytest.raises(ValueError, match="unfitted"):
            LinearRegressor().save(tmp_path / "m.bin")

    def test_file_bytes_are_pinned(self, tmp_path):
        # the binary container is shared with cell files; model files must not change
        X, y, _ = toy_problem(n=10, d=3)
        model = LinearRegressor().fit(X, y)
        path = model.save(tmp_path / "m.bin")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "b41b352c6bb59b3b813bb6ddffcf7a7b20b08e6bc9e0a7613c74067e421c1766"
        )
        # files of older versions also store the sample count, which nothing
        # reads; the pinned older file differs only by that key, and still loads
        header, blocks = read_model_file(path)
        assert header["metadata"] == {"n_features": 3}
        older = write_model_file(tmp_path / "older.bin", "linear", {}, {"n_samples": 10, "n_features": 3},
                                 list(blocks.items()))
        assert hashlib.sha256(older.read_bytes()).hexdigest() == (
            "d914816c974a3a98a31bce8bc71baa3225a144376e2a1128b302c47be15b469f"
        )
        assert load_model(older).predict(X).tobytes() == model.predict(X).tobytes()
        # the fit itself is the one pinned before the header lost its seed
        _, blocks = read_model_file(path)
        assert hashlib.sha256(blocks["coef"].tobytes() + blocks["intercept"].tobytes()).hexdigest() == (
            "1554b4fbf181b9d290f49083d4a9924541c05e34ebe7e00734b3a6c49d568a22"
        )

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "m.bin"
        X, y, _ = toy_problem(n=10, d=2)
        LinearRegressor().fit(X, y).save(p)
        raw = bytearray(p.read_bytes())
        raw[:4] = b"WAT1"
        p.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="bad magic"):
            load_model(p)

    def test_truncated_file_rejected(self, tmp_path):
        p = tmp_path / "m.bin"
        X, y, _ = toy_problem(n=10, d=3)
        LinearRegressor().fit(X, y).save(p)
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(CheckpointError, match="truncated"):
            load_model(p)

    def test_unknown_kind_rejected(self, tmp_path):
        p = tmp_path / "m.bin"
        write_model_file(p, "mystery", {}, {"n_features": 1}, [])
        with pytest.raises(CheckpointError, match=f"^{re.escape(str(p))}: unknown model kind 'mystery': "):
            load_model(p)

    @pytest.mark.parametrize("hyperparameters, metadata, match", [
        ({}, {}, "'n_features' must be a non-negative integer, got None"),
        ({}, {"n_features": "x"}, "got 'x'"),
        ({}, {"n_features": -1}, "got -1"),
        ({}, {"n_features": True}, "got True"),
        ({}, {"n_features": 1.0}, "got 1.0"),
        ([], {"n_features": 1}, "must be JSON objects"),
        ({}, [], "must be JSON objects"),
        (None, {"n_features": 1}, "must be JSON objects"),
    ])
    def test_malformed_header_rejected(self, tmp_path, hyperparameters, metadata, match):
        p = tmp_path / "m.bin"
        write_model_file(p, "linear", hyperparameters, metadata, [])
        with pytest.raises(CheckpointError, match=match) as info:
            load_model(p)
        assert str(p) in str(info.value)

    def test_extra_block_rejected(self, tmp_path):
        p = tmp_path / "m.bin"
        X, y, _ = toy_problem(n=10, d=2)
        RandomForestRegressor(n_trees=1, seed=0).fit(X, y).save(p)
        header, blocks = read_model_file(p)
        stored = [(b["name"], blocks[b["name"]]) for b in header["blocks"]]
        write_model_file(p, header["kind"], header["hyperparameters"], header["metadata"],
                         stored + [("tree1_value", np.zeros(1))])
        with pytest.raises(CheckpointError, match=r"unexpected parameter blocks \['tree1_value'\]"):
            load_model(p)


def forest_file(tmp_path):
    """A saved two-tree forest over two features whose roots both split."""
    rng = np.random.default_rng(30)
    X = rng.normal(size=(30, 2))
    y = X[:, 0] + rng.normal(size=30)
    path = RandomForestRegressor(n_trees=2, max_depth=2, seed=0).fit(X, y).save(tmp_path / "f.bin")
    header, blocks = read_model_file(path)
    start = load_model(path).nodes_.tree_start
    assert start.tolist() == [0, 7, 14] and (blocks["feature"][start[:-1]] >= 0).all()
    return path, header, blocks


def rewrite_blocks(path, header, blocks, changed, more=()):
    write_model_file(path, header["kind"], header["hyperparameters"], header["metadata"],
                     [(b["name"], changed.get(b["name"], blocks[b["name"]])) for b in header["blocks"]]
                     + list(more))


def nodes(blocks, index):
    """The nodes ``index`` of the table: its ``feature`` and ``value``."""
    return {name: blocks[name][index].copy() for name in ("feature", "value")}


def edited(blocks, name, index, value):
    arr = blocks[name].copy()
    arr[index] = value
    return {name: arr}


def right_children(feature, start, stop):
    """Each split's right child in the preorder nodes ``start:stop`` of one
    tree, found the way the fit lays them out: after the left subtree."""
    right = {}

    def subtree_end(i):
        if feature[i] < 0:
            return i + 1
        right[i] = subtree_end(i + 1)
        return subtree_end(right[i])

    assert subtree_end(start) == stop
    return right


class TestForestFile:
    """A tree or forest is one preorder node table of two blocks."""

    def test_blocks_dtypes_and_shapes(self, tmp_path):
        path, header, blocks = forest_file(tmp_path)
        n = blocks["feature"].size
        assert [(b["name"], b.get("dtype", "<f8"), b["shape"]) for b in header["blocks"]] == [
            ("feature", "<i2", [n]), ("value", "<f8", [n])]
        assert blocks["feature"].dtype == np.int32
        # 10 bytes a node: these 14 nodes do not deflate smaller
        assert "deflate" not in header
        data = path.read_bytes()
        assert len(data) - 8 - int.from_bytes(data[4:8], "little") == 10 * n

    def test_a_split_sends_its_left_rows_to_the_next_node(self):
        X, y, _ = toy_problem(n=40, d=3, noise=0.5, seed=33)
        m = DecisionTreeRegressor(max_depth=3, seed=0).fit(X, y)
        table = m.nodes_
        assert table.tree_start.tolist() == [0, len(table.feature)]
        for i in np.flatnonzero(table.feature >= 0):
            rows = X[:, table.feature[i]] <= table.value[i]
            assert rows.any() and not rows.all()
        # a leaf's right child is -1, a split's right child lies past its left child
        split = table.feature >= 0
        assert (table.right[~split] == -1).all()
        assert (table.right[split] > np.flatnonzero(split) + 1).all()

    def test_derived_right_children_equal_the_fitted_ones(self, tmp_path):
        rng = np.random.default_rng(39)
        forests = [RandomForestRegressor(n_trees=8, seed=18).fit(
            np.random.default_rng(32).normal(size=(8, 2)), np.array([0.0] * 6 + [1.0, 2.0]))]
        for seed in range(6):
            X = rng.normal(size=(int(rng.integers(2, 40)), 3))
            y = np.where(rng.random(len(X)) < 0.3, 1.0, 0.0) if seed % 2 else rng.normal(size=len(X))
            forests.append(RandomForestRegressor(n_trees=5, max_depth=[None, 1, 3][seed % 3],
                                                 feature_subsample_fraction=0.5, seed=seed).fit(X, y))
        sizes = np.concatenate([np.diff(f.nodes_.tree_start) for f in forests])
        assert (sizes == 1).any() and (sizes > 7).any()
        for forest in forests:
            for table in (forest.nodes_, load_model(forest.save(tmp_path / "f.bin")).nodes_):
                start = table.tree_start
                assert len(start) == forest.n_trees + 1 and start[-1] == len(table.feature)
                fitted = {}
                for k in range(len(start) - 1):
                    fitted.update(right_children(table.feature, start[k], start[k + 1]))
                derived = {int(i): int(table.right[i]) for i in np.flatnonzero(table.feature >= 0)}
                assert derived == fitted
                assert (table.right[table.feature < 0] == -1).all()

    def test_round_trip_is_bit_identical_for_ragged_trees(self, tmp_path):
        # tree 5's bootstrap sample holds only zeros, so it is a single leaf
        X = np.random.default_rng(32).normal(size=(8, 2))
        y = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 2.0])
        model = RandomForestRegressor(n_trees=8, seed=18).fit(X, y)
        assert np.diff(model.nodes_.tree_start).tolist() == [7, 5, 5, 5, 7, 1, 5, 3]
        path = model.save(tmp_path / "f.bin")
        back = load_model(path)
        assert back.nodes_.tree_start.tolist() == model.nodes_.tree_start.tolist()
        for (name, a), (_, b) in zip(model.nodes_.blocks(), back.nodes_.blocks()):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        rows = np.random.default_rng(34).normal(size=(500, 2))
        assert back.predict(rows).tobytes() == model.predict(rows).tobytes()
        assert back.save(tmp_path / "again.bin").read_bytes() == path.read_bytes()

    def test_file_bytes_of_a_hand_built_table_are_pinned(self, tmp_path):
        # tree 0 splits on x <= 0.5 into leaves 1.0 and 2.0; tree 1 is the leaf 4.0
        model = RandomForestRegressor(n_trees=2, seed=0)
        model.nodes_ = _NodeTable(np.array([0, -1, -1, -1], dtype=np.int32), np.array([0.5, 1.0, 2.0, 4.0]))
        assert model.nodes_.tree_start.tolist() == [0, 3, 4]
        model.n_features_, model.metadata, model.fitted = 1, {"n_samples": 4, "n_features": 1}, True
        path = model.save(tmp_path / "f.bin")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "478c6284a6d8bf21bf03df8fb722824e648d2f932fb923f09831677010f3a63c")
        header, blocks = read_model_file(path)
        assert [(b["name"], b.get("dtype", "<f8")) for b in header["blocks"]] == [
            ("feature", "<i2"), ("value", "<f8")]
        # 40 bytes of blocks do not deflate smaller, so they are stored as they are
        assert "deflate" not in header
        assert path.read_bytes()[-40:] == (np.array([0, -1, -1, -1], "<i2").tobytes()
                                           + np.array([0.5, 1.0, 2.0, 4.0]).tobytes())
        assert load_model(path).predict(np.array([[0.0], [1.0]])).tolist() == [2.5, 3.0]

    def test_file_bytes_of_a_deflated_table_are_pinned(self, tmp_path):
        # eight copies of the tree that splits on x <= 0.5 into leaves 1.0 and 2.0
        model = RandomForestRegressor(n_trees=8, seed=0)
        model.nodes_ = _NodeTable(np.tile(np.array([0, -1, -1], dtype=np.int32), 8),
                                  np.tile([0.5, 1.0, 2.0], 8))
        model.n_features_, model.metadata, model.fitted = 1, {"n_samples": 4, "n_features": 1}, True
        path = model.save(tmp_path / "f.bin")
        data = path.read_bytes()
        assert hashlib.sha256(data).hexdigest() == (
            "72fd84d374e21d234d75aa609383006f865b853c7311aff78b4d730ff7626273")
        header, _ = read_model_file(path)
        assert header["deflate"] is True
        assert zlib.decompress(data[8 + int.from_bytes(data[4:8], "little"):]) == (
            model.nodes_.feature.astype("<i2").tobytes() + model.nodes_.value.tobytes())
        assert load_model(path).predict(np.array([[0.0], [1.0]])).tolist() == [1.0, 2.0]

    def test_predict_matches_a_walk_of_each_tree_and_row(self):
        X, y, _ = toy_problem(n=40, d=3, noise=0.5, seed=37)
        table = RandomForestRegressor(n_trees=6, max_depth=4, seed=1).fit(X, y).nodes_
        rows = np.random.default_rng(38).normal(size=(50, 3))
        leaves = np.empty((6, len(rows)))
        for k in range(6):
            start = table.tree_start[k]
            right = right_children(table.feature, start, table.tree_start[k + 1])
            for r, x in enumerate(rows):
                i = start
                while table.feature[i] >= 0:
                    go_left = x[table.feature[i]] <= table.value[i]
                    i = i + 1 if go_left else right[i]
                leaves[k, r] = table.value[i]
        assert table.predict(rows).tobytes() == leaves.mean(axis=0).tobytes()

    def test_trees_are_views_of_the_table(self):
        X, y, _ = toy_problem(n=30, d=2, noise=0.5, seed=35)
        m = RandomForestRegressor(n_trees=3, seed=0).fit(X, y)
        assert sum(len(t.feature) for t in m.trees_) == len(m.nodes_.feature)
        assert all(np.shares_memory(t.value, m.nodes_.value) for t in m.trees_)

    @pytest.mark.parametrize("change, match", [
        (lambda b: nodes(b, slice(0, 7)), "holds 1 complete trees and 0 nodes after them, expected 2$"),
        (lambda b: nodes(b, np.r_[0:14, 0:7]), "holds 3 complete trees and 0 nodes after them, expected 2$"),
        (lambda b: nodes(b, slice(0, 13)), "holds 1 complete trees and 6 nodes after them, expected 2$"),
        (lambda b: edited(b, "feature", 13, 0), "holds 1 complete trees and 7 nodes after them, expected 2$"),
        (lambda b: nodes(b, slice(0, 0)), "holds 0 complete trees and 0 nodes after them, expected 2$"),
        (lambda b: edited(b, "feature", 0, 2), r"outside -1 and \[0, 2\)"),
        (lambda b: edited(b, "feature", 0, -2), r"outside -1 and \[0, 2\)"),
        (lambda b: edited(b, "feature", 7, -1), "holds 4 complete trees and 0 nodes after them, expected 2$"),
        (lambda b: {"feature": np.append(b["feature"], np.int32(0)),
                    "value": np.append(b["value"], 0.0)},
         "holds 2 complete trees and 1 nodes after them, expected 2$"),
        (lambda b: edited(b, "feature", 6, 0), "holds 0 complete trees and 14 nodes after them, expected 2$"),
        (lambda b: {"feature": b["feature"].astype(float)}, "'feature' is <f8 of shape"),
        (lambda b: {"value": b["value"][:-1].copy()}, r"'value' is <f8 of shape \(13,\)"),
        (lambda b: {"value": b["value"][:0].copy()}, r"'value' is <f8 of shape \(0,\)"),
        (lambda b: {"value": b["value"].reshape(1, -1).copy()}, r"'value' is <f8 of shape \(1, 14\)"),
        (lambda b: {"value": b["value"].astype(np.int32)}, "'value' is <i4 of shape"),
    ], ids=["one-tree-short", "one-tree-too-many", "unfinished-tree-at-the-end",
            "childless-split-at-the-end", "empty-table",
            "feature-beyond-n_features", "feature-below-leaf", "tree-ends-before-its-bound",
            "nodes-left-over-after-the-last-tree", "split-without-children-at-the-bound",
            "feature-as-float64", "value-too-short", "no-values", "values-2d", "value-as-int32"])
    def test_a_corrupt_table_is_one_error_naming_the_file(self, tmp_path, change, match):
        path, header, blocks = forest_file(tmp_path)
        rewrite_blocks(path, header, blocks, change(blocks))
        with pytest.raises(CheckpointError, match=match) as info:
            load_model(path)
        assert str(info.value).startswith(f"{path}: random_forest model file: ")
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("kind", ["random_forest", "tree"])
    def test_a_file_with_tree_bounds_is_an_older_layout(self, tmp_path, kind):
        # the table that also stored each tree's first node and the node count
        model = (RandomForestRegressor(n_trees=2, max_depth=2, seed=0) if kind == "random_forest"
                 else DecisionTreeRegressor(max_depth=2))
        X, y, _ = toy_problem(n=20, d=2, seed=40)
        path = model.fit(X, y).save(tmp_path / "old.bin")
        header, blocks = read_model_file(path)
        rewrite_blocks(path, header, blocks, {}, [("tree_start", model.nodes_.tree_start.astype(np.int32))])
        with pytest.raises(CheckpointError) as info:
            load_model(path)
        assert str(info.value) == (
            f"{path}: {kind} model file has unexpected parameter blocks ['tree_start']; "
            "train the model again")

    @pytest.mark.parametrize("kind, hyperparameters", [
        ("random_forest", {"n_trees": 1, "max_depth": None, "min_samples_leaf": 1,
                           "feature_subsample_fraction": 1.0, "seed": 0}),
        ("tree", {}),
    ])
    def test_a_file_with_per_tree_blocks_is_an_older_layout(self, tmp_path, kind, hyperparameters):
        path = tmp_path / "old.bin"
        write_model_file(path, kind, hyperparameters, {"n_samples": 2, "n_features": 1}, [
            (f"tree0_{name}", np.array(values)) for name, values in [
                ("feature", [0.0, -1.0, -1.0]), ("threshold", [0.5, 0.0, 0.0]),
                ("left", [1.0, -1.0, -1.0]), ("right", [2.0, -1.0, -1.0]),
                ("value", [0.0, 1.0, 2.0])]])
        with pytest.raises(CheckpointError) as info:
            load_model(path)
        assert str(info.value) == (
            f"{path}: {kind} model file lacks parameter block 'feature' (stored blocks: "
            "['tree0_feature', 'tree0_left', 'tree0_right', 'tree0_threshold', 'tree0_value']); "
            "train the model again")

    @pytest.mark.parametrize("kind", ["random_forest", "tree"])
    def test_a_file_with_right_and_threshold_blocks_is_an_older_layout(self, tmp_path, kind):
        # the one-table layout that stored each split's threshold and right child apart
        model = (RandomForestRegressor(n_trees=2, max_depth=2, seed=0) if kind == "random_forest"
                 else DecisionTreeRegressor(max_depth=2))
        X, y, _ = toy_problem(n=20, d=2, seed=40)
        path = model.fit(X, y).save(tmp_path / "old.bin")
        header, _ = read_model_file(path)
        t = model.nodes_
        split = t.feature >= 0
        local_right = np.where(split, t.right - np.repeat(t.tree_start[:-1], np.diff(t.tree_start)), -1)
        write_model_file(path, kind, header["hyperparameters"], header["metadata"], [
            ("feature", t.feature), ("threshold", np.where(split, t.value, 0.0)),
            ("right", local_right.astype(np.int32)), ("value", np.where(split, 0.0, t.value)),
            ("tree_start", t.tree_start.astype(np.int32))])
        with pytest.raises(CheckpointError) as info:
            load_model(path)
        assert str(info.value) == (
            f"{path}: {kind} model file has unexpected parameter blocks "
            "['right', 'threshold', 'tree_start']; train the model again")

    @pytest.mark.parametrize("kind", ["random_forest", "tree"])
    def test_a_file_with_one_value_per_node_is_an_older_layout(self, tmp_path, kind):
        # the 12-bytes-a-node table, which stored every node's value
        model = (RandomForestRegressor(n_trees=2, max_depth=2, seed=0) if kind == "random_forest"
                 else DecisionTreeRegressor(max_depth=2))
        X, y, _ = toy_problem(n=20, d=2, seed=40)
        path = model.fit(X, y).save(tmp_path / "old.bin")
        header, _ = read_model_file(path)
        t = model.nodes_
        write_model_file(path, kind, header["hyperparameters"], header["metadata"],
                         [("feature", t.feature), ("value", t.value), ("tree_start", t.tree_start.astype(np.int32))])
        with pytest.raises(CheckpointError) as info:
            load_model(path)
        assert str(info.value) == (
            f"{path}: {kind} model file has unexpected parameter blocks ['tree_start']; "
            "train the model again")

    @pytest.mark.parametrize("kind", ["random_forest", "tree"])
    def test_a_file_with_a_value_dictionary_is_an_older_layout(self, tmp_path, kind):
        # each distinct node value once, and each node's index into them
        model = (RandomForestRegressor(n_trees=2, max_depth=2, seed=0) if kind == "random_forest"
                 else DecisionTreeRegressor(max_depth=2))
        X, y, _ = toy_problem(n=20, d=2, seed=40)
        path = model.fit(X, y).save(tmp_path / "old.bin")
        header, _ = read_model_file(path)
        values, code = np.unique(model.nodes_.value, return_inverse=True)
        write_model_file(path, kind, header["hyperparameters"], header["metadata"], [
            ("feature", model.nodes_.feature), ("values", values), ("value_code", code.astype(np.int32))])
        with pytest.raises(CheckpointError) as info:
            load_model(path)
        assert str(info.value) == (
            f"{path}: {kind} model file lacks parameter block 'value' (stored blocks: "
            "['feature', 'value_code', 'values']); train the model again")


def signed_zero_leaves(model):
    """Tree 0 sends x <= 0.5 to the leaf -0.0 and the rest to 0.0; a
    three-tree forest's trees 1 and 2 are the leaves -0.0 and 0.0."""
    feature, value = [0, -1, -1], [0.5, -0.0, 0.0]
    if model.kind == "random_forest":
        feature, value = feature + [-1, -1], value + [-0.0, 0.0]
    model.nodes_ = _NodeTable(np.array(feature, dtype=np.int32), np.array(value))
    model.n_features_, model.metadata, model.fitted = 1, {"n_samples": 2, "n_features": 1}, True
    return model, np.array([[0.0], [1.0]])


def many_values(model):
    """A fit to 400 distinct targets: far more than 256 distinct node values."""
    rng = np.random.default_rng(41)
    X = rng.normal(size=(400, 2))
    return model.fit(X, rng.normal(size=400)), rng.normal(size=(100, 2))


def wide_features(model):
    """A fit whose only informative feature is index 32800."""
    X = np.zeros((6, 32801))
    X[:, 32800] = np.arange(6.0)
    return model.fit(X, np.arange(6.0) ** 2), np.linspace(-1.0, 6.0, 15)[:, None] * X[1]


class TestValueTable:
    """A saved table stores each node's value, bit for bit."""

    @pytest.mark.parametrize("make, dtypes", [
        (signed_zero_leaves, {"feature": "<i2"}),
        (many_values, {"feature": "<i2"}),
        (wide_features, {"feature": "<i4"}),
    ], ids=["signed-zeros", "more-than-256-values", "feature-past-32767"])
    @pytest.mark.parametrize("model", [lambda: RandomForestRegressor(n_trees=3, seed=4),
                                       lambda: DecisionTreeRegressor(seed=4)], ids=["forest", "tree"])
    def test_round_trip_is_bit_exact(self, tmp_path, make, dtypes, model):
        model, rows = make(model())
        path = model.save(tmp_path / "m.bin")
        header, blocks = read_model_file(path)
        assert {b["name"]: b["dtype"] for b in header["blocks"] if b["name"] in dtypes} == dtypes
        assert blocks["value"].tobytes() == model.nodes_.value.tobytes()
        back = load_model(path)
        for name in ("feature", "value", "tree_start"):
            a, b = getattr(model.nodes_, name), getattr(back.nodes_, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert back.predict(rows).tobytes() == model.predict(rows).tobytes()
        assert back.save(tmp_path / "again.bin").read_bytes() == path.read_bytes()

    def test_signed_zeros_stay_distinct(self, tmp_path):
        model, _ = signed_zero_leaves(RandomForestRegressor(n_trees=3))
        back = load_model(model.save(tmp_path / "z.bin"))
        assert np.signbit(back.nodes_.value).tolist() == [False, True, False, True, False]


class TestBlockShapes:
    @pytest.mark.parametrize("model, name, shape", [
        (DummyRegressor(), "mean", (2,)),
        (LinearRegressor(), "coef", (3,)),
        (LinearRegressor(), "intercept", (1, 1)),
        (RidgeRegressor(alpha=0.7), "coef", (2, 1)),
        (PCRRegressor(n_components=1), "coef", ()),
        (PLSRegressor(n_components=1), "coef", (1,)),
        (PLSRegressor(n_components=1), "intercept", (0,)),
        (MLPRegressor(hidden_dims=(3, 2), epochs=2, seed=0), "layer0_W", (3, 2)),
        (MLPRegressor(hidden_dims=(3, 2), epochs=2, seed=0), "layer1_W", (3, 3)),
        (MLPRegressor(hidden_dims=(3, 2), epochs=2, seed=0), "layer2_b", (2,)),
    ], ids=["dummy-mean", "linear-coef", "linear-intercept", "ridge-coef", "pcr-coef",
            "pls-coef", "pls-intercept", "mlp-layer0_W", "mlp-layer1_W", "mlp-layer2_b"])
    def test_a_block_of_the_wrong_shape_is_one_error_naming_file_and_block(
            self, tmp_path, model, name, shape):
        X, y, _ = toy_problem(n=12, d=2, seed=36)
        path = model.fit(X, y).save(tmp_path / "m.bin")
        header, blocks = read_model_file(path)
        rewrite_blocks(path, header, blocks, {name: np.ones(shape)})
        with pytest.raises(CheckpointError) as info:
            load_model(path)
        assert str(info.value) == (
            f"{path}: {model.kind} model file: block {name!r} is <f8 of shape {shape}, "
            f"expected <f8 of shape {blocks[name].shape}")

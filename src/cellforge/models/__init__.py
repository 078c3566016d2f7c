"""Regression models with a uniform fit/predict/save contract."""

from .base import BaseRegressor, load_model, model_seeds, save_models
from .forest import DecisionTreeRegressor, RandomForestRegressor
from .linear import DummyRegressor, LinearRegressor, PCRRegressor, PLSRegressor, RidgeRegressor
from .mlp import MLPRegressor, gradient_check

__all__ = [
    "BaseRegressor",
    "DecisionTreeRegressor",
    "DummyRegressor",
    "LinearRegressor",
    "MLPRegressor",
    "PCRRegressor",
    "PLSRegressor",
    "RandomForestRegressor",
    "RidgeRegressor",
    "gradient_check",
    "load_model",
    "model_seeds",
    "save_models",
]

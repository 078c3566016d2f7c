"""Registration of built-in components under their config-file names.

Importing this module populates the five registries. Config files refer
to components by these exact strings.
"""

from __future__ import annotations

from . import features, labels, models, splitters, transforms
from .registry import FEATURES, LABELS, MODELS, SPLITTERS, TRANSFORMS

# Splitters
SPLITTERS.register("RandomTrainTestSplitter", splitters.RandomTrainTestSplitter)
SPLITTERS.register("ExplicitTrainTestSplitter", splitters.ExplicitTrainTestSplitter)
SPLITTERS.register("FixedSplitTrainTestSplitter", splitters.FixedSplitTrainTestSplitter)

# Feature extractors
FEATURES.register("VarianceModelFeatureExtractor",
                  features.VarianceModelFeatureExtractor)
FEATURES.register("DischargeModelFeatureExtractor",
                  features.DischargeModelFeatureExtractor)
FEATURES.register("FullModelFeatureExtractor", features.FullModelFeatureExtractor)
FEATURES.register("VoltageCapacityMatrixFeatureExtractor",
                  features.VoltageCapacityMatrixFeatureExtractor)
FEATURES.register("SOHCycleFeatureExtractor", features.SOHCycleFeatureExtractor)
FEATURES.register("SOCStepFeatureExtractor", features.SOCStepFeatureExtractor)
FEATURES.register("CapacityFadeSlopeFeatureExtractor",
                  features.CapacityFadeSlopeFeatureExtractor)

# Label annotators
LABELS.register("RULLabelAnnotator", labels.RULLabelAnnotator)
LABELS.register("SOHLabelAnnotator", labels.SOHLabelAnnotator)
LABELS.register("SOCLabelAnnotator", labels.SOCLabelAnnotator)

# Data transformations
TRANSFORMS.register("ZScoreDataTransformation", transforms.ZScoreDataTransformation)
TRANSFORMS.register("ColumnwiseZScoreDataTransformation",
                    transforms.ColumnwiseZScoreDataTransformation)
TRANSFORMS.register("MinMaxDataTransformation", transforms.MinMaxDataTransformation)
TRANSFORMS.register("LogScaleDataTransformation",
                    transforms.LogScaleDataTransformation)
TRANSFORMS.register("SequentialDataTransformation",
                    transforms.SequentialDataTransformation)

# Models.  The linear model keeps the name used in published configs.
MODELS.register("DummyRegressor", models.DummyRegressor)
MODELS.register("LinearRegressionRULPredictor", models.LinearRegressor)
MODELS.register("RidgeRegressor", models.RidgeRegressor)
MODELS.register("PCRRegressor", models.PCRRegressor)
MODELS.register("PLSRegressor", models.PLSRegressor)
MODELS.register("DecisionTreeRegressor", models.DecisionTreeRegressor)
MODELS.register("RandomForestRegressor", models.RandomForestRegressor)
MODELS.register("MLPRegressor", models.MLPRegressor)

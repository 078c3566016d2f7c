"""cellforge: battery degradation data, features, labels, and models.

The package covers the full workflow: unified cell records (read/write/
validate), ingestion of public cycling datasets, synthetic corpus
generation, label annotation (RUL, SOH, SOC), feature extraction,
invertible data transforms, regression models, and a config-driven
train/evaluate pipeline with a CLI front end.
"""

from . import components as _components  # noqa: F401  (populates registries)
from .battery_data import (
    CellRecord,
    CycleData,
    CycleRecord,
    ProtocolStep,
    Violation,
    cell_from_dict,
    cell_to_dict,
    load_cells,
    read_cell,
    validate,
    write_cell,
)
from .errors import (
    CellforgeError,
    CheckpointError,
    ConfigError,
    FeatureError,
    PipelineError,
    RegistryError,
    SchemaError,
    SplitError,
    ThresholdNotReached,
    ValidationError,
)
from .features import FeatureMatrix, delta_q, qdlinear
from .labels import (
    RULLabelAnnotator,
    SOCLabelAnnotator,
    SOHLabelAnnotator,
    rul_label,
    soc_per_step,
    soh_per_cycle,
)
from .models import load_model
from .pipeline import Checkpoint, PipelineConfig, run_evaluate, run_train
from .registry import FEATURES, LABELS, MODELS, SPLITTERS, TRANSFORMS, register
from .splitters import RandomTrainTestSplitter, SplitResult
from .synthetic import SynthSpec, generate_synthetic

__version__ = "0.1.0"

__all__ = [
    "CellRecord",
    "CycleData",
    "CycleRecord",
    "ProtocolStep",
    "Violation",
    "cell_from_dict",
    "cell_to_dict",
    "load_cells",
    "read_cell",
    "validate",
    "write_cell",
    "CellforgeError",
    "CheckpointError",
    "ConfigError",
    "FeatureError",
    "PipelineError",
    "RegistryError",
    "SchemaError",
    "SplitError",
    "ThresholdNotReached",
    "ValidationError",
    "FeatureMatrix",
    "delta_q",
    "qdlinear",
    "RULLabelAnnotator",
    "SOCLabelAnnotator",
    "SOHLabelAnnotator",
    "rul_label",
    "soc_per_step",
    "soh_per_cycle",
    "load_model",
    "Checkpoint",
    "PipelineConfig",
    "run_evaluate",
    "run_train",
    "FEATURES",
    "LABELS",
    "MODELS",
    "SPLITTERS",
    "TRANSFORMS",
    "register",
    "RandomTrainTestSplitter",
    "SplitResult",
    "SynthSpec",
    "generate_synthetic",
    "__version__",
]

"""Exception types shared across the package.

Everything domain-level derives from :class:`CellforgeError` so the CLI can
map any expected failure onto a single-line message and exit code 1.
"""


class CellforgeError(Exception):
    """Base class for all expected, user-facing failures."""


class SchemaError(CellforgeError):
    """A file (cell file, CSV, column map, split list) violates its schema."""


class ValidationError(CellforgeError):
    """A record failed invariant validation; the message shows five of its ``violations``."""

    def __init__(self, violations):
        self.violations = list(violations)
        shown = [str(v) for v in self.violations[:5]]
        if len(self.violations) > 5:
            shown.append(f"and {len(self.violations) - 5} more")
        super().__init__(f"{len(self.violations)} violation(s): {'; '.join(shown)}")


class ThresholdNotReached(CellforgeError):
    """The SOH curve never crossed the end-of-life threshold."""


class LabelError(CellforgeError, ValueError):
    """A cell's data cannot be labelled (no cycles, no discharge capacity)."""


class FeatureError(CellforgeError):
    """A feature extractor's preconditions were not met."""


class RegistryError(CellforgeError):
    """Unknown or duplicate component name."""


class ConfigError(CellforgeError):
    """Pipeline configuration is malformed."""


class SplitError(CellforgeError):
    """A train/test splitter could not produce a valid partition."""


class PipelineError(CellforgeError):
    """A pipeline run could not proceed (empty sets, misaligned rows)."""


class TransformError(CellforgeError, ValueError):
    """A data transformation cannot fit, apply or invert on the data given."""


class ModelError(CellforgeError, ValueError):
    """A model cannot fit, predict or save on the data or in the state given."""


class CheckpointError(CellforgeError):
    """A checkpoint is missing, inconsistent, or hash-mismatched."""

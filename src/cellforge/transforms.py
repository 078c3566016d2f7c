"""Invertible data transformations for features and labels.

All statistics are global over the whole input tensor (a single mean/sd or
min/max regardless of shape); 'ColumnwiseZScoreDataTransformation' is the
per-column variant for 2-D feature matrices. Transforms are fit once on
training data and then applied to anything of the same shape family;
``inverse_transform(transform(x))`` recovers ``x`` within 1e-9.

Fitted state serializes to plain dicts (JSON-safe) via ``to_dict`` /
``from_dict`` for storage inside pipeline checkpoints; ``from_dict`` finds
the class through the ``TRANSFORMS`` registry by its ``name``.
"""

from __future__ import annotations

import numpy as np

from .errors import CheckpointError, TransformError
from .registry import TRANSFORMS


class _Fitted:
    """fit/transform plumbing shared by every transformation."""

    name: str

    def __init__(self):
        self.fitted = False
        self.fit_row_count = 0  # leakage instrumentation: rows seen at fit time

    def _require_fitted(self):
        if not self.fitted:
            raise TransformError(f"{type(self).__name__} is not fitted")

    @staticmethod
    def _as_finite_array(data, *, context):
        arr = np.asarray(data, dtype=float)
        if arr.size == 0:
            raise TransformError(f"cannot {context} on empty data")
        if not np.isfinite(arr).all():
            raise TransformError(f"cannot {context} on non-finite data")
        return arr

    def fit(self, data):
        arr = self._as_finite_array(data, context="fit")
        self._fit(arr)
        self.fitted = True
        self.fit_row_count = arr.shape[0]
        return self

    def transform(self, data):
        self._require_fitted()
        arr = self._as_finite_array(data, context="transform")
        return self._transform(arr)

    def inverse_transform(self, data):
        self._require_fitted()
        with np.errstate(over="ignore", invalid="ignore"):  # the caller checks for non-finite
            return self._inverse(np.asarray(data, dtype=float))

    def to_dict(self) -> dict:
        self._require_fitted()
        return {"name": self.name, "state": self._state()}

    @classmethod
    def from_dict(cls, obj: dict) -> "_Fitted":
        """The fitted transformation ``to_dict`` stored; a payload of any
        other shape is a :class:`CheckpointError`."""
        name = obj.get("name") if isinstance(obj, dict) else None
        found = TRANSFORMS.find_class("name", name)
        if found is None:
            raise CheckpointError(
                f"unknown transformation {name!r}: no single registered class carries it"
            )
        try:
            t = found._restore(obj.get("state", {}))
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed {name} state: {type(exc).__name__}: {exc}") from exc
        t.fitted = True
        return t


class ZScoreDataTransformation(_Fitted):
    """(x - mean) / sd with global statistics (population sd)."""

    name = "ZScoreDataTransformation"

    def _fit(self, arr):
        self.mean_ = float(arr.mean())
        self.std_ = float(arr.std())
        if self.std_ == 0.0:
            raise TransformError("degenerate data: standard deviation is zero")

    def _transform(self, arr):
        return (arr - self.mean_) / self.std_

    def _inverse(self, arr):
        return arr * self.std_ + self.mean_

    def _state(self):
        return {"mean": self.mean_, "std": self.std_}

    @classmethod
    def _restore(cls, state):
        t = cls()
        t.mean_ = float(state["mean"])
        t.std_ = float(state["std"])
        return t


class ColumnwiseZScoreDataTransformation(_Fitted):
    """Per-column z-score for 2-D matrices (1-D data is a single column).

    A column that is constant in the training data is only centred: its
    scale is 1, and its index is kept in ``constant_columns_``. A column
    counts as constant when its standard deviation is at most
    ``CONSTANT_RTOL`` times its largest magnitude, so float rounding noise
    around one value (a spread of 4e-15 around 2.95, say) is not scaled up
    to unit variance.
    """

    name = "ColumnwiseZScoreDataTransformation"
    CONSTANT_RTOL = 1e-12

    def _fit(self, arr):
        if arr.ndim > 2:
            raise TransformError("columnwise z-score expects 1-D or 2-D data")
        self.mean_ = arr.mean(axis=0)
        std = arr.std(axis=0)
        constant = std <= self.CONSTANT_RTOL * np.abs(arr).max(axis=0)
        self.constant_columns_ = np.flatnonzero(constant).tolist()
        self.std_ = np.where(constant, 1.0, std)

    def _transform(self, arr):
        return (arr - self.mean_) / self.std_

    def _inverse(self, arr):
        return arr * self.std_ + self.mean_

    def _state(self):
        return {
            "mean": np.asarray(self.mean_).tolist(),
            "std": np.asarray(self.std_).tolist(),
            "constant_columns": self.constant_columns_,
        }

    @classmethod
    def _restore(cls, state):
        t = cls()
        t.mean_ = np.asarray(state["mean"], dtype=float)
        t.std_ = np.asarray(state["std"], dtype=float)
        t.constant_columns_ = [int(i) for i in state.get("constant_columns", ())]
        return t


class MinMaxDataTransformation(_Fitted):
    """(x - min) / (max - min) with global statistics."""

    name = "MinMaxDataTransformation"

    def _fit(self, arr):
        self.min_ = float(arr.min())
        self.max_ = float(arr.max())
        if self.max_ == self.min_:
            raise TransformError("degenerate data: max equals min")

    def _transform(self, arr):
        return (arr - self.min_) / (self.max_ - self.min_)

    def _inverse(self, arr):
        return arr * (self.max_ - self.min_) + self.min_

    def _state(self):
        return {"min": self.min_, "max": self.max_}

    @classmethod
    def _restore(cls, state):
        t = cls()
        t.min_ = float(state["min"])
        t.max_ = float(state["max"])
        return t


class LogScaleDataTransformation(_Fitted):
    """Base-10 logarithm; stateless (fit only records the row count)."""

    name = "LogScaleDataTransformation"

    def _fit(self, arr):
        if np.any(arr <= 0):
            raise TransformError("log scale requires strictly positive data")

    def _transform(self, arr):
        if np.any(arr <= 0):
            raise TransformError("log scale requires strictly positive data")
        return np.log10(arr)

    def _inverse(self, arr):
        return np.power(10.0, arr)

    def _state(self):
        return {}

    @classmethod
    def _restore(cls, state):
        return cls()


class SequentialDataTransformation(_Fitted):
    """Children applied in order; fitting chains each child on the previous
    child's training output, inversion walks the chain backwards.

    A child is a transformation or a config dict (``name`` plus parameters)
    built through the ``TRANSFORMS`` registry.
    """

    name = "SequentialDataTransformation"

    def __init__(self, transformations=()):
        super().__init__()
        self.transformations = [self._child(t) for t in transformations]
        if not self.transformations:
            raise TransformError("sequential transformation needs at least one child")

    @staticmethod
    def _child(child):
        if not isinstance(child, dict):
            return child
        params = dict(child)
        name = params.pop("name", None)
        if not isinstance(name, str):
            raise TransformError("sequential child needs a 'name' string")
        return TRANSFORMS.create(name, **params)

    def _fit(self, arr):
        out = arr
        for t in self.transformations:
            out = t.fit(out).transform(out)

    def _transform(self, arr):
        out = arr
        for t in self.transformations:
            out = t.transform(out)
        return out

    def _inverse(self, arr):
        out = arr
        for t in reversed(self.transformations):
            out = t.inverse_transform(out)
        return out

    def _state(self):
        return {"children": [t.to_dict() for t in self.transformations]}

    @classmethod
    def _restore(cls, state):
        children = [_Fitted.from_dict(c) for c in state["children"]]
        t = cls(transformations=children)
        return t


"""Invertible data transformations for features and labels.

All statistics are global over the whole input tensor (a single mean/sd or
min/max regardless of shape); 'ColumnwiseZScoreDataTransformation' is the
per-column variant for 2-D feature matrices. Transforms are fit once on
training data and then applied to anything of the same shape family;
``inverse_transform(transform(x))`` recovers ``x`` within 1e-9.

Fitted state serializes to plain dicts (JSON-safe) via ``to_dict`` /
``from_dict`` for storage inside pipeline checkpoints; ``from_dict`` finds
the class through the ``TRANSFORMS`` registry by its ``name``. A restore
runs the same check of the fitted state as a fit, declared once per class
(see ``_Fitted``), so overflowed statistics and an edited state that
cannot be used are both refused with one line.
"""

from __future__ import annotations

import numpy as np

from .errors import CheckpointError, TransformError
from .registry import TRANSFORMS


class _Fitted:
    """fit/transform plumbing shared by every transformation.

    A transformation names its fitted attributes once, in ``_FITTED``; each
    is stored under its name without the trailing underscore, and restored
    as float64 (a Python float when it is a scalar). ``_check`` raises a
    :class:`TransformError` unless those attributes are usable; it runs at
    the end of every ``fit`` and after every restore. A transformation
    whose state is not a set of float arrays overrides ``_state`` and
    ``_restore`` instead.
    """

    name: str
    _FITTED: tuple[str, ...] = ()

    def __init__(self):
        self.fitted = False

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
        with np.errstate(over="ignore", invalid="ignore"):  # _check refuses what overflowed
            self._fit(arr)
        self._check()
        self.fitted = True
        return self

    def _check(self):
        """Raise a :class:`TransformError` unless the fitted state is usable."""

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

    def _state(self):
        return {attr.rstrip("_"): np.asarray(getattr(self, attr)).tolist() for attr in self._FITTED}

    @classmethod
    def _restore(cls, state):
        t = cls()
        for attr in cls._FITTED:
            value = np.asarray(state[attr.rstrip("_")], dtype=float)
            setattr(t, attr, value if value.ndim else float(value))
        return t

    @classmethod
    def from_dict(cls, obj: dict) -> "_Fitted":
        """The fitted transformation ``to_dict`` stored; a payload of any
        other shape, or a state that ``_check`` refuses, is a
        :class:`CheckpointError`."""
        name = obj.get("name") if isinstance(obj, dict) else None
        found = TRANSFORMS.find_class("name", name)
        if found is None:
            raise CheckpointError(
                f"unknown transformation {name!r}: no single registered class carries it"
            )
        try:
            t = found._restore(obj.get("state", {}))
            t._check()
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed {name} state: {type(exc).__name__}: {exc}") from exc
        t.fitted = True
        return t


class ZScoreDataTransformation(_Fitted):
    """(x - mean) / sd with global statistics (population sd)."""

    name = "ZScoreDataTransformation"
    _FITTED = ("mean_", "std_")
    _MAX_NDIM = 0  # the statistics are scalars

    def _fit(self, arr):
        self.mean_ = float(arr.mean())
        self.std_ = float(arr.std())

    def _check(self):
        mean, std = np.asarray(self.mean_), np.asarray(self.std_)
        if mean.ndim > self._MAX_NDIM or std.shape != mean.shape:
            raise TransformError(f"mean and std must be {('numbers', 'numbers or 1-D arrays')[self._MAX_NDIM]}"
                                 f" of one shape, got shapes {mean.shape} and {std.shape}")
        if not np.isfinite([mean, std]).all():
            raise TransformError("mean and standard deviation must be finite")
        if not (std > 0).all():
            raise TransformError("degenerate data: standard deviation is zero or negative")

    def _transform(self, arr):
        return (arr - self.mean_) / self.std_

    def _inverse(self, arr):
        return arr * self.std_ + self.mean_


class ColumnwiseZScoreDataTransformation(ZScoreDataTransformation):
    """Per-column z-score for 2-D matrices (1-D data is a single column).

    A column that is constant in the training data is only centred: its
    scale is 1, and its index is kept in ``constant_columns_``. A column
    counts as constant when its standard deviation is at most
    ``CONSTANT_RTOL`` times its largest magnitude, so float rounding noise
    around one value (a spread of 4e-15 around 2.95, say) is not scaled up
    to unit variance.
    """

    name = "ColumnwiseZScoreDataTransformation"
    _FITTED = ("mean_", "std_", "constant_columns_")
    _MAX_NDIM = 1  # one statistic per column
    CONSTANT_RTOL = 1e-12

    def _fit(self, arr):
        if not 1 <= arr.ndim <= 2:
            raise TransformError("columnwise z-score expects 1-D or 2-D data")
        self.mean_ = arr.mean(axis=0)
        std = arr.std(axis=0)
        constant = std <= self.CONSTANT_RTOL * np.abs(arr).max(axis=0)
        self.constant_columns_ = np.flatnonzero(constant)
        self.std_ = np.where(constant, 1.0, std)

    @property
    def constant_columns_(self) -> list[int]:
        """The indexes of the columns only centred; a restore sets them as
        float64, which ``_check`` requires to be whole and in range."""
        return [int(i) for i in self._constant]

    @constant_columns_.setter
    def constant_columns_(self, value):
        self._constant = np.asarray(value)

    def _check(self):
        super()._check()
        if not (self._constant.ndim == 1 and np.isin(self._constant, range(np.size(self.std_))).all()):
            raise TransformError(f"constant_columns must list column indexes below {np.size(self.std_)}")

    def _transform(self, arr):
        return super()._transform(self._of_width(arr))

    def _inverse(self, arr):
        return super()._inverse(self._of_width(arr))

    def _of_width(self, arr):
        """``arr``, whose last axis must be as long as the statistics, if they are 1-D."""
        width = np.shape(self.mean_)
        if width and arr.shape[-1:] != width:
            raise TransformError(f"{self.name} was fit on {width[0]} columns, got data of shape {arr.shape}")
        return arr


class MinMaxDataTransformation(_Fitted):
    """(x - min) / (max - min) with global statistics."""

    name = "MinMaxDataTransformation"
    _FITTED = ("min_", "max_")

    def _fit(self, arr):
        self.min_ = float(arr.min())
        self.max_ = float(arr.max())

    def _check(self):
        span = self.max_ - self.min_
        if np.ndim(span) or not np.isfinite(span):
            raise TransformError("min and max must be numbers whose difference is finite")
        if not span > 0:
            raise TransformError("degenerate data: max equals min" if span == 0 else "max is below min")

    def _transform(self, arr):
        return (arr - self.min_) / (self.max_ - self.min_)

    def _inverse(self, arr):
        return arr * (self.max_ - self.min_) + self.min_


class LogScaleDataTransformation(_Fitted):
    """Base-10 logarithm; stateless."""

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


class SequentialDataTransformation(_Fitted):
    """Children applied in order; fitting chains each child on the previous
    child's training output, inversion walks the chain backwards.

    ``transformations`` is a list or tuple; each child is a transformation
    or a config dict (``name`` plus parameters) built through the
    ``TRANSFORMS`` registry.
    """

    name = "SequentialDataTransformation"

    def __init__(self, transformations=()):
        super().__init__()
        if not isinstance(transformations, (list, tuple)):
            raise TransformError(f"sequential transformations must be a list, got {transformations!r}")
        self.transformations = [self._child(t) for t in transformations]
        if not self.transformations:
            raise TransformError("sequential transformation needs at least one child")

    @staticmethod
    def _child(child):
        if isinstance(child, _Fitted):
            return child
        params = dict(child) if isinstance(child, dict) else {}
        name = params.pop("name", None)
        if not isinstance(name, str):
            raise TransformError(f"sequential child {child!r} must be a transformation "
                                 "or a mapping with a 'name' string")
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
        return cls(transformations=[_Fitted.from_dict(c) for c in state["children"]])


"""Name-keyed component registries used by the config-driven pipeline."""

from __future__ import annotations

import math
import numbers
import operator

from .errors import CellforgeError, RegistryError


def integer(name: str, value, minimum: int = 0) -> int:
    """``value`` as a Python int when it is an integer of at least ``minimum``.

    Every integer constructor parameter of a registered component goes
    through here. A numpy integer passes; a bool, a string or any float,
    whole ones included, raises a ValueError naming ``name``, which
    :meth:`Registry.create` reports as one ``bad parameters`` line.
    """
    try:
        result = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        result = None
    if result is None or result < minimum:
        bound = "a non-negative integer" if minimum == 0 else f"an integer >= {minimum}"
        raise ValueError(f"{name} must be {bound}, got {value!r}")
    return result


def number(name: str, value, *, gt=None, ge=None, lt=None, le=None) -> float:
    """``value`` as a Python float when it is a finite real number (numpy's too, a
    bool not) within every bound given; else a ValueError naming ``name``, as :func:`integer`."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        result = float(value) if real else math.nan
    except OverflowError:  # an int beyond float64
        result = math.nan
    if not math.isfinite(result):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    for op, holds, bound in ((">", operator.gt, gt), (">=", operator.ge, ge),
                             ("<", operator.lt, lt), ("<=", operator.le, le)):
        if bound is not None and not holds(result, bound):
            raise ValueError(f"{name} must be {op} {bound}, got {value!r}")
    return result


class Registry:
    def __init__(self, kind: str):
        self.kind = kind
        self._factories: dict[str, object] = {}

    def register(self, name: str, factory):
        if name in self._factories:
            raise RegistryError(f"duplicate {self.kind} name {name!r}")
        self._factories[name] = factory

    def names(self) -> list[str]:
        return sorted(self._factories)

    def get_factory(self, name: str):
        """The registered factory, or None when the name is unknown."""
        return self._factories.get(name)

    def find_class(self, attr: str, value):
        """The registered class that sets ``attr`` to ``value`` in its own body.

        Checkpoint loading resolves a stored model ``kind`` or transform
        ``name`` this way. A subclass that inherits the attribute does not
        claim the value. None when no registered class, or more than one,
        claims it.
        """
        found = {f for f in self._factories.values()
                 if isinstance(f, type) and vars(f).get(attr) == value}
        return found.pop() if len(found) == 1 else None

    def create(self, name: str, **kwargs):
        if name not in self._factories:
            raise RegistryError(
                f"unknown {self.kind} {name!r}; registered: {', '.join(self.names())}"
            )
        try:
            return self._factories[name](**kwargs)
        except CellforgeError:  # passes through as it is, also when it is a ValueError
            raise
        except (TypeError, ValueError) as exc:
            raise RegistryError(f"{self.kind} {name!r}: bad parameters: {exc}") from exc


SPLITTERS = Registry("splitter")
FEATURES = Registry("feature extractor")
LABELS = Registry("label annotator")
TRANSFORMS = Registry("data transformation")
MODELS = Registry("model")

_KINDS = {
    "splitter": SPLITTERS,
    "feature": FEATURES,
    "label": LABELS,
    "transform": TRANSFORMS,
    "model": MODELS,
}


def register(kind: str, name: str, factory):
    """Register a component under one of the five registry kinds."""
    if kind not in _KINDS:
        raise RegistryError(f"unknown registry kind {kind!r}; kinds: {sorted(_KINDS)}")
    _KINDS[kind].register(name, factory)

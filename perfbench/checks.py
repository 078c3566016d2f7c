"""Output checks that count failures, and the summary rule for timings."""

from __future__ import annotations

import dataclasses
import math
import numbers
import statistics

import numpy as np


def diff_records(expected, actual, path="cell", limit=5) -> list[str]:
    """Paths at which two records differ, compared field by field and element
    by element for exact equality (at most ``limit`` of them).

    A numeric sequence compares equal whether it is held as a tuple, a list or
    an ndarray, so the check survives a change of the record's storage type.
    """
    out: list[str] = []
    _diff(expected, actual, path, out, limit)
    return out


def _numeric_seq(x) -> bool:
    if isinstance(x, np.ndarray):
        return x.dtype.kind in "fiub"
    return isinstance(x, (tuple, list)) and all(_number(v) for v in x)


def _diff(a, b, path, out, limit):
    if len(out) >= limit:
        return
    if type(a) is type(b):
        try:
            if a == b:  # exact; tuples of floats and dataclasses compare in C
                return
        except ValueError:  # ndarray truth value: compare element by element below
            pass
    if dataclasses.is_dataclass(a) and dataclasses.is_dataclass(b):
        if type(a) is not type(b):
            out.append(f"{path}: type {type(a).__name__} != {type(b).__name__}")
            return
        for f in dataclasses.fields(a):
            _diff(getattr(a, f.name), getattr(b, f.name), f"{path}.{f.name}", out, limit)
    elif isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b), key=str):
            if key not in a or key not in b:
                out.append(f"{path}[{key!r}]: present on one side only")
            else:
                _diff(a[key], b[key], f"{path}[{key!r}]", out, limit)
    elif _numeric_seq(a) and _numeric_seq(b):
        x, y = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        if x.shape != y.shape:
            out.append(f"{path}: shape {x.shape} != {y.shape}")
        elif not np.array_equal(x, y, equal_nan=True):
            i = int(np.flatnonzero(~((x == y) | (np.isnan(x) & np.isnan(y))))[0])
            out.append(f"{path}[{i}]: {float(x.flat[i])!r} != {float(y.flat[i])!r}")
    elif isinstance(a, (tuple, list, np.ndarray)) and isinstance(b, (tuple, list, np.ndarray)):
        if len(a) != len(b):
            out.append(f"{path}: length {len(a)} != {len(b)}")
            return
        for i, (x, y) in enumerate(zip(a, b)):
            _diff(x, y, f"{path}[{i}]", out, limit)
    elif _number(a) and _number(b):
        if not (a == b or (math.isnan(a) and math.isnan(b))):
            out.append(f"{path}: {a!r} != {b!r}")
    elif type(a) is not type(b) or a != b:
        out.append(f"{path}: {a!r} != {b!r}")


def _number(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


class OpFailed(Exception):
    """Raised after an operation's failure has been counted, to stop its sequence."""


class Ops:
    """Counts operations attempted (public calls and output checks) and failed.

    A failed check or a raised exception adds one failure with the operation's
    name and error class; the run goes on with its next sequence.
    """

    def __init__(self):
        self.attempted = 0
        self.failures: list[dict] = []

    def call(self, name, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # counted and reported, never swallowed silently
            self.failures.append(
                {"op": name, "error": type(exc).__name__, "detail": str(exc)[:300]})
            raise OpFailed(name) from exc

    def check(self, name, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append({"op": name, "error": "OutputMismatch", "detail": detail[:300]})
        return ok

    def merge(self, attempted: int, failures: list[dict]):
        self.attempted += attempted
        self.failures.extend(failures)


def summarize(values) -> dict:
    """Median of ``values`` with its sample count, plus the highest of the
    p90/p99/p99.9 percentiles that has at least ten samples beyond it (None
    when there are too few samples for any)."""
    values = sorted(values)
    n = len(values)
    out = {"median": statistics.median(values) if n else None, "n": n,
           "percentile": None, "value_at_percentile": None}
    for p in (99.9, 99.0, 90.0):
        if n * (100.0 - p) / 100.0 >= 10:
            out["percentile"] = p
            out["value_at_percentile"] = values[min(n - 1, math.ceil(n * p / 100.0) - 1)]
            break
    return out

"""Train/test partitioning of battery cells.

Splitters operate on cell identifiers. Random splits are deterministic
given a seed; a fixed split is a JSON file of ID lists that the user writes
over a preprocessed corpus, so a dataset composition is reproducible byte
for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .battery_data import json_document, read_file
from .errors import SplitError
from .registry import integer, number

__all__ = [
    "SplitResult",
    "BaseTrainTestSplitter",
    "RandomTrainTestSplitter",
    "ExplicitTrainTestSplitter",
    "FixedSplitTrainTestSplitter",
]


def _cell_ids(name: str, ids) -> tuple[str, ...]:
    """``ids`` as a tuple when it is a list or tuple of strings; a
    :class:`SplitError` naming ``name`` otherwise."""
    if not isinstance(ids, (list, tuple)) or not all(isinstance(c, str) for c in ids):
        raise SplitError(f"{name} must be a list of strings")
    return tuple(ids)


@dataclass(frozen=True)
class SplitResult:
    """A partition of cell identifiers plus optional dataset metadata.

    ``metadata`` may carry task overrides consumed downstream, e.g.
    ``{"eol_soh": 90, "observed_cycles": 20}`` for early-prediction setups.
    """

    train_cell_ids: tuple[str, ...]
    test_cell_ids: tuple[str, ...]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        overlap = set(self.train_cell_ids) & set(self.test_cell_ids)
        if overlap:
            raise SplitError(f"cells in both train and test: {sorted(overlap)}")
        if not self.train_cell_ids:
            raise SplitError("empty train partition")
        if not self.test_cell_ids:
            raise SplitError("empty test partition")

    def to_dict(self) -> dict:
        return {
            "train": list(self.train_cell_ids),
            "test": list(self.test_cell_ids),
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SplitResult":
        if not isinstance(payload, dict):
            raise SplitError("split payload must be an object")
        for key in ("train", "test"):
            if key not in payload:
                raise SplitError(f"split payload missing {key!r} list")
        metadata = payload.get("metadata", {})
        if not isinstance(metadata, dict):
            raise SplitError("split payload 'metadata' must be an object")
        return cls(
            train_cell_ids=_cell_ids("split payload 'train'", payload["train"]),
            test_cell_ids=_cell_ids("split payload 'test'", payload["test"]),
            metadata=metadata,
        )


class BaseTrainTestSplitter:
    """Interface: map available cell IDs to a train/test partition."""

    def split(self, cell_ids: Sequence[str]) -> SplitResult:
        raise NotImplementedError


class RandomTrainTestSplitter(BaseTrainTestSplitter):
    """Random partition; test count is floor(n * test_fraction), at least 1,
    drawn from ``default_rng(seed)``; ``test_fraction`` is a number in (0, 1)."""

    def __init__(self, test_fraction: float = 0.2, seed: int = 0):
        self.test_fraction = number("test_fraction", test_fraction, gt=0, lt=1)
        self.seed = integer("seed", seed)

    def split(self, cell_ids: Sequence[str]) -> SplitResult:
        ids = sorted(cell_ids)
        if len(ids) != len(set(ids)):
            raise SplitError("duplicate cell ids")
        if len(ids) < 2:
            raise SplitError(f"need at least 2 cells to split, got {len(ids)}")
        n_test = max(1, int(len(ids) * self.test_fraction))
        if n_test >= len(ids):
            n_test = len(ids) - 1
        rng = np.random.default_rng(self.seed)
        perm = rng.permutation(len(ids))
        test = tuple(sorted(ids[i] for i in perm[:n_test]))
        train = tuple(sorted(ids[i] for i in perm[n_test:]))
        return SplitResult(train_cell_ids=train, test_cell_ids=test)


class ExplicitTrainTestSplitter(BaseTrainTestSplitter):
    """Partition given directly as two lists (or tuples) of cell IDs.

    Every listed cell must be present in the corpus; corpus cells not
    listed are dropped from the experiment.
    """

    def __init__(self, train_ids: Sequence[str], test_ids: Sequence[str],
                 metadata: dict | None = None):
        self._result = SplitResult(
            train_cell_ids=_cell_ids("train_ids", train_ids),
            test_cell_ids=_cell_ids("test_ids", test_ids),
            metadata=dict(metadata or {}),
        )

    def split(self, cell_ids: Sequence[str]) -> SplitResult:
        available = set(cell_ids)
        missing = [c for c in self._result.train_cell_ids + self._result.test_cell_ids
                   if c not in available]
        if missing:
            raise SplitError(f"cells listed in split but absent from corpus: {missing}")
        return self._result


class FixedSplitTrainTestSplitter(ExplicitTrainTestSplitter):
    """Partition loaded from a JSON file {train: [...], test: [...], metadata: {...}}."""

    def __init__(self, path: str | Path):
        result = read_file(path, SplitError, lambda data: SplitResult.from_dict(json_document(data)))
        super().__init__(result.train_cell_ids, result.test_cell_ids, result.metadata)


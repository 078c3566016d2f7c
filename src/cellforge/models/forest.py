"""CART regression trees and a bagged random forest.

Splits minimize the summed child squared error (equivalently, maximize the
variance reduction), computed with prefix sums over the sorted values of all
candidate features at once. Candidate thresholds are midpoints between
consecutive distinct values; ties are broken toward the lowest feature index
and then the lowest threshold, which makes tree construction fully
deterministic given the node RNG.

Each forest tree k draws its bootstrap sample and its per-split feature
subsets from an independent ``default_rng(seed + k)``.

A fitted tree or forest is one :class:`_NodeTable` of all its trees' nodes,
saved as the five blocks ``feature``, ``threshold``, ``right``, ``value``
and ``tree_start`` (int32, float64, int32, float64, int32).
"""

from __future__ import annotations

import numpy as np

from ..errors import CheckpointError
from .base import BaseRegressor, param_block


class _TreeLists:
    """One tree's nodes in preorder while it grows: feature < 0 marks a leaf
    holding ``value``; a split's left child is the next node and ``right``
    holds the index of its right child."""

    __slots__ = ("feature", "threshold", "right", "value")

    def __init__(self):
        self.feature, self.threshold, self.right, self.value = [], [], [], []

    def add(self, feature: int, threshold: float, value: float) -> int:
        self.feature.append(feature)
        self.threshold.append(threshold)
        self.right.append(-1)
        self.value.append(value)
        return len(self.feature) - 1


class _NodeTable:
    """Every tree's nodes in one preorder table of parallel arrays, the
    layout of scikit-learn's ``Tree`` with the trees laid end to end.

    Tree k is nodes ``tree_start[k]:tree_start[k + 1]``. ``feature`` is -1
    at a leaf, which predicts ``value``; a split sends ``x[feature] <=
    threshold`` to the next node and the rest to ``right``, an index local
    to its tree. Leaves store ``right`` -1 and splits ``value`` 0.
    """

    def __init__(self, feature, threshold, right, value, tree_start):
        self.feature, self.threshold, self.right, self.value = feature, threshold, right, value
        self.tree_start = tree_start
        # each node's right child as an index into the whole table
        self._right = right + np.repeat(tree_start[:-1], np.diff(tree_start)).astype(np.intp)

    @classmethod
    def join(cls, trees):
        def column(name, dtype):
            return np.array([v for tree in trees for v in getattr(tree, name)], dtype=dtype)

        sizes = [len(tree.feature) for tree in trees]
        return cls(column("feature", np.int32), column("threshold", np.float64),
                   column("right", np.int32), column("value", np.float64),
                   np.concatenate([[0], np.cumsum(sizes)]).astype(np.int32))

    def tree(self, k: int) -> "_NodeTable":
        """Tree k alone, as a one-tree table of views."""
        a, b = self.tree_start[k], self.tree_start[k + 1]
        return _NodeTable(self.feature[a:b], self.threshold[a:b], self.right[a:b],
                          self.value[a:b], np.array([0, b - a], dtype=np.int32))

    def predict(self, X: np.ndarray) -> np.ndarray:
        """The mean over the trees of each row's leaf value: every tree
        walks at once over an (n_trees, n_rows) array of node indices."""
        rows = np.arange(X.shape[0])
        node = np.repeat(self.tree_start[:-1, None].astype(np.intp), X.shape[0], axis=1)
        while True:
            feat = self.feature[node]
            internal = feat >= 0
            if not internal.any():
                break
            go_left = X[rows, np.where(internal, feat, 0)] <= self.threshold[node]
            node = np.where(internal, np.where(go_left, node + 1, self._right[node]), node)
        return self.value[node].mean(axis=0)

    def blocks(self):
        return [("feature", self.feature), ("threshold", self.threshold), ("right", self.right),
                ("value", self.value), ("tree_start", self.tree_start)]

    @classmethod
    def from_blocks(cls, blocks, n_trees: int, n_features: int) -> "_NodeTable":
        """The table the blocks hold, checked so that every walk moves
        forward inside its own tree and reads a feature the model has."""
        if "tree0_feature" in blocks:
            raise CheckpointError("stores one block set per tree, a layout of older versions; "
                                  "train the model again")
        n = blocks["feature"].size
        feature = param_block(blocks, "feature", (n,), "<i4")
        threshold = param_block(blocks, "threshold", (n,))
        right = param_block(blocks, "right", (n,), "<i4")
        value = param_block(blocks, "value", (n,))
        start = param_block(blocks, "tree_start", (n_trees + 1,), "<i4")
        sizes = np.diff(start)
        if start[0] != 0 or start[-1] != n or (sizes <= 0).any():
            raise CheckpointError(f"'tree_start' must rise strictly from 0 to the node count {n}")
        if ((feature < -1) | (feature >= n_features)).any():
            raise CheckpointError(f"'feature' holds an index outside -1 and [0, {n_features})")
        split = feature >= 0
        local = (np.arange(n) - np.repeat(start[:-1], sizes))[split]
        child = right[split]
        if ((child <= local + 1) | (child >= np.repeat(sizes, sizes)[split])).any():
            raise CheckpointError("a split's 'right' child must follow its left child "
                                  "inside its own tree")
        return cls(feature, threshold, right, value, start)


def _best_split(X, y, candidates, min_samples_leaf):
    """Lowest-SSE split over the candidate features; None when no valid one.

    Returns (sse, feature, threshold, left_mask). Column j of every array
    below belongs to feature ``candidates[j]``; row i is the split after the
    (i+1)-th smallest value.
    """
    n = len(y)
    xs = X[:, candidates]
    order = np.argsort(xs, axis=0, kind="stable")
    x_sorted = np.take_along_axis(xs, order, axis=0)
    y_sorted = y[order]
    cum = np.cumsum(y_sorted, axis=0)
    cum2 = np.cumsum(y_sorted * y_sorted, axis=0)
    sizes = np.arange(1, n)[:, None]  # left child sizes
    distinct = x_sorted[1:] > x_sorted[:-1]
    valid = distinct & (sizes >= min_samples_leaf) & (n - sizes >= min_samples_leaf)
    if not valid.any():
        return None
    left_sum = cum[:-1]
    left_sq = cum2[:-1]
    sse_left = left_sq - left_sum * left_sum / sizes
    right_sum = cum[-1] - left_sum
    right_sq = cum2[-1] - left_sq
    sse_right = right_sq - right_sum * right_sum / (n - sizes)
    sse = np.where(valid, sse_left + sse_right, np.inf)
    # the first minimum of the transpose: lowest feature, then lowest threshold
    j, i = divmod(int(np.argmin(sse.T)), n - 1)
    f = int(candidates[j])
    thr = 0.5 * (x_sorted[i, j] + x_sorted[i + 1, j])
    return float(sse[i, j]), f, thr, X[:, f] <= thr


def _grow(tree, X, y, rng, depth, max_depth, min_samples_leaf, n_candidates):
    n, d = X.shape
    if (
        n < 2 * min_samples_leaf
        or n < 2
        or (max_depth is not None and depth >= max_depth)
        or np.all(y == y[0])
    ):
        tree.add(-1, 0.0, float(y.mean()))
        return
    if n_candidates < d:
        candidates = np.sort(rng.choice(d, size=n_candidates, replace=False))
    else:
        candidates = np.arange(d)
    found = _best_split(X, y, candidates, min_samples_leaf)
    if found is None:
        tree.add(-1, 0.0, float(y.mean()))
        return
    _, feature, threshold, left_mask = found
    idx = tree.add(feature, threshold, 0.0)
    # left subtree is built first: node ids are preorder and RNG consumption
    # is depth-first, both deterministic
    _grow(tree, X[left_mask], y[left_mask], rng, depth + 1, max_depth, min_samples_leaf, n_candidates)
    tree.right[idx] = len(tree.feature)
    _grow(tree, X[~left_mask], y[~left_mask], rng, depth + 1, max_depth, min_samples_leaf, n_candidates)


def _build_tree(X, y, rng, max_depth, min_samples_leaf, feature_subsample_fraction):
    d = X.shape[1]
    n_candidates = max(1, int(np.ceil(feature_subsample_fraction * d)))
    tree = _TreeLists()
    _grow(tree, X, y, rng, 0, max_depth, min_samples_leaf, n_candidates)
    return tree


class _TreeModel(BaseRegressor):
    """Prediction and checkpoint blocks shared by the tree and the forest,
    whose fitted state is one :class:`_NodeTable` in ``nodes_``."""

    def _predict(self, X):
        return self.nodes_.predict(X)

    def _param_blocks(self):
        return self.nodes_.blocks()

    @property
    def trees_(self):
        """Each tree as a one-tree table of views."""
        return [self.nodes_.tree(k) for k in range(len(self.nodes_.tree_start) - 1)]


class DecisionTreeRegressor(_TreeModel):
    """A single CART tree (no bootstrap); the forest's building block."""

    kind = "tree"

    def __init__(self, max_depth=None, min_samples_leaf: int = 1,
                 feature_subsample_fraction: float = 1.0, seed: int = 0):
        super().__init__()
        _check_forest_params(max_depth, min_samples_leaf, feature_subsample_fraction)
        self.max_depth = max_depth
        self.min_samples_leaf = int(min_samples_leaf)
        self.feature_subsample_fraction = float(feature_subsample_fraction)
        self.seed = int(seed)

    def _fit(self, X, y):
        rng = np.random.default_rng(self.seed)
        self.nodes_ = _NodeTable.join([_build_tree(
            X, y, rng, self.max_depth, self.min_samples_leaf, self.feature_subsample_fraction
        )])

    def _restore_blocks(self, blocks):
        self.nodes_ = _NodeTable.from_blocks(blocks, 1, self.n_features_)


def _check_forest_params(max_depth, min_samples_leaf, feature_subsample_fraction):
    if max_depth is not None and max_depth < 0:
        raise ValueError("max_depth must be None or >= 0")
    if min_samples_leaf < 1:
        raise ValueError("min_samples_leaf must be >= 1")
    if not 0.0 < feature_subsample_fraction <= 1.0:
        raise ValueError("feature_subsample_fraction must be in (0, 1]")


class RandomForestRegressor(_TreeModel):
    """Bagged CART trees; the prediction is the exact mean over trees."""

    kind = "random_forest"

    def __init__(
        self,
        n_trees: int = 100,
        max_depth=None,
        min_samples_leaf: int = 1,
        feature_subsample_fraction: float = 1.0,
        seed: int = 0,
    ):
        super().__init__()
        if n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        _check_forest_params(max_depth, min_samples_leaf, feature_subsample_fraction)
        self.n_trees = int(n_trees)
        self.max_depth = max_depth
        self.min_samples_leaf = int(min_samples_leaf)
        self.feature_subsample_fraction = float(feature_subsample_fraction)
        self.seed = int(seed)

    def _fit_one(self, X, y, k):
        rng = np.random.default_rng(self.seed + k)
        idx = rng.integers(0, X.shape[0], X.shape[0])  # bootstrap sample
        return _build_tree(
            X[idx], y[idx], rng, self.max_depth, self.min_samples_leaf,
            self.feature_subsample_fraction,
        )

    def _fit(self, X, y):
        self.nodes_ = _NodeTable.join([self._fit_one(X, y, k) for k in range(self.n_trees)])

    def _restore_blocks(self, blocks):
        self.nodes_ = _NodeTable.from_blocks(blocks, self.n_trees, self.n_features_)

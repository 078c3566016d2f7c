"""CART regression trees and a bagged random forest.

Splits minimize the summed child squared error (equivalently, maximize the
variance reduction), computed with prefix sums over the sorted values of all
candidate features at once. Candidate thresholds are midpoints between
consecutive distinct values; ties are broken toward the lowest feature index
and then the lowest threshold, which makes tree construction fully
deterministic given the node RNG.

Each forest tree k draws its bootstrap sample and its per-split feature
subsets from an independent ``default_rng(seed + k)``.

A fitted tree or forest is one :class:`_NodeTable` of all its trees' nodes
in preorder, saved as the four blocks ``feature`` (int32, -1 at a leaf),
``values`` (float64, each distinct node value once: a split's threshold or
a leaf's prediction), ``value_code`` (int32, each node's index into
``values``) and ``tree_start`` (int32, n_trees + 1 offsets). The container
stores each integer block at its narrowest width, so a node of a forest
with at most 32768 features and 256 distinct values takes 3 bytes. A
split's right child is not stored; loading derives it and checks that each
tree is one complete tree ending at its bound.
"""

from __future__ import annotations

import numpy as np

from ..errors import CheckpointError
from ..registry import integer, number
from .base import BaseRegressor, param_block


def _levels(feature):
    """Splits minus leaves before each node in preorder, and after the last."""
    return np.concatenate([[0], np.cumsum(np.where(feature >= 0, 1, -1))])


class _NodeTable:
    """Every tree's nodes in one preorder table of parallel arrays, the
    layout of scikit-learn's ``Tree`` with the trees laid end to end.

    Tree k is nodes ``tree_start[k]:tree_start[k + 1]``. ``feature`` is -1
    at a leaf and ``value`` holds a leaf's prediction or a split's
    threshold, one field for both as in XGBoost's ``RegTree::Node``. A
    split sends ``x[feature] <= value`` to the next node and the rest to
    its right child, which is not stored: preorder puts it right after the
    left child's subtree, and ``right`` (an index into the whole table, -1
    at a leaf) is derived from ``feature`` alone.
    """

    def __init__(self, feature, value, tree_start):
        self.feature, self.value, self.tree_start = feature, value, tree_start
        # a split's left subtree starts one level up and ends where the level
        # first falls back, so the next node at a split's level is its right child
        level = _levels(feature)[:-1]
        order = np.argsort(level, kind="stable")  # by level, then by position
        same = level[order[:-1]] == level[order[1:]]
        next_at_level = np.full(len(feature), -1, dtype=np.intp)
        next_at_level[order[:-1][same]] = order[1:][same]
        self.right = np.where(feature >= 0, next_at_level, -1)

    @classmethod
    def join(cls, trees):
        """The table of trees given as (feature, value) lists in preorder."""
        sizes = [len(feature) for feature, _ in trees]
        return cls(np.array([f for feature, _ in trees for f in feature], dtype=np.int32),
                   np.array([v for _, value in trees for v in value], dtype=np.float64),
                   np.concatenate([[0], np.cumsum(sizes)]).astype(np.int32))

    def tree(self, k: int) -> "_NodeTable":
        """Tree k alone, as a one-tree table of views."""
        a, b = self.tree_start[k], self.tree_start[k + 1]
        return _NodeTable(self.feature[a:b], self.value[a:b], np.array([0, b - a], dtype=np.int32))

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
            go_left = X[rows, np.where(internal, feat, 0)] <= self.value[node]
            node = np.where(internal, np.where(go_left, node + 1, self.right[node]), node)
        return self.value[node].mean(axis=0)

    def blocks(self):
        """The saved blocks; values are told apart by their bytes, so that
        ``-0.0`` and ``0.0`` stay distinct."""
        bits, code = np.unique(self.value.view("<u8"), return_inverse=True)
        return [("feature", self.feature), ("values", bits.view("<f8")),
                ("value_code", code.astype(np.int32)), ("tree_start", self.tree_start)]

    @classmethod
    def from_blocks(cls, blocks, n_trees: int, n_features: int) -> "_NodeTable":
        """The table the blocks hold, checked so that each tree is one
        complete tree ending at its bound and reads features the model has;
        every walk then moves forward inside its own tree to a leaf."""
        if "tree0_feature" in blocks:
            raise CheckpointError("stores one block set per tree, a layout of older versions; "
                                  "train the model again")
        if "right" in blocks or "threshold" in blocks:
            raise CheckpointError("stores separate 'threshold', 'value' and 'right' blocks, "
                                  "a layout of older versions; train the model again")
        if "value" in blocks:
            raise CheckpointError("stores one 'value' per node, a layout of older versions; "
                                  "train the model again")
        n = blocks["feature"].size
        feature = param_block(blocks, "feature", (n,), "<i4")
        values = param_block(blocks, "values", (blocks["values"].size,))
        code = param_block(blocks, "value_code", (n,), "<i4")
        start = param_block(blocks, "tree_start", (n_trees + 1,), "<i4")
        if ((code < 0) | (code >= values.size)).any():
            raise CheckpointError(f"'value_code' holds an index outside [0, {values.size})")
        sizes = np.diff(start)
        if start[0] != 0 or start[-1] != n or (sizes <= 0).any():
            raise CheckpointError(f"'tree_start' must rise strictly from 0 to the node count {n}")
        if ((feature < -1) | (feature >= n_features)).any():
            raise CheckpointError(f"'feature' holds an index outside -1 and [0, {n_features})")
        # counted from a tree's first node, the level stays >= 0 inside a
        # complete tree and is -1 at its bound
        level = _levels(feature)
        first = level[start[:-1]]
        inside = level[:-1] - np.repeat(first, sizes)
        bad = (np.minimum.reduceat(inside, start[:-1]) < 0) | (level[start[1:]] - first != -1)
        if bad.any():
            k = int(np.argmax(bad))
            a, b = start[k], start[k + 1]
            if (inside[a:b] >= 0).all():
                raise CheckpointError(f"tree {k} is not complete at its 'tree_start' bound {b}: "
                                      "a split lacks a child")
            node = a + int(np.argmax(inside[a:b] < 0)) - 1
            raise CheckpointError(f"tree {k} is complete at node {node}, before its "
                                  f"'tree_start' bound {b}")
        return cls(feature, values[code], start)


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
    """Append the subtree that fits (X, y) to the preorder lists ``tree``,
    a (feature, value) pair."""
    feature, value = tree
    n, d = X.shape
    found = None
    if not (
        n < 2 * min_samples_leaf
        or n < 2
        or (max_depth is not None and depth >= max_depth)
        or np.all(y == y[0])
    ):
        if n_candidates < d:
            candidates = np.sort(rng.choice(d, size=n_candidates, replace=False))
        else:
            candidates = np.arange(d)
        found = _best_split(X, y, candidates, min_samples_leaf)
    if found is None:
        feature.append(-1)
        value.append(float(y.mean()))
        return
    _, f, threshold, left_mask = found
    feature.append(f)
    value.append(threshold)
    # left subtree is built first: node ids are preorder and RNG consumption
    # is depth-first, both deterministic
    _grow(tree, X[left_mask], y[left_mask], rng, depth + 1, max_depth, min_samples_leaf, n_candidates)
    _grow(tree, X[~left_mask], y[~left_mask], rng, depth + 1, max_depth, min_samples_leaf, n_candidates)


class _TreeModel(BaseRegressor):
    """The constructor, fit over trees, prediction and checkpoint blocks shared
    by the tree and the forest, whose fitted state is one :class:`_NodeTable`
    in ``nodes_``. Tree k draws from ``default_rng(seed + k)`` and grows on the
    rows :meth:`_rows` picks. ``max_depth`` is None or an integer >= 0,
    ``min_samples_leaf`` >= 1, ``feature_subsample_fraction`` a number in (0, 1]."""

    n_trees = 1

    def __init__(self, max_depth=None, min_samples_leaf: int = 1,
                 feature_subsample_fraction: float = 1.0, seed: int = 0):
        super().__init__()
        self.max_depth = None if max_depth is None else integer("max_depth", max_depth)
        self.min_samples_leaf = integer("min_samples_leaf", min_samples_leaf, 1)
        self.feature_subsample_fraction = number(
            "feature_subsample_fraction", feature_subsample_fraction, gt=0, le=1)
        self.seed = integer("seed", seed)

    def _rows(self, rng, n: int):
        return slice(None)

    def _fit(self, X, y):
        n_candidates = max(1, int(np.ceil(self.feature_subsample_fraction * X.shape[1])))
        trees = []
        for k in range(self.n_trees):
            rng = np.random.default_rng(self.seed + k)
            rows = self._rows(rng, X.shape[0])
            tree = ([], [])
            _grow(tree, X[rows], y[rows], rng, 0, self.max_depth, self.min_samples_leaf, n_candidates)
            trees.append(tree)
        self.nodes_ = _NodeTable.join(trees)

    def _restore_blocks(self, blocks):
        self.nodes_ = _NodeTable.from_blocks(blocks, self.n_trees, self.n_features_)

    def _predict(self, X):
        return self.nodes_.predict(X)

    def _param_blocks(self):
        return self.nodes_.blocks()

    @property
    def trees_(self):
        """Each tree as a one-tree table of views."""
        return [self.nodes_.tree(k) for k in range(self.n_trees)]


class DecisionTreeRegressor(_TreeModel):
    """A single CART tree grown on every row; the forest's building block."""

    kind = "tree"


class RandomForestRegressor(_TreeModel):
    """Bagged CART trees, each grown on a bootstrap sample of the rows; the
    prediction is the exact mean over trees. ``n_trees`` is an integer >= 1."""

    kind = "random_forest"

    def __init__(self, n_trees: int = 100, max_depth=None, min_samples_leaf: int = 1,
                 feature_subsample_fraction: float = 1.0, seed: int = 0):
        super().__init__(max_depth, min_samples_leaf, feature_subsample_fraction, seed)
        self.n_trees = integer("n_trees", n_trees, 1)

    def _rows(self, rng, n: int):
        return rng.integers(0, n, n)  # bootstrap sample

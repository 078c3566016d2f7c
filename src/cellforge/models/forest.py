"""CART regression trees and a bagged random forest.

Splits minimize the summed child squared error (equivalently, maximize the
variance reduction), computed with prefix sums over the sorted values of all
candidate features at once. Candidate thresholds are midpoints between
consecutive distinct values; ties are broken toward the lowest feature index
and then the lowest threshold, which makes tree construction fully
deterministic given the node RNG.

Each forest tree k draws its bootstrap sample and its per-split feature
subsets from an independent ``default_rng(seed + k)``.
"""

from __future__ import annotations

import numpy as np

from .base import BaseRegressor


class _TreeArrays:
    """Flat node storage: feature < 0 marks a leaf holding ``value``."""

    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self):
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []

    def add_leaf(self, value: float) -> int:
        idx = len(self.feature)
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(value)
        return idx

    def add_split(self, feature: int, threshold: float) -> int:
        idx = len(self.feature)
        self.feature.append(feature)
        self.threshold.append(threshold)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        return idx

    def finalize(self):
        self.feature = np.asarray(self.feature, dtype=np.int64)
        self.threshold = np.asarray(self.threshold)
        self.left = np.asarray(self.left, dtype=np.int64)
        self.right = np.asarray(self.right, dtype=np.int64)
        self.value = np.asarray(self.value)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        node = np.zeros(X.shape[0], dtype=np.int64)
        while True:
            feat = self.feature[node]
            internal = feat >= 0
            if not internal.any():
                break
            safe = np.where(internal, feat, 0)
            go_left = X[np.arange(X.shape[0]), safe] <= self.threshold[node]
            nxt = np.where(go_left, self.left[node], self.right[node])
            node = np.where(internal, nxt, node)
        return self.value[node].copy()


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
        return tree.add_leaf(float(y.mean()))
    if n_candidates < d:
        candidates = np.sort(rng.choice(d, size=n_candidates, replace=False))
    else:
        candidates = np.arange(d)
    found = _best_split(X, y, candidates, min_samples_leaf)
    if found is None:
        return tree.add_leaf(float(y.mean()))
    _, feature, threshold, left_mask = found
    idx = tree.add_split(feature, threshold)
    # left subtree is built first: node ids are preorder and RNG consumption
    # is depth-first, both deterministic
    left_id = _grow(tree, X[left_mask], y[left_mask], rng, depth + 1, max_depth, min_samples_leaf, n_candidates)
    right_id = _grow(tree, X[~left_mask], y[~left_mask], rng, depth + 1, max_depth, min_samples_leaf, n_candidates)
    tree.left[idx] = left_id
    tree.right[idx] = right_id
    return idx


def _build_tree(X, y, rng, max_depth, min_samples_leaf, feature_subsample_fraction):
    d = X.shape[1]
    n_candidates = max(1, int(np.ceil(feature_subsample_fraction * d)))
    tree = _TreeArrays()
    _grow(tree, X, y, rng, 0, max_depth, min_samples_leaf, n_candidates)
    return tree.finalize()


class DecisionTreeRegressor(BaseRegressor):
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
        self.tree_ = _build_tree(
            X, y, rng, self.max_depth, self.min_samples_leaf, self.feature_subsample_fraction
        )

    def _predict(self, X):
        return self.tree_.predict(X)

    def _param_blocks(self):
        return _tree_blocks("tree0", self.tree_)

    def _restore_blocks(self, blocks):
        self.tree_ = _tree_from_blocks("tree0", blocks)


def _check_forest_params(max_depth, min_samples_leaf, feature_subsample_fraction):
    if max_depth is not None and max_depth < 0:
        raise ValueError("max_depth must be None or >= 0")
    if min_samples_leaf < 1:
        raise ValueError("min_samples_leaf must be >= 1")
    if not 0.0 < feature_subsample_fraction <= 1.0:
        raise ValueError("feature_subsample_fraction must be in (0, 1]")


def _tree_blocks(prefix, tree):
    return [
        (f"{prefix}_feature", tree.feature.astype(float)),
        (f"{prefix}_threshold", tree.threshold.astype(float)),
        (f"{prefix}_left", tree.left.astype(float)),
        (f"{prefix}_right", tree.right.astype(float)),
        (f"{prefix}_value", tree.value.astype(float)),
    ]


def _tree_from_blocks(prefix, blocks):
    tree = _TreeArrays()
    tree.feature = blocks[f"{prefix}_feature"].astype(np.int64)
    tree.threshold = blocks[f"{prefix}_threshold"]
    tree.left = blocks[f"{prefix}_left"].astype(np.int64)
    tree.right = blocks[f"{prefix}_right"].astype(np.int64)
    tree.value = blocks[f"{prefix}_value"]
    return tree


class RandomForestRegressor(BaseRegressor):
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
        self.trees_ = [self._fit_one(X, y, k) for k in range(self.n_trees)]

    def _predict(self, X):
        preds = np.stack([t.predict(X) for t in self.trees_])
        return preds.mean(axis=0)

    def _param_blocks(self):
        blocks = []
        for k, tree in enumerate(self.trees_):
            blocks.extend(_tree_blocks(f"tree{k}", tree))
        return blocks

    def _restore_blocks(self, blocks):
        self.trees_ = [_tree_from_blocks(f"tree{k}", blocks) for k in range(self.n_trees)]

"""Closed-form regressors: mean baseline, OLS, ridge, PCR, PLSR.

All solvers go through orthogonal decompositions (numpy lstsq/SVD) or, for
PLSR, one closed-form weight vector per component; none of them iterate.
"""

from __future__ import annotations

import numpy as np

from ..errors import CheckpointError, ModelError
from ..registry import integer, number
from .base import BaseRegressor, param_block


class DummyRegressor(BaseRegressor):
    """Predicts the training-label mean; the baseline every model must beat."""

    kind = "dummy"

    def _fit(self, X, y):
        self.mean_ = float(y.mean())

    def _predict(self, X):
        return np.full(X.shape[0], self.mean_)

    def _param_blocks(self):
        return [("mean", np.array([self.mean_]))]

    def _restore_blocks(self, blocks):
        self.mean_ = float(param_block(blocks, "mean", (1,))[0])


class _AffineRegressor(BaseRegressor):
    """Shared prediction and checkpoint blocks of the models that fit
    ``coef_`` and ``intercept_`` (blocks stored in that order)."""

    def _predict(self, X):
        return X @ self.coef_ + self.intercept_

    def _param_blocks(self):
        return [("coef", self.coef_), ("intercept", np.array([self.intercept_]))]

    def _restore_blocks(self, blocks):
        self.coef_ = param_block(blocks, "coef", (self.n_features_,))
        self.intercept_ = float(param_block(blocks, "intercept", (1,))[0])


class LinearRegressor(_AffineRegressor):
    """Ordinary least squares via SVD-based lstsq (minimum-norm on singular
    systems, with ``metadata['rank_deficient']`` flagging that fallback)."""

    kind = "linear"

    def _fit(self, X, y):
        A = np.hstack([np.ones((X.shape[0], 1)), X])
        sol, _, rank, _ = np.linalg.lstsq(A, y, rcond=None)
        self.intercept_ = float(sol[0])
        self.coef_ = sol[1:]
        if rank < A.shape[1]:
            self.metadata["rank_deficient"] = True


class RidgeRegressor(_AffineRegressor):
    """L2-penalized least squares with an unpenalized intercept.

    Solved as the augmented system ``[[Xc], [sqrt(alpha) I]] w = [[yc], [0]]``
    on centered data; ``alpha`` is a finite number >= 0, and 0 is exactly OLS.
    """

    kind = "ridge"

    def __init__(self, alpha: float = 1.0):
        super().__init__()
        self.alpha = number("alpha", alpha, ge=0)

    def _fit(self, X, y):
        x_mean = X.mean(axis=0)
        y_mean = y.mean()
        Xc = X - x_mean
        yc = y - y_mean
        d = X.shape[1]
        A = np.vstack([Xc, np.sqrt(self.alpha) * np.eye(d)])
        b = np.concatenate([yc, np.zeros(d)])
        self.coef_, _, _, _ = np.linalg.lstsq(A, b, rcond=None)
        self.intercept_ = float(y_mean - x_mean @ self.coef_)


def _check_components(n_components, X):
    # the centred X has rank at most n_samples - 1; a component past it fits rounding noise
    bound = min(X.shape[0] - 1, X.shape[1])
    if n_components > bound:
        raise ModelError(
            f"n_components={n_components} exceeds min(n_samples - 1, n_features)={bound}"
        )


class PCRRegressor(_AffineRegressor):
    """Principal component regression: center X, project onto the top-k right
    singular vectors, regress y on the scores. ``n_components`` is an
    integer from 1 to min(n_samples - 1, n_features)."""

    kind = "pcr"

    def __init__(self, n_components: int = 1):
        super().__init__()
        self.n_components = integer("n_components", n_components, 1)

    def _fit(self, X, y):
        _check_components(self.n_components, X)
        x_mean = X.mean(axis=0)
        Xc = X - x_mean
        _, _, vt = np.linalg.svd(Xc, full_matrices=False)
        components = vt[: self.n_components]
        scores = Xc @ components.T
        gamma, _, _, _ = np.linalg.lstsq(scores, y - y.mean(), rcond=None)
        self.coef_ = components.T @ gamma
        self.intercept_ = float(y.mean() - x_mean @ self.coef_)


class PLSRegressor(BaseRegressor):
    """Partial least squares (PLS1) with deflation on X only.

    Each component's weight vector is ``X'y / ||X'y||`` on the deflated X:
    with one target, NIPALS's inner power loop returns that vector after one
    step in exact arithmetic, so it is computed directly. The final
    regression vector is ``W (P'W)^-1 q`` on centered data. ``n_components``
    is an integer from 1 to min(n_samples - 1, n_features).
    """

    kind = "plsr"

    def __init__(self, n_components: int = 1):
        super().__init__()
        self.n_components = integer("n_components", n_components, 1)

    def _fit(self, X, y):
        _check_components(self.n_components, X)
        d = X.shape[1]
        self.x_mean_ = X.mean(axis=0)
        self.y_mean_ = float(y.mean())
        Xa = X - self.x_mean_
        yc = y - self.y_mean_

        W, P, Q = [], [], []
        for _ in range(self.n_components):
            w = Xa.T @ yc
            norm = np.linalg.norm(w)
            if norm < 1e-15:  # no covariance left to model
                break
            w = w / norm
            t = Xa @ w
            tt = t @ t
            if tt < 1e-30:
                break
            p = Xa.T @ t / tt
            q = float(yc @ t / tt)
            W.append(w)
            P.append(p)
            Q.append(q)
            Xa = Xa - np.outer(t, p)

        if not W:
            self.coef_ = np.zeros(d)
        else:
            Wm = np.column_stack(W)
            Pm = np.column_stack(P)
            qv = np.array(Q)
            self.coef_ = Wm @ np.linalg.solve(Pm.T @ Wm, qv)
        self.metadata["effective_components"] = len(W)

    @property
    def effective_components_(self):
        """Components fitted before the covariance ran out, recorded in the
        model file's metadata; None for a file of an older version."""
        return self.metadata.get("effective_components")

    def _predict(self, X):
        return (X - self.x_mean_) @ self.coef_ + self.y_mean_

    def _param_blocks(self):
        return [
            ("x_mean", self.x_mean_),
            ("y_mean", np.array([self.y_mean_])),
            ("coef", self.coef_),
        ]

    def _restore_blocks(self, blocks):
        self.x_mean_ = param_block(blocks, "x_mean", (self.n_features_,))
        self.y_mean_ = float(param_block(blocks, "y_mean", (1,))[0])
        self.coef_ = param_block(blocks, "coef", (self.n_features_,))
        count = self.metadata.get("effective_components")
        if count is not None and (type(count) is not int or not 0 <= count <= self.n_components):
            raise CheckpointError(f"metadata 'effective_components' must be an integer in "
                                  f"[0, {self.n_components}], got {count!r}")

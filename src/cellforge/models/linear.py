"""Closed-form regressors: mean baseline, OLS, ridge, PCR, PLSR.

Every model but the baseline stores ``coef`` and ``intercept`` and predicts
``X @ coef + intercept``. OLS solves through numpy's lstsq; ridge and PCR
fit through one thin SVD of the centred X, in O(n·d) memory; PLSR computes
one closed-form weight vector per component. None of them iterate.
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
    """Shared fit, prediction and checkpoint blocks of the linear models, which
    predict ``X @ coef_ + intercept_`` and store ``coef`` and ``intercept``
    in that order.

    A subclass fits ``coef_`` on the centred data in ``_centred_coef``; the
    intercept ``y_mean - x_mean @ coef_`` then puts the fit through the means.
    """

    def _fit(self, X, y):
        x_mean, y_mean = X.mean(axis=0), y.mean()
        self.coef_ = self._centred_coef(X - x_mean, y - y_mean)
        self.intercept_ = float(y_mean - x_mean @ self.coef_)

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


def _svd_coef(Xc, yc, gain):
    """``V diag(gain(s)) U' yc`` over the thin SVD ``Xc = U diag(s) V'``, in
    O(n·d) memory. Singular values at or below lstsq's default cutoff,
    ``eps * max(n, d) * s[0]``, count as zero, so ``gain`` sees only the
    positive rest."""
    U, s, Vt = np.linalg.svd(Xc, full_matrices=False)
    r = np.count_nonzero(s > np.finfo(float).eps * max(Xc.shape) * s.max(initial=0.0))
    return Vt[:r].T @ (gain(s[:r]) * (U[:, :r].T @ yc))


class RidgeRegressor(_AffineRegressor):
    """L2-penalized least squares with an unpenalized intercept.

    Fitted through one thin SVD of the centred X, each singular direction
    weighted ``s / (s^2 + alpha)``; ``alpha`` is a finite number >= 0, and
    at 0 this is the minimum-norm least-squares fit.
    """

    kind = "ridge"

    def __init__(self, alpha: float = 1.0):
        super().__init__()
        self.alpha = number("alpha", alpha, ge=0)

    def _centred_coef(self, Xc, yc):
        # s / (s^2 + alpha) with no s^2 to overflow; where alpha / s
        # overflows, the weight is below the smallest float, and 1 / inf is 0
        with np.errstate(over="ignore"):
            return _svd_coef(Xc, yc, lambda s: 1.0 / (s + self.alpha / s))


class _ComponentRegressor(_AffineRegressor):
    """A linear model of the first ``n_components`` components of the
    centred X, an integer from 1 to min(n_samples - 1, n_features)."""

    def __init__(self, n_components: int = 1):
        super().__init__()
        self.n_components = integer("n_components", n_components, 1)

    def _fit(self, X, y):
        # the centred X has rank at most n_samples - 1; a component past it fits rounding noise
        bound = min(X.shape[0] - 1, X.shape[1])
        if self.n_components > bound:
            raise ModelError(
                f"n_components={self.n_components} exceeds min(n_samples - 1, n_features)={bound}")
        super()._fit(X, y)


class PCRRegressor(_ComponentRegressor):
    """Principal component regression: y regressed on the scores of the top
    ``n_components`` right singular vectors of the centred X, through the
    same thin SVD as ridge."""

    kind = "pcr"

    def _centred_coef(self, Xc, yc):
        # 1/s on the kept components, 0 past them
        return _svd_coef(Xc, yc, lambda s: (np.arange(s.size) < self.n_components) / s)


class PLSRegressor(_ComponentRegressor):
    """Partial least squares (PLS1) with deflation on X only.

    Each component's weight vector is ``X'y / ||X'y||`` on the deflated X:
    with one target, NIPALS's inner power loop returns that vector after one
    step in exact arithmetic, so it is computed directly. Components stop
    once ``||X'y||`` of the deflated X falls to ``eps * max(n, d) ||X|| ||y||``
    on the centred data, the size of its rounding noise. The regression
    vector is ``W (P'W)^-1 q`` on centred data. A model file written before
    PLSR stored ``coef`` and ``intercept`` lacks the ``intercept`` block, and
    loading it fails with one line naming that block.
    """

    kind = "plsr"

    def _centred_coef(self, Xa, yc):
        floor = np.finfo(float).eps * max(Xa.shape) * np.linalg.norm(Xa) * np.linalg.norm(yc)
        W, P, Q = [], [], []
        for _ in range(self.n_components):
            w = Xa.T @ yc
            norm = np.linalg.norm(w)
            if norm <= floor:  # no covariance left to model, only rounding noise
                break
            w = w / norm
            t = Xa @ w
            tt = t @ t
            W.append(w)
            P.append(Xa.T @ t / tt)
            Q.append(yc @ t / tt)
            Xa = Xa - np.outer(t, P[-1])
        self.metadata["effective_components"] = len(W)
        if not W:
            return np.zeros(Xa.shape[1])
        Wm = np.column_stack(W)
        return Wm @ np.linalg.solve(np.column_stack(P).T @ Wm, np.array(Q))

    @property
    def effective_components_(self):
        """Components fitted before the covariance ran out, recorded in the
        model file's metadata; None for a file of an older version."""
        return self.metadata.get("effective_components")

    def _restore_blocks(self, blocks):
        super()._restore_blocks(blocks)
        count = self.metadata.get("effective_components")
        if count is not None and (type(count) is not int or not 0 <= count <= self.n_components):
            raise CheckpointError(f"metadata 'effective_components' must be an integer in "
                                  f"[0, {self.n_components}], got {count!r}")

"""A small fully-connected network trained by mini-batch gradient descent.

The loss is the mean squared error over each batch; gradients come from
plain backpropagation and the update is vanilla gradient descent (no
momentum, no weight decay). Weights initialize to N(0, 1/sqrt(fan_in)) from
the model seed and biases to zero, and the per-epoch shuffle draws from the
same generator, so a rerun with identical inputs is bit-identical.

``gradient_check`` verifies the backward pass against central finite
differences on a small instance; it is part of the public surface and the
test suite's gate on the implementation.
"""

from __future__ import annotations

import numpy as np

from ..errors import ModelError
from ..features import MAX_POINTS
from ..registry import integer, number
from .base import BaseRegressor, param_block

_ACTIVATIONS = ("relu", "identity")


class MLPRegressor(BaseRegressor):
    """``hidden_dims`` lists the hidden layer widths; they, ``epochs`` and
    ``batch_size`` are integers >= 1, ``learning_rate`` a finite number > 0."""

    kind = "mlp"

    def __init__(
        self,
        hidden_dims=(16,),
        activation: str = "relu",
        epochs: int = 1000,
        batch_size: int = 32,
        learning_rate: float = 0.01,
        seed: int = 0,
    ):
        super().__init__()
        if activation not in _ACTIVATIONS:
            raise ValueError(f"activation must be one of {_ACTIVATIONS}, got {activation!r}")
        self.hidden_dims = tuple(
            integer(f"hidden_dims[{k}]", h, 1) for k, h in enumerate(hidden_dims))
        self.activation = activation
        self.epochs = integer("epochs", epochs, 1)
        self.batch_size = integer("batch_size", batch_size, 1)
        self.learning_rate = number("learning_rate", learning_rate, gt=0)
        self.seed = integer("seed", seed)

    # -- network plumbing ---------------------------------------------------

    def _init_params(self, n_features, rng):
        dims = [n_features, *self.hidden_dims, 1]
        self.weights_ = []
        self.biases_ = []
        for l, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
            if fan_in * fan_out > MAX_POINTS:  # NumPy would refuse it with a bare ValueError
                raise ModelError(f"MLP layer {l} needs {fan_in} x {fan_out} weights, more than "
                                 f"the {MAX_POINTS} one array may hold")
            self.weights_.append(rng.normal(0.0, 1.0 / np.sqrt(fan_in), (fan_in, fan_out)))
            self.biases_.append(np.zeros(fan_out))

    def _act(self, z):
        if self.activation == "relu":
            return np.maximum(z, 0.0)
        return z

    def _act_grad(self, z):
        if self.activation == "relu":
            return (z > 0.0).astype(float)
        return np.ones_like(z)

    def _forward(self, X):
        """Returns (per-layer pre-activations, per-layer inputs, output)."""
        zs, inputs = [], []
        a = X
        last = len(self.weights_) - 1
        for l, (W, b) in enumerate(zip(self.weights_, self.biases_)):
            inputs.append(a)
            z = a @ W + b
            zs.append(z)
            a = z if l == last else self._act(z)
        return zs, inputs, a[:, 0]

    def _gradients(self, X, y):
        """Analytic gradient of mean((pred - y)^2) at the current parameters."""
        zs, inputs, pred = self._forward(X)
        n = X.shape[0]
        delta = (2.0 / n) * (pred - y)[:, None]  # dL/dz at the linear output
        gW = [None] * len(self.weights_)
        gb = [None] * len(self.biases_)
        for l in range(len(self.weights_) - 1, -1, -1):
            gW[l] = inputs[l].T @ delta
            gb[l] = delta.sum(axis=0)
            if l > 0:
                delta = (delta @ self.weights_[l].T) * self._act_grad(zs[l - 1])
        return gW, gb

    # -- training -----------------------------------------------------------

    def _fit(self, X, y):
        rng = np.random.default_rng(self.seed)
        self._init_params(X.shape[1], rng)
        n = X.shape[0]
        # a diverging fit overflows to inf and NaN, refused once it ends
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(self.epochs):
                order = rng.permutation(n)
                for start in range(0, n, self.batch_size):
                    batch = order[start : start + self.batch_size]
                    gW, gb = self._gradients(X[batch], y[batch])
                    for l in range(len(self.weights_)):
                        self.weights_[l] -= self.learning_rate * gW[l]
                        self.biases_[l] -= self.learning_rate * gb[l]
        if not all(np.isfinite(p).all() for p in (*self.weights_, *self.biases_)):
            raise ModelError(f"seed {self.seed}: MLPRegressor diverged: its weights are not finite "
                             f"after {self.epochs} epochs at learning_rate {self.learning_rate!r}")

    def _predict(self, X):
        with np.errstate(over="ignore", invalid="ignore"):  # scoring refuses non-finite predictions
            return self._forward(X)[2]

    def _param_blocks(self):
        blocks = []
        for l, (W, b) in enumerate(zip(self.weights_, self.biases_)):
            blocks.append((f"layer{l}_W", W))
            blocks.append((f"layer{l}_b", b))
        return blocks

    def _restore_blocks(self, blocks):
        dims = [self.n_features_, *self.hidden_dims, 1]
        self.weights_ = [param_block(blocks, f"layer{l}_W", (dims[l], dims[l + 1]))
                         for l in range(len(dims) - 1)]
        self.biases_ = [param_block(blocks, f"layer{l}_b", (dims[l + 1],))
                        for l in range(len(dims) - 1)]


def gradient_check(model: MLPRegressor, X, y, h: float = 1e-5) -> float:
    """Max relative error between backprop and central finite differences.

    Exhaustive over every parameter, so the instance must be small
    (<= 20 samples, <= 8 features). The model's weights are initialized from
    its seed if it has not been fit.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.shape[0] > 20 or X.shape[1] > 8:
        raise ValueError("gradient check is exhaustive; use <= 20 samples and <= 8 features")
    if not hasattr(model, "weights_"):
        model._init_params(X.shape[1], np.random.default_rng(model.seed))
        model.n_features_ = X.shape[1]

    analytic_W, analytic_b = model._gradients(X, y)

    def loss():
        pred = model._forward(X)[2]
        return float(np.mean((pred - y) ** 2))

    worst = 0.0
    for params, grads in ((model.weights_, analytic_W), (model.biases_, analytic_b)):
        for arr, g in zip(params, grads):
            flat = arr.ravel()
            gflat = g.ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = loss()
                flat[i] = orig - h
                down = loss()
                flat[i] = orig
                numeric = (up - down) / (2.0 * h)
                denom = max(abs(gflat[i]), abs(numeric), 1e-8)
                worst = max(worst, abs(gflat[i] - numeric) / denom)
    return worst

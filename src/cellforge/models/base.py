"""Shared regressor plumbing: input checks, metadata, save/load dispatch.

Fit, predict and save failures raise :class:`ModelError`.

A model file is the package's binary container (see
:mod:`cellforge.container`) with the magic ``CFM1``. The header records the
model kind, its hyperparameters, training metadata, and the name, shape and
dtype of every parameter block in order, so a file can be loaded without
knowing anything but this format. The blocks are one zlib stream whenever
that makes the file smaller.

A file of one fit (:meth:`BaseRegressor.save`) stores the hyperparameters
whole and names its blocks bare. A file of several fits that differ only in
their ``seed`` (:func:`save_models`) states the kind, the metadata and the
hyperparameters without ``seed`` once, lists the fits' ``seeds``, and names
each fit's blocks ``<seed>/<block>``, so every fit's blocks share one zlib
stream. :func:`load_model` reads one fit from either.
"""

from __future__ import annotations

import inspect
from collections.abc import Mapping

import numpy as np

from ..battery_data import read_file
from ..container import parse_container, read_header, write_container
from ..errors import CheckpointError, ModelError
from ..registry import MODELS

MAGIC = b"CFM1"


def check_X_y(X, y):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise ModelError(f"X must be 2-D (n_samples, n_features), got shape {X.shape}")
    if y.ndim != 1:
        raise ModelError(f"y must be 1-D, got shape {y.shape}")
    if X.shape[0] != y.shape[0]:
        raise ModelError(f"X and y disagree on sample count: {X.shape[0]} vs {y.shape[0]}")
    if X.shape[0] == 0:
        raise ModelError("need at least one sample")
    if not np.isfinite(X).all() or not np.isfinite(y).all():
        raise ModelError("X and y must be finite")
    return X, y


def check_X(X, n_features):
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != n_features:
        raise ModelError(f"expected shape (n, {n_features}), got {X.shape}")
    return X


def param_block(blocks, name, shape, dtype="<f8"):
    """The stored block ``name``, which must have ``shape`` and ``dtype``;
    a mismatch raises :class:`CheckpointError` naming the block."""
    arr = blocks[name]
    if arr.shape != tuple(shape) or arr.dtype != np.dtype(dtype):
        raise CheckpointError(f"block {name!r} is {arr.dtype.str} of shape {arr.shape}, "
                              f"expected {dtype} of shape {tuple(shape)}")
    return arr


class _ReadBlocks(Mapping):
    """A file's blocks, read-only, recording in ``read`` each name looked up."""

    def __init__(self, blocks):
        self._blocks, self.read = blocks, set()

    def __getitem__(self, name):
        self.read.add(name)
        return self._blocks[name]

    def __iter__(self):
        return iter(self._blocks)

    def __len__(self):
        return len(self._blocks)


class BaseRegressor:
    """fit/predict contract shared by every model.

    Subclasses define ``kind``, implement ``_fit``/``_predict``, and expose
    their parameters through ``_param_blocks``/``_restore_blocks`` for the
    binary checkpoint format; ``_restore_blocks`` reads each block through
    :func:`param_block`, so a block of the wrong shape fails the load, and
    so does a stored block it does not read. Each constructor parameter is
    kept as the attribute of the same name, which is how ``get_params``
    reads it. Only the models that draw random numbers take a ``seed``.
    """

    kind: str = ""

    def __init__(self):
        self.fitted = False
        self.metadata: dict = {}

    def get_params(self) -> dict:
        """The constructor's parameters, each read from its attribute."""
        return {name: getattr(self, name) for name in inspect.signature(type(self)).parameters}

    def fit(self, X, y):
        X, y = check_X_y(X, y)
        self.n_features_ = X.shape[1]
        self.metadata = {"n_features": X.shape[1]}
        self._fit(X, y)
        self.fitted = True
        return self

    def predict(self, X):
        if not self.fitted:
            raise ModelError(f"{type(self).__name__} is not fitted")
        X = check_X(X, self.n_features_)
        return self._predict(X)

    def save(self, path):
        if not self.fitted:
            raise ModelError("cannot save an unfitted model")
        header = {"kind": self.kind, "hyperparameters": self.get_params(), "metadata": self.metadata}
        return write_container(path, MAGIC, header, self._param_blocks(), deflate=True)


def save_models(path, fits):
    """Write the fits of one run to ``path``: one fit as :meth:`BaseRegressor.save`
    writes it, several in one file under their ``seeds``, in the order given.
    Several fits must be of one kind and metadata and differ only in their
    ``seed``, else :class:`ModelError`."""
    fits = list(fits)
    if not fits:
        raise ModelError("no fit to save")
    if len(fits) == 1:
        return fits[0].save(path)
    if not all(fit.fitted for fit in fits):
        raise ModelError("cannot save an unfitted model")
    params = [fit.get_params() for fit in fits]
    seeds = [p.pop("seed", None) for p in params]
    shared = [(fit.kind, p, fit.metadata) for fit, p in zip(fits, params)]
    if None in seeds or len(set(seeds)) < len(seeds) or shared.count(shared[0]) < len(shared):
        raise ModelError("the fits of one file must share their kind, metadata and hyperparameters "
                         f"and differ in their seed, got seeds {seeds}")
    kind, hyperparameters, metadata = shared[0]
    header = {"kind": kind, "hyperparameters": hyperparameters, "metadata": metadata, "seeds": seeds}
    blocks = [(f"{seed}/{name}", arr) for seed, fit in zip(seeds, fits) for name, arr in fit._param_blocks()]
    return write_container(path, MAGIC, header, blocks, deflate=True)


def load_model(path, seed=None):
    """Load one saved fit: the only fit of a file, or the fit of ``seed`` in
    a file of several, which needs it. Asked for a ``seed``, a file of one
    fit must hold that seed's fit; the fit of a model that takes no seed
    stands for every seed. The header's ``kind`` names the registered model
    class (see ``MODELS``) that restores it."""
    header, blocks = read_file(path, CheckpointError,
                               lambda data: parse_container(data, MAGIC, CheckpointError))
    kind = header.get("kind")
    cls = MODELS.find_class("kind", kind)
    if cls is None:
        raise CheckpointError(f"{path}: unknown model kind {kind!r}: no single registered model carries it")
    hyperparameters, metadata = header.get("hyperparameters"), header.get("metadata")
    if not isinstance(hyperparameters, dict) or not isinstance(metadata, dict):
        raise CheckpointError(f"{path}: 'hyperparameters' and 'metadata' must be JSON objects")
    if "seeds" in header:
        hyperparameters, blocks = _fit_of_seed(path, header["seeds"], hyperparameters, blocks, seed)
    elif seed is not None and hyperparameters.get("seed", seed) != seed:
        raise CheckpointError(f"{path}: holds the fit of seed {hyperparameters['seed']!r}, "
                              f"not of seed {seed}")
    blocks = {name: arr.copy() for name, arr in blocks.items()}
    n_features = metadata.get("n_features")
    if type(n_features) is not int or n_features < 0:
        raise CheckpointError(f"{path}: metadata 'n_features' must be a non-negative integer, "
                              f"got {n_features!r}")
    try:
        model = cls(**hyperparameters)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: {kind} model rejects the stored hyperparameters: {exc}") from exc
    model.metadata = dict(metadata)
    model.n_features_ = n_features
    stored = _ReadBlocks(blocks)
    try:
        model._restore_blocks(stored)
    except KeyError as exc:
        raise CheckpointError(
            f"{path}: {kind} model file lacks parameter block {exc.args[0]!r} "
            f"(stored blocks: {sorted(blocks)}); train the model again"
        ) from exc
    except CheckpointError as exc:
        raise CheckpointError(f"{path}: {kind} model file: {exc}") from exc
    extra = sorted(set(blocks) - stored.read)
    if extra:
        raise CheckpointError(f"{path}: {kind} model file has unexpected parameter blocks {extra}; "
                              "train the model again")
    model.fitted = True
    return model


def model_seeds(path):
    """The ``seeds`` a file of several fits lists, read from its header
    alone, or None for a file of one fit."""
    return read_file(path, CheckpointError,
                     lambda data: read_header(data, MAGIC, CheckpointError)[0].get("seeds"))


def _fit_of_seed(path, seeds, hyperparameters, blocks, seed):
    """The hyperparameters and bare-named blocks of ``seed``'s fit in a file
    of several fits, each of whose blocks must belong to one of ``seeds``."""
    if (not isinstance(seeds, list) or not all(type(s) is int for s in seeds)
            or len(set(seeds)) < len(seeds) or "seed" in hyperparameters):
        raise CheckpointError(f"{path}: 'seeds' must list distinct integers, and the hyperparameters "
                              f"leave 'seed' out; got seeds {seeds!r}")
    if seed not in seeds:
        raise CheckpointError(f"{path}: holds the fits of seeds {seeds}, "
                              + ("name one to load" if seed is None else f"not of seed {seed}"))
    owners = {f"{s}/" for s in seeds}
    stray = sorted(name for name in blocks if name[:name.find("/") + 1] not in owners)
    if stray:
        raise CheckpointError(f"{path}: parameter blocks {stray} belong to none of the seeds {seeds}; "
                              "train the model again")
    prefix = f"{seed}/"
    return ({**hyperparameters, "seed": seed},
            {name[len(prefix):]: arr for name, arr in blocks.items() if name.startswith(prefix)})

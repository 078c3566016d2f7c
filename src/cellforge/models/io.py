"""Self-describing binary model checkpoints.

A model file is the package's binary container (see
:mod:`cellforge.container`) with the magic ``CFM1``.
The header records the model kind, its hyperparameters, training metadata,
and the name, shape and dtype of every parameter block in order, so a file can be
loaded without knowing anything but this format. The blocks are one zlib
stream whenever that makes the file smaller.
"""

from __future__ import annotations

from pathlib import Path

from ..battery_data import read_file
from ..container import parse_container, write_container
from ..errors import CheckpointError

MAGIC = b"CFM1"


def write_model_file(path, kind: str, hyperparameters: dict, metadata: dict, blocks) -> Path:
    """``blocks`` is an ordered list of (name, ndarray) pairs; int32 arrays
    are stored as the narrowest integer blocks that hold their values and
    read back as int32, all others as float64. The blocks are deflated
    when that makes the file smaller."""
    header = {"kind": kind, "hyperparameters": hyperparameters, "metadata": metadata}
    return write_container(path, MAGIC, header, blocks, deflate=True)


def read_model_file(path):
    """Returns (header dict, {block name: float64 or int32 ndarray})."""
    header, blocks = read_file(path, CheckpointError,
                               lambda data: parse_container(data, MAGIC, CheckpointError))
    return header, {name: arr.copy() for name, arr in blocks.items()}

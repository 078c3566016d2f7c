"""Shared builders, strategies, and fixtures for the test suite."""

from __future__ import annotations

import dataclasses
import json
import math
import struct
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import strategies as st

from cellforge.battery_data import (CELL_MAGIC, CellRecord, CycleData, CycleRecord, ProtocolStep,
                                    load_cells, write_cell)
from cellforge.container import parse_container, write_container
from cellforge.errors import CheckpointError, SchemaError
from cellforge.models.base import MAGIC as MODEL_MAGIC
from cellforge.synthetic import SynthSpec, generate_synthetic

V_MIN, V_MAX = 2.0, 3.6


def read_model_file(path):
    """The header and {block name: read-only array} of a model file."""
    return parse_container(Path(path).read_bytes(), MODEL_MAGIC, CheckpointError)


def write_model_file(path, kind, hyperparameters, metadata, blocks, seeds=None):
    """A model file of any header and blocks, laid out as ``BaseRegressor.save`` writes one,
    or as ``save_models`` writes several fits when ``seeds`` is given."""
    header = {"kind": kind, "hyperparameters": hyperparameters, "metadata": metadata}
    if seeds is not None:
        header["seeds"] = seeds
    return write_container(path, MODEL_MAGIC, header, blocks, deflate=True)


def block_size(spec: dict) -> int:
    """The bytes a block of a file that is not deflated takes."""
    if "escapes" in spec:
        return spec["shape"][0] + 8 * spec["escapes"]
    count = 1 if spec.get("repeat") else math.prod(spec["shape"])
    return count * np.dtype(spec.get("dtype", "<f8")).itemsize


def store_plain(path, *names) -> Path:
    """Rewrite the container file at ``path``, which is not deflated, with
    its second-difference blocks among ``names`` stored as plain float64, as
    a writer that codes fewer blocks lays them out; every other byte is
    kept."""
    path = Path(path)
    data = path.read_bytes()
    (length,) = struct.unpack_from("<I", data, 4)
    header = json.loads(data[8 : 8 + length])
    decoded = parse_container(data, data[:4], SchemaError)[1]
    offset, body = 8 + length, []
    for spec in header["blocks"]:
        size = block_size(spec)
        if spec["name"] in names and "escapes" in spec:
            del spec["escapes"]
            body.append(decoded[spec["name"]].tobytes())
        else:
            body.append(data[offset : offset + size])
        offset += size
    payload = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(data[:4] + struct.pack("<I", len(payload)) + payload + b"".join(body))
    return path


def prediction_rows(columns: dict) -> list[dict]:
    """The rows a report's ``predictions`` columns hold, one object per row
    with the keys of its columns: the ``cell_id`` runs expanded, then
    ``cycle``, ``step``, ``y_true`` and ``y_pred`` where present."""
    ids = [cell_id for cell_id, count in columns["cell_id"] for _ in range(count)]
    names = [k for k in ("cycle", "step", "y_true", "y_pred") if k in columns]
    assert all(len(columns[k]) == len(ids) for k in names)
    return [{"cell_id": cell_id, **dict(zip(names, values))}
            for cell_id, *values in zip(ids, *(columns[k] for k in names))]


def store_current_as_runs(path) -> Path:
    """Rewrite the cell file at ``path`` with its ``current_in_A`` block in
    the layout cellforge wrote before second-difference blocks: its runs of
    equal bits as ``"runs": r`` values, then their ``"lengths"`` as ``|u1``."""
    path = Path(path)
    data = path.read_bytes()
    (length,) = struct.unpack_from("<I", data, 4)
    header = json.loads(data[8 : 8 + length])
    offset = 8 + length
    for spec in header["blocks"]:
        if spec["name"] == "current_in_A":
            break
        offset += block_size(spec)
    end = offset + block_size(spec)
    current = parse_container(data, CELL_MAGIC, SchemaError)[1]["current_in_A"]
    bits = current.view(np.uint64)
    starts = np.flatnonzero(np.r_[True, bits[1:] != bits[:-1]])
    lengths = np.diff(np.r_[starts, bits.size])
    assert lengths.max() <= 255
    spec.clear()
    spec.update(name="current_in_A", shape=[current.size], runs=int(starts.size), lengths="|u1")
    payload = json.dumps(header).encode()
    path.write_bytes(data[:4] + struct.pack("<I", len(payload)) + payload + data[8 + length : offset]
                     + current[starts].tobytes() + lengths.astype(np.uint8).tobytes() + data[end:])
    return path


def linear_cycle(
    number: int,
    *,
    c_full: float = 1.0,
    c_charge: float | None = None,
    n_charge: int = 4,
    n_dis: int = 8,
    v_min: float = V_MIN,
    v_max: float = V_MAX,
    temperature: float | None = None,
    internal_resistance: float | None = None,
) -> CycleRecord:
    """A charge-then-discharge cycle whose Qd(V) is exactly linear.

    Charge: ``n_charge`` samples at +1 A ramping voltage v_min -> v_max and
    charge capacity 0 -> c_charge (default c_full). Discharge: ``n_dis``
    samples at -1 A stepping discharge capacity up to exactly ``c_full``
    with voltage linear in capacity.
    """
    c_charge = c_full if c_charge is None else c_charge
    t_c = np.arange(n_charge, dtype=float) * 60.0
    v_c = v_min + (v_max - v_min) * (np.arange(n_charge) / max(n_charge - 1, 1))
    qc_c = c_charge * (np.arange(n_charge) / max(n_charge - 1, 1))

    k = np.arange(1, n_dis + 1, dtype=float)
    qd_d = c_full * (k / n_dis)  # fraction first: the last sample is exactly c_full
    v_d = v_max - (v_max - v_min) * (qd_d / c_full)
    t_d = t_c[-1] + k * 60.0

    return CycleRecord(
        cycle_number=number,
        voltage_in_V=np.concatenate([v_c, v_d]),
        current_in_A=np.concatenate([np.ones(n_charge), -np.ones(n_dis)]),
        charge_capacity_in_Ah=np.concatenate([qc_c, np.full(n_dis, c_charge)]),
        discharge_capacity_in_Ah=np.concatenate([np.zeros(n_charge), qd_d]),
        time_in_s=np.concatenate([t_c, t_d]),
        temperature_in_C=None if temperature is None else np.full(n_charge + n_dis, temperature),
        internal_resistance_in_ohm=internal_resistance,
    )


def plain_copy(cell: CellRecord) -> CellRecord:
    """``cell`` with every column a plain float64 array of its own: a coded
    column is decoded for the copy alone, and ``cell`` keeps its blocks."""
    cycles = cell.cycle_data
    return dataclasses.replace(cell, cycle_data=CycleData(
        cycles.cycle_number, dict(cycles.columns),
        cycles.offsets["time_in_s"], has_temperature=cycles.has_temperature,
        internal_resistance_in_ohm=cycles.internal_resistance_in_ohm,
        has_internal_resistance=cycles.has_internal_resistance, extra=cycles.extra))


def make_cell(
    cell_id: str = "CELL_A",
    caps=(1.0, 0.95, 0.9),
    *,
    nominal: float = 1.0,
    v_min: float = V_MIN,
    v_max: float = V_MAX,
    n_dis: int = 8,
    **cell_kwargs,
) -> CellRecord:
    """A valid cell with one linear cycle per entry of ``caps``."""
    cycles = tuple(
        linear_cycle(i + 1, c_full=c, v_min=v_min, v_max=v_max, n_dis=n_dis)
        for i, c in enumerate(caps)
    )
    return CellRecord(
        cell_id=cell_id,
        nominal_capacity_in_Ah=nominal,
        cycle_data=cycles,
        min_voltage_limit_in_V=v_min,
        max_voltage_limit_in_V=v_max,
        **cell_kwargs,
    )


def random_valid_cell(rng: np.random.Generator, index: int) -> CellRecord:
    """A randomized but always-valid cell, for bulk round-trip checks."""
    n_cycles = int(rng.integers(1, 5))
    cycles = []
    for j in range(n_cycles):
        n = int(rng.integers(2, 9))
        t = np.cumsum(rng.uniform(0.5, 120.0, n))
        cycles.append(
            CycleRecord(
                cycle_number=j + 1,
                voltage_in_V=rng.uniform(1.5, 4.5, n),
                current_in_A=rng.uniform(-5.0, 5.0, n),
                charge_capacity_in_Ah=np.cumsum(rng.uniform(0.0, 0.2, n)),
                discharge_capacity_in_Ah=np.cumsum(rng.uniform(0.0, 0.2, n)),
                time_in_s=t,
                temperature_in_C=rng.uniform(15, 45, n) if rng.random() < 0.5 else None,
                internal_resistance_in_ohm=float(rng.uniform(0.001, 0.1))
                if rng.random() < 0.5
                else None,
                extra={"segment": int(rng.integers(0, 9))} if rng.random() < 0.3 else {},
            )
        )
    kwargs = {}
    if rng.random() < 0.5:
        kwargs["form_factor"] = rng.choice(["pouch", "prismatic", "cylindrical_18650"])
    if rng.random() < 0.5:
        kwargs["anode_material"] = "graphite"
        kwargs["cathode_material"] = rng.choice(["LFP", "NMC", "NCA", "LCO"])
    if rng.random() < 0.5:
        lo, hi = sorted(rng.uniform(1.0, 5.0, 2))
        kwargs["min_voltage_limit_in_V"] = float(lo)
        kwargs["max_voltage_limit_in_V"] = float(hi + 0.01)
    if rng.random() < 0.4:
        kwargs["charge_protocol"] = (
            ProtocolStep(rate_in_C=float(rng.uniform(0.2, 4.0)), start_soc=0.0, end_soc=1.0),
        )
    if rng.random() < 0.4:
        kwargs["discharge_protocol"] = (
            ProtocolStep(current_in_A=float(-rng.uniform(0.5, 8.0))),
        )
    if rng.random() < 0.3:
        kwargs["description"] = f"fuzz cell {index}"
    if rng.random() < 0.3:
        kwargs["extra"] = {"batch": int(rng.integers(0, 99)), "tags": ["a", "b"]}
    return CellRecord(
        cell_id=f"RND_{index:04d}",
        nominal_capacity_in_Ah=float(rng.uniform(0.5, 5.0)),
        cycle_data=tuple(cycles),
        depth_of_charge=float(rng.uniform(0.5, 1.0)),
        depth_of_discharge=float(rng.uniform(0.5, 1.0)),
        already_spent_cycles=int(rng.integers(0, 20)),
        **kwargs,
    )


# -- hypothesis strategies ---------------------------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def cycle_strategy(draw, number: int):
    n = draw(st.integers(min_value=2, max_value=6))
    dt = draw(
        st.lists(st.floats(0.01, 500.0, allow_nan=False), min_size=n, max_size=n)
    )
    t = tuple(float(v) for v in np.cumsum(dt))
    volts = draw(st.lists(st.floats(0.1, 6.0), min_size=n, max_size=n))
    amps = draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n))
    qc = tuple(float(v) for v in np.cumsum(draw(
        st.lists(st.floats(0.0, 0.5), min_size=n, max_size=n))))
    qd = tuple(float(v) for v in np.cumsum(draw(
        st.lists(st.floats(0.0, 0.5), min_size=n, max_size=n))))
    temp = draw(st.one_of(st.none(), st.lists(st.floats(-20.0, 80.0), min_size=n, max_size=n)))
    return CycleRecord(
        cycle_number=number,
        voltage_in_V=volts,
        current_in_A=amps,
        charge_capacity_in_Ah=qc,
        discharge_capacity_in_Ah=qd,
        time_in_s=t,
        temperature_in_C=temp,
        internal_resistance_in_ohm=draw(st.one_of(st.none(), st.floats(1e-4, 1.0))),
    )


@st.composite
def cell_strategy(draw):
    n_cycles = draw(st.integers(min_value=1, max_value=4))
    cycles = tuple(draw(cycle_strategy(number=i + 1)) for i in range(n_cycles))
    return CellRecord(
        cell_id=draw(st.text(min_size=1, max_size=12, alphabet=st.characters(
            whitelist_categories=("Lu", "Ll", "Nd"), whitelist_characters="_-"))),
        nominal_capacity_in_Ah=draw(st.floats(0.1, 10.0)),
        cycle_data=cycles,
        depth_of_charge=draw(st.floats(0.01, 1.0)),
        depth_of_discharge=draw(st.floats(0.01, 1.0)),
        already_spent_cycles=draw(st.integers(0, 50)),
        description=draw(st.one_of(st.none(), st.text(max_size=20))),
    )


# -- fixtures ----------------------------------------------------------------


@pytest.fixture(scope="session")
def synth_cells():
    """A small deterministic synthetic corpus shared across test modules."""
    spec = SynthSpec(
        n_cells=12, cycle_life_mean=250.0, cycle_life_std=40.0,
        points_per_cycle=16, seed=11,
    )
    return generate_synthetic(spec)


@pytest.fixture(scope="session")
def quickstart_corpus(tmp_path_factory):
    """The README quickstart corpus (the default ``SynthSpec`` that
    ``cellforge generate`` uses), written once as cell files.

    ``directory`` holds the files, ``generated`` the records that were
    written and ``loaded`` the records read back from ``directory``.
    """
    generated = generate_synthetic(SynthSpec())
    directory = tmp_path_factory.mktemp("quickstart")
    for cell in generated:
        write_cell(cell, directory)
    return SimpleNamespace(directory=directory, generated=generated, loaded=load_cells(directory))


@pytest.fixture
def capped_address_space():
    """Cap this process's address space 256 MiB above its current size for one
    test, so code that would grow without bound raises ``MemoryError`` instead
    of exhausting the machine (Linux only)."""
    resource = pytest.importorskip("resource")
    statm = Path("/proc/self/statm")
    if not statm.is_file():
        pytest.skip("needs /proc/self/statm")
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    size = int(statm.read_text().split()[0]) * resource.getpagesize()
    resource.setrlimit(resource.RLIMIT_AS, (size + 2**28, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))

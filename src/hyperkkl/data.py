"""Dataset generation and the HKKL binary trajectory-set format.

A dataset is one ``TrajectorySet`` with the header that made it. It owns
a contiguous per-trajectory seed range [seed, seed+count): trajectory i
draws its noise, its input-signal parameters, and (jointly, through one
stream on the base seed) its initial condition from streams keyed by
seed+i.

File layout (all little-endian):

    magic  "HKKL"
    u16    version (1)
    u16    system-name length, then that many UTF-8 bytes
    u16    n_x, u16 n_y, u16 m
    f64    dt, f64 horizon, f64 sigma
    u32    count, u64 base seed
    u16    regime-name length, then that many UTF-8 bytes
    per trajectory: signal descriptor
        u8  kind, u8 component count K, f64 offset, K * (f64 A, f64 w, f64 phi)
        (an ``InputSignal`` as it is: ``signals.KIND_RULES`` fixes K and
        whether the offset may be nonzero per kind; kind codes number
        ``config.KINDS`` from 0)
    per trajectory: f64 arrays in (states, inputs, outputs) order

A write replaces the file at its path only once it is complete
(``binfile.replacing``). Readers refuse a file that ends early or has bytes past the last
trajectory, naming the byte offset, before they allocate the arrays.
``read_dataset`` takes every trajectory's samples in one f64 read; the
set's states, inputs and outputs are read-only run-major views of it.

CSV export mirrors the columns t, x1..x_{n_x}, u1..u_{m}, y1..y_{n_y},
and is written all or nothing too.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .binfile import Reader, replacing, write_text
from .config import KINDS, SEED_LIMIT, defaults
from .dynamics import SystemSpec, TrajectorySet, get_system, n_steps_for
from .dynamics import sample_initial_conditions, simulate
from .errors import ContractViolation
from .signals import InputSignal, sample_signal

MAGIC = b"HKKL"
VERSION = 1

_KIND_CODE = {k: i for i, k in enumerate(KINDS)}
_CODE_KIND = {i: k for k, i in _KIND_CODE.items()}
_DEFAULT = defaults("gen")  # each default is its config.SETTINGS row's


@dataclass
class Dataset:
    system: SystemSpec
    trajectories: TrajectorySet
    horizon: float
    sigma: float
    seed: int
    regime: str

    def __post_init__(self):
        n = n_steps_for(self.horizon, self.dt)
        if n != self.trajectories.n_steps:
            raise ContractViolation(
                f"horizon {self.horizon!r} at dt {self.dt!r} gives {n} steps, "
                f"the trajectory set has {self.trajectories.n_steps}")

    @property
    def dt(self) -> float:
        """The time step, stated once: the trajectory set's."""
        return self.trajectories.dt

    @property
    def count(self) -> int:
        return self.trajectories.count

    @property
    def seed_range(self) -> tuple[int, int]:
        """Inclusive per-trajectory seed range [lo, hi]."""
        return self.seed, self.seed + self.count - 1


def seed_ranges_overlap(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return a[0] <= b[1] and b[0] <= a[1]


def check_seed_range(seed: int, count: int) -> None:
    """Refuse run seeds [seed, seed + count) outside [0, 2^64): a file
    stores a seed as a u64, and past 2^64 ``seeding.stream`` would wrap a
    run onto another seed's streams."""
    if seed < 0 or seed + count > SEED_LIMIT:
        raise ContractViolation(
            f"seeds [{seed}, {seed + count}) do not lie in [0, 2^64)")


def generate_dataset(
    system: SystemSpec,
    regime: str,
    count: int,
    seed: int,
    dt: float = _DEFAULT["dt"],
    horizon: float = _DEFAULT["horizon"],
    sigma: float = _DEFAULT["sigma"],
) -> Dataset:
    """Sample ``count`` seeded trajectories under the given input regime."""
    if count < 1:
        raise ContractViolation("count must be >= 1")
    check_seed_range(seed, count)
    x0s = sample_initial_conditions(system, count, seed)
    signals = [sample_signal(regime, seed + i) for i in range(count)]
    runs = simulate(system, x0s, signals, dt, horizon, sigma, seed)
    return Dataset(
        system=system, trajectories=runs, horizon=horizon, sigma=sigma,
        seed=seed, regime=regime,
    )


def _pack_signal(sig: InputSignal) -> bytes:
    return struct.pack("<BBd", _KIND_CODE[sig.kind], len(sig.components),
                       sig.offset) + b"".join(
        struct.pack("<ddd", *c) for c in sig.components)


def _unpack_signal(r: Reader) -> InputSignal:
    at = r.fh.tell()
    code, k, offset = r.unpack("<BBd")
    if code not in _CODE_KIND:
        raise ContractViolation(f"{r.path}: unknown signal kind code {code}")
    comps = tuple(r.unpack("<ddd") for _ in range(k))
    try:
        return InputSignal(_CODE_KIND[code], offset, comps)
    except ContractViolation as e:
        raise ContractViolation(
            f"{r.path}: at byte offset {at}, {e}") from None


def write_dataset(dataset: Dataset, path) -> None:
    sysname = dataset.system.name.encode()
    regime = dataset.regime.encode()
    with replacing(path) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<H", VERSION))
        fh.write(struct.pack("<H", len(sysname)))
        fh.write(sysname)
        fh.write(struct.pack(
            "<HHH", dataset.system.n_x, dataset.system.n_y, dataset.system.m
        ))
        fh.write(struct.pack("<ddd", dataset.dt, dataset.horizon, dataset.sigma))
        fh.write(struct.pack("<IQ", dataset.count, dataset.seed))
        fh.write(struct.pack("<H", len(regime)))
        fh.write(regime)
        runs = dataset.trajectories
        for sig in runs.signals:
            fh.write(_pack_signal(sig))
        for run in zip(runs.states, runs.inputs, runs.outputs):
            for values in run:
                fh.write(np.ascontiguousarray(values, dtype="<f8"))


def read_dataset(path) -> Dataset:
    with open(path, "rb") as fh:
        r = Reader(fh, path)
        if fh.read(4) != MAGIC:
            raise ContractViolation(f"{path}: not an HKKL dataset")
        (version,) = r.unpack("<H")
        if version != VERSION:
            raise ContractViolation(f"{path}: unsupported version {version}")
        (name_len,) = r.unpack("<H")
        sysname = r.text(name_len)
        n_x, n_y, m = r.unpack("<HHH")
        dt, horizon, sigma = r.unpack("<ddd")
        count, seed = r.unpack("<IQ")
        (regime_len,) = r.unpack("<H")
        regime = r.text(regime_len)
        signals = [_unpack_signal(r) for _ in range(count)]
        system = get_system(sysname)
        if (system.n_x, system.n_y, system.m) != (n_x, n_y, m):
            raise ContractViolation(f"{path}: dimension header mismatch")
        try:
            n = n_steps_for(horizon, dt)
        except ContractViolation as e:
            raise ContractViolation(f"{path}: {e}") from None
        width = (n + 1) * (n_x + m + n_y)
        values = r.f64(count * width).reshape(count, width)
        values.flags.writeable = False
        r.finish()
    # run i's row holds its states, inputs and outputs in turn
    widths = (n_x, m, n_y)
    blocks = np.split(values, np.cumsum(widths[:-1]) * (n + 1), axis=1)
    states, inputs, outputs = (block.reshape(count, n + 1, w)
                               for block, w in zip(blocks, widths))
    runs = TrajectorySet(dt, np.arange(n + 1) * dt, states, inputs, outputs,
                         tuple(signals))
    return Dataset(
        system=system, trajectories=runs, horizon=horizon, sigma=sigma,
        seed=seed, regime=regime,
    )


def trajectory_to_csv(runs: TrajectorySet, path) -> None:
    """The first run as columns t, x1..x_{n_x}, u1..u_m, y1..y_{n_y} with
    full precision."""
    states, inputs, outputs = runs.states[0], runs.inputs[0], runs.outputs[0]
    n_x = states.shape[1]
    m = inputs.shape[1]
    n_y = outputs.shape[1]
    header = (
        ["t"]
        + [f"x{i + 1}" for i in range(n_x)]
        + [f"u{i + 1}" for i in range(m)]
        + [f"y{i + 1}" for i in range(n_y)]
    )
    lines = [",".join(header)]
    for k in range(len(runs.times)):
        row = [runs.times[k], *states[k], *inputs[k], *outputs[k]]
        lines.append(",".join(repr(float(v)) for v in row))
    write_text(path, "\n".join(lines) + "\n")

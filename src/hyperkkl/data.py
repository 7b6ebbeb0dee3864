"""Dataset generation and the HKKL binary trajectory-set format.

A dataset owns a contiguous per-trajectory seed range [seed, seed+count):
trajectory i draws its noise, its input-signal parameters, and (jointly,
through one stream on the base seed) its initial condition from streams
keyed by seed+i.

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
    per trajectory: f64 arrays in (states, inputs, outputs) order

Readers refuse a file that ends early or has bytes past the last
trajectory, naming the byte offset.

CSV export mirrors the columns t, x1..x_{n_x}, u1..u_{m}, y1..y_{n_y}.
"""

from __future__ import annotations

import dataclasses
import struct
from dataclasses import dataclass

import numpy as np

from .binfile import Reader
from .dynamics import SystemSpec, Trajectory, get_system, n_steps_for, simulate
from .dynamics import sample_initial_conditions
from .errors import ContractViolation
from .signals import KINDS, InputSignal, sample_signal

MAGIC = b"HKKL"
VERSION = 1

_KIND_CODE = {k: i for i, k in enumerate(KINDS)}
_CODE_KIND = {i: k for k, i in _KIND_CODE.items()}


@dataclass
class Dataset:
    system: SystemSpec
    trajectories: list
    dt: float
    horizon: float
    sigma: float
    seed: int
    regime: str

    @property
    def count(self) -> int:
        return len(self.trajectories)

    @property
    def seed_range(self) -> tuple[int, int]:
        """Inclusive per-trajectory seed range [lo, hi]."""
        return self.seed, self.seed + self.count - 1


def seed_ranges_overlap(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return a[0] <= b[1] and b[0] <= a[1]


def generate_dataset(
    system: SystemSpec,
    regime: str,
    count: int,
    seed: int,
    dt: float = 0.05,
    horizon: float = 50.0,
    sigma: float = 0.01,
) -> Dataset:
    """Sample ``count`` seeded trajectories under the given input regime."""
    if count < 1:
        raise ContractViolation("count must be >= 1")
    n_steps_for(horizon, dt)  # validate early
    x0s = sample_initial_conditions(system, count, seed)

    def one(i: int) -> Trajectory:
        sig = None if regime == "zero" else sample_signal(regime, seed + i)
        return simulate(system, x0s[i], sig, dt, horizon, sigma, seed + i)

    trajectories = [one(i) for i in range(count)]
    return Dataset(
        system=system, trajectories=trajectories, dt=dt, horizon=horizon,
        sigma=sigma, seed=seed, regime=regime,
    )


def _pack_signal(sig: InputSignal | None) -> bytes:
    if sig is None:
        sig = InputSignal(kind="zero")
    if sig.kind == "mixture":
        comps = sig.components
        offset = 0.0
    elif sig.kind in ("sinusoid", "square"):
        comps = ((sig.amplitude, sig.frequency, sig.phase),)
        offset = sig.offset
    else:
        comps = ()
        offset = sig.offset
    out = struct.pack("<BBd", _KIND_CODE[sig.kind], len(comps), offset)
    for a, w, phi in comps:
        out += struct.pack("<ddd", a, w, phi)
    return out


def _unpack_signal(r: Reader) -> InputSignal:
    code, k, offset = r.unpack("<BBd")
    if code not in _CODE_KIND:
        raise ContractViolation(f"{r.path}: unknown signal kind code {code}")
    kind = _CODE_KIND[code]
    comps = tuple(r.unpack("<ddd") for _ in range(k))
    if kind == "mixture":
        return InputSignal(kind=kind, components=comps)
    if kind in ("sinusoid", "square"):
        a, w, phi = comps[0]
        return InputSignal(kind=kind, amplitude=a, frequency=w, phase=phi,
                           offset=offset)
    return InputSignal(kind=kind, offset=offset)


def write_dataset(dataset: Dataset, path) -> None:
    sysname = dataset.system.name.encode()
    regime = dataset.regime.encode()
    with open(path, "wb") as fh:
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
        for tr in dataset.trajectories:
            fh.write(_pack_signal(tr.signal))
        for tr in dataset.trajectories:
            fh.write(np.ascontiguousarray(tr.states, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(tr.inputs, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(tr.outputs, dtype="<f8").tobytes())


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
        n = n_steps_for(horizon, dt)
        times = np.arange(n + 1) * dt
        trajectories = []
        for i in range(count):
            states = r.f64((n + 1) * n_x).reshape(n + 1, n_x)
            inputs = r.f64((n + 1) * m).reshape(n + 1, m)
            outputs = r.f64((n + 1) * n_y).reshape(n + 1, n_y)
            sig = (
                dataclasses.replace(signals[i], seed=seed + i)
                if regime != "zero"
                else None
            )
            trajectories.append(
                Trajectory(
                    dt=dt, times=times, states=states, inputs=inputs,
                    outputs=outputs, x0=states[0].copy(), noise_sigma=sigma,
                    seed=seed + i, signal=sig,
                )
            )
        r.finish()
    return Dataset(
        system=system, trajectories=trajectories, dt=dt, horizon=horizon,
        sigma=sigma, seed=seed, regime=regime,
    )


def trajectory_to_csv(tr: Trajectory, path) -> None:
    """Columns t, x1..x_{n_x}, u1..u_m, y1..y_{n_y} with full precision."""
    n_x = tr.states.shape[1]
    m = tr.inputs.shape[1]
    n_y = tr.outputs.shape[1]
    header = (
        ["t"]
        + [f"x{i + 1}" for i in range(n_x)]
        + [f"u{i + 1}" for i in range(m)]
        + [f"y{i + 1}" for i in range(n_y)]
    )
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for k in range(len(tr.times)):
            row = (
                [tr.times[k]]
                + list(tr.states[k])
                + list(tr.inputs[k])
                + list(tr.outputs[k])
            )
            fh.write(",".join(repr(float(v)) for v in row) + "\n")

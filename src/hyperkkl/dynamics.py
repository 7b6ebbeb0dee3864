"""Benchmark systems and fixed-step trajectory generation.

Four driven nonlinear benchmarks are shipped: the reverse Duffing
oscillator, the Van der Pol oscillator, and the Rossler and Lorenz
chaotic systems. A scalar drive enters additively on the second state
equation of each system (the forced-oscillator convention); the output
map is untouched by the input.

Integration is classical fixed-step RK4. Process noise, when requested,
is added after each deterministic step as sigma*sqrt(dt)*xi; measurement
noise is sigma*eta on the outputs only, so the integrator itself stays
exactly testable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import seeding
from .config import SYSTEM_NAMES
from .errors import ContractViolation, DivergenceError, NumericError
from .signals import InputSignal, eval_signal


@dataclass(frozen=True)
class SystemSpec:
    """A benchmark system: dimensions, vector field, output map, domain box.

    ``f(x, u)`` and ``h(x)`` must be vectorized over leading axes; ``domain``
    is an (n_x, 2) array of per-coordinate sampling intervals.
    """

    name: str
    n_x: int
    n_y: int
    m: int
    f: Callable[[np.ndarray, np.ndarray], np.ndarray]
    h: Callable[[np.ndarray], np.ndarray]
    domain: np.ndarray
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n_x < 1 or self.n_y < 1 or self.m < 0:
            raise ContractViolation(
                f"system {self.name!r}: need n_x>=1, n_y>=1, m>=0"
            )
        dom = np.asarray(self.domain, dtype=np.float64)
        if dom.shape != (self.n_x, 2):
            raise ContractViolation(
                f"system {self.name!r}: domain must be (n_x, 2), got {dom.shape}"
            )
        if np.any(dom[:, 1] < dom[:, 0]):
            raise ContractViolation(f"system {self.name!r}: inverted domain interval")
        object.__setattr__(self, "domain", dom)

    def box_diameter(self) -> float:
        span = self.domain[:, 1] - self.domain[:, 0]
        return float(np.sqrt(np.sum(span**2)))

    def box_center(self) -> np.ndarray:
        return 0.5 * (self.domain[:, 0] + self.domain[:, 1])


@dataclass(frozen=True)
class Trajectory:
    """A simulated time series at fixed step dt, with its noise metadata."""

    dt: float
    times: np.ndarray        # (N+1,)
    states: np.ndarray       # (N+1, n_x)
    inputs: np.ndarray       # (N+1, m)
    outputs: np.ndarray      # (N+1, n_y)
    x0: np.ndarray
    noise_sigma: float
    seed: int
    signal: InputSignal | None = None

    def __post_init__(self):
        n = len(self.times)
        if not (len(self.states) == len(self.inputs) == len(self.outputs) == n):
            raise ContractViolation("trajectory arrays disagree in length")

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1


def _forced(drift, idx, m):
    """Wrap a drift so a scalar input adds onto coordinate ``idx``."""

    def f(x, u):
        dx = drift(x)
        if m and u is not None:
            u = np.asarray(u, dtype=np.float64)
            dx = np.array(dx, copy=True)
            dx[..., idx] = dx[..., idx] + u[..., 0]
        return dx

    return f


def duffing() -> SystemSpec:
    """Reverse Duffing oscillator: x1' = x2^3, x2' = -x1 + u, y = x1."""

    def drift(x):
        return np.stack([x[..., 1] ** 3, -x[..., 0]], axis=-1)

    return SystemSpec(
        name="duffing", n_x=2, n_y=1, m=1,
        f=_forced(drift, 1, 1),
        h=lambda x: x[..., 0:1],
        domain=np.array([[-1.0, 1.0], [-1.0, 1.0]]),
    )


def van_der_pol(mu: float = 3.0) -> SystemSpec:
    """Van der Pol oscillator with nonlinear damping mu (default 3)."""

    def drift(x):
        return np.stack(
            [x[..., 1], mu * (1.0 - x[..., 0] ** 2) * x[..., 1] - x[..., 0]],
            axis=-1,
        )

    return SystemSpec(
        name="vanderpol", n_x=2, n_y=1, m=1,
        f=_forced(drift, 1, 1),
        h=lambda x: x[..., 0:1],
        domain=np.array([[-2.0, 2.0], [-2.0, 2.0]]),
        params={"mu": mu},
    )


def rossler(a: float = 0.1, b: float = 0.1, c: float = 14.0) -> SystemSpec:
    """Rossler attractor in its chaotic parameter regime, y = x2."""

    def drift(x):
        return np.stack(
            [
                -x[..., 1] - x[..., 2],
                x[..., 0] + a * x[..., 1],
                b + x[..., 2] * (x[..., 0] - c),
            ],
            axis=-1,
        )

    return SystemSpec(
        name="rossler", n_x=3, n_y=1, m=1,
        f=_forced(drift, 1, 1),
        h=lambda x: x[..., 1:2],
        domain=np.array([[-10.0, 10.0], [-10.0, 10.0], [0.0, 20.0]]),
        params={"a": a, "b": b, "c": c},
    )


def lorenz(p: float = 10.0, q: float = 28.0, r: float = 8.0 / 3.0) -> SystemSpec:
    """Lorenz system with the classic chaotic parameters, y = x2."""

    def drift(x):
        return np.stack(
            [
                p * (x[..., 1] - x[..., 0]),
                x[..., 0] * (q - x[..., 2]) - x[..., 1],
                x[..., 0] * x[..., 1] - r * x[..., 2],
            ],
            axis=-1,
        )

    return SystemSpec(
        name="lorenz", n_x=3, n_y=1, m=1,
        f=_forced(drift, 1, 1),
        h=lambda x: x[..., 1:2],
        domain=np.array([[-20.0, 20.0], [-20.0, 20.0], [0.0, 50.0]]),
        params={"p": p, "q": q, "r": r},
    )


_REGISTRY = {
    "duffing": duffing,
    "vanderpol": van_der_pol,
    "rossler": rossler,
    "lorenz": lorenz,
}

if tuple(_REGISTRY) != SYSTEM_NAMES:  # the CLI offers config's names
    raise ContractViolation(
        f"system registry {tuple(_REGISTRY)} does not match "
        f"config.SYSTEM_NAMES {SYSTEM_NAMES}"
    )


def get_system(name: str) -> SystemSpec:
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise ContractViolation(
            f"unknown system {name!r}; choose from {sorted(_REGISTRY)}"
        ) from None


def eval_vector_field(system: SystemSpec, x, u=None) -> np.ndarray:
    """f(x, u) with dimension and finiteness checks."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != system.n_x:
        raise ContractViolation(
            f"state has {x.shape[-1]} coordinates, system has n_x={system.n_x}"
        )
    if not np.all(np.isfinite(x)):
        raise NumericError("non-finite component in state")
    if system.m == 0:
        u = None
    elif u is None:
        u = np.zeros(x.shape[:-1] + (system.m,))
    else:
        u = np.atleast_1d(np.asarray(u, dtype=np.float64))
        if u.shape[-1] != system.m:
            raise ContractViolation(
                f"input has {u.shape[-1]} channels, system has m={system.m}"
            )
    return np.asarray(system.f(x, u), dtype=np.float64)


def rk4_step(system: SystemSpec, x, u_of_t, t: float, dt: float) -> np.ndarray:
    """One classical 4-stage Runge-Kutta update from t to t+dt."""
    if dt <= 0:
        raise ContractViolation("dt must be positive")
    x = np.asarray(x, dtype=np.float64)

    def u_at(tt):
        if system.m == 0 or u_of_t is None:
            return None
        return np.atleast_1d(np.asarray(u_of_t(tt), dtype=np.float64))

    u0, um, u1 = u_at(t), u_at(t + 0.5 * dt), u_at(t + dt)
    stages = []
    k = eval_vector_field(system, x, u0)
    stages.append(k)
    k = eval_vector_field(system, x + 0.5 * dt * stages[0], um)
    stages.append(k)
    k = eval_vector_field(system, x + 0.5 * dt * stages[1], um)
    stages.append(k)
    k = eval_vector_field(system, x + dt * stages[2], u1)
    stages.append(k)
    for i, s in enumerate(stages):
        if not np.all(np.isfinite(s)):
            raise NumericError(f"non-finite RK4 stage {i + 1} at t={t}")
    return x + (dt / 6.0) * (stages[0] + 2 * stages[1] + 2 * stages[2] + stages[3])


def n_steps_for(horizon: float, dt: float) -> int:
    """horizon/dt as an exact positive integer, else a contract violation."""
    if not (dt > 0 and horizon > 0 and math.isfinite(dt)
            and math.isfinite(horizon / dt)):
        raise ContractViolation(
            f"dt and horizon must be finite and positive, got dt {dt!r}, "
            f"horizon {horizon!r}"
        )
    n = horizon / dt
    n_round = round(n)
    if n_round <= 0 or abs(n - n_round) > 1e-9 * max(1.0, abs(n)):
        raise ContractViolation(
            f"horizon/dt = {n} is not a positive integer step count"
        )
    return int(n_round)


def simulate(
    system: SystemSpec,
    x0,
    signal: InputSignal | None,
    dt: float,
    horizon: float,
    sigma: float,
    seed: int,
) -> Trajectory:
    """Integrate the system from x0 under ``signal`` and add seeded noise.

    States follow noiseless RK4 plus per-step additive process noise
    sigma*sqrt(dt)*xi_k; outputs are h(x_k) + sigma*eta_k. All randomness
    comes from Philox streams keyed by ``seed``, so identical arguments
    reproduce bit-identical arrays. A trajectory that strays farther than
    1e3 domain-box diameters from the box center aborts with the step index.
    """
    if not (sigma >= 0 and math.isfinite(sigma)):
        raise ContractViolation(f"sigma must be finite and >= 0, got {sigma!r}")
    n = n_steps_for(horizon, dt)
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.shape != (system.n_x,):
        raise ContractViolation(f"x0 must have shape ({system.n_x},)")

    times = np.arange(n + 1) * dt
    m = system.m
    if m == 0 or signal is None:
        inputs = np.zeros((n + 1, m))
        u_of_t = None
    else:
        inputs = eval_signal(signal, times).reshape(n + 1, 1)
        if m != 1:
            raise ContractViolation("shipped signals are scalar (m=1)")
        u_of_t = lambda tt: np.array([eval_signal(signal, tt)])

    if sigma > 0:
        proc = seeding.stream(seed, seeding.STREAM_PROCESS_NOISE)
        meas = seeding.stream(seed, seeding.STREAM_MEASUREMENT_NOISE)
        xi = proc.standard_normal((n, system.n_x))
        eta = meas.standard_normal((n + 1, system.n_y))
    else:
        xi = None
        eta = None

    limit = 1e3 * system.box_diameter()
    center = system.box_center()
    states = np.empty((n + 1, system.n_x))
    states[0] = x0
    x = x0
    root_dt = math.sqrt(dt)
    for k in range(n):
        x = rk4_step(system, x, u_of_t, times[k], dt)
        if xi is not None:
            x = x + sigma * root_dt * xi[k]
        if np.sqrt(np.sum((x - center) ** 2)) > limit:
            raise DivergenceError(
                f"trajectory escaped beyond {limit:.3g} at step {k + 1}", step=k + 1
            )
        states[k + 1] = x

    outputs = np.asarray(system.h(states), dtype=np.float64).reshape(
        n + 1, system.n_y
    )
    if eta is not None:
        outputs = outputs + sigma * eta
    return Trajectory(
        dt=dt, times=times, states=states, inputs=inputs, outputs=outputs,
        x0=x0, noise_sigma=sigma, seed=seed, signal=signal,
    )


def sample_initial_conditions(
    system: SystemSpec, count: int, seed: int, allow_degenerate: bool = False
) -> np.ndarray:
    """Uniform i.i.d. draws from the domain box, shape (count, n_x)."""
    if count < 1:
        raise ContractViolation("count must be >= 1")
    lo = system.domain[:, 0]
    hi = system.domain[:, 1]
    if not allow_degenerate and np.any(hi <= lo):
        raise ContractViolation(
            f"system {system.name!r} has a degenerate domain interval"
        )
    rng = seeding.stream(seed, seeding.STREAM_INITIAL_CONDITIONS)
    unit = rng.random((count, system.n_x))
    return lo + unit * (hi - lo)

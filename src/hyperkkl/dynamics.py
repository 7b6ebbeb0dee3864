"""Benchmark systems and fixed-step trajectory generation.

Four driven nonlinear benchmarks are shipped: the reverse Duffing
oscillator, the Van der Pol oscillator, and the Rossler and Lorenz
chaotic systems, each with its one parameter set: VDP_MU, ROSSLER_ABC
and LORENZ_PQR. A scalar drive enters additively on the second state
equation of each system (the forced-oscillator convention); the output
map is untouched by the input.

Integration is classical fixed-step RK4 over a whole trajectory set:
``simulate`` steps its runs as one (count, n_x) array, each run's input
read on the grids t_k, t_k + dt/2 and t_k + dt, and returns a
``TrajectorySet`` of run-major (count, N+1, ·) arrays. That set is the
one trajectory container of the package: a dataset holds one, and
training and evaluation index its arrays directly. Every operation acts
on each run's row alone, so a run's bits do not depend on the others;
the first step where any run fails raises for the whole set, naming
that run. Process noise is added after each step as sigma*sqrt(dt)*xi,
measurement noise as sigma*eta on the outputs only, so the integrator
itself stays exactly testable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import seeding
from .config import SYSTEM_NAMES
from .errors import ContractViolation, DivergenceError, NumericError
from .signals import InputSignal, eval_signal


VDP_MU = 3.0                        # Van der Pol damping
ROSSLER_ABC = (0.1, 0.1, 14.0)      # Rossler a, b, c
LORENZ_PQR = (10.0, 28.0, 8.0 / 3.0)  # Lorenz sigma, rho, beta


@dataclass(frozen=True)
class SystemSpec:
    """A benchmark system: dimensions, vector field, output map, domain box.

    ``f(x, u)``, with u an (..., m) array, and ``h(x)`` must be vectorized
    over leading axes; ``domain`` is an (n_x, 2) array of sampling intervals.
    """

    name: str
    n_x: int
    n_y: int
    m: int
    f: Callable[[np.ndarray, np.ndarray], np.ndarray]
    h: Callable[[np.ndarray], np.ndarray]
    domain: np.ndarray

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


@dataclass(frozen=True)
class TrajectorySet:
    """Runs on one time grid at fixed step dt, run-major: states
    (count, N+1, n_x), inputs (count, N+1, m), outputs (count, N+1, n_y),
    and one ``InputSignal`` per run."""

    dt: float
    times: np.ndarray        # (N+1,)
    states: np.ndarray
    inputs: np.ndarray
    outputs: np.ndarray
    signals: tuple

    def __post_init__(self):
        shape = (len(self.signals), len(self.times))
        if not (self.states.shape[:2] == self.inputs.shape[:2]
                == self.outputs.shape[:2] == shape):
            raise ContractViolation("trajectory set arrays disagree in shape")

    @property
    def count(self) -> int:
        return len(self.signals)

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1


def _forced(drift):
    """Wrap a drift, which returns the coordinates of x', so that they
    fill one fresh array and the scalar input adds onto the second."""

    def f(x, u):
        dx = np.empty(x.shape)
        for i, coordinate in enumerate(drift(x)):
            dx[..., i] = coordinate
        dx[..., 1] += u[..., 0]
        return dx

    return f


def duffing() -> SystemSpec:
    """Reverse Duffing oscillator: x1' = x2^3, x2' = -x1 + u, y = x1."""

    def drift(x):
        return x[..., 1] ** 3, -x[..., 0]

    return SystemSpec(
        name="duffing", n_x=2, n_y=1, m=1,
        f=_forced(drift),
        h=lambda x: x[..., 0:1],
        domain=np.array([[-1.0, 1.0], [-1.0, 1.0]]),
    )


def van_der_pol() -> SystemSpec:
    """Van der Pol oscillator with nonlinear damping VDP_MU."""

    def drift(x):
        return (x[..., 1],
                VDP_MU * (1.0 - x[..., 0] ** 2) * x[..., 1] - x[..., 0])

    return SystemSpec(
        name="vanderpol", n_x=2, n_y=1, m=1,
        f=_forced(drift),
        h=lambda x: x[..., 0:1],
        domain=np.array([[-2.0, 2.0], [-2.0, 2.0]]),
    )


def rossler() -> SystemSpec:
    """Rossler attractor in its chaotic parameter regime, y = x2."""
    a, b, c = ROSSLER_ABC

    def drift(x):
        return (-x[..., 1] - x[..., 2], x[..., 0] + a * x[..., 1],
                b + x[..., 2] * (x[..., 0] - c))

    return SystemSpec(
        name="rossler", n_x=3, n_y=1, m=1,
        f=_forced(drift),
        h=lambda x: x[..., 1:2],
        domain=np.array([[-10.0, 10.0], [-10.0, 10.0], [0.0, 20.0]]),
    )


def lorenz() -> SystemSpec:
    """Lorenz system with the classic chaotic parameters, y = x2."""
    p, q, r = LORENZ_PQR

    def drift(x):
        return (p * (x[..., 1] - x[..., 0]),
                x[..., 0] * (q - x[..., 2]) - x[..., 1],
                x[..., 0] * x[..., 1] - r * x[..., 2])

    return SystemSpec(
        name="lorenz", n_x=3, n_y=1, m=1,
        f=_forced(drift),
        h=lambda x: x[..., 1:2],
        domain=np.array([[-20.0, 20.0], [-20.0, 20.0], [0.0, 50.0]]),
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
    """f(x, u) of a (B, n_x) state batch and its (B, m) inputs (zero
    inputs if u is None), with shape and finiteness checks."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != system.n_x:
        raise ContractViolation(
            f"state must be a (B, {system.n_x}) batch, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise NumericError("non-finite component in state")
    if u is None:
        u = np.zeros((len(x), system.m))
    else:
        u = np.asarray(u, dtype=np.float64)
        if u.shape != (len(x), system.m):
            raise ContractViolation(
                f"input must be a ({len(x)}, {system.m}) batch, got shape "
                f"{u.shape}")
    return np.asarray(system.f(x, u), dtype=np.float64)


def rk4_step(system: SystemSpec, x, u, t: float, dt: float) -> np.ndarray:
    """One classical 4-stage Runge-Kutta update of a (count, n_x) batch.

    ``u`` holds each run's input at t, t + dt/2 and t + dt, three
    (count, m) arrays. A non-finite stage raises ``NumericError`` naming the
    first run it hit; ``simulate`` has validated dt.
    """
    u0, um, u1 = u
    k1 = system.f(x, u0)
    k2 = system.f(x + 0.5 * dt * k1, um)
    k3 = system.f(x + 0.5 * dt * k2, um)
    k4 = system.f(x + dt * k3, u1)
    incr = k1 + 2 * k2 + 2 * k3 + k4
    if not np.isfinite(incr).all():
        run = int(np.argmin(np.isfinite(incr).all(axis=1)))
        raise NumericError(f"non-finite RK4 stage in run {run} at t={t}")
    return x + (dt / 6.0) * incr


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


def _draw(seed: int, stream: int, out: np.ndarray) -> np.ndarray:
    """Standard normals of Philox stream ``stream`` of ``seed + i`` drawn
    in place into each run's rows out[i]."""
    for i, rows in enumerate(out):
        seeding.stream(seed + i, stream).standard_normal(out=rows)
    return out


def simulate(
    system: SystemSpec,
    x0,
    signals,
    dt: float,
    horizon: float,
    sigma: float,
    seed: int,
) -> TrajectorySet:
    """Integrate the runs x0[i] (x0 is (count, n_x)) under ``signals[i]``.

    ``signals`` None is zero input for every run; the grids
    ``times[k]`` (the recorded inputs, written run-major into the
    returned ``inputs``), ``times[k] + 0.5*dt`` and ``times[k] + dt`` are
    evaluated before the loop, which makes one ``rk4_step`` per step.
    Run i draws its noise from the Philox streams of ``seed + i``, so it
    is bit for bit the run simulated alone; the result is run-major. At
    the first step where a run strays farther than 1e3 domain-box
    diameters from the box center, a ``DivergenceError`` names it and
    the step.
    """
    if not (sigma >= 0 and math.isfinite(sigma)):
        raise ContractViolation(f"sigma must be finite and >= 0, got {sigma!r}")
    n = n_steps_for(horizon, dt)
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.ndim != 2 or x0.shape[1] != system.n_x:
        raise ContractViolation(f"x0 must have shape (count, {system.n_x})")
    count = len(x0)
    signals = ((InputSignal("zero"),) * count if signals is None
               else tuple(signals))
    if len(signals) != count:
        raise ContractViolation(f"{len(signals)} signals for {count} runs")

    times = np.arange(n + 1) * dt
    inputs = np.zeros((count, n + 1, system.m))  # run, step, channel
    mid, end = np.zeros((2, n + 1, count, system.m))  # step, run, channel
    for i, signal in enumerate(signals if system.m else ()):
        if system.m != 1:
            raise ContractViolation("shipped signals are scalar (m=1)")
        inputs[i, :, 0] = eval_signal(signal, times)
        mid[:, i, 0] = eval_signal(signal, times + 0.5 * dt)
        end[:, i, 0] = eval_signal(signal, times + dt)

    lo, hi = system.domain.T
    limit = 1e3 * np.sqrt(np.sum((hi - lo) ** 2))
    center = 0.5 * (lo + hi)
    states = np.empty((count, n + 1, system.n_x))
    states[:, 0] = x0
    x = x0
    if sigma > 0:
        # a step's process noise waits in the states it then overwrites
        _draw(seed, seeding.STREAM_PROCESS_NOISE, states[:, 1:])
        states[:, 1:] *= sigma * math.sqrt(dt)
    for k in range(n):
        x = rk4_step(system, x, (inputs[:, k], mid[k], end[k]), times[k], dt)
        if sigma > 0:
            x = x + states[:, k + 1]
        escaped = np.sqrt(np.sum((x - center) ** 2, axis=1)) > limit
        if escaped.any():
            raise DivergenceError(
                f"run {int(np.argmax(escaped))} escaped beyond {limit:.3g} at "
                f"step {k + 1}", step=k + 1,
            )
        states[:, k + 1] = x
    del mid, end  # gone before h's result and the noise are made

    outputs = np.asarray(system.h(states), dtype=np.float64).reshape(
        count, n + 1, system.n_y)
    if sigma > 0:
        noise = _draw(seed, seeding.STREAM_MEASUREMENT_NOISE,
                      np.empty(outputs.shape))
        noise *= sigma
        outputs = np.add(outputs, noise, out=noise)
    return TrajectorySet(dt, times, states, inputs, outputs, signals)


def sample_initial_conditions(
    system: SystemSpec, count: int, seed: int
) -> np.ndarray:
    """Uniform i.i.d. draws from the domain box, shape (count, n_x)."""
    if count < 1:
        raise ContractViolation("count must be >= 1")
    lo = system.domain[:, 0]
    hi = system.domain[:, 1]
    if np.any(hi <= lo):
        raise ContractViolation(
            f"system {system.name!r} has a degenerate domain interval"
        )
    rng = seeding.stream(seed, seeding.STREAM_INITIAL_CONDITIONS)
    unit = rng.random((count, system.n_x))
    return lo + unit * (hi - lo)

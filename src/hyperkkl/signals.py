"""Exogenous input families, sliding windows, and difficulty levels.

Five scalar signal kinds are shipped: zero, constant, sinusoid, square,
and multi-sinusoid mixtures. The curriculum orders signals by a level
read from the kind and, for sinusoids, the frequency: zero sits on level
0, constants on 1, slow sinusoids (at most 1 rad/s) on 2, fast sinusoids
and squares on 3, and mixtures on 4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import seeding
from .config import KINDS
from .errors import ContractViolation

# Sampling ranges. The slowest sampled angular frequency (0.2 rad/s) has a
# ~31 s period, so one full period fits the default 50 s horizon.
CONSTANT_RANGE = (-1.0, 1.0)
AMPLITUDE_RANGE = (0.2, 1.0)
FREQ_RANGE = (0.2, 2.0)
MIXTURE_FREQ_RANGE = (0.2, 4.0)
MIXTURE_COMPONENTS = (2, 4)


@dataclass(frozen=True)
class InputSignal:
    """A parametric scalar input u(t)."""

    kind: str
    amplitude: float = 0.0
    frequency: float = 0.0   # rad/s
    phase: float = 0.0
    offset: float = 0.0
    components: tuple = ()   # ((A, w, phi), ...) for mixtures
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ContractViolation(f"unknown signal kind {self.kind!r}")
        if self.kind == "mixture":
            if len(self.components) < 2:
                raise ContractViolation("mixture needs >= 2 components")
            freqs = [w for _, w, _ in self.components]
            if len(set(freqs)) != len(freqs):
                raise ContractViolation("mixture component frequencies must differ")


def eval_signal(signal: InputSignal, t):
    """u(t); vectorized over an array of times. sign(0) := +1 for squares."""
    t = np.asarray(t, dtype=np.float64)
    if signal.kind == "zero":
        return np.zeros_like(t)
    if signal.kind == "constant":
        return np.full_like(t, signal.offset)
    if signal.kind == "sinusoid":
        return (
            signal.amplitude * np.sin(signal.frequency * t + signal.phase)
            + signal.offset
        )
    if signal.kind == "square":
        s = np.sin(signal.frequency * t + signal.phase)
        sign = np.where(s >= 0.0, 1.0, -1.0)
        return signal.amplitude * sign + signal.offset
    acc = np.zeros_like(t)
    for a, w, phi in signal.components:
        acc = acc + a * np.sin(w * t + phi)
    return acc


def sample_signal(regime: str, rng_seed: int) -> InputSignal:
    """Draw a random signal of the given kind, deterministically in rng_seed."""
    if regime not in KINDS:
        raise ContractViolation(f"unknown signal regime {regime!r}")
    rng = seeding.stream(rng_seed, seeding.STREAM_SIGNAL)
    if regime == "zero":
        return InputSignal(kind="zero", seed=rng_seed)
    if regime == "constant":
        c = rng.uniform(*CONSTANT_RANGE)
        return InputSignal(kind="constant", offset=c, seed=rng_seed)
    if regime in ("sinusoid", "square"):
        a = rng.uniform(*AMPLITUDE_RANGE)
        w = rng.uniform(*FREQ_RANGE)
        phi = rng.uniform(0.0, 2.0 * np.pi)
        return InputSignal(
            kind=regime, amplitude=a, frequency=w, phase=phi, seed=rng_seed
        )
    k = int(rng.integers(MIXTURE_COMPONENTS[0], MIXTURE_COMPONENTS[1] + 1))
    comps = []
    freqs: set[float] = set()
    while len(comps) < k:
        a = rng.uniform(*AMPLITUDE_RANGE)
        w = rng.uniform(*MIXTURE_FREQ_RANGE)
        phi = rng.uniform(0.0, 2.0 * np.pi)
        if w in freqs:  # same f64 twice is practically impossible; stay safe
            continue
        freqs.add(w)
        comps.append((a, w, phi))
    return InputSignal(kind="mixture", components=tuple(comps), seed=rng_seed)


def window_matrix(u_seq: np.ndarray, w: int) -> np.ndarray:
    """All sliding windows over a sampled sequence.

    Row k holds the w samples ending at index k, left-padded by repeating
    u[0], so a window that reaches before the first sample reads u[0]
    there. Input (N+1, m); output (N+1, w, m).
    """
    if w <= 0:
        raise ContractViolation("window length must be >= 1")
    u = np.asarray(u_seq, dtype=np.float64)
    if u.ndim != 2:
        raise ContractViolation(f"expected an (N+1, m) sequence, got {u.ndim}-D")
    n1 = len(u)
    padded = np.concatenate([np.repeat(u[:1], w - 1, axis=0), u], axis=0)
    idx = np.arange(n1)[:, None] + np.arange(w)[None, :]
    return padded[idx]


def difficulty_level(signal: InputSignal) -> int:
    """Curriculum level of a signal, 0 (zero input) to 4 (mixtures)."""
    if signal.kind == "zero":
        return 0
    if signal.kind == "constant":
        return 1
    if signal.kind == "sinusoid":
        return 2 if signal.frequency <= 1.0 else 3
    if signal.kind == "square":
        return 3
    return 4

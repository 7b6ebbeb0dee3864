"""Exogenous input families, sliding windows, and difficulty levels.

Five scalar signal kinds are shipped: zero, constant, sinusoid, square,
and multi-sinusoid mixtures. Every run's input, zero input included, is
one ``InputSignal``: a kind, an offset and a tuple of (A, w, phi)
components, whose counts and offsets KIND_RULES fixes per kind. A
sinusoid or square carries its one (A, w, phi) as its only component.
The curriculum orders signals by a level read from the kind and, for
sinusoids, the frequency: zero sits on level 0, constants on 1, slow
sinusoids (at most 1 rad/s) on 2, fast sinusoids and squares on 3, and
mixtures on 4. The input windows the networks read follow one rule,
``window_index``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import seeding
from .errors import ContractViolation

# Sampling ranges. The slowest sampled angular frequency (0.2 rad/s) has a
# ~31 s period, so one full period fits the default 50 s horizon.
CONSTANT_RANGE = (-1.0, 1.0)
AMPLITUDE_RANGE = (0.2, 1.0)
FREQ_RANGE = (0.2, 2.0)
MIXTURE_FREQ_RANGE = (0.2, 4.0)
MIXTURE_COMPONENTS = (2, 4)

# Per kind, in config.KINDS order: the least and the most component
# count (None: no bound) and whether the kind may carry a nonzero offset.
KIND_RULES = {
    "zero": (0, 0, False),
    "constant": (0, 0, True),
    "sinusoid": (1, 1, True),
    "square": (1, 1, True),
    "mixture": (2, None, False),
}


@dataclass(frozen=True)
class InputSignal:
    """A parametric scalar input u(t): an offset and (A, w [rad/s], phi)
    components, as many as KIND_RULES allows the kind, at distinct w."""

    kind: str
    offset: float = 0.0
    components: tuple = ()

    def __post_init__(self):
        if self.kind not in KIND_RULES:
            raise ContractViolation(f"unknown signal kind {self.kind!r}")
        least, most, takes_offset = KIND_RULES[self.kind]
        k = len(self.components)
        if k < least or (most is not None and k > most):
            more = "" if most is not None else " or more"
            raise ContractViolation(f"{self.kind} signal has {k} components, "
                                    f"needs {least}{more}")
        if self.offset != 0.0 and not takes_offset:
            raise ContractViolation(f"{self.kind} signal has offset "
                                    f"{self.offset!r}, its kind takes none")
        freqs = [w for _, w, _ in self.components]
        if len(set(freqs)) != len(freqs):
            raise ContractViolation(f"{self.kind} component frequencies "
                                    "must differ")


def eval_signal(signal: InputSignal, t):
    """u(t) = offset + sum of A sin(w t + phi) over the components, in
    order; a square adds A sign(sin(w t + phi)) instead, with sign(0) :=
    +1. Vectorized over an array of times."""
    t = np.asarray(t, dtype=np.float64)
    u = np.full_like(t, signal.offset)
    for a, w, phi in signal.components:
        s = np.sin(w * t + phi)
        if signal.kind == "square":
            s = np.where(s >= 0.0, 1.0, -1.0)
        u += a * s
    return u


def sample_signal(regime: str, rng_seed: int) -> InputSignal:
    """Draw a random signal of the given kind, deterministically in rng_seed."""
    if regime not in KIND_RULES:
        raise ContractViolation(f"unknown signal regime {regime!r}")
    rng = seeding.stream(rng_seed, seeding.STREAM_SIGNAL)
    if regime == "zero":
        return InputSignal(kind="zero")
    if regime == "constant":
        return InputSignal(kind="constant", offset=rng.uniform(*CONSTANT_RANGE))
    if regime in ("sinusoid", "square"):
        a = rng.uniform(*AMPLITUDE_RANGE)
        w = rng.uniform(*FREQ_RANGE)
        phi = rng.uniform(0.0, 2.0 * np.pi)
        return InputSignal(kind=regime, components=((a, w, phi),))
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
    return InputSignal(kind="mixture", components=tuple(comps))


def window_index(ends, w: int) -> np.ndarray:
    """The sample indices of the w-long windows ending at ``ends``: row i
    reads samples max(ends[i] - w + 1 + j, 0), j = 0 .. w-1, so a window
    that reaches before the first sample repeats it there. (len, w)."""
    if w <= 0:
        raise ContractViolation("window length must be >= 1")
    return np.maximum(np.asarray(ends)[:, None] + np.arange(1 - w, 1), 0)


def window_matrix(u_seq: np.ndarray, w: int, lo: int = 0,
                  hi: int | None = None) -> np.ndarray:
    """The sliding windows over a sampled sequence that end at samples
    lo .. hi - 1 (by default all of them): row i holds the
    ``window_index`` window ending at sample lo + i. Input (N+1, m);
    output (hi - lo, w, m)."""
    u = np.asarray(u_seq, dtype=np.float64)
    if u.ndim != 2:
        raise ContractViolation(f"expected an (N+1, m) sequence, got {u.ndim}-D")
    return u[window_index(np.arange(lo, len(u) if hi is None else hi), w)]


def difficulty_level(signal: InputSignal) -> int:
    """Curriculum level of a signal, 0 (zero input) to 4 (mixtures)."""
    if signal.kind == "sinusoid":
        return 2 if signal.components[0][1] <= 1.0 else 3
    return {"zero": 0, "constant": 1, "square": 3, "mixture": 4}[signal.kind]

"""Counter-based random streams.

Every stochastic operation in the package draws from a Philox generator
keyed by (seed, stream). Streams are fixed role constants, so e.g. the
process-noise draws of trajectory 17 never depend on whether trajectory
16 was generated before or after it. This is what makes parallel dataset
generation order-independent and every run bit-reproducible.
"""

import numpy as np

# Role constants for the second key word. Values are arbitrary but frozen:
# changing them silently changes every generated dataset.
STREAM_PROCESS_NOISE = 0
STREAM_MEASUREMENT_NOISE = 1
STREAM_INITIAL_CONDITIONS = 2
STREAM_SIGNAL = 3
STREAM_COLLOCATION = 4
STREAM_PARAM_INIT = 5
STREAM_BATCH = 6

_MASK64 = (1 << 64) - 1


def stream(seed: int, role: int) -> np.random.Generator:
    """A deterministic generator for (seed, role). The seed is taken
    mod 2^64; ``data.check_seed_range`` keeps run seeds from wrapping."""
    key = np.array([seed & _MASK64, role & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))

"""Counter-based RNG streams: reproducible, independent, order-insensitive.

Philox keyed by (seed, stream) gives every Monte Carlo replicate its own
stream, so parallel or reordered execution cannot change any draw.
"""

from __future__ import annotations

import numpy as np


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    seed = int(seed) & (2**64 - 1)
    stream = int(stream) & (2**64 - 1)
    return np.random.Generator(np.random.Philox(key=(seed << 64) + stream))

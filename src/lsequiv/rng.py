"""Counter-based RNG streams: reproducible, independent, order-insensitive.

Philox keyed by (seed, stream) gives every Monte Carlo replicate its own
stream, so parallel or reordered execution cannot change any draw.
"""

from __future__ import annotations

# numpy.random is imported with the package, so that the first make_rng of a
# run does not pay for loading it
from numpy.random import Generator, Philox


def make_rng(seed: int, stream: int = 0) -> Generator:
    seed = int(seed) & (2**64 - 1)
    stream = int(stream) & (2**64 - 1)
    return Generator(Philox(key=(seed << 64) + stream))

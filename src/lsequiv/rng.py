"""Counter-based RNG streams: reproducible, independent, order-insensitive.

Philox keyed by (seed, stream) gives every Monte Carlo replicate its own
stream, so parallel or reordered execution cannot change any draw.
"""

from __future__ import annotations

# numpy.random is imported with the package, so that the first make_rng of a
# run does not pay for loading it
from numpy.random import Generator, Philox

from .errors import ConfigurationError


def make_rng(seed: int, stream: int = 0) -> Generator:
    """Philox keyed by (seed, stream); outside [0, 2^64) either raises."""
    seed, stream = int(seed), int(stream)
    if not (0 <= seed < 2**64 and 0 <= stream < 2**64):
        raise ConfigurationError(f"seed {seed} and stream {stream} must lie in [0, 2^64)")
    return Generator(Philox(key=(seed << 64) + stream))

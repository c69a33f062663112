"""Deterministic seed derivation for parallel replications.

spawn_seed(master, index) is a splitmix64 step of master + index, so
replication streams never collide and results are reproducible whatever
the worker count. _rng(seed) is the generator every seeded sampler in the
package draws from.
"""

import operator

import numpy as np

from .errors import InvalidInput

MASK = (1 << 64) - 1


def splitmix64(x):
    """One splitmix64 output for a 64-bit state."""
    x = (x + 0x9E3779B97F4A7C15) & MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def spawn_seed(master_seed, index):
    """Seed for replication `index` of a run keyed by `master_seed`."""
    return splitmix64(((master_seed & MASK) + 0x9E3779B97F4A7C15 * index) & MASK)


def _check_seed(seed):
    """Raise InvalidInput unless seed is an integer 64-bit key, in [0, 2**64)."""
    try:
        seed = operator.index(seed)
    except TypeError:
        raise InvalidInput(f"seed {seed!r:.40} is not an integer") from None
    if not 0 <= seed <= MASK:
        raise InvalidInput(f"seed must be in [0, 2**64), got {seed}")


def _rng(seed):
    """Philox generator keyed by a 64-bit seed."""
    _check_seed(seed)
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))

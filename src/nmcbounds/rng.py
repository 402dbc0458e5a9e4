"""Seed handling for reproducible Monte-Carlo work.

Every stochastic operation takes either an integer seed or a ready
``numpy.random.Generator``.  Parallelizable loops give each work item a
64-bit key with :func:`derive_seed`, a splitmix64 mix of the base seed and
the item index, so results do not depend on scheduling order.

A key also names a counter-based stream (Salmon et al. 2011): draw i of
key k is ``splitmix64(k + i * 0x9E3779B97F4A7C15)``, the splitmix64
sequence seeded with k (Steele, Lea & Flood 2014).  A draw is a pure
function of (key, i), so :func:`stream_uniforms` computes the draws of any
set of keys in one vectorised pass, and a work item's draws do not depend
on the batch it is drawn in.  ``splitmix64`` and ``derive_seed`` take
Python ints or numpy ``uint64`` arrays alike; on arrays they wrap modulo
2**64 exactly as the ``& _MASK64`` of the int path.
"""

from __future__ import annotations

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15


def splitmix64(state):
    """One splitmix64 output step (Steele, Lea & Flood's finalizer)."""
    z = (state + _GOLDEN_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(seed: int, index):
    """64-bit child seed for work item ``index`` under base ``seed``; an
    ``index`` array gives one seed per entry."""
    return splitmix64(splitmix64(seed & _MASK64) ^ (index & _MASK64))


def stream_uniforms(keys, n: int) -> np.ndarray:
    """The first ``n`` draws of each key's stream as uniforms in (0, 1]:
    row r, column i is (top 53 bits of draw i of keys[r] + 1) / 2**53."""
    keys = np.asarray(keys, dtype=np.uint64)
    draws = splitmix64(keys[:, None] + np.arange(n, dtype=np.uint64) * _GOLDEN_GAMMA)
    draws >>= 11
    draws += 1
    return draws * 2.0 ** -53


def as_generator(seed_or_rng) -> np.random.Generator:
    """Coerce an int seed, None, or a Generator into a Generator."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)

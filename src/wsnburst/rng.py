"""Deterministic seed derivation and named RNG substreams.

Every random quantity in a run is drawn from a substream keyed by
(master seed, sweep coordinates, day, entity), so adding a source or a
node never perturbs the draws of any other entity.  Seeds are derived
with a splitmix64-style chain; substreams are numpy PCG64 generators.
"""
from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    """splitmix64 finalizer: avalanche a 64-bit value."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(master: int, *parts: int) -> int:
    """Derive a child seed from a master seed and integer coordinates.

    The same (master, parts) always yields the same seed; distinct part
    tuples yield independent-looking seeds.
    """
    state = mix64(int(master))
    for part in parts:
        state = (state + _GOLDEN) & _MASK64
        state = mix64(state ^ (int(part) & _MASK64))
    return state


def fnv1a64(text: str) -> int:
    """Stable 64-bit FNV-1a hash of a string (entity names to seed parts)."""
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * 0x100000001B3) & _MASK64
    return h


def substream(seed: int) -> np.random.Generator:
    """A fresh PCG64 generator for the given derived seed."""
    return np.random.Generator(np.random.PCG64(seed & _MASK64))


def open_uniform_array(rng: np.random.Generator, n: int) -> np.ndarray:
    """n uniforms on (0,1); exact zeros are redrawn in place."""
    u = rng.random(n)
    zero = u == 0.0
    while zero.any():
        u[zero] = rng.random(int(zero.sum()))
        zero = u == 0.0
    return u

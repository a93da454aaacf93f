"""Deterministic 64-bit generator (SplitMix64) for reproducible verification.

The stream is part of the tool's external contract: verification reports must
be byte-reproducible from the seed alone, independent of platform or numpy
version, so the generator is spelled out here rather than delegated.

State update:   s_{n+1} = (s_n + 0x9E3779B97F4A7C15) mod 2^64
Output mixing:  z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9;
                z ^= z >> 27;  z *= 0x94D049BB133111EB;
                z ^= z >> 31        (all mod 2^64)
Floats:         (z >> 11) * 2^-53, uniform on [0, 1)

Reference vector: seed 0 produces 0xE220A8397B1DCDAF first.

The k-th state after seed s is s + k * 0x9E3779B97F4A7C15 (mod 2^64), so
``next_floats(n)`` draws n outputs at once on uint64 arrays, with the same
bits as n calls of ``next_float``.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB


class SplitMix64:
    """Counter-based splittable PRNG with a 64-bit state."""

    __slots__ = ("state",)

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK64

    def _next_outputs(self, n: int) -> np.ndarray:
        """The next ``n`` outputs as a uint64 array, advancing the state by n steps.

        Every operation has an array operand, where uint64 wraps mod 2^64
        silently (an operation on two numpy scalars warns on wraparound).
        """
        steps = np.arange(1, n + 1, dtype=np.uint64)
        z = np.uint64(self.state) + steps * np.uint64(_GOLDEN_GAMMA)
        self.state = (self.state + n * _GOLDEN_GAMMA) & _MASK64
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX_1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_2)
        return z ^ (z >> np.uint64(31))

    def next_floats(self, n: int) -> np.ndarray:
        """The next ``n`` uniform floats in [0, 1), each from the top 53 bits of an output."""
        return (self._next_outputs(n) >> np.uint64(11)) * 2.0**-53

    def next_uint64(self) -> int:
        return int(self._next_outputs(1)[0])

    def next_float(self) -> float:
        """Uniform float in [0, 1) from the top 53 bits."""
        return float(self.next_floats(1)[0])

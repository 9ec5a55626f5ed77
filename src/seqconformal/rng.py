"""Seedable random streams with deterministic substreams.

All randomness in the package flows through :class:`RandomStream`, a thin
wrapper over numpy's PCG64 generator. A stream is identified by its
64-bit seed plus a path of substream indices, so e.g. the data stream and
the tie-breaking stream of a scenario are derived independently and
changing how much one consumes never perturbs the other.
"""

from __future__ import annotations

import numpy as np


class RandomStream:
    """PCG64-backed uniform stream, addressable by (seed, substream path)."""

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.path = tuple(int(i) for i in path)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)
        self._gen = np.random.Generator(np.random.PCG64(ss))

    def substream(self, index: int) -> "RandomStream":
        """Independent child stream; same (seed, path, index) always yields
        the same stream regardless of what the parent has consumed."""
        return RandomStream(self.seed, self.path + (int(index),))

    def uniforms(self, n: int) -> np.ndarray:
        """n uniform draws from [0, 1)."""
        return self._gen.random(int(n))

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed}, path={self.path})"

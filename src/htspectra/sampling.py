"""Heavy-tailed entry laws, their quantile normalization and RNG streams.

The entry law is the symmetric Pareto law P(|x| >= u) = min(1, u^-alpha), so
the matrix normalization a_N = inf{u : P(|x| >= u) <= 1/N} is an exact
quantile.  A scale factor on the entries would cancel in every normalized
matrix, so the law has none.
Randomness comes from counter-based Philox streams keyed by (master_seed,
stream_id), which makes parallel Monte Carlo reproducible regardless of
thread schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "StableTailLaw",
    "RngStreamSpec",
    "normalizer_a_N",
    "sample_entries",
]


@dataclass(frozen=True)
class StableTailLaw:
    """Symmetric Pareto law with tail index alpha in (0, 2):
    P(|x| >= u) = min(1, u^-alpha)."""

    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 2.0:
            raise ValueError(f"alpha must lie in (0, 2), got {self.alpha}")


@dataclass(frozen=True)
class RngStreamSpec:
    """Key of a counter-based random stream.

    Distinct stream_ids give independent substreams; the same pair always
    reproduces byte-identical draws.
    """

    master_seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        bits = np.random.Philox(key=[self.master_seed & 0xFFFFFFFFFFFFFFFF,
                                     self.stream_id & 0xFFFFFFFFFFFFFFFF])
        return np.random.Generator(bits)


def normalizer_a_N(law: StableTailLaw, N: int) -> float:
    """Quantile normalization a_N = inf{u : P(|x| >= u) <= 1/N}:
    u^-alpha = 1/N gives u = N^(1/alpha)."""
    if N < 1:
        raise ValueError("N must be >= 1")
    return N ** (1.0 / law.alpha)


def sample_entries(law: StableTailLaw, rng: np.random.Generator, size) -> np.ndarray:
    """Draw an array of i.i.d. entries from the law: sign * exp(E/alpha)
    with E standard exponential, the Pareto law, since E = -log U turns
    U^(-1/alpha) into this form.

    The magnitudes take one ziggurat draw each; the signs are independent
    bits drawn after them, so a stream's signs do not depend on alpha.
    """
    x = rng.standard_exponential(size)
    bits = np.unpackbits(rng.integers(0, 256, -(-x.size // 8), dtype=np.uint8),
                         count=x.size).reshape(x.shape)
    x /= law.alpha
    np.exp(x, out=x)
    x *= np.take([1.0, -1.0], bits)
    return x

"""Heavy-tailed entry laws, their quantile normalization and RNG streams.

Laws are symmetric with a power tail P(|x| >= u) ~ (scale/u)^alpha, so the
matrix normalization a_N = inf{u : P(|x| >= u) <= 1/N} is an exact quantile.
Randomness comes from counter-based Philox streams keyed by (master_seed,
stream_id), which makes parallel Monte Carlo reproducible regardless of
thread schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "StableTailLaw",
    "RngStreamSpec",
    "normalizer_a_N",
    "sample_entry",
    "sample_entries",
]

_FAMILIES = ("symmetric-pareto", "symmetric-alpha-stable")


@dataclass(frozen=True)
class StableTailLaw:
    """Symmetric law with tail index alpha in (0, 2).

    symmetric-pareto:        P(|x| >= u) = min(1, (scale/u)^alpha)
    symmetric-alpha-stable:  characteristic function exp(-scale^alpha |t|^alpha)
    """

    alpha: float
    family: str = "symmetric-pareto"
    scale: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.alpha < 2.0:
            raise ValueError(f"alpha must lie in (0, 2), got {self.alpha}")
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    def tail(self, u: float) -> float:
        """P(|x| >= u)."""
        if u <= 0:
            return 1.0
        if self.family == "symmetric-pareto":
            return min(1.0, (self.scale / u) ** self.alpha)
        from scipy import stats

        return 2.0 * stats.levy_stable.sf(u / self.scale, self.alpha, 0.0)


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
    """Quantile normalization a_N = inf{u : P(|x| >= u) <= 1/N}."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if law.family == "symmetric-pareto":
        # (scale/u)^alpha = 1/N  =>  u = scale * N^(1/alpha)
        return law.scale * N ** (1.0 / law.alpha)
    from scipy import optimize

    target = 1.0 / N
    if law.tail(law.scale) <= target:
        lo, hi = 1e-12 * law.scale, law.scale
    else:
        lo, hi = law.scale, law.scale
        while law.tail(hi) > target:
            hi *= 2.0
    return optimize.brentq(lambda u: law.tail(u) - target, lo, hi, xtol=1e-12)


def _pareto_draws(law: StableTailLaw, rng: np.random.Generator, size):
    """sign * scale * exp(E/alpha) with E standard exponential: the Pareto
    law, since E = -log U turns scale * U^(-1/alpha) into this form.

    The magnitudes take one ziggurat draw each; the signs are independent
    bits drawn after them, so a stream's signs do not depend on alpha.
    """
    x = rng.standard_exponential(size)
    bits = np.unpackbits(rng.integers(0, 256, -(-x.size // 8), dtype=np.uint8),
                         count=x.size).reshape(x.shape)
    x /= law.alpha
    np.exp(x, out=x)
    x *= np.take([law.scale, -law.scale], bits)
    return x


def _cms_transform(law: StableTailLaw, theta: np.ndarray, expo: np.ndarray):
    """Chambers-Mallows-Stuck map for the symmetric stable law.

    theta is uniform on (-pi/2, pi/2) and expo standard exponential.
    """
    al = law.alpha
    if al == 1.0:
        return law.scale * np.tan(theta)
    x = (np.sin(al * theta) / np.cos(theta) ** (1.0 / al)
         * (np.cos((1.0 - al) * theta) / expo) ** ((1.0 - al) / al))
    return law.scale * x


def sample_entries(law: StableTailLaw, rng: np.random.Generator, size) -> np.ndarray:
    """Draw an array of i.i.d. entries from the law."""
    if law.family == "symmetric-pareto":
        return _pareto_draws(law, rng, size)
    theta = (rng.random(size) - 0.5) * math.pi
    expo = rng.standard_exponential(size)
    return _cms_transform(law, theta, expo)


def sample_entry(law: StableTailLaw, rng: np.random.Generator) -> float:
    return float(sample_entries(law, rng, ()))

"""Finite-N heavy-tailed random matrix ensembles.

Band matrices A(i,j) = sigma(i/N, j/N) x_ij / a_N with optional entry
truncation and diagonal perturbation, sample covariance matrices
W = X X^t / a_{N+M}^2.  Variance profiles sigma come in three variants
(constant, piecewise-constant on a grid of intervals, and band phi(x-y));
``alpha_kernel`` turns each into the cell weights and kernel of its limit
system.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .sampling import RngStreamSpec, StableTailLaw, normalizer_a_N, sample_entries

__all__ = [
    "SigmaProfile",
    "DiagonalLaw",
    "EnsembleSpec",
    "build_band_matrix",
    "assemble_band_matrix",
    "build_covariance_matrix",
    "alpha_kernel",
    "band_alpha_integral",
    "covariance_profile",
]

_VARIANTS = ("constant", "piecewise", "band")


def _check_finite(name: str, values: np.ndarray):
    if not np.isfinite(values).all():
        raise ValueError(f"{name} must be finite")


def _step_index(b: np.ndarray, x):
    """Index of the interval [b_k, b_{k+1}) holding x, clipped to the ends."""
    return np.clip(np.searchsorted(b, x, side="right") - 1, 0, b.size - 2)


@dataclass(frozen=True)
class SigmaProfile:
    """Symmetric variance profile sigma(x, y) on [0,1]^2.

    constant:  sigma = c everywhere.
    piecewise: constant sigma_rs on I_r x I_s for a partition
               0 = b_0 < b_1 < ... < b_q = 1.
    band:      sigma(x, y) = phi(x - y) for an even period-1 step
               function phi, given by breakpoints and values on [0, 1].

    ``from_json`` reads a p x p grid of values, {"type": "grid"}, as the
    piecewise profile with breaks k/p.
    """

    variant: str
    c: float = 1.0
    breaks: tuple = ()
    matrix: tuple = ()
    breakpoints: tuple = ()
    values: tuple = ()

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown profile variant {self.variant!r}")
        if self.variant == "constant":
            if not math.isfinite(self.c):
                raise ValueError(f"c must be finite, got {self.c}")
        elif self.variant == "piecewise":
            b = np.asarray(self.breaks, dtype=float)
            if b.size < 2 or b[0] != 0.0 or b[-1] != 1.0 \
                    or not np.all(np.diff(b) > 0):
                raise ValueError("breaks must increase strictly from 0 to 1")
            m = np.asarray(self.matrix, dtype=float)
            q = b.size - 1
            if m.shape != (q, q):
                raise ValueError(f"matrix must be {q}x{q}")
            _check_finite("matrix", m)
            if not np.array_equal(m, m.T):
                raise ValueError("piecewise matrix must be symmetric")
        elif self.variant == "band":
            b = np.asarray(self.breakpoints, dtype=float)
            v = np.asarray(self.values, dtype=float)
            if b.size < 2 or b[0] != 0.0 or b[-1] != 1.0 \
                    or not np.all(np.diff(b) > 0):
                raise ValueError("breakpoints must increase strictly from 0 to 1")
            if v.size != b.size - 1:
                raise ValueError("need one value per breakpoint interval")
            _check_finite("values", v)
            # phi must be even: phi(1 - x) = phi(-x) = phi(x) by periodicity.
            xs = 0.5 * (b[:-1] + b[1:])
            mirrored = v[_step_index(b, (1.0 - xs) % 1.0)]
            if np.any(np.abs(mirrored - v) > 1e-12):
                raise ValueError("band profile phi must be even")

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """sigma at arbitrary points of [0,1]^2 (vectorized)."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if self.variant == "constant":
            return np.broadcast_to(float(self.c), np.broadcast_shapes(x.shape, y.shape)).copy()
        if self.variant == "piecewise":
            b = np.asarray(self.breaks, dtype=float)
            m = np.asarray(self.matrix, dtype=float)
            return m[_step_index(b, x), _step_index(b, y)]
        b = np.asarray(self.breakpoints, dtype=float)
        v = np.asarray(self.values, dtype=float)
        return v[_step_index(b, np.mod(x - y, 1.0))]

    def lattice(self, N: int) -> np.ndarray:
        """sigma sampled at ((i+1)/N, (j+1)/N), i, j = 0..N-1."""
        t = np.arange(1, N + 1) / N
        return self.evaluate(t[:, None], t[None, :])

    # -- JSON ---------------------------------------------------------------

    @staticmethod
    def from_json(obj) -> "SigmaProfile":
        if isinstance(obj, str):
            obj = json.loads(obj)
        kind = obj.get("type")
        if kind == "constant":
            return SigmaProfile("constant", c=float(obj["c"]))
        if kind == "piecewise":
            return SigmaProfile("piecewise", breaks=tuple(obj["breaks"]),
                                matrix=tuple(tuple(row) for row in obj["matrix"]))
        if kind == "band":
            return SigmaProfile("band", breakpoints=tuple(obj["breakpoints"]),
                                values=tuple(obj["values"]))
        if kind == "grid":   # the piecewise profile on breaks k/p
            p = int(obj["resolution"])
            if p < 1:
                raise ValueError(f"grid resolution must be >= 1, got {p}")
            return SigmaProfile("piecewise",
                                breaks=tuple((np.arange(p + 1) / p).tolist()),
                                matrix=tuple(tuple(row) for row in obj["values"]))
        raise ValueError(f"unknown profile type {kind!r}")

    def to_json(self) -> dict:
        if self.variant == "constant":
            return {"type": "constant", "c": self.c}
        if self.variant == "piecewise":
            return {"type": "piecewise", "breaks": list(self.breaks),
                    "matrix": [list(r) for r in self.matrix]}
        return {"type": "band", "breakpoints": list(self.breakpoints),
                "values": list(self.values)}


@dataclass(frozen=True)
class DiagonalLaw:
    """Finite-atom law of the diagonal perturbation entries."""

    atoms: tuple  # of (location, weight)

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("need at least one atom")
        _check_finite("atom locations and weights", np.array(self.atoms))
        w = sum(wi for _, wi in self.atoms)
        if any(wi <= 0 for _, wi in self.atoms):
            raise ValueError("weights must be positive")
        if abs(w - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {w}")

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        locs = np.array([l for l, _ in self.atoms])
        ws = np.array([w for _, w in self.atoms])
        return rng.choice(locs, size=size, p=ws / ws.sum())

    @staticmethod
    def from_json(obj) -> "DiagonalLaw":
        if isinstance(obj, str):
            obj = json.loads(obj)
        return DiagonalLaw(tuple((float(a["lambda"]), float(a["w"]))
                                 for a in obj["atoms"]))

    def to_json(self) -> dict:
        return {"atoms": [{"lambda": l, "w": w} for l, w in self.atoms]}


@dataclass(frozen=True)
class EnsembleSpec:
    """Everything needed to build one band-matrix sample; truncation B,
    when given, keeps the entries |x| < B a_N."""

    N: int
    law: StableTailLaw
    profile: SigmaProfile
    truncation: Optional[float] = None
    diagonal: Optional[DiagonalLaw] = None
    seed: RngStreamSpec = field(default_factory=lambda: RngStreamSpec(0))

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if self.truncation is not None and not self.truncation > 0:
            raise ValueError("truncation level B must be positive")


def assemble_band_matrix(packed: np.ndarray, profile: SigmaProfile,
                         a_N: float, truncate_at: Optional[float] = None,
                         diagonal: Optional[np.ndarray] = None) -> np.ndarray:
    """Deterministic assembly A(i,j) = sigma(i/N, j/N) x_ij / a_N.

    ``packed`` holds the N(N+1)/2 entries x_ij, i <= j, of the symmetric x
    array in ``np.triu_indices(N)`` order.  Truncation (|x| < truncate_at
    kept) and the 1/a_N scale act on the packed values; one pass then
    writes each row's sigma-weighted upper part into that row and mirrors
    it into the column, so the result is exactly symmetric.  The diagonal
    perturbation is added in place.  Separated from the sampling so that
    forced draws can be assembled in tests.
    """
    v = np.asarray(packed, dtype=float)
    N = (math.isqrt(8 * v.size + 1) - 1) // 2
    if v.ndim != 1 or N * (N + 1) // 2 != v.size:
        raise ValueError("need the N(N+1)/2 packed upper-triangle entries")
    w = v / a_N
    if truncate_at is not None:
        w = np.where(np.abs(v) < truncate_at, w, 0.0)
    lattice = None
    if profile.variant == "constant":
        w *= profile.c
    else:
        lattice = profile.lattice(N)
    a = np.empty((N, N))
    start = 0
    for i in range(N):
        stop = start + N - i
        row = w[start:stop]
        if lattice is not None:
            row = lattice[i, i:] * row
        a[i, i:] = row
        a[i:, i] = row
        start = stop
    if diagonal is not None:
        a[np.diag_indices(N)] += np.asarray(diagonal, dtype=float)
    return a


def build_band_matrix(spec: EnsembleSpec) -> np.ndarray:
    """One sample of the normalized band matrix (optionally truncated,
    optionally diagonally perturbed) from its N(N+1)/2 independent
    entries."""
    rng = spec.seed.generator()
    x = sample_entries(spec.law, rng, spec.N * (spec.N + 1) // 2)
    a_N = normalizer_a_N(spec.law, spec.N)
    diag = None
    if spec.diagonal is not None:
        diag = spec.diagonal.sample(rng, spec.N)
    cut = None if spec.truncation is None else spec.truncation * a_N
    return assemble_band_matrix(x, spec.profile, a_N, truncate_at=cut,
                                diagonal=diag)


def build_covariance_matrix(law: StableTailLaw, N: int, M: int,
                            seed: RngStreamSpec,
                            entries: Optional[np.ndarray] = None) -> np.ndarray:
    """W = X X^t / a_{N+M}^2 with X an N x M matrix of i.i.d. draws."""
    if not 1 <= M <= N:
        raise ValueError("need 1 <= M <= N")
    # scaled before the product: at small alpha a product of two entries
    # exp(E/alpha) overflows where the normalized matrix is finite; sampled
    # entries are scaled in place, so the scaling allocates nothing
    a = normalizer_a_N(law, N + M)
    if entries is None:
        x = sample_entries(law, seed.generator(), (N, M))
        x /= a
    else:
        x = np.asarray(entries, dtype=float) / a
    return x @ x.T


def alpha_kernel(profile: SigmaProfile, alpha: float):
    """Weights and kernel of the limiting q-component system, the normal
    form of a profile.

    Returns (weights Delta_s, K) with K_rs the value of |sigma|^alpha on
    the product cell I_r x I_s: a constant is one cell, a piecewise profile
    has the cells of its breaks.  A band profile phi(x - y) is one cell of
    int_0^1 |phi|^alpha: every row of sigma carries the same law, so the
    decaying solution is constant in x and is that of the constant profile
    (int_0^1 |phi|^alpha)^(1/alpha) (band equivalence).
    """
    if profile.variant == "band":
        return np.ones(1), np.array([[band_alpha_integral(profile, alpha)]])
    if profile.variant == "constant":
        return np.ones(1), np.abs(np.array([[float(profile.c)]])) ** alpha
    return (np.diff(np.asarray(profile.breaks, dtype=float)),
            np.abs(np.asarray(profile.matrix, dtype=float)) ** alpha)


def band_alpha_integral(profile: SigmaProfile, alpha: float) -> float:
    """int_0^1 |phi(v)|^alpha dv of a band profile, exactly from its
    breakpoints; also the double integral of |sigma|^alpha."""
    b = np.asarray(profile.breakpoints, dtype=float)
    v = np.asarray(profile.values, dtype=float)
    return float(np.sum(np.abs(v) ** alpha * np.diff(b)))


def covariance_profile(gamma: float) -> SigmaProfile:
    """Two-block off-diagonal profile whose band matrix mirrors the
    covariance block embedding: break at 1/(1+gamma), sigma_12 = 1."""
    if gamma <= 0 or gamma > 1:
        raise ValueError("gamma must lie in (0, 1]")
    brk = 1.0 / (1.0 + gamma)
    return SigmaProfile("piecewise", breaks=(0.0, brk, 1.0),
                        matrix=((0.0, 1.0), (1.0, 0.0)))

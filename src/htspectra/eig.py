"""Spectra of symmetric matrices and distances between distributions.

Eigenvalues come from the standard symmetric solver (Householder reduction
to tridiagonal form plus implicitly shifted QL/QR, as provided by LAPACK);
spectra are wrapped as empirical measures with CSV export, and compared to
theoretical CDFs via Kolmogorov-Smirnov and windowed Wasserstein-1 metrics
on a fixed evaluation grid.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

__all__ = [
    "EmpiricalSpectrum",
    "DistanceReport",
    "eigenvalues_symmetric",
    "distance_grid",
    "distribution_distance",
    "spectra_to_csv",
    "spectra_from_csv",
]


class EigenDecompositionError(RuntimeError):
    """The symmetric eigensolver failed to converge."""


class NonFiniteMatrixError(ValueError):
    """The matrix holds a NaN or an infinity, as when its entries
    overflow."""


def eigenvalues_symmetric(m: np.ndarray) -> np.ndarray:
    """All eigenvalues of a real symmetric matrix, sorted ascending.

    The input must be finite and symmetric to 1e-12 relative; this is
    checked rather than silently symmetrized so that assembly bugs surface
    here.  LAPACK returns wrong eigenvalues for a NaN or an infinity
    without an error.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if not np.isfinite(m).all():
        raise NonFiniteMatrixError("matrix has non-finite entries")
    # exact symmetry, the assemblers' output, skips the tolerance test
    if not np.array_equal(m, m.T):
        scale = max(float(np.max(np.abs(m))), 1e-300)
        if float(np.max(np.abs(m - m.T))) > 1e-12 * scale:
            raise ValueError("matrix is not symmetric within 1e-12 relative")
    try:
        return np.linalg.eigvalsh(m)   # in ascending order
    except np.linalg.LinAlgError as exc:
        raise EigenDecompositionError(str(exc)) from exc


@dataclass(frozen=True)
class EmpiricalSpectrum:
    """Eigenvalue multiset of one trial matrix."""

    eigenvalues: np.ndarray
    trial_id: int = 0

    def __post_init__(self):
        ev = np.sort(np.asarray(self.eigenvalues, dtype=float))
        object.__setattr__(self, "eigenvalues", ev)

    @staticmethod
    def from_matrix(m: np.ndarray, trial_id: int = 0) -> "EmpiricalSpectrum":
        return EmpiricalSpectrum(eigenvalues_symmetric(m), trial_id)


def _pool(spectra) -> np.ndarray:
    if isinstance(spectra, EmpiricalSpectrum):
        return spectra.eigenvalues
    return np.sort(np.concatenate([s.eigenvalues for s in spectra]))


@dataclass(frozen=True)
class DistanceReport:
    ks: float
    w1_window: float
    window: Tuple[float, float]
    excluded_neighborhood: float = 0.0

    def to_json(self) -> dict:
        return {"ks": self.ks, "w1_window": self.w1_window,
                "window": list(self.window),
                "excluded_neighborhood": self.excluded_neighborhood}


# points of the uniform grid over a distance window
GRID_POINTS = 2001


def distance_grid(window: Tuple[float, float],
                  excluded0: float) -> np.ndarray:
    """The grid of ``distribution_distance``: GRID_POINTS uniform points
    over the window, less the open neighborhood (-excluded0, excluded0).
    Raises ValueError unless the window has finite ends lo < hi, excluded0
    is finite and >= 0, and at least two points are left."""
    lo, hi = window
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("window ends must be finite")
    if not lo < hi:
        raise ValueError("empty window")
    if not (math.isfinite(excluded0) and excluded0 >= 0):
        raise ValueError("excluded neighborhood must be finite and >= 0")
    ts = np.linspace(lo, hi, GRID_POINTS)
    if excluded0 > 0:
        ts = ts[np.abs(ts) >= excluded0]
        if ts.size < 2:
            raise ValueError("window is entirely excluded")
    return ts


def distribution_distance(spectra, theory_cdf: Callable[[float], float],
                          window: Tuple[float, float],
                          excluded0: float = 0.0) -> DistanceReport:
    """KS and windowed-W1 between an empirical spectrum and a theory CDF,
    both evaluated on ``distance_grid(window, excluded0)``."""
    lo, hi = window
    ts = distance_grid(window, excluded0)
    ev = _pool(spectra)
    femp = np.searchsorted(ev, ts, side="right") / ev.size
    fth = np.array([float(theory_cdf(t)) for t in ts])
    gap = np.abs(femp - fth)
    ks = float(np.max(gap))
    w1 = float(np.trapezoid(gap, ts))
    return DistanceReport(ks=ks, w1_window=w1, window=(lo, hi),
                          excluded_neighborhood=excluded0)


def spectra_to_csv(spectra: Sequence[EmpiricalSpectrum]) -> str:
    """Deterministic eigenvalue CSV: trial ascending, value ascending."""
    buf = io.StringIO()
    buf.write("trial,lambda\n")
    for s in sorted(spectra, key=lambda s: s.trial_id):
        for lam in s.eigenvalues:
            buf.write(f"{s.trial_id},{float(lam)!r}\n")
    return buf.getvalue()


def spectra_from_csv(text: str) -> list:
    lines = text.strip().splitlines()
    if not lines or lines[0].strip() != "trial,lambda":
        raise ValueError("expected header 'trial,lambda'")
    by_trial: dict = {}
    for ln, line in enumerate(lines[1:], start=2):
        try:
            trial_s, lam_s = line.split(",")
            by_trial.setdefault(int(trial_s), []).append(float(lam_s))
        except ValueError as exc:
            raise ValueError(f"bad eigenvalue row at line {ln}: {line!r}") from exc
    return [EmpiricalSpectrum(np.array(v), trial_id=k)
            for k, v in sorted(by_trial.items())]

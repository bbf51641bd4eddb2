"""Spectra of symmetric matrices and distances between distributions.

Eigenvalues come from the standard symmetric solver (Householder reduction
to tridiagonal form plus implicitly shifted QL/QR, as provided by LAPACK);
spectra are wrapped as empirical measures with CSV export, and compared to
theoretical CDFs via Kolmogorov-Smirnov and windowed Wasserstein-1 metrics
on a fixed evaluation grid.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

__all__ = [
    "EmpiricalSpectrum",
    "DistanceReport",
    "eigenvalues_symmetric",
    "distribution_distance",
    "spectra_to_csv",
    "spectra_from_csv",
]


class EigenDecompositionError(RuntimeError):
    """The symmetric eigensolver failed to converge."""


def eigenvalues_symmetric(m: np.ndarray) -> np.ndarray:
    """All eigenvalues of a real symmetric matrix, sorted ascending.

    The input must be symmetric to 1e-12 relative; this is checked rather
    than silently symmetrized so that assembly bugs surface here.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    # exact symmetry, the assemblers' output, skips the tolerance test; a
    # NaN never compares equal, so it still meets the test below
    if not np.array_equal(m, m.T):
        scale = max(float(np.max(np.abs(m))), 1e-300)
        if float(np.max(np.abs(m - m.T))) > 1e-12 * scale:
            raise ValueError("matrix is not symmetric within 1e-12 relative")
    try:
        ev = np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:
        raise EigenDecompositionError(str(exc)) from exc
    return np.sort(ev)


@dataclass(frozen=True)
class EmpiricalSpectrum:
    """Eigenvalue multiset of one trial matrix."""

    eigenvalues: np.ndarray
    n: int
    trial_id: int = 0

    def __post_init__(self):
        ev = np.sort(np.asarray(self.eigenvalues, dtype=float))
        object.__setattr__(self, "eigenvalues", ev)
        if ev.size != self.n:
            raise ValueError("eigenvalue count must equal matrix dimension")

    @staticmethod
    def from_matrix(m: np.ndarray, trial_id: int = 0) -> "EmpiricalSpectrum":
        ev = eigenvalues_symmetric(m)
        return EmpiricalSpectrum(ev, m.shape[0], trial_id)


def _pool(spectra) -> np.ndarray:
    if isinstance(spectra, EmpiricalSpectrum):
        return spectra.eigenvalues
    if isinstance(spectra, np.ndarray):
        return np.sort(spectra)
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


def distribution_distance(spectra, theory_cdf: Callable[[float], float],
                          window: Tuple[float, float],
                          excluded0: float = 0.0,
                          grid_points: int = 2001) -> DistanceReport:
    """KS and windowed-W1 between an empirical spectrum and a theory CDF.

    Both are evaluated on a uniform grid over the window with the open
    neighborhood (-excluded0, excluded0) removed.
    """
    lo, hi = window
    if not lo < hi:
        raise ValueError("empty window")
    ts = np.linspace(lo, hi, grid_points)
    if excluded0 > 0:
        ts = ts[np.abs(ts) >= excluded0]
        if ts.size < 2:
            raise ValueError("window is entirely excluded")
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
    return [EmpiricalSpectrum(np.array(v), len(v), trial_id=k)
            for k, v in sorted(by_trial.items())]

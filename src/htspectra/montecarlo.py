"""Simulation campaigns: many matrix trials, one spectrum per trial.

A campaign draws independent matrices on counter-based RNG substreams (one
per trial index), so its spectra are bit-identical for a given master seed
no matter how many worker threads run the trials.  A failed
eigendecomposition, or a matrix whose entries overflow, aborts only its
own trial; a campaign fails, with a ``CampaignAborted``, when more than 5%
of trials abort.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from .eig import (EigenDecompositionError, EmpiricalSpectrum,
                  NonFiniteMatrixError, distance_grid)
from .matrices import (
    EnsembleSpec,
    SigmaProfile,
    build_band_matrix,
    build_covariance_matrix,
)
from .sampling import RngStreamSpec, StableTailLaw

__all__ = [
    "CampaignAborted",
    "CovarianceParams",
    "CampaignSpec",
    "CampaignResult",
    "run_campaign",
    "truncated_moment_experiment",
    "atom_fraction",
]


class CampaignAborted(RuntimeError):
    """More than 5% of a campaign's trials aborted."""


@dataclass(frozen=True)
class CovarianceParams:
    """Dimensions and entry law of a sample covariance ensemble."""

    law: StableTailLaw
    n: int
    m: int

    def __post_init__(self):
        if not 1 <= self.m <= self.n:
            raise ValueError("need 1 <= m <= n")


@dataclass(frozen=True)
class CampaignSpec:
    """A full simulation campaign: ensemble, trial count and the window
    (less the excluded neighbourhood of 0) its spectra are compared on.

    ``ensemble`` is either an EnsembleSpec (symmetric band matrices) or
    CovarianceParams (Wishart-type); trial k draws from the substream
    (master_seed, k), independent of execution order.
    """

    ensemble: Union[EnsembleSpec, CovarianceParams]
    trials: int
    window: Tuple[float, float]
    excluded0: float = 0.0
    master_seed: int = 0

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        distance_grid(self.window, self.excluded0)

    def echo(self) -> dict:
        # "family" names the one entry law, kept so that campaign files
        # stay comparable across versions
        ens = self.ensemble
        if isinstance(ens, EnsembleSpec):
            desc = {"kind": "band", "N": ens.N, "alpha": ens.law.alpha,
                    "family": "symmetric-pareto",
                    "profile": ens.profile.to_json(),
                    "truncation": ens.truncation,
                    "diagonal": ens.diagonal.to_json() if ens.diagonal else None}
        else:
            desc = {"kind": "covariance", "N": ens.n, "M": ens.m,
                    "alpha": ens.law.alpha, "family": "symmetric-pareto"}
        return {"ensemble": desc, "trials": self.trials,
                "window": list(self.window), "excluded0": self.excluded0,
                "master_seed": self.master_seed}


@dataclass(frozen=True)
class CampaignResult:
    spectra: Tuple[EmpiricalSpectrum, ...]
    aborted_trials: int
    runtime_seconds: float
    spec: CampaignSpec
    # one {"trial", "build_s", "eig_s"} per completed trial, by trial index
    trial_timing: Tuple[dict, ...]

    def to_json(self) -> dict:
        return {
            "spec": self.spec.echo(),
            "aborted_trials": self.aborted_trials,
            "runtime_seconds": self.runtime_seconds,
            "trial_timing": list(self.trial_timing),
        }


def _one_trial(spec: CampaignSpec,
               trial: int) -> Tuple[EmpiricalSpectrum, dict]:
    """The spectrum of one trial and its timing split: the matrix build
    (sampling and assembly) and the eigensolve, in wall seconds."""
    ens = spec.ensemble
    stream = RngStreamSpec(spec.master_seed, trial)
    start = time.perf_counter()
    if isinstance(ens, EnsembleSpec):
        sample_spec = EnsembleSpec(N=ens.N, law=ens.law, profile=ens.profile,
                                   truncation=ens.truncation,
                                   diagonal=ens.diagonal, seed=stream)
        matrix = build_band_matrix(sample_spec)
    else:
        matrix = build_covariance_matrix(ens.law, ens.n, ens.m, stream)
    built = time.perf_counter()
    spectrum = EmpiricalSpectrum.from_matrix(matrix, trial_id=trial)
    timing = {"trial": trial, "build_s": built - start,
              "eig_s": time.perf_counter() - built}
    return spectrum, timing


def run_campaign(spec: CampaignSpec, threads: int = 1) -> CampaignResult:
    """Execute all trials and keep their spectra in trial order.

    Trials run on a pool of ``threads`` threads (the eigensolver releases
    the GIL), or in this thread when threads is 1; the merge is a
    reduction by trial index, so the result does not depend on scheduling.
    Trials whose eigendecomposition fails or whose matrix is not finite
    are dropped and counted; more than 5% aborted trials fails the
    campaign with a ``CampaignAborted``.  The spectra are compared with a
    theory CDF by ``eig.distribution_distance``, on the spec's window.
    """
    start = time.perf_counter()
    results: dict = {}
    aborted = 0

    def attempt(k):
        try:
            return (k, *_one_trial(spec, k))
        except (EigenDecompositionError, NonFiniteMatrixError):
            return k, None, None

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(attempt, range(spec.trials)))
    else:
        # a one-thread pool gives the same result, but the matrices and
        # eigensolver workspaces of its worker live in a malloc arena of
        # their own: N = 1000 band and covariance campaigns of 4 trials
        # peaked 19 MB (26%) higher that way (glibc, x86-64 Linux)
        outcomes = [attempt(k) for k in range(spec.trials)]
    timing = []
    for k, s, t in sorted(outcomes):
        if s is None:
            aborted += 1
        else:
            results[k] = s
            timing.append(t)
    if aborted > 0.05 * spec.trials:
        raise CampaignAborted(
            f"{aborted} of {spec.trials} trials aborted (> 5%)")
    spectra = tuple(results[k] for k in sorted(results))
    return CampaignResult(spectra=spectra,
                          aborted_trials=aborted,
                          runtime_seconds=time.perf_counter() - start,
                          spec=spec, trial_timing=tuple(timing))


# eigenvalues below this fraction of the largest one count as the atom at 0
ATOM_THRESHOLD = 1e-12


def atom_fraction(spectrum: EmpiricalSpectrum) -> float:
    """Fraction of eigenvalues below ATOM_THRESHOLD times the largest one.

    The exact zeros of a rank-deficient covariance matrix are perturbed
    only at eigensolver roundoff scale (~1e-16 relative to the largest
    eigenvalue), while the continuous part keeps an order-one lower edge
    regardless of how far a heavy-tailed top eigenvalue flies; 1e-12
    relative sits several orders of magnitude clear of both sides.
    """
    ev = spectrum.eigenvalues
    top = float(np.max(np.abs(ev)))
    if top == 0.0:
        return 1.0
    return float(np.mean(np.abs(ev) < ATOM_THRESHOLD * top))


def truncated_moment_experiment(law: StableTailLaw, profile: SigmaProfile,
                                B: float, N: int, trials: int,
                                master_seed: int = 0) -> float:
    """Average of (1/N) tr((A^B)^2) where A^B keeps entries with
    |x_ij| < B a_N only.

    For the constant profile this second moment approaches
    (alpha/(2-alpha)) B^(2-alpha) as N grows.
    """
    if B <= 1:
        raise ValueError("B must be > 1")
    total = 0.0
    for k in range(trials):
        a = build_band_matrix(EnsembleSpec(
            N, law, profile, truncation=B,
            seed=RngStreamSpec(master_seed, k)))
        # (1/N) tr(A^2) = (1/N) sum_ij A_ij^2
        total += float(np.sum(a * a)) / N
    return total / trials

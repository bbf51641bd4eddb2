"""Simulation campaigns: many matrix trials against a theoretical curve.

A campaign draws independent matrices on counter-based RNG substreams (one
per trial index), so the pooled spectrum is bit-identical for a given
master seed no matter how many worker threads run the trials.  Failed
eigendecompositions abort only their own trial; a campaign fails when more
than 5% of trials abort.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .eig import (
    DistanceReport,
    EigenDecompositionError,
    EmpiricalSpectrum,
    distribution_distance,
)
from .matrices import (
    EnsembleSpec,
    SigmaProfile,
    assemble_band_matrix,
    build_band_matrix,
    build_covariance_matrix,
)
from .sampling import RngStreamSpec, StableTailLaw, normalizer_a_N, sample_entries

__all__ = [
    "CovarianceParams",
    "CampaignSpec",
    "CampaignResult",
    "run_campaign",
    "truncated_moment_experiment",
    "atom_fraction",
]


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
    """A full simulation campaign: ensemble, trial count and comparison.

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
        if not self.window[0] < self.window[1]:
            raise ValueError("empty comparison window")

    def echo(self) -> dict:
        ens = self.ensemble
        if isinstance(ens, EnsembleSpec):
            desc = {"kind": "band", "N": ens.N, "alpha": ens.law.alpha,
                    "family": ens.law.family,
                    "profile": ens.profile.to_json(),
                    "truncation": list(ens.truncation) if ens.truncation else None,
                    "diagonal": ens.diagonal.to_json() if ens.diagonal else None}
        else:
            desc = {"kind": "covariance", "N": ens.n, "M": ens.m,
                    "alpha": ens.law.alpha, "family": ens.law.family}
        return {"ensemble": desc, "trials": self.trials,
                "window": list(self.window), "excluded0": self.excluded0,
                "master_seed": self.master_seed}


@dataclass(frozen=True)
class CampaignResult:
    pooled: EmpiricalSpectrum
    report: Optional[DistanceReport]
    per_trial_ks: Tuple[float, ...]
    spectra: Tuple[EmpiricalSpectrum, ...]
    aborted_trials: int
    runtime_seconds: float
    spec: CampaignSpec

    def to_json(self) -> dict:
        out = {
            "spec": self.spec.echo(),
            "per_trial_ks": list(self.per_trial_ks),
            "aborted_trials": self.aborted_trials,
            "runtime_seconds": self.runtime_seconds,
        }
        if self.report is not None:
            out["pooled_ks"] = self.report.ks
            out["w1_window"] = self.report.w1_window
        return out


def _one_trial(spec: CampaignSpec, trial: int) -> EmpiricalSpectrum:
    ens = spec.ensemble
    stream = RngStreamSpec(spec.master_seed, trial)
    if isinstance(ens, EnsembleSpec):
        sample_spec = EnsembleSpec(N=ens.N, law=ens.law, profile=ens.profile,
                                   truncation=ens.truncation,
                                   diagonal=ens.diagonal, seed=stream)
        matrix = build_band_matrix(sample_spec)
    else:
        matrix = build_covariance_matrix(ens.law, ens.n, ens.m, stream)
    return EmpiricalSpectrum.from_matrix(matrix, trial_id=trial)


def run_campaign(spec: CampaignSpec,
                 theory_cdf: Optional[Callable[[float], float]] = None,
                 threads: int = 1) -> CampaignResult:
    """Execute all trials, pool the spectra, and compare to a theory CDF.

    Trials run on a thread pool (the eigensolver releases the GIL); the
    merge is a reduction by trial index, so the result does not depend on
    scheduling.  Trials whose eigendecomposition fails are dropped and
    counted; more than 5% aborted trials fails the campaign.
    """
    start = time.perf_counter()
    results: dict = {}
    aborted = 0

    def attempt(k):
        try:
            return k, _one_trial(spec, k)
        except EigenDecompositionError:
            return k, None

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(attempt, range(spec.trials)))
    else:
        outcomes = [attempt(k) for k in range(spec.trials)]
    for k, s in sorted(outcomes):
        if s is None:
            aborted += 1
        else:
            results[k] = s
    if aborted > 0.05 * spec.trials:
        raise RuntimeError(
            f"{aborted} of {spec.trials} trials aborted (> 5%)")
    spectra = tuple(results[k] for k in sorted(results))
    pooled_ev = np.sort(np.concatenate([s.eigenvalues for s in spectra]))
    pooled = EmpiricalSpectrum(pooled_ev, pooled_ev.size, trial_id=-1)
    report = None
    per_ks = ()
    if theory_cdf is not None:
        # every distance below uses the same grid, so each point's theory
        # value is computed once and reused
        theory_cdf = lru_cache(maxsize=None)(theory_cdf)
        report = distribution_distance(pooled, theory_cdf, spec.window,
                                       excluded0=spec.excluded0)
        per_ks = tuple(
            distribution_distance(s, theory_cdf, spec.window,
                                  excluded0=spec.excluded0).ks
            for s in spectra)
    return CampaignResult(pooled=pooled, report=report, per_trial_ks=per_ks,
                          spectra=spectra, aborted_trials=aborted,
                          runtime_seconds=time.perf_counter() - start,
                          spec=spec)


def atom_fraction(spectrum: EmpiricalSpectrum,
                  rel_threshold: float = 1e-12) -> float:
    """Fraction of eigenvalues below rel_threshold times the largest one.

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
    return float(np.mean(np.abs(ev) < rel_threshold * top))


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
    a_N = normalizer_a_N(law, N)
    for k in range(trials):
        rng = RngStreamSpec(master_seed, k).generator()
        x = sample_entries(law, rng, (N, N))
        a = assemble_band_matrix(x, profile, a_N, truncate_at=B * a_N)
        # (1/N) tr(A^2) = (1/N) sum_ij A_ij^2
        total += float(np.sum(a * a)) / N
    return total / trials

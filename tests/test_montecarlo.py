"""Simulation campaigns: determinism, pooling, atoms and moments."""

import numpy as np
import pytest

from htspectra import montecarlo
from htspectra.eig import EigenDecompositionError, EmpiricalSpectrum
from htspectra.eig import distribution_distance
from htspectra.matrices import DiagonalLaw, EnsembleSpec, SigmaProfile
from htspectra.montecarlo import (
    CampaignSpec,
    CovarianceParams,
    atom_fraction,
    run_campaign,
    truncated_moment_experiment,
)
from htspectra.sampling import StableTailLaw


CONST = SigmaProfile("constant", c=1.0)


def band_spec(trials=3, seed=5, n=60):
    ens = EnsembleSpec(N=n, law=StableTailLaw(1.5), profile=CONST)
    return CampaignSpec(ensemble=ens, trials=trials, window=(-5.0, 5.0),
                        master_seed=seed)


def test_spec_validation():
    with pytest.raises(ValueError):
        CovarianceParams(StableTailLaw(1.2), 5, 9)
    with pytest.raises(ValueError):
        CampaignSpec(ensemble=band_spec().ensemble, trials=0,
                     window=(-1.0, 1.0))
    with pytest.raises(ValueError):
        CampaignSpec(ensemble=band_spec().ensemble, trials=1,
                     window=(1.0, -1.0))


def test_echo_describes_ensemble():
    d = band_spec().echo()
    assert d["ensemble"]["kind"] == "band"
    assert d["ensemble"]["alpha"] == 1.5
    cov = CampaignSpec(
        ensemble=CovarianceParams(StableTailLaw(1.2), 30, 15),
        trials=2, window=(0.0, 10.0))
    assert cov.echo()["ensemble"]["kind"] == "covariance"


def test_echo_round_trips_diagonal_law():
    diag = DiagonalLaw(((-1.0, 0.25), (2.0, 0.75)))
    ens = EnsembleSpec(N=40, law=StableTailLaw(1.5), profile=CONST,
                       diagonal=diag)
    spec = CampaignSpec(ensemble=ens, trials=1, window=(-5.0, 5.0))
    d = spec.echo()["ensemble"]
    assert DiagonalLaw.from_json(d["diagonal"]) == diag
    assert band_spec().echo()["ensemble"]["diagonal"] is None


def test_deterministic_across_thread_counts():
    spec = band_spec(trials=4)
    r1 = run_campaign(spec, threads=1)
    r2 = run_campaign(spec, threads=4)
    assert np.array_equal(r1.pooled.eigenvalues, r2.pooled.eigenvalues)
    assert [s.trial_id for s in r2.spectra] == [0, 1, 2, 3]


def test_single_trial_equals_pool():
    spec = band_spec(trials=1)
    r = run_campaign(spec)
    assert np.array_equal(r.pooled.eigenvalues, r.spectra[0].eigenvalues)


def test_report_and_per_trial_ks():
    spec = band_spec(trials=3)

    def cdf(t):
        return min(1.0, max(0.0, 0.5 + t / 10.0))

    r = run_campaign(spec, theory_cdf=cdf)
    assert r.report is not None
    assert len(r.per_trial_ks) == 3
    assert all(0.0 <= k <= 1.0 for k in r.per_trial_ks)
    j = r.to_json()
    assert "pooled_ks" in j and j["aborted_trials"] == 0


@pytest.mark.parametrize("trials", [1, 3])
def test_theory_cdf_evaluated_once_per_grid_point(trials):
    calls = []

    def cdf(t):
        calls.append(t)
        return min(1.0, max(0.0, 0.5 + t / 10.0))

    spec = band_spec(trials=trials)
    r = run_campaign(spec, theory_cdf=cdf)
    assert len(calls) == 2001          # distribution_distance's grid size
    assert r.report == distribution_distance(r.pooled, cdf, spec.window)
    assert r.per_trial_ks == tuple(
        distribution_distance(s, cdf, spec.window).ks for s in r.spectra)


def test_abort_threshold(monkeypatch):
    real = montecarlo._one_trial

    def flaky(spec, trial):
        if trial % 2 == 0:
            raise EigenDecompositionError("synthetic failure")
        return real(spec, trial)

    monkeypatch.setattr(montecarlo, "_one_trial", flaky)
    with pytest.raises(RuntimeError, match="aborted"):
        run_campaign(band_spec(trials=4))


def test_atom_fraction():
    ev = np.concatenate([np.zeros(30), np.full(10, 1e-11),
                         np.linspace(0.1, 30000.0, 60)])
    s = EmpiricalSpectrum(ev, ev.size)
    assert atom_fraction(s) == 0.4
    zero = EmpiricalSpectrum(np.zeros(3), 3)
    assert atom_fraction(zero) == 1.0


def test_covariance_campaign_atom():
    spec = CampaignSpec(
        ensemble=CovarianceParams(StableTailLaw(1.2), 80, 40),
        trials=2, window=(0.0, 10.0), master_seed=1)
    r = run_campaign(spec)
    frac = atom_fraction(r.pooled)
    assert abs(frac - 0.5) < 0.02      # exactly N-M zero modes per trial


def test_truncated_moment_b_scaling():
    # the truncated second moment scales like B^(2-alpha)
    law = StableTailLaw(1.0)
    m2 = truncated_moment_experiment(law, CONST, 2.0, 800, 4, master_seed=3)
    m4 = truncated_moment_experiment(law, CONST, 4.0, 800, 4, master_seed=3)
    assert abs(m2 - 2.0) < 0.25
    assert abs(m4 / m2 - 2.0) < 0.25
    with pytest.raises(ValueError):
        truncated_moment_experiment(law, CONST, 1.0, 10, 1)

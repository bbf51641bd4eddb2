"""Simulation campaigns: determinism, pooling, atoms and moments."""

import numpy as np
import pytest

from htspectra import eig, matrices, montecarlo
from htspectra.eig import EigenDecompositionError, EmpiricalSpectrum
from htspectra.matrices import (
    DiagonalLaw,
    EnsembleSpec,
    SigmaProfile,
    build_band_matrix,
    build_covariance_matrix,
)
from htspectra.montecarlo import (
    CampaignSpec,
    CovarianceParams,
    atom_fraction,
    run_campaign,
    truncated_moment_experiment,
)
from htspectra.sampling import RngStreamSpec, StableTailLaw


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
    assert len(r1.spectra) == len(r2.spectra) == 4
    for s1, s2 in zip(r1.spectra, r2.spectra):
        assert np.array_equal(s1.eigenvalues, s2.eigenvalues)
    assert [s.trial_id for s in r2.spectra] == [0, 1, 2, 3]


def test_single_trial_equals_pool():
    # a one-trial campaign is that trial, and the pool that a comparison
    # reads from its spectra is that trial's spectrum
    spec = band_spec(trials=1)
    r = run_campaign(spec)
    alone, _ = montecarlo._one_trial(spec, 0)
    assert len(r.spectra) == 1
    assert np.array_equal(r.spectra[0].eigenvalues, alone.eigenvalues)
    assert np.array_equal(eig._pool(r.spectra), alone.eigenvalues)


def test_abort_threshold(monkeypatch):
    real = montecarlo._one_trial

    def flaky(spec, trial):
        if trial % 2 == 0:
            raise EigenDecompositionError("synthetic failure")
        return real(spec, trial)

    monkeypatch.setattr(montecarlo, "_one_trial", flaky)
    with pytest.raises(RuntimeError, match="aborted"):
        run_campaign(band_spec(trials=4))


def test_one_trial_reproduces_band_builder():
    # the contract a benchmark or a user relies on to rebuild one trial
    # from its seed outside a campaign
    spec = band_spec(trials=2, seed=8, n=70)
    for k in (0, 1):
        spectrum, _ = montecarlo._one_trial(spec, k)
        m = build_band_matrix(EnsembleSpec(N=70, law=StableTailLaw(1.5),
                                           profile=CONST,
                                           seed=RngStreamSpec(8, k)))
        assert np.array_equal(spectrum.eigenvalues,
                              np.sort(np.linalg.eigvalsh(m)))


def test_one_trial_reproduces_covariance_builder():
    law = StableTailLaw(1.2)
    spec = CampaignSpec(ensemble=CovarianceParams(law, 90, 45), trials=1,
                        window=(0.0, 10.0), master_seed=8)
    spectrum, _ = montecarlo._one_trial(spec, 0)
    m = build_covariance_matrix(law, 90, 45, RngStreamSpec(8, 0))
    assert np.array_equal(m, m.T)
    assert np.array_equal(spectrum.eigenvalues,
                          np.sort(np.linalg.eigvalsh(m)))


@pytest.mark.parametrize("threads", [1, 2])
def test_campaign_records_trial_timing(threads):
    r = run_campaign(band_spec(trials=3), threads=threads)
    timing = r.to_json()["trial_timing"]
    assert [t["trial"] for t in timing] == [0, 1, 2]
    for t in timing:
        assert set(t) == {"trial", "build_s", "eig_s"}
        assert t["build_s"] > 0.0 and t["eig_s"] > 0.0


def test_overflowing_trial_aborts(monkeypatch):
    # a trial whose matrix overflows is dropped and counted like a failed
    # eigensolve, never pooled as wrong eigenvalues
    real = montecarlo.build_band_matrix

    def overflowing(spec):
        m = real(spec)
        if spec.seed.stream_id == 3:
            m[0, 0] = np.inf
        return m

    monkeypatch.setattr(montecarlo, "build_band_matrix", overflowing)
    r = run_campaign(band_spec(trials=40, n=8))
    assert r.aborted_trials == 1
    assert [s.trial_id for s in r.spectra] == [k for k in range(40) if k != 3]
    assert all(np.all(np.isfinite(s.eigenvalues)) for s in r.spectra)


def test_trial_timing_skips_aborted_trials(monkeypatch):
    real = montecarlo._one_trial

    def flaky(spec, trial):
        if trial == 3:
            raise EigenDecompositionError("synthetic failure")
        return real(spec, trial)

    monkeypatch.setattr(montecarlo, "_one_trial", flaky)
    r = run_campaign(band_spec(trials=40, n=8))
    assert r.aborted_trials == 1
    trials = [t["trial"] for t in r.to_json()["trial_timing"]]
    assert trials == [k for k in range(40) if k != 3]


def test_atom_fraction():
    ev = np.concatenate([np.zeros(30), np.full(10, 1e-11),
                         np.linspace(0.1, 30000.0, 60)])
    s = EmpiricalSpectrum(ev)
    assert atom_fraction(s) == 0.4
    zero = EmpiricalSpectrum(np.zeros(3))
    assert atom_fraction(zero) == 1.0


def test_covariance_campaign_atom():
    spec = CampaignSpec(
        ensemble=CovarianceParams(StableTailLaw(1.2), 80, 40),
        trials=2, window=(0.0, 10.0), master_seed=1)
    r = run_campaign(spec)
    for s in r.spectra:     # exactly N-M zero modes per trial
        assert abs(atom_fraction(s) - 0.5) < 0.02


def test_truncated_moment_b_scaling():
    # the truncated second moment scales like B^(2-alpha)
    law = StableTailLaw(1.0)
    m2 = truncated_moment_experiment(law, CONST, 2.0, 800, 4, master_seed=3)
    m4 = truncated_moment_experiment(law, CONST, 4.0, 800, 4, master_seed=3)
    assert abs(m2 - 2.0) < 0.25
    assert abs(m4 / m2 - 2.0) < 0.25
    with pytest.raises(ValueError):
        truncated_moment_experiment(law, CONST, 1.0, 10, 1)


def test_truncated_moment_builds_band_matrices(monkeypatch):
    # each sample is one truncated band build: N(N+1)/2 draws, cut at B a_N
    sizes = []
    real = matrices.sample_entries

    def counted(law, rng, size):
        out = real(law, rng, size)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(matrices, "sample_entries", counted)
    law = StableTailLaw(1.0)
    got = truncated_moment_experiment(law, CONST, 2.0, 30, 2, master_seed=4)
    assert sizes == [465, 465]
    want = 0.0
    for k in range(2):
        a = build_band_matrix(EnsembleSpec(N=30, law=law, profile=CONST,
                                           truncation=2.0,
                                           seed=RngStreamSpec(4, k)))
        want += float(np.sum(a * a)) / 30
    assert got == want / 2

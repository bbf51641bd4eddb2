"""Eigenvalue extraction, empirical CDFs and distance reports."""

import math

import numpy as np
import pytest

from htspectra.eig import (
    DistanceReport,
    GRID_POINTS,
    EmpiricalSpectrum,
    distance_grid,
    distribution_distance,
    eigenvalues_symmetric,
    spectra_from_csv,
    spectra_to_csv,
)


def test_tridiagonal_toeplitz_closed_form():
    # eigenvalues of the n x n (0,1,0) tridiagonal matrix are
    # 2 cos(k pi / (n+1)), k = 1..n
    n = 25
    m = np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
    got = eigenvalues_symmetric(m)
    want = np.sort(2.0 * np.cos(np.arange(1, n + 1) * math.pi / (n + 1)))
    assert np.allclose(got, want, atol=1e-12)


def test_symmetry_rejection():
    with pytest.raises(ValueError):
        eigenvalues_symmetric(np.array([[0.0, 1.0], [1.0001, 0.0]]))
    with pytest.raises(ValueError):
        eigenvalues_symmetric(np.ones((2, 3)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_matrix_is_rejected(bad):
    # LAPACK returns [0, -0] for a NaN and [nan, nan] for an infinity here,
    # with no error
    m = np.array([[bad, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="non-finite"):
        eigenvalues_symmetric(m)
    with pytest.raises(ValueError, match="non-finite"):
        eigenvalues_symmetric(np.array([[1.0, bad], [bad, 1.0]]))


def test_symmetry_tolerance_is_1e_12_relative():
    # max |m| is 3, so the gate on |m - m^T| sits at 3e-12
    m = np.array([[2.0, 1.0], [1.0, 3.0]])
    off = m.copy()
    off[0, 1] += 3e-10
    with pytest.raises(ValueError, match="symmetric"):
        eigenvalues_symmetric(off)
    near = m.copy()
    near[0, 1] += 3e-13
    assert np.allclose(eigenvalues_symmetric(near),
                       np.linalg.eigvalsh(m), atol=1e-12)


def test_spectrum_sorted_and_validated():
    s = EmpiricalSpectrum(np.array([3.0, -1.0, 2.0]), trial_id=4)
    assert np.array_equal(s.eigenvalues, [-1.0, 2.0, 3.0])


def test_empirical_cdf_pooling():
    """distribution_distance pools the spectra into one right-continuous
    empirical CDF: against the zero CDF its gap is that CDF itself."""
    a = EmpiricalSpectrum(np.array([-1.0, 0.0]), trial_id=0)
    b = EmpiricalSpectrum(np.array([1.0, 2.0]), trial_id=1)
    for t, want in ((-2.0, 0.0), (0.0, 0.5), (0.5, 0.5), (1.5, 0.75),
                    (2.0, 1.0)):
        # the grid of a window (t - 1, t) ends at t, where the gap to the
        # zero CDF, the empirical CDF itself, is largest
        rep = distribution_distance([a, b], lambda s: 0.0, (t - 1.0, t))
        assert rep.ks == want
def test_distance_exact_on_matched_cdf():
    ev = np.linspace(-1.0, 1.0, 2001)
    s = EmpiricalSpectrum(ev)

    def uniform_cdf(t):
        return min(1.0, max(0.0, 0.5 * (t + 1.0)))

    rep = distribution_distance(s, uniform_cdf, (-1.0, 1.0))
    assert rep.ks < 1e-3
    assert rep.w1_window < 1e-3


def test_distance_excluded_neighborhood():
    # a point mass at zero must be invisible once |t| < 0.5 is excluded
    ev = np.concatenate([np.zeros(500), np.linspace(1.0, 2.0, 500)])
    s = EmpiricalSpectrum(ev)

    def cdf_with_atom(t):
        if t < 1.0:
            return 0.5 if t >= 0.0 else 0.0
        return 0.5 + 0.5 * min(1.0, t - 1.0)

    rep = distribution_distance(s, cdf_with_atom, (-2.0, 2.0), excluded0=0.5)
    assert rep.ks < 2e-3
    assert rep.excluded_neighborhood == 0.5
    with pytest.raises(ValueError):
        distribution_distance(s, cdf_with_atom, (2.0, -2.0))
    with pytest.raises(ValueError):
        distribution_distance(s, cdf_with_atom, (-0.1, 0.1), excluded0=1.0)


@pytest.mark.parametrize("window,excluded0", [
    ((-math.inf, math.inf), 0.0), ((0.0, math.nan), 0.0),
    ((-1.0, 1.0), -0.1), ((-1.0, 1.0), math.nan), ((-1.0, 1.0), math.inf)],
    ids=["infinite-window", "nan-end", "negative-excluded",
         "nan-excluded", "infinite-excluded"])
def test_distance_grid_rejects_non_finite_or_negative(window, excluded0):
    with pytest.raises(ValueError):
        distance_grid(window, excluded0)


def test_distance_grid_keeps_the_ends_beyond_the_excluded_neighborhood():
    ts = distance_grid((-10.0, 10.0), 0.2)
    assert ts[0] == -10.0 and ts[-1] == 10.0
    assert np.all(np.abs(ts) >= 0.2)
    assert distance_grid((0.1, 20.0), 0.0).size == GRID_POINTS


def test_report_json():
    rep = DistanceReport(ks=0.1, w1_window=0.2, window=(-1.0, 1.0))
    d = rep.to_json()
    assert d["ks"] == 0.1 and d["window"] == [-1.0, 1.0]


def test_csv_round_trip():
    a = EmpiricalSpectrum(np.array([0.5, -0.5]), trial_id=1)
    b = EmpiricalSpectrum(np.array([2.0]), trial_id=0)
    text = spectra_to_csv([a, b])
    lines = text.strip().splitlines()
    assert lines[0] == "trial,lambda"
    assert lines[1].startswith("0,")      # sorted by trial
    back = spectra_from_csv(text)
    assert [s.trial_id for s in back] == [0, 1]
    assert np.allclose(back[1].eigenvalues, [-0.5, 0.5])


def test_csv_error_reports_line():
    with pytest.raises(ValueError, match="header"):
        spectra_from_csv("nope\n0,1.0\n")
    with pytest.raises(ValueError, match="line"):
        spectra_from_csv("trial,lambda\n0,1.0\n0,zap\n")

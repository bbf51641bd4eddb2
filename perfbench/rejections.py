"""Each correctness check of the benchmark rejects a wrong answer.

    python3 -m pytest -q perfbench/rejections.py

Every test feeds a check one right answer, which must pass, and wrong
ones (a density scaled by 1.05, a KS against the wrong-alpha curve, a
changed seed, ...), which must fail.  The file is not named test_*.py, so
the library's test suite does not collect it.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads as wl  # noqa: E402
from make_curves import REFERENCE_POINTS  # noqa: E402
from htspectra import special  # noqa: E402
from htspectra.density import stieltjes_band, stieltjes_perturbed  # noqa: E402
from htspectra.solver import solve_band, solve_wishart_pair  # noqa: E402


def _curve(label):
    _, model, alpha, gamma, t_min, t_max = next(
        m for m in wl.CURVE_MODELS if m[0] == label)
    grid, rho, sidecar = wl.read_curve(wl.CURVES / label)

    def check(rho=rho, grid=grid, atom=sidecar["atom_at_zero"]):
        return checks.check_curve(model, alpha, gamma, t_min, t_max,
                                  REFERENCE_POINTS, grid, rho, atom)

    return check, grid, rho


def test_curve_checks_reject_scaled_and_broken_densities():
    for label in ("wigner-a1.0", "wigner-a1.5", "wishart-a1.2-g0.5"):
        check, grid, rho = _curve(label)
        assert check() == [], label
        assert check(rho=1.05 * rho), label
        negative = rho.copy()
        negative[len(rho) // 2] = -1e-3
        assert check(rho=negative), label
        assert check(grid=grid * 1.01), label
    check, grid, rho = _curve("wigner-a1.0")
    # only the centre value is wrong: pi rho(0+) catches it
    centre = rho.copy()
    centre[[REFERENCE_POINTS - 1, REFERENCE_POINTS]] *= 1.05
    assert any("rho(0+)" in p for p in check(rho=centre))
    lopsided = rho.copy()
    lopsided[:REFERENCE_POINTS] *= 1.001
    assert any("even" in p for p in check(rho=lopsided))
    check, grid, rho = _curve("wishart-a1.2-g0.5")
    assert any("atom" in p for p in check(atom=0.498))


def test_transform_checks_reject_wrong_values():
    a = special.AlphaParam(1.3)
    z = 0.7 + 0.9j
    g = stieltjes_band(a, wl.BAND6, z)
    mirror = stieltjes_band(a, wl.BAND6, -z.conjugate())
    assert checks.check_mirror(g, mirror) == []
    assert checks.check_mirror(g, g.conjugate())
    assert checks.check_mirror(g * (1 + 1e-8), mirror)
    assert checks.check_mirror(g.conjugate(), -g)

    oracle_g = lambda y: special.g_alpha(a, y, wl.ORACLE_RULE)  # noqa: E731
    oracle_h = lambda y: special.h_alpha(a, y, wl.ORACLE_RULE)  # noqa: E731
    kw = (np.abs(np.array(wl.PIECEWISE2.matrix)) ** 1.3
          * np.diff(wl.PIECEWISE2.breaks)[None, :])
    ys = solve_band(a, wl.PIECEWISE2, z).unknowns
    c = special.c_alpha(a)
    assert checks.check_band_solution(1.3, c, kw, z, ys, oracle_g) == []
    assert checks.check_band_solution(1.3, c, kw, z, ys * (1 + 1e-8),
                                      oracle_g)
    assert checks.check_band_solution(1.3, c, kw, z * 1.001, ys, oracle_g)
    outside = np.array([-abs(ys[0]), ys[1]])
    assert checks.check_band_solution(1.3, c, kw, z, outside, oracle_g)

    pair = solve_wishart_pair(a, wl.WISHART_GAMMA, z).unknowns
    assert checks.check_wishart_pair(1.3, 0.5, pair, oracle_h) == []
    assert checks.check_wishart_pair(1.3, 0.6, pair, oracle_h)
    assert checks.check_wishart_pair(1.3, 0.5, pair[::-1], oracle_h)

    zp = 0.5 + 2.5j
    cbar = special.c_alpha_bar(a)
    two = wl.TWO_ATOMS.atoms
    got = stieltjes_perturbed(a, wl.CONST, wl.TWO_ATOMS, zp)
    assert checks.check_perturbed(1.3, cbar, two, zp, got, oracle_g,
                                  oracle_h) == []
    assert checks.check_perturbed(1.3, cbar, two, zp, got * (1 + 1e-7),
                                  oracle_g, oracle_h)
    shifted = ((-1.0, 0.4), (1.0, 0.6))
    assert checks.check_perturbed(1.3, cbar, shifted, zp, got, oracle_g,
                                  oracle_h)
    assert checks.check_close("x", 1.0, 1.0 + 1e-11, 1e-10) == []
    assert checks.check_close("x", 1.0, 1.0 + 1e-9, 1e-10)


def _band_spectra(seed):
    return [wl.rebuild_trial("band", seed, k) for k in range(wl.MC_TRIALS)]


def test_campaign_checks_reject_wrong_curve_seed_and_counts():
    _, _, _, window, e0, _ = wl.MC_ENSEMBLES[0]
    spectra = _band_spectra(11)
    right = wl.curve_cdf("wigner-a1.5")
    wrong_alpha = wl.curve_cdf("wigner-a1.0")
    ks = checks.pooled_ks(np.concatenate(spectra), right, window, e0)

    def check(spectra=spectra, cdf=right, reported=ks, aborted=0):
        return checks.check_campaign("band", spectra, wl.MC_N, wl.MC_TRIALS,
                                     cdf, window, e0, wl.KS_GATE, reported,
                                     aborted)

    assert check() == []
    assert any("pooled KS" in p for p in check(cdf=wrong_alpha))
    assert check(reported=ks + 0.02)
    assert check(aborted=1)
    assert check(spectra=spectra[:-1])
    assert check(spectra=[s[:-1] for s in spectra])
    assert not np.array_equal(spectra[0], wl.rebuild_trial("band", 12, 0))
    assert np.array_equal(spectra[0], wl.rebuild_trial("band", 11, 0))


def test_zero_mode_check_rejects_a_wrong_aspect_ratio():
    _, _, _, window, e0, zero = wl.MC_ENSEMBLES[1]
    cdf = wl.curve_cdf("wishart-a1.2-g0.5")
    spectra = [wl.rebuild_trial("covariance", 5, k)
               for k in range(wl.MC_TRIALS)]
    pooled = np.concatenate(spectra)
    ks = checks.pooled_ks(pooled, cdf, window, e0)
    args = (wl.MC_N, wl.MC_TRIALS, cdf, window, e0, wl.KS_GATE, ks, 0)
    assert checks.check_campaign("cov", spectra, *args, zero) == []
    # a quarter of the zero modes lifted off zero, as from M = 5N/8
    lifted = [s.copy() for s in spectra]
    for s in lifted:
        s[:wl.MC_N // 8] = 1.0
    assert any("zero-mode" in p for p in
               checks.check_campaign("cov", lifted, *args, zero))

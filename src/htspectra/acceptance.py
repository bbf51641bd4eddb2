"""Acceptance checks shared by ``htspectra selftest`` and the test suite.

Each check takes its sizes and gates as arguments and returns
``(ok, detail)``.  ``SELFTEST`` runs them at reduced sizes;
``tests/test_acceptance.py`` calls the same bodies at full size.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .density import (
    build_density_curve,
    density_band,
    density_wigner_formula,
    semicircle_cdf,
    semicircle_density,
    stieltjes_band,
)
from .eig import distribution_distance
from .matrices import EnsembleSpec, SigmaProfile
from .montecarlo import (
    CampaignSpec,
    CovarianceParams,
    atom_fraction,
    run_campaign,
    truncated_moment_experiment,
)
from .sampling import StableTailLaw
from .special import AlphaParam, c_alpha, g_alpha, h_alpha

CONST = SigmaProfile("constant", c=1.0)


def identity(radii, fracs, tol):
    """h = 1 - (alpha/2) y g on the cone, alpha in {0.5, 1, 1.5}."""
    worst = 0.0
    for al in (0.5, 1.0, 1.5):
        a = AlphaParam(al)
        for r in radii:
            for frac in fracs:
                y = r * cmath.exp(1j * frac * al * math.pi / 2.0)
                worst = max(worst, abs(
                    h_alpha(a, y) - (1.0 - 0.5 * al * y * g_alpha(a, y))))
    return worst <= tol, (f"max identity error {worst:.2e} over "
                          f"{len(radii) * len(fracs)}-point grids")


def semicircle(points, tol, g_tol=None):
    """alpha=2 density against the semicircle; with g_tol also G(3i)."""
    a = AlphaParam(2.0)
    worst = max(abs(density_wigner_formula(a, float(t))
                    - semicircle_density(float(t)))
                for t in np.linspace(-1.9, 1.9, points))
    detail = f"max density error {worst:.2e}"
    if g_tol is None:
        return worst <= tol, detail
    g_ref = 1j * (3.0 - math.sqrt(13.0)) / 2.0   # (z - sqrt(z^2-4))/2 at z=3i
    g_err = abs(stieltjes_band(a, CONST, 3j) - g_ref)
    return (worst <= tol and g_err <= g_tol,
            f"{detail}, G(3i) error {g_err:.2e}")


def heavy_tail(tail_ts, rel_tol, center_tol):
    """alpha=1: t^2 rho(t) -> 1/2 and pi rho(0+) = 1."""
    a = AlphaParam(1.0)
    tails = [t ** 2 * density_wigner_formula(a, float(t)) for t in tail_ts]
    center = density_wigner_formula(a, 1e-3) * math.pi
    ok = (all(abs(v - 0.5) <= rel_tol * 0.5 for v in tails)
          and abs(center - 1.0) <= center_tol)
    detail = ", ".join(f"t^2 rho({t:g}) = {v:.4f}"
                       for t, v in zip(tail_ts, tails))
    return ok, f"{detail}, pi rho(0+) = {center:.5f}"


def band_equivalence(ts, tol):
    """Band profile against the rescaled constant-profile density.  The
    band kernel is the one cell int |phi|^alpha, so this checks the scaling
    and that integral; the six-cell reference that checks the reduction
    itself is in tests/test_solver.py."""
    a = AlphaParam(1.5)
    prof = SigmaProfile("band", breakpoints=(0.0, 0.25, 0.75, 1.0),
                        values=(1.0, 0.0, 1.0))
    sig = 0.5 ** (1.0 / 1.5)
    worst = max(abs(density_band(a, prof, float(t))
                    - density_wigner_formula(a, float(t) / sig) / sig)
                for t in ts)
    return worst <= tol, (f"max band equivalence gap {worst:.2e} "
                          f"over {len(ts)} points")


def wigner_monte_carlo(t_max, points, n, trials, seed, ks_tol, threads=1):
    """Pooled KS of alpha=1.5 Wigner spectra against the theory curve."""
    curve = build_density_curve(AlphaParam(1.5), "wigner", t_min=0.05,
                                t_max=t_max, points=points)
    ens = EnsembleSpec(N=n, law=StableTailLaw(1.5), profile=CONST)
    spec = CampaignSpec(ensemble=ens, trials=trials, window=(-10.0, 10.0),
                        excluded0=0.2, master_seed=seed)
    res = run_campaign(spec, threads=threads)
    ks = distribution_distance(res.spectra, curve.cdf(), spec.window,
                               excluded0=spec.excluded0).ks
    return ks <= ks_tol, f"pooled KS {ks:.4f} over {trials} trials at N={n}"


def wishart_monte_carlo(n, m, trials, seed, atom_tol, threads=1,
                        points=None, ks_tol=None):
    """Zero-mode fraction of N x M covariance spectra; with ks_tol also
    the positive-part KS against a ``points``-point theory curve."""
    spec = CampaignSpec(
        ensemble=CovarianceParams(law=StableTailLaw(1.2), n=n, m=m),
        trials=trials, window=(0.1, 20.0), master_seed=seed)
    res = run_campaign(spec, threads=threads)
    # the zero-mode count is a per-matrix quantity; pooling first would let
    # one trial's extreme top eigenvalue set the threshold for all others
    frac = float(np.mean([atom_fraction(s) for s in res.spectra]))
    ok, detail = abs(frac - 0.5) <= atom_tol, f"atom fraction {frac:.4f}"
    if ks_tol is None:
        return ok, detail
    cdf = build_density_curve(AlphaParam(1.2), "wishart", gamma=0.5,
                              t_min=0.02, t_max=100.0, points=points).cdf()
    ks = distribution_distance(res.spectra, cdf, spec.window,
                               excluded0=spec.excluded0).ks
    return ok and ks <= ks_tol, f"{detail}, positive-part KS {ks:.4f}"


def truncated_moment(n, trials, seed, tol):
    """Mean (1/N) tr(A^2) of the B=2 truncated alpha=1 matrix."""
    v = truncated_moment_experiment(StableTailLaw(1.0), CONST, 2.0, n,
                                    trials, master_seed=seed)
    return abs(v - 2.0) <= tol, f"mean (1/N)tr(A^2) = {v:.4f} vs 2.0"


def alpha_two_continuity(points, tol):
    """alpha=1.95 CDF in the compensated scale against the semicircle."""
    a = AlphaParam(1.95)
    # the family is normalized so that its width grows like
    # |C_alpha|^(1/alpha) as alpha -> 2, so the CDF is evaluated at s*t
    # against the unit-scale semicircle
    s = abs(c_alpha(a)) ** (1.0 / 1.95)
    cdf = build_density_curve(a, "wigner", t_min=1e-2, t_max=50.0,
                              points=points).cdf()
    ks = max(abs(cdf(float(t) * s) - semicircle_cdf(float(t)))
             for t in np.linspace(-3.0, 3.0, 121))
    return ks <= tol, f"scaled KS vs semicircle {ks:.4f}"


SELFTEST = (
    ("special-function identity", identity,
     dict(radii=np.geomspace(1e-2, 30.0, 8), fracs=(-0.9, 0.0, 0.9),
          tol=1e-9)),
    ("alpha=2 semicircle", semicircle, dict(points=10, tol=1e-6)),
    ("alpha=1 tail and center", heavy_tail,
     dict(tail_ts=(50.0,), rel_tol=0.05, center_tol=0.01)),
    ("band equivalence", band_equivalence,
     dict(ts=np.linspace(0.3, 2.5, 5), tol=1e-6)),
    ("wigner monte carlo", wigner_monte_carlo,
     dict(t_max=100.0, points=60, n=400, trials=3, seed=1, ks_tol=0.08)),
    ("wishart atom", wishart_monte_carlo,
     dict(n=400, m=200, trials=3, seed=1, atom_tol=0.05)),
    ("truncated moment", truncated_moment,
     dict(n=1000, trials=5, seed=1, tol=0.2)),
    ("alpha->2 continuity", alpha_two_continuity, dict(points=40, tol=0.08)),
)

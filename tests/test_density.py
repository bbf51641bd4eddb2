"""Densities on the real axis, atoms, tails and curve assembly."""

import json
import math

import numpy as np
import pytest

from htspectra import density, solver, special
from htspectra.density import (
    DensityCurve,
    atom_at_zero_wishart,
    build_density_curve,
    default_eps_schedule,
    density_band,
    density_band_detail,
    density_wigner_formula,
    density_wishart,
    semicircle_cdf,
    semicircle_density,
    tail_constant,
)
from htspectra.matrices import (
    SigmaProfile,
    band_alpha_integral,
    equivalent_constant,
    profile_alpha_norm,
)
from htspectra.solver import SolverError
from htspectra.special import AlphaParam, h_alpha


CONST = SigmaProfile("constant", c=1.0)
BAND = SigmaProfile("band", breakpoints=(0.0, 0.25, 0.75, 1.0),
                    values=(1.0, 0.0, 1.0))


def test_semicircle_closed_form():
    assert abs(semicircle_density(0.0) - 1.0 / math.pi) < 1e-15
    assert semicircle_density(2.5) == 0.0
    assert semicircle_cdf(-2.0) == 0.0
    assert abs(semicircle_cdf(0.0) - 0.5) < 1e-14
    assert semicircle_cdf(2.0) == 1.0


def test_alpha_two_reduces_to_semicircle():
    a = AlphaParam(2.0, alpha_two_mode=True)
    for t in (0.3, 1.0, 1.7):
        got = density_wigner_formula(a, t)
        assert abs(got - semicircle_density(t)) < 1e-8


def test_cauchy_center_value():
    # at alpha=1 the density at 0+ equals 1/pi
    a = AlphaParam(1.0)
    got = density_wigner_formula(a, 1e-3)
    assert abs(math.pi * got - 1.0) < 1e-3


def test_wigner_density_even():
    a = AlphaParam(1.5)
    assert abs(density_wigner_formula(a, 0.8)
               - density_wigner_formula(a, -0.8)) < 1e-11


def test_two_wigner_expressions_cross_check():
    # density_wigner_formula raises unless both algebraic forms agree;
    # also check it against the generic band route
    a = AlphaParam(1.2)
    for t in (0.5, 2.0, 10.0):
        v1 = density_wigner_formula(a, t)
        v2 = density_band(a, CONST, t)
        assert abs(v1 - v2) < 1e-9 * max(1.0, v1)


def test_plemelj_extrapolation_consistent():
    a = AlphaParam(1.5)
    value, plemelj, eps = density_band_detail(a, CONST, 1.3)
    assert eps <= 1e-5
    assert abs(value - plemelj) < 1e-6


def test_tail_constants_exact():
    a = AlphaParam(1.0)
    assert abs(tail_constant(a, CONST) - 0.5) < 1e-15
    # band: integral of |phi|^alpha = 0.5 exactly from the breakpoints
    assert abs(tail_constant(AlphaParam(1.5), BAND) - 0.75 * 0.5) < 1e-15
    from htspectra.matrices import covariance_profile
    prof = covariance_profile(0.5)
    want = 0.5 * 2.0 * 0.5 / 1.5**2      # (alpha/2) * 2 gamma/(1+gamma)^2
    assert abs(tail_constant(a, prof) - want) < 1e-14


def test_tail_fit_matches_exact_constant():
    a = AlphaParam(1.0)
    const, disc = tail_constant(a, CONST, with_fit=True)
    assert const == 0.5
    assert disc < 0.05


def test_band_equals_scaled_wigner():
    # the band profile is spectrally equivalent to the constant profile
    # sigma = (int |phi|^alpha)^(1/alpha)
    a = AlphaParam(1.5)
    sig = 0.5 ** (1.0 / 1.5)
    for t in (0.4, 1.1):
        lhs = density_band(a, BAND, t)
        rhs = density_wigner_formula(a, t / sig) / sig
        assert abs(lhs - rhs) < 1e-8


def test_wishart_gamma_one_alpha_two_is_marchenko_pastur():
    a = AlphaParam(2.0, alpha_two_mode=True)
    # MP(1) density at t: sqrt(4/t - 1)/(2 pi); at t=1 this is sqrt(3)/(2 pi)
    got = density_wishart(a, 1.0, 1.0)
    assert abs(got - math.sqrt(3.0) / (2.0 * math.pi)) < 1e-8
    assert density_wishart(a, 1.0, 4.5) < 1e-8


def test_wishart_validation():
    a = AlphaParam(1.2)
    with pytest.raises(ValueError):
        density_wishart(a, 0.5, -1.0)
    with pytest.raises(ValueError):
        density_wishart(a, 1.5, 1.0)
    with pytest.raises(ValueError):
        atom_at_zero_wishart(a, 1.0)


def test_wishart_atom_equals_one_minus_gamma():
    a = AlphaParam(1.2)
    atom = atom_at_zero_wishart(a, 0.5)
    assert abs(atom - 0.5) < 1e-3
    atom9 = atom_at_zero_wishart(a, 0.9)
    assert abs(atom9 - 0.1) < 1e-3


def test_wishart_density_positive_near_zero():
    a = AlphaParam(1.2)
    for t in (0.05, 0.2, 1.0):
        assert density_wishart(a, 0.5, t) > 0.0


def test_eps_schedule_shape():
    sched = default_eps_schedule()
    assert sched[0] == 0.5
    assert all(b < a for a, b in zip(sched, sched[1:]))
    assert sched[-1] >= 1e-6


def test_curve_mass_and_cdf():
    a = AlphaParam(1.0)
    curve = build_density_curve(a, "wigner", t_min=1e-3, t_max=200.0,
                                points=60)
    mass = curve.total_mass()
    # trapezoid error on a 60-point log grid dominates the defect
    assert abs(mass - 1.0) < 2e-2
    cdf = curve.cdf()
    assert abs(cdf(0.0) - 0.5) < 5e-3
    assert cdf(250.0) <= 1.0
    assert cdf(-0.5) < cdf(0.5)


def test_curve_validation():
    with pytest.raises(ValueError):
        DensityCurve(alpha=1.0, model="wigner", grid=np.array([1.0]),
                     rho=np.array([1.0]))
    with pytest.raises(ValueError):
        DensityCurve(alpha=1.0, model="wigner", grid=np.array([1.0, 0.5]),
                     rho=np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        DensityCurve(alpha=1.0, model="wigner", grid=np.array([0.5, 1.0]),
                     rho=np.array([-1.0, 1.0]))


def test_curve_csv_round_trip():
    c = DensityCurve(alpha=1.2, model="wishart",
                     grid=np.array([0.5, 1.0, 2.0]),
                     rho=np.array([0.3, 0.2, 0.1]),
                     atom_at_zero=0.5, tail_constant_estimate=0.3,
                     tail_exponent=1.6, symmetric=False)
    text = c.to_csv()
    side = json.loads(json.dumps(c.sidecar()))
    back = DensityCurve.from_csv(text, side)
    assert np.array_equal(back.grid, c.grid)
    assert np.array_equal(back.rho, c.rho)
    assert back.atom_at_zero == 0.5 and not back.symmetric
    with pytest.raises(ValueError, match="header"):
        DensityCurve.from_csv("x,y\n1,2\n", side)
    with pytest.raises(ValueError, match="line"):
        DensityCurve.from_csv("t,rho\n1.0,0.1\n2.0,zap\n", side)


def test_build_curve_rejects_unknown_model():
    with pytest.raises(ValueError):
        build_density_curve(AlphaParam(1.5), "perturbed")


def _mirrored_curve(ts, rho, **closure):
    return DensityCurve(alpha=1.0, model="wigner",
                        grid=np.concatenate([-ts[::-1], ts]),
                        rho=np.concatenate([rho[::-1], rho]), **closure)


# trapezoid mass exactly 1 on +-[0.1, 10]; no tail closure
FLAT = _mirrored_curve(np.linspace(0.1, 10.0, 100), np.full(100, 0.05))
# Cauchy density closed by its 1/(pi t^2) tails beyond +-[0.1, 10]
_TS = np.geomspace(0.1, 10.0, 200)
CAUCHY = _mirrored_curve(_TS, 1.0 / (math.pi * (1.0 + _TS ** 2)),
                         tail_constant_estimate=1.0 / math.pi,
                         tail_exponent=2.0)


# one-sided: atom 1/2 at zero and rho = 0.05 on [0, 10], the gap [0, 0.1)
# carried by rho(grid[0]); total mass exactly 1
ONE_SIDED = DensityCurve(alpha=1.0, model="wishart",
                         grid=np.linspace(0.1, 10.0, 100),
                         rho=np.full(100, 0.05), atom_at_zero=0.5,
                         symmetric=False)
# atom 0.3 plus 0.7 times the half-Cauchy law, closed by its tail
_HALF = np.geomspace(0.01, 10.0, 200)
HALF_CAUCHY = DensityCurve(alpha=1.0, model="wishart", grid=_HALF,
                           rho=1.4 / (math.pi * (1.0 + _HALF ** 2)),
                           atom_at_zero=0.3,
                           tail_constant_estimate=1.4 / math.pi,
                           tail_exponent=2.0, symmetric=False)


def test_one_sided_cdf_carries_atom_and_gap():
    assert abs(ONE_SIDED.total_mass() - 1.0) < 1e-12
    cdf = ONE_SIDED.cdf()
    assert cdf(-1e-9) == 0.0
    assert abs(cdf(0.0) - 0.5) < 1e-15
    # linear through the gap up to the first grid point
    for t in (0.02, 0.05, 0.0999, 0.1, 0.3):
        assert abs(cdf(t) - (0.5 + 0.05 * t)) < 1e-12
    assert abs(cdf(10.0) - 1.0) < 1e-12
    half = HALF_CAUCHY.cdf()
    assert abs(half(0.0) - 0.3 / HALF_CAUCHY.total_mass()) < 1e-15


def test_symmetric_mass_counts_the_central_gap_once():
    assert abs(FLAT.total_mass() - 1.0) < 1e-12
    cdf = FLAT.cdf()
    assert cdf(-10.0) == 0.0
    assert abs(cdf(0.0) - 0.5) < 1e-12
    assert abs(cdf(10.0) - 1.0) < 1e-12


@pytest.mark.parametrize("curve", [FLAT, CAUCHY, ONE_SIDED, HALF_CAUCHY],
                         ids=["known-mass", "tail-closure",
                              "one-sided-known-mass", "one-sided-tail"])
def test_curve_cdf_is_a_distribution(curve):
    cdf = curve.cdf()
    ts = np.geomspace(1e-3, 1e12, 400)
    ts = np.concatenate([-ts[::-1], [0.0], ts])
    vals = np.array([cdf(float(t)) for t in ts])
    assert np.all(np.diff(vals) >= 0.0)
    assert vals.min() >= 0.0 and vals.max() <= 1.0
    assert vals[0] < 1e-9 and vals[-1] > 1.0 - 1e-9


def test_cdf_below_grid_is_left_tail_mass():
    cdf = CAUCHY.cdf()
    total = CAUCHY.total_mass()
    for t in (-10.5, -100.0, -1e4):
        assert abs(cdf(t) - 1.0 / (math.pi * -t) / total) < 1e-15


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 1.9])
def test_band_alpha_integral_single_definition(alpha):
    uneven = SigmaProfile("band", breakpoints=(0.0, 0.1, 0.3, 0.7, 0.9, 1.0),
                          values=(2.0, -0.5, 0.3, -0.5, 2.0))
    for prof in (BAND, uneven):
        want = band_alpha_integral(prof, alpha)
        assert abs(tail_constant(AlphaParam(alpha), prof) * 2.0 / alpha
                   - want) <= 1e-14
        assert abs(profile_alpha_norm(prof, alpha, N=200)[0] - want) <= 1e-14
        assert abs(equivalent_constant(prof, alpha).c ** alpha
                   - want) <= 1e-14


# ---------------------------------------------------------------------------
# the real-axis sweep of build_density_curve against the per-point path


def _per_point(model, a, t, gamma=0.5):
    if model == "wigner":
        return density_wigner_formula(a, t)
    if model == "band":
        return density_band(a, BAND, t)
    return density_wishart(a, gamma, t)


def _curve(model, a, t_min, t_max, points, gamma=0.5, **kw):
    extra = {"profile": BAND} if model == "band" else {}
    if model == "wishart":
        extra["gamma"] = gamma
    return build_density_curve(a, model, t_min=t_min, t_max=t_max,
                               points=points, **extra, **kw)


def _agrees(got, want):
    return abs(got - want) <= max(1e-12 * abs(want), 1e-13)


# (model, alpha, gamma, t_min, t_max, points)
SWEEP_CASES = (
    [("wigner", al, None, 1e-2, 1e3, 8) for al in (0.5, 1.0, 1.5, 1.95)]
    + [("band", al, None, 1e-2, 1e3, 8) for al in (0.5, 1.0, 1.5, 1.95)]
    + [("wishart", al, 0.5, 1e-2, 1e4, 8) for al in (0.5, 1.0, 1.5)]
    + [("wishart", 1.2, 1.0, 1e-2, 1e4, 8),
       ("wigner", 1.0, None, 1e-3, 1e2, 80),
       ("wishart", 1.2, 0.5, 1e-2, 1e4, 80)])


@pytest.mark.parametrize("model,alpha,gamma,t_min,t_max,points",
                         SWEEP_CASES,
                         ids=[f"{c[0]}-a{c[1]}-g{c[2]}-{c[5]}"
                              for c in SWEEP_CASES])
def test_sweep_matches_per_point_path(model, alpha, gamma, t_min, t_max,
                                      points):
    a = AlphaParam(alpha)
    curve = _curve(model, a, t_min, t_max, points, gamma=gamma)
    ts = curve.grid[-points:]
    methods = [p.method for p in curve.points]
    assert methods == ["sweep"] * (points - 1) + ["eps"]
    for t, got, rec in zip(ts, curve.rho[-points:], curve.points):
        assert rec.residual <= 1e-13
        want = _per_point(model, a, t, gamma)
        assert _agrees(got, max(want, 0.0)), (t, got, want)


def test_wishart_gap_point_newton_stays_at_roundoff():
    # In the gap near 0 (rho = 0) Y2 = -6.81+6.81i lies on the cone edge,
    # where g is only as good as its contour.  Newton iterates on the real
    # axis must stay at roundoff, not bounce on g's noise, and rho must
    # read 0 to roundoff.
    a = AlphaParam(1.5)
    t = float(np.geomspace(1e-2, 1e4, 8)[1])
    system = solver.wishart_system(a, 0.5)
    _, sol = density._boundary_solution(system, math.sqrt(t),
                                        density._DENSITY_CFG,
                                        default_eps_schedule())
    z, y = complex(math.sqrt(t)), sol.unknowns
    assert abs(y[1] - (-6.8132 + 6.8132j)) < 1e-3
    for _ in range(8):
        fy = system.apply(z, y)
        assert system.residual(z, y, fy) <= 1e-15
        assert abs(density._wishart_rho(a, t, y)) <= 1e-13
        y = y + np.linalg.solve(system.jacobian(z, y), fy - y)


def test_sweep_falls_back_at_critical_points():
    a = AlphaParam(1.5)
    ts = np.geomspace(1e-2, 1e3, 8)
    crit = [float(ts[3])]
    curve = _curve("band", a, 1e-2, 1e3, 8, critical_points=crit)
    methods = [p.method for p in curve.points]
    assert methods == ["sweep"] * 3 + ["eps"] + ["sweep"] * 3 + ["eps"]
    assert curve.points[3].eps_reached == 1e-6
    assert curve.rho[8 + 3] == density_band(a, BAND, ts[3])
    for t, got in zip(ts, curve.rho[8:]):
        assert _agrees(got, density_band(a, BAND, t))


def test_wishart_gap_sweep_point_records():
    # the records of this curve's sweep through the gap near 0, where Y2
    # lies on the cone edge; a Newton that gave up on iterates near the
    # edge would add halvings or fall back to the eps path here
    curve = _curve("wishart", AlphaParam(1.5), 1e-2, 1e4, 16)
    got = [(p.method, p.halvings, p.newton_iterations) for p in curve.points]
    assert got == [("sweep", 0, 7), ("sweep", 0, 6), ("sweep", 1, 10),
                   ("sweep", 1, 12), ("sweep", 0, 5)] \
        + [("sweep", 0, 4)] * 2 + [("sweep", 0, 5)] \
        + [("sweep", 0, 4)] * 4 + [("sweep", 0, 3)] * 3 + [("eps", 0, 1)]


def test_clean_sweep_runs_one_eps_path(monkeypatch):
    calls = []
    real = density.continue_to_real_axis

    def counted(system, t, *args, **kwargs):
        calls.append(t)
        return real(system, t, *args, **kwargs)

    monkeypatch.setattr(density, "continue_to_real_axis", counted)
    curve = build_density_curve(AlphaParam(1.0), "wigner", t_min=1e-3,
                                t_max=1e2, points=8)
    assert calls == [curve.grid[-1]]


def _failing_polish(monkeypatch, fails):
    """Make density.polish_on_axis raise SolverError where fails(t) holds,
    the first time for each t; returns the list of t it was called at."""
    real = density.polish_on_axis
    calls = []

    def polish(system, t, y, **kwargs):
        if fails(t) and t not in calls:
            calls.append(t)
            raise SolverError("injected failure")
        calls.append(t)
        return real(system, t, y, **kwargs)

    monkeypatch.setattr(density, "polish_on_axis", polish)
    return calls


def test_failed_correction_halves_the_step(monkeypatch):
    a = AlphaParam(1.5)
    ts = np.geomspace(1e-2, 1e3, 8)
    calls = _failing_polish(monkeypatch, lambda t: t == ts[5])
    curve = build_density_curve(a, "wigner", t_min=1e-2, t_max=1e3,
                                points=8)
    rec = curve.points[5]
    assert (rec.method, rec.halvings) == ("sweep", 1)
    # the walk passed through the log midpoint of ts[6] and ts[5]
    assert any(abs(t / math.sqrt(ts[5] * ts[6]) - 1.0) < 1e-12
               for t in calls)
    assert _agrees(curve.rho[8 + 5], density_wigner_formula(a, ts[5]))


def test_exhausted_halvings_fall_back_to_eps(monkeypatch):
    a = AlphaParam(1.5)
    ts = np.geomspace(1e-2, 1e3, 8)
    # the direct step to ts[5] and every intermediate point fail once
    _failing_polish(monkeypatch, lambda t: ts[5] <= t < ts[6])
    curve = build_density_curve(a, "wigner", t_min=1e-2, t_max=1e3,
                                points=8)
    rec = curve.points[5]
    assert (rec.method, rec.halvings) == ("eps", density.SWEEP_HALVINGS)
    assert curve.rho[8 + 5] == density_wigner_formula(a, ts[5])
    # the sweep continues below the fallback point
    assert [p.method for p in curve.points[:5]] == ["sweep"] * 5
    for t, got in zip(ts[:5], curve.rho[8:13]):
        assert _agrees(got, density_wigner_formula(a, t))


def test_point_records_reach_the_sidecar():
    curve = build_density_curve(AlphaParam(1.2), "wishart", gamma=0.5,
                                t_min=0.1, t_max=100.0, points=4)
    side = json.loads(json.dumps(curve.sidecar()))
    recs = side["points"]
    assert [r["t"] for r in recs] == curve.grid.tolist()
    assert [r["method"] for r in recs] == ["sweep"] * 3 + ["eps"]
    assert recs[-1]["eps_reached"] == 1e-6
    assert all(r["eps_reached"] is None for r in recs[:-1])
    assert all(r["residual"] <= 1e-13 and r["halvings"] == 0
               and r["newton_iterations"] >= 1 for r in recs)


# ---------------------------------------------------------------------------
# the Wishart atom: one continuation path down the imaginary axis


ATOM_XS = np.array([1e-1, 10 ** -1.5, 1e-2, 10 ** -2.5, 1e-3, 10 ** -3.5,
                    1e-4])
ATOM_ALPHAS = (0.5, 0.8, 1.0, 1.2, 1.5, 1.7, 1.9, 1.95)
ATOM_GAMMAS = (0.1, 0.5, 0.9, 0.99)


def _atom_seven_warm_solves(a, gamma):
    """The atom as seven separate solves at the extrapolation abscissae, a
    cold one and then continuation steps, each Newton from the previous
    unknowns and then Picard: the reference the single path must
    reproduce."""
    system = solver.wishart_system(a, gamma)
    cfg = density._DENSITY_CFG
    vals, sol = [], None
    for x in ATOM_XS:
        sol = solver._solve(system, 1j * x, cfg) if sol is None \
            else solver._continuation_step(system, 1j * x, sol.unknowns, cfg)
        vals.append(h_alpha(a, sol.unknowns[0]).real)
    return float(np.polynomial.polynomial.polyfit(ATOM_XS, vals, 2)[0])


@pytest.mark.parametrize("gamma", [0.1, 0.5])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.2, 1.5, 1.9, 1.95])
def test_atom_matches_seven_warm_solves(alpha, gamma):
    # the stopping test is scaled by |z|^alpha, so an accepted iterate at
    # x = 1e-4 may be off by up to 1e-12 / x^alpha
    a = AlphaParam(alpha)
    want = _atom_seven_warm_solves(a, gamma)
    assert abs(atom_at_zero_wishart(a, gamma) - want) <= 1e-7


@pytest.mark.parametrize("alpha", ATOM_ALPHAS)
def test_atom_runs_picard_once(alpha, monkeypatch):
    """Picard runs at the top of the path only, where |z| is at least the
    contraction radius; every later point is a Newton correction."""
    calls = []
    picard = solver._picard

    def counted(system, z, *args, **kwargs):
        calls.append(z)
        return picard(system, z, *args, **kwargs)

    monkeypatch.setattr(solver, "_picard", counted)
    a = AlphaParam(alpha)
    for gamma in ATOM_GAMMAS:
        calls.clear()
        atom_at_zero_wishart(a, gamma)
        assert len(calls) == 1, gamma
        radius = solver.wishart_system(a, gamma).start_radius()
        assert calls[0].real == 0.0 and calls[0].imag >= radius


@pytest.mark.parametrize("alpha", ATOM_ALPHAS)
def test_atom_g_evaluations(alpha, monkeypatch):
    calls = []
    g = special.g_alpha_beta

    def counted(*args, **kwargs):
        calls.append(None)
        return g(*args, **kwargs)

    monkeypatch.setattr(special, "g_alpha_beta", counted)
    a = AlphaParam(alpha)
    for gamma in ATOM_GAMMAS:
        calls.clear()
        atom_at_zero_wishart(a, gamma)
        assert len(calls) <= 400, gamma


def test_atom_failed_correction_halves_the_step(monkeypatch):
    a = AlphaParam(1.2)
    want = atom_at_zero_wishart(a, 0.5)
    real = solver._newton
    calls = []

    def newton(system, z, y, *args, **kwargs):
        # fail the first correction aimed at x = 1e-2
        first = not any(abs(x / 1e-2 - 1.0) < 1e-12 for x in calls)
        calls.append(z.imag)
        if first and abs(z.imag / 1e-2 - 1.0) < 1e-12:
            raise SolverError("injected failure")
        return real(system, z, y, *args, **kwargs)

    monkeypatch.setattr(solver, "_newton", newton)
    got = atom_at_zero_wishart(a, 0.5)
    # the walk passed through the log midpoint of 10^-1.5 and 10^-2
    assert any(abs(x / 10 ** -1.75 - 1.0) < 1e-12 for x in calls)
    assert abs(got - want) <= 1e-9


def test_atom_spent_halvings_fall_back_to_a_continuation_step(monkeypatch):
    a = AlphaParam(1.2)
    want = atom_at_zero_wishart(a, 0.5)
    real = solver._newton
    calls = []

    def newton(system, z, y, *args, **kwargs):
        # every correction aimed between 10^-1.5 and 10^-2 fails
        calls.append(z.imag)
        if 1e-2 * (1.0 - 1e-12) < z.imag < 10 ** -1.5:
            raise SolverError("injected failure")
        return real(system, z, y, *args, **kwargs)

    monkeypatch.setattr(solver, "_newton", newton)
    got = atom_at_zero_wishart(a, 0.5)
    # the first try and SWEEP_HALVINGS halvings, then the continuation
    # step: its Newton fails too, and damped Picard solves at x = 1e-2
    tries = [x for x in calls if 1e-2 * (1.0 - 1e-12) < x < 10 ** -1.5]
    assert len(tries) == density.SWEEP_HALVINGS + 2
    assert abs(got - want) <= 1e-9


def test_atom_drift_off_the_real_axis_raises(monkeypatch):
    real = density.h_alpha
    monkeypatch.setattr(density, "h_alpha",
                        lambda a, y: real(a, y) + 1e-3j)
    with pytest.raises(SolverError) as info:
        atom_at_zero_wishart(AlphaParam(1.2), 0.5)
    assert info.value.unknowns is not None


@pytest.mark.parametrize("alpha", [1.7, 1.9, 1.95])
def test_atom_near_alpha_two_at_gamma_09(alpha):
    # the seven-warm-solve atom raised SolverError here
    atom = atom_at_zero_wishart(AlphaParam(alpha), 0.9)
    assert abs(atom - 0.1) <= 1e-4


@pytest.mark.parametrize("alpha", [0.8, 1.0, 1.2, 1.5, 1.7, 1.9, 1.95])
def test_atom_at_gamma_099(alpha):
    # 2e-3 is the error of the quadratic extrapolation over ATOM_XS
    atom = atom_at_zero_wishart(AlphaParam(alpha), 0.99)
    assert math.isfinite(atom) and abs(atom - 0.01) <= 2e-3


def test_density_point_g_evaluations(monkeypatch):
    # the eps path walks the default schedule's seven points and the cold
    # solve its coarse geometric steps; 60 fine eps steps and 0.8 distance
    # steps took 2,262 evaluations here
    calls = []
    g = special.g_alpha_beta

    def counted(*args, **kwargs):
        calls.append(None)
        return g(*args, **kwargs)

    monkeypatch.setattr(special, "g_alpha_beta", counted)
    density_band(AlphaParam(1.5), BAND, 1.0)
    assert len(calls) <= 800

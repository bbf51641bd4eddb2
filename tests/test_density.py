"""Densities on the real axis, atoms, tails and curve assembly."""

import json
import math
from unittest import mock

import numpy as np
import pytest

from htspectra import density, solver, special
from htspectra.density import (
    DensityCurve,
    atom_at_zero_wishart,
    build_density_curve,
    density_band,
    density_point,
    density_wigner_formula,
    semicircle_cdf,
    semicircle_density,
    tail_constant,
)
from htspectra.matrices import SigmaProfile, alpha_kernel, band_alpha_integral
from htspectra.solver import SolverError
from htspectra.special import AlphaParam, h_alpha


CONST = SigmaProfile("constant", c=1.0)
BAND = SigmaProfile("band", breakpoints=(0.0, 0.25, 0.75, 1.0),
                    values=(1.0, 0.0, 1.0))


def density_wishart(a, gamma, t):
    """The covariance density at t > 0 (``density_point``)."""
    return density_point(a, "wishart", t, gamma=gamma)[0]


def test_semicircle_closed_form():
    assert abs(semicircle_density(0.0) - 1.0 / math.pi) < 1e-15
    assert semicircle_density(2.5) == 0.0
    assert semicircle_cdf(-2.0) == 0.0
    assert abs(semicircle_cdf(0.0) - 0.5) < 1e-14
    assert semicircle_cdf(2.0) == 1.0


def test_alpha_two_reduces_to_semicircle():
    a = AlphaParam(2.0)
    for t in (0.3, 1.0, 1.7):
        got = density_wigner_formula(a, t)
        assert abs(got - semicircle_density(t)) < 1e-8


ALPHA_TWO = AlphaParam(2.0)


def test_alpha_two_wigner_curve_has_no_tail():
    # the semicircle lives on [-2, 2]: a grid that covers it holds all the
    # mass, and a heavy-tail closure beyond it would add about 0.11
    curve = build_density_curve(ALPHA_TWO, "wigner", t_min=1e-3, t_max=3.0,
                                points=200)
    assert curve.tail_constant_estimate == 0.0
    assert abs(curve.total_mass() - 1.0) <= 5e-3
    assert curve.cdf()(2.0) >= 0.9999


def test_alpha_two_wishart_curve_has_no_tail():
    curve = build_density_curve(ALPHA_TWO, "wishart", gamma=0.5,
                                t_min=1e-3, t_max=4.0, points=200)
    assert curve.tail_constant_estimate == 0.0
    assert abs(curve.total_mass() - 1.0) <= 1e-3


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
    # the independent Plemelj value -(1/pi) Im G(t + i eps), extrapolated
    # to eps = 0 by a quadratic through three cold solves next to the axis,
    # against the density at the polished real-axis solution
    a = AlphaParam(1.5)
    system = solver.band_system(a, CONST)
    path = [solver.solve(system, 1.3 + 1j * e) for e in (5e-5, 5e-6, 1e-6)]
    eps = np.array([p.z.imag for p in path])
    im_g = [system.G(p.z, p.unknowns).imag for p in path]
    plemelj = -np.polynomial.polynomial.polyfit(eps, im_g, 2)[0] / math.pi
    assert abs(density_band(a, CONST, 1.3) - plemelj) < 1e-6


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
    # the t^(-alpha-1) tail law fitted to computed densities far out
    a = AlphaParam(1.0)
    const = tail_constant(a, CONST)
    assert const == 0.5
    ts = np.array([50.0, 100.0, 200.0])
    fitted = np.array([density_band(a, CONST, t) for t in ts]) * ts ** 2.0
    assert np.max(np.abs(fitted - const)) / const < 0.05


def test_band_equals_scaled_wigner():
    # the band profile is spectrally equivalent to the constant profile
    # sigma = (int |phi|^alpha)^(1/alpha)
    a = AlphaParam(1.5)
    sig = 0.5 ** (1.0 / 1.5)
    for t in (0.4, 1.1):
        lhs = density_band(a, BAND, t)
        rhs = density_wigner_formula(a, t / sig) / sig
        assert abs(lhs - rhs) < 1e-8


@pytest.mark.parametrize("alpha", [0.7, 1.5])
def test_single_point_densities_are_python_floats(alpha):
    # the tanh-sinh path returns numpy scalars; a single point written as
    # repr(rho) must read back as a number, not "np.float64(...)"
    a = AlphaParam(alpha)
    for rho in (density_wigner_formula(a, 0.7), density_band(a, BAND, 0.7),
                density_wishart(a, 0.5, 0.7)):
        assert type(rho) is float, type(rho)


@pytest.mark.parametrize("alpha", [0.7, 1.5])
def test_density_point_is_the_wrappers_bit_for_bit(alpha):
    a = AlphaParam(alpha)
    for t in (-1.3, 0.05, 0.7, 3.1):
        rho, rec = density_point(a, "wigner", t)
        assert rho == density_wigner_formula(a, t)
        assert rec.method == "sweep"
        assert density_point(a, "band", t, profile=BAND)[0] \
            == density_band(a, BAND, t)


@pytest.mark.parametrize("model", ["wigner", "band", "wishart"])
def test_curve_top_point_is_density_point(model):
    # a curve and a single point solve through one path: the curve's
    # largest grid point, the first that the sweep reaches, is the single
    # point there, value and record
    a = AlphaParam(1.2)
    curve = _curve(model, a, 0.1, 10.0, 4)
    extra = {"profile": BAND} if model == "band" else {"gamma": 0.5}
    rho, rec = density_point(a, model, float(curve.grid[-1]), **extra)
    assert rho == curve.rho[-1] and rec == curve.points[-1]


def test_density_point_rejects_points_off_the_support():
    a = AlphaParam(1.5)
    for t in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            density_point(a, "wigner", t)
    with pytest.raises(ValueError):
        density_point(a, "wishart", -1.0, gamma=0.5)
    with pytest.raises(ValueError, match="profile"):
        density_point(a, "band", 1.0)
    with pytest.raises(ValueError, match="unknown model"):
        density_point(a, "perturbed", 1.0)


def test_negative_density_is_a_numerical_failure(monkeypatch):
    # a density below -RHO_ROUNDOFF at t = 0.01 fails every correction
    # there, and the cold point that follows the spent halvings reads it
    # too: the curve raises, naming the density and t
    rho = density._wishart_rho
    monkeypatch.setattr(
        density, "_wishart_rho",
        lambda a, t, y: -0.061 if t == 0.01 else rho(a, t, y))
    with pytest.raises(ArithmeticError,
                       match="negative density -6.100e-02 at t=0.01:"):
        build_density_curve(AlphaParam(1.8), "wishart", gamma=0.5,
                            t_min=1e-2, t_max=1e3, points=12)


def test_single_point_clips_roundoff_and_rejects_a_wrong_branch(monkeypatch):
    a = AlphaParam(1.5)
    monkeypatch.setattr(density, "_wishart_rho", lambda a, t, y: -1e-12)
    assert density_wishart(a, 0.5, 0.7) == 0.0
    monkeypatch.setattr(density, "_wishart_rho", lambda a, t, y: -1e-3)
    with pytest.raises(ArithmeticError, match="negative density"):
        density_wishart(a, 0.5, 0.7)


def test_wishart_gamma_one_alpha_two_is_marchenko_pastur():
    a = AlphaParam(2.0)
    # W = X X^t / a_{N+M}^2 with a_{2N}^2 = 2N: half of X X^t / N, whose
    # law is MP(1) on [0, 4], so rho(t) = sqrt(2/t - 1)/pi on [0, 2]
    for t in (0.5, 1.0, 1.5):
        got = density_wishart(a, 1.0, t)
        assert abs(got - math.sqrt(2.0 / t - 1.0) / math.pi) < 1e-8
    assert density_wishart(a, 1.0, 2.5) < 1e-8


# alpha x t grid of the gamma=1 identity
GAMMA_ONE_ALPHAS = (0.5, 1.0, 1.2, 1.5, 1.8)
GAMMA_ONE_TS = (0.05, 0.7, 3.0, 40.0)


@pytest.mark.parametrize("alpha", GAMMA_ONE_ALPHAS)
def test_wishart_gamma_one_is_scaled_wigner(alpha):
    """The pair at gamma=1 against the constant-profile density, an
    independent route: the N x N covariance embeds in the 2N x 2N
    constant-profile matrix, and a_{2N}/a_N = 2^(1/alpha), so
    rho(t) = (s/sqrt t) rho_W(s sqrt t) with s = 2^(1/alpha)."""
    a = AlphaParam(alpha)
    s = 2.0 ** (1.0 / alpha)
    for t in GAMMA_ONE_TS:
        got = density_wishart(a, 1.0, t)
        want = s / math.sqrt(t) * density_wigner_formula(a, s * math.sqrt(t))
        assert abs(got - want) <= 1e-12 * want, (t, got, want)


@pytest.mark.parametrize("alpha", [1.2, 2.0])
def test_wishart_density_is_continuous_at_gamma_one(alpha):
    # gamma = 1 solves the same pair as every gamma < 1; at alpha = 2 a
    # separate gamma = 1 route that scaled by 1 instead of 2^(1/2) read
    # 0.2757 here against 0.3183 just below
    a = AlphaParam(alpha)
    for t in (0.3, 1.0):
        at_one = density_wishart(a, 1.0, t)
        below = density_wishart(a, 1.0 - 1e-9, t)
        assert abs(at_one - below) <= 1e-6 * at_one, (t, at_one, below)


@pytest.mark.parametrize("profile", [CONST, BAND], ids=["const", "band"])
@pytest.mark.parametrize("alpha", [0.7, 1.5])
def test_band_density_is_even(alpha, profile):
    a = AlphaParam(alpha)
    for t in (0.3, 1.3):
        assert density_band(a, profile, -t) == density_band(a, profile, t)


def test_wishart_validation():
    a = AlphaParam(1.2)
    with pytest.raises(ValueError):
        density_wishart(a, 0.5, -1.0)
    with pytest.raises(ValueError):
        density_wishart(a, 1.5, 1.0)
    with pytest.raises(ValueError):
        atom_at_zero_wishart(1.0)


def test_wishart_atom_equals_one_minus_gamma():
    atom = atom_at_zero_wishart(0.5)
    assert abs(atom - 0.5) < 1e-3
    atom9 = atom_at_zero_wishart(0.9)
    assert abs(atom9 - 0.1) < 1e-3


def test_wishart_density_positive_near_zero():
    a = AlphaParam(1.2)
    for t in (0.05, 0.2, 1.0):
        assert density_wishart(a, 0.5, t) > 0.0


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
    assert "eps_floor" not in side
    # an older sidecar's eps_floor key is read past
    back = DensityCurve.from_csv(text, {**side, "eps_floor": 1e-4})
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
        w, k = alpha_kernel(prof, alpha)
        assert np.array_equal(w, [1.0]) and np.array_equal(k, [[want]])
        # the exact integral against a midpoint rule on a fine grid
        v = (np.arange(20000) + 0.5) / 20000
        riemann = float(np.mean(np.abs(prof.evaluate(v, 0.0)) ** alpha))
        assert abs(riemann - want) <= 1e-12


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
    assert [p.method for p in curve.points] == ["sweep"] * points
    for t, got, rec in zip(ts, curve.rho[-points:], curve.points):
        assert rec.residual <= 1e-13
        want = _per_point(model, a, t, gamma)
        assert _agrees(got, want), (t, got, want)


def test_wishart_curve_near_alpha_two_solves():
    # whether a sweep stays on the density's branch must not depend on its
    # grid: the 9-point curve, whose every point the 17-point one holds,
    # once accepted a solution off the branch at t = 0.01 (rho = -0.0610)
    # and raised "negative density", where the 17-point one passed; such a
    # correction now fails, and the walk halves its step
    a = AlphaParam(1.8)
    coarse = _curve("wishart", a, 1e-2, 1e3, 9)
    fine = _curve("wishart", a, 1e-2, 1e3, 17)
    assert np.allclose(coarse.grid, fine.grid[::2], rtol=1e-15, atol=0.0)
    for t, got, want in zip(coarse.grid, coarse.rho, fine.rho[::2]):
        assert _agrees(got, want), (t, got, want)


def test_wishart_gap_point_newton_stays_at_roundoff():
    # In the gap near 0 (rho = 0) Y2 = -6.81+6.81i lies on the cone edge,
    # where g is only as good as its contour.  Newton iterates on the real
    # axis must stay at roundoff, not bounce on g's noise, and rho must
    # read 0 to roundoff.
    a = AlphaParam(1.5)
    t = float(np.geomspace(1e-2, 1e4, 8)[1])
    system = solver.wishart_system(a, 0.5)
    x = math.sqrt(t)
    near = solver.solve(system, complex(x, density.COLD_EPS))
    sol = solver.polish_on_axis(system, x, near.unknowns)
    z, y = complex(x), sol.unknowns
    assert abs(y[1] - (-6.8132 + 6.8132j)) < 1e-3
    for _ in range(8):
        fy, jac = system.linearize(z, y)
        assert system.residual(z, y, fy) <= 1e-15
        assert abs(density._wishart_rho(a, t, y)) <= 1e-13
        y = y + np.linalg.solve(jac, np.array(fy) - y)


def test_wishart_gap_sweep_point_records():
    # the records of this curve's sweep through the gap near 0, where Y2
    # lies on the cone edge; a Newton that gave up on iterates near the
    # edge would add halvings or fall back to a cold solve here
    curve = _curve("wishart", AlphaParam(1.5), 1e-2, 1e4, 16)
    got = [(p.method, p.halvings, p.newton_iterations) for p in curve.points]
    assert got == [("sweep", 0, 7), ("sweep", 0, 6), ("sweep", 1, 10),
                   ("sweep", 1, 12), ("sweep", 0, 6), ("sweep", 0, 4),
                   ("sweep", 0, 4), ("sweep", 0, 5), ("sweep", 0, 4),
                   ("sweep", 0, 4), ("sweep", 0, 4), ("sweep", 0, 4)] \
        + [("sweep", 0, 3)] * 3 + [("sweep", 0, 2)]


def test_clean_sweep_makes_no_cold_solve(monkeypatch):
    # the sweep starts on the real axis, by Newton from 0 at the
    # contraction radius, and reaches every point from there
    calls = []
    real = density.solve

    def counted(system, z):
        calls.append(z)
        return real(system, z)

    monkeypatch.setattr(density, "solve", counted)
    curve = build_density_curve(AlphaParam(1.0), "wigner", t_min=1e-3,
                                t_max=1e2, points=8)
    assert calls == []
    assert [p.method for p in curve.points] == ["sweep"] * 8


def _failing_polish(monkeypatch, fails):
    """Make density.polish_on_axis raise SolverError where fails(t) holds,
    the first time for each t; returns the list of t it was called at."""
    real = density.polish_on_axis
    calls = []

    def polish(system, t, y):
        if fails(t) and t not in calls:
            calls.append(t)
            raise SolverError("injected failure")
        calls.append(t)
        return real(system, t, y)

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


def test_exhausted_halvings_fall_back_to_a_cold_solve(monkeypatch):
    a = AlphaParam(1.5)
    ts = np.geomspace(1e-2, 1e3, 8)
    # the direct step to ts[5] and every intermediate point fail once
    _failing_polish(monkeypatch, lambda t: ts[5] <= t < ts[6])
    solves = []
    real = density.solve

    def counted(system, z):
        solves.append(z)
        return real(system, z)

    monkeypatch.setattr(density, "solve", counted)
    curve = build_density_curve(a, "wigner", t_min=1e-2, t_max=1e3,
                                points=8)
    rec = curve.points[5]
    assert (rec.method, rec.halvings) == ("cold", solver.SWEEP_HALVINGS)
    # one cold solve next to the axis at ts[5], then the polish there
    assert solves == [complex(ts[5], density.COLD_EPS)]
    assert _agrees(curve.rho[8 + 5], density_wigner_formula(a, ts[5]))
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
    assert [r["method"] for r in recs] == ["sweep"] * 4
    assert all(set(r) == {"t", "method", "newton_iterations", "residual",
                          "halvings"} for r in recs)
    assert all(r["residual"] <= 1e-13 and r["halvings"] == 0
               and r["newton_iterations"] >= 1 for r in recs)


# ---------------------------------------------------------------------------
# the Wishart atom: the closed form 1 - gamma, and the evidence for it


@pytest.mark.parametrize("alpha,gamma",
                         [(0.5, 0.5), (0.5, 0.9), (0.8, 0.9), (0.5, 0.99)])
def test_curve_atom_is_one_minus_gamma(alpha, gamma):
    # small alpha and gamma near 1, where an atom extrapolated from
    # h(Y1(ix)) at x >= 1e-4 errs by up to 2e-2
    curve = build_density_curve(AlphaParam(alpha), "wishart", gamma=gamma,
                                t_min=0.1, t_max=10.0, points=2)
    assert abs(curve.atom_at_zero - (1.0 - gamma)) <= 1e-4


def _power_law(z, last, before):
    """Unknowns predicted at z = ix by the power law in x through the last
    two solutions on the imaginary axis, or the last one alone; exact for
    unknowns that are constant or proportional to a power of x."""
    if before is None:
        return last.unknowns
    r = math.log(z.imag / last.z.imag) / math.log(last.z.imag / before.z.imag)
    return last.unknowns * (last.unknowns / before.unknowns) ** r


def _imaginary_axis_walk(a, gamma):
    """The Wishart pair solved down z = ix, one solver._walk per x =
    10^(k/2) from the first one at or above the contraction radius down to
    1e-4, each predicted by the power law in place of the walk's secant:
    {x: solution}."""
    system = solver.wishart_system(a, gamma)
    top = math.ceil(2.0 * math.log10(system.start_radius()))
    path = [10.0 ** (k / 2.0) for k in range(top, -9, -1)]
    last, before = solver.solve(system, 1j * path[0]), None
    sols = {}
    with mock.patch.object(solver, "_secant", _power_law):
        for x in path:
            last, before = solver._walk(system, lambda s: 1j * s, x,
                                        last.z.imag, last, before)
            sols[x] = last
    return sols


@pytest.mark.parametrize("gamma", [0.1, 0.5, 0.9, 0.99])
@pytest.mark.parametrize("alpha", [0.5, 0.8, 1.0, 1.2, 1.5, 1.7, 1.9, 1.95])
def test_atom_companion_term_vanishes(alpha, gamma):
    """The atom is 1 - gamma + gamma lim h(Y2(ix)) by the pair identity;
    down the imaginary axis h(Y2(ix)) is real and falls by at least 10x
    per decade of x, to at most 2e-3 at x = 1e-4, so its limit is 0."""
    a = AlphaParam(alpha)
    sols = _imaginary_axis_walk(a, gamma)
    h2 = {}
    for x, sol in sols.items():
        h1 = h_alpha(a, sol.unknowns[0])
        h2[x] = h_alpha(a, sol.unknowns[1])
        assert abs(h1 - (1.0 - gamma + gamma * h2[x])) <= 1e-6, x
    end = h2[1e-4]
    assert abs(end.imag) <= 1e-12 * abs(end) and abs(end) <= 2e-3
    assert abs(h2[1e-3]) >= 10.0 * abs(end)


ATOM_XS = np.array([1e-1, 10 ** -1.5, 1e-2, 10 ** -2.5, 1e-3, 10 ** -3.5,
                    1e-4])


def _plain_picard(system, z, y):
    """y <- F(z, y) from y until the residual reaches the solver's
    tolerance, in at most 4000 steps."""
    for _ in range(4000):
        fy = np.array(system.linearize(z, y)[0])
        if system.residual(z, y, fy) <= solver.TOL:
            return y
        y = fy
    raise AssertionError(f"Picard reference stalled at z={z}")


@pytest.mark.parametrize("gamma", [0.1, 0.5])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.2, 1.5, 1.9, 1.95])
def test_atom_matches_seven_warm_solves(alpha, gamma):
    """The walk above lands on the branch of seven separate solves at
    ATOM_XS, a cold one and then plain Picard from the previous abscissa's
    solution: the companion term h(Y2(ix)), and with it the atom
    1 - gamma + gamma h(Y2(ix)) that the pair identity gives, agree at
    every abscissa."""
    a = AlphaParam(alpha)
    system = solver.wishart_system(a, gamma)
    walked = _imaginary_axis_walk(a, gamma)
    y = None
    for x in ATOM_XS:
        y = solver._solve(system, 1j * x).unknowns if y is None \
            else _plain_picard(system, 1j * x, y)
        want = h_alpha(a, y[1])
        got = h_alpha(a, walked[x].unknowns[1])
        assert abs(gamma * (got - want)) <= 1e-7, x


def _curve_atom_against_solver(alpha, gamma):
    """|atom_at_zero - h(Y1(i 1e-4))| for a Wishart curve: the closed-form
    atom against the solved value it is the x -> 0 limit of."""
    a = AlphaParam(alpha)
    curve = build_density_curve(a, "wishart", gamma=gamma,
                                t_min=0.1, t_max=10.0, points=2)
    h1 = h_alpha(a, _imaginary_axis_walk(a, gamma)[1e-4].unknowns[0])
    assert abs(h1.imag) <= 1e-12 * abs(h1)
    return abs(curve.atom_at_zero - h1)


@pytest.mark.parametrize("alpha", [1.7, 1.9, 1.95])
def test_atom_near_alpha_two_at_gamma_09(alpha):
    # seven warm solves down the imaginary axis raised SolverError here
    assert _curve_atom_against_solver(alpha, 0.9) <= 1e-4


@pytest.mark.parametrize("alpha", [0.8, 1.0, 1.2, 1.5, 1.7, 1.9, 1.95])
def test_atom_at_gamma_099(alpha):
    # 2e-3 bounds gamma |h(Y2(i 1e-4))|, the companion term still left there
    assert _curve_atom_against_solver(alpha, 0.99) <= 2e-3


def test_density_point_g_evaluations(monkeypatch):
    # the sweep walks from the contraction radius down to t in coarse log
    # steps; an eps path of 60 fine steps behind a cold solve of 0.8
    # distance steps took 2,262 evaluations here
    calls = []
    g = special.g_alpha_beta

    def counted(*args, **kwargs):
        calls.append(None)
        return g(*args, **kwargs)

    monkeypatch.setattr(special, "g_alpha_beta", counted)
    density_band(AlphaParam(1.5), BAND, 1.0)
    assert len(calls) <= 800

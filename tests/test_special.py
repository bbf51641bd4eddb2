"""Tests of the entire functions g/h, their constants and cones.

Reference values were computed independently with 40-digit mpmath
quadrature on the defining integral, or with 50-digit sums of the power
series, and frozen here.
"""

import cmath
import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.special import erfcx

from htspectra import special
from htspectra.special import (
    AlphaParam,
    K_ALPHA,
    K_HAT_ALPHA,
    QuadratureError,
    QuadratureRule,
    c_alpha,
    c_alpha_bar,
    cone_bound,
    cone_contains,
    g_alpha,
    g_alpha_beta,
    g_alpha_prime,
    g_alpha_second,
    h_alpha,
    principal_power,
)

# (alpha, beta, Re y, Im y, Re g, Im g) from 40-digit quadrature
ORACLE = [
    (0.5, 0.5, 0.3, 0.2, 3.1256013260927808, -0.28818917803367497),
    (0.5, 2.0, 2.0, -0.3, 0.18039375605570581, 0.042759547756725881),
    (0.5, 1.0, 0.05, 0.01, 1.7123665727258311, -0.011765170923422165),
    (1.0, 1.0, 1.0, 1.0, 0.94499566007504183, -0.40852975330578492),
    (1.0, 2.0, 0.2, 0.9, 0.5657691626519717, -0.52996415117065872),
    (1.0, 3.0, 4.0, 0.0, 0.037046724915285607, 0.0),
    (1.5, 1.5, 0.4, 1.1, 0.66760194304812787, -0.45661732765256081),
    (1.5, 2.0, -0.6, 0.8, 0.83592881574018779, -1.2325390238840201),
    (1.5, 3.0, 10.0, -3.0, 0.0094109930953853573, 0.0056543434828081042),
    (1.8, 1.8, -0.5, 0.5, 1.236243197827986, -0.91867413446251564),
    (1.8, 3.6, 0.9, 0.2, 0.2904118462869852, -0.057561213886517734),
    (1.95, 2.0, 1.2, 0.4, 0.43751630453285951, -0.081053840474309671),
]


@pytest.mark.parametrize("alpha,beta,yr,yi,vr,vi", ORACLE)
def test_g_matches_high_precision_oracle(alpha, beta, yr, yi, vr, vi):
    expected = complex(vr, vi)
    got = g_alpha_beta(AlphaParam(alpha), beta, complex(yr, yi))
    assert abs(got - expected) < 1e-11 * (1.0 + abs(expected))


def test_value_at_zero_is_gamma():
    for alpha, beta in [(0.5, 0.5), (1.2, 2.0), (1.9, 5.7)]:
        got = g_alpha_beta(AlphaParam(alpha), beta, 0.0)
        assert got == complex(math.gamma(beta / 2.0))


def test_h_g_identity_on_cone_grid():
    """h(y) = 1 - (alpha/2) y g(y) holds identically."""
    for al in (0.5, 1.0, 1.5):
        a = AlphaParam(al)
        for r in np.geomspace(1e-2, 50.0, 12):
            for frac in (-0.99, -0.5, 0.0, 0.5, 0.99):
                y = r * cmath.exp(1j * frac * al * math.pi / 2.0)
                lhs = h_alpha(a, y)
                rhs = 1.0 - 0.5 * al * y * g_alpha(a, y)
                # the y g(y) term amplifies quadrature error by |y|
                assert abs(lhs - rhs) < 1e-10 * (1.0 + abs(y))


def test_derivatives_match_finite_differences():
    a = AlphaParam(1.3)
    y = 0.7 + 0.4j
    h = 1e-5
    fd1 = (g_alpha(a, y + h) - g_alpha(a, y - h)) / (2.0 * h)
    assert abs(g_alpha_prime(a, y) - fd1) < 1e-8
    fd2 = (g_alpha(a, y + h) - 2.0 * g_alpha(a, y) + g_alpha(a, y - h)) / h**2
    assert abs(g_alpha_second(a, y) - fd2) < 1e-5


def test_alpha_two_mode_closed_form():
    a = AlphaParam(2.0, alpha_two_mode=True)
    for y in (0.0, 0.5, 1.0 + 2.0j, -0.3 + 0.1j):
        assert abs(g_alpha(a, y) - 1.0 / (1.0 + y)) < 1e-15
        assert abs(h_alpha(a, y) - 1.0 / (1.0 + y)) < 1e-15
    assert c_alpha(a) == -1.0
    with pytest.raises(ValueError):
        g_alpha_beta(a, 3.0, 0.5)


def test_alpha_param_validation():
    with pytest.raises(ValueError):
        AlphaParam(2.0)
    with pytest.raises(ValueError):
        AlphaParam(0.0)
    with pytest.raises(ValueError):
        AlphaParam(1.5, alpha_two_mode=True)


def test_c_alpha_values():
    # alpha=1: i^1 * Gamma(1/2)/Gamma(1/2) = i
    assert abs(c_alpha(AlphaParam(1.0)) - 1j) < 1e-15
    a = AlphaParam(1.5)
    assert abs(c_alpha_bar(a) - c_alpha(a).conjugate()) == 0.0
    # |C_alpha| = Gamma(1-a/2)/Gamma(a/2)
    expected = math.gamma(0.25) / math.gamma(0.75)
    assert abs(abs(c_alpha(a)) - expected) < 1e-13


def test_principal_power_branch():
    assert abs(principal_power(1j, 0.5) - cmath.exp(1j * math.pi / 4)) < 1e-15
    assert abs(principal_power(4.0, 0.5) - 2.0) < 1e-15
    with pytest.raises(ValueError):
        principal_power(0.0, 0.5)
    with pytest.raises(ValueError):
        principal_power(-1.0, 0.5)


def test_cone_membership():
    a = AlphaParam(1.0)
    assert cone_contains(K_ALPHA, a, 1.0 + 1.0j)
    assert not cone_contains(K_ALPHA, a, -1.0 + 0.1j)
    assert cone_contains(K_HAT_ALPHA, a, 1.0 - 1.0j)
    assert not cone_contains(K_HAT_ALPHA, a, 1.0 + 1.0j)
    assert cone_contains(K_ALPHA, a, 0.0)
    # the cone half-angle exceeds pi/2 once alpha > 1
    assert cone_contains(K_ALPHA, AlphaParam(1.5), -1.0 + 1.1j)


def test_cone_bound_dominates_samples():
    for al in (0.5, 1.2, 1.8):
        a = AlphaParam(al)
        bound = cone_bound(a, 2.0)
        for r in (0.1, 1.0, 5.0):
            for frac in (-0.95, 0.0, 0.95):
                y = r * cmath.exp(1j * frac * al * math.pi / 2.0)
                assert abs(h_alpha(a, y)) <= bound + 1e-9


def test_domain_rejection():
    a = AlphaParam(0.5)
    with pytest.raises(ValueError):
        g_alpha(a, -1.0 + 0.05j)    # far outside K_0.5


def test_unrepresentable_boundary_raises():
    # near the cone edge for alpha close to 2 the value itself is bounded
    # by cone_bound, but the cancellation mass of the clamped contour
    # (e^peak, peak > 600) exceeds double range, and no reference value
    # on another contour is verified there; this must be an explicit
    # error, not garbage
    a = AlphaParam(1.95)
    y = 60.0 * cmath.exp(1j * 0.999 * 1.95 * math.pi / 2.0)
    with pytest.raises((QuadratureError, ValueError)):
        g_alpha(a, y)


def test_explicit_rules_agree():
    a = AlphaParam(1.5)
    y = 0.4 + 0.3j
    ad = g_alpha(a, y, QuadratureRule(kind="adaptive-subdivision"))
    auto = g_alpha(a, y)
    assert abs(ad - auto) < 1e-10


def test_rule_validation():
    with pytest.raises(ValueError):
        QuadratureRule(kind="generalized-gauss-laguerre")
    with pytest.raises(ValueError):
        QuadratureRule(kind="monte-carlo")
    with pytest.raises(ValueError):
        QuadratureRule(abs_tol=0.0)


def _scratch_level_sum(alpha, beta, y, level):
    """Level-k tanh-sinh sum over the full grid t = -3.8 + i 2^-k, built
    from scratch with no reuse of coarser levels."""
    pref, tanpsi, y_eff, p, v_max = special._transformed_setup(alpha, beta, y)
    h = 0.5**level
    t = np.arange(-3.8 / h, 3.8 / h + 1) * h
    s = 0.5 * math.pi * np.sinh(t)
    x = 0.5 * (1.0 + np.tanh(s))
    w = h * 0.25 * math.pi * np.cosh(t) / np.cosh(s) ** 2
    keep = (w > 1e-20) & (x > 0.0)
    v = v_max * x[keep]
    u = v**p
    vals = v ** (p * beta / 2.0 - 1.0) * np.exp(
        -u - 1j * tanpsi * u - u ** (alpha / 2.0) * y_eff)
    return pref * p * v_max * np.dot(w[keep], vals)


@pytest.mark.parametrize("alpha,beta,y", [
    (0.5, 0.5, 0.3 + 0.2j),
    (1.0, 2.0, 5.0 - 4.0j),
    (1.5, 3.0, 0.05 + 0.01j),
    (1.5, 1.5, 2.0 * cmath.exp(0.95j * 1.5 * math.pi / 2.0)),
    (1.9, 2.0, 30.0 * cmath.exp(-0.6j * 1.9 * math.pi / 2.0)),
])
def test_nested_levels_match_scratch_sums(alpha, beta, y):
    nested = itertools.islice(special._nested_de_sums(alpha, beta, y), 4)
    for level, (value, _) in zip((3, 4, 5, 6), nested):
        ref = _scratch_level_sum(alpha, beta, y, level)
        assert abs(value - ref) <= 1e-14 * abs(ref)


def test_default_path_agrees_with_adaptive_rule():
    # At alpha=1.9, beta=2 alpha near the cone edge the adaptive rule cannot
    # certify its default 1e-12; 5e-12 keeps its own error within half the
    # bound asserted below.
    oracle = QuadratureRule(kind="adaptive-subdivision", abs_tol=5e-12,
                            rel_tol=5e-12)
    for al in (0.5, 1.0, 1.5, 1.9):
        a = AlphaParam(al)
        for beta in (al, 2.0, 2.0 * al):
            for r in (0.01, 0.5, 5.0, 30.0):
                for frac in (-0.95, -0.5, 0.0, 0.5, 0.95):
                    y = r * cmath.exp(1j * frac * al * math.pi / 2.0)
                    auto = g_alpha_beta(a, beta, y)
                    ref = g_alpha_beta(a, beta, y, oracle)
                    assert abs(auto - ref) <= 1e-11 * (1.0 + abs(ref)), (
                        al, beta, y)


def test_default_path_builds_no_laguerre_nodes():
    # the Gauss-Laguerre rule is gone: its kind is rejected, and no rule
    # builds Laguerre nodes
    with pytest.raises(ValueError):
        QuadratureRule(kind="generalized-gauss-laguerre")
    assert QuadratureRule().kind == "adaptive-subdivision"
    assert not hasattr(special, "_laguerre_nodes")


# ---------------------------------------------------------------------------
# alpha = 1 in closed form: g_1(y) = sqrt(pi) erfcx(y/2), independent of
# both the series and the quadrature


def test_alpha_one_closed_form():
    a = AlphaParam(1.0)
    for r in np.geomspace(0.01, 50.0, 12):
        for frac in (-0.98, -0.5, 0.0, 0.5, 0.98):
            y = r * cmath.exp(1j * frac * math.pi / 2.0)
            g = math.sqrt(math.pi) * erfcx(y / 2.0)
            h = 1.0 - 0.5 * math.sqrt(math.pi) * y * erfcx(y / 2.0)
            for got, want in ((g_alpha(a, y), g), (h_alpha(a, y), h),
                              (g_alpha_prime(a, y), -h)):
                assert abs(got - want) <= 1e-12 * abs(want), (y, got, want)


# ---------------------------------------------------------------------------
# the power series route of the default path


# (alpha, beta as a multiple of alpha or 2, |y|, arg y as a fraction of the
# cone edge, Re g, Im g) from 50-digit sums of the power series
SERIES_ORACLE = [
    (0.5, 'a', 0.1, 0.0, 3.4543286440586716, 0.0),
    (0.5, 'a', 0.6, -0.98, 2.888602482893601, 0.545619283570268),
    (0.5, 'a', 1.0, 0.98, 2.451882955359755, -0.7382927208585905),
    (0.5, '2', 0.1, 0.0, 0.9136417838985332, 0.0),
    (0.5, '2', 0.6, -0.98, 0.6318872727618975, 0.24275878140232027),
    (0.5, '2', 1.0, 0.98, 0.4313627546605956, -0.2940273265214362),
    (0.5, '2a', 0.1, 0.0, 1.6547647309698685, 0.0),
    (0.5, '2a', 0.6, -0.98, 1.267733300283664, 0.35526566415604655),
    (0.5, '2a', 1.0, 0.98, 0.9785539077079238, -0.45868473737018883),
    (0.5, '3a', 0.1, 0.0, 1.1298047580043744, 0.0),
    (0.5, '3a', 0.6, -0.98, 0.8166662651186118, 0.2774080296851484),
    (0.5, '3a', 1.0, 0.98, 0.5887730918020414, -0.34573390077836835),
    (1.0, 'a', 0.1, 0.0, 1.6767236956172682, 0.0),
    (1.0, 'a', 0.6, -0.98, 1.604508481294894, 0.5559559817915558),
    (1.0, 'a', 1.0, 0.98, 1.3628083656901318, -0.8272613898357883),
    (1.0, '2', 0.1, 0.0, 0.9161638152191366, 0.0),
    (1.0, '2', 0.6, -0.98, 0.8181758558740003, 0.47587612614438135),
    (1.0, '2', 1.0, 0.98, 0.565169984238753, -0.668075496908909),
    (1.0, '3a', 0.1, 0.0, 0.7925536570476773, 0.0),
    (1.0, '3a', 0.6, -0.98, 0.6518519902389053, 0.5188253424346448),
    (1.0, '3a', 1.0, 0.98, 0.338655052748484, -0.6855838691624062),
    (1.5, 'a', 0.1, 0.0, 1.142143198507325, 0.0),
    (1.5, 'a', 0.6, -0.98, 1.4805309471711599, 0.6262985779552291),
    (1.5, 'a', 1.0, 0.98, 1.3152701035818033, -1.2558145510597374),
    (1.5, '2', 0.1, 0.0, 0.9143392601119507, 0.0),
    (1.5, '2', 0.6, -0.98, 1.2399336779896428, 0.682449077593426),
    (1.5, '2', 1.0, 0.98, 0.9672653101490981, -1.363495180811775),
    (1.5, '2a', 0.1, 0.0, 0.7822351404401813, 0.0),
    (1.5, '2a', 0.6, -0.98, 1.1140936173570088, 0.9175747172809149),
    (1.5, '2a', 1.0, 0.98, 0.502567960675023, -1.7829400121169867),
    (1.5, '3a', 0.1, 0.0, 0.9533167260470047, 0.0),
    (1.5, '3a', 0.6, -0.98, 1.3243118978550101, 1.7995318655886934),
    (1.5, '3a', 1.0, 0.98, -0.5642373926212898, -3.1732718993992),
    (1.9, 'a', 0.1, 0.0, 0.94330482278915, 0.0),
    (1.9, 'a', 0.6, -0.98, 2.0977862912794643, 0.5164397378131136),
    (1.9, 'a', 1.0, 0.98, 3.0133164261893843, -3.9869965507544762),
    (1.9, '2', 0.1, 0.0, 0.9103860418350308, 0.0),
    (1.9, '2', 0.6, -0.98, 2.104442506812052, 0.5446564408713204),
    (1.9, '2', 1.0, 0.98, 2.9810239385914157, -4.3146935395508335),
    (1.9, '2a', 0.1, 0.0, 0.807807892273683, 0.0),
    (1.9, '2a', 0.6, -0.98, 3.5981250223151133, 1.7821723505817701),
    (1.9, '2a', 1.0, 0.98, -2.3307204783101807, -20.051505052700172),
    (1.9, '3a', 0.1, 0.0, 1.3522088318236376, 0.0),
    (1.9, '3a', 0.6, -0.98, 11.166099737092441, 8.815066187676445),
    (1.9, '3a', 1.0, 0.98, -109.40289813599776, -103.07312667910396),
]


def _beta(alpha, name):
    return {"a": alpha, "2": 2.0, "2a": 2.0 * alpha, "3a": 3.0 * alpha}[name]


def _certified(alpha, beta, y):
    series = special._series_eval(alpha, beta, y)
    rule = special._AUTO_ADAPTIVE
    return series is not None and (
        series[1] <= rule.abs_tol + rule.rel_tol * abs(series[0]))


def _quadrature(alpha, beta, y):
    value = special._de_eval(alpha, beta, y, special._AUTO_ADAPTIVE)
    if value is None:
        value = special._adaptive_eval(alpha, beta, y, special._AUTO_ADAPTIVE)
    return value


def test_series_matches_frozen_values():
    for alpha, name, r, frac, vr, vi in SERIES_ORACLE:
        beta = _beta(alpha, name)
        y = r * cmath.exp(1j * frac * alpha * math.pi / 2.0)
        assert _certified(alpha, beta, y), (alpha, beta, y)
        want = complex(vr, vi)
        got = g_alpha_beta(AlphaParam(alpha), beta, y)
        assert abs(got - want) <= 1e-14 * abs(want), (alpha, beta, y)


def test_series_declines_under_cancellation():
    # at alpha=1.5, |y|=4 the terms peak near k=100 and cancel to an
    # order-one value; the default path must return the quadrature value
    a = AlphaParam(1.5)
    for beta in (1.5, 2.0, 3.0):
        for frac in (-0.98, 0.0, 0.5, 0.98):
            y = 4.0 * cmath.exp(1j * frac * 1.5 * math.pi / 2.0)
            assert not _certified(1.5, beta, y)
            assert g_alpha_beta(a, beta, y) == _quadrature(1.5, beta, y)


def test_series_raises_no_warnings_on_cone_edge():
    # declined calls return before summing any term; the quadrature that
    # takes over raises no warning either
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha in (0.5, 1.0, 1.5, 1.9, 1.95):
            for name in ("a", "2", "2a", "3a"):
                beta = _beta(alpha, name)
                for r in (1.0, 4.0, 10.0, 30.0, 60.0):
                    for sign in (-1.0, 1.0):
                        y = r * cmath.exp(1j * sign * alpha * math.pi / 2.0)
                        series = special._series_eval(alpha, beta, y)
                        if r >= 10.0 and alpha >= 1.0:
                            assert series is None, (alpha, beta, y)
                        try:
                            g_alpha_beta(AlphaParam(alpha), beta, y)
                        except QuadratureError:
                            pass


def test_explicit_rule_never_takes_the_series(monkeypatch):
    def fail(*args):
        raise AssertionError("explicit rule took the series")

    a = AlphaParam(1.3)
    y = 0.3 + 0.2j
    assert _certified(1.3, 1.3, y)
    monkeypatch.setattr(special, "_series_eval", fail)
    rule = QuadratureRule()
    for got in (g_alpha(a, y, rule), h_alpha(a, y, rule),
                g_alpha_prime(a, y, rule), g_alpha_second(a, y, rule)):
        assert np.isfinite(got)
    with pytest.raises(AssertionError):
        g_alpha(a, y)


# (alpha, |y|, Re g, Im g) at beta = 3 alpha, y = |y| e^{0.98 i alpha pi/2},
# from 40-digit quadrature on the decaying ray, confirmed on a second ray
MIDDLE_RAY_ORACLE = [
    (1.7, 10.0, 6.430718796254198e-05, -0.00306851575039051),
    (1.8, 3.0, -0.10502389128770605, -0.291450877667644),
]


@pytest.mark.parametrize("alpha,r,vr,vi", MIDDLE_RAY_ORACLE)
def test_steep_middle_ray_matches_frozen_values(alpha, r, vr, vi):
    # the middle ray here lies between pi/2 - 0.2 and pi/2 - 0.1; the
    # clamped contour returned these values with relative errors 1.4e-6
    # and 6.0e-8 and raised nothing
    y = r * cmath.exp(1j * 0.98 * alpha * math.pi / 2.0)
    want = complex(vr, vi)
    got = g_alpha_beta(AlphaParam(alpha), 3.0 * alpha, y)
    assert abs(got - want) <= 1e-12 * abs(want)

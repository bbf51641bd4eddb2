"""Tests of the entire functions g/h, their constants and cones.

Reference values were computed independently with 40-digit mpmath
quadrature on the defining integral, or with 50-digit sums of the power
series, and frozen here.
"""

import cmath
import itertools
import math
import re
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
    g_alpha_pair,
    g_alpha_prime,
    h_alpha,
    principal_power,
)

# (alpha, beta, Re y, Im y, Re g, Im g) from 40-digit quadrature; the first
# row from a 50-digit sum of the power series, which a substituted 50-digit
# quadrature confirms
ORACLE = [
    (0.5, 0.5, 0.3, 0.2, 3.1256013261262945, -0.28818917803367494),
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
    assert abs(got - expected) <= 1e-12 * abs(expected)


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
    assert abs(g_alpha_beta(a, 3.0 * a.alpha, y) - fd2) < 1e-5


def test_alpha_two_mode_closed_form():
    a = AlphaParam(2.0)
    for y in (0.0, 0.5, 1.0 + 2.0j, -0.3 + 0.1j):
        assert abs(g_alpha(a, y) - 1.0 / (1.0 + y)) < 1e-15
        assert abs(h_alpha(a, y) - 1.0 / (1.0 + y)) < 1e-15
    assert c_alpha(a) == -1.0
    # g_{2,b}(y) = int t^(b/2-1) e^{-t(1+y)} dt = Gamma(b/2) (1+y)^(-b/2)
    for beta, y in itertools.product((1.0, 3.0, 5.0),
                                     (0.0, 0.5, 1.0 + 2.0j, -0.3 + 0.1j)):
        want = math.gamma(beta / 2.0) * cmath.exp(
            -beta / 2.0 * cmath.log(1.0 + y))
        assert abs(g_alpha_beta(a, beta, y) - want) <= 1e-15 * abs(want)


def test_alpha_two_mode_is_alpha_two():
    assert AlphaParam(2.0).alpha_two_mode
    assert not AlphaParam(1.99).alpha_two_mode
    with pytest.raises(ValueError):
        AlphaParam(2.5)
    with pytest.raises(ValueError):
        AlphaParam(math.nan)


def test_alpha_param_validation():
    with pytest.raises(ValueError):
        AlphaParam(0.0)


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


@pytest.mark.parametrize("alpha, r", [(1.99, 40.0), (1.995, 7.0)])
def test_unsettled_edge_value_raises_quadrature_error(alpha, r):
    # at 0.999 of the cone edge the tanh-sinh levels on the middle ray do
    # not settle: g and the pair raise QuadratureError naming y
    a = AlphaParam(alpha)
    y = r * cmath.exp(1j * 0.999 * alpha * math.pi / 2.0)
    for value in (lambda: g_alpha(a, y), lambda: g_alpha_pair(a, y)):
        with pytest.raises(QuadratureError, match=re.escape(f"y={y}")):
            value()


@pytest.mark.parametrize("alpha", [0.5, 0.7, 1.0, 1.2, 1.5, 1.7, 1.745,
                                   1.8, 1.9, 1.95, 1.99, 1.995, 1.999])
def test_every_default_ray_decays(alpha):
    # on all of K_alpha, up to and on its edge, the default path's ray
    # keeps exp(-t) decaying (|psi| < pi/2) and exp(-t^(a/2) y) decaying
    # (Re y_eff > 0)
    for theta in (np.linspace(0.0, 1.0, 41) * alpha * math.pi / 2.0).tolist():
        for sign in (1, -1):
            y = cmath.exp(1j * sign * theta)
            psi = special._rotation_angle(alpha, y)
            _, _, y_eff = special._rotated_form(alpha, alpha, y, psi)
            assert abs(psi) < math.pi / 2.0 and y_eff.real > 0.0, (
                alpha, theta, psi)


@pytest.mark.parametrize("alpha", [1.8, 1.9, 1.99, 1.999])
def test_no_decaying_ray_raises_quadrature_error(alpha):
    # beyond arg y = pi/2 + alpha pi/4, in the slack that g accepts beyond
    # the cone edge, no ray decays: g raises QuadratureError naming y
    a = AlphaParam(alpha)
    start = math.pi / 2.0 + alpha * math.pi / 4.0
    stop = min(math.pi, alpha * math.pi / 2.0 + 0.2)
    for theta in np.linspace(start, stop, 5)[1:].tolist():
        for y in (3.0 * cmath.exp(1j * theta), 3.0 * cmath.exp(-1j * theta)):
            with pytest.raises(QuadratureError,
                               match="no ray on which g's integrand decays "
                               + re.escape(f"at y={y}")):
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


def _scratch_level_sum(alpha, beta, y, level):
    """Level-k tanh-sinh sum over the full grid t = -3.8 + i 2^-k, built
    from scratch with no reuse of coarser levels."""
    pref, tanpsi, y_eff, p, v_max = special._transformed_setup(
        alpha, beta, y, special._rotation_angle(alpha, y))
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
    for level, [(value, _)] in zip((3, 4, 5, 6), nested):
        ref = _scratch_level_sum(alpha, beta, y, level)
        assert abs(value - ref) <= 1e-14 * abs(ref)


def test_default_path_agrees_with_adaptive_rule():
    oracle = QuadratureRule()
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
    return series is not None and (
        series[1] <= special._ABS_TOL + special._REL_TOL * abs(series[0]))


def _quadrature(alpha, beta, y):
    value, = special._de_eval(alpha, beta, y)
    if value is None:
        value = special._adaptive_eval(alpha, beta, y)
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
    for got in (g_alpha(a, y, rule), h_alpha(a, y, rule)):
        assert np.isfinite(got)
    with pytest.raises(AssertionError):
        g_alpha(a, y)


def reference_series_table(alpha, beta):
    """(terms, bound, slope bound) of every rung of the power series of
    g_{alpha,beta}, all at once: the eager 2-D form of the certificate that
    ``special._certify_rung`` makes one rung at a time, its masses summed
    in term order as the certificate's one pass sums them."""
    rungs = special._RUNG_MAX - special._RUNG_MIN + 1
    k = np.arange(special._SERIES_MAX_TERMS, dtype=float)
    x = beta / 2.0 + k * alpha / 2.0
    k, x = k[x < 171.0], x[x < 171.0]
    if not len(k):
        return [0] * rungs, [math.inf] * rungs, [math.inf] * rungs
    from scipy.special import digamma

    # Gamma from math.gamma, the library's source; psi from scipy, an
    # independent one, within 4.5e-16 relative of the library's weight
    coef = np.array([math.gamma(v) for v in x.tolist()]) \
        / np.array([float(math.factorial(int(i))) for i in k])
    ratio = x ** (alpha / 2.0) / (k + 1.0)
    k_mono = (alpha**2 / 4.0 - beta / 2.0) / (alpha / 2.0 * (1.0 - alpha / 2.0))
    weight = 34.0 + 4.0 * x * np.abs(digamma(x)) + 4.0 * k
    log_r = np.arange(special._RUNG_MIN, special._RUNG_MAX + 1)[:, None] * (
        math.log(2.0) / special._RUNGS_PER_OCTAVE)
    r = np.exp(log_r[:, 0])
    size = np.exp(np.minimum(np.log(coef) + k * log_r, 600.0))
    rho = ratio * np.exp(log_r)
    ok = (rho < 1.0) & (k >= k_mono)
    rho = np.where(ok, rho, 0.0)
    tail = np.where(ok, size * rho / (1.0 - rho), np.inf)
    reached = tail <= special._UNIT_ROUNDOFF * np.cumsum(size, axis=1)
    n = np.where(reached.any(axis=1), reached.argmax(axis=1) + 1, 0)
    rows = np.arange(len(n))
    last_summed = np.maximum(n - 1, 0)
    mass = np.where(n > 0, np.cumsum(size * weight, axis=1)[
        rows, last_summed], 0.0)
    bound = special._UNIT_ROUNDOFF * mass + tail[rows, last_summed]
    a = AlphaParam(alpha)
    abs_tol, rel_tol = special._ABS_TOL, special._REL_TOL
    tol = abs_tol + rel_tol * cone_bound(a, beta)
    slope_tol = abs_tol + rel_tol * cone_bound(a, beta + alpha)
    # the derivative's tail after term n, where the value stops short of
    # the last term and the ratio bound of term n, times (n+1)/n, is below 1
    nxt = np.minimum(n, len(k) - 1)
    rho_n = rho[rows, nxt]
    has_tail = (n > 0) & (n < len(k)) & ok[rows, nxt] \
        & (rho_n * (n + 1) < n) & (bound <= tol)
    last = np.where(has_tail, rho_n * (n + 1) / np.maximum(n, 1), 0.0)
    slope_mass = np.cumsum(k * size * weight, axis=1)[rows, nxt]
    slope = (special._UNIT_ROUNDOFF * slope_mass
             + n * size[rows, nxt] * last / (1.0 - last)) / r
    slope = np.where(has_tail & (slope <= slope_tol), slope, np.inf)
    n = np.where(bound <= tol, n, 0)
    return n.tolist(), bound.tolist(), slope.tolist()


def _lazy_rungs(alpha, beta):
    """Every rung of the lazy table, each certified by a call that lands on
    it, in rung order."""
    for rung in range(special._RUNG_MIN, special._RUNG_MAX + 1):
        special._series_eval(alpha, beta, 2.0 ** ((rung - 0.5) / 8.0))
    rungs = special._series_table(alpha, beta).rungs
    assert sorted(rungs) == list(range(special._RUNG_MIN,
                                       special._RUNG_MAX + 1))
    return [rungs[j] for j in sorted(rungs)]


@pytest.mark.parametrize("alpha", [0.05, 0.3, 0.7, 1.0, 1.3, 1.5, 1.7, 1.9,
                                   1.99])
def test_lazy_rungs_match_eager_reference(alpha):
    # the reference takes its exponentials from numpy and the certificate
    # from math, which differ in the last bit; so on a certified rung the
    # bounds agree to roundoff, slope bounds included, and the term counts
    # and every infinite bound exactly.  A declined rung has 0 terms on
    # both sides; the certificate stops where it declines, so its bounds
    # are inf and the reference's tail bound is not compared.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name in ("a", "2", "2a", "3a"):
            beta = _beta(alpha, name)
            want = reference_series_table(alpha, beta)
            for j, got in enumerate(_lazy_rungs(alpha, beta)):
                n, b, s = got
                assert n == want[0][j], (alpha, beta, j)
                if n == 0:
                    assert got == (0, math.inf, math.inf), (alpha, beta, j)
                    continue
                for value, ref in ((b, want[1][j]), (s, want[2][j])):
                    assert value == ref or math.isfinite(ref) and abs(
                        value - ref) <= 1e-15 * ref, \
                        (alpha, beta, j, got, [w[j] for w in want])


def test_overflowing_gamma_declines_every_rung():
    # Gamma(beta/2) overflows at beta = 400: no coefficient is finite, so
    # every rung declines, and quadrature decides
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _lazy_rungs(1.5, 400.0) == [(0, math.inf, math.inf)] * len(
            reference_series_table(1.5, 400.0)[0])


def _table_grid():
    """(alpha, beta, x_k, k) of the series tables on the roundoff weight's
    grid: alpha in [0.05, 1.99], beta in {a, 2, 2a, 3a}."""
    for alpha in np.linspace(0.05, 1.99, 40).tolist():
        for name in ("a", "2", "2a", "3a"):
            beta = _beta(alpha, name)
            k = np.arange(special._SERIES_MAX_TERMS, dtype=float)
            x = beta / 2.0 + k * alpha / 2.0
            yield alpha, beta, x[x < 171.0], k[x < 171.0]


def test_series_coefficients_are_within_16_ulps_of_scipy_gamma():
    # the coefficients take Gamma from math.gamma, which differs from
    # scipy's Gamma by up to 10 ulps here
    from scipy.special import gamma

    for alpha, beta, x, k in _table_grid():
        table = special._series_table(alpha, beta)
        got = np.array(table.reversed_coef[::-1])
        want = gamma(x) / special._FACTORIALS[:len(k)]
        assert np.all(np.abs(got - want) <= 16 * np.spacing(want)), \
            (alpha, beta)


def test_series_weights_match_scipy_digamma():
    # the roundoff weight takes psi from the library's own series; scipy's
    # psi gives the same weight to 1e-15 relative
    from scipy.special import digamma

    for alpha, beta, x, k in _table_grid():
        got = np.array(special._series_table(alpha, beta).weight)
        want = 34.0 + 4.0 * x * np.abs(digamma(x)) + 4.0 * k
        assert np.all(np.abs(got - want) <= 1e-15 * want), (alpha, beta)


def test_one_g_call_certifies_one_rung():
    alpha = 1.2345   # no other test builds this table
    a = AlphaParam(alpha)
    g_alpha(a, 0.3 + 0.1j)
    rungs = special._series_table(alpha, alpha).rungs
    assert len(rungs) == 1
    g_alpha(a, 0.3 - 0.1j)   # the same rung
    assert len(rungs) == 1
    g_alpha(a, 100.0)        # beyond 2^6 the series is never tried
    assert len(rungs) == 1


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


# (alpha, beta, |y|, Re g, Im g) at y = |y| e^{0.9 i pi}, on the edge of
# K_1.8, from 45-digit quadrature on the decaying rays psi = -0.46 pi and
# -0.48 pi, which agree to 1e-30 or better
CONE_EDGE_ORACLE = [
    (1.8, 5.4, 3.0, -0.1832618775575014, -0.252238334981747),
    (1.8, 3.6, 3.0, 0.23272072400088695, 0.16908150313484244),
    (1.8, 3.6, 4.76, 0.06223113561818742, 0.04521356659268237),
]


@pytest.mark.parametrize("sign", [1, -1], ids=["upper", "lower"])
@pytest.mark.parametrize("alpha,beta,r,vr,vi", CONE_EDGE_ORACLE)
def test_cone_edge_matches_frozen_values(alpha, beta, r, vr, vi, sign):
    # g(conj y) = conj g(y); a clamped contour that kept a growth peak
    # returned 4.1e-8, 5.9e-10 and 4.9e-8 relative away from these values,
    # and raised nothing
    y = r * cmath.exp(0.9j * math.pi)
    want = complex(vr, vi)
    if sign < 0:
        y, want = y.conjugate(), want.conjugate()
    got = g_alpha_beta(AlphaParam(alpha), beta, y)
    assert abs(got - want) <= 1e-12 * abs(want)


# (alpha, beta, y, Re g, Im g) near the cone edge for alpha close to 2,
# from 40-digit quadrature on two decaying rays that agree to 1e-49 or
# better (5e-22 at the last).  A clamped contour that kept a growth peak
# was off by 4.3e-9, 3.2e-10 and 2.6e-10 relative at the first three and
# raised at the other four: at the fourth and the last its peak, of order
# exp(5e5) and exp(6e57), exceeded the double range, and at the fifth and
# sixth its tanh-sinh levels did not settle.
NEAR_ALPHA_TWO_ORACLE = [
    (1.9, 3.8, 2.0 * cmath.exp(1j * 1.9 * math.pi / 2.0),
     1.1223950597138785, 0.3646882618555484),
    (1.95, 3.9, 1.4 * cmath.exp(1j * 1.95 * math.pi / 2.0),
     8.444620755227046, 1.3374965320696037),
    (1.9, 3.8, 4.76 * cmath.exp(1j * 0.98 * 1.9 * math.pi / 2.0),
     0.06570094991757855, 0.03308783700352542),
    (1.9, 1.9, 16.0 * cmath.exp(1j * 1.9 * math.pi / 2.0),
     -0.06879414791388914, -0.010895922614944707),
    (1.95, 3.9, 32.0 * cmath.exp(1j * 0.98 * 1.95 * math.pi / 2.0),
     0.0010204625573562735, 0.00029719369398276244),
    (1.8, 3.6, -14.488131010388765 + 4.743930421628935j,
     0.004308335921022461, 0.0031621581274289498),
    (1.95, 1.95, 60.0 * cmath.exp(1j * 0.999 * 1.95 * math.pi / 2.0),
     -0.01729964719921689, -0.0014156863186821672),
]


@pytest.mark.parametrize("alpha,beta,y,vr,vi", NEAR_ALPHA_TWO_ORACLE)
def test_near_alpha_two_matches_frozen_values(alpha, beta, y, vr, vi):
    want = complex(vr, vi)
    got = g_alpha_beta(AlphaParam(alpha), beta, y)
    assert abs(got - want) <= 1e-12 * abs(want)


def _edge_values():
    """(alpha, beta, y, g) of every frozen value above: the steep middle
    ray, the edge of K_1.8 with its conjugate points, and near alpha = 2."""
    for alpha, r, vr, vi in MIDDLE_RAY_ORACLE:
        y = r * cmath.exp(1j * 0.98 * alpha * math.pi / 2.0)
        yield alpha, 3.0 * alpha, y, complex(vr, vi)
    for alpha, beta, r, vr, vi in CONE_EDGE_ORACLE:
        y = r * cmath.exp(0.9j * math.pi)
        yield alpha, beta, y, complex(vr, vi)
        yield alpha, beta, y.conjugate(), complex(vr, -vi)
    for alpha, beta, y, vr, vi in NEAR_ALPHA_TWO_ORACLE:
        yield alpha, beta, y, complex(vr, vi)


@pytest.mark.parametrize("alpha,beta,y,want", list(_edge_values()))
def test_reference_rule_matches_edge_values(alpha, beta, y, want):
    # the reference rule integrates on the default path's ray; a clamped
    # contour that kept a growth peak raised at each of these values
    got = g_alpha_beta(AlphaParam(alpha), beta, y, QuadratureRule())
    assert abs(got - want) <= 1e-12 * abs(want)


# ---------------------------------------------------------------------------
# g and g' from one evaluation


def _cone_grid():
    """(a, y) of ``test_default_path_agrees_with_adaptive_rule``: radii
    0.01 to 30 at angles up to 0.95 of the cone edge."""
    for al in (0.5, 1.0, 1.5, 1.9):
        for r in (0.01, 0.5, 5.0, 30.0):
            for frac in (-0.95, -0.5, 0.0, 0.5, 0.95):
                yield AlphaParam(al), r * cmath.exp(1j * frac * al * math.pi
                                                    / 2.0)


def test_pair_g_is_g_alpha_bit_for_bit():
    for a, y in _cone_grid():
        g, _ = g_alpha_pair(a, y)
        assert g == g_alpha(a, y), (a.alpha, y)


def test_pair_derivative_matches_g_alpha_two_alpha():
    # within the two certified bounds where the series of g_{a,2a}
    # certifies, as the pair sums g' by Horner's rule with derivative on
    # g's series; elsewhere the pair integrates g' on g's substitution, so
    # it agrees with the adaptive rule as the default path of g_{a,2a} does
    oracle = QuadratureRule()
    series = quadrature = 0
    for a, y in _cone_grid():
        _, gp = g_alpha_pair(a, y)
        assert gp == g_alpha_prime(a, y)
        if _certified(a.alpha, 2.0 * a.alpha, y):
            series += 1
            assert abs(gp + g_alpha_beta(a, 2.0 * a.alpha, y)) <= (
                special._series_eval(a.alpha, a.alpha, y)[3]
                + special._series_eval(a.alpha, 2.0 * a.alpha, y)[1]), (
                    a.alpha, y)
        else:
            quadrature += 1
            ref = -g_alpha_beta(a, 2.0 * a.alpha, y, oracle)
            assert abs(gp - ref) <= 1e-11 * (1.0 + abs(ref)), (a.alpha, y)
    assert series and quadrature


# (alpha, |y|, arg y as a fraction of the cone edge, Re, Im of g_{a,2a})
# from 80- and 120-digit sums of the power series that agree to 45 digits:
# four points per alpha, the first on the largest rung where the pair's
# series certifies g', the last at |y| = 1e-4
PAIR_SERIES_ORACLE = [
    (0.3, 4.756828460010884, 0.95, 0.20422651346528093, -0.20565250982664164),
    (0.3, 2.1810154653305154, -0.6, 0.81902620379830326, 0.26755394991991529),
    (0.3, 0.05, 0.3, 2.8959084505377323, -0.013356661211464975),
    (0.3, 0.0001, -0.95, 2.9913915736801274, 8.5189417595695195e-5),
    (0.5, 4.756828460010884, 0.95, 0.047040111687528299, -0.18253506564877578),
    (0.5, 2.0, -0.6, 0.50402911270241658, 0.27111044350982461),
    (0.5, 0.05, 0.3, 1.7139754676921245, -0.013747983530243813),
    (0.5, 0.0001, -0.95, 1.7723638661910992, 8.3176392654154449e-5),
    (0.8, 4.0, 0.95, -0.088169620048236225, -0.18356429385858355),
    (0.8, 1.5422108254079407, -0.6, 0.38339018362739784, 0.30469647154842762),
    (0.8, 0.05, 0.3, 1.1223504604352109, -0.016153988028412187),
    (0.8, 0.0001, -0.95, 1.1641959104229723, 8.536611233839812e-5),
    (1.0, 3.363585661014858, 0.95, -0.21040790076299177, -0.19121365559669),
    (1.0, 1.189207115002721, -0.6, 0.39422808750163879, 0.34188383273980403),
    (1.0, 0.05, 0.3, 0.96124854560355531, -0.019132523357778914),
    (1.0, 0.0001, -0.95, 0.99999304180529196, 8.834871597272939e-5),
    (1.2, 2.5936791093020193, 0.95, -0.44603724740615647, -0.27313608089649821),
    (1.2, 1.0, -0.6, 0.38746808173250908, 0.39082966181460365),
    (1.2, 0.05, 0.3, 0.87951481256768105, -0.023588682120100271),
    (1.2, 0.0001, -0.95, 0.91818905428729277, 9.0897947576254435e-5),
    (1.5, 1.8340080864093424, 0.95, -1.4133525035894758, -0.49309508439095609),
    (1.5, 0.7071067811865476, -0.6, 0.45985372234101835, 0.49461431410300021),
    (1.5, 0.05, 0.3, 0.84358624455886459, -0.034399709784062113),
    (1.5, 0.0001, -0.95, 0.88629706665378294, 8.8986375435792206e-5),
    (1.7, 1.2968395546510096, 0.95, -2.7961818980107918, -2.672798629995065),
    (1.7, 0.5452538663326288, -0.6, 0.56107377345618451, 0.5833676756276458),
    (1.7, 0.05, 0.3, 0.86070272123720399, -0.045861525226279996),
    (1.7, 0.0001, -0.95, 0.9087520770851687, 7.8347323196349778e-5),
    (1.9, 1.0, 0.95, -4.8826988998776959, -10.975861067045086),
    (1.9, 0.3535533905932738, -0.6, 0.79836604385960488, 0.60867696618020376),
    (1.9, 0.05, 0.3, 0.90608993522432186, -0.062696233836635224),
    (1.9, 0.0001, -0.95, 0.96193264654223524, 5.2763966103248639e-5),
    (1.95, 0.9170040432046712, 0.95, -1.9634197326361975, -16.02324111080656),
    (1.95, 0.3242098886627524, -0.6, 0.85273976527699096, 0.6187517343482289),
    (1.95, 0.05, 0.3, 0.92182162752971176, -0.0680394727342273),
    (1.95, 0.0001, -0.95, 0.98006251839189093, 4.2914037890269161e-5),
]


def test_pair_derivative_within_its_certified_bound():
    for alpha, r, frac, vr, vi in PAIR_SERIES_ORACLE:
        y = r * cmath.exp(1j * frac * alpha * math.pi / 2)
        _, _, value, bound = special._series_eval(alpha, alpha, y)
        assert bound <= special._ABS_TOL + special._REL_TOL * abs(value), (
            alpha, y)
        _, gp = g_alpha_pair(AlphaParam(alpha), y)
        assert gp == -value
        assert abs(gp + complex(vr, vi)) <= bound, (alpha, y)


def test_pair_at_zero_and_in_alpha_two_mode():
    for alpha in (0.5, 1.2, 1.9):
        a = AlphaParam(alpha)
        assert g_alpha_pair(a, 0.0) == (g_alpha(a, 0.0),
                                        -g_alpha_beta(a, 2.0 * alpha, 0.0))
        assert g_alpha_pair(a, 0.0)[1] == -math.gamma(alpha)
    a = AlphaParam(2.0)
    for y in (0.0, 0.5, 1.0 + 2.0j, -0.3 + 0.1j):
        g, gp = g_alpha_pair(a, y)
        assert g == g_alpha(a, y) == 1.0 / (1.0 + y)
        assert gp == g_alpha_prime(a, y) == -1.0 / (1.0 + y) ** 2


def test_pair_raises_when_a_value_does_not_settle(monkeypatch):
    # off the series both values share one tanh-sinh run; a value whose
    # levels do not settle, here g' alone, raises QuadratureError naming
    # g_{alpha, 2 alpha} and y, and no adaptive subdivision runs
    alpha = 1.5
    a = AlphaParam(alpha)
    y = 4.0 * cmath.exp(0.5j * alpha * math.pi / 2.0)
    assert not _certified(alpha, alpha, y)
    assert not _certified(alpha, 2.0 * alpha, y)
    de_eval = special._de_eval
    runs = []

    def unsettled_derivative(alpha, beta, y, moments=(0,)):
        runs.append(tuple(moments))
        return [None if j else v
                for j, v in zip(moments, de_eval(alpha, beta, y, moments))]

    def never(*args):
        raise AssertionError("adaptive subdivision on the default path")

    monkeypatch.setattr(special, "_de_eval", unsettled_derivative)
    monkeypatch.setattr(special, "_adaptive_eval", never)
    with pytest.raises(QuadratureError) as err:
        g_alpha_pair(a, y)
    assert runs == [(0, 1)]
    assert f"g_{{{alpha}, {2.0 * alpha}}}" in str(err.value)
    assert str(y) in str(err.value)


def test_derivative_alone_evaluates_no_g(monkeypatch):
    # g_alpha_prime takes the pair's path for g' only: off the series one
    # tanh-sinh run of moment 1
    alpha = 1.5
    a = AlphaParam(alpha)
    y = 4.0 * cmath.exp(0.5j * alpha * math.pi / 2.0)
    assert not _certified(alpha, 2.0 * alpha, y)
    de_eval = special._de_eval
    runs = []

    def counted_de(alpha, beta, y, moments=(0,)):
        runs.append(tuple(moments))
        return de_eval(alpha, beta, y, moments)

    monkeypatch.setattr(special, "_de_eval", counted_de)
    assert g_alpha_prime(a, y) == g_alpha_pair(a, y)[1]
    assert runs == [(1,), (0, 1)]

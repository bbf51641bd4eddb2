"""Tests of the entire functions g/h, their constants and cones.

Reference values were computed independently with 40-digit mpmath
quadrature on the defining integral and frozen here.
"""

import cmath
import itertools
import math

import numpy as np
import pytest

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
    # near the cone edge for alpha close to 2 the integral genuinely
    # exceeds double range; this must be an explicit error, not garbage
    a = AlphaParam(1.95)
    y = 60.0 * cmath.exp(1j * 0.999 * 1.95 * math.pi / 2.0)
    with pytest.raises((QuadratureError, ValueError)):
        g_alpha(a, y)


def test_explicit_rules_agree():
    a = AlphaParam(1.5)
    y = 0.4 + 0.3j
    gl = g_alpha(a, y, QuadratureRule(kind="generalized-gauss-laguerre"))
    ad = g_alpha(a, y, QuadratureRule(kind="adaptive-subdivision"))
    auto = g_alpha(a, y)
    # the fixed Gauss rule converges only algebraically through the u^(a/2)
    # branch point, so it is held to a looser bar than the adaptive route
    assert abs(gl - auto) < 1e-3
    assert abs(ad - auto) < 1e-10


def test_rule_validation():
    with pytest.raises(ValueError):
        QuadratureRule(node_count=4)
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
    special._laguerre_nodes.cache_clear()
    for al in (0.7, 1.6):
        a = AlphaParam(al)
        for y in (0.02 + 0.01j, 0.8 - 0.3j, 4.0 + 2.0j):
            g_alpha(a, y)
            h_alpha(a, y)
            g_alpha_prime(a, y)
    assert special._laguerre_nodes.cache_info().currsize == 0

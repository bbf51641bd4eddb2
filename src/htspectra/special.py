"""Entire functions underlying the heavy-tailed spectral fixed points.

The two workhorses are

    g_{a,b}(y) = int_0^inf t^(b/2-1) exp(-t) exp(-t^(a/2) y) dt
    g_a = g_{a,a},   h_a = g_{a,2} = 1 - (a/2) y g_a(y)

evaluated on the cone K_a = {r e^{i th} : |th| <= a pi/2}.  Direct
quadrature is catastrophically ill-conditioned near the cone boundary
(the integrand peaks exponentially before cancelling), so for arguments
with negative real part the contour is rotated onto a ray where every
factor decays; see ``_rotation_angle``.

With no explicit rule, g is evaluated by one path: nested tanh-sinh
quadrature on the rotated, power-substituted integral, refined level by
level until two successive levels agree, with adaptive subdivision as the
fallback when the level cap is reached.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq
from scipy.special import roots_genlaguerre

__all__ = [
    "AlphaParam",
    "QuadratureRule",
    "ConePoint",
    "QuadratureError",
    "principal_power",
    "g_alpha_beta",
    "g_alpha",
    "g_alpha_prime",
    "g_alpha_second",
    "h_alpha",
    "c_alpha",
    "c_alpha_bar",
    "cone_contains",
    "cone_bound",
]

K_ALPHA = "K_alpha"
K_HAT_ALPHA = "K_hat_alpha"


class QuadratureError(ArithmeticError):
    """Adaptive quadrature failed to meet the requested tolerance."""


@dataclass(frozen=True)
class AlphaParam:
    """Tail index, with an explicit flag for the closed-form limit branch.

    For ``alpha_two_mode`` the Gamma-ratio constant is singular and the
    functions collapse to g(y) = h(y) = 1/(1+y); that branch is kept
    separate instead of being approached as a limit.
    """

    alpha: float
    alpha_two_mode: bool = False

    def __post_init__(self):
        if self.alpha_two_mode:
            if self.alpha != 2.0:
                raise ValueError("alpha_two_mode requires alpha == 2")
        elif not 0.0 < self.alpha < 2.0:
            raise ValueError(f"alpha must lie in (0, 2), got {self.alpha}")


@dataclass(frozen=True)
class QuadratureRule:
    node_count: int = 96
    kind: str = "generalized-gauss-laguerre"
    abs_tol: float = 1e-12
    rel_tol: float = 1e-12

    def __post_init__(self):
        if self.node_count < 8:
            raise ValueError("node_count must be >= 8")
        if self.kind not in ("generalized-gauss-laguerre", "adaptive-subdivision"):
            raise ValueError(f"unknown quadrature kind {self.kind!r}")
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True)
class ConePoint:
    value: complex
    cone: str = K_ALPHA

    def contained(self, a: AlphaParam, slack: float = 1e-9) -> bool:
        return cone_contains(self.cone, a, self.value, slack)


def principal_power(x: complex, p: float) -> complex:
    """x^p on the principal branch, cut along the closed negative reals.

    Normalized so that (i)^p = exp(i pi p / 2).
    """
    x = complex(x)
    if x == 0:
        raise ValueError("principal_power undefined at 0")
    if x.imag == 0 and x.real < 0:
        raise ValueError("principal_power undefined on the negative real axis")
    r, theta = cmath.polar(x)
    return cmath.rect(r**p, p * theta)


def cone_contains(cone: str, a: AlphaParam, y: complex, slack: float = 0.0) -> bool:
    """Membership in K_a (|arg| <= a pi/2) or K^_a (-a pi/2 <= arg <= 0)."""
    if slack < 0:
        raise ValueError("slack must be >= 0")
    y = complex(y)
    if y == 0:
        return True
    theta = cmath.phase(y)
    half = a.alpha * math.pi / 2.0
    if cone == K_ALPHA:
        return abs(theta) <= half + slack
    if cone == K_HAT_ALPHA:
        return -half - slack <= theta <= slack
    raise ValueError(f"unknown cone {cone!r}")


# ---------------------------------------------------------------------------
# quadrature


@lru_cache(maxsize=64)
def _laguerre_nodes(n: int, a: float):
    t, w = roots_genlaguerre(n, a)
    return t, w


def _rotation_angle(alpha: float, y: complex) -> float:
    """Ray angle psi for the rotated contour t = s e^{i psi}.

    The smallest rotation that pulls the effective argument of y inside
    +-(pi/2 - margin), so exp(-t^(a/2) y) decays instead of blowing up
    before exp(-t) wins.  Rotating further than necessary is harmful: it
    trades cancellation for fast oscillation exp(-i u tan psi).
    """
    theta = cmath.phase(y)
    target = math.pi / 2.0 - 0.3
    if abs(theta) <= target:
        return 0.0
    psi = (math.copysign(target, theta) - theta) * 2.0 / alpha
    if abs(psi) <= target:
        return psi
    # The full rotation is too steep (arg y near the cone edge, which for
    # alpha > 1 exceeds pi/2 by a lot).  Prefer the mildest clamp whose
    # leftover growth term exp(c u^(a/2)) peaks harmlessly: oscillation
    # from tan psi is far more damaging to quadrature than a modest peak.
    for margin in (0.8, 0.6, 0.45, 0.3, 0.2, 0.1):
        cap = math.pi / 2.0 - margin
        if abs(psi) <= cap:
            return psi
        clamped = math.copysign(cap, psi)
        cpsi = math.cos(clamped)
        y_eff = complex(y) * cmath.exp(1j * clamped * alpha / 2.0) \
            / cpsi ** (alpha / 2.0)
        c = -y_eff.real
        if c <= 0.0:
            return clamped
        u_star = (c * alpha / 2.0) ** (2.0 / (2.0 - alpha))
        # the peak bounds the cancellation mass exp(peak); keep it small
        # enough that double precision still resolves order-one results
        if -u_star + c * u_star ** (alpha / 2.0) <= 5.0:
            return clamped
    return math.copysign(math.pi / 2.0 - 0.1, psi)


def _rotated_form(alpha: float, beta: float, y: complex):
    """Prefactor, oscillation rate and transformed argument after rotating
    the contour and substituting u = s cos(psi).

    Returns (pref, tan_psi, y_eff) so that

        g_{a,b}(y) = pref * int_0^inf u^(b/2-1) e^{-u}
                     exp(-i u tan_psi) exp(-u^(a/2) y_eff) du
    """
    if y == 0:
        return 1.0 + 0j, 0.0, complex(y)
    psi = _rotation_angle(alpha, complex(y))
    if psi == 0.0:
        return 1.0 + 0j, 0.0, complex(y)
    cpsi = math.cos(psi)
    pref = (cmath.exp(1j * psi) / cpsi) ** (beta / 2.0)
    y_eff = complex(y) * cmath.exp(1j * psi * alpha / 2.0) / cpsi ** (alpha / 2.0)
    return pref, math.tan(psi), y_eff


def _gl_eval(alpha: float, beta: float, y: complex, n: int) -> complex:
    pref, tanpsi, y_eff = _rotated_form(alpha, beta, y)
    t, w = _laguerre_nodes(n, beta / 2.0 - 1.0)
    exponent = -1j * tanpsi * t - t ** (alpha / 2.0) * y_eff
    # Clip the (provably decaying) exponent against stray overflow.
    exponent = np.where(exponent.real > 700.0, 700.0 + 1j * exponent.imag, exponent)
    return pref * np.sum(w * np.exp(exponent))


def _transformed_setup(alpha: float, beta: float, y: complex):
    """Rotated form plus the power substitution u = v^p and a truncation
    point; shared by the nested tanh-sinh rule and adaptive subdivision."""
    pref, tanpsi, y_eff = _rotated_form(alpha, beta, y)
    # u = v^p removes the endpoint singularity when beta < 2.
    p = max(1.0, 2.0 / beta)
    # Truncate where the integrand modulus falls ~exp(-48) below its peak;
    # without this the peak is a vanishing fraction of the interval and the
    # initial panels miss it entirely.
    u_max = 48.0
    if y_eff.real > 0:
        u_max = min(u_max, (48.0 / y_eff.real) ** (2.0 / alpha))
    elif y_eff.real < 0:
        # The exponent -u + c u^(a/2) rises to an interior peak before
        # decaying; integrate through it.  Near the cone boundary with
        # alpha close to 2 that peak can exceed the double range, in which
        # case the value itself is not representable.
        c = -y_eff.real
        u_star = (c * alpha / 2.0) ** (2.0 / (2.0 - alpha))
        peak = -u_star + c * u_star ** (alpha / 2.0)
        if peak > 600.0:
            raise QuadratureError(
                f"value of order exp({peak:.3g}) exceeds floating-point range "
                f"for y={y}"
            )
        lo, hi = max(u_star, 1.0), max(u_star, 1.0) * 2.0
        while -hi + c * hi ** (alpha / 2.0) > peak - 48.0:
            hi *= 2.0
        u_max = brentq(
            lambda u: -u + c * u ** (alpha / 2.0) - (peak - 48.0), lo, hi
        )
    return pref, tanpsi, y_eff, p, u_max ** (1.0 / p)


# Levels of the nested tanh-sinh rule, coarsest first.
_DE_LEVELS = range(3, 12)


@lru_cache(maxsize=16)
def _tanh_sinh_nodes(level: int):
    # Nodes/weights of the tanh-sinh rule on (0, 1) with step h = 2^-level
    # on the grid t = -3.8 + i h.  The transform concentrates nodes
    # double-exponentially at both ends, which restores spectral
    # convergence in the presence of endpoint branch singularities such as
    # the u^(a/2) factor here.  Each level's grid holds every node of the
    # level below at even i, so above the coarsest level only the new
    # odd-i nodes are returned; see ``_nested_de_sums``.
    h = 0.5**level
    t = np.arange(-3.8 / h, 3.8 / h + 1) * h
    if level > _DE_LEVELS[0]:
        t = t[1::2]
    s = 0.5 * math.pi * np.sinh(t)
    x = 0.5 * (1.0 + np.tanh(s))
    w = h * 0.25 * math.pi * np.cosh(t) / np.cosh(s) ** 2
    # x can underflow to exactly 0 at the left end while the weight is
    # still above the cutoff; those nodes carry no mass but would blow up
    # v^(negative power), so drop them too
    keep = (w > 1e-20) & (x > 0.0)
    return x[keep], w[keep]


def _nested_de_sums(alpha: float, beta: float, y: complex):
    """Yield (value, mass) of the tanh-sinh rule at each level of
    ``_DE_LEVELS`` on the transformed integral.

    Halving the step keeps every old node, so level k is half the level
    k-1 sum plus the sum over the new nodes alone.  ``mass`` is the L1 mass
    of the summed terms; its ratio to |value| measures how much
    cancellation occurred and bounds the attainable roundoff floor.
    """
    pref, tanpsi, y_eff, p, v_max = _transformed_setup(alpha, beta, y)
    scale = p * v_max
    rate = complex(-1.0, -tanpsi)
    total = 0j
    total_abs = 0.0
    for level in _DE_LEVELS:
        x, w = _tanh_sinh_nodes(level)
        v = v_max * x
        u = v**p
        vals = v ** (p * beta / 2.0 - 1.0) * np.exp(
            rate * u - u ** (alpha / 2.0) * y_eff
        )
        total = 0.5 * total + np.dot(w, vals)
        total_abs = 0.5 * total_abs + np.dot(w, np.abs(vals))
        yield pref * scale * total, abs(pref) * scale * total_abs


def _de_eval(alpha: float, beta: float, y: complex, rule: QuadratureRule):
    """Nested tanh-sinh quadrature, refined until two successive levels
    agree.  Returns None when the level cap is hit (strong oscillation) so
    the caller can fall back."""
    prev = None
    for cur, mass in _nested_de_sums(alpha, beta, y):
        floor = 2e-15 * mass
        if prev is not None and abs(cur - prev) <= floor + 0.5 * (
            rule.abs_tol + rule.rel_tol * abs(cur)
        ):
            return cur
        prev = cur
    return None


def _adaptive_eval(alpha: float, beta: float, y: complex, rule: QuadratureRule) -> complex:
    pref, tanpsi, y_eff, p, v_max = _transformed_setup(alpha, beta, y)

    def integrand(v: float) -> complex:
        u = v**p
        pre = p * v ** (p * beta / 2.0 - 1.0)
        return pre * cmath.exp(-u - 1j * tanpsi * u - u ** (alpha / 2.0) * y_eff)

    for limit in (800, 3000):
        tol = dict(epsabs=0.1 * rule.abs_tol, epsrel=0.1 * rule.rel_tol, limit=limit)
        with warnings.catch_warnings():
            # the returned error estimate is checked explicitly below
            warnings.simplefilter("ignore", IntegrationWarning)
            re, re_err = quad(lambda v: integrand(v).real, 0.0, v_max, **tol)
            im, im_err = quad(lambda v: integrand(v).imag, 0.0, v_max, **tol)
        value = pref * complex(re, im)
        err = abs(pref) * math.hypot(re_err, im_err)
        if err <= rule.abs_tol + rule.rel_tol * abs(value):
            return value
    raise QuadratureError(
        f"adaptive quadrature error {err:.3e} exceeds tolerance for y={y}"
    )


def _check_domain(a: AlphaParam, y: complex) -> None:
    # Accept the cone plus a generous margin; far outside K_alpha the
    # integral may genuinely diverge in the oscillatory-mean sense.
    if not cone_contains(K_ALPHA, a, y, slack=0.2):
        raise ValueError(f"argument {y} lies outside K_alpha (alpha={a.alpha})")


def g_alpha_beta(
    a: AlphaParam, beta: float, y: complex, rule: QuadratureRule | None = None
) -> complex:
    """Evaluate g_{alpha,beta}(y) for y in (a neighborhood of) K_alpha."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    y = complex(y)
    if a.alpha_two_mode:
        # Closed-form limit branch, defined for Re(y) > -1.
        if beta == 2.0 or beta == a.alpha:
            return 1.0 / (1.0 + y)
        raise ValueError("alpha_two_mode supports beta in {alpha, 2} only")
    _check_domain(a, y)
    if y == 0:
        return complex(math.gamma(beta / 2.0))
    if rule is None:
        return _auto_eval(a.alpha, beta, y)
    if rule.kind == "generalized-gauss-laguerre":
        return _gl_eval(a.alpha, beta, y, rule.node_count)
    return _adaptive_eval(a.alpha, beta, y, rule)


_AUTO_ADAPTIVE = QuadratureRule(kind="adaptive-subdivision")


def _auto_eval(alpha: float, beta: float, y: complex) -> complex:
    # The single default path: nested tanh-sinh, then adaptive subdivision
    # when the tanh-sinh levels do not settle before the cap.
    value = _de_eval(alpha, beta, y, _AUTO_ADAPTIVE)
    if value is not None:
        return value
    return _adaptive_eval(alpha, beta, y, _AUTO_ADAPTIVE)


def g_alpha(a: AlphaParam, y: complex, rule: QuadratureRule | None = None) -> complex:
    return g_alpha_beta(a, a.alpha, y, rule)


def h_alpha(a: AlphaParam, y: complex, rule: QuadratureRule | None = None) -> complex:
    return g_alpha_beta(a, 2.0, y, rule)


def g_alpha_prime(a: AlphaParam, y: complex, rule: QuadratureRule | None = None) -> complex:
    """d/dy g_alpha(y) = -g_{alpha, 2 alpha}(y)."""
    if a.alpha_two_mode:
        return -1.0 / (1.0 + complex(y)) ** 2
    return -g_alpha_beta(a, 2.0 * a.alpha, y, rule)


def g_alpha_second(a: AlphaParam, y: complex, rule: QuadratureRule | None = None) -> complex:
    """d^2/dy^2 g_alpha(y) = g_{alpha, 3 alpha}(y)."""
    if a.alpha_two_mode:
        return 2.0 / (1.0 + complex(y)) ** 3
    return g_alpha_beta(a, 3.0 * a.alpha, y, rule)


def c_alpha(a: AlphaParam) -> complex:
    """i^alpha Gamma(1 - alpha/2) / Gamma(alpha/2); exactly -1 in the
    closed-form limit branch."""
    if a.alpha_two_mode:
        return -1.0 + 0.0j
    al = a.alpha
    return principal_power(1j, al) * math.gamma(1.0 - al / 2.0) / math.gamma(al / 2.0)


def c_alpha_bar(a: AlphaParam) -> complex:
    """Coefficient of the diagonally perturbed system: conj(C_alpha),
    i.e. i^{-alpha} Gamma(1 - alpha/2) / Gamma(alpha/2)."""
    return c_alpha(a).conjugate()


def _eta(alpha: float) -> float:
    # Largest admissible rotation keeping pi*alpha/4 + alpha*eta/2 < pi/2.
    return min(math.pi / 2 - 1e-3, 0.9 * math.pi * (2.0 - alpha) / (2.0 * alpha))


def cone_bound(a: AlphaParam, beta: float) -> float:
    """Explicit uniform bound for |g_{alpha,beta}| on the cone K_alpha:
    (sin eta)^(-beta/2) g_{alpha,beta}(0) for an admissible eta(alpha)."""
    if a.alpha_two_mode:
        return 1.0
    eta = _eta(a.alpha)
    return math.sin(eta) ** (-beta / 2.0) * math.gamma(beta / 2.0)

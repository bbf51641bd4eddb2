"""Entire functions underlying the heavy-tailed spectral fixed points.

The two workhorses are

    g_{a,b}(y) = int_0^inf t^(b/2-1) exp(-t) exp(-t^(a/2) y) dt
    g_a = g_{a,a},   h_a = g_{a,2} = 1 - (a/2) y g_a(y)

evaluated on the cone K_a = {r e^{i th} : |th| <= a pi/2}.  Direct
quadrature is catastrophically ill-conditioned near the cone boundary
(the integrand peaks exponentially before cancelling), so for arguments
with negative real part both rules rotate the contour onto a ray where
every factor decays, and raise where none does; see ``_rotation_angle``.

With no explicit rule, g is evaluated in two tiers: by the power series
g_{a,b}(y) = sum_k Gamma(b/2 + k a/2)/k! (-y)^k wherever a truncation and
roundoff bound certifies it to the adaptive rule's tolerance (small |y|;
see ``_series_eval``), and otherwise by nested tanh-sinh quadrature on the
rotated, power-substituted integral, refined level by level until two
successive levels agree; a value whose levels reach the cap raises
``QuadratureError``.  The series bound is certified per rung
|y| <= 2^(j/8), by the first call that lands on the rung, in one scalar
pass over the terms that stops where the rung is decided, so a new (a, b)
pays for its coefficients and only the rungs it reaches; the factorials
are one array, built once per process.  The coefficients take Gamma from
``math.gamma`` (at most 6.81 ulps from 40-digit values at the 205,195
points x_k of 300 alpha on the roundoff weight's grid, where scipy's Gamma
reaches 9.00), and the weight takes psi from ``_digamma``, so the default
path imports no scipy.  An explicit rule, which ``g_alpha_beta``,
``g_alpha`` and ``h_alpha`` take as the reference, always runs adaptive
subdivision, through ``scipy``, and never the series, on the default
path's ray.  At a = 2 every path is the closed form
g_{2,b}(y) = Gamma(b/2) (1+y)^(-b/2).

``g_alpha_pair`` returns g_a and its derivative g_a' = -g_{a,2a} from one
evaluation, as every Newton step of the solvers needs both at the same
point: on the series both come from one pass of Horner's rule with
derivative over the coefficients of g_a, with one rung certificate that
bounds each, and the values the series does not certify share one
tanh-sinh run whose exp per node serves both integrands.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
import warnings
from array import array
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "AlphaParam",
    "QuadratureRule",
    "QuadratureError",
    "principal_power",
    "g_alpha_beta",
    "g_alpha",
    "g_alpha_pair",
    "g_alpha_prime",
    "h_alpha",
    "c_alpha",
    "c_alpha_bar",
    "cone_contains",
    "cone_bound",
]

K_ALPHA = "K_alpha"
K_HAT_ALPHA = "K_hat_alpha"


class QuadratureError(ArithmeticError):
    """Quadrature of g failed to meet the requested tolerance."""


@dataclass(frozen=True)
class AlphaParam:
    """Tail index alpha in (0, 2].

    At alpha = 2 (``alpha_two_mode``) the Gamma-ratio constant is singular
    and the functions collapse to g_{2,b}(y) = Gamma(b/2) (1+y)^(-b/2),
    so g(y) = h(y) = 1/(1+y); that branch is kept separate instead of
    being approached as a limit.
    """

    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha <= 2.0:
            raise ValueError(f"alpha must lie in (0, 2], got {self.alpha}")

    @property
    def alpha_two_mode(self) -> bool:
        """The closed-form limit branch, alpha == 2."""
        return self.alpha == 2.0


@dataclass(frozen=True)
class QuadratureRule:
    """Tolerances of the adaptive-subdivision rule, the one explicit rule."""

    kind: str = "adaptive-subdivision"
    abs_tol: float = 1e-12
    rel_tol: float = 1e-12

    def __post_init__(self):
        if self.kind != "adaptive-subdivision":
            raise ValueError(f"unknown quadrature kind {self.kind!r}")
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")


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


# The steepest effective argument of y, and the steepest full rotation
_STEEPEST = math.pi / 2.0 - 0.3


def _rotation_angle(alpha: float, y: complex) -> float:
    """Ray psi of the contour t = s e^{i psi}, on which both exp(-t) and
    exp(-t^(a/2) y) decay: psi in (-pi/2, (pi/2 - |theta|) 2/alpha),
    signed against theta = arg y.  Both quadrature rules integrate on it.

    No rotation where |theta| <= ``_STEEPEST``.  Else the full rotation,
    the smallest psi that brings the effective argument theta + psi a/2
    to +-``_STEEPEST``, where it is itself no steeper than that: rotating
    further than necessary trades cancellation for the oscillation
    exp(-i u tan psi).  Else the middle of the decaying rays.  They exist
    where |theta| < pi/2 + alpha pi/4, on all of K_alpha for alpha < 2;
    beyond, in the slack of ``_check_domain`` for alpha > 1.745, this
    raises ``QuadratureError``.
    """
    theta = cmath.phase(y)
    if abs(theta) <= _STEEPEST:
        return 0.0
    psi = (math.copysign(_STEEPEST, theta) - theta) * 2.0 / alpha
    if abs(psi) <= _STEEPEST:
        return psi
    upper = (math.pi / 2.0 - abs(theta)) * 2.0 / alpha
    if upper <= -math.pi / 2.0:
        raise QuadratureError(f"no ray on which g's integrand decays at "
                              f"y={y}")
    middle = (math.pi / 2.0 - upper) / 2.0
    return -math.copysign(middle, theta)


def _rotated_form(alpha: float, beta: float, y: complex, psi: float):
    """Prefactor, oscillation rate and transformed argument after rotating
    the contour onto the ray psi and substituting u = s cos(psi).

    Returns (pref, tan_psi, y_eff) so that

        g_{a,b}(y) = pref * int_0^inf u^(b/2-1) e^{-u}
                     exp(-i u tan_psi) exp(-u^(a/2) y_eff) du
    """
    if psi == 0.0:
        return 1.0 + 0j, 0.0, complex(y)
    cpsi = math.cos(psi)
    pref = (cmath.exp(1j * psi) / cpsi) ** (beta / 2.0)
    y_eff = complex(y) * cmath.exp(1j * psi * alpha / 2.0) / cpsi ** (alpha / 2.0)
    return pref, math.tan(psi), y_eff


def _transformed_setup(alpha: float, beta: float, y: complex, psi: float):
    """Rotated form on the ray psi of ``_rotation_angle`` plus the power
    substitution u = v^p and a truncation point; shared by the nested
    tanh-sinh rule and adaptive subdivision.  On that ray Re y_eff > 0, so
    both exponentials decay and the truncation point is closed-form."""
    pref, tanpsi, y_eff = _rotated_form(alpha, beta, y, psi)
    # u = v^p removes the endpoint singularity when beta < 2.
    p = max(1.0, 2.0 / beta)
    # Truncate where the integrand modulus falls ~exp(-48) below its peak;
    # without this the peak is a vanishing fraction of the interval and the
    # initial panels miss it entirely.
    u_max = 48.0
    if y_eff.real > 0:
        u_max = min(u_max, (48.0 / y_eff.real) ** (2.0 / alpha))
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


def _nested_de_sums(alpha: float, beta: float, y: complex,
                    moments=(0,)):
    """Yield, at each level of ``_DE_LEVELS``, one (value, mass) of the
    tanh-sinh rule per j in moments (each 0 or 1) on the transformed
    integral of g_{alpha, beta + j alpha}.

    All moments share the ray, the substitution and the truncation of
    g_{alpha,beta}; the integrand of moment 1 is that of moment 0 times
    u^(a/2), so one exp per node serves both.  Halving the step keeps
    every old node, so level k is half the level k-1 sum plus the sum over
    the new nodes alone.  ``mass`` is the L1 mass of the summed terms; its
    ratio to |value| measures how much cancellation occurred and bounds
    the attainable roundoff floor.
    """
    psi = _rotation_angle(alpha, y)
    pref, tanpsi, y_eff, p, v_max = _transformed_setup(alpha, beta, y, psi)
    scale = p * v_max
    prefs = [pref if j == 0 else
             _rotated_form(alpha, beta + alpha, y, psi)[0] for j in moments]
    rate = complex(-1.0, -tanpsi)
    totals = [0j] * len(moments)
    masses = [0.0] * len(moments)
    for level in _DE_LEVELS:
        x, w = _tanh_sinh_nodes(level)
        v = v_max * x
        u = v**p
        u_half = u ** (alpha / 2.0)
        vals = v ** (p * beta / 2.0 - 1.0) * np.exp(rate * u - u_half * y_eff)
        for i, j in enumerate(moments):
            terms = vals * u_half if j else vals
            totals[i] = 0.5 * totals[i] + np.dot(w, terms)
            masses[i] = 0.5 * masses[i] + np.dot(w, np.abs(terms))
        yield [(pre * scale * total, abs(pre) * scale * mass)
               for pre, total, mass in zip(prefs, totals, masses)]


def _de_eval(alpha: float, beta: float, y: complex, moments=(0,)) -> list:
    """Nested tanh-sinh quadrature of g_{alpha, beta + j alpha} for j in
    moments (see ``_nested_de_sums``): each value is the first level that
    agrees with the level before it to the adaptive rule's tolerance.  A
    value is None when its levels hit the cap (strong oscillation)."""
    abs_tol, rel_tol = _AUTO_ADAPTIVE.abs_tol, _AUTO_ADAPTIVE.rel_tol
    values = [None] * len(moments)
    prev = [None] * len(moments)
    for sums in _nested_de_sums(alpha, beta, y, moments):
        for i, (cur, mass) in enumerate(sums):
            if values[i] is None:
                if prev[i] is not None and abs(cur - prev[i]) <= (
                        2e-15 * mass + 0.5 * (abs_tol + rel_tol * abs(cur))):
                    values[i] = cur
                prev[i] = cur
        if None not in values:
            break
    return values


def _adaptive_eval(alpha: float, beta: float, y: complex, rule: QuadratureRule) -> complex:
    from scipy.integrate import IntegrationWarning, quad

    psi = _rotation_angle(alpha, y)
    pref, tanpsi, y_eff, p, v_max = _transformed_setup(alpha, beta, y, psi)

    def integrand(v: float) -> complex:
        u = v**p
        pre = p * v ** (p * beta / 2.0 - 1.0)
        return pre * cmath.exp(-u - 1j * tanpsi * u - u ** (alpha / 2.0) * y_eff)

    for limit in (800, 3000):
        # the value is pref times the integral: on a steep ray |pref|
        # reaches 50-2,000, so the integral's absolute target is scaled down
        tol = dict(epsabs=0.1 * rule.abs_tol / abs(pref),
                   epsrel=0.1 * rule.rel_tol, limit=limit)
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


# ---------------------------------------------------------------------------
# power series


_UNIT_ROUNDOFF = 2.0**-53
# Gamma overflows beyond x = 171.6 and k! beyond k = 170.
_SERIES_MAX_TERMS = 171
# A call at |y| <= 2^(j/8) uses the term count and bound of rung j: rungs
# cover 2^-20 <= |y| <= 2^6, and larger |y| never tries the series.
_RUNGS_PER_OCTAVE = 8
_RUNG_MIN, _RUNG_MAX = -20 * _RUNGS_PER_OCTAVE, 6 * _RUNGS_PER_OCTAVE


# k! for k < _SERIES_MAX_TERMS, each rounded once from the exact integer
_FACTORIALS = np.array([float(f) for f in itertools.accumulate(
    range(1, _SERIES_MAX_TERMS), operator.mul, initial=1)])


@dataclass(frozen=True)
class _SeriesTable:
    reversed_coef: list     # c_k = Gamma(b/2 + k a/2) / k!, highest k first
    log_coef: array         # log c_k
    ratio: array            # Wendel's bound on |c_{k+1}/c_k|
    weight: array           # roundoff of term k, in ulps
    mono: int               # k_mono, from which that bound decreases in k
    tol: float              # the adaptive rule's tolerance on the cone
    slope_tol: float        # the same for g_{a,b+a}
    # rung -> (terms, bound, bound of the derivative's sum or inf),
    # certified on first use
    rungs: dict


@lru_cache(maxsize=64)
def _series_table(alpha: float, beta: float) -> _SeriesTable:
    """Coefficients of the power series of g_{alpha,beta} and what it takes
    to certify a rung R = 2^(j/8); built once per (alpha, beta), with the
    rungs left empty for ``_series_eval`` to certify on first use.

    The per-term values that ``_certify_rung`` reads, log c_k, Wendel's
    ratio bound and the roundoff weight, are held as ``array.array``s,
    which its one scalar pass iterates, and the term k_mono from which the
    ratio bound decreases as one index.  A rung's bound is the tail bound
    after the last summed term plus a first-order roundoff bound: u times
    the L1 mass of the summed terms, each weighted by its own roundoff.
    Both grow with |y|, so they hold for every |y| <= R.
    """
    k = np.arange(_SERIES_MAX_TERMS, dtype=float)
    x = beta / 2.0 + k * alpha / 2.0
    k, x = k[x < 171.0], x[x < 171.0]
    if not len(k):   # Gamma(beta/2) overflows: quadrature decides
        every = range(_RUNG_MIN, _RUNG_MAX + 1)
        return _SeriesTable([], array("d"), array("d"), array("d"), 0,
                            0.0, 0.0,
                            dict.fromkeys(every, (0, math.inf, math.inf)))
    coef = np.array(list(map(math.gamma, x.tolist()))) / _FACTORIALS[:len(k)]
    # Wendel's inequality Gamma(x+s)/Gamma(x) <= x^s for 0 < s < 1 gives
    # |c_{k+1}/c_k| <= x_k^(a/2)/(k+1), which decreases in k from k_mono on;
    # so with rho = ratio[n-1] R < 1 the tail after n terms is at most
    # c_{n-1} R^(n-1) rho/(1-rho).
    ratio = x ** (alpha / 2.0) / (k + 1.0)
    k_mono = (alpha**2 / 4.0 - beta / 2.0) / (alpha / 2.0 * (1.0 - alpha / 2.0))
    # Roundoff of term k, in ulps: Gamma is within 9 at its float argument
    # (math.gamma: at most 6.81 against 40-digit values on the grid below),
    # and rounding x_k moves Gamma(x_k) by at most 2 x_k |psi(x_k)|
    # (measured against 40-digit values: at most 0.96 of 34 + 2 x|psi| over
    # alpha in [0.05, 1.99], beta in {a, 2, 2a, 3a}), taken twice; Horner's
    # rule adds 2 sqrt(2) per complex product and 1 per sum, k of each.
    weight = 34.0 + 4.0 * x * np.abs(_digamma(x)) + 4.0 * k
    # |g| <= cone_bound on K_alpha, so a rung whose bound exceeds the
    # tolerance there can never certify; it gets 0 terms and its calls go
    # straight to quadrature.
    a = AlphaParam(alpha)
    rule = _AUTO_ADAPTIVE
    tol = rule.abs_tol + rule.rel_tol * cone_bound(a, beta)
    slope_tol = rule.abs_tol + rule.rel_tol * cone_bound(a, beta + alpha)
    return _SeriesTable(coef[::-1].tolist(),
                        array("d", np.log(coef).tobytes()),
                        array("d", ratio.tobytes()),
                        array("d", weight.tobytes()),
                        max(0, math.ceil(k_mono)), tol, slope_tol, {})


# Cephes' asymptotic series psi(s) = log s - 1/(2s) - z P(z), z = 1/s^2: the
# coefficients B_2n / (2n) of P, n = 7 down to 1, highest power first
_DIGAMMA_ASYMPTOTIC = (8.33333333333333333333e-2, -2.10927960927960927961e-2,
                       7.57575757575757575758e-3, -4.16666666666666666667e-3,
                       3.96825396825396825397e-3, -8.33333333333333333333e-3,
                       8.33333333333333333333e-2)


def _digamma(x: np.ndarray) -> np.ndarray:
    """psi at the increasing x > 0 of a series table: the x < 10, a
    prefix, are shifted by psi(x) = psi(x + 10) - sum_{j<10} 1/(x + j),
    and every s >= 10 sums the asymptotic series, as Cephes does.  Only the
    roundoff weight reads it; on the weight's grid the weight is within
    4.5e-16 relative of the one that scipy's psi gives."""
    m = int(np.searchsorted(x, 10.0))
    s = x.copy()
    s[:m] += 10.0
    shift = np.zeros_like(x)
    shift[:m] = (1.0 / (x[:m, None] + np.arange(10.0))).sum(axis=1)
    z = 1.0 / (s * s)
    return np.log(s) - 0.5 / s - z * np.polyval(_DIGAMMA_ASYMPTOTIC, z) \
        - shift


def _certify_rung(table: _SeriesTable, rung: int) -> tuple[int, float,
                                                           float]:
    """(terms, bound, slope bound) of rung R = 2^(rung/8): the fewest terms
    n whose tail is below one unit of roundoff on the mass summed so far,
    and the bound of the derivative summed on terms 1..n, inf where it
    exceeds the tolerance of g_{a,b+a}; (0, inf, inf) where no count
    reaches that or the bound exceeds the table's tolerance.

    One scalar pass over the table's terms, in order, sums the mass and
    the two roundoff masses as it goes and stops at term n, one beyond the
    value's last, which only the derivative's tail reads.  It stops as
    soon as the rung is declined: at the first term where u times the
    roundoff mass exceeds the tolerance, since every later bound holds
    that mass, or where a count's bound does.

    The derivative's term k is k c_k R^(k-1).  Its ratio to the term
    before is Wendel's ratio times (k+1)/k, which also decreases in k, so
    its tail after term n is at most n c_n R^(n-1) rho'/(1-rho') with
    rho' = rho (n+1)/n.  It takes one term more than the value because its
    mass starts at c_1, not c_0: at small |y| the value's last term is
    far above roundoff on the derivative's mass.  Along Horner's rule with
    derivative, term k of the derivative is k paths of k-1 complex
    products and at most k+1 sums each, so the roundoff weight of term k
    of the value covers it."""
    log_r = rung * (math.log(2.0) / _RUNGS_PER_OCTAVE)
    r = math.exp(log_r)
    exp, mono, inf = math.exp, table.mono, math.inf
    summed = mass = slope_mass = 0.0
    n = 0
    for k, (log_c, ratio, weight) in enumerate(
            zip(table.log_coef, table.ratio, table.weight)):
        # terms beyond e^600 can never certify; the cap keeps every sum
        # finite
        log_size = log_c + k * log_r
        size = exp(600.0 if log_size > 600.0 else log_size)
        rho = ratio * r
        ok = rho < 1.0 and k >= mono
        if n:   # term n: the derivative's tail
            slope = inf
            if ok and rho * (n + 1) < n:
                last = rho * (n + 1) / n
                slope = (_UNIT_ROUNDOFF * (slope_mass + k * size * weight)
                         + n * size * last / (1.0 - last)) / r
            return n, bound, slope if slope <= table.slope_tol else inf
        summed += size
        mass += size * weight
        if _UNIT_ROUNDOFF * mass > table.tol:
            return 0, inf, inf
        slope_mass += k * size * weight
        tail = size * rho / (1.0 - rho) if ok else inf
        if tail <= _UNIT_ROUNDOFF * summed:
            n = k + 1
            bound = _UNIT_ROUNDOFF * mass + tail
            if bound > table.tol:
                return 0, inf, inf
    if n:   # the value sums every term: no derivative's tail
        return n, bound, inf
    return 0, inf, inf


def _series_eval(alpha: float, beta: float, y: complex):
    """(value, bound, next, next bound) of the power series
    sum_k c_k (-y)^k from one pass of Horner's rule with derivative, with
    the error bounds of the smallest rung R >= |y|, or None where that rung
    cannot certify the value to the adaptive rule's tolerance on the cone.
    A rung is certified the first time a call lands on it.

    next is g_{alpha, beta+alpha} = -d/dy g_{alpha,beta} =
    sum_k (k+1) c_{k+1} (-y)^k, as (k+1) c_{k+1} is the coefficient c_k of
    beta + alpha, summed to one term beyond the value (see
    ``_certify_rung``).  Its bound is inf where the rung does not certify
    it.  The value takes the steps of plain Horner's rule, so it is bit
    for bit that sum."""
    table = _series_table(alpha, beta)
    rung = max(_RUNG_MIN, math.ceil(_RUNGS_PER_OCTAVE * math.log2(abs(y))))
    if rung > _RUNG_MAX:
        return None
    try:
        n, bound, slope = table.rungs[rung]
    except KeyError:
        n, bound, slope = table.rungs[rung] = _certify_rung(table, rung)
    if n == 0:
        return None
    minus_y = -y
    coef = table.reversed_coef
    # the first step of the value's loop, with the derivative started at
    # its term n, n c_n, which the value does not sum
    terms = iter(coef[-n:])
    value = 0j * minus_y + next(terms)
    deriv = n * coef[-n - 1] if n < len(coef) else 0.0
    for c in terms:
        deriv = deriv * minus_y + value
        value = value * minus_y + c
    return value, bound, deriv, slope


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
    return _g_moments(a, beta, y, rule, (0,))[0]


def _g_moments(a: AlphaParam, beta: float, y: complex,
               rule: QuadratureRule | None, moments) -> list:
    """[g_{alpha, beta + j alpha}(y) for j in moments (each 0 or 1)]: the
    closed form at alpha = 2, else by the explicit rule when one is given,
    else by ``_auto_eval``."""
    y = complex(y)
    alpha = a.alpha
    if a.alpha_two_mode:
        # g_{2,b}(y) = Gamma(b/2) (1+y)^(-b/2), defined for Re(y) > -1;
        # at b = 2 the power would flip the sign of a zero imaginary part
        return [1.0 / (1.0 + y) if b == 2.0
                else math.gamma(b / 2.0) / (1.0 + y) ** (b / 2.0)
                for b in (beta + j * alpha for j in moments)]
    _check_domain(a, y)
    if y == 0:
        return [complex(math.gamma((beta + j * alpha) / 2.0))
                for j in moments]
    if rule is None:
        return _auto_eval(alpha, beta, y, moments)
    return [_adaptive_eval(alpha, beta + j * alpha, y, rule)
            for j in moments]


_AUTO_ADAPTIVE = QuadratureRule(kind="adaptive-subdivision")


def _auto_eval(alpha: float, beta: float, y: complex, moments) -> list:
    # The default path for each g_{alpha, beta + j alpha}, in two tiers:
    # the power series of g_{alpha,beta} where its bound certifies the
    # adaptive rule's tolerance, moment 1 from the derivative of the same
    # pass, else nested tanh-sinh on the ray of g_{alpha,beta}, one run for
    # all the moments left.  A moment whose levels do not settle before
    # the cap raises QuadratureError.
    series = _series_eval(alpha, beta, y)
    if series is None:
        values = [None] * len(moments)
    else:
        value, bound, deriv, slope = series
        abs_tol, rel_tol = _AUTO_ADAPTIVE.abs_tol, _AUTO_ADAPTIVE.rel_tol
        sums = (value if bound <= abs_tol + rel_tol * abs(value) else None,
                deriv if slope <= abs_tol + rel_tol * abs(deriv) else None)
        values = [sums[j] for j in moments]
        if None not in values:
            return values
    todo = [i for i, value in enumerate(values) if value is None]
    quad = _de_eval(alpha, beta, y, [moments[i] for i in todo])
    for i, value in zip(todo, quad):
        if value is None:
            b = beta + moments[i] * alpha
            raise QuadratureError(f"tanh-sinh levels of g_{{{alpha}, {b}}} "
                                  f"do not settle at y={y}")
        values[i] = value
    return values


def g_alpha(a: AlphaParam, y: complex, rule: QuadratureRule | None = None) -> complex:
    return g_alpha_beta(a, a.alpha, y, rule)


def h_alpha(a: AlphaParam, y: complex, rule: QuadratureRule | None = None) -> complex:
    return g_alpha_beta(a, 2.0, y, rule)


def g_alpha_pair(a: AlphaParam, y: complex) -> tuple:
    """(g_alpha(y), g_alpha'(y)) from one evaluation, with
    g_alpha' = -g_{alpha, 2 alpha}.

    g is bit for bit ``g_alpha`` and g' bit for bit ``g_alpha_prime``.  On
    the series both come from one pass of Horner's rule with derivative
    over the series of g, each value where its own rung bound certifies it
    (see ``_certify_rung``), so g stays on its series wherever that
    certifies g alone; the series of g_{alpha, 2 alpha} is never built.
    The values left come from one nested tanh-sinh run on g's ray and
    substitution, one exp per node for both (``_nested_de_sums``).  The
    explicit-rule reference of g' is -g_alpha_beta(a, 2 alpha, y, rule)."""
    g, g2 = _g_moments(a, a.alpha, y, None, (0, 1))
    return g, -g2


def g_alpha_prime(a: AlphaParam, y: complex) -> complex:
    """d/dy g_alpha(y) = -g_{alpha, 2 alpha}(y): the second value of
    ``g_alpha_pair``, by the same path; off the series it integrates g'
    alone."""
    return -_g_moments(a, a.alpha, y, None, (1,))[0]


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

"""Fixed-point solvers for the limiting spectral systems.

Every system has the shape  unknowns = F(z, unknowns)  with F contractive
for large |z| (band/Wigner/Wishart) or large Im z (diagonally perturbed).
The solver therefore always starts on the imaginary axis at a radius where
a 1/3-contraction is guaranteed by explicit bounds on g_alpha and its
derivative, so that I - F' is invertible there, and solves by Newton from
0.  It then walks toward the requested z by predictor-corrector
continuation.  Every path uses the same two pieces: one Newton loop
(``_newton``), which starts the cold path, corrects every path point and
polishes solutions on the real axis (``polish_on_axis``), and one point
walker (``_walk``), which takes coarse steps in the logarithm of a path
coordinate, predicts each point from the last two solutions, corrects it
by Newton, halves the log step when Newton fails, and when the halvings
run out makes one last Newton correction at the target, whose failure is
the path's SolverError.  The cold path walks in the distance to z, the
eps path towards the real axis in log eps between the points of its
schedule.  This keeps the iteration on the branch that tends to zero at
infinity, which is the one describing the spectral measure.  The
critical-set search is one more system for the same loop: Newton on
phi(y) = g(y) - y g'(y) from a grid of seeds (``find_critical_set``).

Every returned solution has residual at most TOL.  The cold path's
stepping stones, its Newton start and the walk points before z, stop at
the looser PATH_TOL: each only seeds a secant prediction whose error at
the next point is far above PATH_TOL, so converging it further buys the
target nothing.  Every point of an eps path and of a polish is returned,
so each keeps its own target.

Each Newton step takes one linearization of the system, (F(U), I - F'(U)),
from one ``special.g_alpha_pair`` per cell and term, which gives g and
g' = -g_{a,2a} from one evaluation; what depends on z alone, z^alpha or
an atom's (lam - z)^(-alpha/2), a system computes once per z.  The step
solves I - F' in closed form in Python complex arithmetic for one or two
unknowns and by ``np.linalg.solve`` for more; a converged solution keeps its
linearization, so one more step from it (the real-axis sweep's settling
step) evaluates no g at its start.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .matrices import (DiagonalLaw, SigmaProfile, alpha_kernel,
                       covariance_profile)
from .special import (
    AlphaParam,
    K_ALPHA,
    K_HAT_ALPHA,
    c_alpha,
    c_alpha_bar,
    cone_bound,
    cone_contains,
    g_alpha_beta,
    g_alpha_pair,
    h_alpha,
    principal_power,
)

__all__ = [
    "FixedPointSolution",
    "SolverError",
    "solve",
    "solve_wigner",
    "solve_band",
    "solve_wishart_pair",
    "solve_perturbed",
    "continue_to_real_axis",
    "polish_on_axis",
    "find_critical_set",
    "wigner_system",
    "band_system",
    "wishart_system",
    "perturbed_system",
]


class SolverError(RuntimeError):
    """Iteration failed to reach the residual target."""

    def __init__(self, message, unknowns=None, residual=None):
        super().__init__(message)
        self.unknowns = unknowns
        self.residual = residual


# distance to z kept per coarse step of the cold path (see _solve)
CONTINUATION_FACTOR = 0.3
# Newton steps of one correction on every path; slower progress than this
# means a far prediction or g's noise floor
NEWTON_STEPS = 12
# log-step halvings of a ``_log_walk`` before its point falls back: on the
# real axis to the eps path, elsewhere to one last Newton correction at the
# target
SWEEP_HALVINGS = 3
# residual target of every solve off the real axis
TOL = 1e-12
# residual target of the cold path's stepping stones, the Newton start and
# the walk points before z, which only seed the secant prediction of the
# next point
PATH_TOL = 1e-4
# residual target of a solution on the real axis (``polish_on_axis``)
AXIS_TOL = 1e-13


@dataclass(frozen=True)
class FixedPointSolution:
    z: complex
    unknowns: np.ndarray
    residual: float
    iterations: int
    # (F, I - F') at the unknowns, as the last Newton step left it
    linearization: Optional[tuple] = field(default=None, repr=False,
                                           compare=False)


class _System:
    """One fixed-point system y = F(z, y) in q unknowns, whose subclass
    gives ``linearize(z, y)``, the pair (F(y), I - F'(y)) as q values and
    q rows of q values, and ``_per_z(z)``, its quantities of z alone,
    first the residual scale that turns the gap |y - F(y)| of a map with
    prefactor z^-alpha into the gap of its defining equation.

    ``_at(z)`` keeps the quantities of the last z asked for: a Newton call
    passes its one z object to every ``linearize`` and ``residual``, so
    z^alpha is raised once per call, not once per step."""

    cone = K_ALPHA

    def __init__(self, a: AlphaParam):
        self.a = a
        self.q = 1
        self._last_z = self._last_at = None

    def residual(self, z: complex, y, fy=None) -> float:
        """scale(z) max|y - F(y)|, from F(y) when the caller has it; nan
        when any term is nan."""
        if fy is None:
            fy = self.linearize(z, y)[0]
        gaps = [abs(u - f) for u, f in zip(y, fy)]
        # max() passes over a nan that is not first; the sum keeps it
        gap = math.nan if math.isnan(sum(gaps)) else max(gaps)
        return self._at(z)[0] * float(gap)

    def _at(self, z: complex) -> tuple:
        """``_per_z(z)``, kept for the last z object asked for.  The key
        is the object, not its value, so a z equal in value but not in
        its zero signs cannot reuse another's quantities."""
        if z is not self._last_z:
            self._last_at = self._per_z(z)
            self._last_z = z
        return self._last_at


# the one term (w, lam, p) = (1, 0, 1) of the unperturbed systems
_PLAIN_TERMS = ((1.0, 0.0, 1.0),)


class _BandSystem(_System):
    """The kernel-form system with one linearization (map and Jacobian),
    residual and Stieltjes transform, for unknowns U_s on cells of weights
    Delta_s:

        U_r = P(z) sum_s K_rs Delta_s sum_i w_i p_i g_alpha(p_i U_s),
        G(z, U) = sum_i w_i / (z - lam_i) sum_s Delta_s h_alpha(p_i U_s),

    with the residual scale(z) max|U - F(U)|.  Here, for the band, Wigner
    and covariance systems, P = C_alpha z^-alpha, the scale is |z^alpha|
    and the one term is (w, lam, p) = (1, 0, 1): the Wigner system and a
    band profile are one cell, the covariance pair is the two cells of
    ``covariance_profile(gamma)``.  ``_PerturbedSystem`` supplies its own
    prefactor, scale and terms.  The scale, P and the terms are the
    system's quantities of z alone (``_System._at``): one z^alpha, or one
    (lam_i - z)^(-alpha/2) per atom, serves every ``linearize`` and
    ``residual`` at the same z."""

    def __init__(self, a: AlphaParam, weights: np.ndarray, kernel: np.ndarray):
        super().__init__(a)
        self.weights = np.asarray(weights, dtype=float)
        self.q = self.weights.size
        self.c = c_alpha(a)
        # kernel contracted with the cell weights
        self.kw = np.asarray(kernel, dtype=float) * self.weights[None, :]
        self.kw_rows = self.kw.tolist()

    def _per_z(self, z):
        """(scale |z^alpha|, P(z) = C_alpha z^-alpha, the one plain term)."""
        power = principal_power(z, self.a.alpha)
        return abs(power), self.c / power, _PLAIN_TERMS

    def _terms(self, z):
        """The terms (w_i, lam_i, p_i) of the map at z."""
        return _PLAIN_TERMS

    def linearize(self, z, y):
        """(F(U), I - F'(U)) from one ``g_alpha_pair`` per cell and term:
        F_r = P sum_s K_rs Delta_s sum_i w_i p_i g(p_i U_s) and
        F'_rs = P K_rs Delta_s sum_i w_i p_i^2 g'(p_i U_s), in Python
        complex arithmetic for the one or two cells that ``_newton_step``
        solves in closed form, and as arrays beyond."""
        _, pre, terms = self._at(z)
        a = self.a
        cells = [complex(u) for u in y]
        gs = [0.0] * self.q
        ds = [0.0] * self.q
        for w, _, p in terms:
            wp = w * p
            wpp = wp * p
            for s, u in enumerate(cells):
                g, d = g_alpha_pair(a, p * u)
                gs[s] += wp * g
                ds[s] += wpp * d
        if self.q > 2:
            ds = np.array(ds)
            return (pre * (self.kw @ np.array(gs)),
                    np.eye(self.q) - pre * self.kw * ds[None, :])
        fy = []
        jac = []
        for r, row in enumerate(self.kw_rows):
            f = 0.0
            for k, g in zip(row, gs):
                f += k * g
            fy.append(pre * f)
            jac.append([float(r == s) - pre * k * d
                        for s, (k, d) in enumerate(zip(row, ds))])
        return fy, jac

    def G(self, z: complex, y: np.ndarray) -> complex:
        """The Stieltjes transform at z from the unknowns y at z."""
        terms = self._terms(z)
        cells = y.tolist()
        total = 0.0 + 0.0j
        for w, lam, p in terms:
            hs = np.array([h_alpha(self.a, p * u) for u in cells])
            total += w / (z - lam) * complex(np.sum(self.weights * hs))
        return total

    def start_radius(self):
        # Lipschitz constant of F is |z|^-alpha |C| sup|g'| max_r sum_s K Delta;
        # force it below 1/3.
        mass = float(np.max(np.sum(self.kw, axis=1)))
        lip = abs(self.c) * cone_bound(self.a, 2.0 * self.a.alpha) * mass
        try:
            return (3.0 * max(lip, 1e-300)) ** (1.0 / self.a.alpha)
        except OverflowError:
            digits = math.log10(3.0 * max(lip, 1e-300)) / self.a.alpha
            raise SolverError(
                f"the contraction radius 10^{digits:.4g} at "
                f"alpha={self.a.alpha} exceeds the floating-point range"
            ) from None

    def start_z(self, z_target: complex) -> complex:
        return 1j * max(self.start_radius(), abs(z_target), 1.0)


class _PerturbedSystem(_BandSystem):
    """The kernel-form system of the diagonally perturbed ensemble, in
    X = (-z)^(alpha/2) Y: prefactor P = conj(C_alpha), residual scale 1
    and one term (w_i, lam_i, (lam_i - z)^(-alpha/2)) per atom of the
    diagonal law.  The single atom at 0 gives back the band system.  Its
    unknowns live in the lower cone (phases in [-alpha pi/2, 0]).  It
    contracts in Im z at the band start radius: |conj C| = |C| and
    |(lam - z)^(-alpha/2)|^2 is at most Im(z)^-alpha."""

    cone = K_HAT_ALPHA

    def __init__(self, a: AlphaParam, weights, kernel, diag: DiagonalLaw):
        super().__init__(a, weights, kernel)
        self.c = c_alpha_bar(a)
        self.atoms = tuple(diag.atoms)

    def _per_z(self, z):
        """(scale 1, P = conj(C_alpha), one term per atom)."""
        half = -0.5 * self.a.alpha
        return 1.0, self.c, [(w, lam, principal_power(lam - z, half))
                             for lam, w in self.atoms]

    def _terms(self, z):
        return self._at(z)[2]


# ---------------------------------------------------------------------------
# generic iteration and continuation


def _newton_step(jac, r) -> list:
    """The solution d of jac d = r: in closed form for one or two unknowns,
    the two by Gaussian elimination with partial pivoting, and by
    ``np.linalg.solve`` beyond.  A singular jac raises ZeroDivisionError
    or LinAlgError."""
    if len(r) == 1:
        return [r[0] / jac[0][0]]
    if len(r) == 2:
        (a, b), (c, d) = jac
        r0, r1 = r
        if abs(c) > abs(a):
            a, b, c, d, r0, r1 = c, d, a, b, r1, r0
        m = c / a
        x1 = (r1 - m * r0) / (d - m * b)
        return [(r0 - b * x1) / a, x1]
    return np.linalg.solve(np.array(jac), np.array(r)).tolist()


def _newton(system: _System, z: complex, y0: np.ndarray, tol: float,
            max_steps: int = NEWTON_STEPS,
            linearization=None) -> FixedPointSolution:
    """Newton's method for y = F(z, y) from y0, the one iteration of
    every path and of the critical-set search.

    Each step takes one ``linearize`` at the iterate, (F(y), I - F'(y)),
    whose F(y) gives the residual and whose system ``_newton_step``
    solves; linearization, when given, is the one at y0 and saves the
    first.  At the contraction radius, where |F'| <= 1/3, it converges
    from 0; a predicted solution at z, or one at a nearby z, is close
    enough for quadratic convergence even where the contraction factor is
    near one (deep inside the bulk or close to the real axis).
    ``iterations`` counts the Newton steps taken, and the solution keeps
    the linearization at its unknowns.  Raises SolverError, with the last
    unknowns and residual, when the residual is still above tol after
    max_steps steps, when it is non-finite or exceeds 100 times its best
    value so far, when the root lies outside the cone, or when g fails on
    the way (then chained as the cause).
    """
    y = [complex(u) for u in y0]
    res = best = math.inf
    try:
        for steps in range(max_steps + 1):
            if linearization is None:
                linearization = system.linearize(z, y)
            fy, jac = linearization
            res = system.residual(z, y, fy)
            if res <= tol or steps == max_steps or not math.isfinite(res) \
                    or res > 100.0 * best:
                break
            best = min(best, res)
            step = _newton_step(jac, [f - u for f, u in zip(fy, y)])
            y = [u + d for u, d in zip(y, step)]
            linearization = None
    except (ValueError, ArithmeticError) as exc:
        raise SolverError(f"Newton failed at z={z}: {exc}",
                          unknowns=np.array(y), residual=res) from exc
    y = np.array(y)
    if not res <= tol:   # also when the residual is nan
        raise SolverError(
            f"no convergence at z={z}: residual {res:.3e} after {steps} "
            "Newton steps", unknowns=y, residual=res)
    for u in y:
        if not cone_contains(system.cone, system.a, u, 1e-9):
            raise SolverError(
                f"iterate {u} left the cone {system.cone} "
                "(branch loss during continuation)", unknowns=y, residual=res)
    return FixedPointSolution(z=z, unknowns=y, residual=res,
                              iterations=steps, linearization=linearization)


def _secant(z: complex, last: FixedPointSolution,
            before: Optional[FixedPointSolution]) -> np.ndarray:
    """Secant predictor at z through the last two solutions of a path, or
    the last one alone."""
    if before is None:
        return last.unknowns
    ratio = (z - last.z) / (last.z - before.z)
    return last.unknowns + ratio * (last.unknowns - before.unknowns)


def _log_walk(x: float, pos: float, last, before, correct):
    """(last, before, pos, halvings, newton): a predictor-corrector walk in
    log steps of a positive path coordinate, from the path point last at
    coordinate pos, and the one before it (or None), to coordinate x.

    correct(at, last, before) returns the solution at coordinate at, or
    None when its correction fails.  A failure halves the log step, up to
    SWEEP_HALVINGS times, and the walk passes through the intermediate
    points.  The returned pos is the coordinate of the returned last: x
    unless the halvings ran out.  ``newton`` sums the iterations of the
    accepted corrections.
    """
    step = math.log(x / pos)
    halvings = newton = 0
    while pos != x:
        at = x if abs(math.log(x / pos)) <= abs(step) * (1.0 + 1e-9) \
            else pos * math.exp(step)
        sol = correct(at, last, before)
        if sol is None:
            if halvings == SWEEP_HALVINGS:
                break
            halvings += 1
            step *= 0.5
            continue
        newton += sol.iterations
        before, last, pos = last, sol, at
    return last, before, pos, halvings, newton


def _walk(system: _System, point: Callable[[float], complex], x: float,
          pos: float, last: FixedPointSolution,
          before: Optional[FixedPointSolution], tol: float = TOL):
    """(last, before) with last the solution at point(x), walked by
    ``_log_walk`` from last at point(pos): each point z is ``_newton`` to
    residual tol from the secant prediction _secant(z, last, before), and a
    SolverError is a failed correction.  When the halvings run out,
    point(x) takes one more ``_newton`` to tol from the prediction off the
    last point reached, and its SolverError is the walk's."""

    def correct(at, last, before):
        z = point(at)
        try:
            return _newton(system, z, _secant(z, last, before), tol)
        except SolverError:
            return None

    last, before, pos, _, _ = _log_walk(x, pos, last, before, correct)
    if pos != x:
        z = point(x)
        before, last = last, _newton(system, z, _secant(z, last, before), tol)
    return last, before


def _solve(system: _System, z: complex) -> FixedPointSolution:
    """The decaying-branch solution at z, to residual TOL.

    The path starts with ``_newton`` from 0 at the contraction radius
    ``start_z(z)``, where the map contracts by 1/3.  It then heads
    straight for z: its distance to z shrinks by CONTINUATION_FACTOR from
    point to point, each point reached by ``_walk`` with the secant
    predictor, until the next one would lie within 0.05|z| of z; the last
    step, to z itself, is one ``_newton`` from the secant through the last
    two solutions.  The points before z, the start among them, are
    corrected only to PATH_TOL: each seeds a prediction whose error at the
    next point is far larger, so a tighter correction buys the target
    nothing.  A start that is z itself is corrected to TOL.  Every point
    passes the cone check and the divergence guards of ``_newton``.  A
    SolverError carries ``partial_path``, the stepping stones reached, and
    ``failure_index``, the index of the point that failed.
    """
    if z.imag <= 0:
        raise ValueError("z must lie in the open upper half-plane")
    start = system.start_z(z)
    path = []
    try:
        sol = _newton(system, start, np.zeros(system.q, dtype=complex),
                      TOL if start == z else PATH_TOL)
        path.append(sol)
        pos = dist = abs(start - z)
        before = None
        while CONTINUATION_FACTOR * pos >= 0.05 * abs(z):
            x = CONTINUATION_FACTOR * pos
            sol, before = _walk(system,
                                lambda d: z + (d / dist) * (start - z),
                                x, pos, sol, before, PATH_TOL)
            path.append(sol)
            pos = x
        if sol.z != z:
            sol = _newton(system, z, _secant(z, sol, before), TOL)
    except SolverError as exc:
        exc.failure_index = len(path)
        exc.partial_path = path
        raise
    return sol


# ---------------------------------------------------------------------------
# public constructors and solvers


def wigner_system(a: AlphaParam) -> _BandSystem:
    return _BandSystem(a, np.array([1.0]), np.array([[1.0]]))


def band_system(a: AlphaParam, profile: SigmaProfile) -> _BandSystem:
    w, k = alpha_kernel(profile, a.alpha)
    return _BandSystem(a, w, k)


def wishart_system(a: AlphaParam, gamma: float) -> _BandSystem:
    """The coupled pair behind covariance spectra,
    z^alpha Y1 = gamma/(1+gamma) C g(Y2),  z^alpha Y2 = 1/(1+gamma) C g(Y1):
    the band system of the block embedding [[0, X], [X^t, 0]], whose square
    holds X X^t, with its two-cell profile ``covariance_profile(gamma)``."""
    return band_system(a, covariance_profile(gamma))


def perturbed_system(a: AlphaParam, profile: SigmaProfile,
                     diag: DiagonalLaw) -> _PerturbedSystem:
    w, k = alpha_kernel(profile, a.alpha)
    return _PerturbedSystem(a, w, k, diag)


def solve(system: _System, z: complex) -> FixedPointSolution:
    """The decaying-branch solution of system at z (see ``_solve``)."""
    return _solve(system, complex(z))


def solve_wigner(a: AlphaParam, z: complex) -> FixedPointSolution:
    return _solve(wigner_system(a), complex(z))


def solve_band(a: AlphaParam, profile: SigmaProfile,
               z: complex) -> FixedPointSolution:
    return _solve(band_system(a, profile), complex(z))


def solve_wishart_pair(a: AlphaParam, gamma: float,
                       z: complex) -> FixedPointSolution:
    return _solve(wishart_system(a, gamma), complex(z))


def solve_perturbed(a: AlphaParam, profile: SigmaProfile, diag: DiagonalLaw,
                    z: complex) -> FixedPointSolution:
    return _solve(perturbed_system(a, profile, diag), complex(z))


# ---------------------------------------------------------------------------
# real-axis continuation


def continue_to_real_axis(system: _System, t: float,
                          eps_list: Sequence[float]) -> list:
    """Solutions at z = t + i eps, one per point of a decreasing eps
    schedule.

    The first point is a cold solve; the path then walks from each point
    to the next by ``_walk`` in log eps, Newton from the eps secant
    through the last two solutions, with the log step halved when Newton
    fails.  When the halvings run out and a last Newton at the schedule's
    point fails too, its SolverError is raised with ``failure_index``, the
    index of that point, and ``partial_path``, the solutions before it.
    A symmetric density is computed at t > 0 only: the decaying branch
    satisfies Y(-conj z) = conj Y(z), so rho(-t) = rho(t).
    """
    if not t > 0:
        raise ValueError("t must be positive")
    eps_list = [float(e) for e in eps_list]
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must decrease strictly")
    if eps_list[-1] < 1e-6:
        raise ValueError("eps floor is 1e-6")

    out = []
    last = before = None
    for i, eps in enumerate(eps_list):
        try:
            if last is None:
                last = _solve(system, t + 1j * eps)
            else:
                last, before = _walk(system, lambda e: t + 1j * e, eps,
                                     last.z.imag, last, before)
        except SolverError as exc:
            exc.failure_index = i
            exc.partial_path = out
            raise
        out.append(last)
    return out


def polish_on_axis(system, t: float, y: np.ndarray) -> FixedPointSolution:
    """Newton solution of the defining equation at real z = t > 0, from y:
    ``_newton`` on the real axis to AXIS_TOL.

    The boundary values extend continuously to the real axis; a few Newton
    steps turn an iterate near the axis (the end of an eps path, or a
    prediction from neighbouring real-axis solutions) into a
    machine-precision fixed point, making the algebraically equivalent
    density formulas agree at full accuracy.
    """
    return _newton(system, complex(t), y, AXIS_TOL)


# ---------------------------------------------------------------------------
# critical set


# the critical-set search's seeds: CRITICAL_SEEDS radii up to
# CRITICAL_RADIUS times CRITICAL_SEEDS angles across K_alpha, edges included
CRITICAL_RADIUS = 6.0
CRITICAL_SEEDS = 12
# Newton steps of one seed: near alpha = 2 a seed on the cone edge takes
# more than NEWTON_STEPS to settle on its root
CRITICAL_NEWTON_STEPS = 60


class _CriticalSystem(_System):
    """phi(y) = g(y) - y g'(y) = 0 as a one-unknown system: F(y) = y -
    phi(y), I - F' = phi'(y) = -y g_{alpha,3alpha}(y), residual scale 1,
    and no z.  Its linearization raises ValueError once the iterate leaves
    |y| <= 10 CRITICAL_RADIUS or K_alpha widened by 0.15."""

    def linearize(self, z, y):
        (u,) = y
        a = self.a
        if abs(u) > 10.0 * CRITICAL_RADIUS \
                or not cone_contains(K_ALPHA, a, u, 0.15):
            raise ValueError(f"iterate {u} left the search region")
        g, gp = g_alpha_pair(a, u)
        return [u - (g - u * gp)], [[-u * g_alpha_beta(a, 3.0 * a.alpha, u)]]

    def _per_z(self, z):
        return (1.0,)


def find_critical_set(a: AlphaParam) -> list:
    """Real points t > 0 where boundary analyticity may fail: ``_newton``
    to TOL in at most CRITICAL_NEWTON_STEPS steps on ``_CriticalSystem``
    from a polar grid of seeds, dropping a seed on SolverError; each root
    whose t^alpha = C_alpha g'(y) is real and positive contributes t."""
    system = _CriticalSystem(a)
    half = a.alpha * math.pi / 2.0
    c = c_alpha(a)
    ts = []
    for i in range(CRITICAL_SEEDS):
        r = CRITICAL_RADIUS * (i + 1) / CRITICAL_SEEDS
        for j in range(CRITICAL_SEEDS):
            th = half * (2.0 * j / (CRITICAL_SEEDS - 1) - 1.0)
            try:
                sol = _newton(system, 0j, [r * cmath.exp(1j * th)], TOL,
                              CRITICAL_NEWTON_STEPS)
            except SolverError:
                continue
            val = c * g_alpha_pair(a, sol.unknowns[0])[1]
            if val.real <= 0 or abs(val.imag) > 1e-8 * abs(val):
                continue
            t = val.real ** (1.0 / a.alpha)
            if all(abs(t - t0) > 1e-8 for t0 in ts):
                ts.append(t)
    return sorted(ts)

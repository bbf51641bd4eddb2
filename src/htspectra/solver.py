"""Fixed-point solvers for the limiting spectral systems.

Every system has the shape  unknowns = F(z, unknowns)  with F contractive
for large |z| (band/Wigner/Wishart) or large Im z (diagonally perturbed).
The solver therefore always starts on the imaginary axis at a radius where
a 1/3-contraction is guaranteed by explicit bounds on g_alpha and its
derivative, and iterates damped Picard there from 0.  It then walks toward
the requested z by predictor-corrector continuation.  Every path uses the
same two pieces: one Newton corrector (``_newton``), which also polishes
solutions on the real axis (``polish_on_axis``), and one point walker
(``_walk``), which takes coarse steps in the logarithm of a path
coordinate, predicts each point from the last two solutions, corrects it
by Newton, halves the log step when Newton fails, and when the halvings
run out takes a continuation step, Newton and then damped Picard from the
last solution.  The cold path walks in the distance to z, the eps path
towards the real axis in log eps between the points of its schedule.
This keeps the iteration on the branch that tends to zero at infinity,
which is the one describing the spectral measure.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .matrices import DiagonalLaw, SigmaProfile, alpha_kernel
from .special import (
    AlphaParam,
    K_ALPHA,
    K_HAT_ALPHA,
    c_alpha,
    c_alpha_bar,
    cone_bound,
    cone_contains,
    g_alpha,
    g_alpha_prime,
    principal_power,
)

__all__ = [
    "FixedPointConfig",
    "FixedPointSolution",
    "SolverError",
    "solve",
    "solve_wigner",
    "solve_band",
    "solve_wishart_pair",
    "solve_perturbed",
    "continue_to_real_axis",
    "near_critical",
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


# initial damping of the Picard iteration, which halves it where the
# residual stops falling
DAMPING = 1.0
# distance to z kept per coarse step of the cold path (see _solve)
CONTINUATION_FACTOR = 0.3


@dataclass(frozen=True)
class FixedPointConfig:
    tol: float = 1e-12
    max_iter: int = 500

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass(frozen=True)
class FixedPointSolution:
    z: complex
    unknowns: np.ndarray
    residual: float
    iterations: int
    cone: str = K_ALPHA


class _System:
    """One fixed-point system: map, residual, cone and startup radius."""

    cone = K_ALPHA

    def __init__(self, a: AlphaParam):
        self.a = a
        self.q = 1

    def apply(self, z: complex, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def residual(self, z: complex, y: np.ndarray,
                 fy: Optional[np.ndarray] = None) -> float:
        if fy is None:
            fy = self.apply(z, y)
        za = abs(principal_power(z, self._alpha()))
        return za * float(np.max(np.abs(y - fy)))

    def jacobian(self, z: complex, y: np.ndarray) -> np.ndarray:
        """Derivative of y - apply(z, y) with respect to y."""
        raise NotImplementedError

    def start_radius(self) -> float:
        raise NotImplementedError

    def start_z(self, z_target: complex) -> complex:
        return 1j * max(self.start_radius(), abs(z_target), 1.0)

    def _alpha(self) -> float:
        return self.a.alpha


class _BandSystem(_System):
    """z^alpha Y_r = C_alpha sum_s K_rs Delta_s g_alpha(Y_s)."""

    def __init__(self, a: AlphaParam, weights: np.ndarray, kernel: np.ndarray):
        super().__init__(a)
        self.weights = np.asarray(weights, dtype=float)
        self.kernel = np.asarray(kernel, dtype=float)
        self.q = self.weights.size
        self.c = c_alpha(a)
        # kernel contracted with the cell weights
        self.kw = self.kernel * self.weights[None, :]

    def apply(self, z, y):
        za = principal_power(z, self._alpha())
        g = np.array([g_alpha(self.a, yi) for yi in y])
        return (self.c / za) * (self.kw @ g)

    def row_mass(self) -> float:
        return float(np.max(np.sum(self.kw, axis=1))) if self.q else 0.0

    def start_radius(self):
        # Lipschitz constant of F is |z|^-alpha |C| sup|g'| max_r sum_s K Delta;
        # force it below 1/3.
        lip = abs(self.c) * cone_bound(self.a, 2.0 * self._alpha()) * self.row_mass()
        return (3.0 * max(lip, 1e-300)) ** (1.0 / self._alpha())

    def jacobian(self, z, y):
        za = principal_power(z, self._alpha())
        gp = np.array([g_alpha_prime(self.a, yi) for yi in y])
        return np.eye(self.q) - (self.c / za) * self.kw * gp[None, :]


class _WishartSystem(_System):
    """The coupled pair behind covariance spectra:
    z^alpha Y1 = gamma/(1+gamma) C g(Y2),  z^alpha Y2 = 1/(1+gamma) C g(Y1)."""

    def __init__(self, a: AlphaParam, gamma: float):
        super().__init__(a)
        if not 0.0 < gamma <= 1.0:
            raise ValueError("gamma must lie in (0, 1]")
        self.gamma = gamma
        self.q = 2
        self.c = c_alpha(a)

    def apply(self, z, y):
        za = principal_power(z, self._alpha())
        g1 = g_alpha(self.a, y[0])
        g2 = g_alpha(self.a, y[1])
        pref = self.c / (za * (1.0 + self.gamma))
        return np.array([pref * self.gamma * g2, pref * g1])

    def start_radius(self):
        lip = abs(self.c) * cone_bound(self.a, 2.0 * self._alpha())
        return (3.0 * lip) ** (1.0 / self._alpha())

    def jacobian(self, z, y):
        za = principal_power(z, self._alpha())
        pref = self.c / (za * (1.0 + self.gamma))
        gp1 = g_alpha_prime(self.a, y[0])
        gp2 = g_alpha_prime(self.a, y[1])
        return np.array([[1.0, -pref * self.gamma * gp2],
                         [-pref * gp1, 1.0]])


class _PerturbedSystem(_System):
    """X_r = conj(C_alpha) sum_s K_rs Delta_s
              sum_i w_i (lam_i - z)^(-alpha/2) g_alpha((lam_i - z)^(-alpha/2) X_s),
    the system of the diagonally perturbed ensemble; unknowns live in the
    lower cone (phases in [-alpha pi/2, 0])."""

    cone = K_HAT_ALPHA

    def __init__(self, a: AlphaParam, weights, kernel, diag: DiagonalLaw):
        super().__init__(a)
        self.weights = np.asarray(weights, dtype=float)
        self.kernel = np.asarray(kernel, dtype=float)
        self.q = self.weights.size
        self.kw = self.kernel * self.weights[None, :]
        self.atoms = tuple(diag.atoms)
        self.cbar = c_alpha_bar(a)

    def _phases(self, z):
        return [(w, principal_power(lam - z, -0.5 * self._alpha()))
                for lam, w in self.atoms]

    def apply(self, z, x):
        ph = self._phases(z)
        out = np.empty_like(x)
        vals = np.empty(self.q, dtype=complex)
        for s in range(self.q):
            acc = 0.0 + 0.0j
            for w, p in ph:
                acc += w * p * g_alpha(self.a, p * x[s])
            vals[s] = acc
        out[:] = self.cbar * (self.kw @ vals)
        return out

    def residual(self, z, x, fx=None):
        if fx is None:
            fx = self.apply(z, x)
        return float(np.max(np.abs(x - fx)))

    def jacobian(self, z, x):
        ph = self._phases(z)
        d = np.array([sum(w * p * p * g_alpha_prime(self.a, p * xs)
                          for w, p in ph) for xs in x])
        return np.eye(self.q) - self.cbar * self.kw * d[None, :]

    def start_radius(self):
        # contraction in Im z: |(lam - z)^(-alpha/2)|^2 <= Im(z)^-alpha
        k = float(np.max(np.sum(self.kw, axis=1))) if self.q else 0.0
        lip = abs(self.cbar) * cone_bound(self.a, 2.0 * self._alpha()) * k
        return (3.0 * max(lip, 1e-300)) ** (1.0 / self._alpha())


# ---------------------------------------------------------------------------
# generic iteration and continuation


def _picard(system: _System, z: complex, y0: np.ndarray,
            cfg: FixedPointConfig) -> FixedPointSolution:
    y = np.array(y0, dtype=complex)
    d = d_cap = DAMPING
    decreases = 0
    stalls = 0
    prev = math.inf
    res = math.inf
    for it in range(1, cfg.max_iter + 1):
        fy = system.apply(z, y)
        res = system.residual(z, y, fy)
        if res <= cfg.tol:
            return FixedPointSolution(
                z=z, unknowns=y, residual=res, iterations=it,
                cone=system.cone)
        if res > prev and d > 1e-3:
            d *= 0.5
            decreases = 0
            stalls = 0
        elif res > 0.97 * prev:
            # barely contracting: a complex multiplier of modulus ~1 is
            # beaten by averaging, so damp harder and keep it that way
            stalls += 1
            if stalls >= 10 and d > 1e-3:
                d *= 0.5
                d_cap = d
                stalls = 0
        else:
            stalls = 0
            decreases += 1
            if decreases >= 5 and d < d_cap:
                d = min(d_cap, 2.0 * d)
                decreases = 0
        prev = res
        y = (1.0 - d) * y + d * fy
    raise SolverError(
        f"no convergence at z={z}: residual {res:.3e} after {cfg.max_iter} "
        "iterations", unknowns=y, residual=res)


def _newton(system: _System, z: complex, y0: np.ndarray, tol: float,
            max_steps: int = 12) -> FixedPointSolution:
    """Newton's method for y = apply(z, y) from y0, the corrector of every
    path.

    A predicted solution at z, or one at a nearby z, is close enough for
    quadratic convergence, which beats the linear Picard rate when the
    contraction factor is near one (deep inside the bulk or close to the
    real axis).  ``iterations`` counts the Newton steps taken.  Raises
    SolverError, with the last unknowns and residual, when the residual is
    still above tol after max_steps steps, when it is non-finite or
    exceeds 100 times its best value so far, when the root lies outside
    the cone, or when g fails on the way (then chained as the cause).
    """
    y = np.array(y0, dtype=complex)
    res = best = math.inf
    try:
        for steps in range(max_steps + 1):
            fy = system.apply(z, y)
            res = system.residual(z, y, fy)
            if res <= tol or steps == max_steps or not math.isfinite(res) \
                    or res > 100.0 * best:
                break
            best = min(best, res)
            y = y + np.linalg.solve(system.jacobian(z, y), fy - y)
    except (ValueError, ArithmeticError) as exc:
        raise SolverError(f"Newton failed at z={z}: {exc}", unknowns=y,
                          residual=res) from exc
    if not res <= tol:   # also when the residual is nan
        raise SolverError(
            f"no convergence at z={z}: residual {res:.3e} after {steps} "
            "Newton steps", unknowns=y, residual=res)
    _check_cone(system, y, residual=res)
    return FixedPointSolution(z=z, unknowns=y, residual=res,
                              iterations=steps, cone=system.cone)


def _secant(z: complex, last: FixedPointSolution,
            before: Optional[FixedPointSolution]) -> np.ndarray:
    """Secant predictor at z through the last two solutions of a path, or
    the last one alone."""
    if before is None:
        return last.unknowns
    ratio = (z - last.z) / (last.z - before.z)
    return last.unknowns + ratio * (last.unknowns - before.unknowns)


def _continuation_step(system: _System, z: complex, y: np.ndarray,
                       cfg: FixedPointConfig,
                       guess: Optional[np.ndarray] = None
                       ) -> FixedPointSolution:
    """One continuation step to z from the solution y at a nearby point:
    Newton from guess (y when None), else damped Picard from y.  An
    arithmetic failure of g in Picard is a SolverError caused by it."""
    try:
        return _newton(system, z, y if guess is None else guess, cfg.tol)
    except SolverError:
        pass
    try:
        sol = _picard(system, z, y, cfg)
    except ArithmeticError as exc:
        raise SolverError(f"Picard failed at z={z}: {exc}",
                          unknowns=y) from exc
    _check_cone(system, sol.unknowns)
    return sol


def _check_cone(system: _System, y: np.ndarray,
                residual: Optional[float] = None):
    a = system.a
    for yi in y:
        if not cone_contains(system.cone, a, yi, 1e-9):
            raise SolverError(
                f"iterate {yi} left the cone {system.cone} "
                "(branch loss during continuation)", unknowns=y,
                residual=residual)


# log-step halvings of a ``_log_walk`` before its point falls back: on the
# real axis to the eps path, elsewhere to a continuation step (Newton and
# then Picard)
SWEEP_HALVINGS = 3


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


def _walk(system: _System, point: Callable[[float], complex],
          predict: Callable, x: float, pos: float, last: FixedPointSolution,
          before: Optional[FixedPointSolution], cfg: FixedPointConfig):
    """(last, before) with last the solution at point(x), walked by
    ``_log_walk`` from last at point(pos): each point z is ``_newton`` from
    predict(z, last, before), and a SolverError is a failed correction.
    When the halvings run out, point(x) takes a continuation step from the
    last point reached."""

    def correct(at, last, before):
        z = point(at)
        try:
            return _newton(system, z, predict(z, last, before), cfg.tol)
        except SolverError:
            return None

    last, before, pos, _, _ = _log_walk(x, pos, last, before, correct)
    if pos != x:
        z = point(x)
        before, last = last, _continuation_step(
            system, z, last.unknowns, cfg, predict(z, last, before))
    return last, before


def _solve(system: _System, z: complex,
           cfg: FixedPointConfig) -> FixedPointSolution:
    """The decaying-branch solution at z.

    Damped Picard from 0 runs at the contraction radius only.  The path
    then heads straight for z: its distance to z shrinks by
    CONTINUATION_FACTOR from point to point, each point reached by
    ``_walk`` with the secant predictor, until the next one would lie
    within 0.05|z| of z; the last step, to z itself, is one continuation
    step predicted by the secant through the last two solutions.
    """
    if z.imag <= 0:
        raise ValueError("z must lie in the open upper half-plane")
    sol = _picard(system, system.start_z(z), np.zeros(system.q, dtype=complex),
                  cfg)
    _check_cone(system, sol.unknowns)
    start = sol.z
    pos = dist = abs(start - z)
    before = None
    while CONTINUATION_FACTOR * pos >= 0.05 * abs(z):
        x = CONTINUATION_FACTOR * pos
        sol, before = _walk(system, lambda d: z + (d / dist) * (start - z),
                            _secant, x, pos, sol, before, cfg)
        pos = x
    if sol.z != z:
        sol = _continuation_step(system, z, sol.unknowns, cfg,
                                 _secant(z, sol, before))
    return sol


# ---------------------------------------------------------------------------
# public constructors and solvers


def wigner_system(a: AlphaParam) -> _BandSystem:
    return _BandSystem(a, np.array([1.0]), np.array([[1.0]]))


def band_system(a: AlphaParam, profile: SigmaProfile,
                cells: int = 6) -> _BandSystem:
    w, k = alpha_kernel(profile, a.alpha, cells=cells)
    return _BandSystem(a, w, k)


def wishart_system(a: AlphaParam, gamma: float) -> _WishartSystem:
    return _WishartSystem(a, gamma)


def perturbed_system(a: AlphaParam, profile: SigmaProfile,
                     diag: DiagonalLaw, cells: int = 6) -> _PerturbedSystem:
    w, k = alpha_kernel(profile, a.alpha, cells=cells)
    return _PerturbedSystem(a, w, k, diag)


def solve(system: _System, z: complex,
          cfg: FixedPointConfig = FixedPointConfig()) -> FixedPointSolution:
    """The decaying-branch solution of system at z (see ``_solve``)."""
    return _solve(system, complex(z), cfg)


def solve_wigner(a: AlphaParam, z: complex,
                 cfg: FixedPointConfig = FixedPointConfig()) -> FixedPointSolution:
    return _solve(wigner_system(a), complex(z), cfg)


def solve_band(a: AlphaParam, profile: SigmaProfile, z: complex,
               cfg: FixedPointConfig = FixedPointConfig()) -> FixedPointSolution:
    return _solve(band_system(a, profile), complex(z), cfg)


def solve_wishart_pair(a: AlphaParam, gamma: float, z: complex,
                       cfg: FixedPointConfig = FixedPointConfig()) -> FixedPointSolution:
    return _solve(wishart_system(a, gamma), complex(z), cfg)


def solve_perturbed(a: AlphaParam, profile: SigmaProfile, diag: DiagonalLaw,
                    z: complex,
                    cfg: FixedPointConfig = FixedPointConfig()) -> FixedPointSolution:
    return _solve(perturbed_system(a, profile, diag), complex(z), cfg)


# ---------------------------------------------------------------------------
# real-axis continuation


def continue_to_real_axis(system: _System, t: float,
                          eps_list: Sequence[float],
                          cfg: FixedPointConfig = FixedPointConfig()) -> list:
    """Solutions at z = t + i eps, one per point of a decreasing eps
    schedule.

    The first point is a cold solve; the path then walks from each point
    to the next by ``_walk`` in log eps, Newton from the eps secant
    through the last two solutions, with the log step halved when Newton
    fails and a continuation step (Newton, then damped Picard) when the
    halvings run out.  Negative t uses the conjugation symmetry
    Y(-conj z) = conj Y(z) of the unique decaying branch.
    """
    if t == 0:
        raise ValueError("t must be nonzero")
    eps_list = [float(e) for e in eps_list]
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must decrease strictly")
    if eps_list[-1] < 1e-6:
        raise ValueError("eps floor is 1e-6")
    if t < 0:
        path = continue_to_real_axis(system, -t, eps_list, cfg)
        return [FixedPointSolution(
            z=-sol.z.conjugate(), unknowns=np.conj(sol.unknowns),
            residual=sol.residual, iterations=sol.iterations,
            cone=sol.cone) for sol in path]

    out = []
    last = before = None
    for i, eps in enumerate(eps_list):
        try:
            if last is None:
                last = _solve(system, t + 1j * eps, cfg)
            else:
                last, before = _walk(system, lambda e: t + 1j * e, _secant,
                                     eps, last.z.imag, last, before, cfg)
        except SolverError as exc:
            exc.failure_index = i
            exc.partial_path = out
            raise
        out.append(last)
    return out


def near_critical(t: float, critical_points: Sequence[float]) -> bool:
    """Whether |t| lies within 1e-2 of a known critical point, where the
    boundary value may fail to be analytic."""
    return any(abs(abs(t) - c) < 1e-2 for c in critical_points)


def polish_on_axis(system, t: float, y: np.ndarray,
                   tol: float = 1e-13, max_iter: int = 40
                   ) -> FixedPointSolution:
    """Newton solution of the defining equation at real z = t > 0, from y:
    ``_newton`` on the real axis, in at most max_iter steps.

    The boundary values extend continuously to the real axis; a few Newton
    steps turn an iterate near the axis (the end of an eps path, or a
    prediction from neighbouring real-axis solutions) into a
    machine-precision fixed point, making the algebraically equivalent
    density formulas agree at full accuracy.
    """
    return _newton(system, complex(t), y, tol, max_iter)


# ---------------------------------------------------------------------------
# critical set


def find_critical_set(a: AlphaParam, box_radius: float = 6.0,
                      seeds_per_axis: int = 12,
                      tol: float = 1e-10) -> list:
    """Real points t > 0 where boundary analyticity may fail.

    Newton search for y in the cone with g(y) = y g'(y); each root whose
    t^alpha = C_alpha g'(y) is real and positive contributes t.
    """
    al = a.alpha
    half = al * math.pi / 2.0
    roots = []
    for i in range(seeds_per_axis):
        r = box_radius * (i + 1) / seeds_per_axis
        for j in range(seeds_per_axis):
            th = half * (2.0 * j / max(seeds_per_axis - 1, 1) - 1.0)
            y = r * cmath.exp(1j * th)
            y = _newton_degenerate(a, y)
            if y is None or not cone_contains(K_ALPHA, a, y, 1e-9):
                continue
            if abs(y) < 1e-8:
                continue
            roots.append(y)
    ts = []
    for y in roots:
        val = c_alpha(a) * g_alpha_prime(a, y)
        if val.real <= 0 or abs(val.imag) > 1e-8 * abs(val):
            continue
        t = val.real ** (1.0 / al)
        # self-check both defining equations
        eq1 = abs(g_alpha(a, y) - y * g_alpha_prime(a, y))
        eq2 = abs(principal_power(t, al) - val)
        if eq1 > 1e-8 or eq2 > 1e-8 * max(1.0, abs(val)):
            continue
        if all(abs(t - t0) > 1e-8 for t0 in ts):
            ts.append(t)
    return sorted(ts)


def _newton_degenerate(a: AlphaParam, y: complex, max_iter: int = 60):
    from .special import g_alpha_second

    for _ in range(max_iter):
        try:
            f = g_alpha(a, y) - y * g_alpha_prime(a, y)
            fp = -y * g_alpha_second(a, y)
        except (ValueError, ArithmeticError):
            return None
        if abs(fp) < 1e-300:
            return None
        step = f / fp
        y_new = y - step
        if not cone_contains(K_ALPHA, a, y_new, 0.15):
            return None
        if abs(step) < 1e-12 * max(1.0, abs(y_new)):
            return y_new
        y = y_new
    return None

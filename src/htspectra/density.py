"""Spectral measures from fixed-point solutions.

Stieltjes transforms, densities as boundary values, the Wishart atom at
zero, exact tail constants, and the closed-form reductions: alpha=2
semicircle, constant-profile scaling, band-to-constant equivalence, and the
gamma=1 covariance identity.

A single density point takes the per-point path: an eps continuation
towards the real axis, walked by Newton in log eps between the points of
the schedule, then a Newton polish on the axis (only
``density_band_detail`` also Richardson-extrapolates Im G over the last
continuation steps, as an independent check).  A density curve takes that
path once, at its largest grid point, and then sweeps down the grid on the
real axis: each point is predicted by a secant in log t through the last
two solutions and corrected by the same Newton polish, with the log step
halved on failure and the per-point path as the fallback (and always
within 1e-2 of a critical point).  Every computed point of a curve carries
a ``PointRecord`` of how it was obtained.  The Wishart atom at zero takes
one continuation path down the imaginary axis: damped Picard once at the
contraction radius, then ``solver._walk`` from half-decade to
half-decade, predicted by a power law in x through the last two
solutions.  Every correction is the solver's one Newton loop, and the
sweep and all walks share one halving walk, ``solver._log_walk``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .matrices import DiagonalLaw, SigmaProfile, band_alpha_integral
from .solver import (
    SWEEP_HALVINGS,
    FixedPointConfig,
    SolverError,
    _log_walk,
    _walk,
    band_system,
    continue_to_real_axis,
    near_critical,
    perturbed_system,
    polish_on_axis,
    solve,
    wigner_system,
    wishart_system,
)
from .special import AlphaParam, c_alpha, h_alpha, principal_power

_DENSITY_CFG = FixedPointConfig(max_iter=4000)

__all__ = [
    "DensityCurve",
    "PointRecord",
    "stieltjes_band",
    "density_band",
    "density_wigner_formula",
    "density_wishart",
    "atom_at_zero_wishart",
    "stieltjes_perturbed",
    "tail_constant",
    "build_density_curve",
    "semicircle_density",
    "semicircle_cdf",
    "default_eps_schedule",
]

EPS_FLOOR = 1e-6


def default_eps_schedule(start: float = 0.5, factor: float = 0.1,
                         floor: float = EPS_FLOOR) -> list:
    """The eps values of the per-point path: start, then a factor per
    point, down to floor (0.5, 0.05, ..., 5e-6, 1e-6 by default).

    They are the path's coarse points: ``continue_to_real_axis`` walks
    between neighbours in log eps and halves the step where Newton fails,
    so a hard case still gets short steps.
    """
    eps = [start]
    while eps[-1] > floor:
        eps.append(max(eps[-1] * factor, floor))
    return eps


# ---------------------------------------------------------------------------
# closed forms


def semicircle_density(t: float) -> float:
    return math.sqrt(max(4.0 - t * t, 0.0)) / (2.0 * math.pi)


def semicircle_cdf(t: float) -> float:
    if t <= -2.0:
        return 0.0
    if t >= 2.0:
        return 1.0
    return 0.5 + t * math.sqrt(4.0 - t * t) / (4.0 * math.pi) \
        + math.asin(t / 2.0) / math.pi


# ---------------------------------------------------------------------------
# transforms


def _band_G(a: AlphaParam, z: complex, y: np.ndarray,
            weights: np.ndarray) -> complex:
    hs = np.array([h_alpha(a, yi) for yi in y])
    return complex(np.sum(weights * hs) / z)


def stieltjes_band(a: AlphaParam, profile: SigmaProfile, z: complex,
                   cfg: FixedPointConfig = _DENSITY_CFG) -> complex:
    system = band_system(a, profile)
    sol = solve(system, z, cfg)
    return _band_G(a, sol.z, sol.unknowns, system.weights)


def stieltjes_perturbed(a: AlphaParam, profile: SigmaProfile,
                        diag: DiagonalLaw, z: complex,
                        cfg: FixedPointConfig = _DENSITY_CFG) -> complex:
    system = perturbed_system(a, profile, diag)
    sol = solve(system, z, cfg)
    x = sol.unknowns
    total = 0.0 + 0.0j
    for lam, w in diag.atoms:
        p = principal_power(lam - z, -0.5 * a.alpha)
        hs = np.array([h_alpha(a, p * xs) for xs in x])
        total += w / (z - lam) * complex(np.sum(system.weights * hs))
    return total


# ---------------------------------------------------------------------------
# Plemelj boundary values


def _richardson_at_zero(eps: np.ndarray, vals: np.ndarray) -> float:
    """Polynomial extrapolation of samples (eps_k, v_k) to eps = 0."""
    deg = min(2, eps.size - 1)
    return float(np.polynomial.polynomial.polyfit(eps, vals, deg)[0])


def _boundary_solution(system, t: float, cfg: FixedPointConfig,
                       eps_schedule: Optional[Sequence[float]]):
    """The per-point path at real t != 0: (eps continuation path, polished
    solution at |t|)."""
    # a numpy scalar t would carry numpy complex arithmetic into the
    # solver, whose powers differ from Python's in the last bit: the same t
    # must give the same solution whatever its type
    t = float(t)
    if eps_schedule is None:
        eps_schedule = default_eps_schedule()
    path = continue_to_real_axis(system, t, eps_schedule, cfg)
    y = path[-1].unknowns
    return path, polish_on_axis(system, abs(t), y if t > 0 else np.conj(y))


def _band_rho(a: AlphaParam, weights: np.ndarray, t: float,
              y: np.ndarray) -> float:
    """-(1/(pi t)) sum_s Delta_s Im h(Y_s) from polished unknowns at t."""
    hs = np.array([h_alpha(a, yi) for yi in y])
    return -float(np.sum(weights * hs.imag)) / (math.pi * t)


def _wigner_rho(a: AlphaParam, t: float, y: np.ndarray,
                agreement_tol: float = 1e-8) -> float:
    """Constant-profile density at t > 0 from the polished unknown, by both
    algebraically equivalent expressions, which must agree."""
    yv = y[0]
    al = a.alpha
    expr1 = -h_alpha(a, yv).imag / (math.pi * t)
    if a.alpha_two_mode:
        i_pow = -1.0 + 0.0j
        c_abs = 1.0
    else:
        i_pow = principal_power(1j, -al)
        c_abs = abs(c_alpha(a))
    expr2 = al * t ** (al - 1.0) / (2.0 * c_abs * math.pi) \
        * (i_pow * yv * yv).imag
    if abs(expr1 - expr2) > agreement_tol * max(1.0, abs(expr1)):
        raise ArithmeticError(
            f"density expressions disagree at t={t}: {expr1} vs {expr2}")
    return expr1


def _wishart_rho(a: AlphaParam, t: float, y: np.ndarray) -> float:
    """Covariance density at t > 0 from the polished pair at sqrt(t)."""
    return -h_alpha(a, y[0]).imag / (math.pi * t)


def _band_boundary(a, profile, t, eps_schedule, cfg):
    """(system, eps path, density) of a band profile at real t != 0."""
    if t == 0:
        raise ValueError("t must be nonzero")
    system = band_system(a, profile)
    path, sol = _boundary_solution(system, t, cfg, eps_schedule)
    y = sol.unknowns if t > 0 else np.conj(sol.unknowns)
    return system, path, _band_rho(a, system.weights, t, y)


def density_band(a: AlphaParam, profile: SigmaProfile, t: float,
                 eps_schedule: Optional[Sequence[float]] = None,
                 cfg: FixedPointConfig = _DENSITY_CFG) -> float:
    return _band_boundary(a, profile, t, eps_schedule, cfg)[2]


def density_band_detail(a: AlphaParam, profile: SigmaProfile, t: float,
                        eps_schedule: Optional[Sequence[float]] = None,
                        cfg: FixedPointConfig = _DENSITY_CFG):
    """(density, Plemelj-extrapolated density, eps reached) at real t != 0.

    The returned density evaluates -(1/(pi t)) sum_s Delta_s Im h(Y_s(t))
    at the polished real-axis solution; the second value is the independent
    -(1/pi) Im G(t + i eps) extrapolation, kept for consistency checking.
    """
    system, path, value = _band_boundary(a, profile, t, eps_schedule, cfg)
    tail = path[-3:]
    eps = np.array([p.z.imag for p in tail])
    im_g = np.array([_band_G(a, p.z, p.unknowns, system.weights).imag
                     for p in tail])
    return value, -_richardson_at_zero(eps, im_g) / math.pi, float(eps[-1])


def density_wigner_formula(a: AlphaParam, t: float,
                           eps_schedule: Optional[Sequence[float]] = None,
                           cfg: FixedPointConfig = _DENSITY_CFG,
                           agreement_tol: float = 1e-8) -> float:
    """Density of the constant-profile limit at t != 0, computed from both
    algebraically equivalent expressions, which must agree."""
    if t == 0:
        raise ValueError("t must be nonzero")
    _, sol = _boundary_solution(wigner_system(a), abs(t), cfg, eps_schedule)
    return _wigner_rho(a, abs(t), sol.unknowns, agreement_tol)


def _gamma_one_scale(a: AlphaParam, gamma: float) -> Optional[float]:
    """The scale s of the exact gamma=1 reduction of the covariance density
    to the constant-profile one, rho(t) = (s/sqrt t) rho_W(s sqrt t); None
    for gamma < 1."""
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must lie in (0, 1]")
    if gamma < 1.0:
        return None
    # the 2^(1/alpha) rescaling is the heavy-tail quantile ratio a_{2N}/a_N
    # and is absent in the finite-variance limit branch
    return 1.0 if a.alpha_two_mode else 2.0 ** (1.0 / a.alpha)


def density_wishart(a: AlphaParam, gamma: float, t: float,
                    eps_schedule: Optional[Sequence[float]] = None,
                    cfg: FixedPointConfig = _DENSITY_CFG) -> float:
    """Density of the covariance limit at t > 0."""
    if t <= 0:
        raise ValueError("t must be positive")
    s = _gamma_one_scale(a, gamma)
    if s is not None:
        return s / math.sqrt(t) * density_wigner_formula(
            a, s * math.sqrt(t), eps_schedule, cfg)
    _, sol = _boundary_solution(wishart_system(a, gamma), math.sqrt(t), cfg,
                                eps_schedule)
    return _wishart_rho(a, t, sol.unknowns)


def _power_law(z: complex, last, before) -> np.ndarray:
    """Unknowns predicted at z = ix by the power law in x through the last
    two solutions on the imaginary axis, or the last one alone; exact for
    unknowns that are constant or proportional to a power of x."""
    if before is None:
        return last.unknowns
    r = math.log(z.imag / last.z.imag) / math.log(last.z.imag / before.z.imag)
    return last.unknowns * (last.unknowns / before.unknowns) ** r


def atom_at_zero_wishart(a: AlphaParam, gamma: float,
                         cfg: FixedPointConfig = _DENSITY_CFG) -> float:
    """Mass of the atom at zero of the covariance limit, from the radial
    limit of z G(z): extrapolate h(Y1(ix)) to x = 0.

    One continuation path down the imaginary axis at x = 0.1 * 10^(k/2),
    from the first such x at or above the contraction radius, where the
    cold solve is damped Picard only, to 1e-4; every later point is
    reached by ``_walk`` with a power-law predictor (``_power_law``),
    which follows Y1 -> const and Y2 ~ x^-alpha.  When its halvings run
    out, the point takes a continuation step from the last one, Newton
    and then damped Picard.  The last seven points are fitted by a
    quadratic in x.  Raises SolverError, with the unknowns,
    when h(Y1(ix)) leaves the real axis.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    system = wishart_system(a, gamma)
    xs = np.array([1e-1, 10 ** -1.5, 1e-2, 10 ** -2.5, 1e-3, 10 ** -3.5, 1e-4])
    # the path: x = 0.1 * 10^(k/2) from the first one at or above the
    # contraction radius down to xs[-1]
    top = math.ceil(2.0 * math.log10(system.start_radius() / xs[0]))
    path = [xs[0] * 10.0 ** (k / 2.0) for k in range(top, 0, -1)] + list(xs)

    last, before = solve(system, 1j * path[0], cfg), None
    vals = []
    for x in map(float, path):
        last, before = _walk(system, lambda s: 1j * s, _power_law, x,
                             last.z.imag, last, before, cfg)
        if x > xs[0]:
            continue
        h1 = h_alpha(a, last.unknowns[0])
        if abs(h1.imag) > 1e-6:
            raise SolverError("h(Y1(ix)) drifted off the real axis",
                              unknowns=last.unknowns, residual=last.residual)
        vals.append(h1.real)
    vals = np.array(vals)
    fit = np.polynomial.polynomial.polyfit(xs, vals, 2)
    extrap = float(fit[0])
    if not np.isfinite(extrap):
        raise ArithmeticError("atom extrapolation diverged")
    return extrap


# ---------------------------------------------------------------------------
# tails


def tail_constant(a: AlphaParam, profile: SigmaProfile,
                  with_fit: bool = False):
    """(alpha/2) * double integral of |sigma|^alpha, exactly.

    With ``with_fit`` the t^(-alpha-1) tail law is also fitted to computed
    densities at t in {50, 100, 200} and the worst relative discrepancy of
    the fitted constant is returned alongside.
    """
    al = a.alpha
    if profile.variant == "band":
        integral = band_alpha_integral(profile, al)
    else:
        _, m, w = profile.cells()
        integral = float(w @ (np.abs(m) ** al) @ w)
    const = 0.5 * al * integral
    if not with_fit:
        return const
    ts = np.array([50.0, 100.0, 200.0])
    rhos = np.array([density_band(a, profile, t) for t in ts])
    fitted = rhos * ts ** (al + 1.0)
    disc = float(np.max(np.abs(fitted - const)) / max(const, 1e-300))
    return const, disc


def _wishart_tail_constant(a: AlphaParam, gamma: float) -> float:
    return a.alpha * gamma / (2.0 * (1.0 + gamma))


# ---------------------------------------------------------------------------
# curves


@dataclass(frozen=True)
class DensityCurve:
    """A computed density on a grid, with atom and tail closure.

    For symmetric models the grid covers both signs; for covariance models
    it is positive with atom_at_zero carrying the point mass.
    """

    alpha: float
    model: str
    grid: np.ndarray
    rho: np.ndarray
    atom_at_zero: float = 0.0
    tail_constant_estimate: float = 0.0
    tail_exponent: float = 0.0   # rho ~ c * t^(-tail_exponent) beyond the grid
    eps_floor: float = EPS_FLOOR
    symmetric: bool = True
    points: tuple = ()   # one PointRecord per computed t > 0, in grid order

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        r = np.asarray(self.rho, dtype=float)
        if g.size != r.size or g.size < 2:
            raise ValueError("grid and rho must have equal length >= 2")
        if len(self.points) > g.size:
            raise ValueError("more point records than grid points")
        if np.any(np.diff(g) <= 0):
            raise ValueError("grid must increase strictly")
        if np.any(r < -1e-9):
            raise ValueError("negative density beyond tolerance")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "rho", np.maximum(r, 0.0))

    # -- mass accounting ---------------------------------------------------

    def _tail_mass_beyond(self, T: float) -> float:
        """Closure integral of c*t^(-p) over (T, infinity), one side."""
        c, p = self.tail_constant_estimate, self.tail_exponent
        if c <= 0 or p <= 1 or T <= 0:
            return 0.0
        return c / ((p - 1.0) * T ** (p - 1.0))

    def _gap_mass(self) -> float:
        """Mass of a one-sided grid's gap [0, grid[0]) at density
        rho(grid[0]); a symmetric grid's trapezoid already spans the gap
        around 0."""
        if self.symmetric:
            return 0.0
        return max(float(self.grid[0]), 0.0) * float(self.rho[0])

    def total_mass(self) -> float:
        body = float(np.trapezoid(self.rho, self.grid))
        tails = self._tail_mass_beyond(float(self.grid[-1]))
        if self.symmetric:
            tails += self._tail_mass_beyond(float(-self.grid[0]))
        return self.atom_at_zero + body + tails + self._gap_mass()

    def cdf(self) -> Callable[[float], float]:
        """Piecewise-linear CDF with atom and analytic tail closure."""
        g, r = self.grid, self.rho
        cum = np.concatenate([[0.0], np.cumsum(
            0.5 * (r[1:] + r[:-1]) * np.diff(g))])
        # continuous mass below grid[0]: a symmetric curve's left tail, a
        # one-sided curve's gap
        below = self._tail_mass_beyond(float(-g[0])) if self.symmetric \
            else self._gap_mass()
        total = self.total_mass()

        def f(t: float) -> float:
            if t < g[0]:
                if total <= 0:
                    return 0.0
                if self.symmetric:
                    return self._tail_mass_beyond(-t) / total
                return 0.0 if t < 0 else (self.atom_at_zero + t * r[0]) / total
            acc = below + (self.atom_at_zero if t >= 0 else 0.0)
            if t >= g[-1]:
                acc += cum[-1]
                acc += self._tail_mass_beyond(float(g[-1])) \
                    - self._tail_mass_beyond(t)
            else:
                j = int(np.searchsorted(g, t, side="right")) - 1
                frac = (t - g[j]) / (g[j + 1] - g[j])
                rho_t = r[j] + frac * (r[j + 1] - r[j])
                acc += cum[j] + 0.5 * (r[j] + rho_t) * (t - g[j])
            return min(acc / total, 1.0) if total > 0 else 0.0

        return f

    # -- serialization -----------------------------------------------------

    def to_csv(self) -> str:
        lines = ["t,rho"]
        for t, r in zip(self.grid, self.rho):
            lines.append(f"{float(t)!r},{float(r)!r}")
        return "\n".join(lines) + "\n"

    def sidecar(self) -> dict:
        return {
            "alpha": self.alpha,
            "model": self.model,
            "atom_at_zero": self.atom_at_zero,
            "tail_constant": self.tail_constant_estimate,
            "tail_exponent": self.tail_exponent,
            "mass_check": self.total_mass(),
            "eps_floor": self.eps_floor,
            "symmetric": self.symmetric,
            # the records belong to the last len(points) grid values, t > 0
            "points": [p.to_json(t) for t, p in zip(
                self.grid[self.grid.size - len(self.points):], self.points)],
        }

    @staticmethod
    def from_csv(text: str, sidecar: dict) -> "DensityCurve":
        lines = text.strip().splitlines()
        if not lines or lines[0].strip() != "t,rho":
            raise ValueError("expected header 't,rho'")
        ts, rs = [], []
        for ln, line in enumerate(lines[1:], start=2):
            try:
                t_s, r_s = line.split(",")
                ts.append(float(t_s))
                rs.append(float(r_s))
            except ValueError as exc:
                raise ValueError(f"bad density row at line {ln}: {line!r}") from exc
        return DensityCurve(
            alpha=float(sidecar["alpha"]), model=str(sidecar["model"]),
            grid=np.array(ts), rho=np.array(rs),
            atom_at_zero=float(sidecar.get("atom_at_zero", 0.0)),
            tail_constant_estimate=float(sidecar.get("tail_constant", 0.0)),
            tail_exponent=float(sidecar.get("tail_exponent", 0.0)),
            eps_floor=float(sidecar.get("eps_floor", EPS_FLOOR)),
            symmetric=bool(sidecar.get("symmetric", True)))


def _log_grid(t_min: float, t_max: float, points: int) -> np.ndarray:
    return np.geomspace(t_min, t_max, points)


# ---------------------------------------------------------------------------
# real-axis sweep


# Newton steps of one sweep correction, the eps path corrector's budget;
# from a secant prediction Newton converges in at most 9 on the tested
# curves, and slower progress means a far prediction or g's noise floor
SWEEP_NEWTON_STEPS = 12


@dataclass(frozen=True)
class PointRecord:
    """How one density point at t > 0 was obtained.

    ``method`` is "sweep" (Newton on the real axis from neighbouring
    solutions) or "eps" (the per-point eps path, then the polish);
    ``newton_iterations`` counts the Newton steps of the polishes accepted
    on the way to the point (intermediate points of halved steps, the
    settling step), ``residual`` is its final residual, ``halvings``
    counts the failed corrections that halved the log-t step, and
    ``eps_reached`` is the last eps of an eps point.
    """

    method: str
    newton_iterations: int
    residual: float
    halvings: int = 0
    eps_reached: Optional[float] = None

    def to_json(self, t: float) -> dict:
        return {"t": float(t), **asdict(self)}


def _log_secant(x: float, last, before) -> np.ndarray:
    """Unknowns predicted at real x > 0 by the secant in log x through the
    last two real-axis solutions, or the last one alone."""
    if before is None:
        return last.unknowns
    ratio = math.log(x / last.z.real) / math.log(last.z.real / before.z.real)
    return last.unknowns + ratio * (last.unknowns - before.unknowns)


def _settled(system, sol):
    """sol after one more Newton step, kept if it at least halves the
    residual.

    Newton stops as soon as the residual passes tol.  From a sweep
    prediction that can be a step short of the accuracy the per-point
    polish reaches from eps = 1e-6, which shows where rho is a small
    imaginary part of order-one unknowns (the covariance density near 0).
    """
    try:
        step = polish_on_axis(system, sol.z.real, sol.unknowns,
                              tol=0.5 * sol.residual, max_iter=1)
    except SolverError:
        return sol
    return replace(step, iterations=sol.iterations + step.iterations)


def _sweep_real_axis(system, xs: np.ndarray, cfg: FixedPointConfig,
                     eps_schedule: Sequence[float],
                     critical_points: Sequence[float] = ()):
    """(polished solutions, PointRecords) at the increasing grid xs > 0.

    Predictor-corrector continuation along the real axis (Allgower-Georg).
    The largest point takes the per-point path: the eps continuation, then
    the polish.  Walking down, each point is predicted by the log-x secant
    and corrected by ``polish_on_axis`` in at most SWEEP_NEWTON_STEPS
    Newton steps, which accepts only a residual within its tolerance and
    unknowns inside the cone, then ``_settled`` by one more Newton step;
    ``_log_walk`` halves the log step on a failed correction.  When the
    halvings run out, and within 1e-2 of a critical point, the point takes
    the per-point path and the sweep continues from there.
    """
    sols = [None] * len(xs)
    records = [None] * len(xs)
    last = before = None

    def correct(at, last, before):
        try:
            point = polish_on_axis(system, at, _log_secant(at, last, before),
                                   max_iter=SWEEP_NEWTON_STEPS)
        except SolverError:
            return None
        return _settled(system, point) if at == x else point

    for i in range(len(xs) - 1, -1, -1):
        x = float(xs[i])
        sol = None
        halvings = newton = 0
        if last is not None and not near_critical(x, critical_points):
            last, before, reached, halvings, newton = _log_walk(
                x, last.z.real, last, before, correct)
            if reached == x:
                sol = last
        if sol is None:
            path, sol = _boundary_solution(system, x, cfg, eps_schedule)
            before, last = last, sol
            records[i] = PointRecord("eps", newton + sol.iterations,
                                     sol.residual, halvings,
                                     path[-1].z.imag)
        else:
            records[i] = PointRecord("sweep", newton, sol.residual,
                                     halvings)
        sols[i] = sol
    return sols, records


def build_density_curve(a: AlphaParam, model: str,
                        profile: Optional[SigmaProfile] = None,
                        gamma: float = 1.0,
                        diag: Optional[DiagonalLaw] = None,
                        t_min: float = 1e-3, t_max: float = 1e3,
                        points: int = 400,
                        cfg: FixedPointConfig = _DENSITY_CFG,
                        critical_points: Sequence[float] = (),
                        eps_schedule: Optional[Sequence[float]] = None
                        ) -> DensityCurve:
    """Compute a density curve over a log-spaced grid.

    model is one of wigner | band | wishart; symmetric models are computed
    on t > 0 and mirrored, the covariance model in sqrt(t) (at gamma = 1
    through its exact reduction to the constant-profile density).
    (Perturbed ensembles expose transforms, not densities, at this
    surface.)  The grid is solved by ``_sweep_real_axis``: one per-point
    eps path along ``eps_schedule`` (default: ``default_eps_schedule()``),
    whose last step is recorded as the curve's ``eps_floor``, then Newton
    on the real axis from point to point.  ``critical_points`` (values of
    t, for the symmetric models) force the per-point path within 1e-2 of
    each.  The curve's ``points`` record how each t > 0 was solved.
    """
    if eps_schedule is None:
        eps_schedule = default_eps_schedule()
    ts = _log_grid(t_min, t_max, points)
    # the system, its grid xs, and rho(t, x, polished unknowns at x)
    if model == "wigner":
        system, xs = wigner_system(a), ts
        rho_at = lambda t, x, y: _wigner_rho(a, x, y)
    elif model == "band":
        if profile is None:
            raise ValueError("band model needs a profile")
        system, xs = band_system(a, profile), ts
        rho_at = lambda t, x, y: _band_rho(a, system.weights, x, y)
    elif model == "wishart":
        scale = _gamma_one_scale(a, gamma)
        if scale is None:
            system, xs = wishart_system(a, gamma), np.sqrt(ts)
            rho_at = lambda t, x, y: _wishart_rho(a, t, y)
        else:
            system, xs = wigner_system(a), scale * np.sqrt(ts)
            rho_at = lambda t, x, y: \
                scale / math.sqrt(t) * _wigner_rho(a, x, y)
        critical_points = ()
    else:
        raise ValueError(f"unknown model {model!r}")
    sols, records = _sweep_real_axis(system, xs, cfg, eps_schedule,
                                     critical_points)
    rho = np.array([rho_at(t, x, sol.unknowns)
                    for t, x, sol in zip(ts, xs, sols)])
    if model == "wishart":
        tail_c = _wishart_tail_constant(a, gamma)
        tail_p = 1.0 + 0.5 * a.alpha
        atom = 0.0 if gamma >= 1.0 else atom_at_zero_wishart(a, gamma, cfg)
        grid = ts
        symmetric = False
    else:
        tail_c = 0.5 * a.alpha if model == "wigner" \
            else tail_constant(a, profile)
        tail_p = a.alpha + 1.0
        atom = 0.0
        grid = np.concatenate([-ts[::-1], ts])
        rho = np.concatenate([rho[::-1], rho])
        symmetric = True
    return DensityCurve(alpha=a.alpha, model=model, grid=grid, rho=rho,
                        atom_at_zero=atom, tail_constant_estimate=tail_c,
                        tail_exponent=tail_p,
                        eps_floor=float(eps_schedule[-1]),
                        symmetric=symmetric, points=tuple(records))

"""Spectral measures from fixed-point solutions.

Stieltjes transforms, densities as boundary values, the Wishart atom at
zero, exact tail constants, and the closed-form reductions: alpha=2
semicircle, constant-profile scaling and band-to-constant equivalence.
Every band, Wigner and perturbed transform, and the band and Wigner
densities -Im G(t)/pi, read the system's one Stieltjes formula
``G`` (``solver._BandSystem``).
Every covariance density, gamma=1 included, is solved from the pair; the
gamma=1 identity with the constant-profile density is a test oracle.

One model table (``_MODELS``) gives each model its system, the abscissa
x(t) it is solved at, its density formula and its tail law, and every
density, a single point (``density_point``) or a curve
(``build_density_curve``), is solved through one helper around
``_sweep_real_axis``.  Its first (largest) point takes the per-point path:
an eps continuation towards the real axis along ``EPS_SCHEDULE``, walked by
Newton in log eps between its points, then a Newton polish on the axis.
The sweep then runs down the grid on the real axis: each point is
predicted by a secant in log x through the last two solutions and
corrected by the same Newton polish, with the log step halved on failure
(``solver._log_walk``) and the per-point path as the fallback.  Every
computed point carries a ``PointRecord`` of how it was obtained.  The
Wishart atom at zero is the closed form 1 - gamma
(``atom_at_zero_wishart`` gives the derivation); no solve computes it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Callable, Optional

import numpy as np

from .matrices import DiagonalLaw, SigmaProfile, alpha_kernel
from .solver import (
    SolverError,
    _log_walk,
    _newton,
    _System,
    band_system,
    continue_to_real_axis,
    perturbed_system,
    polish_on_axis,
    solve,
    wigner_system,
    wishart_system,
)
from .special import AlphaParam, c_alpha, h_alpha

__all__ = [
    "DensityCurve",
    "PointRecord",
    "EPS_SCHEDULE",
    "stieltjes_band",
    "density_point",
    "density_band",
    "density_wigner_formula",
    "density_wishart",
    "atom_at_zero_wishart",
    "stieltjes_perturbed",
    "tail_constant",
    "build_density_curve",
    "semicircle_density",
    "semicircle_cdf",
]

# The eps values of the per-point path: 0.5, then a tenth of the last one
# (as the product in floating point, hence the trailing digits), down to
# 1e-6, the floor of ``continue_to_real_axis``.  They are the path's coarse
# points: it walks between neighbours in log eps and halves the step where
# Newton fails, so a hard case still gets short steps.
EPS_SCHEDULE = (0.5, 0.05, 0.005000000000000001, 0.0005000000000000001,
                5.0000000000000016e-05, 5.000000000000002e-06, 1e-06)
# relative agreement demanded of the two constant-profile density formulas
WIGNER_AGREEMENT = 1e-8
# a density down to -RHO_ROUNDOFF is roundoff and reads 0; below it, the
# solution has left the density's branch
RHO_ROUNDOFF = 1e-9


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


def stieltjes_band(a: AlphaParam, profile: SigmaProfile,
                   z: complex) -> complex:
    """G(z) of a band profile: the system's transform at its solution."""
    system = band_system(a, profile)
    sol = solve(system, z)
    return system.G(sol.z, sol.unknowns)


def stieltjes_perturbed(a: AlphaParam, profile: SigmaProfile,
                        diag: DiagonalLaw, z: complex) -> complex:
    """G(z) of the diagonally perturbed ensemble: the perturbed system's
    transform, one term per atom of diag, at its solution."""
    system = perturbed_system(a, profile, diag)
    sol = solve(system, z)
    return system.G(sol.z, sol.unknowns)


# ---------------------------------------------------------------------------
# Plemelj boundary values


def _boundary_solution(system, t: float):
    """The per-point path at real t > 0: (eps continuation path along
    ``EPS_SCHEDULE``, polished solution at t)."""
    path = continue_to_real_axis(system, t, EPS_SCHEDULE)
    return path, polish_on_axis(system, t, path[-1].unknowns)


def _wigner_rho(system, t: float, y: np.ndarray) -> float:
    """Constant-profile density -Im G(t)/pi at t > 0 from the polished
    unknown, checked against an algebraically equivalent expression."""
    a = system.a
    yv = y[0]
    al = a.alpha
    expr1 = -system.G(t, y).imag / math.pi
    c = c_alpha(a)
    c_abs = abs(c)
    i_pow = c.conjugate() / c_abs   # i^-alpha; exactly -1 at alpha = 2
    expr2 = al * t ** (al - 1.0) / (2.0 * c_abs * math.pi) \
        * (i_pow * yv * yv).imag
    if abs(expr1 - expr2) > WIGNER_AGREEMENT * max(1.0, abs(expr1)):
        raise ArithmeticError(
            f"density expressions disagree at t={t}: {expr1} vs {expr2}")
    return float(expr1)


def _wishart_rho(a: AlphaParam, t: float, y: np.ndarray) -> float:
    """Covariance density at t > 0 from the polished pair at sqrt(t)."""
    return float(-h_alpha(a, y[0]).imag / (math.pi * t))


def atom_at_zero_wishart(gamma: float) -> float:
    """Mass of the atom at zero of the covariance limit: exactly 1 - gamma.

    The N x M sample matrix has rank at most M, so the N x N covariance
    matrix has at least N - M zero eigenvalues: the atom is at least
    1 - gamma.  The atom is the limit of -w G(w) as w = (ix)^2 -> 0, which
    is lim h(Y1(ix)) for the pair solution at z = ix (the density is
    -Im h(Y1(sqrt t)) / (pi t)).  The pair identity
    h(Y1) = 1 - gamma + gamma h(Y2) holds at every z, so the atom is
    1 - gamma + gamma a2 with a2 = lim h(Y2(ix)), the atom of the M x M
    companion.  Down the imaginary axis Y2(ix) grows like x^-alpha inside
    the cone K_alpha, where h(y) -> 0 as |y| -> infinity, so a2 = 0.  The
    test suite checks this companion term on the solved path.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    return 1.0 - gamma


# ---------------------------------------------------------------------------
# tails


def tail_constant(a: AlphaParam, profile: SigmaProfile) -> float:
    """(alpha/2) * double integral of |sigma|^alpha, exactly."""
    w, k = alpha_kernel(profile, a.alpha)
    return 0.5 * a.alpha * float(w @ k @ w)


# ---------------------------------------------------------------------------
# the model table and single density points


@dataclass(frozen=True)
class _Model:
    """How the density of one model is solved: its system, the abscissa
    x(t) > 0 on the real axis it is solved at, rho(t, x, polished unknowns
    at x), and the law rho ~ tail_c * t^(-tail_p) beyond a grid.  A
    symmetric density is even in t; the covariance density lives on t > 0
    and carries the atom at zero."""

    system: _System
    x: Callable[[float], float]
    rho: Callable[[float, float, np.ndarray], float]
    tail_c: float
    tail_p: float
    symmetric: bool = True
    atom: float = 0.0


def _wigner_model(a, profile, gamma) -> _Model:
    system = wigner_system(a)
    return _Model(system, abs, lambda t, x, y: _wigner_rho(system, x, y),
                  0.5 * a.alpha, a.alpha + 1.0)


def _band_model(a, profile, gamma) -> _Model:
    if profile is None:
        raise ValueError("band model needs a profile")
    system = band_system(a, profile)
    return _Model(system, abs,
                  lambda t, x, y: float(-system.G(x, y).imag / math.pi),
                  tail_constant(a, profile), a.alpha + 1.0)


def _wishart_model(a, profile, gamma) -> _Model:
    # the pair at sqrt(t) for every gamma in (0, 1]
    return _Model(wishart_system(a, gamma), math.sqrt,
                  lambda t, x, y: _wishart_rho(a, t, y),
                  a.alpha * gamma / (2.0 * (1.0 + gamma)),
                  1.0 + 0.5 * a.alpha, symmetric=False,
                  atom=0.0 if gamma >= 1.0 else atom_at_zero_wishart(gamma))


_MODELS = {"wigner": _wigner_model, "band": _band_model,
           "wishart": _wishart_model}


def _model(a: AlphaParam, model: str, profile: Optional[SigmaProfile],
           gamma: float) -> _Model:
    if model not in _MODELS:
        raise ValueError(f"unknown model {model!r}")
    m = _MODELS[model](a, profile, gamma)
    # at alpha = 2 the support is compact: no mass lies beyond a grid
    # that covers it, so no tail closes the curve
    return replace(m, tail_c=0.0) if a.alpha_two_mode else m


def density_point(a: AlphaParam, model: str, t: float,
                  profile: Optional[SigmaProfile] = None,
                  gamma: float = 1.0):
    """(rho(t), PointRecord) of one model (wigner | band | wishart) at
    real t, by the per-point path at x(t): a symmetric density at t != 0
    is the one at |t|, the covariance density needs t > 0.  rho is clipped
    at 0; a density below -RHO_ROUNDOFF is an ArithmeticError."""
    m = _model(a, model, profile, gamma)
    if not math.isfinite(t) or t == 0 or (t < 0 and not m.symmetric):
        raise ValueError(f"t={t} is not a point of the {model} density, "
                         f"which lives on t {'!= 0' if m.symmetric else '> 0'}")
    rho, records = _solve_density(m, [float(t)])
    return float(rho[0]), records[0]


def density_band(a: AlphaParam, profile: SigmaProfile, t: float) -> float:
    """Density of a band profile at real t != 0 (``density_point``)."""
    return density_point(a, "band", t, profile=profile)[0]


def density_wigner_formula(a: AlphaParam, t: float) -> float:
    """Density of the constant-profile limit at real t != 0, whose two
    algebraically equivalent expressions must agree (``density_point``)."""
    return density_point(a, "wigner", t)[0]


def density_wishart(a: AlphaParam, gamma: float, t: float) -> float:
    """Density of the covariance limit at t > 0 (``density_point``)."""
    return density_point(a, "wishart", t, gamma=gamma)[0]


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
        if np.any(r < -RHO_ROUNDOFF):
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
            symmetric=bool(sidecar.get("symmetric", True)))


# ---------------------------------------------------------------------------
# real-axis sweep


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
    residual; the step starts from the linearization that sol's last
    Newton step left at its unknowns.

    The step runs at sol's own z object, so the system reuses the
    quantities per z that the polish computed there.

    Newton stops as soon as the residual passes tol.  From a sweep
    prediction that can be a step short of the accuracy the per-point
    polish reaches from eps = 1e-6, which shows where rho is a small
    imaginary part of order-one unknowns (the covariance density near 0).
    """
    try:
        step = _newton(system, sol.z, sol.unknowns,
                       0.5 * sol.residual, 1, sol.linearization)
    except SolverError:
        return sol
    return replace(step, iterations=sol.iterations + step.iterations)


def _sweep_real_axis(system, xs):
    """(polished solutions, PointRecords) at the increasing grid xs > 0.

    Predictor-corrector continuation along the real axis (Allgower-Georg).
    The largest point takes the per-point path: the eps continuation, then
    the polish.  Walking down, each point is predicted by the log-x secant
    and corrected by ``polish_on_axis`` in at most NEWTON_STEPS
    Newton steps, which accepts only a residual within its tolerance and
    unknowns inside the cone, then ``_settled`` by one more Newton step;
    ``_log_walk`` halves the log step on a failed correction.  When the
    halvings run out, the point takes the per-point path and the sweep
    continues from there.
    """
    sols = [None] * len(xs)
    records = [None] * len(xs)
    last = before = None

    def correct(at, last, before):
        try:
            point = polish_on_axis(system, at, _log_secant(at, last, before))
        except SolverError:
            return None
        return _settled(system, point) if at == x else point

    for i in range(len(xs) - 1, -1, -1):
        # a numpy scalar x would carry numpy complex arithmetic into the
        # solver, whose powers differ from Python's in the last bit: the
        # same x must give the same solution whatever its type
        x = float(xs[i])
        sol = None
        halvings = newton = 0
        if last is not None:
            last, before, reached, halvings, newton = _log_walk(
                x, last.z.real, last, before, correct)
            if reached == x:
                sol = last
        if sol is None:
            path, sol = _boundary_solution(system, x)
            before, last = last, sol
            records[i] = PointRecord("eps", newton + sol.iterations,
                                     sol.residual, halvings,
                                     path[-1].z.imag)
        else:
            records[i] = PointRecord("sweep", newton, sol.residual,
                                     halvings)
        sols[i] = sol
    return sols, records


def _solve_density(m: _Model, ts):
    """(rho, PointRecords) of model m at the grid ts, whose abscissae x(t)
    increase, solved by ``_sweep_real_axis``.  Roundoff below 0 is clipped;
    a density below -RHO_ROUNDOFF is an ArithmeticError."""
    xs = [m.x(t) for t in ts]
    sols, records = _sweep_real_axis(m.system, xs)
    rho = np.array([m.rho(t, x, sol.unknowns)
                    for t, x, sol in zip(ts, xs, sols)])
    for t, r in zip(ts, rho):
        if r < -RHO_ROUNDOFF:
            raise ArithmeticError(f"negative density {r:.3e} at t={t}: "
                                  "the solution left the density's branch")
    return np.maximum(rho, 0.0), records


def build_density_curve(a: AlphaParam, model: str,
                        profile: Optional[SigmaProfile] = None,
                        gamma: float = 1.0,
                        t_min: float = 1e-3, t_max: float = 1e3,
                        points: int = 400) -> DensityCurve:
    """Compute a density curve over a log-spaced grid.

    model is one of wigner | band | wishart (``_MODELS``); symmetric
    models are computed on t > 0 and mirrored, the covariance model from
    the pair in sqrt(t) at every gamma (the gamma = 1 reduction to the
    constant-profile density is a test oracle, not a code path).
    (Perturbed ensembles expose transforms, not densities, at this
    surface.)  The grid is solved by ``_sweep_real_axis``: one per-point
    eps path along ``EPS_SCHEDULE``, then Newton on the real axis from
    point to point.  The curve's ``points`` record how each t > 0 was
    solved.
    """
    m = _model(a, model, profile, gamma)
    ts = np.geomspace(t_min, t_max, points)
    rho, records = _solve_density(m, ts)
    grid = ts
    if m.symmetric:
        grid = np.concatenate([-ts[::-1], ts])
        rho = np.concatenate([rho[::-1], rho])
    return DensityCurve(alpha=a.alpha, model=model, grid=grid, rho=rho,
                        atom_at_zero=m.atom, tail_constant_estimate=m.tail_c,
                        tail_exponent=m.tail_p, symmetric=m.symmetric,
                        points=tuple(records))

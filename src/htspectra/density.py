"""Spectral measures from fixed-point solutions.

Stieltjes transforms, densities as boundary values (an eps continuation
towards the real axis and a Newton polish on it; only
``density_band_detail`` also Richardson-extrapolates Im G over the last
continuation steps, as an independent check), the Wishart atom at zero,
exact tail constants, and the closed-form reductions: alpha=2 semicircle,
constant-profile scaling, band-to-constant equivalence, and the gamma=1
covariance identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .matrices import DiagonalLaw, SigmaProfile, band_alpha_integral
from .solver import (
    FixedPointConfig,
    band_system,
    continue_to_real_axis,
    perturbed_system,
    polish_on_axis,
    wigner_system,
    wishart_system,
)
from .special import AlphaParam, c_alpha, h_alpha, principal_power

_DENSITY_CFG = FixedPointConfig(max_iter=4000)

__all__ = [
    "DensityCurve",
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


def default_eps_schedule(start: float = 0.5, factor: float = 0.8,
                         floor: float = EPS_FLOOR) -> list:
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
    sol = _solve_system(system, complex(z), cfg)
    return _band_G(a, sol.z, sol.unknowns, system.weights)


def _solve_system(system, z, cfg):
    from .solver import _solve

    return _solve(system, z, cfg)


def stieltjes_perturbed(a: AlphaParam, profile: SigmaProfile,
                        diag: DiagonalLaw, z: complex,
                        cfg: FixedPointConfig = _DENSITY_CFG) -> complex:
    system = perturbed_system(a, profile, diag)
    sol = _solve_system(system, complex(z), cfg)
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
                       eps_schedule: Optional[Sequence[float]],
                       critical_points: Sequence[float] = ()):
    """(eps continuation path, polished unknowns at real t)."""
    if eps_schedule is None:
        eps_schedule = default_eps_schedule()
    path = continue_to_real_axis(system, t, eps_schedule, cfg,
                                 critical_points=critical_points)
    y = polish_on_axis(system, abs(t), path[-1].unknowns
                       if t > 0 else np.conj(path[-1].unknowns))
    if t < 0:
        y = np.conj(y)
    return path, y


def _band_boundary(a, profile, t, eps_schedule, cfg, critical_points):
    """(system, eps path, density) of a band profile at real t != 0."""
    if t == 0:
        raise ValueError("t must be nonzero")
    system = band_system(a, profile)
    path, y = _boundary_solution(system, t, cfg, eps_schedule,
                                 critical_points)
    hs = np.array([h_alpha(a, yi) for yi in y])
    return system, path, \
        -float(np.sum(system.weights * hs.imag)) / (math.pi * t)


def density_band(a: AlphaParam, profile: SigmaProfile, t: float,
                 eps_schedule: Optional[Sequence[float]] = None,
                 cfg: FixedPointConfig = _DENSITY_CFG,
                 critical_points: Sequence[float] = ()) -> float:
    return _band_boundary(a, profile, t, eps_schedule, cfg,
                          critical_points)[2]


def density_band_detail(a: AlphaParam, profile: SigmaProfile, t: float,
                        eps_schedule: Optional[Sequence[float]] = None,
                        cfg: FixedPointConfig = _DENSITY_CFG,
                        critical_points: Sequence[float] = ()):
    """(density, Plemelj-extrapolated density, eps reached) at real t != 0.

    The returned density evaluates -(1/(pi t)) sum_s Delta_s Im h(Y_s(t))
    at the polished real-axis solution; the second value is the independent
    -(1/pi) Im G(t + i eps) extrapolation, kept for consistency checking.
    """
    system, path, value = _band_boundary(a, profile, t, eps_schedule, cfg,
                                         critical_points)
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
    system = wigner_system(a)
    _, y = _boundary_solution(system, abs(t), cfg, eps_schedule)
    yv = y[0]
    al = a.alpha
    expr1 = -h_alpha(a, yv).imag / (math.pi * abs(t))
    if a.alpha_two_mode:
        i_pow = -1.0 + 0.0j
        c_abs = 1.0
    else:
        i_pow = principal_power(1j, -al)
        c_abs = abs(c_alpha(a))
    expr2 = al * abs(t) ** (al - 1.0) / (2.0 * c_abs * math.pi) \
        * (i_pow * yv * yv).imag
    if abs(expr1 - expr2) > agreement_tol * max(1.0, abs(expr1)):
        raise ArithmeticError(
            f"density expressions disagree at t={t}: {expr1} vs {expr2}")
    return expr1


def density_wishart(a: AlphaParam, gamma: float, t: float,
                    eps_schedule: Optional[Sequence[float]] = None,
                    cfg: FixedPointConfig = _DENSITY_CFG) -> float:
    """Density of the covariance limit at t > 0."""
    if t <= 0:
        raise ValueError("t must be positive")
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must lie in (0, 1]")
    if gamma == 1.0:
        # exact reduction to the constant-profile density; the 2^(1/alpha)
        # rescaling is the heavy-tail quantile ratio a_{2N}/a_N and is
        # absent in the finite-variance limit branch
        s = 1.0 if a.alpha_two_mode else 2.0 ** (1.0 / a.alpha)
        return s / math.sqrt(t) * density_wigner_formula(
            a, s * math.sqrt(t), eps_schedule, cfg)
    system = wishart_system(a, gamma)
    _, y = _boundary_solution(system, math.sqrt(t), cfg, eps_schedule)
    return -h_alpha(a, y[0]).imag / (math.pi * t)


def atom_at_zero_wishart(a: AlphaParam, gamma: float,
                         cfg: FixedPointConfig = _DENSITY_CFG) -> float:
    """Mass of the atom at zero of the covariance limit, from the radial
    limit of z G(z): extrapolate h(Y1(ix)) to x = 0."""
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    system = wishart_system(a, gamma)
    xs = np.array([1e-1, 10 ** -1.5, 1e-2, 10 ** -2.5, 1e-3, 10 ** -3.5, 1e-4])
    vals = []
    warm = None
    from .solver import _solve

    for x in xs:
        sol = _solve(system, 1j * x, cfg, warm=warm)
        warm = sol.unknowns
        h1 = h_alpha(a, sol.unknowns[0])
        if abs(h1.imag) > 1e-6:
            raise ArithmeticError("h(Y1(ix)) drifted off the real axis")
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

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        r = np.asarray(self.rho, dtype=float)
        if g.size != r.size or g.size < 2:
            raise ValueError("grid and rho must have equal length >= 2")
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
    on t > 0 and mirrored.  (Perturbed ensembles expose transforms, not
    densities, at this surface.)  Every point follows ``eps_schedule``
    (default: ``default_eps_schedule()``), whose last step is recorded as
    the curve's ``eps_floor``.
    """
    if eps_schedule is None:
        eps_schedule = default_eps_schedule()
    ts = _log_grid(t_min, t_max, points)
    if model == "wigner":
        rho = np.array([density_wigner_formula(a, t, eps_schedule, cfg)
                        for t in ts])
        tail_c = 0.5 * a.alpha
        tail_p = a.alpha + 1.0
        atom = 0.0
        grid = np.concatenate([-ts[::-1], ts])
        rho = np.concatenate([rho[::-1], rho])
        symmetric = True
    elif model == "band":
        if profile is None:
            raise ValueError("band model needs a profile")
        rho = np.array([density_band(a, profile, t, eps_schedule, cfg,
                                     critical_points) for t in ts])
        tail_c = tail_constant(a, profile)
        tail_p = a.alpha + 1.0
        atom = 0.0
        grid = np.concatenate([-ts[::-1], ts])
        rho = np.concatenate([rho[::-1], rho])
        symmetric = True
    elif model == "wishart":
        rho = np.array([density_wishart(a, gamma, t, eps_schedule, cfg)
                        for t in ts])
        tail_c = _wishart_tail_constant(a, gamma)
        tail_p = 1.0 + 0.5 * a.alpha
        atom = 0.0 if gamma >= 1.0 else atom_at_zero_wishart(a, gamma, cfg)
        grid = ts
        symmetric = False
    else:
        raise ValueError(f"unknown model {model!r}")
    return DensityCurve(alpha=a.alpha, model=model, grid=grid, rho=rho,
                        atom_at_zero=atom, tail_constant_estimate=tail_c,
                        tail_exponent=tail_p,
                        eps_floor=float(eps_schedule[-1]),
                        symmetric=symmetric)

"""Correctness checks on the benchmark's outputs.

Each check compares against a closed-form constant, a structural identity
or a computation written here, never against a stored copy of the
library's output.  A check returns a list of problems; empty means pass.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

# ---------------------------------------------------------------------------
# curve


def check_curve(model, alpha, gamma, t_min, t_max, points, grid, rho,
                atom):
    """A density curve written by ``theory`` on a log grid."""
    problems = []
    ts = np.geomspace(t_min, t_max, points)
    symmetric = model == "wigner"
    want = np.concatenate([-ts[::-1], ts]) if symmetric else ts
    if grid.shape != want.shape or not np.allclose(grid, want, rtol=1e-12,
                                                   atol=0.0):
        return [f"{model} a={alpha}: grid is not the requested log grid"]
    if not np.all(np.isfinite(rho)) or np.any(rho < 0.0):
        problems.append(f"{model} a={alpha}: density negative or not finite")
    if symmetric:
        if not np.array_equal(rho, rho[::-1]):
            problems.append(f"{model} a={alpha}: density is not even")
        rho = rho[points:]
        # rho ~ (alpha/2) t^(-alpha-1); the next order is O(t^-alpha)
        tail = ts[-1] ** (alpha + 1.0) * rho[-1] / (0.5 * alpha)
        if abs(tail - 1.0) > 0.01:
            problems.append(f"{model} a={alpha}: t^(a+1) rho / (a/2) = "
                            f"{tail:.5f} at t={ts[-1]:.4g}, want 1 +- 1%")
        if alpha == 1.0 and abs(math.pi * rho[0] - 1.0) > 0.01:
            problems.append(f"{model} a=1: pi rho(0+) = "
                            f"{math.pi * rho[0]:.5f}, want 1 +- 1%")
    else:
        if abs(atom - (1.0 - gamma)) > 1e-3:
            problems.append(f"wishart: atom {atom:.6f}, want "
                            f"{1.0 - gamma} +- 1e-3")
        const = alpha * gamma / (2.0 * (1.0 + gamma))
        tail = ts[-1] ** (1.0 + 0.5 * alpha) * rho[-1] / const
        if abs(tail - 1.0) > 0.02:
            problems.append(f"wishart: t^(1+a/2) rho / (a g/(2(1+g))) = "
                            f"{tail:.5f} at t={ts[-1]:.4g}, want 1 +- 2%")
    return problems


# ---------------------------------------------------------------------------
# transforms


def in_cone(alpha, ys, lower=False):
    """Every y in K_alpha (|arg| <= alpha pi/2), or in the lower cone."""
    half = 0.5 * alpha * math.pi + 1e-9
    for y in ys:
        if y == 0:
            continue
        th = cmath.phase(y)
        if (not -half <= th <= 1e-9) if lower else abs(th) > half:
            return False
    return True


def check_mirror(g_z, g_mirror, tol=1e-10):
    """G(-conj z) = -conj G(z) for a symmetric spectral measure, and
    Im G < 0 in the upper half-plane for G(z) = int dmu(x) / (z - x)."""
    problems = []
    if abs(g_mirror + g_z.conjugate()) > tol * max(1.0, abs(g_z)):
        problems.append(f"G(-conj z) = {g_mirror} is not -conj G(z) = "
                        f"{-g_z.conjugate()}")
    if not g_z.imag < 0.0:
        problems.append(f"Im G(z) = {g_z.imag} is not negative")
    return problems


def check_band_solution(alpha, c_alpha, kw, z, ys, g, tol=1e-10):
    """Cone membership of the unknowns and the residual of
    z^alpha Y_r = C_alpha sum_s K_rs Delta_s g(Y_s), with g the oracle
    quadrature."""
    if not in_cone(alpha, ys):
        return ["unknowns left the cone"]
    za = cmath.exp(alpha * cmath.log(z))
    gs = np.array([g(y) for y in ys])
    resid = float(np.max(np.abs(za * np.asarray(ys) - c_alpha * (kw @ gs))))
    if not resid <= tol:
        return [f"oracle residual {resid:.2e} above {tol:.0e}"]
    return []


def check_wishart_pair(alpha, gamma, ys, h, tol=1e-10):
    """Cone membership and h(Y1) = 1 - gamma + gamma h(Y2), with h the
    oracle quadrature."""
    if not in_cone(alpha, ys):
        return ["unknowns left the cone"]
    y1, y2 = ys
    gap = abs(h(y1) - (1.0 - gamma + gamma * h(y2)))
    if not gap <= tol:
        return [f"h identity gap {gap:.2e} above {tol:.0e}"]
    return []


def picard_perturbed(alpha, cbar, atoms, z, g, tol=1e-14, max_iter=2000):
    """Constant-profile perturbed fixed point by damped Picard from 0:
    x = conj(C) sum_i w_i p_i g(p_i x), p_i = (lam_i - z)^(-alpha/2)."""
    ps = [(w, cmath.exp(-0.5 * alpha * cmath.log(lam - z)))
          for lam, w in atoms]
    x = 0j
    for _ in range(max_iter):
        nxt = 0.5 * x + 0.5 * cbar * sum(w * p * g(p * x) for w, p in ps)
        if abs(nxt - x) <= tol:
            return nxt, ps
        x = nxt
    return None, ps


def check_perturbed(alpha, cbar, atoms, z, got, g, h, tol=1e-9):
    """G(z) = sum_i w_i h(p_i x) / (z - lam_i) at the Picard fixed point x
    of the constant-profile perturbed system."""
    x, ps = picard_perturbed(alpha, cbar, atoms, z, g)
    if x is None:
        return [f"Picard oracle did not converge at z={z}"]
    want = sum(w / (z - lam) * h(p * x)
               for (lam, w), (_, p) in zip(atoms, ps))
    problems = []
    if not in_cone(alpha, [x], lower=True):
        problems.append("Picard point left the lower cone")
    if not abs(got - want) <= tol * max(1.0, abs(want)):
        problems.append(f"G {got} vs Picard {want}")
    return problems


def check_close(what, got, want, tol):
    if not abs(got - want) <= tol:
        return [f"{what}: {got} vs {want}"]
    return []


# ---------------------------------------------------------------------------
# montecarlo


def theory_cdf(ts, rho, symmetric, atom, tail_c, tail_p):
    """CDF of a density given on a positive log grid ts: flat below the
    grid, trapezoid on it, the exact power tail c t^-p beyond, normalized
    to total mass one (each half to 1/2 when symmetric)."""
    cum = np.concatenate([[ts[0] * rho[0]], ts[0] * rho[0] + np.cumsum(
        0.5 * (rho[1:] + rho[:-1]) * np.diff(ts))])

    def tail_beyond(t):
        return tail_c / ((tail_p - 1.0) * t ** (tail_p - 1.0))

    half = cum[-1] + tail_beyond(ts[-1])

    def mass(s):
        # continuous mass on [0, s] for s >= 0
        s = np.asarray(s, dtype=float)
        inner = np.interp(s, ts, cum)
        below = s * rho[0]
        safe = np.maximum(s, ts[-1])
        beyond = half - tail_beyond(safe)
        return np.where(s < ts[0], below,
                        np.where(s > ts[-1], beyond, inner))

    def cdf(t):
        t = np.asarray(t, dtype=float)
        if symmetric:
            return 0.5 + 0.5 * np.sign(t) * mass(np.abs(t)) / half
        pos = (atom + (1.0 - atom) * mass(np.maximum(t, 0.0)) / half)
        return np.where(t < 0.0, 0.0, pos)

    return cdf


def pooled_ks(eigenvalues, cdf, window, excluded0):
    """KS distance on the 2001-point window grid with (-e0, e0) removed."""
    ts = np.linspace(window[0], window[1], 2001)
    if excluded0 > 0:
        ts = ts[np.abs(ts) >= excluded0]
    ev = np.sort(eigenvalues)
    emp = np.searchsorted(ev, ts, side="right") / ev.size
    return float(np.max(np.abs(emp - cdf(ts))))


def zero_fraction(eigenvalues):
    """Share of eigenvalues below 1e-12 times the largest modulus."""
    top = float(np.max(np.abs(eigenvalues)))
    return float(np.mean(np.abs(eigenvalues) < 1e-12 * top))


def check_campaign(label, spectra, n, trials, cdf, window, excluded0,
                   ks_gate, reported_ks, aborted, zero_share=None):
    """Spectra of one simulate + compare pass: counts, KS against the
    theory curve, agreement with the reported KS and the zero modes."""
    problems = []
    if aborted != 0:
        problems.append(f"{label}: {aborted} trials aborted")
    if len(spectra) != trials or any(s.size != n for s in spectra):
        return problems + [f"{label}: expected {trials} trials of {n} "
                           "eigenvalues"]
    ks = pooled_ks(np.concatenate(spectra), cdf, window, excluded0)
    if not ks <= ks_gate:
        problems.append(f"{label}: pooled KS {ks:.4f} above {ks_gate}")
    if not abs(ks - reported_ks) <= 0.01:
        problems.append(f"{label}: reported KS {reported_ks:.4f} differs "
                        f"from {ks:.4f}")
    if zero_share is not None:
        frac = float(np.mean([zero_fraction(s) for s in spectra]))
        if abs(frac - zero_share) > 0.05:
            problems.append(f"{label}: zero-mode fraction {frac:.4f}, want "
                            f"{zero_share} +- 0.05")
    return problems

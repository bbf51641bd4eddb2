"""End-to-end acceptance suite.

Each test prints a single PASS/FAIL line with the measured quantity and
its runtime, then asserts the stated tolerance and time budget.  The
criteria that ``htspectra selftest`` also runs call the check bodies in
``htspectra.acceptance`` with the full sizes and gates listed here.
"""

import inspect
import time

import numpy as np
import pytest

from htspectra import acceptance
from htspectra import density
from htspectra.density import (
    atom_at_zero_wishart,
    density_point,
    stieltjes_band,
    stieltjes_perturbed,
)
from htspectra.matrices import DiagonalLaw, SigmaProfile, covariance_profile
from htspectra.solver import (
    perturbed_system,
    polish_on_axis,
    solve,
    solve_band,
    solve_wishart_pair,
)
from htspectra.special import (
    AlphaParam,
    K_ALPHA,
    QuadratureRule,
    c_alpha,
    c_alpha_bar,
    cone_contains,
    g_alpha,
    h_alpha,
    principal_power,
)

CONST = SigmaProfile("constant", c=1.0)
ORACLE_RULE = QuadratureRule(kind="adaptive-subdivision")


def _finish(num, name, ok, detail, start, budget):
    took = time.perf_counter() - start
    in_time = took < budget
    status = "PASS" if (ok and in_time) else "FAIL"
    print(f"{status}  criterion {num:02d} {name}: {detail} "
          f"({took:.1f}s / budget {budget:.0f}s)")
    assert ok, f"criterion {num} {name}: {detail}"
    assert in_time, f"criterion {num} {name}: {took:.1f}s over budget {budget}s"


def _check(num, name, budget, body, **sizes):
    start = time.perf_counter()
    ok, detail = body(**sizes)
    _finish(num, name, ok, detail, start, budget)


def test_criterion_01_special_function_identity():
    _check(1, "special-function identity", 5.0, acceptance.identity,
           radii=np.geomspace(1e-2, 50.0, 20),
           fracs=np.linspace(-0.95, 0.95, 10), tol=1e-9)


def test_criterion_02_alpha_two_oracle():
    _check(2, "semicircle mode", 10.0, acceptance.semicircle,
           points=50, tol=1e-6, g_tol=1e-10)


def test_criterion_03_wigner_heavy_tail():
    _check(3, "heavy-tail constants", 30.0, acceptance.heavy_tail,
           tail_ts=(50.0, 100.0), rel_tol=0.05, center_tol=0.01)


def test_criterion_04_wishart_structure():
    start = time.perf_counter()
    a12 = AlphaParam(1.2)
    atom = atom_at_zero_wishart(0.5)
    atom_ok = abs(atom - 0.5) <= 1e-3
    rng = np.random.default_rng(12)
    worst_id = 0.0
    for _ in range(20):
        z = complex(rng.uniform(-4, 4), rng.uniform(0.1, 4))
        y1, y2 = solve_wishart_pair(a12, 0.5, z).unknowns
        worst_id = max(worst_id, abs(
            h_alpha(a12, y1) - (1.0 - 0.5 + 0.5 * h_alpha(a12, y2))))
    id_ok = worst_id <= 1e-10
    t = 1e4
    tail = t ** 1.5 * density_point(AlphaParam(1.0), "wishart", t,
                                    gamma=0.5)[0]
    tail_ok = abs(tail - 1.0 / 6.0) <= 0.1 / 6.0
    _finish(4, "wishart structure", atom_ok and id_ok and tail_ok,
            f"atom {atom:.6f}, pair-identity {worst_id:.2e}, "
            f"t^1.5 rho(1e4) = {tail:.5f}", start, 60.0)


def test_criterion_05_band_equivalence():
    _check(5, "band equivalence", 60.0, acceptance.band_equivalence,
           ts=np.linspace(0.1, 3.0, 50), tol=1e-6)


def test_criterion_06_perturbation_reduction():
    start = time.perf_counter()
    a = AlphaParam(1.5)
    delta0 = DiagonalLaw(atoms=((0.0, 1.0),))
    rng = np.random.default_rng(6)
    worst0 = 0.0
    for _ in range(20):
        z = complex(rng.uniform(-3, 3), rng.uniform(0.2, 4))
        gp = stieltjes_perturbed(a, CONST, delta0, z)
        gb = stieltjes_band(a, CONST, z)
        worst0 = max(worst0, abs(gp - gb))
    # symmetric two-atom diagonal vs an independent plain Picard iteration
    diag = DiagonalLaw(atoms=((-1.0, 0.5), (1.0, 0.5)))
    z = 6j
    got = solve(perturbed_system(a, CONST, diag), z).unknowns[0]
    cbar = c_alpha_bar(a)
    ps = [(w, principal_power(lam - z, -0.75)) for lam, w in diag.atoms]
    x = 0.0 + 0.0j
    for _ in range(2000):
        x = cbar * sum(w * p * g_alpha(a, p * x) for w, p in ps)
    pic_err = abs(got - x)
    ok = worst0 <= 1e-10 and pic_err <= 1e-10
    _finish(6, "perturbation reduction", ok,
            f"delta0 gap {worst0:.2e}, picard-oracle gap {pic_err:.2e}",
            start, 30.0)


def test_criterion_07_wigner_monte_carlo():
    _check(7, "wigner monte carlo", 600.0, acceptance.wigner_monte_carlo,
           t_max=200.0, points=80, n=2000, trials=10, seed=0, ks_tol=0.05,
           threads=4)


def test_criterion_08_wishart_monte_carlo():
    _check(8, "wishart monte carlo", 600.0, acceptance.wishart_monte_carlo,
           n=1500, m=750, trials=10, seed=0, atom_tol=0.05, threads=4,
           points=60, ks_tol=0.07)


def test_criterion_09_truncated_moment():
    _check(9, "truncated moment", 120.0, acceptance.truncated_moment,
           n=4000, trials=20, seed=0, tol=0.2)


def test_criterion_10_solver_contracts():
    start = time.perf_counter()
    rng = np.random.default_rng(10)
    profiles = [CONST,
                SigmaProfile("piecewise", breaks=(0.0, 0.4, 1.0),
                             matrix=((1.0, 0.6), (0.6, 1.3))),
                covariance_profile(0.6)]
    worst_res = worst_conj = worst_path = 0.0
    cone_ok = True
    for case in range(100):
        al = float(rng.uniform(0.4, 1.9))
        a = AlphaParam(al)
        prof = profiles[case % len(profiles)]
        z = complex(rng.uniform(-3, 3), rng.uniform(0.1, 3))
        sol = solve_band(a, prof, z)
        # residual re-verified with the oracle quadrature rule
        from htspectra.solver import band_system
        sys = band_system(a, prof)
        za = principal_power(z, al)
        g = np.array([g_alpha(a, yi, ORACLE_RULE) for yi in sol.unknowns])
        res = float(np.max(np.abs(
            za * sol.unknowns - c_alpha(a) * (sys.kw @ g))))
        worst_res = max(worst_res, res)
        cone_ok &= all(cone_contains(K_ALPHA, a, yi, 1e-9)
                       for yi in sol.unknowns)
        mirror = solve_band(a, prof, -z.conjugate())
        worst_conj = max(worst_conj, float(np.max(np.abs(
            mirror.unknowns - np.conj(sol.unknowns)))))
        if case % 10 == 0:
            # the real-axis walk down from the contraction radius against
            # a cold solve next to the axis and the polish
            t = float(rng.uniform(0.5, 3.0))
            model = density._model(a, "band", prof, 1.0)
            s1 = density._sweep_real_axis(model, [t])[0][0]
            near = solve(sys, complex(t, density.COLD_EPS))
            s2 = polish_on_axis(sys, t, near.unknowns)
            worst_path = max(worst_path, float(np.max(np.abs(
                s1.unknowns - s2.unknowns))))
    ok = (worst_res <= 1e-10 and cone_ok and worst_conj <= 1e-10
          and worst_path <= 1e-11)
    _finish(10, "solver contracts", ok,
            f"oracle residual {worst_res:.2e}, conjugation {worst_conj:.2e}, "
            f"path independence {worst_path:.2e}, cones {'ok' if cone_ok else 'VIOLATED'}",
            start, 120.0)


def test_criterion_11_alpha_to_two_continuity():
    _check(11, "alpha->2 continuity", 120.0, acceptance.alpha_two_continuity,
           points=80, tol=0.08)


# ---------------------------------------------------------------------------
# htspectra selftest's own sizes


def test_selftest_sizes_fit_their_checks():
    # each entry's sizes are the keyword arguments of its check, so a
    # renamed or dropped size fails here and not only in the command
    for name, check, sizes in acceptance.SELFTEST:
        inspect.signature(check).bind(**sizes)


_FAST_CHECKS = (acceptance.identity, acceptance.semicircle,
                acceptance.heavy_tail, acceptance.band_equivalence)


@pytest.mark.parametrize("name,check,sizes", [
    pytest.param(*entry, id=entry[0]) for entry in acceptance.SELFTEST
    if entry[1] in _FAST_CHECKS])
def test_fast_selftest_entries_pass_at_their_sizes(name, check, sizes):
    # the semicircle entry runs without g_tol, a branch the full-size
    # criterion 02 does not take
    ok, detail = check(**sizes)
    assert ok, f"{name}: {detail}"

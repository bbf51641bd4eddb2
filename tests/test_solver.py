"""Fixed-point solvers: frozen reference points, invariants, continuation.

Reference fixed points were computed independently with 40-digit mpmath
plain Picard iteration on the defining equations and frozen here.
"""

import cmath
import math

import numpy as np
import pytest

from htspectra import solver
from htspectra.matrices import DiagonalLaw, SigmaProfile
from htspectra.solver import (
    FixedPointConfig,
    SolverError,
    band_system,
    continue_to_real_axis,
    find_critical_set,
    perturbed_system,
    polish_on_axis,
    solve_band,
    solve_perturbed,
    solve_wigner,
    solve_wishart_pair,
    wigner_system,
    wishart_system,
)
from htspectra.special import (
    AlphaParam,
    K_ALPHA,
    K_HAT_ALPHA,
    QuadratureError,
    QuadratureRule,
    c_alpha,
    cone_contains,
    g_alpha,
    h_alpha,
    principal_power,
)

# (alpha, Re z, Im z, Re Y, Im Y) from 40-digit Picard iteration
WIGNER_ORACLE = [
    (1.5, 0.0, 2.0, 0.7973519033738281, 0.0),
    (1.5, 1.0, 1.0, 0.86167204063196797, 0.85502265894951886),
    (0.8, 0.0, 3.0, 0.486555830552245, 0.0),
    (1.2, 0.5, 2.0, 0.63889669515228573, 0.14520911998003275),
]

# (Re z, Im z, Re Y1, Im Y1, Re Y2, Im Y2) at alpha=1.2, gamma=0.5
WISHART_ORACLE = [
    (1.0, 1.0, 0.27732437928026816, 0.20745769633364402,
     0.55878488864541666, 0.60825880412566842),
    (0.0, 2.0, 0.23586012371017524, 0.0,
     0.56019578046943259, 0.0),
]


@pytest.mark.parametrize("alpha,zr,zi,yr,yi", WIGNER_ORACLE)
def test_wigner_matches_oracle(alpha, zr, zi, yr, yi):
    sol = solve_wigner(AlphaParam(alpha), complex(zr, zi))
    assert abs(sol.unknowns[0] - complex(yr, yi)) < 1e-10
    assert sol.residual <= 1e-12


@pytest.mark.parametrize("zr,zi,y1r,y1i,y2r,y2i", WISHART_ORACLE)
def test_wishart_matches_oracle(zr, zi, y1r, y1i, y2r, y2i):
    sol = solve_wishart_pair(AlphaParam(1.2), 0.5, complex(zr, zi))
    assert abs(sol.unknowns[0] - complex(y1r, y1i)) < 1e-10
    assert abs(sol.unknowns[1] - complex(y2r, y2i)) < 1e-10


def test_residual_reverified_with_explicit_rule():
    """The residual of a returned solution must survive recomputation with
    the expensive adaptive quadrature rule."""
    a = AlphaParam(1.5)
    rule = QuadratureRule(kind="adaptive-subdivision")
    for z in (2j, 1.0 + 1.0j, -0.7 + 0.4j):
        sol = solve_wigner(a, z)
        y = sol.unknowns[0]
        from htspectra.special import g_alpha
        za = principal_power(z, 1.5)
        res = abs(za * y - c_alpha(a) * g_alpha(a, y, rule))
        assert res < 1e-10


def test_solutions_stay_in_cone():
    for alpha in (0.6, 1.0, 1.7):
        a = AlphaParam(alpha)
        for z in (0.5j, 3.0 + 0.2j, -2.0 + 1.0j):
            sol = solve_wigner(a, z)
            assert cone_contains(K_ALPHA, a, sol.unknowns[0], 1e-9)


def test_conjugation_symmetry():
    """Y(-conj z) = conj Y(z) for the decaying branch."""
    a = AlphaParam(1.3)
    sys = wigner_system(a)
    eps = [0.5, 0.1, 0.02, 1e-3]
    plus = continue_to_real_axis(sys, 1.7, eps)
    minus = continue_to_real_axis(sys, -1.7, eps)
    for p, m in zip(plus, minus):
        assert abs(m.unknowns[0] - p.unknowns[0].conjugate()) < 1e-12
        assert abs(m.z + p.z.conjugate()) < 1e-15


def test_path_independence_of_continuation():
    a = AlphaParam(1.5)
    sys = wigner_system(a)
    sched1 = [1.0, 0.3, 0.1, 0.03, 1e-2]
    sched2 = [2.0, 0.9, 0.41, 0.17, 0.05, 1e-2]
    end1 = continue_to_real_axis(sys, 0.9, sched1)[-1]
    end2 = continue_to_real_axis(sys, 0.9, sched2)[-1]
    assert abs(end1.unknowns[0] - end2.unknowns[0]) < 1e-11


def test_upper_half_plane_required():
    with pytest.raises(ValueError):
        solve_wigner(AlphaParam(1.5), 1.0 - 0.5j)
    with pytest.raises(ValueError):
        continue_to_real_axis(wigner_system(AlphaParam(1.5)), 0.0, [0.1, 0.01])
    with pytest.raises(ValueError):
        continue_to_real_axis(wigner_system(AlphaParam(1.5)), 1.0, [0.01, 0.1])
    with pytest.raises(ValueError):
        continue_to_real_axis(wigner_system(AlphaParam(1.5)), 1.0, [0.1, 1e-8])


def test_band_reduces_to_wigner_for_constant_profile():
    a = AlphaParam(1.2)
    prof = SigmaProfile("constant", c=1.0)
    for z in (2j, 1.5 + 0.5j):
        w = solve_wigner(a, z).unknowns[0]
        b = solve_band(a, prof, z).unknowns
        assert np.max(np.abs(b - w)) < 1e-11


def test_wishart_pair_identity():
    """h(Y1) = 1 - gamma + gamma h(Y2) at every z, a structural invariant
    of the coupled system."""
    a = AlphaParam(1.2)
    gamma = 0.5
    rng = np.random.default_rng(3)
    for _ in range(8):
        z = complex(rng.uniform(-3, 3), rng.uniform(0.1, 3))
        y1, y2 = solve_wishart_pair(a, gamma, z).unknowns
        lhs = h_alpha(a, y1)
        rhs = 1.0 - gamma + gamma * h_alpha(a, y2)
        assert abs(lhs - rhs) < 1e-10


def test_wishart_gamma_validation():
    with pytest.raises(ValueError):
        wishart_system(AlphaParam(1.2), 0.0)
    with pytest.raises(ValueError):
        wishart_system(AlphaParam(1.2), 1.5)


def test_perturbed_trivial_diagonal_matches_unperturbed():
    """With a single atom at lambda=0 the perturbed transform X relates to
    the plain solution by X = conj(C) g(Y) evaluated on the lower cone; at
    z = i t the two routes must produce mirror values."""
    a = AlphaParam(1.5)
    prof = SigmaProfile("constant", c=1.0)
    diag = DiagonalLaw(atoms=((0.0, 1.0),))
    z = 2j
    solp = solve_perturbed(a, prof, diag, z)
    x = solp.unknowns[0]
    assert cone_contains(K_HAT_ALPHA, a, x, 1e-9)
    # consistency with the unperturbed branch: the composite map
    # p * x with p = (-z)^(-alpha/2) must solve the plain equation
    p = principal_power(-z, -0.75)
    y = p * x
    w = solve_wigner(a, z).unknowns[0]
    assert abs(y - w) < 1e-9


def test_perturbed_symmetric_diagonal_in_cone():
    a = AlphaParam(1.2)
    prof = SigmaProfile("constant", c=1.0)
    diag = DiagonalLaw(atoms=((-1.0, 0.5), (1.0, 0.5)))
    sys = perturbed_system(a, prof, diag)
    sol = continue_to_real_axis(sys, 0.5, [0.5, 0.1, 0.02, 1e-3])[-1]
    for x in sol.unknowns:
        assert cone_contains(K_HAT_ALPHA, a, x, 1e-8)


def test_polish_reaches_machine_precision():
    a = AlphaParam(1.5)
    sys = wigner_system(a)
    path = continue_to_real_axis(sys, 1.2, [0.3, 0.1, 0.03, 0.01, 3e-3, 1e-3])
    y = polish_on_axis(sys, 1.2, path[-1].unknowns).unknowns
    assert sys.residual(complex(1.2), y) < 1e-12


def test_polish_reports_its_solution():
    a = AlphaParam(1.5)
    sys = wigner_system(a)
    path = continue_to_real_axis(sys, 1.2, [0.3, 0.1, 0.03, 0.01, 3e-3, 1e-3])
    sol = polish_on_axis(sys, 1.2, path[-1].unknowns)
    assert sol.z == complex(1.2)
    assert sol.residual == sys.residual(complex(1.2), sol.unknowns)
    assert sol.residual <= 1e-13
    assert 1 <= sol.iterations <= 40


def test_polish_raises_when_unconverged():
    # two Newton steps from far away leave a residual of order one
    sys = wigner_system(AlphaParam(1.5))
    with pytest.raises(SolverError) as exc_info:
        polish_on_axis(sys, 1.2, np.array([5.0 + 0.0j]), max_iter=2)
    err = exc_info.value
    assert err.residual > 1e-3
    assert err.unknowns is not None and err.unknowns.shape == (1,)


class _ConstantMap(solver._System):
    """y = root: Newton lands on root in one step, wherever root lies."""

    def __init__(self, a, root):
        super().__init__(a)
        self.root = np.array([root], dtype=complex)

    def apply(self, z, y):
        return self.root.copy()

    def jacobian(self, z, y):
        return np.eye(1)


def test_polish_raises_outside_the_cone():
    # a converged root on the negative real axis lies outside K_0.5: it is
    # a lost branch, not a solution
    a = AlphaParam(0.5)
    assert polish_on_axis(_ConstantMap(a, 0.5), 2.0, [0.0]).residual == 0.0
    with pytest.raises(SolverError) as exc_info:
        polish_on_axis(_ConstantMap(a, -1.0), 2.0, [0.0])
    assert exc_info.value.residual == 0.0
    assert exc_info.value.unknowns[0] == -1.0


def test_arithmetic_failure_becomes_solver_error(monkeypatch):
    # g fails everywhere off the imaginary axis, as where it cannot be
    # certified: Newton gives up, and the quadrature error of the Picard
    # fallback must surface as a SolverError chained to its cause
    system = wishart_system(AlphaParam(1.5), 0.5)
    real = system.apply

    def apply(z, y):
        if z.real != 0.0:
            raise QuadratureError("injected failure")
        return real(z, y)

    monkeypatch.setattr(system, "apply", apply)
    with pytest.raises(SolverError) as exc_info:
        solver._solve(system, 0.4 + 0.05j, FixedPointConfig())
    assert isinstance(exc_info.value.__cause__, ArithmeticError)


@pytest.mark.parametrize("z", [0.4 + 0.05j, 1.2 + 0.05j, 1.5 + 0.1j])
def test_wishart_pair_near_alpha_two_solves(z):
    # at alpha=1.95 these solves used to fail: at 0.4+0.05i Picard met
    # points near the solution's Y2 = -74+25i where g on the clamped
    # contour could not be certified, at 1.2+0.05i it stalled at residual
    # 2.2e-12; the solutions must satisfy both equations under the
    # adaptive rule
    a = AlphaParam(1.95)
    gamma = 0.5
    y1, y2 = solve_wishart_pair(a, gamma, z).unknowns
    rule = QuadratureRule(kind="adaptive-subdivision")
    za, c = principal_power(z, 1.95), c_alpha(a)
    assert abs(za * y1 - gamma / (1 + gamma) * c * g_alpha(a, y2, rule)) \
        <= 1e-10
    assert abs(za * y2 - 1 / (1 + gamma) * c * g_alpha(a, y1, rule)) <= 1e-10
    assert abs(h_alpha(a, y1, rule)
               - (1 - gamma + gamma * h_alpha(a, y2, rule))) <= 1e-10


def test_arithmetic_failure_carries_partial_path():
    sys = wishart_system(AlphaParam(1.95), 0.5)
    eps = [0.5 * 0.8 ** k for k in range(60)]
    with pytest.raises(SolverError) as exc_info:
        continue_to_real_axis(sys, 0.1, [e for e in eps if e >= 1e-6])
    err = exc_info.value
    assert isinstance(err.__cause__, ArithmeticError)
    assert err.failure_index == len(err.partial_path)


def test_solver_error_carries_partial_path():
    a = AlphaParam(1.5)
    sys = wigner_system(a)
    tight = FixedPointConfig(tol=1e-12, max_iter=2)
    with pytest.raises(SolverError) as exc_info:
        continue_to_real_axis(sys, 1.2, [0.3, 0.1, 0.03], cfg=tight)
    err = exc_info.value
    assert hasattr(err, "failure_index")
    assert isinstance(err.partial_path, list)


def test_config_validation():
    with pytest.raises(ValueError):
        FixedPointConfig(tol=-1.0)
    with pytest.raises(ValueError):
        FixedPointConfig(max_iter=0)


def test_critical_set_alpha_large_empty():
    # close to alpha=2 the degenerate system has no admissible root and
    # the boundary value is analytic on all of (0, inf)
    assert find_critical_set(AlphaParam(1.9), box_radius=4.0,
                             seeds_per_axis=6) == []


# ---------------------------------------------------------------------------
# Newton continuation against the pure-Picard continuation


BAND6 = SigmaProfile("band", breakpoints=(0.0, 0.25, 0.75, 1.0),
                     values=(1.0, 0.0, 1.0))
TWO_ATOMS = DiagonalLaw(atoms=((-1.0, 0.5), (1.0, 0.5)))
SYSTEMS = {
    "wigner": wigner_system,
    "band6": lambda a: band_system(a, BAND6),
    "wishart": lambda a: wishart_system(a, 0.5),
    "perturbed": lambda a: perturbed_system(
        a, SigmaProfile("constant", c=1.0), TWO_ATOMS),
}
# Im z from 3 down to 0.05.  The last point has Re z = 2.5 because at
# alpha=1.95 and |Re z| <= 1.7 the Wishart pair defeats the Picard
# reference: it stalls just above its tolerance, or Y2 reaches points where
# the quadrature cannot certify g.
PICARD_POINTS = (0.7 + 3.0j, -1.3 + 0.5j, 2.5 + 0.05j)


def _picard_continuation(system, z, cfg, factor):
    """The cold path with damped Picard at every geometric step of the
    given distance factor, from 0 at the contraction radius: the reference
    the Newton path must reproduce."""
    y = np.zeros(system.q, dtype=complex)
    zc = system.start_z(z)
    while True:
        y = solver._picard(system, zc, y, cfg).unknowns
        if zc == z:
            return y
        step = z + factor * (zc - z)
        if abs(step - z) < 0.05 * abs(z):
            step = z
        zc = step


@pytest.mark.parametrize("name", sorted(SYSTEMS))
@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 1.95])
def test_newton_continuation_matches_pure_picard(alpha, name):
    system = SYSTEMS[name](AlphaParam(alpha))
    cfg = FixedPointConfig(max_iter=4000)
    for z in PICARD_POINTS:
        # the reference keeps fine 0.8 steps; Newton walks at the default
        want = _picard_continuation(system, z, cfg, 0.8)
        got = solver._solve(system, z, cfg).unknowns
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


@pytest.mark.parametrize("name", sorted(SYSTEMS))
@pytest.mark.parametrize("alpha", [0.7, 1.3, 1.8])
def test_jacobian_matches_central_differences(alpha, name):
    """jacobian(z, y) is the derivative of y - apply(z, y); the map is
    holomorphic, so real and imaginary steps give the same derivative."""
    system = SYSTEMS[name](AlphaParam(alpha))
    y = solver._solve(system, 0.6 + 0.8j, FixedPointConfig()).unknowns
    z = 0.9 + 0.7j
    jac = system.jacobian(z, y)
    assert jac.shape == (system.q, system.q)
    for step in (1e-6, 1e-6j):
        for j in range(system.q):
            e = np.zeros(system.q, dtype=complex)
            e[j] = step
            up, down = y + e, y - e
            col = ((up - system.apply(z, up)) - (down - system.apply(z, down))) \
                / (2.0 * step)
            assert np.max(np.abs(col - jac[:, j])) <= 1e-7 * max(
                1.0, np.max(np.abs(jac)))


def test_cold_solve_runs_picard_once(monkeypatch):
    """Picard runs at the contraction radius only; every later step is a
    Newton step, so a silent fallback shows up as a second call."""
    calls = []
    picard = solver._picard

    def counted(*args, **kwargs):
        calls.append(args[1])
        return picard(*args, **kwargs)

    monkeypatch.setattr(solver, "_picard", counted)
    a = AlphaParam(1.2)
    for name, make in SYSTEMS.items():
        for z in (0.8 + 0.6j, -1.5 + 0.2j):
            calls.clear()
            system = make(a)
            solver._solve(system, z, FixedPointConfig())
            assert calls == [system.start_z(z)], (name, z)


def test_public_solve_calls_private_solve(monkeypatch):
    """solve is looked up through solver._solve at each call, so a wrapper
    installed there (the benchmark's solver span) sees every solve."""
    calls = []
    real = solver._solve

    def counted(system, z, *args, **kwargs):
        calls.append(z)
        return real(system, z, *args, **kwargs)

    monkeypatch.setattr(solver, "_solve", counted)
    system = wishart_system(AlphaParam(1.2), 0.5)
    sol = solver.solve(system, 0.8 + 0.6j)
    assert calls == [0.8 + 0.6j]
    want = real(system, 0.8 + 0.6j, FixedPointConfig())
    assert np.array_equal(sol.unknowns, want.unknowns)


# ---------------------------------------------------------------------------
# the eps path: a halving walk in log eps between the schedule's points


EPS_SCHEDULE = [0.5, 0.05, 5e-3, 5e-4]
EPS_CFG = FixedPointConfig(max_iter=4000)


def _failing_newton(monkeypatch, fails):
    """Make solver._newton raise SolverError at z = t + i eps where
    fails(eps) holds; returns the list of eps it was called at."""
    real = solver._newton
    calls = []

    def newton(system, z, y, *args, **kwargs):
        calls.append(z.imag)
        if fails(z.imag):
            raise SolverError("injected failure")
        return real(system, z, y, *args, **kwargs)

    monkeypatch.setattr(solver, "_newton", newton)
    return calls


def _same_end(got, want):
    y, w = got[-1].unknowns, want[-1].unknowns
    return np.max(np.abs(y - w)) <= 1e-10 * np.max(np.abs(w))


def test_eps_walk_failed_correction_halves_the_step(monkeypatch):
    system = wigner_system(AlphaParam(1.5))
    want = continue_to_real_axis(system, 1.2, EPS_SCHEDULE, EPS_CFG)
    failed = []

    def fails(eps):
        # the first correction aimed at eps = 0.05
        if eps == 0.05 and not failed:
            failed.append(eps)
            return True
        return False

    calls = _failing_newton(monkeypatch, fails)
    got = continue_to_real_axis(system, 1.2, EPS_SCHEDULE, EPS_CFG)
    # the walk passed through the log midpoint of 0.5 and 0.05
    assert any(abs(e / math.sqrt(0.5 * 0.05) - 1.0) < 1e-12 for e in calls)
    assert [p.z.imag for p in got] == EPS_SCHEDULE
    assert _same_end(got, want)


def test_eps_walk_spent_halvings_fall_back_to_a_continuation_step(
        monkeypatch):
    system = wigner_system(AlphaParam(1.5))
    want = continue_to_real_axis(system, 1.2, EPS_SCHEDULE, EPS_CFG)
    picard_at = []
    picard = solver._picard

    def counted(system, z, *args, **kwargs):
        picard_at.append(z)
        return picard(system, z, *args, **kwargs)

    monkeypatch.setattr(solver, "_picard", counted)
    # every correction aimed from just below 0.5 down to 0.05 fails
    calls = _failing_newton(monkeypatch, lambda eps: 0.05 <= eps < 0.5)
    got = continue_to_real_axis(system, 1.2, EPS_SCHEDULE, EPS_CFG)
    # the first try and SWEEP_HALVINGS halvings, then the continuation
    # step: its Newton fails too, and damped Picard solves at eps = 0.05
    tries = [e for e in calls if 0.05 <= e < 0.5]
    assert len(tries) == solver.SWEEP_HALVINGS + 2
    assert picard_at[1:] == [1.2 + 0.05j]
    assert [p.z.imag for p in got] == EPS_SCHEDULE
    assert _same_end(got, want)


def test_explicit_eps_list_is_visited_point_for_point():
    system = band_system(AlphaParam(1.2), BAND6)
    eps = [0.9, 0.4, 0.35, 0.02, 1.5e-4, 1e-6]
    for t in (0.7, -0.7):
        path = continue_to_real_axis(system, t, eps)
        assert [p.z for p in path] == [complex(t, e) for e in eps]
        assert all(p.residual <= 1e-12 for p in path)


class _ExpandingSystem(solver._System):
    """y = apply(z, y) with root 0 and a Jacobian ten times too small, so
    every Newton step multiplies y by -9; counts its apply calls."""

    def __init__(self):
        super().__init__(AlphaParam(1.0))
        self.applied = 0

    def apply(self, z, y):
        self.applied += 1
        return np.zeros_like(y)

    def jacobian(self, z, y):
        return 0.1 * np.eye(self.q)


def test_polish_gives_up_when_the_residual_grows():
    # the residual grows ninefold per step: Newton stops once it exceeds
    # 100 times its best value instead of spending all 40 steps
    system = _ExpandingSystem()
    with pytest.raises(SolverError) as info:
        polish_on_axis(system, 1.0, np.array([1.0 + 0.0j]), max_iter=40)
    assert system.applied <= 5
    err = info.value
    assert err.residual > 100.0
    assert np.array_equal(np.abs(err.unknowns), [err.residual])

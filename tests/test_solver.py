"""Fixed-point solvers: frozen reference points, invariants, continuation.

Reference fixed points were computed independently with 40-digit mpmath
plain Picard iteration on the defining equations and frozen here.
"""

import cmath
import math

import numpy as np
import pytest

from htspectra import density, solver, special
from htspectra.density import build_density_curve
from htspectra.matrices import DiagonalLaw, SigmaProfile, band_alpha_integral
from htspectra.solver import (
    SolverError,
    band_system,
    find_critical_set,
    perturbed_system,
    polish_on_axis,
    solve,
    solve_band,
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
    c_alpha_bar,
    cone_contains,
    g_alpha,
    g_alpha_prime,
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
    sol = solve(wigner_system(AlphaParam(alpha)), complex(zr, zi))
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
        sol = solve(wigner_system(a), z)
        y = sol.unknowns[0]
        from htspectra.special import g_alpha
        za = principal_power(z, 1.5)
        res = abs(za * y - c_alpha(a) * g_alpha(a, y, rule))
        assert res < 1e-10


def test_solutions_stay_in_cone():
    for alpha in (0.6, 1.0, 1.7):
        a = AlphaParam(alpha)
        for z in (0.5j, 3.0 + 0.2j, -2.0 + 1.0j):
            sol = solve(wigner_system(a), z)
            assert cone_contains(K_ALPHA, a, sol.unknowns[0], 1e-9)


def test_conjugation_symmetry():
    """Y(-conj z) = conj Y(z) for the decaying branch, by independent cold
    solves on both sides; the density at -t is therefore that at t."""
    a = AlphaParam(1.3)
    sys = wigner_system(a)
    for eps in (0.5, 0.1, 0.02, 1e-3):
        plus = solver._solve(sys, 1.7 + 1j * eps).unknowns[0]
        minus = solver._solve(sys, -1.7 + 1j * eps).unknowns[0]
        assert abs(minus - plus.conjugate()) < 1e-12


def test_path_independence_of_continuation():
    # the cold path's straight line from the imaginary axis and a walk in
    # log eps down from a cold solve at 0.9 + i reach one solution
    a = AlphaParam(1.5)
    sys = wigner_system(a)
    cold = solve(sys, 0.9 + 0.01j)
    walked, _ = solver._walk(sys, lambda e: 0.9 + 1j * e, 0.01, 1.0,
                             solve(sys, 0.9 + 1j), None)
    assert walked.z == cold.z
    assert abs(walked.unknowns[0] - cold.unknowns[0]) < 1e-11


def test_upper_half_plane_required():
    with pytest.raises(ValueError):
        solve(wigner_system(AlphaParam(1.5)), 1.0 - 0.5j)
    with pytest.raises(ValueError):
        solve(wigner_system(AlphaParam(1.5)), 1.0)


def test_band_reduces_to_wigner_for_constant_profile():
    a = AlphaParam(1.2)
    prof = SigmaProfile("constant", c=1.0)
    for z in (2j, 1.5 + 0.5j):
        w = solve(wigner_system(a), z).unknowns[0]
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
    solp = solve(perturbed_system(a, prof, diag), z)
    x = solp.unknowns[0]
    assert cone_contains(K_HAT_ALPHA, a, x, 1e-9)
    # consistency with the unperturbed branch: the composite map
    # p * x with p = (-z)^(-alpha/2) must solve the plain equation
    p = principal_power(-z, -0.75)
    y = p * x
    w = solve(wigner_system(a), z).unknowns[0]
    assert abs(y - w) < 1e-9


def test_perturbed_symmetric_diagonal_in_cone():
    a = AlphaParam(1.2)
    prof = SigmaProfile("constant", c=1.0)
    diag = DiagonalLaw(atoms=((-1.0, 0.5), (1.0, 0.5)))
    sys = perturbed_system(a, prof, diag)
    sol = solve(sys, 0.5 + 1e-3j)
    for x in sol.unknowns:
        assert cone_contains(K_HAT_ALPHA, a, x, 1e-8)


def test_polish_reaches_machine_precision():
    a = AlphaParam(1.5)
    sys = wigner_system(a)
    near = solve(sys, 1.2 + 1e-3j)
    y = polish_on_axis(sys, 1.2, near.unknowns).unknowns
    assert sys.residual(complex(1.2), y) < 1e-12


def test_polish_reports_its_solution():
    a = AlphaParam(1.5)
    sys = wigner_system(a)
    near = solve(sys, 1.2 + 1e-3j)
    sol = polish_on_axis(sys, 1.2, near.unknowns)
    assert sol.z == complex(1.2)
    assert sol.residual == sys.residual(complex(1.2), sol.unknowns)
    assert sol.residual <= 1e-13
    assert 1 <= sol.iterations <= 40


def test_polish_raises_when_unconverged():
    # two Newton steps from far away leave a residual of order one
    sys = wigner_system(AlphaParam(1.5))
    with pytest.raises(SolverError) as exc_info:
        solver._newton(sys, 1.2 + 0j, np.array([5.0 + 0.0j]),
                       solver.AXIS_TOL, 2)
    err = exc_info.value
    assert err.residual > 1e-3
    assert err.unknowns is not None and err.unknowns.shape == (1,)


class _ConstantMap(solver._System):
    """y = root with residual scale 1: Newton lands on root in one step,
    wherever root lies."""

    def __init__(self, a, root):
        super().__init__(a)
        self.root = np.array([root], dtype=complex)

    def linearize(self, z, y):
        return self.root.copy(), np.eye(1)

    def _per_z(self, z):
        return (1.0,)


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
    real = system.linearize

    def linearize(z, y):
        if z.real != 0.0:
            raise QuadratureError("injected failure")
        return real(z, y)

    monkeypatch.setattr(system, "linearize", linearize)
    with pytest.raises(SolverError) as exc_info:
        solver._solve(system, 0.4 + 0.05j)
    assert isinstance(exc_info.value.__cause__, ArithmeticError)


def test_arithmetic_failure_at_contraction_radius_becomes_solver_error(
        monkeypatch):
    # the first Picard, at the contraction radius, is wrapped like every
    # later step: a failure of g there is a SolverError with the unknowns
    # it started from, not a bare ArithmeticError
    system = wigner_system(AlphaParam(1.5))

    def linearize(z, y):
        raise QuadratureError("injected failure")

    monkeypatch.setattr(system, "linearize", linearize)
    with pytest.raises(SolverError) as exc_info:
        solver._solve(system, 0.4 + 0.05j)
    assert isinstance(exc_info.value.__cause__, QuadratureError)
    assert np.array_equal(exc_info.value.unknowns, np.zeros(system.q))


@pytest.mark.parametrize("alpha,gamma,z", [
    pytest.param(1.95, 0.5, z, id=str(z))
    for z in (0.4 + 0.05j, 1.2 + 0.05j, 1.5 + 0.1j)] + [
    pytest.param(alpha, gamma, z, id=f"{alpha}-{gamma}-{z}")
    for alpha in (0.7, 1.3) for gamma in (0.2, 0.9)
    for z in (0.6 + 0.4j, -2.0 + 0.2j)] + [
    pytest.param(1.99, 0.5, -1.3 + 0.05j, id="1.99-0.5-(-1.3+0.05j)")])
def test_wishart_pair_near_alpha_two_solves(alpha, gamma, z):
    # at alpha=1.95 the first three solves used to fail: at 0.4+0.05i
    # Picard met points near the solution's Y2 = -74+25i where g on the
    # clamped contour could not be certified, at 1.2+0.05i it stalled at
    # residual 2.2e-12; the solutions must satisfy both pair equations
    # under the adaptive rule, whatever alpha and gamma.  At alpha=1.99 a
    # clamped contour raised on the solution's Y2 = -38.3-3.6i, with a
    # growth peak of order exp(1.19e+136)
    a = AlphaParam(alpha)
    y1, y2 = solve_wishart_pair(a, gamma, z).unknowns
    rule = QuadratureRule(kind="adaptive-subdivision")
    za, c = principal_power(z, alpha), c_alpha(a)
    assert abs(za * y1 - gamma / (1 + gamma) * c * g_alpha(a, y2, rule)) \
        <= 1e-10
    assert abs(za * y2 - 1 / (1 + gamma) * c * g_alpha(a, y1, rule)) <= 1e-10
    assert abs(h_alpha(a, y1, rule)
               - (1 - gamma + gamma * h_alpha(a, y2, rule))) <= 1e-10


def test_arithmetic_failure_carries_partial_path(monkeypatch):
    # g fails below Im z = 0.05, as where its tanh-sinh levels do not
    # settle: the cold path's walk spends its halvings, and the SolverError
    # of its last Newton chains the QuadratureError
    sys = wishart_system(AlphaParam(1.5), 0.5)
    linearize = sys.linearize

    def failing(z, y):
        if z.imag < 0.05:
            raise QuadratureError(f"injected failure at z={z}")
        return linearize(z, y)

    monkeypatch.setattr(sys, "linearize", failing)
    with pytest.raises(SolverError) as exc_info:
        solver._solve(sys, 0.1 + 1e-3j)
    err = exc_info.value
    assert isinstance(err.__cause__, QuadratureError)
    assert err.failure_index == len(err.partial_path) > 0
    assert all(p.z.imag >= 0.05 for p in err.partial_path)


def test_solver_error_carries_partial_path(monkeypatch):
    # every Newton correction below Im z = 0.3 fails, so the cold path's
    # walk towards 1.2 + 0.1i spends its halvings and its last Newton raises
    sys = wigner_system(AlphaParam(1.5))
    _failing_newton(monkeypatch, lambda z: z.imag < 0.3)
    with pytest.raises(SolverError, match="injected") as exc_info:
        solver._solve(sys, 1.2 + 0.1j)
    err = exc_info.value
    path = err.partial_path
    assert err.failure_index == len(path) > 0
    assert path[0].z == sys.start_z(1.2 + 0.1j)
    assert all(p.z.imag >= 0.3 for p in path)


def test_cold_solve_error_carries_its_stepping_stones():
    # on the imaginary axis near alpha = 2 the last Newton at z ends with
    # residual 9.2: the continuation fails there, not g
    z = 0.05j
    with pytest.raises(SolverError, match="no convergence") as exc_info:
        solve_wishart_pair(AlphaParam(1.95), 0.9, z)
    err = exc_info.value
    path = err.partial_path
    assert err.failure_index == len(path) > 1
    assert path[0].z.real == 0.0     # the start on the imaginary axis
    dists = [abs(p.z - z) for p in path]
    assert all(b < a for a, b in zip(dists, dists[1:]))
    assert all(p.residual <= solver.PATH_TOL for p in path)


def test_wishart_pair_at_alpha_199_matches_frozen_unknowns():
    # Y2 = -38.3 - 3.6i lies at 0.975 of the cone edge, where g, by either
    # rule, takes the middle of the decaying rays.  Unknowns from a
    # 40-digit Newton solve with g by 45-digit quadrature, whose residual
    # on a second ray is 7e-55
    sol = solve_wishart_pair(AlphaParam(1.99), 0.5, -1.3 + 0.05j)
    want = np.array([1.0521312492953143 - 0.004466891117575366j,
                     -38.31716394442506 - 3.6272153028927514j])
    assert np.all(np.abs(sol.unknowns - want) <= 1e-11 * np.abs(want))


@pytest.mark.xfail(strict=True, raises=SolverError,
                   reason="Newton at z = 0.05i reaches Y = -34.6 on the "
                          "negative real axis, outside K_alpha")
def test_wishart_pair_on_imaginary_axis_stays_in_cone():
    # at alpha = 1.8, gamma = 0.9 the cold solve on the imaginary axis
    # must return the decaying branch inside the cone; g is not at fault,
    # the continuation is
    a = AlphaParam(1.8)
    sol = solve_wishart_pair(a, 0.9, 0.05j)
    assert all(cone_contains(K_ALPHA, a, y) for y in sol.unknowns)


def test_no_decaying_ray_fails_as_a_g_failure():
    # Newton at z = i reaches y = -44.7, beyond the cone edge at
    # alpha = 1.995, where no ray makes g's integrand decay; the solve
    # fails on the QuadratureError that says so
    with pytest.raises(SolverError,
                       match="no ray on which g's integrand decays") \
            as exc_info:
        solve_wishart_pair(AlphaParam(1.995), 0.9, 1j)
    assert isinstance(exc_info.value.__cause__, QuadratureError)


def test_critical_set_alpha_large_empty():
    # close to alpha=2 the degenerate system has no admissible root and
    # the boundary value is analytic on all of (0, inf)
    assert find_critical_set(AlphaParam(1.9)) == []


def test_critical_set_seeds_stop_when_they_leave_the_box(monkeypatch):
    # every seed's Newton iterate runs off to infinity; each is dropped
    # once it leaves |y| <= 10 CRITICAL_RADIUS, and each step evaluates
    # g, g' and g'' in two calls of _g_moments
    calls = 0
    g = special._g_moments

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return g(*args, **kwargs)

    monkeypatch.setattr(special, "_g_moments", counted)
    assert find_critical_set(AlphaParam(1.2)) == []
    assert 0 < calls <= 3000


def test_critical_set_seeds_on_the_cone_edge_end_on_the_cone_check(
        monkeypatch):
    # at alpha = 1.99 the two seeds of radius 1 on the cone's edges need
    # more than NEWTON_STEPS steps; within the search's own budget they
    # converge to y = -0.505, just outside the cone, where the cone check
    # rejects them, instead of being dropped on the step budget
    a = AlphaParam(1.99)
    newton = solver._newton
    outcomes = {}

    def recorded(system, z, y0, tol, *args):
        try:
            return newton(system, z, y0, tol, *args)
        except SolverError as exc:
            outcomes[complex(y0[0])] = str(exc)
            raise

    monkeypatch.setattr(solver, "_newton", recorded)
    assert find_critical_set(a) == []
    half = a.alpha * math.pi / 2.0
    for seed in (cmath.exp(-1j * half), cmath.exp(1j * half)):
        (message,) = [m for y0, m in outcomes.items()
                      if abs(y0 - seed) < 1e-12]
        assert "left the cone" in message, message


@pytest.mark.parametrize("alpha, y0, s", [
    (1.0, 1.0 + 0.5j, 2.0),
    # -y0 is a root in the cone too, but its C g'(-y0) is not real
    (1.5, 0.8 - 1.1j, 3.0),
])
def test_critical_set_finds_a_planted_root(monkeypatch, alpha, y0, s):
    # g(y) = m y + k (y - y0)^2 gives phi = g - y g' = -k (y - y0)(y + y0),
    # and m = s / C_alpha makes t^alpha = C_alpha g'(y0) = s
    a = AlphaParam(alpha)
    m, k = s / c_alpha(a), 1.0
    derivs = {1: lambda y: m * y + k * (y - y0) ** 2,       # g_{a,a} = g
              2: lambda y: -(m + 2.0 * k * (y - y0)),       # g_{a,2a} = -g'
              3: lambda y: 2.0 * k + 0j}                    # g_{a,3a} = g''

    def planted(a_, beta, y, rule, moments):
        return [derivs[round((beta + j * alpha) / alpha)](complex(y))
                for j in moments]

    monkeypatch.setattr(special, "_g_moments", planted)
    assert find_critical_set(a) == pytest.approx([s ** (1.0 / alpha)],
                                                 rel=1e-12)


# ---------------------------------------------------------------------------
# Newton continuation against the pure-Picard continuation


BAND6 = SigmaProfile("band", breakpoints=(0.0, 0.25, 0.75, 1.0),
                     values=(1.0, 0.0, 1.0))
UNEVEN_BAND = SigmaProfile("band",
                           breakpoints=(0.0, 0.1, 0.3, 0.7, 0.9, 1.0),
                           values=(2.0, -0.5, 0.3, -0.5, 2.0))
TWO_ATOMS = DiagonalLaw(atoms=((-1.0, 0.5), (1.0, 0.5)))


def _tent_integral(breaks, values, center, h):
    """Integral of the period-1 step function (breaks, values) against the
    triangle of height h supported on [center - h, center + h]."""
    lo, hi = center - h, center + h
    pts = {lo, hi, center}
    for k in range(math.floor(lo), math.ceil(hi) + 1):
        pts.update(b + k for b in breaks if lo < b + k < hi)
    pts = sorted(pts)
    total = 0.0
    for u1, u2 in zip(pts[:-1], pts[1:]):
        mid = 0.5 * (u1 + u2)
        i = min(np.searchsorted(breaks, mid % 1.0, side="right") - 1,
                len(values) - 1)
        # the triangle's weight on [u1, u2], exactly
        d1, d2 = abs(center - u1), abs(center - u2)
        total += values[i] * (h * (u2 - u1) - 0.5 * abs(d1 * d1 - d2 * d2))
    return total


def reference_band_kernel(profile, alpha, cells=6):
    """The q-cell circulant kernel of a band profile phi(x - y): cell r
    against cell s holds the exact cell average of |phi|^alpha over their
    product, a tent integral at the offset (r - s)/q.  Its rows all sum to
    int |phi|^alpha against the cell weights 1/q, so the decaying solution
    is constant; the library's one-cell kernel must reproduce it."""
    b = np.asarray(profile.breakpoints, dtype=float)
    v = np.abs(np.asarray(profile.values, dtype=float)) ** alpha
    h = 1.0 / cells
    col = [_tent_integral(b, v, (r * h) % 1.0, h) / (h * h)
           for r in range(cells)]
    k = np.array([[col[(r - s) % cells] for s in range(cells)]
                  for r in range(cells)])
    return np.full(cells, h), k


def reference_band_system(a, profile):
    return solver._BandSystem(a, *reference_band_kernel(profile, a.alpha))


def reference_perturbed_system(a, profile, diag):
    return solver._PerturbedSystem(
        a, *reference_band_kernel(profile, a.alpha), diag)


SYSTEMS = {
    "wigner": wigner_system,
    "band6": lambda a: reference_band_system(a, BAND6),
    "wishart": lambda a: wishart_system(a, 0.5),
    "perturbed": lambda a: perturbed_system(
        a, SigmaProfile("constant", c=1.0), TWO_ATOMS),
}
# Im z from 3 down to 0.05.  The last point has Re z = 2.5 because at
# alpha=1.95 and |Re z| <= 1.7 the Wishart pair defeats the Picard
# reference: it stalls just above its tolerance, or Y2 reaches points where
# the quadrature cannot certify g.
PICARD_POINTS = (0.7 + 3.0j, -1.3 + 0.5j, 2.5 + 0.05j)


def _plain_picard(system, z, y):
    """y <- F(z, y) from y until the residual reaches the solver's
    tolerance, in at most 4000 steps."""
    for _ in range(4000):
        fy = np.array(system.linearize(z, y)[0])
        if system.residual(z, y, fy) <= solver.TOL:
            return y
        y = fy
    raise AssertionError(f"Picard reference stalled at z={z}")


def _picard_continuation(system, z, factor):
    """The cold path with plain Picard at every geometric step of the
    given distance factor, from 0 at the contraction radius: the reference
    the Newton path must reproduce."""
    y = np.zeros(system.q, dtype=complex)
    zc = system.start_z(z)
    while True:
        y = _plain_picard(system, zc, y)
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
    for z in PICARD_POINTS:
        # the reference keeps fine 0.8 steps; Newton walks at the default
        want = _picard_continuation(system, z, 0.8)
        got = solver._solve(system, z).unknowns
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


@pytest.mark.parametrize("name", sorted(SYSTEMS))
@pytest.mark.parametrize("alpha", [0.7, 1.3, 1.8])
def test_jacobian_matches_central_differences(alpha, name):
    """The Jacobian of linearize(z, y) is the derivative of y - F(z, y);
    the map is holomorphic, so real and imaginary steps give the same
    derivative."""
    system = SYSTEMS[name](AlphaParam(alpha))
    y = solver._solve(system, 0.6 + 0.8j).unknowns
    z = 0.9 + 0.7j
    jac = np.array(system.linearize(z, y)[1])
    assert jac.shape == (system.q, system.q)

    def apply(y):
        return np.array(system.linearize(z, y)[0])

    for step in (1e-6, 1e-6j):
        for j in range(system.q):
            e = np.zeros(system.q, dtype=complex)
            e[j] = step
            up, down = y + e, y - e
            col = ((up - apply(up)) - (down - apply(down))) / (2.0 * step)
            assert np.max(np.abs(col - jac[:, j])) <= 1e-7 * max(
                1.0, np.max(np.abs(jac)))


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_newton_start_matches_plain_picard(name):
    """At the contraction radius, where |F'| <= 1/3 keeps I - F'
    invertible, Newton from 0 converges for every system on an alpha grid
    over [0.1, 1.98], to the fixed point plain Picard reaches from 0."""
    for alpha in np.linspace(0.1, 1.98, 12):
        system = SYSTEMS[name](AlphaParam(float(alpha)))
        zero = np.zeros(system.q, dtype=complex)
        for z in PICARD_POINTS:
            start = system.start_z(z)
            got = solver._newton(system, start, zero, solver.TOL).unknowns
            want = _plain_picard(system, start, zero)
            assert np.max(np.abs(got - want)) \
                <= 1e-10 * np.max(np.abs(want)), (alpha, z)


def test_cold_solve_makes_one_newton_start(monkeypatch):
    """A cold solve starts with one Newton from 0, at start_z, and every
    later Newton corrects a prediction; a density curve makes no cold
    solve, and its one Newton from 0 is the sweep's start on the real axis
    at the contraction radius or the largest point beyond it."""
    starts = []
    newton = solver._newton

    def counted(system, z, y0, *args, **kwargs):
        starts.append(z if not np.any(y0) else None)
        return newton(system, z, y0, *args, **kwargs)

    monkeypatch.setattr(solver, "_newton", counted)
    a = AlphaParam(1.2)
    for name, make in SYSTEMS.items():
        for z in (0.8 + 0.6j, -1.5 + 0.2j):
            starts.clear()
            system = make(a)
            solver._solve(system, z)
            assert starts[0] == system.start_z(z), (name, z)
            assert len(starts) > 1 and not any(starts[1:]), (name, z)
    solves = []
    solve = solver._solve

    def counted_solve(system, z, *args, **kwargs):
        solves.append(system.start_z(z))
        return solve(system, z, *args, **kwargs)

    monkeypatch.setattr(solver, "_solve", counted_solve)
    for model in ("wigner", "wishart"):
        starts.clear()
        solves.clear()
        build_density_curve(a, model, gamma=0.5, t_min=0.1, t_max=10.0,
                            points=6)
        m = density._model(a, model, None, 0.5)
        top = max(m.x(10.0), m.system.start_radius())
        assert solves == [], model
        assert [z for z in starts if z] == [complex(top)], model


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
    want = real(system, 0.8 + 0.6j)
    assert np.array_equal(sol.unknowns, want.unknowns)


# ---------------------------------------------------------------------------
# the cold path's walk: halving log steps in the distance to z


def _failing_newton(monkeypatch, fails):
    """Make solver._newton raise SolverError at z where fails(z) holds;
    returns the list of z it was called at."""
    real = solver._newton
    calls = []

    def newton(system, z, y, *args, **kwargs):
        calls.append(z)
        if fails(z):
            raise SolverError("injected failure")
        return real(system, z, y, *args, **kwargs)

    monkeypatch.setattr(solver, "_newton", newton)
    return calls


# the target of the cold-walk tests, and the first stepping stone of its
# path: CONTINUATION_FACTOR of the start's distance to z
COLD_Z = 1.2 + 0.05j


def _stone(system, fraction):
    """The point of the cold path to COLD_Z at fraction of the start's
    distance."""
    start = system.start_z(COLD_Z)
    return COLD_Z + fraction * (start - COLD_Z)


def test_cold_walk_failed_correction_halves_the_step(monkeypatch):
    system = wigner_system(AlphaParam(1.5))
    want = solver._solve(system, COLD_Z)
    first = _stone(system, solver.CONTINUATION_FACTOR)
    failed = []

    def fails(z):
        # the first correction aimed at the first stepping stone
        if abs(z - first) <= 1e-12 * abs(first) and not failed:
            failed.append(z)
            return True
        return False

    calls = _failing_newton(monkeypatch, fails)
    got = solver._solve(system, COLD_Z)
    # the walk passed through the log midpoint of the start and that stone
    mid = _stone(system, math.sqrt(solver.CONTINUATION_FACTOR))
    assert failed and any(abs(z - mid) <= 1e-12 * abs(mid) for z in calls)
    assert got.z == COLD_Z
    assert np.max(np.abs(got.unknowns - want.unknowns)) \
        <= 1e-10 * np.max(np.abs(want.unknowns))


def test_cold_walk_spent_halvings_raise_with_the_partial_path(monkeypatch):
    system = wigner_system(AlphaParam(1.5))
    start = system.start_z(COLD_Z)
    dist = abs(start - COLD_Z)
    linearize = system.linearize
    tries = []

    def failing(z, y):
        # g fails at every point from just below the start down to the
        # first stepping stone
        d = abs(z - COLD_Z)
        if (solver.CONTINUATION_FACTOR - 1e-9) * dist <= d \
                < (1.0 - 1e-9) * dist:
            tries.append(z)
            raise FloatingPointError("injected failure")
        return linearize(z, y)

    monkeypatch.setattr(system, "linearize", failing)
    with pytest.raises(SolverError) as info:
        solver._solve(system, COLD_Z)
    # the first try and SWEEP_HALVINGS halvings, then one last Newton at
    # the stone, whose failure is raised with g's error as its cause
    first = _stone(system, solver.CONTINUATION_FACTOR)
    assert len(tries) == solver.SWEEP_HALVINGS + 2
    assert abs(tries[-1] - first) <= 1e-12 * abs(first)
    err = info.value
    assert isinstance(err.__cause__, FloatingPointError)
    assert err.failure_index == 1
    assert [p.z for p in err.partial_path] == [start]


@pytest.mark.parametrize("profile", [BAND6, UNEVEN_BAND],
                         ids=["band6", "uneven"])
@pytest.mark.parametrize("alpha", [0.7, 1.2, 1.7])
def test_one_cell_band_matches_reference_kernel(alpha, profile):
    """Band equivalence: the one-cell system of a band profile solves to
    every unknown of the six-cell circulant reference, plain and perturbed."""
    a = AlphaParam(alpha)
    w, k = reference_band_kernel(profile, alpha)
    assert np.allclose(k @ w, band_alpha_integral(profile, alpha),
                       rtol=1e-14, atol=0.0)
    pairs = [(band_system(a, profile), reference_band_system(a, profile)),
             (perturbed_system(a, profile, TWO_ATOMS),
              reference_perturbed_system(a, profile, TWO_ATOMS))]
    for one, ref in pairs:
        assert one.q == 1 and ref.q == 6
        for z in (0.8 + 0.5j, -1.3 + 0.2j, 2.5j):
            got = solver._solve(one, z).unknowns[0]
            want = solver._solve(ref, z).unknowns
            assert np.max(np.abs(want - got)) <= 1e-13 * abs(got)


# ---------------------------------------------------------------------------
# the one kernel-form map against the per-atom loops it replaced

PIECEWISE2 = SigmaProfile("piecewise", breaks=(0.0, 0.4, 1.0),
                          matrix=((1.0, 0.6), (0.6, 1.3)))
DIAGONAL_LAWS = {
    "two-atoms": TWO_ATOMS,
    "delta0": DiagonalLaw(atoms=((0.0, 1.0),)),
    "asymmetric3": DiagonalLaw(atoms=((-0.7, 0.2), (0.3, 0.5), (1.9, 0.3))),
}
MAP_ALPHAS = (0.3, 0.5, 0.7, 0.9, 1.1, 1.3, 1.5, 1.7, 1.9)
MAP_POINTS = (0.7 + 2.5j, -1.3 + 0.8j, 0.2 + 0.3j)


def reference_perturbed_map(system, z, x):
    """(F(x), I - F'(x)) of a perturbed system by its own per-atom loops,
    X_r = conj(C) sum_s K_rs Delta_s
          sum_i w_i p_i g(p_i X_s),  p_i = (lam_i - z)^(-alpha/2):
    the reference the one kernel-form map must reproduce bit for bit."""
    a = system.a
    phases = [(w, principal_power(lam - z, -0.5 * a.alpha))
              for lam, w in system.atoms]
    vals = np.empty(system.q, dtype=complex)
    for s in range(system.q):
        acc = 0.0 + 0.0j
        for w, p in phases:
            acc += w * p * g_alpha(a, p * x[s])
        vals[s] = acc
    d = np.array([sum(w * p * p * g_alpha_prime(a, p * xs)
                      for w, p in phases) for xs in x])
    # combined in Python complex arithmetic, as the map combines them:
    # numpy's vectorised complex product can fuse multiply-adds and differ
    # from it in the last bit
    c = c_alpha_bar(a)
    kw, vals, d = system.kw.tolist(), vals.tolist(), d.tolist()
    fx = [c * sum(k * v for k, v in zip(row, vals)) for row in kw]
    jac = [[float(r == s) - c * k * d[s] for s, k in enumerate(row)]
           for r, row in enumerate(kw)]
    return np.array(fx), np.array(jac)


def reference_band_G(system, z, y):
    """G(z) = (1/z) sum_s Delta_s h(Y_s) of a band, Wigner or covariance
    system, summed on its own."""
    hs = np.array([h_alpha(system.a, yi) for yi in y])
    return complex(np.sum(system.weights * hs) / z)


def reference_perturbed_G(system, z, x):
    """G(z) = sum_i w_i/(z - lam_i) sum_s Delta_s h(p_i X_s) of a
    perturbed system, summed atom by atom on its own."""
    total = 0.0 + 0.0j
    for lam, w in system.atoms:
        p = principal_power(lam - z, -0.5 * system.a.alpha)
        hs = np.array([h_alpha(system.a, p * xs) for xs in x])
        total += w / (z - lam) * complex(np.sum(system.weights * hs))
    return total


@pytest.mark.parametrize("law", list(DIAGONAL_LAWS))
def test_perturbed_map_matches_per_atom_reference(law):
    # two cells, so the kernel couples distinct unknowns
    for alpha in MAP_ALPHAS:
        a = AlphaParam(alpha)
        system = perturbed_system(a, PIECEWISE2, DIAGONAL_LAWS[law])
        for z in MAP_POINTS:
            x = solver._solve(system, z).unknowns
            fx, jac = reference_perturbed_map(system, z, x)
            got_fx, got_jac = system.linearize(z, x)
            assert np.array_equal(got_fx, fx), (alpha, z)
            assert np.array_equal(got_jac, jac), (alpha, z)
            # |.| of Python complexes, which is hypot like the residual's;
            # numpy's vectorised abs can differ from it in the last bit
            assert system.residual(z, x) == max(
                abs(u - f) for u, f in zip(x.tolist(), fx.tolist()))
            want = reference_perturbed_G(system, z, x)
            assert abs(system.G(z, x) - want) <= 1e-15 * abs(want)


def test_band_G_matches_cell_sum():
    for alpha in MAP_ALPHAS:
        a = AlphaParam(alpha)
        for system in (wigner_system(a), band_system(a, BAND6),
                       band_system(a, PIECEWISE2), wishart_system(a, 0.5)):
            for z in MAP_POINTS:
                y = solver._solve(system, z).unknowns
                want = reference_band_G(system, z, y)
                assert abs(system.G(z, y) - want) <= 1e-15 * abs(want), \
                    (alpha, z)


class _ExpandingSystem(solver._System):
    """y = F(z, y) with root 0 and a Jacobian ten times too small, so
    every Newton step multiplies y by -9; residual scale 1; counts its
    linearize calls."""

    def __init__(self):
        super().__init__(AlphaParam(1.0))
        self.applied = 0

    def linearize(self, z, y):
        self.applied += 1
        return np.zeros(len(y)), 0.1 * np.eye(self.q)

    def _per_z(self, z):
        return (1.0,)


def test_polish_gives_up_when_the_residual_grows():
    # the residual grows ninefold per step: Newton stops once it exceeds
    # 100 times its best value instead of spending all 40 steps
    system = _ExpandingSystem()
    with pytest.raises(SolverError) as info:
        solver._newton(system, 1.0 + 0j, np.array([1.0 + 0.0j]),
                       solver.AXIS_TOL, 40)
    assert system.applied <= 5
    err = info.value
    assert err.residual > 100.0
    assert np.array_equal(np.abs(err.unknowns), [err.residual])


# ---------------------------------------------------------------------------
# one linearization per Newton step, its step in closed form


def _step_systems():
    """(I - F'(U), U - F(U)) of the one- and two-unknown systems at solved
    and perturbed unknowns, over alpha and z."""
    for alpha in (0.5, 1.0, 1.5, 1.9):
        a = AlphaParam(alpha)
        for system in (wigner_system(a), wishart_system(a, 0.5),
                       band_system(a, PIECEWISE2)):
            for z in MAP_POINTS:
                y = solver._solve(system, z).unknowns * (1.0 + 0.05j)
                fy, jac = system.linearize(z, y)
                yield jac, [f - u for f, u in zip(fy, y.tolist())]


def test_closed_form_step_matches_linalg_solve():
    rng = np.random.default_rng(7)
    cases = list(_step_systems())
    for q in (1, 2):
        # random systems, pivoting included: cond below 10
        while sum(len(r) == q for _, r in cases) < 60:
            m = rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))
            if np.linalg.cond(m) < 10.0:
                r = rng.normal(size=q) + 1j * rng.normal(size=q)
                cases.append((m.tolist(), r.tolist()))
    for jac, r in cases:
        want = np.linalg.solve(np.array(jac), np.array(r))
        got = np.array(solver._newton_step(jac, r))
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_singular_step_is_an_arithmetic_error():
    # _newton turns it into a SolverError like every failure of a step
    for jac in ([[0j]], [[0j, 1.0], [0j, 2.0]]):
        with pytest.raises(ArithmeticError):
            solver._newton_step(jac, [1.0] * len(jac))


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_one_pair_per_cell_and_term_per_newton_step(monkeypatch, name):
    """A solve linearizes once per Newton step, with one g_alpha_pair per
    cell and term, and evaluates no g or g' of its own: every g of the
    solve is one of a pair's moments (0, 1)."""
    system = SYSTEMS[name](AlphaParam(1.3))
    terms = len(system._terms(1j))
    pairs, moments, newtons, linearized = [], [], [], []
    pair = solver.g_alpha_pair
    g_moments = special._g_moments
    newton = solver._newton
    linearize = system.linearize

    def counted_pair(*args, **kwargs):
        pairs.append(None)
        return pair(*args, **kwargs)

    def counted_moments(a, beta, y, rule, js):
        moments.append(tuple(js))
        return g_moments(a, beta, y, rule, js)

    def counted_newton(*args, **kwargs):
        sol = newton(*args, **kwargs)
        newtons.append(sol.iterations + 1)
        return sol

    def counted_linearize(z, y):
        linearized.append(None)
        return linearize(z, y)

    monkeypatch.setattr(solver, "g_alpha_pair", counted_pair)
    monkeypatch.setattr(special, "_g_moments", counted_moments)
    monkeypatch.setattr(solver, "_newton", counted_newton)
    monkeypatch.setattr(system, "linearize", counted_linearize)
    solver._solve(system, 0.8 + 0.6j)
    assert len(linearized) == sum(newtons) > len(newtons)
    assert len(pairs) == len(linearized) * system.q * terms
    assert moments == [(0, 1)] * len(pairs)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_newton_raises_each_power_of_z_once(monkeypatch, name):
    """One Newton call at a fixed z evaluates z^alpha once, or, for a
    perturbed system, (lam - z)^(-alpha/2) once per atom, however many
    steps it takes; the powers are those the map's formula names."""
    a = AlphaParam(1.3)
    z = 0.8 + 0.6j
    y0 = solver._solve(SYSTEMS[name](a), z).unknowns * (1.0 + 0.05j)
    system = SYSTEMS[name](a)
    powers = []
    principal_power = solver.principal_power

    def counted(x, p):
        powers.append((x, p))
        return principal_power(x, p)

    monkeypatch.setattr(solver, "principal_power", counted)
    sol = solver._newton(system, z, y0, solver.TOL)
    assert sol.iterations >= 2
    if name == "perturbed":
        assert powers == [(lam - z, -0.5 * a.alpha)
                          for lam, _ in system.atoms]
    else:
        assert powers == [(z, a.alpha)]
    # the transform at the solution's z raises nothing again
    system.G(sol.z, sol.unknowns)
    assert len(powers) == (len(system.atoms) if name == "perturbed" else 1)


def test_settling_step_reuses_the_last_linearization(monkeypatch):
    # the sweep's extra Newton step starts from the (F, I - F') that the
    # polish left at its unknowns: one linearization, at the new point,
    # and the same step as from a fresh one
    system = wishart_system(AlphaParam(1.5), 0.5)
    near = solve(system, 1.2 + 3e-3j)
    # a loose tolerance stops Newton a step short of roundoff
    sol = solver._newton(system, 1.2 + 0j, near.unknowns, 1e-6)
    assert sol.residual > 1e-12
    assert sol.linearization == system.linearize(sol.z, sol.unknowns)
    calls = []
    linearize = system.linearize

    def counted(z, y):
        calls.append(z)
        return linearize(z, y)

    monkeypatch.setattr(system, "linearize", counted)
    settled = density._settled(system, sol)
    assert calls == [sol.z]
    fresh = solver._newton(system, 1.2 + 0j, sol.unknowns,
                           0.5 * sol.residual, 1)
    assert np.array_equal(settled.unknowns, fresh.unknowns)
    assert settled.residual == fresh.residual < 0.5 * sol.residual
    assert settled.iterations == sol.iterations + 1


def test_settled_point_computes_its_z_powers_once(monkeypatch):
    # the polish, a Newton at complex(t), and the settling step after it
    # run at one z object, so z^alpha and the rest of _per_z are computed
    # once per settled point
    system = wishart_system(AlphaParam(1.5), 0.5)
    near = solve(system, 1.2 + 3e-3j)
    calls = []
    per_z = system._per_z

    def counted(z):
        calls.append(z)
        return per_z(z)

    monkeypatch.setattr(system, "_per_z", counted)
    # a loose tolerance leaves the settling step a step to take
    point = solver._newton(system, complex(1.2), near.unknowns, 1e-6)
    settled = density._settled(system, point)
    assert settled.iterations == point.iterations + 1
    assert calls == [1.2 + 0j]


# ---------------------------------------------------------------------------
# the cold path's stepping stones stop at PATH_TOL, the target at TOL


def _linearizations(system, z):
    calls = []
    linearize = system.linearize

    def counted(z, y):
        calls.append(z)
        return linearize(z, y)

    system.linearize = counted
    sol = solver._solve(system, z)
    return len(calls), sol


def test_cold_solve_linearizes_less_and_still_reaches_tol():
    # a converged Newton on a stepping stone buys the target nothing: with
    # every point at TOL these solves took 23 and 22 linearizations
    a = AlphaParam(1.3)
    counts = []
    for system in (wigner_system(a), wishart_system(a, 0.5)):
        n, sol = _linearizations(system, 0.8 + 0.6j)
        counts.append(n)
        assert sol.z == 0.8 + 0.6j
        assert sol.residual <= solver.TOL
    assert counts == [18, 17]
    assert solver.PATH_TOL > solver.TOL


def test_start_on_the_target_reaches_tol():
    # on the imaginary axis at or above the start radius the Newton start
    # is the target itself, so it must not stop at PATH_TOL
    for alpha in (0.5, 1.2, 1.9):
        a = AlphaParam(alpha)
        for make in (wigner_system, lambda a: wishart_system(a, 0.5)):
            system = make(a)
            for scale in (1.0, 3.0):
                z = 1j * max(system.start_radius(), 1.0) * scale
                assert system.start_z(z) == z
                sol = solver._solve(system, z)
                assert sol.z == z
                assert sol.residual <= solver.TOL, (alpha, z, sol.residual)


PATH_GRID_SYSTEMS = {
    "wigner": wigner_system,
    "wishart": lambda a: wishart_system(a, 0.5),
    "piecewise": lambda a: band_system(a, PIECEWISE2),
    "perturbed": lambda a: perturbed_system(
        a, SigmaProfile("constant", c=1.0), TWO_ATOMS),
}
PATH_GRID_POINTS = (0.8 + 0.6j, -1.5 + 0.2j, 0.3 + 0.05j, 2.5 + 2.0j)


def _path_grid():
    out = {}
    for alpha in (0.5, 1.2, 1.9):
        for name, make in PATH_GRID_SYSTEMS.items():
            system = make(AlphaParam(alpha))
            for z in PATH_GRID_POINTS:
                try:
                    out[alpha, name, z] = solver._solve(system, z)
                except SolverError:
                    out[alpha, name, z] = None
    return out


def test_path_tol_moves_no_solution(monkeypatch):
    # the stepping stones change only the path, not where it ends: with
    # every point at TOL the grid fails at the same points and lands on
    # the same solutions
    loose = _path_grid()
    monkeypatch.setattr(solver, "PATH_TOL", solver.TOL)
    tight = _path_grid()
    assert [k for k, v in loose.items() if v is None] == \
        [k for k, v in tight.items() if v is None]
    for key, sol in loose.items():
        if sol is None:
            continue
        want = tight[key].unknowns
        assert sol.residual <= solver.TOL, key
        assert np.max(np.abs(sol.unknowns - want)) <= \
            1e-11 * np.max(np.abs(want)), key

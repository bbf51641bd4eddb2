"""The three workloads: inputs drawn from the seed, the timed operations,
the checks on their outputs, and the reference computations that measure
how fast the host runs.

A run repeats rounds; round r draws its inputs from (seed, r), so rounds
share no inputs and a result cache inside the library would not help.
Only the library calls are timed (process CPU seconds); input generation
and checks are not.
"""

from __future__ import annotations

import cmath
import contextlib
import gc
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import htspectra.cli as cli
import htspectra.density as density
import htspectra.matrices as matrices
import htspectra.solver as solver
import htspectra.special as special
from htspectra.matrices import DiagonalLaw, EnsembleSpec, SigmaProfile
from htspectra.sampling import RngStreamSpec, StableTailLaw

import checks

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
CURVES = HERE / "curves"

# Failures a library call may raise on a numerical problem.
NUMERICAL = (solver.SolverError, ArithmeticError, ValueError)


@dataclass
class Round:
    items: int = 0
    failed: int = 0
    cpu: float = 0.0
    wall: float = 0.0
    problems: list = field(default_factory=list)


def _rng(seed, r):
    return np.random.default_rng([seed, r])


def _cli(tracer, argv):
    """One in-process CLI command; its stdout is kept off the result."""
    with contextlib.redirect_stdout(io.StringIO()):
        return tracer.span("cli." + argv[0], cli.main, argv)


def _reference(body):
    """CPU seconds of body() with the garbage collector off, so that the
    library's heap does not change the figure."""
    gc.disable()
    try:
        start = time.process_time()
        body()
        return time.process_time() - start
    finally:
        gc.enable()


_X = np.linspace(0.01, 1.0, 97)
_M200 = np.random.default_rng(0).random((200, 200))
_M200 = _M200 + _M200.T
_BIG = np.random.default_rng(1).random(1_000_000)
_M300 = np.random.default_rng(2).random((300, 300))
_M300 = _M300 + _M300.T


# CPU seconds of each reference on the development machine; the scale of
# the scaled figures, so that they read close to plain CPU figures
QUADRATURE_REFERENCE_S = 0.18
SAMPLING_REFERENCE_S = 0.12


def quadrature_reference():
    """A fixed computation in the mix of the solver's hot path, scalar
    complex arithmetic and numpy on short arrays, plus some eigensolves
    and sorting; about 0.18 CPU s.  It never touches htspectra."""

    def body():
        for k in range(8000):
            np.dot(_X, np.exp(-_X * (1.0 + 1e-3j * k)))
            z = complex(1.0, 1e-3 * k)
            for _ in range(5):
                z = cmath.exp(-0.5 * cmath.log(z)) + math.sqrt(k + 1.0) * 1e-3
        for _ in range(8):
            np.linalg.eigvalsh(_M200)
        for _ in range(6):
            np.sort(_BIG)

    return _reference(body)


def sampling_reference():
    """A fixed computation in the mix of a Monte Carlo trial: uniform
    draws, a power transform and a symmetric eigensolve; about 0.12 CPU s.
    It never touches htspectra."""

    def body():
        rng = np.random.default_rng(5)
        for _ in range(20):
            u = rng.random((300, 300))
            np.where(rng.random((300, 300)) < 0.5, -1.0, 1.0) * u ** (-1 / 1.5)
            np.linalg.eigvalsh(_M300)

    return _reference(body)


def _warm_g(alphas):
    """Fill the quadrature node caches for these alpha: g, h and g' over
    radii and angles spanning the cone."""
    for al in alphas:
        a = special.AlphaParam(al)
        for r in (0.05, 0.5, 5.0, 50.0):
            for frac in (-0.9, 0.0, 0.9):
                y = r * complex(math.cos(frac * al * math.pi / 2),
                                math.sin(frac * al * math.pi / 2))
                special.g_alpha(a, y)
                special.h_alpha(a, y)
                special.g_alpha_prime(a, y)


# ---------------------------------------------------------------------------
# curve: the theory command on log grids


# (label, model, alpha, gamma, t_min, t_max); grids are jittered per round
CURVE_MODELS = (
    ("wigner-a1.0", "wigner", 1.0, None, 1e-3, 1e2),
    ("wigner-a1.5", "wigner", 1.5, None, 1e-2, 1e3),
    ("wishart-a1.2-g0.5", "wishart", 1.2, 0.5, 1e-2, 1e4),
)
CURVE_POINTS = 8


def theory_argv(model, alpha, gamma, t_min, t_max, points, out):
    argv = ["theory", "--model", model, "--alpha", repr(alpha),
            "--t-min", repr(t_min), "--t-max", repr(t_max),
            "--points", str(points), "--out", str(out)]
    if gamma is not None:
        argv += ["--gamma", repr(gamma)]
    return argv


def read_curve(out):
    data = np.loadtxt(out / "density.csv", delimiter=",", skiprows=1,
                      ndmin=2)
    with open(out / "density.json") as fh:
        sidecar = json.load(fh)
    return data[:, 0], data[:, 1], sidecar


class Curve:
    item = "density point"
    rate_name = "points_per_s"
    reference = staticmethod(quadrature_reference)
    reference_s = QUADRATURE_REFERENCE_S

    def __init__(self, seed):
        self.seed = seed

    def warm_up(self, tracer):
        _warm_g(sorted({m[2] for m in CURVE_MODELS}))
        for label, model, alpha, gamma, _, _ in CURVE_MODELS:
            argv = theory_argv(model, alpha, gamma, 10.0, 100.0, 2,
                               OUT / "warmup" / label)
            _cli(tracer, argv + ["--t", "100.0"])   # one point, no atom

    def round(self, r, tracer):
        rng = _rng(self.seed, r)
        res = Round()
        for label, model, alpha, gamma, t_min, t_max in CURVE_MODELS:
            lo = t_min * 10.0 ** (0.1 * rng.random())
            hi = t_max * 10.0 ** (0.1 * rng.random())
            out = OUT / "curve" / label
            argv = theory_argv(model, alpha, gamma, lo, hi, CURVE_POINTS,
                               out)
            res.items += CURVE_POINTS
            cpu, wall = time.process_time(), time.perf_counter()
            rc = _cli(tracer, argv)
            res.cpu += time.process_time() - cpu
            res.wall += time.perf_counter() - wall
            if rc != 0:
                res.failed += CURVE_POINTS
                continue
            grid, rho, sidecar = read_curve(out)
            res.problems += checks.check_curve(
                model, alpha, gamma, lo, hi, CURVE_POINTS, grid, rho,
                sidecar.get("atom_at_zero", 0.0))
        return res


# ---------------------------------------------------------------------------
# transforms: isolated evaluations at seeded random points


BAND6 = SigmaProfile("band", breakpoints=(0.0, 0.25, 0.75, 1.0),
                     values=(1.0, 0.0, 1.0))
# integral of |phi|^alpha over a period: 1 on half of it, 0 elsewhere
BAND6_ALPHA_INTEGRAL = 0.5
PIECEWISE2 = SigmaProfile("piecewise", breaks=(0.0, 0.4, 1.0),
                          matrix=((1.0, 0.6), (0.6, 1.3)))
CONST = SigmaProfile("constant", c=1.0)
TWO_ATOMS = DiagonalLaw(atoms=((-1.0, 0.5), (1.0, 0.5)))
DELTA0 = DiagonalLaw(atoms=((0.0, 1.0),))
WISHART_GAMMA = 0.5
ORACLE_RULE = special.QuadratureRule(kind="adaptive-subdivision")
GROUPS_PER_ROUND = 2
ALPHA_RANGE = (0.5, 1.9)
# stratum of each of the 12 inputs of every group: alpha, five points z
# (real and imaginary part each) and t
DESIGN = np.array([np.random.default_rng(2008).permutation(GROUPS_PER_ROUND)
                   for _ in range(12)]).T
JITTER = 0.15   # share of a stratum an input moves with the seed


class Transforms:
    item = "evaluation"
    rate_name = "solves_per_s"
    reference = staticmethod(quadrature_reference)
    reference_s = QUADRATURE_REFERENCE_S

    def __init__(self, seed):
        self.seed = seed

    def warm_up(self, tracer):
        _warm_g([1.5])
        a = special.AlphaParam(1.5)
        density.density_wigner_formula(a, 100.0)
        solver.solve_wishart_pair(a, WISHART_GAMMA, 2.0 + 2.0j)

    def round(self, r, tracer):
        rng = _rng(self.seed, r)
        res = Round()
        # A fixed Latin-hypercube design spreads the groups over alpha, t
        # and the points z; the seed moves each input within its stratum.
        # Evaluation costs vary several-fold with the inputs, so a freely
        # drawn round would make the rate depend on the seed.
        g = GROUPS_PER_ROUND
        u = (DESIGN + 0.5 + JITTER * (rng.random(DESIGN.shape) - 0.5)) / g
        for row in u:
            self._group(row, res, tracer)
        return res

    def _group(self, u, res, tracer):
        alpha = ALPHA_RANGE[0] + (ALPHA_RANGE[1] - ALPHA_RANGE[0]) * u[0]
        a = special.AlphaParam(alpha)

        def point(k, im_lo, im_hi):
            return complex(-3.0 + 6.0 * u[k],
                           im_lo + (im_hi - im_lo) * u[k + 1])

        z_band, z_pw, z_w = (point(k, 0.1, 3.0) for k in (1, 3, 5))
        # Im z >= 2 keeps the Picard oracle of the two-atom system contracting
        z_p, z_0 = point(7, 2.0, 4.0), point(9, 0.2, 4.0)
        t = 0.1 + 2.9 * u[11]
        sig = BAND6_ALPHA_INTEGRAL ** (1.0 / alpha)

        def run(fn, *args):
            res.items += 1
            cpu, wall = time.process_time(), time.perf_counter()
            try:
                return fn(*args)
            except NUMERICAL:
                res.failed += 1
                return None
            finally:
                res.cpu += time.process_time() - cpu
                res.wall += time.perf_counter() - wall

        # library calls go through module attributes so traced runs see them
        g_band = run(density.stieltjes_band, a, BAND6, z_band)
        g_mirror = run(density.stieltjes_band, a, BAND6, -z_band.conjugate())
        pw = run(solver.solve_band, a, PIECEWISE2, z_pw)
        wp = run(solver.solve_wishart_pair, a, WISHART_GAMMA, z_w)
        g_two = run(density.stieltjes_perturbed, a, CONST, TWO_ATOMS, z_p)
        g_delta = run(density.stieltjes_perturbed, a, CONST, DELTA0, z_0)
        g_const = run(density.stieltjes_band, a, CONST, z_0)
        rho_band = run(density.density_band, a, BAND6, t)
        rho_w = run(density.density_wigner_formula, a, t / sig)

        with tracer.paused():
            found = self._check(alpha, a, sig, t, z_pw, z_p, g_band, g_mirror,
                                pw, wp, g_two, g_delta, g_const, rho_band,
                                rho_w)
        res.problems += [f"alpha={alpha:.4f}: {m}" for m in found]

    @staticmethod
    def _check(alpha, a, sig, t, z_pw, z_p, g_band, g_mirror, pw, wp, g_two,
               g_delta, g_const, rho_band, rho_w):
        g = lambda y: special.g_alpha(a, y, ORACLE_RULE)  # noqa: E731
        h = lambda y: special.h_alpha(a, y, ORACLE_RULE)  # noqa: E731
        found = []
        if g_band is not None and g_mirror is not None:
            found += checks.check_mirror(g_band, g_mirror)
        if pw is not None:
            kw = (np.abs(np.array(PIECEWISE2.matrix)) ** alpha
                  * np.diff(PIECEWISE2.breaks)[None, :])
            found += checks.check_band_solution(
                alpha, special.c_alpha(a), kw, z_pw, pw.unknowns, g)
        if wp is not None:
            found += checks.check_wishart_pair(alpha, WISHART_GAMMA,
                                               wp.unknowns, h)
        if g_two is not None:
            found += checks.check_perturbed(
                alpha, special.c_alpha_bar(a), TWO_ATOMS.atoms, z_p, g_two,
                g, h)
        if g_delta is not None and g_const is not None:
            found += checks.check_close("delta0 diagonal vs unperturbed G",
                                        g_delta, g_const, 1e-10)
        if rho_band is not None and rho_w is not None:
            found += checks.check_close(f"band equivalence at t={t:.4f}",
                                        rho_band, rho_w / sig, 1e-6)
        return found


# ---------------------------------------------------------------------------
# montecarlo: simulate and compare through the CLI


MC_N = 1000
MC_TRIALS = 4
# (label, model arguments, theory curve, window, excluded0, zero share)
MC_ENSEMBLES = (
    ("band", ["--model", "wigner", "--alpha", "1.5"], "wigner-a1.5",
     (-10.0, 10.0), 0.2, None),
    ("covariance", ["--model", "wishart", "--alpha", "1.2", "--gamma", "0.5"],
     "wishart-a1.2-g0.5", (0.1, 20.0), 0.0, 0.5),
)
# Pooled KS of 4 x 1000 eigenvalues against these curves stays below
# 0.02 over seeds; the alpha=1.0 curve sits 0.05 away from alpha=1.5
# spectra, so 0.03 separates a right curve from a wrong one.
KS_GATE = 0.03


def mc_argvs(ensemble, n, trials, seed, out):
    """The simulate and compare commands of one ensemble; covariance
    samples are n x n/2."""
    label, model_args, curve, window, excluded0, _ = ensemble
    size = ["--n", str(n)]
    if label == "covariance":
        size += ["--m", str(n // 2)]
    win = f"--window={window[0]!r}:{window[1]!r}"
    zero = ["--exclude-zero", repr(excluded0)]
    simulate = (["simulate"] + model_args + size + zero
                + [win, "--trials", str(trials), "--seed", str(seed),
                   "--threads", "1", "--out", str(out)])
    compare = (["compare", "--theory", str(CURVES / curve / "density.csv"),
                "--spectra", str(out / "eigenvalues.csv"), win] + zero
               + ["--out", str(out)])
    return simulate, compare


def curve_cdf(label):
    """The benchmark's own CDF of a committed theory curve, with the exact
    tail constants and atom of its model."""
    _, model, alpha, gamma, _, _ = next(m for m in CURVE_MODELS
                                        if m[0] == label)
    grid, rho, _ = read_curve(CURVES / label)
    pos = grid > 0
    if model == "wigner":
        return checks.theory_cdf(grid[pos], rho[pos], True, 0.0,
                                 0.5 * alpha, alpha + 1.0)
    return checks.theory_cdf(grid, rho, False, 1.0 - gamma,
                             alpha * gamma / (2.0 * (1.0 + gamma)),
                             1.0 + 0.5 * alpha)


def read_spectra(path):
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    trials = data[:, 0].astype(int)
    return {k: data[trials == k, 1] for k in np.unique(trials)}


def rebuild_trial(label, seed, trial):
    """Eigenvalues of one trial rebuilt from its seed outside the CLI."""
    stream = RngStreamSpec(seed, trial)
    if label == "band":
        spec = EnsembleSpec(N=MC_N, law=StableTailLaw(1.5), profile=CONST,
                            seed=stream)
        m = matrices.build_band_matrix(spec)
    else:
        m = matrices.build_covariance_matrix(StableTailLaw(1.2), MC_N,
                                             MC_N // 2, stream)
    return np.sort(np.linalg.eigvalsh(m))


class MonteCarlo:
    item = "trial"
    rate_name = "trials_per_s"
    reference = staticmethod(sampling_reference)
    reference_s = SAMPLING_REFERENCE_S

    def __init__(self, seed):
        self.seed = seed
        self.cdfs = {ens[0]: curve_cdf(ens[2]) for ens in MC_ENSEMBLES}

    def warm_up(self, tracer):
        for ens in MC_ENSEMBLES:
            for argv in mc_argvs(ens, 40, 1, 0, OUT / "warmup" / ens[0]):
                _cli(tracer, argv)

    def round(self, r, tracer):
        seed = int(np.random.SeedSequence([self.seed, r]).generate_state(1)[0])
        res = Round()
        for ens in MC_ENSEMBLES:
            out = OUT / "montecarlo" / ens[0]
            res.items += MC_TRIALS
            ok = True
            for argv in mc_argvs(ens, MC_N, MC_TRIALS, seed, out):
                cpu, wall = time.process_time(), time.perf_counter()
                rc = _cli(tracer, argv)
                res.cpu += time.process_time() - cpu
                res.wall += time.perf_counter() - wall
                ok = ok and rc == 0
            if not ok:
                res.failed += MC_TRIALS
                continue
            with tracer.paused():
                res.problems += self._check(ens, seed, out)
        return res

    def _check(self, ens, seed, out):
        label, _, _, window, e0, zero = ens
        spectra = read_spectra(out / "eigenvalues.csv")
        with open(out / "campaign.json") as fh:
            aborted = json.load(fh)["aborted_trials"]
        with open(out / "distance.json") as fh:
            reported = json.load(fh)["ks"]
        problems = checks.check_campaign(
            label, list(spectra.values()), MC_N, MC_TRIALS, self.cdfs[label],
            window, e0, KS_GATE, reported, aborted, zero)
        if 0 in spectra and not np.array_equal(
                spectra[0], rebuild_trial(label, seed, 0)):
            problems.append(f"{label}: trial 0 is not reproduced from seed "
                            f"{seed}")
        return problems


WORKLOADS = {"curve": Curve, "transforms": Transforms,
             "montecarlo": MonteCarlo}

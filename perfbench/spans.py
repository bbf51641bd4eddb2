"""Spans and counters recorded at the library's layer boundaries.

The benchmark never edits the library: it replaces a function by a
recording wrapper in the namespace where its caller looks it up, and puts
the original back afterwards.  Spans carry process CPU time, so the
per-layer seconds add up to the same clock the end-to-end rates use.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
import types
from collections import Counter, defaultdict

import htspectra.cli as cli
import htspectra.density as density
import htspectra.eig as eig
import htspectra.matrices as matrices
import htspectra.montecarlo as montecarlo
import htspectra.solver as solver
import htspectra.special as special

clock = time.process_time_ns


class Tracer:
    """In-memory span recorder: (name, start_ns, end_ns, parent index)."""

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self.active = False
        self._stack = []
        self._installed = []

    def span(self, name, fn, *args, on_result=None, **kwargs):
        """Call fn inside a span named name; on_result(tracer, args,
        kwargs, result) records counters from the call."""
        if not self.active:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            self.spans[idx] = (name, start, clock(), parent)
            self._stack.pop()
        if on_result is not None:
            on_result(self, args, kwargs, result)
        return result

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside (the benchmark's own checks) record nothing."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def install(self, module, attr, name, on_result=None, adapt=None):
        """Replace module.attr by a wrapper recording span name; adapt,
        if given, maps the original to the function the span calls."""
        original = getattr(module, attr, None)
        if original is None:
            print(f"trace: {module.__name__}.{attr} not found; "
                  f"span {name} stays empty", file=sys.stderr)
            return
        target = original if adapt is None else adapt(self, original)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.span(name, target, *args, on_result=on_result,
                             **kwargs)

        setattr(module, attr, wrapper)
        self._installed.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("index,name,start_ns,end_ns,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start},{end},{parent}\n")
            for key, value in sorted(self.counters.items()):
                fh.write(f"counter,{key},{value},,\n")


# ---------------------------------------------------------------------------
# counters read from return values and arguments


def _count_solution(tr, args, kwargs, sol):
    tr.counters["solver.iterations"] += sol.iterations


def _count_path(tr, args, kwargs, path):
    tr.counters["solver.eps_steps"] += len(path)


def _count_drawn(tr, args, kwargs, entries):
    tr.counters["sampling.drawn"] += entries.size
    tr.counters["sampling.bytes"] += entries.nbytes


def _count_kept_band(tr, args, kwargs, matrix):
    # a symmetric N x N matrix is fixed by its upper triangle
    n = matrix.shape[0]
    tr.counters["sampling.kept"] += n * (n + 1) // 2


def _count_kept_covariance(tr, args, kwargs, matrix):
    # X X^t uses every entry of the N x M sample
    law, n, m = args[:3]
    tr.counters["sampling.kept"] += n * m


def _count_cdf_evals(tr, original):
    """distribution_distance with its theory CDF counted per evaluation."""

    def call(spectra, theory_cdf, *args, **kwargs):
        def counted(t):
            if tr.active:
                tr.counters["eig.cdf_evals"] += 1
            return theory_cdf(t)

        return original(spectra, counted, *args, **kwargs)

    return call


def install_layers(tr: Tracer):
    """Wrap the public entry points of every layer where their callers
    look them up."""
    tr.install(special, "g_alpha_beta", "special.g")
    tr.install(solver, "_solve", "solver.solve", _count_solution)
    tr.install(density, "continue_to_real_axis", "solver.continue",
               _count_path)
    tr.install(density, "polish_on_axis", "solver.polish")
    for attr in ("density_wigner_formula", "density_band",
                 "density_band_detail", "density_wishart"):
        tr.install(density, attr, "density.point")
    tr.install(density, "atom_at_zero_wishart", "density.atom")
    tr.install(cli, "build_density_curve", "density.curve")
    tr.install(matrices, "sample_entries", "sampling.sample", _count_drawn)
    tr.install(montecarlo, "build_band_matrix", "matrices.band",
               _count_kept_band)
    tr.install(montecarlo, "build_covariance_matrix", "matrices.covariance",
               _count_kept_covariance)
    tr.install(eig, "eigenvalues_symmetric", "eig.eigvalsh")
    tr.install(cli, "spectra_to_csv", "eig.csv_write")
    tr.install(cli, "spectra_from_csv", "eig.csv_read")
    tr.install(cli, "run_campaign", "montecarlo.campaign")
    tr.install(montecarlo, "_one_trial", "montecarlo.trial")
    tr.install(cli, "distribution_distance", "eig.distance",
               adapt=_count_cdf_evals)


def span_cost(calls=100000):
    """CPU seconds one recorded span adds to a call, timed on a no-op."""
    tr = Tracer()
    ns = types.SimpleNamespace(noop=lambda: None)
    plain = ns.noop
    tr.install(ns, "noop", "noop")
    tr.active = True
    start = time.process_time()
    for _ in range(calls):
        ns.noop()
    traced = time.process_time() - start
    start = time.process_time()
    for _ in range(calls):
        plain()
    return (traced - (time.process_time() - start)) / calls


# ---------------------------------------------------------------------------
# per-layer figures from the recorded spans


class SpanTree:
    def __init__(self, spans):
        self.spans = spans
        self.children = defaultdict(list)
        for i, (_, _, _, parent) in enumerate(spans):
            self.children[parent].append(i)

    def dur(self, i):
        _, start, end, _ = self.spans[i]
        return (end - start) * 1e-9

    def _ancestors(self, i):
        parent = self.spans[i][3]
        while parent >= 0:
            yield parent
            parent = self.spans[parent][3]

    def outermost(self, names):
        """Spans named in names with no ancestor named in names."""
        return [i for i, s in enumerate(self.spans) if s[0] in names
                and not any(self.spans[a][0] in names
                            for a in self._ancestors(i))]

    def total(self, names):
        return sum(self.dur(i) for i in self.outermost(names))

    def count(self, name):
        return sum(1 for s in self.spans if s[0] == name)

    def covered(self, i, names):
        """Time inside span i covered by its topmost descendants whose name
        is in names (all descendants when names is None)."""
        total = 0.0
        for c in self.children[i]:
            if names is None or self.spans[c][0] in names:
                total += self.dur(c)
            else:
                total += self.covered(c, names)
        return total

    def self_time(self, span_names):
        """Time in spans named in span_names outside their child spans."""
        return sum(self.dur(i) - self.covered(i, None)
                   for i, s in enumerate(self.spans) if s[0] in span_names)


SOLVER_SPANS = {"solver.solve", "solver.continue", "solver.polish"}


def layer_metrics(tr: Tracer, items: int, timed_cpu: float) -> dict:
    """Every per-layer figure, per output item unless its unit says
    otherwise."""
    tree = SpanTree(tr.spans)
    c = tr.counters
    g_calls = tree.count("special.g")
    g_s = tree.total({"special.g"})
    per = 1.0 / items

    def t(names):
        return tree.total(names) * per

    return {
        "special.g_calls": (g_calls * per, "count"),
        "special.g_us_per_call": (g_s / g_calls * 1e6 if g_calls else 0.0,
                                  "us"),
        "special.g_cpu_share": (g_s / timed_cpu, "share"),
        "trace.timed_cpu_s": (timed_cpu * per, "s"),
        "solver.eps_steps": (c["solver.eps_steps"] * per, "count"),
        "solver.iterations": (c["solver.iterations"] * per, "count"),
        "solver.continue_s": (t({"solver.continue"}), "s"),
        "solver.polish_s": (t({"solver.polish"}), "s"),
        "solver.solve_s": (t({"solver.solve"}), "s"),
        "density.point_s": (t({"density.point"}), "s"),
        "density.self_s": (sum(
            tree.dur(i) - tree.covered(i, SOLVER_SPANS)
            for i in tree.outermost({"density.point"})) * per, "s"),
        "density.atom_s": (t({"density.atom"}), "s"),
        "sampling.sample_s": (t({"sampling.sample"}), "s"),
        "sampling.bytes": (c["sampling.bytes"] * per, "B"),
        "sampling.used_fraction": (
            c["sampling.kept"] / c["sampling.drawn"]
            if c["sampling.drawn"] else 0.0, "share"),
        "matrices.assemble_s": (
            tree.self_time({"matrices.band"}) * per, "s"),
        "matrices.covariance_s": (
            tree.self_time({"matrices.covariance"}) * per, "s"),
        "eig.eigvalsh_s": (t({"eig.eigvalsh"}), "s"),
        "eig.distance_s": (t({"eig.distance"}), "s"),
        "eig.cdf_evals": (c["eig.cdf_evals"] * per, "count"),
        "eig.csv_write_s": (t({"eig.csv_write"}), "s"),
        "eig.csv_read_s": (t({"eig.csv_read"}), "s"),
        "montecarlo.trial_s": (t({"montecarlo.trial"}), "s"),
        "montecarlo.self_s": (tree.self_time(
            {"montecarlo.campaign", "montecarlo.trial"}) * per, "s"),
        "cli.theory_s": (t({"cli.theory"}), "s"),
        "cli.simulate_s": (t({"cli.simulate"}), "s"),
        "cli.compare_s": (t({"cli.compare"}), "s"),
        "cli.self_s": (tree.self_time(
            {"cli.theory", "cli.simulate", "cli.compare"}) * per, "s"),
        "trace.spans": (len(tr.spans) * per, "count"),
        "trace.overhead_est": (len(tr.spans) * span_cost() / timed_cpu,
                               "share"),
    }

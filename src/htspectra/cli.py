"""Command-line interface: theory curves, simulations, and comparisons.

Subcommands: ``theory`` (density curve to CSV + JSON sidecar), ``simulate``
(Monte Carlo eigenvalue CSV + campaign JSON), ``compare`` (distance report
between the two), ``critical-set`` and ``selftest``.  Every output CSV gets
a self-contained gnuplot script next to it, and every command echoes its
configuration to ``config-<command>.json`` so runs are reproducible from
the outputs.

Exit codes: 0 success, 1 configuration or usage error (the message names
the offending flag), 2 numerical failure, an aborted campaign among them
(partial outputs are kept).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

from .density import DensityCurve, build_density_curve, density_point
from .eig import (distance_grid, distribution_distance, spectra_from_csv,
                  spectra_to_csv)
from .matrices import DiagonalLaw, EnsembleSpec, SigmaProfile
from .montecarlo import (CampaignAborted, CampaignSpec, CovarianceParams,
                         run_campaign)
from .sampling import StableTailLaw
from .solver import SolverError, find_critical_set
from .special import AlphaParam, QuadratureError

__all__ = ["main"]


class ConfigError(ValueError):
    """Invalid or inconsistent command-line configuration."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ConfigError (exit 1)
    instead of exiting 2, the code of a numerical failure."""

    def error(self, message):
        raise ConfigError(message)


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="htspectra",
        description="Limiting spectra of heavy-tailed random matrices: "
                    "theory curves, simulations and comparisons.")
    sub = p.add_subparsers(dest="command", required=True)

    def model_flags(sp):
        sp.add_argument("--model", default="wigner",
                        choices=["wigner", "band", "wishart", "perturbed"])
        sp.add_argument("--alpha", type=float, default=None)
        sp.add_argument("--gamma", type=float, default=None)
        sp.add_argument("--profile", default=None,
                        help="JSON file describing the variance profile")

    t = sub.add_parser("theory", help="compute a density curve")
    model_flags(t)
    t.add_argument("--out", default=".")
    t.add_argument("--t", type=float, default=None,
                   help="single evaluation point instead of a grid")
    t.add_argument("--t-min", type=float, default=1e-3)
    t.add_argument("--t-max", type=float, default=1e3)
    t.add_argument("--points", type=int, default=400)

    s = sub.add_parser("simulate", help="run a Monte Carlo campaign")
    model_flags(s)
    s.add_argument("--diag", default=None,
                   help="JSON file describing the diagonal law")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", default=".")
    s.add_argument("--threads", type=int, default=1)
    s.add_argument("--n", type=int, default=1000)
    s.add_argument("--m", type=int, default=None)
    s.add_argument("--trials", type=int, default=10)
    s.add_argument("--window", default="-10:10")
    s.add_argument("--exclude-zero", type=float, default=0.0)

    c = sub.add_parser("compare", help="compare theory CSV with eigenvalue CSV")
    c.add_argument("--out", default=".")
    c.add_argument("--theory", required=True, help="density CSV path")
    c.add_argument("--spectra", required=True, help="eigenvalue CSV path")
    c.add_argument("--window", default="-10:10")
    c.add_argument("--exclude-zero", type=float, default=0.0)

    k = sub.add_parser("critical-set", help="locate possible density kinks")
    k.add_argument("--alpha", type=float, default=None)
    k.add_argument("--out", default=".")

    sub.add_parser("selftest", help="run the acceptance suite at reduced sizes")
    return p


def _comparison(args):
    """(window, excluded0) from --window 'a:b' and --exclude-zero, each
    checked by ``distance_grid``: finite a < b, and a finite
    neighbourhood of 0, radius >= 0, that leaves part of the window."""
    try:
        lo_s, hi_s = args.window.split(":")
        window = float(lo_s), float(hi_s)
    except ValueError:
        raise ConfigError(f"--window must be 'a:b', got {args.window!r}")
    try:
        distance_grid(window, 0.0)
    except ValueError as exc:
        raise ConfigError(f"--window {args.window!r} invalid: {exc}")
    try:
        distance_grid(window, args.exclude_zero)
    except ValueError as exc:
        raise ConfigError(f"--exclude-zero {args.exclude_zero} invalid: {exc}")
    return window, args.exclude_zero


def _alpha_param(args) -> AlphaParam:
    al = args.alpha
    if al is None:
        raise ConfigError("--alpha is required")
    if not 0.0 < al <= 2.0:
        raise ConfigError(f"--alpha must lie in (0, 2], got {al}")
    return AlphaParam(al)


def _read(flag: str, path: str, parse):
    """parse(text of the file at path); a missing, unreadable or malformed
    file is a ConfigError that names flag."""
    try:
        with open(path) as fh:
            return parse(fh.read())
    except FileNotFoundError:
        raise ConfigError(f"{flag} file {path!r} not found")
    except OSError as exc:
        raise ConfigError(f"{flag} file {path!r} unreadable: {exc.strerror}")
    except KeyError as exc:
        raise ConfigError(f"{flag} file {path!r} invalid: missing key {exc}")
    except (ValueError, TypeError, AttributeError, IndexError) as exc:
        raise ConfigError(f"{flag} file {path!r} invalid: {exc}")


def _load_profile(args) -> SigmaProfile:
    if args.profile is None:
        return SigmaProfile("constant", c=1.0)
    return _read("--profile", args.profile, SigmaProfile.from_json)


def _load_diag(args) -> DiagonalLaw:
    if args.diag is None:
        raise ConfigError("--diag is required for the perturbed model")
    return _read("--diag", args.diag, DiagonalLaw.from_json)


def _gamma(args) -> float:
    if args.gamma is None:
        raise ConfigError("--gamma is required for the wishart model")
    if not 0.0 < args.gamma <= 1.0:
        raise ConfigError(f"--gamma must lie in (0, 1], got {args.gamma}")
    return args.gamma


# ---------------------------------------------------------------------------
# output helpers


def _write(path: str, text: str):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _echo_config(args, out_dir: str):
    # one echo per command, so a theory run and a simulation sharing an
    # output directory each keep the echo that reproduces their files
    cfg = {k: v for k, v in vars(args).items()}
    _write(os.path.join(out_dir, f"config-{args.command}.json"),
           json.dumps(cfg, indent=2, sort_keys=True) + "\n")


def _write_density(out_dir: str, csv_text: str, sidecar: dict):
    # every theory run writes all three files, so a directory never holds
    # one run's CSV next to another run's sidecar
    _write(os.path.join(out_dir, "density.csv"), csv_text)
    _write(os.path.join(out_dir, "density.json"),
           json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
    _write(os.path.join(out_dir, "density.plt"), _gnuplot_curve("density.csv"))


def _gnuplot_curve(csv_name: str) -> str:
    stem = os.path.splitext(csv_name)[0]
    return (f"set datafile separator ','\n"
            f"set terminal pngcairo size 900,600\n"
            f"set output '{stem}.png'\n"
            f"set logscale y\n"
            f"plot '{csv_name}' every ::1 using 1:2 with lines title 'rho'\n")


def _gnuplot_hist(csv_name: str) -> str:
    stem = os.path.splitext(csv_name)[0]
    return (f"set datafile separator ','\n"
            f"set terminal pngcairo size 900,600\n"
            f"set output '{stem}.png'\n"
            f"binwidth = 0.1\n"
            f"bin(x) = binwidth*floor(x/binwidth)\n"
            f"set boxwidth binwidth\n"
            f"plot '{csv_name}' every ::1 using (bin($2)):(1.0) "
            f"smooth freq with boxes title 'eigenvalues'\n")


# ---------------------------------------------------------------------------
# commands


def cmd_theory(args) -> int:
    a = _alpha_param(args)
    out = args.out
    if args.model == "perturbed":
        raise ConfigError("--model perturbed exposes transforms, not "
                          "densities; use wigner/band/wishart")
    profile = _load_profile(args) if args.model == "band" else None
    gamma = _gamma(args) if args.model == "wishart" else None
    t = args.t
    if t is not None:
        if not math.isfinite(t) or t == 0:
            raise ConfigError(f"--t must be finite and nonzero, got {t}")
        if t < 0 and args.model == "wishart":
            raise ConfigError(f"--t must be > 0 for the wishart model, "
                              f"got {t}")
    else:
        if not (args.t_min > 0 and math.isfinite(args.t_min)):
            raise ConfigError(f"--t-min must be finite and > 0, "
                              f"got {args.t_min}")
        if not (args.t_max > args.t_min and math.isfinite(args.t_max)):
            raise ConfigError(f"--t-max must be finite and exceed --t-min "
                              f"({args.t_min}), got {args.t_max}")
        if args.points < 2:
            raise ConfigError(f"--points must be >= 2, got {args.points}")
    # echoed only once every flag is valid, so a rejected run writes nothing
    _echo_config(args, out)
    if t is not None:
        rho, record = density_point(a, args.model, t, profile=profile,
                                    gamma=gamma)
        _write_density(out, f"t,rho\n{t!r},{rho!r}\n", {
            "t": t, "rho": rho, "model": args.model, "alpha": a.alpha,
            "gamma": gamma, "points": [record.to_json(t)]})
        print(f"rho({t}) = {rho:.10g}")
        return 0
    curve = build_density_curve(a, args.model, profile=profile, gamma=gamma,
                                t_min=args.t_min, t_max=args.t_max,
                                points=args.points)
    _write_density(out, curve.to_csv(), curve.sidecar())
    print(f"wrote density curve ({curve.grid.size} points, "
          f"mass check {curve.total_mass():.4f}) to {out}")
    return 0


def _simulation_spec(args) -> CampaignSpec:
    a = _alpha_param(args)
    if a.alpha_two_mode:
        raise ConfigError("--alpha 2 has no heavy-tailed entry law; "
                          "simulate with alpha < 2")
    law = StableTailLaw(a.alpha)
    window, excluded0 = _comparison(args)
    if args.n < 1:
        raise ConfigError(f"--n must be >= 1, got {args.n}")
    if args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    if args.model == "wishart":
        m = _wishart_m(args)
        if not 1 <= m <= args.n:
            raise ConfigError(f"--m must lie in [1, --n], got {m} with "
                              f"--n {args.n}")
        ensemble = CovarianceParams(law=law, n=args.n, m=m)
    else:
        diag = _load_diag(args) if args.model == "perturbed" else None
        ensemble = EnsembleSpec(N=args.n, law=law,
                                profile=_load_profile(args), diagonal=diag)
    return CampaignSpec(ensemble=ensemble, trials=args.trials, window=window,
                        excluded0=excluded0, master_seed=args.seed)


def _wishart_m(args) -> int:
    """M of the N x M covariance sample: round(gamma N) with --gamma, which
    --m may repeat but not contradict; --m alone; else N // 2."""
    if args.gamma is None:
        return args.m if args.m is not None else args.n // 2
    m = round(_gamma(args) * args.n)
    if args.m is not None and args.m != m:
        raise ConfigError(f"--m {args.m} contradicts --gamma {args.gamma}, "
                          f"which gives M = round(gamma N) = {m}")
    return m


def cmd_simulate(args) -> int:
    spec = _simulation_spec(args)
    out = args.out
    _echo_config(args, out)
    result = run_campaign(spec, threads=max(1, args.threads))
    _write(os.path.join(out, "eigenvalues.csv"), spectra_to_csv(result.spectra))
    _write(os.path.join(out, "campaign.json"),
           json.dumps(result.to_json(), indent=2, sort_keys=True) + "\n")
    _write(os.path.join(out, "eigenvalues.plt"),
           _gnuplot_hist("eigenvalues.csv"))
    print(f"simulated {spec.trials} trials "
          f"({result.pooled.eigenvalues.size} eigenvalues, "
          f"{result.aborted_trials} aborted) to {out}")
    return 0


def cmd_compare(args) -> int:
    out = args.out
    window, excluded0 = _comparison(args)
    sidecar_path = os.path.splitext(args.theory)[0] + ".json"
    sidecar = _read("--theory", sidecar_path, json.loads)
    curve = _read("--theory", args.theory,
                  lambda text: DensityCurve.from_csv(text, sidecar))
    spectra = _read("--spectra", args.spectra, spectra_from_csv)
    campaign_path = os.path.join(os.path.dirname(args.spectra) or ".",
                                 "campaign.json")
    if os.path.exists(campaign_path):
        ens = _read("--spectra", campaign_path, lambda text: json.loads(
            text).get("spec", {}).get("ensemble", {}))
        sim_alpha, kind = ens.get("alpha"), ens.get("kind")
        if sim_alpha is not None and abs(sim_alpha - curve.alpha) > 1e-12:
            print(f"warning: theory alpha {curve.alpha} != simulation "
                  f"alpha {sim_alpha}", file=sys.stderr)
        if kind is not None and \
                (kind == "covariance") != (curve.model == "wishart"):
            print(f"warning: theory model {curve.model} does not match "
                  f"simulated {kind} ensemble", file=sys.stderr)
    _echo_config(args, out)
    report = distribution_distance(spectra, curve.cdf(), window,
                                   excluded0=excluded0)
    _write(os.path.join(out, "distance.json"),
           json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n")
    print(f"ks = {report.ks:.5f}, windowed W1 = {report.w1_window:.5f}")
    return 0


def cmd_critical_set(args) -> int:
    a = _alpha_param(args)
    out = args.out
    _echo_config(args, out)
    ts = find_critical_set(a)
    _write(os.path.join(out, "critical.json"),
           json.dumps({"alpha": a.alpha, "critical_points": ts},
                      indent=2, sort_keys=True) + "\n")
    print(f"critical points (t > 0): {ts}")
    return 0


# ---------------------------------------------------------------------------
# selftest: the acceptance suite at reduced sizes


def cmd_selftest(args) -> int:
    from . import acceptance   # imported here so other commands start faster

    failures = 0
    for name, check, sizes in acceptance.SELFTEST:
        start = time.perf_counter()
        try:
            ok, detail = check(**sizes)
        except Exception as exc:   # honest red, never a crash
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        took = time.perf_counter() - start
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        print(f"{status}  {name:28s} {detail}  ({took:.1f}s)")
    print(f"{'all checks passed' if failures == 0 else f'{failures} failed'}")
    return 0 if failures == 0 else 2


# ---------------------------------------------------------------------------


_COMMANDS = {
    "theory": cmd_theory,
    "simulate": cmd_simulate,
    "compare": cmd_compare,
    "critical-set": cmd_critical_set,
    "selftest": cmd_selftest,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SolverError, QuadratureError, ArithmeticError,
            CampaignAborted) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

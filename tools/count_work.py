"""Deterministic work counters of the perfbench `transforms` and `curve`
workloads, per item, with their output checks off.

    python3 tools/count_work.py --workload transforms --seed 61 --rounds 20

Run from the repository root.  The workload warms up as perfbench does,
then runs rounds 0..rounds-1 in this one process with every library call
counted:

- ``linearizations``: calls of a system's ``linearize``, one per Newton
  step and one at every converged point;
- ``series_passes``: power-series sums of g, each one Horner loop
  (``special._series_eval`` calls that return a value);
- ``rung_certifications``: ``special._certify_rung`` calls;
- ``tanh_sinh_runs``: ``special._de_eval`` calls;
- ``z_powers``: ``principal_power`` calls made by ``solver`` and
  ``density`` (each module that imports it), such as z^alpha of a band
  system or (lam - z)^(-alpha/2) of a perturbed system's atom.

The last line of standard output is one JSON object with the counts per
item.  No timing is taken, so the figures repeat exactly for a seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import htspectra.density as density  # noqa: E402
import htspectra.solver as solver  # noqa: E402
import htspectra.special as special  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _install(counts):
    """Count the calls above in place; returns the undo list."""
    undo = []

    def wrap(owner, attr, key, counted=lambda result: True):
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            if counted(result):
                counts[key] += 1
            return result

        setattr(owner, attr, wrapper)
        undo.append((owner, attr, original))

    wrap(solver._BandSystem, "linearize", "linearizations")
    wrap(special, "_series_eval", "series_passes",
         lambda result: result is not None)
    wrap(special, "_certify_rung", "rung_certifications")
    wrap(special, "_de_eval", "tanh_sinh_runs")
    for module in (solver, density):
        if hasattr(module, "principal_power"):
            wrap(module, "principal_power", "z_powers")
    return undo


def count(workload, seed, rounds):
    wl = workloads.WORKLOADS[workload](seed)
    if workload == "transforms":
        wl._check = staticmethod(lambda *args: [])
    else:
        workloads.checks.check_curve = lambda *args: []
    tracer = spans.Tracer()
    wl.warm_up(tracer)
    counts = Counter()
    undo = _install(counts)
    items = failed = 0
    try:
        for r in range(rounds):
            res = wl.round(r, tracer)
            items += res.items
            failed += res.failed
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
    return {"workload": workload, "seed": seed, "rounds": rounds,
            "items": items, "failed": failed,
            "per_item": {key: counts[key] / items for key in (
                "linearizations", "series_passes", "rung_certifications",
                "tanh_sinh_runs", "z_powers")}}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=("transforms", "curve"),
                   required=True)
    p.add_argument("--seed", type=int, default=61)
    p.add_argument("--rounds", type=int, default=20)
    args = p.parse_args(argv)
    print(json.dumps(count(args.workload, args.seed, args.rounds)))


if __name__ == "__main__":
    main()

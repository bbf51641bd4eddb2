"""Benchmark of htspectra: theory curves, isolated transforms and Monte
Carlo campaigns, timed in process CPU seconds scaled to the speed of a
fixed reference computation run beside them.

    python3 perfbench/run.py --workload curve|transforms|montecarlo \
        --seed N --seconds S --trace 0|1

Run from the repository root.  The last line of standard output is one
JSON object: with --trace 0 the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced pass and the tracing overhead.  Exit code 0
means the run completed; "correct" reports the output checks.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy loads: rates are CPU-second
# rates, and added threads must not show up as a gain here.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("curve", "transforms", "montecarlo")
SETUP_SAMPLES = 3
TRACED_ROUNDS = 2


def _import_library():
    """Import htspectra from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import htspectra
    except ImportError as exc:
        sys.exit(f"cannot import htspectra from {SRC}: {exc}")
    if Path(htspectra.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"htspectra was imported from {htspectra.__file__}, "
                 f"not from {SRC}")


def _children_cpu():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def setup(workload, seed):
    """Import, then a warm-up that fills the quadrature node caches and
    loads every lazily imported module the timed rounds use."""
    _import_library()
    import spans as tracing
    import workloads

    wl = workloads.WORKLOADS[workload](seed)
    tracer = tracing.Tracer()
    wl.warm_up(tracer)
    return wl, tracer, tracing


def setup_cpu_seconds(workload):
    """Median set-up CPU seconds at reference speed, over this process,
    which started with the interpreter, and fresh processes doing the
    set-up alone.  Each sample is scaled by a quadrature reference run
    right after it: set-up is interpreter work, which that reference
    tracks, whatever the workload."""
    from workloads import QUADRATURE_REFERENCE_S, quadrature_reference

    samples = [time.process_time()]
    refs = [quadrature_reference()]
    for _ in range(SETUP_SAMPLES - 1):
        before = _children_cpu()
        subprocess.run([sys.executable, __file__, "--workload", workload,
                        "--setup-only"], check=True)
        samples.append(_children_cpu() - before)
        refs.append(quadrature_reference())
    scaled = [s * QUADRATURE_REFERENCE_S / r for s, r in zip(samples, refs)]
    return statistics.median(scaled), samples


def per_cpu_second(rounds):
    return sum(r.items for r in rounds) / sum(r.cpu for r in rounds)


def report(name, label, rounds, item):
    items = sum(r.items for r in rounds)
    cpu = sum(r.cpu for r in rounds)
    wall = sum(r.wall for r in rounds)
    print(f"{name} {label}: {len(rounds)} rounds, {items} {item}s, "
          f"{cpu:.3f} CPU s, {wall:.3f} wall s, "
          f"{items / cpu:.4f} per CPU s, {items / wall:.4f} per wall s; "
          "rounds per CPU s: "
          + " ".join(f"{r.items / r.cpu:.3f}" for r in rounds))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import and warm up, then exit (set-up timing)")
    args = p.parse_args(argv)

    wl, tracer, tracing = setup(args.workload, args.seed)
    if args.setup_only:
        return 0

    if not args.trace:
        setup_s, samples = setup_cpu_seconds(args.workload)
        print(f"setup CPU s per process: "
              f"{', '.join(f'{s:.3f}' for s in samples)}; "
              f"{setup_s:.3f} at reference speed")
        # Process CPU time of identical work drifts by 10% and more over
        # minutes on a shared host.  The workload's reference computation,
        # run before every round and after the last, measures that drift,
        # and the rate is scaled by it.
        # A round starts only if it should end by the deadline, judged by
        # the wall time of the round before.
        deadline = time.perf_counter() + args.seconds
        rounds, refs = [], []
        last = 0.0
        while not rounds or time.perf_counter() + last < deadline:
            refs.append(wl.reference())
            start = time.perf_counter()
            rounds.append(wl.round(len(rounds), tracer))
            last = time.perf_counter() - start
        refs.append(wl.reference())
        report(args.workload, "untraced", rounds, wl.item)
        # Both sides are averages over the run: the host's speed flips
        # within seconds, and a median of either would pick one mode.
        raw = per_cpu_second(rounds)
        slowness = statistics.mean(refs) / wl.reference_s
        rate = raw * slowness
        print(f"reference CPU s: {' '.join(f'{x:.4f}' for x in refs)}")
        print(f"{wl.rate_name} = {rate:.4f} at reference speed "
              f"({raw:.4f} per CPU s, machine at {1 / slowness:.3f} of "
              f"reference speed)")
        metrics = {
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "items_per_s": (rate, "1/s"),
        }
    else:
        # An untraced pass over rounds 0..TRACED_ROUNDS-1 fills the caches
        # those inputs touch; the same rounds then run traced and untraced
        # by turns, so the overhead compares equal work, and the counts
        # repeat exactly on every run with this seed.
        warm = [wl.round(r, tracer) for r in range(TRACED_ROUNDS)]
        traced, plain = [], []
        for r in range(TRACED_ROUNDS):
            tracing.install_layers(tracer)
            tracer.active = True
            try:
                traced.append(wl.round(r, tracer))
            finally:
                tracer.active = False
                tracer.uninstall()
            plain.append(wl.round(r, tracer))
        report(args.workload, "untraced", plain, wl.item)
        report(args.workload, "traced", traced, wl.item)
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"spans-{args.workload}-{args.seed}.csv")
        timed = sum(r.cpu for r in traced)
        metrics = tracing.layer_metrics(
            tracer, sum(r.items for r in traced), timed)
        metrics["trace.overhead"] = (
            per_cpu_second(plain) / per_cpu_second(traced) - 1.0, "share")
        rounds = warm + traced + plain

    problems = [m for r in rounds for m in r.problems]
    for m in problems:
        print(f"check failed: {m}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r.items for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Regenerate the theory curves that the montecarlo workload compares
against:

    python3 perfbench/make_curves.py

Each curve is the ``theory`` command with the model, alpha, gamma and
t-range of the curve workload, on a denser grid, written to
perfbench/curves/<label>/.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_POINTS = 80


def main():
    os.chdir(HERE.parent)   # keeps the echoed --out path relative
    sys.path.insert(0, "src")
    import htspectra.cli as cli
    import workloads

    for label, model, alpha, gamma, t_min, t_max in workloads.CURVE_MODELS:
        out = Path("perfbench", "curves", label)
        argv = workloads.theory_argv(model, alpha, gamma, t_min, t_max,
                                     REFERENCE_POINTS, out)
        if cli.main(argv) != 0:
            return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

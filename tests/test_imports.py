"""Start-up cost: which scipy subpackages a process loads, and when, and
that every command runs where scipy cannot be imported at all.

pytest itself loads scipy, so every check runs in a fresh interpreter.
"""

import cmath
import math
import os
import subprocess
import sys

import htspectra
from htspectra.cli import main

SCIPY_SUBPACKAGES = {"scipy.special", "scipy.stats", "scipy.integrate",
                     "scipy.optimize"}


def _run(code: str) -> str:
    """The standard output of code, run in a fresh interpreter that imports
    htspectra from this source tree; a nonzero exit fails."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(htspectra.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def _loaded(code: str) -> set:
    """Modules named scipy or scipy.* that running code leaves loaded."""
    out = _run(code + "\nimport sys\nprint(' '.join(m for m in sys.modules "
               "if m == 'scipy' or m.startswith('scipy.')))\n")
    # the module list is the last line; code may print lines before it
    return set(out.splitlines()[-1].split()) if out.strip() else set()


def test_import_loads_no_scipy_subpackage():
    loaded = _loaded("import htspectra, htspectra.cli")
    assert not loaded & SCIPY_SUBPACKAGES


def test_series_g_loads_no_scipy():
    loaded = _loaded("from htspectra import AlphaParam, g_alpha\n"
                     "g_alpha(AlphaParam(1.5), 0.1 + 0.05j)")
    assert not loaded


def test_g_on_the_cone_edge_loads_no_scipy():
    # on the cone edge at alpha = 1.8 the default path integrates on the
    # middle of the decaying rays; no growing contour, and no root finder
    y = 4.76 * cmath.exp(0.9j * math.pi)
    loaded = _loaded("from htspectra.special import AlphaParam, "
                     "g_alpha_beta\n"
                     f"g_alpha_beta(AlphaParam(1.8), 3.6, {y!r})")
    assert not loaded


def test_theory_loads_no_scipy(tmp_path):
    loaded = _loaded(
        "from htspectra.cli import main\n"
        "assert main(['theory', '--alpha', '1.5', '--points', '40', "
        f"'--out', {str(tmp_path)!r}]) == 0")
    assert not loaded


def test_critical_set_loads_no_scipy(tmp_path):
    # at alpha = 1.9 seeds reach the cone edge
    loaded = _loaded(
        "from htspectra.cli import main\n"
        "assert main(['critical-set', '--alpha', '1.9', "
        f"'--out', {str(tmp_path)!r}]) == 0")
    assert not loaded


def test_simulate_and_compare_load_no_scipy(tmp_path):
    # the theory curve is made here: only its consumers run in the probe
    theory, sim = tmp_path / "theory", tmp_path / "sim"
    assert main(["theory", "--alpha", "1.5", "--t-min", "0.1", "--t-max",
                 "10", "--points", "6", "--out", str(theory)]) == 0
    loaded = _loaded(
        "from htspectra.cli import main\n"
        f"assert main(['simulate', '--alpha', '1.5', '--n', '40', "
        f"'--trials', '1', '--seed', '1', '--out', {str(sim)!r}]) == 0\n"
        f"assert main(['compare', '--theory', "
        f"{str(theory / 'density.csv')!r}, '--spectra', "
        f"{str(sim / 'eigenvalues.csv')!r}, '--out', {str(tmp_path)!r}]) == 0")
    assert not loaded


def test_unsettled_g_raises_without_adaptive_subdivision():
    # at 0.999 of the cone edge at alpha = 1.99 the tanh-sinh levels of
    # g_{1.99, 1.99} do not settle: the default path raises, and no scipy
    # quadrature is loaded to try again
    y = 40.0 * cmath.exp(0.999j * 1.99 * math.pi / 2.0)
    loaded = _loaded(
        "from htspectra.special import AlphaParam, QuadratureError, "
        "g_alpha\n"
        "try:\n"
        f"    g_alpha(AlphaParam(1.99), {y!r})\n"
        "except QuadratureError as exc:\n"
        "    print('raised', exc)\n"
        "else:\n"
        "    raise SystemExit('no QuadratureError')\n")
    assert "scipy.integrate" not in loaded


def test_every_command_runs_without_scipy(tmp_path):
    # scipy is a test extra, not a runtime dependency: with its import
    # blocked, the README's commands exit 0 through cli.main, and only the
    # explicit reference rule, which needs scipy, raises ImportError
    diag = tmp_path / "diag.json"
    diag.write_text('{"atoms": [{"lambda": -1.0, "w": 0.5}, '
                    '{"lambda": 1.0, "w": 0.5}]}')
    theory, sim, perturbed = (str(tmp_path / d)
                              for d in ("theory", "sim", "perturbed"))
    commands = [
        ["theory", "--alpha", "1.5", "--t-min", "0.1", "--t-max", "10",
         "--points", "6", "--out", theory],
        ["simulate", "--alpha", "1.5", "--n", "40", "--trials", "1",
         "--seed", "1", "--out", sim],
        ["compare", "--theory", os.path.join(theory, "density.csv"),
         "--spectra", os.path.join(sim, "eigenvalues.csv"),
         "--out", str(tmp_path)],
        ["simulate", "--model", "perturbed", "--diag", str(diag), "--alpha",
         "1.5", "--n", "40", "--trials", "1", "--seed", "1",
         "--out", perturbed],
        ["critical-set", "--alpha", "1.99", "--out", str(tmp_path)],
        ["selftest"],
    ]
    out = _run(
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from htspectra.cli import main\n"
        "from htspectra.special import AlphaParam, QuadratureRule, g_alpha\n"
        f"for args in {commands!r}:\n"
        "    rc = main(args)\n"
        "    assert rc == 0, (args, rc)\n"
        "try:\n"
        "    g_alpha(AlphaParam(1.5), 0.4 + 0.3j, QuadratureRule())\n"
        "except ImportError:\n"
        "    print('reference rule needs scipy')\n"
        "else:\n"
        "    raise SystemExit('the reference rule ran without scipy')\n")
    assert out.splitlines()[-1] == "reference rule needs scipy"

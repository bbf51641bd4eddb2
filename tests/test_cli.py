"""Command-line surface: exit codes, outputs, reproducibility."""

import json
import math
import os
import subprocess
import sys

import pytest

import htspectra
from htspectra.cli import main


def run(args):
    return main(args)


def test_config_error_names_flag(capsys, tmp_path):
    code = run(["theory", "--model", "wigner", "--out", str(tmp_path)])
    assert code == 1
    assert "--alpha" in capsys.readouterr().err

    code = run(["theory", "--alpha", "3.0", "--out", str(tmp_path)])
    assert code == 1

    code = run(["simulate", "--alpha", "1.5", "--window", "oops",
                "--out", str(tmp_path)])
    assert code == 1
    assert "--window" in capsys.readouterr().err


def test_usage_error_exits_1_and_help_exits_0(capsys):
    # argparse exits 2 on a usage error, the code of a numerical failure
    assert run(["theory", "--alpha", "1.5", "--points", "abc"]) == 1
    assert "--points" in capsys.readouterr().err
    assert run(["nosuchcommand"]) == 1
    with pytest.raises(SystemExit) as info:
        run(["theory", "--help"])
    assert info.value.code == 0


@pytest.mark.parametrize("argv,flag", [
    (["theory", "--alpha", "1.5", "--seed", "1"], "--seed"),
    (["theory", "--alpha", "1.5", "--threads", "2"], "--threads"),
    (["theory", "--alpha", "1.5", "--diag", "d.json"], "--diag"),
    (["compare", "--theory", "a.csv", "--spectra", "b.csv", "--seed", "1"],
     "--seed"),
    (["compare", "--theory", "a.csv", "--spectra", "b.csv", "--threads",
      "2"], "--threads"),
    (["critical-set", "--alpha", "1.5", "--model", "band"], "--model"),
    (["critical-set", "--alpha", "1.5", "--seed", "1"], "--seed"),
    (["selftest", "--out", "."], "--out")],
    ids=["theory-seed", "theory-threads", "theory-diag", "compare-seed",
         "compare-threads", "critical-set-model", "critical-set-seed",
         "selftest-out"])
def test_subcommand_rejects_flags_it_does_not_read(argv, flag, capsys,
                                                   tmp_path, monkeypatch):
    # each subcommand registers only the flags it reads, so a dead flag
    # is a usage error (exit 1) that writes nothing
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 1
    assert flag in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


# a bad evaluation point or grid end: each is rejected with an error line
# that names its flag, before the configuration is echoed
BAD_POINTS = [
    (["--t", "0"], "--t"),
    (["--t", "nan"], "--t"),
    (["--t", "inf"], "--t"),
    (["--model", "wishart", "--gamma", "0.5", "--t", "-1"], "--t"),
    (["--t-max", "inf"], "--t-max")]
BAD_POINT_IDS = ["t-zero", "t-nan", "t-inf", "wishart-t-negative",
                 "t-max-inf"]


# a comparison window or excluded neighbourhood of 0 that compare and
# simulate reject before they write anything
BAD_WINDOWS = [
    (["--window=-inf:inf"], "--window"),
    (["--window=0:nan"], "--window"),
    (["--exclude-zero", "100"], "--exclude-zero"),
    (["--exclude-zero", "-1"], "--exclude-zero"),
    (["--exclude-zero", "nan"], "--exclude-zero"),
    (["--window=0.1:20", "--exclude-zero", "inf"], "--exclude-zero")]
BAD_WINDOW_IDS = ["window-infinite", "window-nan", "exclude-all",
                  "exclude-negative", "exclude-nan", "exclude-infinite"]
_SIMULATE = ["simulate", "--alpha", "1.5", "--n", "10", "--trials", "1"]


@pytest.mark.parametrize("command", ["compare", "simulate"])
@pytest.mark.parametrize("flags,named", BAD_WINDOWS, ids=BAD_WINDOW_IDS)
def test_bad_window_names_its_flag(command, flags, named, capsys, tmp_path):
    # compare reads valid inputs, so only the flags can stop it
    _write_inputs(tmp_path, {})
    out = tmp_path / "out"
    argv = _COMPARE if command == "compare" else _SIMULATE
    code = run([a.format(dir=tmp_path) for a in argv] + flags
               + ["--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {named} ")
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--window=-10:10", "--exclude-zero", "0.2"],
    ["--window=0.1:20.0", "--exclude-zero", "0.0"]],
    ids=["symmetric", "positive"])
def test_simulate_accepts_comparison_windows(flags, tmp_path):
    assert run(_SIMULATE + flags + ["--out", str(tmp_path)]) == 0
    campaign = json.loads((tmp_path / "campaign.json").read_text())
    assert campaign["spec"]["excluded0"] == float(flags[-1])


def test_aborted_campaign_is_a_numerical_failure(capsys, tmp_path,
                                                 monkeypatch):
    # more than 5% of trials aborted: one line and exit 2, as for every
    # numerical failure, never a traceback
    from htspectra import montecarlo
    from htspectra.eig import EigenDecompositionError

    def failing(spec, trial):
        raise EigenDecompositionError("synthetic failure")

    monkeypatch.setattr(montecarlo, "_one_trial", failing)
    code = run(_SIMULATE + ["--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["numerical failure: 1 of 1 trials aborted (> 5%)"]
    assert not (tmp_path / "eigenvalues.csv").exists()


@pytest.mark.parametrize("flags,named", [
    (["--t-min", "0"], "--t-min"),
    (["--t-min", "10", "--t-max", "1"], "--t-max"),
    (["--points", "0"], "--points"),
    (["--points", "1"], "--points")] + BAD_POINTS,
    ids=["t-min-zero", "t-max-below-t-min", "points-zero", "points-one"]
    + BAD_POINT_IDS)
def test_theory_rejects_bad_grid(flags, named, capsys, tmp_path):
    code = run(["theory", "--alpha", "1.5", "--out", str(tmp_path)] + flags)
    assert code == 1
    assert f"error: {named} " in capsys.readouterr().err
    assert not (tmp_path / "density.csv").exists()


@pytest.mark.parametrize("flags,named", [
    (["--n", "10", "--trials", "0"], "--trials"),
    (["--n", "0"], "--n"),
    (["--model", "wishart", "--n", "10", "--m", "20"], "--m")],
    ids=["trials-zero", "n-zero", "m-above-n"])
def test_simulate_rejects_bad_sizes(flags, named, capsys, tmp_path):
    code = run(["simulate", "--alpha", "1.5", "--out", str(tmp_path)] + flags)
    assert code == 1
    assert f"error: {named} " in capsys.readouterr().err
    assert not (tmp_path / "config-simulate.json").exists()


@pytest.mark.parametrize("argv", [
    ["theory", "--alpha", "1.5", "--t-min", "0"],
    ["theory", "--alpha", "1.5", "--t-min", "10", "--t-max", "1"],
    ["theory", "--alpha", "1.5", "--points", "1"],
    ["theory", "--alpha", "1.5", "--model", "perturbed"],
    ["theory", "--alpha", "1.5", "--model", "wishart"],
    ["theory", "--alpha", "1.5", "--model", "band", "--profile", "no.json"],
    ["compare", "--theory", "no.csv", "--spectra", "no2.csv"],
    ["compare", "--theory", "no.csv", "--spectra", "no2.csv",
     "--window", "oops"]]
    + [["theory", "--alpha", "1.5"] + flags for flags, _ in BAD_POINTS]
    + [_SIMULATE + flags for flags, _ in BAD_WINDOWS],
    ids=["t-min-zero", "t-max-below-t-min", "points-one",
         "perturbed", "wishart-no-gamma", "missing-profile",
         "compare-missing-inputs", "compare-bad-window"] + BAD_POINT_IDS
    + [f"simulate-{name}" for name in BAD_WINDOW_IDS])
def test_rejected_run_leaves_no_config_echo(argv, tmp_path):
    assert run(argv + ["--out", str(tmp_path)]) == 1
    assert os.listdir(tmp_path) == []


def test_theory_and_simulate_keep_their_config_echoes(tmp_path):
    out = ["--alpha", "1.5", "--out", str(tmp_path)]
    assert run(["theory", "--t-min", "0.1", "--t-max", "10",
                "--points", "4"] + out) == 0
    assert run(["simulate", "--n", "40", "--trials", "1"] + out) == 0
    theory = json.loads((tmp_path / "config-theory.json").read_text())
    simulate = json.loads((tmp_path / "config-simulate.json").read_text())
    assert theory["command"] == "theory" and theory["points"] == 4
    assert simulate["command"] == "simulate" and simulate["n"] == 40


def test_theory_single_point_cauchy(capsys, tmp_path):
    code = run(["theory", "--alpha", "1.0", "--t", "0.001",
                "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "rho(0.001)" in out
    value = float(out.split("=")[1])
    assert abs(value - 1.0 / math.pi) < 1e-3
    assert (tmp_path / "density.csv").exists()
    assert (tmp_path / "density.plt").exists()
    assert (tmp_path / "config-theory.json").exists()


def test_theory_single_point_marchenko_pastur(capsys, tmp_path):
    # W = X X^t / a_{2N}^2 at alpha=2: rho(t) = sqrt(2/t - 1)/pi, 1/pi at 1
    code = run(["theory", "--alpha", "2.0", "--model", "wishart",
                "--gamma", "1.0", "--t", "1.0", "--out", str(tmp_path)])
    assert code == 0
    value = float(capsys.readouterr().out.split("=")[1])
    assert abs(value - 1.0 / math.pi) < 1e-6


def test_theory_single_point_replaces_curve_sidecar(tmp_path):
    # a single point written over an earlier curve must not leave that
    # curve's density.json next to its own one-row density.csv
    assert run(["theory", "--alpha", "1.5", "--points", "5",
                "--out", str(tmp_path)]) == 0
    assert run(["theory", "--alpha", "1.5", "--t", "1.0",
                "--out", str(tmp_path)]) == 0
    _, row = (tmp_path / "density.csv").read_text().splitlines()
    t, rho = map(float, row.split(","))
    side = json.loads((tmp_path / "density.json").read_text())
    record = side.pop("points")
    assert side == {"t": t, "rho": rho, "model": "wigner", "alpha": 1.5,
                    "gamma": None}
    # the one point's record, as a curve point carries it, at the t asked
    # for
    assert len(record) == 1 and record[0]["t"] == t == 1.0
    assert record[0]["method"] == "eps" and record[0]["halvings"] == 0
    assert record[0]["eps_reached"] == 1e-6
    assert record[0]["residual"] <= 1e-13
    assert record[0]["newton_iterations"] >= 1


def test_theory_single_point_reports_clipped_density(capsys, tmp_path):
    # at alpha=1.8, gamma=0.5, t=0.1 lies in the gap, where the solved
    # density is a negative roundoff value; a single point reports
    # max(rho, 0), as a curve stores it
    assert run(["theory", "--model", "wishart", "--alpha", "1.8",
                "--gamma", "0.5", "--t", "0.1", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out == "rho(0.1) = 0\n"
    _, row = (tmp_path / "density.csv").read_text().splitlines()
    assert float(row.split(",")[1]) == 0.0
    assert json.loads((tmp_path / "density.json").read_text())["rho"] == 0.0


def test_theory_wrong_branch_curve_exits_2(capsys, tmp_path):
    # this sweep accepts a solution off the density's branch at t = 0.01,
    # where rho would read -0.0610: a numerical failure, not a usage error
    # or a traceback
    code = run(["theory", "--model", "wishart", "--gamma", "0.5",
                "--alpha", "1.8", "--t-min", "1e-2", "--t-max", "1e3",
                "--points", "12", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: negative density")
    assert "t=0.01:" in err


def test_theory_at_tiny_alpha_names_the_contraction_radius(capsys,
                                                            tmp_path):
    # the contraction radius (3 L)^(1/alpha) exceeds the floating-point
    # range at alpha = 1e-5: a numerical failure that names alpha and the
    # radius, not a bare OverflowError
    code = run(["theory", "--alpha", "1e-5", "--points", "3",
                "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ")
    assert "contraction radius" in err and "alpha=1e-05" in err


def test_theory_single_point_negative_density_exits_2(capsys, tmp_path,
                                                      monkeypatch):
    # a single point shares the curve's check: a density below -1e-9 is a
    # wrong branch, not a value to clip
    from htspectra import density

    monkeypatch.setattr(density, "_wishart_rho", lambda a, t, y: -1e-3)
    assert run(["theory", "--model", "wishart", "--gamma", "0.5",
                "--alpha", "1.5", "--t", "0.7", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(
        "numerical failure: negative density")
    assert not (tmp_path / "density.csv").exists()


def test_theory_perturbed_rejected(capsys, tmp_path):
    code = run(["theory", "--alpha", "1.5", "--model", "perturbed",
                "--t", "1.0", "--out", str(tmp_path)])
    assert code == 1
    assert "transforms" in capsys.readouterr().err


def test_theory_curve_outputs(tmp_path):
    code = run(["theory", "--alpha", "1.5", "--t-min", "0.1",
                "--t-max", "10", "--points", "12", "--out", str(tmp_path)])
    assert code == 0
    side = json.loads((tmp_path / "density.json").read_text())
    assert side["alpha"] == 1.5 and side["symmetric"]
    text = (tmp_path / "density.csv").read_text()
    assert text.startswith("t,rho\n")
    assert len(text.strip().splitlines()) == 25   # header + mirrored grid


def test_theory_wishart_cone_edge_curve(tmp_path):
    # the per-point eps path at t=0.1 passes arguments on the cone edge,
    # where g's noise can stall the solve (exit 2)
    code = run(["theory", "--model", "wishart", "--alpha", "1.7",
                "--gamma", "0.9", "--t-min", "1e-2", "--t-max", "1e4",
                "--points", "8", "--out", str(tmp_path)])
    assert code == 0
    recs = json.loads((tmp_path / "density.json").read_text())["points"]
    assert len(recs) == 8 and all(r["residual"] <= 1e-13 for r in recs)


def test_theory_wishart_atom_is_one_minus_gamma(tmp_path):
    assert run(["theory", "--model", "wishart", "--alpha", "0.5",
                "--gamma", "0.5", "--t-min", "0.1", "--t-max", "10",
                "--points", "4", "--out", str(tmp_path)]) == 0
    side = json.loads((tmp_path / "density.json").read_text())
    assert side["atom_at_zero"] == 0.5


def test_theory_records_every_point(tmp_path):
    code = run(["theory", "--alpha", "1.0", "--t-min", "0.01",
                "--t-max", "100", "--points", "6", "--out", str(tmp_path)])
    assert code == 0
    recs = json.loads((tmp_path / "density.json").read_text())["points"]
    rows = (tmp_path / "density.csv").read_text().strip().splitlines()[1:]
    # one record per t > 0, the upper half of the mirrored grid
    assert [r["t"] for r in recs] == [float(r.split(",")[0])
                                      for r in rows[6:]]
    assert [r["method"] for r in recs] == ["sweep"] * 5 + ["eps"]
    for r in recs:
        assert set(r) == {"t", "method", "newton_iterations", "residual",
                          "halvings", "eps_reached"}
        assert r["residual"] <= 1e-13


def test_simulate_deterministic(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    args = ["simulate", "--alpha", "1.5", "--n", "60", "--trials", "2",
            "--seed", "11"]
    assert run(args + ["--out", str(d1)]) == 0
    assert run(args + ["--out", str(d2), "--threads", "2"]) == 0
    assert (d1 / "eigenvalues.csv").read_bytes() \
        == (d2 / "eigenvalues.csv").read_bytes()
    camp = json.loads((d1 / "campaign.json").read_text())
    assert camp["spec"]["ensemble"]["alpha"] == 1.5


@pytest.mark.parametrize("seed_flag", [[], ["--seed", "77"]],
                         ids=["default", "flag"])
def test_simulate_echoes_the_seed_it_used(seed_flag, tmp_path):
    # the config echo reproduces the run: its seed is the campaign's
    args = ["simulate", "--alpha", "1.2", "--n", "40", "--trials", "1",
            "--out", str(tmp_path)] + seed_flag
    assert run(args) == 0
    echo = json.loads((tmp_path / "config-simulate.json").read_text())
    camp = json.loads((tmp_path / "campaign.json").read_text())
    assert echo["seed"] == camp["spec"]["master_seed"]
    assert echo["seed"] == (int(seed_flag[1]) if seed_flag else 0)


_DIAG_LAW = {"atoms": [{"lambda": -1.0, "w": 0.5}, {"lambda": 1.0, "w": 0.5}]}


def test_simulate_perturbed_echoes_its_diagonal_law(tmp_path):
    diag = tmp_path / "diag.json"
    diag.write_text(json.dumps(_DIAG_LAW))
    out = tmp_path / "out"
    assert run(["simulate", "--model", "perturbed", "--diag", str(diag),
                "--alpha", "1.5", "--n", "40", "--trials", "2", "--seed", "1",
                "--out", str(out)]) == 0
    camp = json.loads((out / "campaign.json").read_text())
    assert camp["spec"]["ensemble"]["diagonal"] == _DIAG_LAW
    assert len((out / "eigenvalues.csv").read_text().splitlines()) == 1 + 80


def test_simulate_perturbed_needs_diag(capsys, tmp_path):
    out = tmp_path / "out"
    assert run(["simulate", "--model", "perturbed", "--alpha", "1.5",
                "--n", "40", "--trials", "2", "--out", str(out)]) == 1
    assert "--diag" in capsys.readouterr().err
    assert not out.exists()


def test_compare_round_trip(capsys, tmp_path):
    theory_dir = tmp_path / "theory"
    sim_dir = tmp_path / "sim"
    assert run(["theory", "--alpha", "1.5", "--t-min", "0.05",
                "--t-max", "50", "--points", "40",
                "--out", str(theory_dir)]) == 0
    assert run(["simulate", "--alpha", "1.5", "--n", "200", "--trials", "2",
                "--seed", "3", "--out", str(sim_dir)]) == 0
    capsys.readouterr()
    code = run(["compare",
                "--theory", str(theory_dir / "density.csv"),
                "--spectra", str(sim_dir / "eigenvalues.csv"),
                "--window=-8:8", "--exclude-zero", "0.2",
                "--out", str(tmp_path)])
    assert code == 0
    captured = capsys.readouterr()
    assert "ks =" in captured.out
    report = json.loads((tmp_path / "distance.json").read_text())
    assert report["ks"] < 0.2


def test_single_point_theory_csv_reads_back(capsys, tmp_path):
    # at alpha=1.5, t=0.7 the density comes from the tanh-sinh path, whose
    # numpy scalar once reached the CSV as "np.float64(...)"
    theory_dir, sim_dir = tmp_path / "theory", tmp_path / "sim"
    assert run(["theory", "--alpha", "1.5", "--t", "0.7",
                "--out", str(theory_dir)]) == 0
    _, row = (theory_dir / "density.csv").read_text().splitlines()
    side = json.loads((theory_dir / "density.json").read_text())
    assert list(map(float, row.split(","))) == [side["t"], side["rho"]]
    assert run(["simulate", "--alpha", "1.5", "--n", "40", "--trials", "1",
                "--seed", "1", "--out", str(sim_dir)]) == 0
    capsys.readouterr()
    # compare parses the row; one point is no CDF, and it says so
    assert run(["compare",
                "--theory", str(theory_dir / "density.csv"),
                "--spectra", str(sim_dir / "eigenvalues.csv"),
                "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --theory") and "length >= 2" in err


def test_compare_warns_on_alpha_mismatch(capsys, tmp_path):
    theory_dir = tmp_path / "theory"
    sim_dir = tmp_path / "sim"
    assert run(["theory", "--alpha", "1.0", "--t-min", "0.05",
                "--t-max", "50", "--points", "20",
                "--out", str(theory_dir)]) == 0
    assert run(["simulate", "--alpha", "1.5", "--n", "50", "--trials", "1",
                "--out", str(sim_dir)]) == 0
    capsys.readouterr()
    assert run(["compare",
                "--theory", str(theory_dir / "density.csv"),
                "--spectra", str(sim_dir / "eigenvalues.csv"),
                "--window=-5:5", "--exclude-zero", "0.2",
                "--out", str(tmp_path)]) == 0
    assert "warning" in capsys.readouterr().err


def test_compare_warns_on_model_mismatch(capsys, tmp_path):
    theory_dir = tmp_path / "theory"
    assert run(["theory", "--alpha", "1.2", "--t-min", "0.05",
                "--t-max", "50", "--points", "20",
                "--out", str(theory_dir)]) == 0
    for model in ("wishart", "wigner"):
        assert run(["simulate", "--model", model, "--alpha", "1.2",
                    "--n", "40", "--trials", "1",
                    "--out", str(tmp_path / model)]) == 0
    capsys.readouterr()
    compare = ["compare", "--theory", str(theory_dir / "density.csv"),
               "--window=0.1:5", "--out", str(tmp_path)]
    spectra = str(tmp_path / "wishart" / "eigenvalues.csv")
    assert run(compare + ["--spectra", spectra]) == 0
    err = capsys.readouterr().err
    assert "warning" in err and "covariance" in err and "alpha" not in err
    spectra = str(tmp_path / "wigner" / "eigenvalues.csv")
    assert run(compare + ["--spectra", spectra]) == 0
    assert capsys.readouterr().err == ""


def test_selftest_exit_codes(capsys, monkeypatch):
    from htspectra import acceptance

    def raising():
        raise ArithmeticError("boom")

    passing = ("passes", lambda n: (n == 3, f"n = {n}"), {"n": 3})
    monkeypatch.setattr(acceptance, "SELFTEST", (passing,))
    assert run(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "PASS  passes" in out and "all checks passed" in out
    failing = ("fails", lambda: (False, "off"), {})
    monkeypatch.setattr(acceptance, "SELFTEST", (passing, failing))
    assert run(["selftest"]) == 2
    assert "FAIL  fails" in capsys.readouterr().out
    monkeypatch.setattr(acceptance, "SELFTEST", (("boom", raising, {}),))
    assert run(["selftest"]) == 2
    out = capsys.readouterr().out
    assert "FAIL  boom" in out and "raised ArithmeticError: boom" in out


def test_compare_missing_inputs(capsys, tmp_path):
    code = run(["compare", "--theory", str(tmp_path / "no.csv"),
                "--spectra", str(tmp_path / "no2.csv"),
                "--out", str(tmp_path)])
    assert code == 1


def test_critical_set_outputs(tmp_path, capsys):
    code = run(["critical-set", "--alpha", "1.9", "--out", str(tmp_path)])
    assert code == 0
    data = json.loads((tmp_path / "critical.json").read_text())
    assert data["alpha"] == 1.9
    assert isinstance(data["critical_points"], list)


# ---------------------------------------------------------------------------
# malformed input files


_THEORY_CSV = "t,rho\n-1.0,0.25\n1.0,0.25\n"
_SIDECAR = json.dumps({"alpha": 1.5, "model": "wigner"})
_SPECTRA_CSV = "trial,lambda\n0,-0.5\n0,0.5\n"


def _write_inputs(tmp_path, replaced):
    """Valid density.csv, density.json and eigenvalues.csv in tmp_path,
    except for the files named in replaced, which get its texts."""
    files = {"density.csv": _THEORY_CSV, "density.json": _SIDECAR,
             "eigenvalues.csv": _SPECTRA_CSV}
    files.update(replaced)
    for name, text in files.items():
        (tmp_path / name).write_text(text)


_COMPARE = ["compare", "--theory", "{dir}/density.csv",
            "--spectra", "{dir}/eigenvalues.csv"]
_NAN_PROFILE = '{"type": "constant", "c": NaN}'


@pytest.mark.parametrize("argv,files,flag", [
    (["simulate", "--model", "perturbed", "--alpha", "1.5", "--n", "10",
      "--trials", "1", "--diag", "{dir}/input.json"],
     {"input.json": '{"atoms": [[-1, 0.5], [1, 0.5]]}'}, "--diag"),
    (["theory", "--model", "band", "--alpha", "1.5", "--t", "1.0",
      "--profile", "{dir}/input.json"], {"input.json": "[1, 2]"},
     "--profile"),
    (["theory", "--model", "band", "--alpha", "1.5", "--t", "1.0",
      "--profile", "{dir}/input.json"],
     {"input.json": '{"type": "band", "breakpoints": 5, "values": [1]}'},
     "--profile"),
    (_COMPARE, {"density.csv": "1.0,0.25\n"}, "--theory"),
    (_COMPARE, {"density.json": "not json"}, "--theory"),
    (_COMPARE, {"density.json": "{}"}, "--theory"),
    (_COMPARE, {"eigenvalues.csv": "0,0.5\n"}, "--spectra"),
    (["theory", "--model", "band", "--alpha", "1.5", "--t-min", "0.1",
      "--t-max", "10", "--points", "4", "--profile", "{dir}/input.json"],
     {"input.json": _NAN_PROFILE}, "--profile"),
    (_SIMULATE + ["--model", "band", "--profile", "{dir}/input.json"],
     {"input.json": _NAN_PROFILE}, "--profile"),
    (_SIMULATE + ["--model", "band", "--profile", "{dir}/input.json"],
     {"input.json": '{"type": "piecewise", "breaks": [0.0, NaN, 1.0], '
                    '"matrix": [[1.0, 1.0], [1.0, 1.0]]}'}, "--profile"),
    (_SIMULATE + ["--model", "perturbed", "--diag", "{dir}/input.json"],
     {"input.json": '{"atoms": [{"lambda": NaN, "w": 1.0}]}'}, "--diag"),
    (_SIMULATE + ["--model", "perturbed", "--diag", "{dir}/input.json"],
     {"input.json": '{"atoms": [{"lambda": Infinity, "w": 1.0}]}'},
     "--diag"),
    (_SIMULATE + ["--model", "perturbed", "--diag", "{dir}/input.json"],
     {"input.json": '{"atoms": [{"lambda": -1.0, "w": NaN}, '
                    '{"lambda": 1.0, "w": 0.5}]}'}, "--diag")],
    ids=["diag-atom-pairs", "profile-list", "profile-scalar-breakpoints",
         "theory-csv-header", "theory-sidecar-not-json",
         "theory-sidecar-empty", "spectra-csv-header", "theory-nan-profile",
         "simulate-nan-profile", "simulate-nan-break", "diag-nan-lambda",
         "diag-infinite-lambda", "diag-nan-weight"])
def test_malformed_input_file_is_a_config_error(argv, files, flag, tmp_path):
    """A file that parses wrongly ends in one error line naming its flag
    and exit 1, never a traceback, and the run writes nothing."""
    _write_inputs(tmp_path, files)
    out = tmp_path / "out"
    argv = [a.format(dir=tmp_path) for a in argv] + ["--out", str(out)]
    src = os.path.dirname(os.path.dirname(os.path.abspath(htspectra.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "htspectra.cli"] + argv,
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    errors = [ln for ln in proc.stderr.splitlines() if ln.startswith("error:")]
    assert len(errors) == 1 and flag in errors[0], proc.stderr
    assert not out.exists()


# ---------------------------------------------------------------------------
# simulate --model wishart: M from --gamma, --m, or N // 2


def _simulated_m(tmp_path, flags):
    out = tmp_path / "sim"
    code = run(["simulate", "--model", "wishart", "--alpha", "1.2",
                "--trials", "1", "--out", str(out)] + flags)
    assert code == 0
    campaign = json.loads((out / "campaign.json").read_text())
    return campaign["spec"]["ensemble"]["M"]


def test_simulate_wishart_at_tiny_alpha_keeps_its_trial(tmp_path):
    # entries exp(E/alpha) at alpha = 0.02 are finite, but a product of
    # two of them is not: X X^t overflowed before its division by a^2 and
    # the one trial aborted; the normalized matrix is finite
    assert run(["simulate", "--model", "wishart", "--alpha", "0.02",
                "--n", "60", "--trials", "1", "--seed", "1",
                "--out", str(tmp_path)]) == 0
    campaign = json.loads((tmp_path / "campaign.json").read_text())
    assert campaign["aborted_trials"] == 0


def test_simulate_wishart_takes_m_from_gamma(tmp_path):
    assert _simulated_m(tmp_path, ["--gamma", "0.9", "--n", "40"]) == 36


def test_simulate_wishart_without_gamma_or_m_takes_half_of_n(tmp_path):
    assert _simulated_m(tmp_path, ["--n", "40"]) == 20


def test_simulate_wishart_accepts_agreeing_gamma_and_m(tmp_path):
    assert _simulated_m(tmp_path, ["--gamma", "0.5", "--n", "40",
                                   "--m", "20"]) == 20


def test_simulate_wishart_rejects_conflicting_gamma_and_m(capsys, tmp_path):
    code = run(["simulate", "--model", "wishart", "--alpha", "1.2",
                "--gamma", "0.9", "--n", "40", "--m", "20",
                "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --m ") and "--gamma" in err
    assert os.listdir(tmp_path) == []


# ---------------------------------------------------------------------------
# the band model end to end


def test_theory_band_is_scaled_wigner(tmp_path):
    """The band profile phi = 1 on |x - y| < 1/4 (mod 1), 0 elsewhere, has
    int |phi|^alpha = 1/2, so its density is the Wigner density scaled by
    sigma = 0.5^(1/alpha)."""
    profile = tmp_path / "band.json"
    profile.write_text(json.dumps({"type": "band",
                                   "breakpoints": [0.0, 0.25, 0.75, 1.0],
                                   "values": [1.0, 0.0, 1.0]}))
    sig = 0.5 ** (1.0 / 1.5)
    band = ["theory", "--model", "band", "--alpha", "1.5",
            "--profile", str(profile)]
    assert run(band + ["--t", "1.1", "--out", str(tmp_path / "b")]) == 0
    assert run(["theory", "--alpha", "1.5", "--t", repr(1.1 / sig),
                "--out", str(tmp_path / "w")]) == 0
    rho_band = json.loads((tmp_path / "b" / "density.json").read_text())["rho"]
    rho_wig = json.loads((tmp_path / "w" / "density.json").read_text())["rho"]
    assert abs(rho_band - rho_wig / sig) <= 1e-8
    assert run(band + ["--t-min", "0.5", "--t-max", "2", "--points", "3",
                       "--out", str(tmp_path / "g")]) == 0
    side = json.loads((tmp_path / "g" / "density.json").read_text())
    assert side["model"] == "band"
    assert side["tail_constant"] == 0.375      # (alpha/2) * 1/2

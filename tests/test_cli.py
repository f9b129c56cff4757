"""End-to-end runs of the command-line front end via main(argv)."""

import argparse
import configparser
import contextlib
import dataclasses
import io
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dsl_expressions import LAGRANGIAN_LEAVES, NUMBERS, expressions
from tsvar import cli, inequalities
from tsvar.solvers import SolverConfig


def run_cli(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    return exc.value.code


def write_config(tmp_path, text, name="problem.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


CLASSIC_INI = """\
[scale]
a = 0
b = 1
h = 0.25

[problem]
alpha = 1
beta = 1
lagrangian = 0.5*v^2 - u
a = 0
b = 0

[solver]
starts = 6
seed = 0
"""


def test_frac_solve_writes_outputs(tmp_path, capsys):
    config = write_config(tmp_path, CLASSIC_INI)
    out = tmp_path / "run1"
    assert run_cli(["frac-solve", "--config", config, "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "1 candidate(s)" in text
    csv = (out / "candidates.csv").read_text().splitlines()
    assert csv[0] == "candidate_id,t,y,residual_norm,legendre_ok,functional_value"
    assert len(csv) == 1 + 5  # one candidate on a five-point grid
    dat = (out / "extremal_1.dat").read_text().splitlines()
    assert len(dat) == 5
    t, y = map(float, dat[2].split())
    assert t == 0.5
    assert y == pytest.approx(0.125, abs=1e-9)


def test_frac_solve_byte_stable(tmp_path):
    config = write_config(tmp_path, CLASSIC_INI)
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run_cli(["frac-solve", "--config", config, "--out", str(out),
                        "--seed", "7"]) == 0
        blobs.append((out / "candidates.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_frac_solve_no_csv_writes_nothing(tmp_path):
    config = write_config(tmp_path, CLASSIC_INI)
    out = tmp_path / "empty"
    assert run_cli(["frac-solve", "--config", config, "--out", str(out),
                    "--no-csv"]) == 0
    assert not out.exists()


def test_frac_solve_fraction_step(tmp_path, capsys):
    config = write_config(tmp_path, """\
[scale]
a = 0
b = 1
h = 1/5

[problem]
lagrangian = 0.5*v^2
a = 0
b = 1

[solver]
starts = 4
""")
    assert run_cli(["frac-solve", "--config", config, "--out",
                    str(tmp_path / "o")]) == 0
    csv = (tmp_path / "o" / "candidates.csv").read_text().splitlines()
    assert len(csv) == 1 + 6


def test_config_errors_exit_2(tmp_path, capsys):
    missing = run_cli(["frac-solve", "--config", str(tmp_path / "nope.ini")])
    assert missing == 2

    bad_expr = write_config(tmp_path, CLASSIC_INI.replace(
        "lagrangian = 0.5*v^2 - u", "lagrangian = 0.5*v^2 - $"), "bad.ini")
    assert run_cli(["frac-solve", "--config", bad_expr]) == 2
    assert "offset" in capsys.readouterr().err

    bad_h = write_config(tmp_path, CLASSIC_INI.replace("h = 0.25", "h = 0.3"),
                         "badh.ini")
    assert run_cli(["frac-solve", "--config", bad_h]) == 2

    # a billion grid points is refused before anything is allocated
    huge = write_config(tmp_path, CLASSIC_INI.replace("h = 0.25", "h = 1e-9"),
                        "huge.ini")
    assert run_cli(["frac-solve", "--config", huge]) == 2
    assert "config error:" in capsys.readouterr().err

    bad_alpha = write_config(tmp_path, CLASSIC_INI.replace(
        "alpha = 1", "alpha = 1.5"), "bada.ini")
    assert run_cli(["frac-solve", "--config", bad_alpha]) == 2

    no_section = write_config(tmp_path, "[scale]\na = 0\nb = 1\nh = 0.5\n",
                              "nosec.ini")
    assert run_cli(["frac-solve", "--config", no_section]) == 2


_VAR_INI = "[scale]\nscale = {scale}\n\n[problem]\nlagrangian = {L}\na = 0\nb = 1\n{extra}"
_ARC_LENGTH = "\n[solver]\nstarts = 16\nseed = 0\nbox = -3, 3\n"


@pytest.mark.parametrize("argv, config, code, err", [
    pytest.param(["frac-solve", "--config", "{config}"],
                 CLASSIC_INI.replace("0.5*v^2 - u", "0.5*v^2 - $"), 2,
                 "config error: bad lagrangian: syntax error at offset 10: "
                 "unexpected character '$'", id="bad-lagrangian"),
    pytest.param(["frac-solve", "--config", "{config}"],
                 CLASSIC_INI.replace("lagrangian = 0.5*v^2 - u\n", ""), 2,
                 "config error: missing [problem] lagrangian", id="missing-key"),
    pytest.param(["frac-solve", "--config", "{config}"], None, 2,
                 "config error: cannot read config file '{config}'", id="unreadable-file"),
    pytest.param(["var-solve", "--config", "{config}", "--no-csv"],
                 _VAR_INI.format(scale="points(0, 1)", L="v^2", extra=""), 2,
                 "config error: need at least 3 points for a variational problem",
                 id="two-point-scale"),
    pytest.param(["frac-solve", "--config", "{config}", "--no-csv"],
                 CLASSIC_INI.replace("starts = 6", "starts = 0"), 2,
                 "config error: solver starts = 0 must be at least 1", id="zero-starts"),
    pytest.param(["frac-solve", "--config", "{config}", "--no-csv"],
                 CLASSIC_INI.replace("h = 0.25", "h = 0.3"), 2,
                 "config error: (b-a)/h = 3.3333333333333335 is not a positive integer",
                 id="steps-not-whole"),
    pytest.param(["sturm", "--scale", "uniform(0,1,0.1)", "--q", "ln(t-5)", "--no-csv"], None, 2,
                 "config error: ln of non-positive value: -5.0", id="ln-as-q"),
    pytest.param(["ineq-check", "--suite", "jensen", "--trials", "0"], None, 2,
                 "config error: --trials 0 must be at least 1", id="zero-trials"),
    pytest.param(["var-solve", "--config", "{config}", "--no-csv"],
                 _VAR_INI.format(scale="uniform(0, 1, 0.1)", L="sqrt(1 + v^2)", extra=_ARC_LENGTH),
                 3, "solver failed: no start converged", id="arc-length-no-convergence"),
])
def test_each_error_kind_prints_its_one_line(tmp_path, capsys, argv, config, code, err):
    # a pole in phi is pinned by test_direct_power_with_a_pole_in_phi_is_a_config_error
    path = str(tmp_path / "problem.ini")
    if config is not None:
        write_config(tmp_path, config)
    assert run_cli([arg.replace("{config}", path) for arg in argv]) == code
    captured = capsys.readouterr()
    assert captured.err == err.replace("{config}", path) + "\n"
    assert captured.out == ""


@pytest.mark.parametrize("scale, shown", [("geometric(1e200,0,2)", "1e+200^2"),
                                          ("geometric(2,0,1100)", "2.0^1100")])
def test_geometric_scales_past_the_float_range_exit_2(tmp_path, capsys, scale, shown):
    line = f"config error: q^kmax = {shown} overflows the float range\n"
    config = write_config(tmp_path, _VAR_INI.format(scale=scale, L="v^2", extra=""))
    assert run_cli(["var-solve", "--config", config, "--no-csv"]) == 2
    assert capsys.readouterr().err == line
    assert run_cli(["sturm", "--scale", scale, "--no-csv"]) == 2
    assert capsys.readouterr().err == line


def test_var_solve_classical(tmp_path, capsys):
    config = write_config(tmp_path, """\
[scale]
scale = uniform(0, 5, 1)

[problem]
lagrangian = v^2
a = 0
b = 1

[solver]
starts = 4
""")
    out = tmp_path / "var"
    assert run_cli(["var-solve", "--config", config, "--out", str(out)]) == 0
    dat = (out / "extremal_1.dat").read_text().splitlines()
    ys = [float(line.split()[1]) for line in dat]
    assert ys == pytest.approx(list(np.linspace(0, 1, 6)), abs=1e-9)


def test_var_solve_isoperimetric(tmp_path, capsys):
    config = write_config(tmp_path, """\
[scale]
scale = uniform(0, 4, 1)

[problem]
lagrangian = v^2
g = u
l = 6
a = 0
b = 0

[solver]
starts = 8
""")
    assert run_cli(["var-solve", "--config", config, "--out",
                    str(tmp_path / "iso")]) == 0
    dat = (tmp_path / "iso" / "extremal_1.dat").read_text().splitlines()
    ys = np.array([float(line.split()[1]) for line in dat])
    # integral of y over [0, 4) must hit the prescribed level
    assert float(np.sum(ys[:-1])) == pytest.approx(6.0, abs=1e-7)


def test_var_solve_bad_scale_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, """\
[scale]
scale = zigzag(0, 5)

[problem]
lagrangian = v^2
a = 0
b = 1
""")
    assert run_cli(["var-solve", "--config", config]) == 2
    assert "bad scale" in capsys.readouterr().err


@pytest.mark.parametrize("scale", ["geometric(2, 0.5, 4)", "geometric(2, 0, 4.9)"])
def test_var_solve_fractional_geometric_exponents_exit_2(tmp_path, capsys, scale):
    # int() would truncate them and solve on another scale
    config = write_config(tmp_path, f"[scale]\nscale = {scale}\n\n"
                          "[problem]\nlagrangian = v^2\na = 0\nb = 1\n")
    assert run_cli(["var-solve", "--config", config]) == 2
    assert "kmin and kmax must be integers" in capsys.readouterr().err


@pytest.mark.parametrize("scale", ["uniform(0,1,1e-9)", "geometric(2,0,1e9)",
                                   "geometric(2,0,1e400)"])
def test_var_solve_scale_beyond_the_point_cap_exits_2(tmp_path, capsys, scale):
    # each is refused before a single point is allocated
    config = write_config(tmp_path, f"[scale]\nscale = {scale}\n\n"
                          "[problem]\nlagrangian = v^2\na = 0\nb = 1\n")
    assert run_cli(["var-solve", "--config", config]) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_dense_solvers_beyond_their_point_cap_exit_2(tmp_path, capsys):
    # the isoperimetric and eigenvalue solvers stay dense; 2002 points are one
    # too many, and each refuses before it builds a matrix
    scale = "uniform(0,2001,1)"
    config = write_config(tmp_path, f"[scale]\nscale = {scale}\n\n[problem]\n"
                          "lagrangian = v^2\ng = u\nl = 1\na = 0\nb = 0\n")
    assert run_cli(["var-solve", "--config", config, "--no-csv"]) == 2
    assert "at most 2001 grid points" in capsys.readouterr().err
    assert run_cli(["sturm", "--scale", scale, "--q", "0", "--no-csv"]) == 2
    assert "at most 2001 grid points" in capsys.readouterr().err


def test_direct_entropy_and_power(tmp_path, capsys):
    out = tmp_path / "d"
    assert run_cli(["direct", "--kind", "entropy", "--scale", "uniform(0,5,1)",
                    "--phi", "2*t + 1", "--B", "25", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "entropy extremum F" in text
    dat = (out / "extremal_1.dat").read_text().splitlines()
    ys = [float(line.split()[1]) for line in dat]
    assert ys == [0.0, 9.0, 16.0, 21.0, 24.0, 25.0]

    assert run_cli(["direct", "--kind", "power", "--scale", "uniform(0,4,1)",
                    "--phi", "1 + t", "--B", "8", "--alpha-exp", "2",
                    "--no-csv", "--out", str(out)]) == 0
    assert run_cli(["direct", "--kind", "power", "--scale", "uniform(0,4,1)",
                    "--phi", "1 + t", "--B", "8", "--no-csv"]) == 2
    capsys.readouterr()



def test_direct_power_reaches_a_target_far_above_its_first_steps(capsys):
    # G(x) = x from 0 doubles about 130 times to reach C = 1e40; every piece on
    # the way is far below 1e-16 C, but G grows, so none is a plateau
    argv = ["direct", "--kind", "power", "--alpha-exp", "2", "--scale", "uniform(0,1,0.5)",
            "--phi", "1", "--B", "1e40", "--no-csv"]
    assert run_cli(argv) == 0
    assert "power extremum F = 1.0000000000000003e+80 (min)" in capsys.readouterr().out

def test_sturm_matches_closed_form(tmp_path, capsys):
    out = tmp_path / "s"
    assert run_cli(["sturm", "--scale", "uniform(0,10,1)", "--q", "0",
                    "--out", str(out)]) == 0
    text = capsys.readouterr().out
    lam = float(text.split("lambda_1 =")[1].strip().splitlines()[0])
    assert lam == pytest.approx(2.0 - 2.0 * math.cos(math.pi / 10.0), abs=1e-10)
    dat = (out / "eigenfunction_1.dat").read_text().splitlines()
    assert len(dat) == 11


def test_sturm_expression_potential(capsys):
    # the potential enters as +q y^sigma on the left, so q = 1 lowers lambda
    assert run_cli(["sturm", "--scale", "uniform(0,5,1)", "--q", "0*t + 1",
                    "--no-csv"]) == 0
    lam = float(capsys.readouterr().out.split("lambda_1 =")[1].strip()
                .splitlines()[0])
    assert lam == pytest.approx(1.0 - 2.0 * math.cos(math.pi / 5.0), abs=1e-10)


def test_ineq_check_small_runs(capsys):
    assert run_cli(["ineq-check", "--suite", "jensen", "--trials", "40",
                    "--seed", "1"]) == 0
    assert "suite jensen: 40/40 hold" in capsys.readouterr().out
    assert run_cli(["ineq-check", "--suite", "all", "--trials", "8",
                    "--seed", "3"]) == 0
    out = capsys.readouterr().out
    for name in ("holder", "cauchy-schwarz", "minkowski", "gronwall",
                 "comparison", "gronwall2d"):
        assert f"suite {name}: 8/8 hold" in out


def test_ineq_check_builds_its_scales_without_kind_detection(monkeypatch, capsys):
    # no suite reads a kind, step or ratio, so its random scales are declared explicit
    def no_detection(points, gaps):
        raise AssertionError("kind detection ran")

    monkeypatch.setattr(cli.timescale, "_detect_kind", no_detection)
    assert run_cli(["ineq-check", "--suite", "all", "--trials", "20",
                    "--seed", "0"]) == 0
    assert capsys.readouterr().out.count("20/20 hold") == len(cli._SUITES)


def test_ineq_check_makes_one_certifier_call_per_certifier_trial(monkeypatch, capsys):
    # the calls the benchmark counts as inequalities.certify.calls on bounds
    calls = dict.fromkeys(("jensen_certify", "holder_certify", "cauchy_schwarz_certify",
                           "minkowski_certify"), 0)

    def counting(name, certify):
        def count(*args, **kwargs):
            calls[name] += 1
            return certify(*args, **kwargs)

        return count

    for name in calls:
        monkeypatch.setattr(inequalities, name, counting(name, getattr(inequalities, name)))
    assert run_cli(["ineq-check", "--suite", "all", "--trials", "1000", "--seed", "0"]) == 0
    assert capsys.readouterr().out.count("1000/1000 hold") == len(cli._SUITES)
    # cauchy_schwarz_certify enters holder_certify as well
    assert calls == {"jensen_certify": 1000, "holder_certify": 2000,
                     "cauchy_schwarz_certify": 1000, "minkowski_certify": 1000}
    assert sum(calls.values()) == 5000


@pytest.mark.parametrize("trials", ["-5", "0"])
def test_ineq_check_without_trials_is_a_config_error(capsys, trials):
    # a suite of no trials certifies nothing; exit 1 would read as a failed run
    assert run_cli(["ineq-check", "--suite", "jensen", "--trials", trials]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:") and "hold" not in captured.out


@pytest.mark.parametrize("name", ["directZ", "jensen-counterexample",
                                  "gronwall2d", "qscale"])
def test_repro_fast_cases_pass(name, capsys):
    assert run_cli(["repro", name]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "PASS" in out


def test_repro_gronwall2d_prints_plain_floats(capsys):
    assert run_cli(["repro", "gronwall2d"]) == 0
    out = capsys.readouterr().out
    assert "(got 1.5)" in out and "np.float64" not in out


def test_repro_ex1_converges(capsys):
    assert run_cli(["repro", "ex1"]) == 0
    assert "nonincreasing" in capsys.readouterr().out


def test_repro_ex2_converges(capsys):
    assert run_cli(["repro", "ex2"]) == 0
    out = capsys.readouterr().out
    assert out.count("observed order 0.4") == len(cli.EX2_STEPS) - 1
    assert "PASS  order-3/4 problem: last observed order within 0.45-0.55" in out


def test_repro_ex3a_reports_objective_mismatch(capsys):
    # candidate count, Legendre verdicts and grid values reproduce, but the
    # reference table's objective column does not (see the acceptance-suite
    # module docstring), so the repro harness must report FAIL and exit 1
    assert run_cli(["repro", "ex3a"]) == 1
    out = capsys.readouterr().out
    assert "PASS  cubic+quadratic problem: >=8 candidates (got 8)" in out
    assert "PASS  exactly 2 pass Legendre (got 2)" in out
    assert "FAIL  winner matches reference values" in out


def test_solver_flag_overrides_config(tmp_path, capsys):
    # an invalid start budget of zero comes from the flag, not the config
    config = write_config(tmp_path, CLASSIC_INI)
    code = run_cli(["frac-solve", "--config", config, "--no-csv",
                    "--starts", "0"])
    assert code == 2
    assert "starts = 0" in capsys.readouterr().err


def _solver_config(section: str, starts=None, seed=None, tol=None):
    cp = configparser.ConfigParser()
    cp.read_string("[solver]\n" + section)
    return cli._solver_config(cp, argparse.Namespace(starts=starts, seed=seed, tol=tol))


def test_an_empty_solver_section_gives_the_library_defaults():
    assert _solver_config("") == SolverConfig()


def test_the_cli_takes_each_unset_solver_setting_from_solver_config(monkeypatch):
    @dataclasses.dataclass
    class Other(SolverConfig):
        starts: int = 7
        seed: int = 3
        box: tuple = (-1.0, 1.0)
        tol: float = 1e-6

    monkeypatch.setattr(cli, "SolverConfig", Other)
    assert _solver_config("") == Other()
    assert _solver_config("seed = 5\nstarts = 9", starts=2) == Other(starts=2, seed=5)


@pytest.mark.parametrize("setting", [
    "--tol inf", "tol = inf", "tol = nan", "tol = -1",
    "box = -inf,1", "box = nan,1", "box = -1e308,1e308",
])
def test_unusable_solver_settings_are_config_errors(tmp_path, capsys, setting):
    # tol = inf would accept every random start as a root, and boxes like
    # these overflow the start generator
    flags = setting.split() if setting.startswith("--") else []
    config = write_config(tmp_path, CLASSIC_INI + ("" if flags else setting + "\n"))
    assert run_cli(["frac-solve", "--config", config, "--no-csv", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: solver ") and "Traceback" not in err


@pytest.mark.parametrize("setting, shown", [
    ("starts = inf", "starts = inf"), ("starts = nan", "starts = nan"),
    ("starts = 2.5", "starts = 2.5"), ("starts = 1e400", "starts = inf"),
    ("starts = 1e8", "starts = 100000000"),
    ("seed = -1", "seed = -1"), ("seed = 2.5", "seed = 2.5"), ("--seed -1", "seed = -1"),
])
def test_starts_and_seed_that_are_not_usable_counts_are_config_errors(
        tmp_path, capsys, setting, shown):
    # int() would truncate 2.5 and overflow on inf; 1e8 starts would ask for
    # a table of 3e8 start numbers
    flags = setting.split() if setting.startswith("--") else []
    text = CLASSIC_INI.replace("starts = 6\nseed = 0\n", "" if flags else setting + "\n")
    config = write_config(tmp_path, text)
    assert run_cli(["frac-solve", "--config", config, "--no-csv", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: solver {shown} ") and "Traceback" not in err


def test_frac_solve_refuses_a_grid_beyond_its_point_cap(tmp_path, capsys):
    # a million points would need dense operators of terabytes
    config = write_config(tmp_path, CLASSIC_INI.replace("h = 0.25", "h = 1e-6"))
    assert run_cli(["frac-solve", "--config", config, "--no-csv"]) == 2
    assert "at most 2001 grid points" in capsys.readouterr().err


def test_zero_starts_in_config_is_a_config_error(tmp_path, capsys):
    config = write_config(tmp_path, CLASSIC_INI.replace("starts = 6", "starts = 0"))
    assert run_cli(["frac-solve", "--config", config, "--no-csv"]) == 2
    assert "config error: solver starts = 0 must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["exp", "entropy", "power"])
def test_direct_with_overflowing_phi_is_a_config_error(kind, capsys):
    argv = ["direct", "--kind", kind, "--scale", "uniform(0,1,0.25)",
            "--phi", "exp(1000*t)", "--B", "1", "--no-csv"]
    assert run_cli(argv + (["--alpha-exp", "2"] if kind == "power" else [])) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "not finite" in err


def test_direct_power_with_a_pole_in_phi_is_a_config_error(capsys):
    # phi's integral over [0, B] diverges at t = 0.30000001: the quadrature
    # runs out of evaluations instead of returning a finite value
    argv = ["direct", "--kind", "power", "--scale", "uniform(0,1,0.25)",
            "--phi", "(t - 0.30000001)^-2", "--B", "1", "--alpha-exp", "2", "--no-csv"]
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == ("config error: adaptive Simpson needs more than 100000 "
                            "evaluations on [0.0, 1.0]\n")
    assert captured.out == ""


def test_sturm_with_overflowing_potential_is_a_config_error(capsys):
    argv = ["sturm", "--scale", "uniform(0,1,0.1)", "--q", "exp(1000*t)", "--no-csv"]
    assert run_cli(argv) == 2
    assert "config error: q is not finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--kind", "exp", "--scale", "uniform(0,1,0.1)", "--phi", "1e308", "--B", "1e308"],
    ["--kind", "entropy", "--scale", "uniform(0,1,0.1)", "--phi", "t", "--B", "1e308"],
    ["--kind", "power", "--alpha-exp", "400", "--scale", "uniform(0,1,0.5)", "--phi", "1",
     "--B", "10"],
], ids=["exp", "entropy", "power"])
def test_direct_with_overflowing_functional_value_exits_2(argv, capsys):
    # finite phi and B whose F overflows: e^C, C ln C and C^400 past 1.8e308
    assert run_cli(["direct", *argv, "--no-csv"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "config error: the functional value F = inf is not finite\n"
    assert captured.out == ""


@pytest.mark.parametrize("alpha_exp", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("phi", ["0.5", "1"])
def test_direct_power_with_an_exponent_that_is_not_finite_exits_2(alpha_exp, phi, capsys):
    argv = ["direct", "--kind", "power", "--scale", "uniform(0,1,0.5)", "--phi", phi,
            "--B", "1", f"--alpha-exp={alpha_exp}", "--no-csv"]
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: exponent {float(alpha_exp)} must be finite\n"
    assert captured.out == ""


@pytest.mark.parametrize("scale", ["geometric(2,0,1)", "geometric(2,3,3)"])
def test_geometric_scale_of_fewer_than_three_exponents_exits_2(scale, capsys):
    argv = ["sturm", "--scale", scale, "--q", "1", "--no-csv"]
    assert run_cli(argv) == 2
    assert capsys.readouterr().err.startswith("config error: need at least three exponents")



_HUGE_L = "[scale]\nscale = uniform(0, 5, 1)\n\n[problem]\nlagrangian = 1e308\na = 0\nb = 1\n"


@pytest.mark.parametrize("command, text", [
    ("var-solve", _HUGE_L),
    ("var-solve", _HUGE_L + "g = u\nl = 1\n"),
    ("frac-solve", CLASSIC_INI.replace("alpha = 1", "alpha = 0.5")
     .replace("0.5*v^2 - u", "-w").replace("b = 0", "b = 1e308")),
], ids=["classical", "isoperimetric", "fractional"])
def test_solves_with_overflowing_functional_value_exit_2(tmp_path, capsys, command, text):
    # every y is stationary: F is the sum of mu * 1e308, or with beta = 1 depends
    # on the boundary values alone, and overflows either way
    assert run_cli([command, "--config", write_config(tmp_path, text), "--no-csv"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "config error: the functional value F = inf is not finite\n"
    assert "candidate(s)" not in captured.out

def test_sturm_with_overflowing_matrix_exits_2(capsys):
    # q = 1e308 is finite, but mu q is not once mu > 1
    argv = ["sturm", "--scale", "geometric(1.5,0,8)", "--q", "1e308", "--no-csv"]
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == ("config error: the Sturm-Liouville matrix is not finite "
                            "(mu q overflows)\n")
    assert "lambda_1" not in captured.out


# ---------------------------------------------------------------------------
# Config fuzzing: a working config with up to three fields swapped for other
# tokens, pathological ones among them.  Every valid grid stays below twenty
# points and every accepted start count at three or less, so an example takes
# milliseconds.

_TRAPS = ("inf", "-inf", "nan", "1e400", "1/0", "abc", "", None)  # None: key left out


def _field(base, *others):
    return base, st.sampled_from(others) | st.sampled_from(_TRAPS)


def _lagrangian_field(base, *others):
    """A Lagrangian's field: the tokens given, traps, or any dsl expression."""
    base, drawn = _field(base, *others)
    return base, drawn | expressions(LAGRANGIAN_LEAVES)


_SOLVER_FIELDS = {
    ("solver", "starts"): _field("3", "1", "0", "-1", "2.5", "1e8", "1e30"),
    ("solver", "seed"): _field("0", "7", "-1", "2.5", "1e30"),
    ("solver", "tol"): _field("1e-9", "0", "-1", "1e-300"),
    ("solver", "box"): _field("-2,3", "3,1", "-inf,1", "nan,1", "-1e308,1e308",
                              "-1e300,1e300", "0,0", "1", "1,2,3", "a,b"),
}
_LAGRANGIANS = ("v^3 + 1*w^2", "0.5*v^2 + 0.5*w^2 - u + 0.1*u^4", "u^1.5 + v^2",
                "ln(u) + v^2", "exp(1000*u) + v^2", "1/u + w^2", "sqrt(v)", "t*v^2",
                "u^1e400", "0*u", "v^2 +", "(((", "q")
_FRAC_FIELDS = {
    ("scale", "a"): _field("0", "-1", "1e308", "-1e308"),
    ("scale", "b"): _field("1", "0", "2", "1e308"),
    ("scale", "h"): _field("0.25", "1/3", "0.5", "0", "-0.25", "1e-300", "1e-6"),
    ("problem", "alpha"): _field("0.8", "1", "0.3", "0", "-0.5", "1.5", "1e-300"),
    ("problem", "beta"): _field("0.5", "1", "0", "2"),
    ("problem", "lagrangian"): _lagrangian_field("0.5*v^2 - u", *_LAGRANGIANS),
    ("problem", "a"): _field("0", "1", "1e308"),
    ("problem", "b"): _field("0", "1", "-1e308"),
    **_SOLVER_FIELDS,
}
_VAR_FIELDS = {
    ("scale", "scale"): _field(
        "uniform(0, 5, 1)", "uniform(0, 1, 0.25)", "uniform(0, 1, 0)", "uniform(0, inf, 1)",
        "uniform(0, 1, 1e-300)", "uniform(1, 2)", "geometric(2, 0, 4)", "geometric(0.5, 0, 3)",
        "geometric(inf, 0, 3)", "geometric(2, 0, 1e400)", "geometric(2, 0, 2000)",
        "points(0, 1, 3, 4)", "points(0, nan, 1)", "points(1, 0)", "points()", "nonsense"),
    ("problem", "lagrangian"): _lagrangian_field("v^2", *_LAGRANGIANS),
    ("problem", "a"): _field("0", "1", "1e308"),
    ("problem", "b"): _field("1", "0", "-1e308"),
    ("problem", "g"): _field(None, "u", "v^2", "ln(u)", "0*u", "u +"),
    ("problem", "l"): _field(None, "1", "6", "0", "1e308"),
    **_SOLVER_FIELDS,
}


@st.composite
def _configs(draw, fields):
    swapped = draw(st.lists(st.sampled_from(list(fields)), max_size=3, unique=True))
    sections = {}
    for key, (base, others) in fields.items():
        token = draw(others) if key in swapped else base
        lines = sections.setdefault(key[0], [])
        if token is not None:
            lines.append(f"{key[1]} = {token}\n")
    return "".join(f"[{name}]\n" + "".join(lines) for name, lines in sections.items())


def _run_fuzzed(command, text):
    """The contract of the `direct` and `sturm` fuzz tests, on a config file."""
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "fuzz.ini"
        config.write_text(text)
        _run_contract([command, "--config", str(config), "--no-csv"], text)


@given(_configs(_FRAC_FIELDS))
def test_fuzzed_frac_solve_configs_exit_with_a_documented_code(text):
    _run_fuzzed("frac-solve", text)


@given(_configs(_VAR_FIELDS))
def test_fuzzed_var_solve_configs_exit_with_a_documented_code(text):
    _run_fuzzed("var-solve", text)


# Command-line fuzzing of `direct` and `sturm`: expressions from the dsl grammar
# (t and the numbers of dsl_expressions), a few malformed ones, and scales and
# numbers with pathological entries.  The contract is checked in-process: a
# documented exit code, no other exception, no RuntimeWarning, and at exit 0
# no number printed that is not finite.

_SCALES = ("uniform(0,5,1)", "uniform(0,1,0.1)", "uniform(0,1,0.5)", "uniform(1,2,0.25)",
           "uniform(-1e308,1e308,1e308)", "uniform(0,1,0)", "uniform(0,inf,1)",
           "geometric(1.5,0,8)", "geometric(2,0,4)", "geometric(2,-3,2)", "geometric(0.5,0,3)",
           "geometric(1e200,0,2)", "geometric(2,0,1100)",
           "points(0,1,3,4)", "points(0.5,1.5)", "points(-1e308,0,1e308)", "points(0,1,1e308)",
           "points(0,nan,1)", "points(1,0)",
           "points(7)", "nonsense")
_NON_FINITE = re.compile(r"\b(nan|inf)\b", re.IGNORECASE)


def _run_contract(argv, context=None):
    """A documented exit code, no other exception, no RuntimeWarning, and at
    exit 0 no number printed that is not finite; failures show ``context``
    (argv by default)."""
    context = argv if context is None else context
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli(argv)  # any exception but SystemExit fails the test
    assert code in (0, 1, 2, 3), context
    runtime = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not runtime, (context, runtime)
    if code == 0:
        assert not _NON_FINITE.search(out.getvalue()), (context, out.getvalue())


@given(st.sampled_from(("power", "exp", "entropy")), st.sampled_from(_SCALES),
       expressions(("t",) * 4 + ("u", "pi", "e") + NUMBERS),
       st.sampled_from(NUMBERS + ("-1", "25", "1e40", "-1e308", "nan", "inf", "abc")),
       st.sampled_from((None,) + NUMBERS + ("-1", "nan", "inf")))
def test_fuzzed_direct_runs_keep_the_error_contract(kind, scale, phi, B, alpha_exp):
    argv = ["direct", "--kind", kind, "--scale", scale, "--phi", phi, "--B", B, "--no-csv"]
    _run_contract(argv + ([] if alpha_exp is None else ["--alpha-exp", alpha_exp]))


@given(st.sampled_from(_SCALES),
       st.sampled_from(NUMBERS + ("-1", "-1e308", "nan", "inf"))
       | expressions(("t",) * 4 + ("pi", "e") + NUMBERS))
def test_fuzzed_sturm_runs_keep_the_error_contract(scale, q):
    _run_contract(["sturm", "--scale", scale, "--q", q, "--no-csv"])

"""End-to-end runs of the command-line front end via main(argv)."""

import math

import numpy as np
import pytest

from tsvar import cli


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


@pytest.mark.parametrize("scale", ["uniform(0,1,1e-9)", "geometric(2,0,1e9)",
                                   "geometric(2,0,1e400)"])
def test_var_solve_scale_beyond_the_point_cap_exits_2(tmp_path, capsys, scale):
    # each is refused before a single point is allocated
    config = write_config(tmp_path, f"[scale]\nscale = {scale}\n\n"
                          "[problem]\nlagrangian = v^2\na = 0\nb = 1\n")
    assert run_cli(["var-solve", "--config", config]) == 2
    assert capsys.readouterr().err.startswith("config error:")


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


@pytest.mark.parametrize("name", ["directZ", "jensen-counterexample",
                                  "gronwall2d", "qscale"])
def test_repro_fast_cases_pass(name, capsys):
    assert run_cli(["repro", name]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "PASS" in out


def test_repro_ex1_converges(capsys):
    assert run_cli(["repro", "ex1"]) == 0
    assert "nonincreasing" in capsys.readouterr().out


def test_repro_ex2_converges(capsys):
    assert run_cli(["repro", "ex2"]) == 0
    assert "strictly decreasing" in capsys.readouterr().out


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


def test_sturm_with_overflowing_potential_is_a_config_error(capsys):
    argv = ["sturm", "--scale", "uniform(0,1,0.1)", "--q", "exp(1000*t)", "--no-csv"]
    assert run_cli(argv) == 2
    assert "config error: q is not finite" in capsys.readouterr().err

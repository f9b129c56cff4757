"""The benchmark's workloads: seeded problem lists and the checks on their outputs.

``build(name, seed)`` does the set-up (parse the Lagrangians, build the grids,
problems and random data) and returns a list of ``Problem``.  A problem's
``solve`` goes through tsvar's public API only; its ``check`` returns the list
of ways the output is wrong, empty when it is right.  Nothing here times or
traces anything, so the untraced run loads no tracer code.

Run as a script to rewrite ``golden.json`` from the current code:

    PYTHONPATH=src python3 bench/workloads.py
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from tsvar import cli, dsl, fracvar, inequalities, timescale, varcalc
from tsvar.solvers import SolverConfig

GOLDEN_PATH = Path(__file__).with_name("golden.json")

# Rows of the published candidate tables (interior grid values).
CRIT01_ROW = (1.0306820, 1.8920322, 2.7429222)
CRIT02_ROW = (0.259846344, 0.364035314, 0.463222456, 0.597907505)
ROW_TOL = 1e-4
GOLDEN_TOL = 1e-6
RESIDUAL_TOL = 1e-8


@dataclass
class Problem:
    name: str
    solve: Callable[[], object]
    check: Callable[[object], list]


def _frac_problem(b, h, orders, lagrangian, A, B):
    return fracvar.FracProblem(fracvar.FracGrid(0.0, b, h), fracvar.FracOrders(*orders),
                               dsl.parse(lagrangian), A=A, B=B)


# ---------------------------------------------------------------------------
# multistart: the two 512-start candidate tables


def _table_check(min_count: int, n_legendre: int, row):
    """Counts and the reference row; never the objective column, red by design."""
    row = np.asarray(row)

    def check(cands) -> list:
        errors = []
        if len(cands) < min_count:
            errors.append(f"{len(cands)} candidates, expected at least {min_count}")
        verified = [c for c in cands if c.legendre_ok]
        if len(verified) != n_legendre:
            errors.append(f"{len(verified)} Legendre passes, expected {n_legendre}")
        if not any(np.max(np.abs(c.y.values[1:-1] - row)) <= ROW_TOL for c in verified):
            errors.append("reference row matches no Legendre-verified candidate")
        return errors

    return check


def _multistart(seed: int) -> list:
    cfg = SolverConfig(starts=512, seed=seed, box=(-6.0, 6.0))
    p01 = _frac_problem(1.0, 0.25, (0.8, 0.5), "v^3 + 1*w^2", 0.0, 1.0)
    p02 = _frac_problem(0.5, 0.1, (0.3, 0.3), "v^3", 0.0, 1.0)
    return [
        Problem("criterion01", lambda: fracvar.solve_frac_el(p01, cfg),
                _table_check(8, 2, CRIT01_ROW)),
        Problem("criterion02", lambda: fracvar.solve_frac_el(p02, cfg),
                _table_check(16, 1, CRIT02_ROW)),
    ]


# ---------------------------------------------------------------------------
# finegrid: one start per problem on large grids


def _load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def _candidate_check(name: str, golden: dict, multiplier=None):
    def check(cands) -> list:
        if not isinstance(cands, list):
            cands = [cands]
        if len(cands) != 1:
            return [f"{len(cands)} candidates, expected exactly 1"]
        c = cands[0]
        errors = []
        if not c.legendre_ok:
            errors.append("Legendre check failed")
        if not c.residual_norm <= RESIDUAL_TOL:
            errors.append(f"residual norm {c.residual_norm:.3e} > {RESIDUAL_TOL}")
        ref = np.asarray(golden[name])
        y = np.asarray(c.y.values)
        if y.shape != ref.shape or not np.max(np.abs(y - ref)) <= GOLDEN_TOL:
            errors.append("y-row differs from the golden values")
        if multiplier is not None and not abs(c.multiplier - multiplier[0]) <= multiplier[1]:
            errors.append(f"multiplier {c.multiplier} is not {multiplier[0]} +- {multiplier[1]}")
        return errors

    return check


def _finegrid(seed: int, golden=None) -> list:
    golden = _load_golden() if golden is None else golden
    # Starts drawn from the solutions' own range converge in a seed-independent
    # number of Newton steps, so the seed moves the start but not the work.
    cfg = SolverConfig(starts=1, seed=seed, box=(0.0, 1.0))
    quartic = "0.5*v^2 + 0.5*w^2 - u + 0.1*u^4"
    pa = _frac_problem(1.0, 0.005, (0.75, 0.6), quartic, 0.0, 1.0)
    # free right end: its natural-boundary row joins the system (the left
    # row stays fixed, it does not match the gradient when beta < 1)
    pb = _frac_problem(1.0, 0.01, (0.75, 0.6), quartic, 0.0, None)
    pc = varcalc.VariationalProblem(timescale.uniform(0.0, 1.0, 0.005),
                                    dsl.parse("0.5*v^2 + 0.25*u^4"), 0.0, 1.0)
    pd = varcalc.IsoperimetricProblem(timescale.uniform(0.0, 1.0, 0.01),
                                      dsl.parse("v^2"), dsl.parse("u"), 0.0, 0.0, 1.0)
    return [
        Problem("frac_fixed_n201", lambda: fracvar.solve_frac_el(pa, cfg),
                _candidate_check("frac_fixed_n201", golden)),
        Problem("frac_free_right_n101", lambda: fracvar.solve_frac_el(pb, cfg),
                _candidate_check("frac_free_right_n101", golden)),
        Problem("classical_n201", lambda: varcalc.solve_el(pc, cfg),
                _candidate_check("classical_n201", golden)),
        # continuous optimum y = 6 t (1 - t), multiplier 24
        Problem("isoperimetric_n101", lambda: varcalc.solve_isoperimetric(pd, cfg),
                _candidate_check("isoperimetric_n101", golden, multiplier=(24.0, 0.01))),
    ]


# ---------------------------------------------------------------------------
# bounds: eigenvalue, Gronwall-type bounds and the inequality suites


def _close_check(reference: np.ndarray, rtol: float):
    """Bound values against a recomputation made here, not by tsvar."""
    def check(bound) -> list:
        got = np.asarray(bound.values)
        atol = rtol * float(np.max(np.abs(reference)))
        if got.shape != reference.shape or not np.allclose(got, reference, rtol=rtol, atol=atol):
            return ["bound differs from the benchmark's own recomputation"]
        return []

    return check


def _prefix_products(mu: np.ndarray, p: np.ndarray) -> np.ndarray:
    """P[i] = product over j < i of (1 + mu_j p_j)."""
    return np.concatenate([[1.0], np.cumprod(1.0 + mu * p[:-1])])


def _sturm_problem() -> Problem:
    ts = timescale.uniform(0.0, 201.0, 1.0)
    q = timescale.GridFunction.constant(ts, 0.0)
    n, h = len(ts), 1.0
    exact = 4.0 * math.sin(math.pi / (2.0 * (n - 1))) ** 2 / h ** 2

    def check(out) -> list:
        lam = out[0]
        if not abs(lam - exact) <= 1e-10 * exact:
            return [f"lambda_1 = {lam!r}, expected {exact!r}"]
        return []

    return Problem("sturm_n200", lambda: varcalc.sturm_liouville_first(ts, q), check)


def _nonlinear_problem(rng) -> Problem:
    ts = timescale.uniform(0.0, 40.0, 1.0)
    pts = ts.points
    a = rng.uniform(0.5, 1.5, pts.size)
    f = rng.uniform(0.01, 0.05, pts.size)

    def kernel(t, s):
        return 0.002 * (1.0 + s / 40.0)

    spec = inequalities.NonlinearGrowthSpec(Phi=lambda x: x, W=lambda x: x, Psi_x0=1.0)

    # With identity Phi and W, Psi(x) = ln x and W(Psi^-1(Psi(zeta) + I)) = zeta e^I,
    # so the bound has a closed form on the grid.
    mu = np.diff(pts)
    p = _prefix_products(mu, f)
    F = np.concatenate([[0.0], np.cumsum(mu * f[:-1])])
    K = np.array([[kernel(t, s) for s in pts] for t in pts])
    zeta = float(np.sum(mu[:-1] * K[-2, :-2] * p[:-2] * a[:-2]))
    inner = np.tril(K[:, :-1], -1) @ (mu * p[:-1] * F[:-1])
    growth = zeta * np.exp(inner)
    acc = np.concatenate([[0.0], np.cumsum(mu * f[:-1] * growth[:-1])])
    reference = p * a + p * acc
    return Problem(
        "nonlinear_gronwall_n41",
        lambda: inequalities.nonlinear_gronwall_bound(ts, None, a, f, kernel, spec),
        _close_check(reference, 1e-7))


def _bounds(seed: int) -> list:
    rng = np.random.default_rng(seed)
    n = 2000
    steps = rng.uniform(0.001, 0.01, n - 1)
    pts = float(rng.uniform(-1.0, 1.0)) + np.concatenate([[0.0], np.cumsum(steps)])
    grid = timescale.explicit(pts)
    mu = np.diff(grid.points)
    a = rng.uniform(0.5, 1.5, n)
    b = rng.uniform(0.0, 1.0, n)
    P = _prefix_products(mu, b)
    gronwall_ref = a + P * np.concatenate([[0.0], np.cumsum(mu * a[:-1] * b[:-1] / P[1:])])
    p = rng.uniform(-0.5, 1.0, n)
    f = rng.uniform(-1.0, 1.0, n)
    y0 = float(rng.uniform(-1.0, 1.0))
    Pp = _prefix_products(mu, p)
    comparison_ref = Pp * (y0 + np.concatenate([[0.0], np.cumsum(mu * f[:-1] / Pp[1:])]))
    t0 = float(grid.points[0])
    argv = ["ineq-check", "--suite", "all", "--trials", "1000", "--seed", str(seed)]
    return [
        _sturm_problem(),
        _nonlinear_problem(rng),
        Problem("gronwall_n2000",
                lambda: inequalities.gronwall_bound(grid, a, b, t0),
                _close_check(gronwall_ref, 1e-9)),
        Problem("comparison_n2000",
                lambda: inequalities.comparison_bound(grid, y0, p, f, t0),
                _close_check(comparison_ref, 1e-9)),
        Problem("ineq_check_all", lambda: _run_cli(argv), _suites_check(1000)),
    ]


def _run_cli(argv: list) -> tuple:
    """(exit status, stdout) of ``tsvar.cli.main`` called in-process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            cli.main(argv)
            status = 0
        except SystemExit as exc:
            status = exc.code
    return status, out.getvalue()


def _suites_check(trials: int):
    def check(out) -> list:
        status, text = out
        errors = [] if status == 0 else [f"exit status {status}"]
        held = [line for line in text.splitlines() if line.endswith(f"{trials}/{trials} hold")]
        if len(held) != len(cli._SUITES):
            errors.append(f"{len(held)} of {len(cli._SUITES)} suites hold in every trial")
        return errors

    return check


WORKLOADS = {
    "multistart": _multistart,
    "finegrid": _finegrid,
    "bounds": _bounds,
}


def build(name: str, seed: int) -> list:
    return WORKLOADS[name](seed)


def write_golden() -> None:
    """Solve the finegrid problems (seed 0) and store their y-rows."""
    golden = {}
    for prob in _finegrid(0, golden={}):
        out = prob.solve()
        cand = out[0] if isinstance(out, list) else out
        golden[prob.name] = [float(x) for x in cand.y.values]
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=0)
        fh.write("\n")


if __name__ == "__main__":
    write_golden()

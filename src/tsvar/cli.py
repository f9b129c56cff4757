"""Command-line front end.

Subcommands
-----------
frac-solve   solve a fractional variational problem from an INI config
var-solve    solve a classical or isoperimetric problem from an INI config
direct       closed-form direct-method solvers (power / exp / entropy kinds)
sturm        first Sturm-Liouville eigenvalue on a grid
ineq-check   run randomized certification suites for the dynamic inequalities
repro        built-in reproduction runs with hard-coded parameters

Exit codes: 0 success, 1 reproduction FAIL, 2 config error, 3 no start of the
multi-start solver converged.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np

from . import dsl, fracvar, ineqcheck, inequalities, timescale, varcalc
from .errors import (
    ConstraintInfeasible,
    ExprSyntaxError,
    NoConvergence,
    NonFinite,
    SingularJacobian,
    TsvarError,
)
from .solvers import SolverConfig, adaptive_simpson
from .timescale import GridFunction, TimeScale


class _ConfigError(Exception):
    pass


@dataclass
class RunReport:
    command: str
    echo: dict = field(default_factory=dict)
    rows: list = field(default_factory=list)
    elapsed: float = 0.0
    exit_status: int = 0


# ---------------------------------------------------------------------------
# Config parsing


def _num(text: str) -> float:
    """Parse a decimal or a simple fraction like '1/30'."""
    text = text.strip()
    try:
        if "/" in text:
            return float(Fraction(text))
        return float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise _ConfigError(f"cannot parse number {text!r}: {exc}") from exc


_SCALE_RE = re.compile(r"^\s*(uniform|geometric|points)\s*\((.*)\)\s*$")


def _parse_scale(text: str) -> TimeScale:
    m = _SCALE_RE.match(text)
    if not m:
        raise _ConfigError(
            f"bad scale {text!r}; expected uniform(a,b,h), geometric(q,kmin,kmax) "
            "or points(t0,t1,...)")
    kind, body = m.group(1), m.group(2)
    args = [_num(part) for part in body.split(",") if part.strip()]
    try:
        if kind == "uniform":
            if len(args) != 3:
                raise _ConfigError("uniform(a,b,h) takes three numbers")
            return timescale.uniform(*args)
        if kind == "geometric":
            if len(args) != 3:
                raise _ConfigError("geometric(q,kmin,kmax) takes three numbers")
            return timescale.geometric(*args)
        return timescale.explicit(*args)
    except (TsvarError, ValueError) as exc:
        raise _ConfigError(str(exc)) from exc


def _load_config(path: str):
    import configparser

    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise _ConfigError(f"cannot read config file {path!r}")
    return cp


def _get(cp, section: str, key: str, default=None, required: bool = False):
    if cp.has_option(section, key):
        return cp.get(section, key)
    if required:
        raise _ConfigError(f"missing [{section}] {key}")
    return default


def _solver_config(cp, args) -> SolverConfig:
    """The solver settings a flag or the [solver] section gives, a flag first;
    SolverConfig's defaults fill the rest."""
    given = {}
    for key in ("starts", "seed", "tol"):
        value, raw = getattr(args, key), _get(cp, "solver", key)
        if value is None and raw is not None:
            value = _num(raw)
            if key != "tol" and value.is_integer():
                value = int(value)  # a whole number reads as an int: SolverConfig takes no float
        if value is not None:
            given[key] = value
    raw_box = _get(cp, "solver", "box")
    if raw_box is not None:
        parts = [_num(p) for p in raw_box.split(",")]
        if len(parts) != 2:
            raise _ConfigError(f"bad solver box {raw_box!r}")
        given["box"] = tuple(parts)
    return SolverConfig(**given)


def _parse_lagrangian(text: str):
    try:
        return dsl.parse(text)
    except ExprSyntaxError as exc:
        raise _ConfigError(f"bad lagrangian: {exc}") from exc


# ---------------------------------------------------------------------------
# Output


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_candidates_csv(out_dir: Path, points: np.ndarray, candidates) -> Path:
    path = out_dir / "candidates.csv"
    lines = ["candidate_id,t,y,residual_norm,legendre_ok,functional_value"]
    for cid, cand in enumerate(candidates, start=1):
        for t, yv in zip(points, cand.y.values):
            lines.append(
                f"{cid},{_fmt(t)},{_fmt(yv)},{_fmt(cand.residual_norm)},"
                f"{cand.legendre_ok},{_fmt(cand.functional_value)}")
    path.write_text("\n".join(lines) + "\n")
    return path


def _write_dat(out_dir: Path, name: str, points: np.ndarray, values) -> None:
    """Write "t y" lines to out_dir/name, creating out_dir when needed."""
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [f"{_fmt(t)} {_fmt(v)}" for t, v in zip(points, values)]
    (out_dir / name).write_text("\n".join(lines) + "\n")


def _print_candidates(points: np.ndarray, candidates) -> None:
    interior = points[1:-1]
    show_y = 1 <= interior.size <= 6
    header = "  # "
    if show_y:
        header += "".join(f"  y({t:g})".ljust(13) for t in interior)
    header += "  functional".ljust(16) + "  Legendre"
    print(header)
    for cid, cand in enumerate(candidates, start=1):
        row = f"{cid:3d} "
        if show_y:
            row += "".join(f"  {v: .7f}".ljust(13) for v in cand.y.values[1:-1])
        row += f"  {cand.functional_value: .7f}".ljust(16)
        row += "  " + ("yes" if cand.legendre_ok else "no")
        print(row)


def _emit(args, points: np.ndarray, candidates) -> None:
    _print_candidates(points, candidates)
    if args.csv:
        out_dir = Path(args.out)
        for cid, cand in enumerate(candidates, start=1):
            _write_dat(out_dir, f"extremal_{cid}.dat", points, cand.y.values)
        _write_candidates_csv(out_dir, points, candidates)
        print(f"wrote {len(candidates)} candidate(s) to {out_dir}/candidates.csv")


# ---------------------------------------------------------------------------
# Solver-backed subcommands


def cmd_frac_solve(args) -> RunReport:
    cp = _load_config(args.config)
    grid = fracvar.FracGrid(
        _num(_get(cp, "scale", "a", required=True)),
        _num(_get(cp, "scale", "b", required=True)),
        _num(_get(cp, "scale", "h", required=True)))
    orders = fracvar.FracOrders(
        _num(_get(cp, "problem", "alpha", default="1")),
        _num(_get(cp, "problem", "beta", default="1")))
    L = _parse_lagrangian(_get(cp, "problem", "lagrangian", required=True))
    A_raw = _get(cp, "problem", "a")
    B_raw = _get(cp, "problem", "b")
    problem = fracvar.FracProblem(
        grid, orders, L,
        A=_num(A_raw) if A_raw is not None else None,
        B=_num(B_raw) if B_raw is not None else None)
    cfg = _solver_config(cp, args)
    started = time.perf_counter()
    candidates = fracvar.solve_frac_el(problem, cfg)
    elapsed = time.perf_counter() - started
    points = grid.scale().points
    _emit(args, points, candidates)
    print(f"{len(candidates)} candidate(s) in {elapsed:.2f} s")
    return RunReport("frac-solve", echo={"config": args.config},
                     rows=candidates, elapsed=elapsed)


def cmd_var_solve(args) -> RunReport:
    cp = _load_config(args.config)
    scale = _parse_scale(_get(cp, "scale", "scale", required=True))
    L = _parse_lagrangian(_get(cp, "problem", "lagrangian", required=True))
    A = _num(_get(cp, "problem", "a", required=True))
    B = _num(_get(cp, "problem", "b", required=True))
    g_raw = _get(cp, "problem", "g")
    cfg = _solver_config(cp, args)
    started = time.perf_counter()
    if g_raw is not None:
        g = _parse_lagrangian(g_raw)
        level = _num(_get(cp, "problem", "l", required=True))
        problem = varcalc.IsoperimetricProblem(scale, L, g, A, B, level)
        candidates = [varcalc.solve_isoperimetric(problem, cfg)]
    else:
        problem = varcalc.VariationalProblem(scale, L, A, B)
        candidates = varcalc.solve_el(problem, cfg)
    elapsed = time.perf_counter() - started
    _emit(args, scale.points, candidates)
    print(f"{len(candidates)} candidate(s) in {elapsed:.2f} s")
    return RunReport("var-solve", echo={"config": args.config},
                     rows=candidates, elapsed=elapsed)


def _function_of_t(e: dsl.Expr):
    """t -> ``dsl.eval_value(e, t)``, bit for bit, with ``e`` compiled once:
    its order-0 program runs on the 0-d arguments eval_value would make,
    under the same errstate, without eval_value's per-call set-up."""
    run, zero = dsl.program(e, 0), np.zeros(())

    def f(t) -> float:
        with np.errstate(all="ignore"):  # overflow gives inf, as in eval_value
            return float(run(np.asarray(t, dtype=float), zero, zero, zero, ())[0])

    return f


def cmd_direct(args) -> RunReport:
    scale = _parse_scale(args.scale)
    phi_of_t = _function_of_t(_parse_lagrangian(args.phi))

    def phi(t: float) -> float:
        value = phi_of_t(t)
        if not math.isfinite(value):
            raise NonFinite(f"phi({float(t)!r}) = {value!r} is not finite")
        return value

    if args.kind == "power":
        if args.alpha_exp is None:
            raise _ConfigError("--alpha-exp is required for --kind power")
        result = varcalc.direct_solve_power(scale, phi, args.alpha_exp, args.B)
    elif args.kind == "exp":
        result = varcalc.direct_solve_exp(scale, phi, args.B)
    else:
        result = varcalc.direct_solve_entropy(scale, phi, args.B)
    print(f"       t            y(t)")
    for t, yv in zip(scale.points, result.y.values):
        print(f"{t:12.6g} {yv:15.8f}")
    print(f"{args.kind} extremum F = {result.F_value!r} ({result.kind})")
    if args.csv:
        _write_dat(Path(args.out), "extremal_1.dat", scale.points, result.y.values)
    return RunReport("direct", echo={"kind": args.kind}, rows=[result])


def cmd_sturm(args) -> RunReport:
    scale = _parse_scale(args.scale)
    try:
        q = float(args.q)
    except ValueError:
        q = _function_of_t(_parse_lagrangian(args.q))
    lam, y1 = varcalc.sturm_liouville_first(scale, q)
    print(f"lambda_1 = {lam!r}")
    if args.csv:
        _write_dat(Path(args.out), "eigenfunction_1.dat", scale.points, y1.values)
    return RunReport("sturm", echo={"scale": args.scale, "q": args.q}, rows=[lam])


# ---------------------------------------------------------------------------
# Randomized inequality suites


_SUITES = ineqcheck.SUITES


def cmd_ineq_check(args) -> RunReport:
    if args.trials < 1:
        raise _ConfigError(f"--trials {args.trials} must be at least 1")
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    all_ok = True
    for name in names:
        held = _SUITES[name](args.trials, args.seed)
        ok = held == args.trials
        all_ok = all_ok and ok
        print(f"suite {name}: {held}/{args.trials} hold"
              + ("" if ok else "  FAIL"))
    return RunReport("ineq-check", echo={"suite": args.suite},
                     exit_status=0 if all_ok else 1)


# ---------------------------------------------------------------------------
# Reproductions


def _check(label: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"{status}  {label}{suffix}")
    return ok


def _solve_frac(a, b, h, alpha, beta, lagrangian, A, B, **solver):
    problem = fracvar.FracProblem(
        fracvar.FracGrid(a, b, h), fracvar.FracOrders(alpha, beta),
        dsl.parse(lagrangian), A=A, B=B)
    return problem, fracvar.solve_frac_el(problem, SolverConfig(**solver))


def _repro_ex1() -> bool:
    hs = [0.5, 0.25, 0.125, 0.0625]
    errs = []
    for h in hs:
        _, cands = _solve_frac(0.0, 1.0, h, 1.0, 1.0, "0.5*v^2 - u",
                               0.0, 0.0, starts=6)
        y = cands[0].y
        exact = 0.5 * y.scale.points * (1.0 - y.scale.points)
        errs.append(float(np.max(np.abs(y.values - exact))))
    for h, e in zip(hs, errs):
        print(f"  h = {h:<7g} sup-error vs t(1-t)/2 = {e:.3e}")
    ok = all(errs[i + 1] <= errs[i] + 1e-12 for i in range(len(errs) - 1))
    return _check("quadratic Lagrangian: error nonincreasing and small",
                  ok and errs[-1] <= 0.05)


def _ex2_reference(t: float) -> float:
    if t <= 0.0:
        return 0.0

    def integrand(s: float) -> float:
        return (1.0 - t + s ** (4.0 / 3.0)) ** (-0.25)

    return (2.0 / 3.0) * adaptive_simpson(integrand, 0.0, t ** 0.75)


# repro ex2's grids, h = 1/N; tests/test_convergence.py holds the same orders
EX2_STEPS = (64, 128, 256, 512)


def _ex2_discrepancy(N: int) -> float:
    """h-weighted L2 distance from ex2's extremal on N steps to the continuous one:
    an integral metric, so coarse and fine grids are compared on equal footing."""
    h = 1.0 / N
    _, cands = _solve_frac(0.0, 1.0, h, 0.75, 0.75, "0.5*v^2", 0.0, 1.0, starts=1)
    y = cands[0].y
    dev = [y.values[j] - _ex2_reference(y.scale.points[j]) for j in range(1, N)]
    return math.sqrt(h * sum(d * d for d in dev))


def _repro_ex2() -> bool:
    discs = [_ex2_discrepancy(N) for N in EX2_STEPS]
    print(f"  h = 1/{EX2_STEPS[0]:<4d} discrepancy vs continuous extremal = {discs[0]:.4e}")
    orders = []
    for N0, N, d0, d in zip(EX2_STEPS, EX2_STEPS[1:], discs, discs[1:]):
        orders.append(math.log(d0 / d) / math.log(N / N0))
        print(f"  h = 1/{N:<4d} discrepancy vs continuous extremal = {d:.4e}, "
              f"observed order {orders[-1]:.3f}")
    return _check("order-3/4 problem: last observed order within 0.45-0.55",
                  0.45 <= orders[-1] <= 0.55)


_EX3A_WINNER = (1.0306820, 1.8920322, 2.7429222, -32.7189756)
_EX3B_WINNER = (0.259846344, 0.364035314, 0.463222456, 0.597907505, 5.104389191)


def _match_candidate(cands, values, functional, tol_y=1e-4, tol_f=1e-3):
    for cand in cands:
        interior = cand.y.values[1:-1]
        if len(interior) != len(values):
            continue
        if np.max(np.abs(interior - np.asarray(values))) <= tol_y \
                and abs(cand.functional_value - functional) <= tol_f:
            return cand
    return None


def _repro_table(label: str, b: float, h: float, orders: tuple, lagrangian: str,
                 winner: tuple, min_count: int, n_legendre: int) -> bool:
    """Candidate table of a 512-start solve on [0, b] with y(0) = 0, y(b) = 1.

    ``winner`` holds the reference interior values followed by the functional.
    """
    started = time.perf_counter()
    problem, cands = _solve_frac(0.0, b, h, *orders, lagrangian,
                                 0.0, 1.0, starts=512, box=(-6.0, 6.0))
    elapsed = time.perf_counter() - started
    _print_candidates(problem.grid.points(), cands)
    n_ok = sum(c.legendre_ok for c in cands)
    match = _match_candidate(cands, winner[:-1], winner[-1])
    ok = _check(f"{label}: >={min_count} candidates (got {len(cands)})",
                len(cands) >= min_count)
    verb = "passes" if n_legendre == 1 else "pass"
    ok &= _check(f"exactly {n_legendre} {verb} Legendre (got {n_ok})", n_ok == n_legendre)
    ok &= _check("winner matches reference values",
                 match is not None and match.legendre_ok)
    print(f"  solved in {elapsed:.2f} s")
    return bool(ok)


def _repro_qscale() -> bool:
    scale = timescale.geometric(2.0, 0, 8)
    pts = scale.points
    a, rho_b = pts[0], pts[-2]
    den = (a - rho_b) * (2.0 * a - rho_b) * (a - 2.0 * rho_b)
    exact = (a - pts) * (2.0 * a - pts) * (a - 2.0 * pts) / den
    sampled = GridFunction(scale, exact)
    ya = tuple(timescale.higher_delta_derivative(sampled, i).values[0]
               for i in range(2))
    yb = tuple(timescale.higher_delta_derivative(sampled, i).values[pts.size - 2]
               for i in range(2))
    L = varcalc.QuadraticLagrangian(np.diag([0.0, 0.0, 1.0]), np.zeros(3))
    problem = varcalc.HigherOrderProblem(scale, 2, L, ya, yb)
    cands = varcalc.solve_el(problem, SolverConfig(starts=4, seed=0))
    sup = float(np.max(np.abs(cands[0].y.values - exact)))
    print(f"  sup |y_numeric - y_closed_form| = {sup:.3e}")
    return _check("doubling-grid 4th-order problem matches closed form",
                  sup <= 1e-8)


def _repro_direct_z() -> bool:
    scale = timescale.uniform(0.0, 5.0, 1.0)
    result = varcalc.direct_solve_entropy(scale, lambda t: 2.0 * t + 1.0, 25.0)
    exact = 10.0 * scale.points - scale.points ** 2
    print("   t   y(t)")
    for t, yv in zip(scale.points, result.y.values):
        print(f"  {t:2.0f} {yv:6.1f}")
    err = float(np.max(np.abs(result.y.values - exact)))
    f_err = abs(result.F_value - 50.0 * math.log(10.0))
    ok = _check("extremal is y(t) = 10t - t^2", err <= 1e-12)
    ok &= _check("F = 50 ln 10", f_err <= 1e-12)
    return bool(ok)


def _repro_jensen_counterexample() -> bool:
    value = 2.0 * math.log(2.0) - 1.0
    claimed = -math.log(math.log(2.0))
    print(f"  functional value along the test curve: {value:.4f}")
    print(f"  claimed maximum:                       {claimed:.4f}")
    return _check("test curve beats the claimed maximum", value > claimed)


def _repro_gronwall_2d() -> bool:
    ts1 = timescale.uniform(0.0, 3.0, 1.0)
    ts2 = timescale.uniform(0.0, 2.0, 1.0)
    table = {(0, 0): 0.25, (1, 0): 0.2, (2, 0): 1.0,
             (0, 1): 0.5, (1, 1): 0.0, (2, 1): 5.0}

    def f(t1, t2):
        return table.get((int(round(t1)), int(round(t2))), 0.0)

    b1, b2 = inequalities.gronwall_2d_bound(ts1, ts2, lambda t1, t2: 1.0, f)
    targets = [
        ("bound1(2,1)", b1[2, 1], Fraction(3, 2)),
        ("bound2(2,1)", b2[2, 1], Fraction(29, 20)),
        ("bound1(3,2)", b1[3, 2], Fraction(147, 10)),
        ("bound2(3,2)", b2[3, 2], Fraction(637, 40)),
    ]
    ok = True
    for label, got, want in targets:
        ok &= _check(f"{label} = {want}", abs(got - float(want)) <= 1e-12,
                     f"got {float(got)!r}")
    return bool(ok)


_REPROS = {
    "ex1": _repro_ex1,
    "ex2": _repro_ex2,
    "ex3a": partial(_repro_table, "cubic+quadratic problem", 1.0, 0.25, (0.8, 0.5),
                    "v^3 + 1*w^2", _EX3A_WINNER, 8, 2),
    "ex3b": partial(_repro_table, "pure cubic problem", 0.5, 0.1, (0.3, 0.3),
                    "v^3", _EX3B_WINNER, 16, 1),
    "qscale": _repro_qscale,
    "directZ": _repro_direct_z,
    "jensen-counterexample": _repro_jensen_counterexample,
    "gronwall2d": _repro_gronwall_2d,
}


def cmd_repro(args) -> RunReport:
    names = list(_REPROS) if args.name == "all" else [args.name]
    started = time.perf_counter()
    all_ok = True
    for name in names:
        print(f"== {name} ==")
        all_ok &= _REPROS[name]()
    elapsed = time.perf_counter() - started
    return RunReport("repro", echo={"name": args.name}, elapsed=elapsed,
                     exit_status=0 if all_ok else 1)


# ---------------------------------------------------------------------------
# Entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsvar",
        description="Variational calculus on discrete time scales.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="INI problem file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--starts", type=int, default=None)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--csv", action=argparse.BooleanOptionalAction,
                       default=True, help="write CSV/plot files")

    p = sub.add_parser("frac-solve", help="solve a fractional problem")
    add_common(p)
    p.set_defaults(fn=cmd_frac_solve)

    p = sub.add_parser("var-solve", help="solve a classical problem")
    add_common(p)
    p.set_defaults(fn=cmd_var_solve)

    p = sub.add_parser("direct", help="closed-form direct methods")
    p.add_argument("--kind", choices=("power", "exp", "entropy"), required=True)
    p.add_argument("--scale", required=True, help='e.g. "uniform(0,5,1)"')
    p.add_argument("--phi", required=True, help="weight expression in t")
    p.add_argument("--B", type=float, required=True, help="right boundary value")
    p.add_argument("--alpha-exp", type=float, default=None,
                   help="exponent for --kind power")
    p.add_argument("--out", default=".")
    p.add_argument("--csv", action=argparse.BooleanOptionalAction, default=True)
    p.set_defaults(fn=cmd_direct)

    p = sub.add_parser("sturm", help="first Sturm-Liouville eigenvalue")
    p.add_argument("--scale", required=True)
    p.add_argument("--q", default="0", help="potential (number or expression in t)")
    p.add_argument("--out", default=".")
    p.add_argument("--csv", action=argparse.BooleanOptionalAction, default=True)
    p.set_defaults(fn=cmd_sturm)

    p = sub.add_parser("ineq-check", help="randomized inequality certification")
    p.add_argument("--suite", choices=tuple(_SUITES) + ("all",), required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_ineq_check)

    p = sub.add_parser("repro", help="built-in reproduction runs")
    p.add_argument("name", choices=tuple(_REPROS) + ("all",))
    p.set_defaults(fn=cmd_repro)

    return parser


def main(argv=None) -> None:
    args = _build_parser().parse_args(argv)
    try:
        report = args.fn(args)
    except (NoConvergence, ConstraintInfeasible, SingularJacobian) as exc:
        print(f"solver failed: {exc}", file=sys.stderr)
        sys.exit(3)
    except (_ConfigError, TsvarError, ValueError) as exc:  # a bad config or bad problem data
        print(f"config error: {exc}", file=sys.stderr)
        sys.exit(2)
    sys.exit(report.exit_status)


if __name__ == "__main__":
    main()

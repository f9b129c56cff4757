"""Euler-Lagrange machinery, Legendre checks, direct methods, eigenvalue problem."""

import math
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tsvar import dsl, fracvar, solvers, varcalc
from tsvar import timescale as tsc
from tsvar.errors import (
    DomainError,
    GridTooSmall,
    HypothesisHViolated,
    InvalidExponent,
    NoConvergence,
    NonFinite,
    NonPositivePhi,
    PreconditionViolated,
    RootNotBracketed,
    SingularJacobian,
)
from tsvar.solvers import MAX_DENSE_POINTS, SolverConfig, multi_start
from tsvar.varcalc import (
    DirectResult,
    HigherOrderProblem,
    IsoperimetricProblem,
    QuadraticLagrangian,
    VariationalProblem,
    direct_solve_entropy,
    direct_solve_exp,
    direct_solve_power,
    el_residual,
    el_residual_higher,
    entropy_functional,
    exp_functional,
    functional_value,
    functional_value_higher,
    legendre_check,
    power_functional,
    solve_el,
    solve_isoperimetric,
    sturm_liouville_first,
)


def zgrid(n):
    return tsc.uniform(0.0, float(n), 1.0)


# ---------------------------------------------------------------------------
# residuals and checks


def test_el_residual_zero_for_linear_y():
    g = zgrid(5)
    p = VariationalProblem(g, "v^2", 0.0, 1.0)
    y = tsc.GridFunction.sample(g, lambda t: t / 5.0)
    assert_allclose(el_residual(p, y).values, 0.0, atol=1e-14)
    const = tsc.GridFunction.constant(g, 2.0)
    pc = VariationalProblem(g, "v^2", 2.0, 2.0)
    assert_allclose(el_residual(pc, const).values, 0.0, atol=1e-15)


def test_el_residual_hand_expansion():
    # L = 0.5 v^2 - u on Z: residual(t) = -(second difference of y) - 1
    g = zgrid(4)
    p = VariationalProblem(g, "0.5*v^2 - u", 0.0, 0.0)
    vals = np.array([0.0, 1.5, 1.0, -2.0, 0.0])
    y = tsc.GridFunction(g, vals)
    second = vals[2:] - 2.0 * vals[1:-1] + vals[:-2]
    r = el_residual(p, y)
    assert_allclose(r.values, -second - 1.0, atol=1e-12)
    assert len(r.scale) == len(g) - 2  # lives on T^{kappa kappa}


def test_el_residual_is_defined_where_only_the_hessian_is_not():
    # L_uu = 0.75 u^-0.5 is undefined at u = 0, where L_u = 1.5 u^0.5 is 0
    g = tsc.uniform(0.0, 1.0, 0.25)
    p = VariationalProblem(g, "0.5*v^2 + u^1.5", 0.0, 1.0)
    vals = np.array([0.0, 0.0, 0.5, 0.7, 1.0])
    u, v = vals[1:], np.diff(vals) / 0.25
    with pytest.raises(DomainError):
        dsl.eval_jet2(p.L, g.points[:-1], u, v, 0.0)
    r = el_residual(p, tsc.GridFunction(g, vals))
    assert_allclose(r.values, 1.5 * np.sqrt(u[:-1]) - np.diff(v) / 0.25, rtol=1e-14)


@pytest.mark.parametrize("L", ["0.5*v^2 + 0.25*u^4 + u*v + sin(t)*u*v^2",
                               "exp(u)*v^2 - t*u", "sqrt(1 + v^2) + u^3",
                               "u^2.5 + ln(1 + v^2) + cos(t*v)"])
def test_el_residual_rows_are_the_order_2_gradient(L):
    # el_residual evaluates L at order 1; the rows are an order-2 jet's, bit for bit
    rng = np.random.default_rng(len(L))
    for seed in range(5):
        g = _explicit_grid(seed, n=int(rng.integers(3, 30)))
        y = rng.uniform(0.1, 2.0, len(g))
        t, u, mu = g.points[:-1], y[1:], np.diff(g.points)
        jet = dsl.eval_jet2(dsl.parse(L), t, u, np.diff(y) / mu, 0.0)
        want = jet[1][:-1] - np.diff(jet[2]) / mu[:-1]
        got = el_residual(VariationalProblem(g, L, y[0], y[-1]), tsc.GridFunction(g, y))
        assert np.array_equal(got.values, want)


def test_functional_value_fraction_oracle():
    pts = [Fraction(0), Fraction(1, 2), Fraction(5, 4), Fraction(2)]
    yv = [Fraction(0), Fraction(1, 3), Fraction(-1, 2), Fraction(1)]
    # L = t*u + v^2 with u = y(sigma(t)), v = delta derivative
    exact = Fraction(0)
    for j in range(3):
        mu = pts[j + 1] - pts[j]
        u = yv[j + 1]
        v = (yv[j + 1] - yv[j]) / mu
        exact += mu * (pts[j] * u + v * v)
    g = tsc.explicit(*[float(t) for t in pts])
    y = tsc.GridFunction(g, [float(v) for v in yv])
    p = VariationalProblem(g, "t*u + v^2", 0.0, 1.0)
    assert functional_value(p, y) == pytest.approx(float(exact), rel=1e-14)


@pytest.mark.parametrize("L, values, exact", [
    ("sqrt(v)", [0.0, 0.5, 0.5, 0.75, 1.0], 0.25 * (math.sqrt(2.0) + 2.0)),
    ("abs(v)", [0.0, 0.5, 0.5, 0.75, 1.0], 1.0),
    ("u^1.5 + v^2", [0.0] * 5, 0.0),
], ids=["sqrt-flat", "abs-flat", "u^1.5-at-0"])
def test_functional_value_is_defined_wherever_the_lagrangian_is(L, values, exact):
    # F reads L alone: a flat interval (v = 0) or u = 0 leaves L defined even
    # where its gradient or Hessian is not
    g = tsc.uniform(0.0, 1.0, 0.25)
    p = VariationalProblem(g, L, values[0], values[-1])
    assert functional_value(p, tsc.GridFunction(g, values)) == pytest.approx(exact, rel=1e-15)


def test_legendre_margins_quadratic():
    g = zgrid(4)
    y = tsc.GridFunction.sample(g, lambda t: 0.3 * t)
    rep = legendre_check(VariationalProblem(g, "v^2", 0.0, 1.2), y)
    # interior: 2 + mu * (1/mu^sigma) * 2 = 4; right edge uses 0* = 0 -> 2
    assert_allclose(rep.margins.values, [4.0, 4.0, 4.0, 2.0])
    assert rep.ok
    rep2 = legendre_check(VariationalProblem(g, "-(v^2)", 0.0, 1.2), y)
    assert not rep2.ok
    assert rep2.margins.values[0] == pytest.approx(-4.0)


# ---------------------------------------------------------------------------
# solve_el, first order


def test_solve_el_linear_lagrangian_unique_line():
    g = zgrid(5)
    p = VariationalProblem(g, "v^2", 0.0, 1.0)
    cands = solve_el(p, SolverConfig(starts=12, seed=0))
    assert len(cands) == 1
    c = cands[0]
    assert_allclose(c.y.values, g.points / 5.0, atol=1e-9)
    assert c.residual_norm <= 1e-9
    assert c.legendre_ok
    assert c.functional_value == pytest.approx(5 * 0.2 ** 2, abs=1e-10)
    assert c.multiplier is None


def test_solve_el_matches_tridiagonal_oracle():
    # L = 0.5 v^2 - u: stationarity is the linear system  second-diff y = -1
    n = 8
    g = zgrid(n)
    p = VariationalProblem(g, "0.5*v^2 - u", 0.0, 0.0)
    cands = solve_el(p, SolverConfig(starts=8, seed=1))
    assert len(cands) == 1
    A = (np.diag(-2.0 * np.ones(n - 1)) + np.diag(np.ones(n - 2), 1)
         + np.diag(np.ones(n - 2), -1))
    interior = np.linalg.solve(A, -np.ones(n - 1))
    assert_allclose(cands[0].y.values[1:-1], interior, atol=1e-9)
    # boundary conditions hold exactly
    assert cands[0].y.values[0] == 0.0 and cands[0].y.values[-1] == 0.0


def test_solve_el_argmin_invariant_under_scaling():
    g = zgrid(6)
    base = solve_el(VariationalProblem(g, "0.5*v^2 - u", 0.0, 0.0),
                    SolverConfig(starts=8, seed=2))
    scaled = solve_el(VariationalProblem(g, "1.5*v^2 - 3*u", 0.0, 0.0),
                      SolverConfig(starts=8, seed=2))
    assert len(base) == len(scaled) == 1
    assert_allclose(scaled[0].y.values, base[0].y.values, atol=1e-8)
    assert scaled[0].functional_value == pytest.approx(
        3.0 * base[0].functional_value, rel=1e-8)


def test_solve_el_candidates_meet_tolerance_and_ordering():
    # cubic Lagrangian with several stationary points
    g = tsc.uniform(0.0, 1.0, 0.25)
    p = VariationalProblem(g, "v^3 + v^2 - u^2", 0.0, 1.0)
    cfg = SolverConfig(starts=64, seed=4, box=(-4.0, 4.0))
    cands = solve_el(p, cfg)
    assert len(cands) >= 2
    fv = [c.functional_value for c in cands]
    assert fv == sorted(fv)
    for c in cands:
        assert c.residual_norm <= cfg.tol
        assert c.y.values[0] == 0.0 and c.y.values[-1] == 1.0
    # dedup: pairwise max-norm gaps exceed the tolerance
    for i in range(len(cands)):
        for j in range(i + 1, len(cands)):
            gap = np.max(np.abs(np.asarray(cands[i].y.values)
                                - np.asarray(cands[j].y.values)))
            assert gap > 1e-6


# ---------------------------------------------------------------------------
# higher order


def quad_L_u2_squared():
    return QuadraticLagrangian(np.diag([0.0, 0.0, 1.0]), np.zeros(3))


def sample_derivative_boundaries(g, fn, r):
    y = tsc.GridFunction.sample(g, fn)
    ya, yb = [], []
    for i in range(r):
        d = tsc.higher_delta_derivative(y, i) if i else y
        ya.append(d.values[0])
        yb.append(d.values[len(g) - r])  # value at rho^{r-1}(b)
    return ya, yb


def test_higher_order_cubic_kernel_on_hz():
    # L = (y^{Delta Delta})^2: any cubic solves the 4th-order EL exactly
    g = tsc.uniform(0.0, 3.0, 0.5)
    cubic = lambda t: t ** 3 - 2.0 * t ** 2 + 3.0 * t - 1.0
    ya, yb = sample_derivative_boundaries(g, cubic, 2)
    p = HigherOrderProblem(g, 2, quad_L_u2_squared(), ya, yb)
    y = tsc.GridFunction.sample(g, cubic)
    res = el_residual_higher(p, y)
    assert_allclose(res.values, 0.0, atol=1e-10)
    assert len(res.scale) == len(g) - 4
    cands = solve_el(p, SolverConfig(starts=4, seed=0))
    assert cands
    assert_allclose(cands[0].y.values, [cubic(t) for t in g.points], atol=1e-8)


def test_higher_order_qscale_closed_form_residual():
    q = 2.0
    g = tsc.geometric(q, 0, 8)
    a = g.points[0]
    rb = g.points[-2]
    den = (a - rb) * (q * a - rb) * (a - q * rb)

    def closed(t):
        return (a - t) * (q * a - t) * (a - q * t) / den

    y = tsc.GridFunction.sample(g, closed)
    ya, yb = sample_derivative_boundaries(g, closed, 2)
    p = HigherOrderProblem(g, 2, quad_L_u2_squared(), ya, yb)
    res = el_residual_higher(p, y)
    scale = max(1.0, float(np.max(np.abs(y.values))))
    assert np.max(np.abs(res.values)) <= 1e-9 * scale


def test_higher_order_preconditions():
    with pytest.raises(GridTooSmall):
        HigherOrderProblem(tsc.uniform(0, 0.75, 0.25), 2, quad_L_u2_squared(),
                           (0.0, 0.0), (1.0, 0.0))  # 4 points < 2r+1
    with pytest.raises(HypothesisHViolated):
        HigherOrderProblem(tsc.explicit(0.0, 0.1, 0.5, 0.6, 1.3, 2.0), 2,
                           quad_L_u2_squared(), (0.0, 0.0), (1.0, 0.0))


def reference_higher_order(p, y):
    """el_residual_higher and functional_value_higher by the definitions: the
    arguments (y^{sigma^{r-i}})^{Delta^i} and the derivatives of L_{u_i} each
    on its own sub-scale, through compose_sigma and higher_delta_derivative."""
    a1, _ = p.scale.hypothesis_h()
    r, n = p.order, len(p.scale)
    X = np.column_stack([
        tsc.higher_delta_derivative(tsc.compose_sigma(y, r - i), i).values[: n - r]
        for i in range(r + 1)])
    grads = 2.0 * X @ p.L.quad + p.L.lin
    inner = p.scale.drop_last(r)
    res = np.zeros(n - 2 * r)
    for i in range(r + 1):
        term = tsc.higher_delta_derivative(tsc.GridFunction(inner, grads[:, i].copy()), i)
        res += (-1.0) ** i * (1.0 / a1) ** ((i - 1) * i // 2) * term.values[: n - 2 * r]
    mu = np.diff(p.scale.points)
    F = sum(mu[j] * p.L.value(X[j]) for j in range(n - r))
    return res, F


def random_higher_order_problem(rng, scale, r):
    M = rng.standard_normal((r + 1, r + 1))
    L = QuadraticLagrangian(M @ M.T, rng.standard_normal(r + 1))
    return HigherOrderProblem(scale, r, L, rng.standard_normal(r), rng.standard_normal(r))


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("scale", [tsc.uniform(0.0, 2.0, 0.125), tsc.uniform(-1.0, 1.0, 0.25),
                                   tsc.geometric(1.5, 0, 9), tsc.geometric(2.0, -3, 6)],
                         ids=["uniform-h", "uniform-quarter", "geometric-1.5", "geometric-2"])
def test_higher_order_residual_and_functional_match_the_definitions(scale, r):
    rng = np.random.default_rng(43 + r)
    for _ in range(3):
        p = random_higher_order_problem(rng, scale, r)
        y = tsc.GridFunction(scale, rng.uniform(-2.0, 2.0, len(scale)))
        ref_res, ref_F = reference_higher_order(p, y)
        res = el_residual_higher(p, y)
        assert len(res.scale) == len(scale) - 2 * r
        assert np.max(np.abs(res.values - ref_res)) <= 1e-12 * np.max(np.abs(ref_res))
        assert functional_value_higher(p, y) == pytest.approx(ref_F, rel=1e-12)


@pytest.mark.parametrize("h", [0.02, 0.01], ids=["51-points", "101-points"])
def test_higher_order_solve_recovers_a_cubic_on_a_fine_grid(h):
    # rounding alone leaves a residual of about 1e-7 at the exact cubic, which
    # the multi-start Newton solver this replaced could not get below 1e-9
    g = tsc.uniform(0.0, 1.0, h)
    cubic = lambda t: t ** 3 - 2.0 * t ** 2 + 3.0 * t - 1.0
    ya, yb = sample_derivative_boundaries(g, cubic, 2)
    (cand,) = solve_el(HigherOrderProblem(g, 2, quad_L_u2_squared(), ya, yb))
    assert_allclose(cand.y.values, [cubic(t) for t in g.points], rtol=0, atol=1e-8)


def test_higher_order_solve_refuses_a_singular_system():
    # L = 0: every y with the boundary data is stationary
    L = QuadraticLagrangian(np.zeros((3, 3)), np.zeros(3))
    p = HigherOrderProblem(tsc.uniform(0.0, 2.0, 0.25), 2, L, (0.0, 1.0), (1.0, 0.0))
    with pytest.raises(SingularJacobian):
        solve_el(p)


def test_higher_order_solve_is_one_linear_solve(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the higher-order solve is not iterative")

    monkeypatch.setattr(varcalc, "multi_start", never)
    monkeypatch.setattr(solvers, "newton_solve", never)
    solves = []
    real_solve = np.linalg.solve

    def counted_solve(A, b):
        solves.append(A.shape)
        return real_solve(A, b)

    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    g = tsc.geometric(2.0, 0, 8)
    p = HigherOrderProblem(g, 2, quad_L_u2_squared(), (0.0, 1.0), (2.0, -1.0))
    (cand,) = solve_el(p, SolverConfig(starts=1, seed=5))
    assert solves == [(9, 9)]
    assert cand.legendre_ok and not np.any(cand.margins.values)
    assert cand.functional_value == functional_value_higher(p, cand.y)


def _dense_reference_pair(p):
    """solve_el's residual with a dense Jacobian built here by the chain rule,
    so Newton solves each step with LAPACK instead of the tridiagonal sweep."""
    pts = p.scale.points
    n, mu = pts.size, np.diff(pts)
    shift = np.eye(n)[1:]  # u_i = y_{i+1}
    slope = (shift - np.eye(n)[:-1]) / mu[:, None]  # v_i = (y_{i+1} - y_i) / mu_i

    def assemble(x):
        return np.concatenate([[p.A], x, [p.B]])

    def residual(x):
        return el_residual(p, tsc.GridFunction(p.scale, assemble(x))).values

    def jacobian(x):
        y = assemble(x)
        huu, huv, _, hvv, _, _ = dsl.eval_jet2(p.L, pts[:-1], y[1:], np.diff(y) / mu, 0.0)[4:]
        d_lu = huu[:, None] * shift + huv[:, None] * slope
        d_lv = huv[:, None] * shift + hvv[:, None] * slope
        return (d_lu[:-1] - (d_lv[1:] - d_lv[:-1]) / mu[:-1, None])[:, 1:-1]

    return residual, jacobian, n - 2


def _record_newton_runs(monkeypatch) -> list:
    """(residual calls, outcome, root) of every Newton run from now on."""
    records = []
    newton = solvers.newton_solve

    def recording(fn, jac, x0, **kwargs):
        calls = []

        def counted(x):
            calls.append(1)
            return fn(x)

        try:
            root = newton(counted, jac, x0, **kwargs)
        except Exception as exc:
            records.append((len(calls), type(exc).__name__, None))
            raise
        records.append((len(calls), "ok", root))
        return root

    monkeypatch.setattr(solvers, "newton_solve", recording)
    return records


def _explicit_grid(seed, n=15):
    steps = np.random.default_rng(seed).uniform(0.05, 0.3, n - 1)
    return tsc.explicit(*np.concatenate([[0.0], np.cumsum(steps)]))


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("p", [
    pytest.param(VariationalProblem(tsc.uniform(0.0, 1.0, 0.05), "0.5*v^2 + 0.25*u^4",
                                    0.0, 1.0), id="uniform"),
    # some starts do not converge: their runs must fail the same way
    pytest.param(VariationalProblem(_explicit_grid(3),
                                    "0.5*v^2 + 0.25*u^4 + u*v + sin(t)*u*v^2", 0.0, 1.0),
                 id="explicit"),
    pytest.param(VariationalProblem(tsc.geometric(1.5, -4, 6), "0.5*v^2 + 0.25*u^4 + u*v",
                                    0.0, 1.0), id="geometric"),
])
def test_tridiagonal_newton_runs_match_the_dense_lapack_pair(monkeypatch, p, seed):
    """Every start makes the same residual calls, ends the same way and finds
    the same root to 1e-13, whether its steps come from the tridiagonal sweep
    or from LAPACK on the dense matrix."""
    cfg = SolverConfig(starts=16, seed=seed, box=(-3.0, 3.0))
    records = _record_newton_runs(monkeypatch)
    solve_el(p, cfg)
    banded = records[:]
    records.clear()
    multi_start(*_dense_reference_pair(p), cfg)
    assert len(banded) == cfg.starts
    assert [r[:2] for r in banded] == [r[:2] for r in records]
    for (_, _, root), (_, _, dense_root) in zip(banded, records):
        if root is not None:
            assert np.max(np.abs(root - dense_root)) <= 1e-13


@pytest.mark.parametrize("seed", [0, 7])
def test_arc_length_solve_ends_as_with_the_dense_pair(monkeypatch, seed):
    """sqrt(1 + v^2) flattens out at large slopes, where the band turns singular
    and Newton takes the Tikhonov step.  Single runs are too ill-conditioned to
    repeat call for call; the candidates and the final exception must not move."""
    p = VariationalProblem(tsc.uniform(0.0, 1.0, 0.1), "sqrt(1 + v^2)", 0.0, 1.0)
    cfg = SolverConfig(starts=16, seed=seed, box=(-3.0, 3.0))
    fallbacks = []
    sweep = solvers.tikhonov_tridiagonal
    monkeypatch.setattr(solvers, "tikhonov_tridiagonal",
                        lambda *args: fallbacks.append(1) or sweep(*args))

    def ending(solve):
        try:
            return sorted(solve(), key=lambda x: x.tolist()), None
        except (NoConvergence, SingularJacobian) as exc:
            return [], type(exc)

    roots, error = ending(lambda: [c.y.values[1:-1] for c in solve_el(p, cfg)])
    assert fallbacks
    dense_roots, dense_error = ending(lambda: multi_start(*_dense_reference_pair(p), cfg))
    assert error is dense_error and len(roots) == len(dense_roots)
    for root, dense_root in zip(roots, dense_roots):
        assert np.max(np.abs(root - dense_root)) <= 1e-13


def test_solve_el_on_20001_points_runs_in_linear_memory():
    # the dense Jacobian alone would take 19999^2 * 8 bytes = 3.2 GB; tol sits
    # above the round-off of a residual that divides by h^2 = 2.5e-9
    g = tsc.uniform(0.0, 1.0, 5e-5)
    p = VariationalProblem(g, "v^2", 0.0, 1.0)
    tracemalloc.start()
    try:
        cands = solve_el(p, SolverConfig(starts=1, seed=0, box=(0.0, 1.0), tol=1e-4))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 50e6
    assert len(cands) == 1 and cands[0].residual_norm <= 1e-4
    assert_allclose(cands[0].y.values, g.points, rtol=0, atol=1e-9)


# ---------------------------------------------------------------------------
# the solvers that stay dense refuse grids beyond the shared cap


BEYOND_CAP = tsc.uniform(0.0, float(MAX_DENSE_POINTS), 1.0)  # one point too many


@pytest.mark.parametrize("solve", [
    pytest.param(partial(solve_isoperimetric,
                         IsoperimetricProblem(BEYOND_CAP, "v^2", "u", 0.0, 0.0, 1.0)),
                 id="isoperimetric"),
    pytest.param(partial(solve_el, HigherOrderProblem(
        BEYOND_CAP, 1, QuadraticLagrangian(np.eye(2), np.zeros(2)), (0.0,), (1.0,))),
                 id="higher-order"),
    pytest.param(partial(sturm_liouville_first, BEYOND_CAP, lambda t: 0.0),
                 id="sturm-liouville"),
])
def test_dense_solvers_refuse_grids_beyond_the_shared_cap(monkeypatch, solve):
    def never(*args, **kwargs):
        raise AssertionError("allocated before the grid was refused")

    monkeypatch.setattr(np, "eye", never)
    monkeypatch.setattr(np, "zeros", never)
    with pytest.raises(ValueError, match=f"at most {MAX_DENSE_POINTS} grid points"):
        solve()


# ---------------------------------------------------------------------------
# isoperimetric


def test_isoperimetric_recovers_first_eigenpair():
    g = zgrid(6)
    lam1, y1 = sturm_liouville_first(g, lambda t: 0.0)
    p = IsoperimetricProblem(g, "v^2", "u^2", 0.0, 0.0, 1.0)
    cand = solve_isoperimetric(p, SolverConfig(starts=48, seed=0, box=(-1.5, 1.5)))
    assert cand.multiplier == pytest.approx(lam1, abs=1e-7)
    assert cand.functional_value == pytest.approx(lam1, abs=1e-7)
    assert_allclose(np.abs(cand.y.values), np.abs(y1.values), atol=1e-6)


def test_isoperimetric_null_constraint_reduces_to_unconstrained():
    g = zgrid(5)
    p = IsoperimetricProblem(g, "0.5*v^2 - u", "v", 0.0, 1.0, 1.0)  # l = B - A
    cand = solve_isoperimetric(p, SolverConfig(starts=16, seed=1))
    base = el_residual(VariationalProblem(g, "0.5*v^2 - u", 0.0, 1.0), cand.y)
    assert np.linalg.norm(base.values) <= 1e-9


def test_isoperimetric_abnormal_raises():
    g = zgrid(5)
    free = solve_el(VariationalProblem(g, "v^2", 0.0, 1.0),
                    SolverConfig(starts=8, seed=0))[0]
    p = IsoperimetricProblem(g, "v^2", "v^2", 0.0, 1.0, free.functional_value)
    with pytest.raises(SingularJacobian):
        solve_isoperimetric(p, SolverConfig(starts=16, seed=3))


@pytest.mark.parametrize("grid", [zgrid(5), tsc.geometric(1.5, 0, 7), _explicit_grid(5, n=9)],
                         ids=["uniform", "geometric", "explicit"])
def test_isoperimetric_t_dependent_null_constraint_reduces_to_unconstrained(grid):
    # sum of mu (t y^Delta + y^sigma) telescopes to b y(b) - a y(a): g = t*v + u
    # is affine, and at l = b B - a A every admissible y meets the constraint
    (a, b), (A, B) = grid.points[[0, -1]], (0.5, 1.0)
    p = IsoperimetricProblem(grid, "0.5*v^2 - u", "t*v + u", A, B, b * B - a * A)
    cand = solve_isoperimetric(p, SolverConfig(starts=16, seed=1))
    base = el_residual(VariationalProblem(grid, "0.5*v^2 - u", A, B), cand.y)
    assert np.linalg.norm(base.values) <= 1e-9


def test_isoperimetric_cubic_constraint_at_zero_data_is_abnormal():
    # y = 0 meets sum(mu y^3) = 0, where the gradient 3 mu y^2 vanishes, and so
    # does g's Hessian 6 mu y: lambda is not identified (Newton ends at y ~ 1e-9,
    # lambda ~ 9e7), and g is not affine, so no null-constraint exemption applies
    p = IsoperimetricProblem(zgrid(5), "v^2", "u^3", 0.0, 0.0, 0.0)
    with pytest.raises(SingularJacobian):
        solve_isoperimetric(p, SolverConfig(starts=16, seed=0))


def test_isoperimetric_solve_draws_only_the_starts(monkeypatch):
    # the abnormality check reads the rows kept at the root: no random probe
    made = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda *args: made.append(args) or default_rng(*args))
    p = IsoperimetricProblem(zgrid(6), "v^2", "u^2", 0.0, 0.0, 1.0)
    solve_isoperimetric(p, SolverConfig(starts=16, seed=0, box=(-1.5, 1.5)))
    assert made == [(0,)]


def test_isoperimetric_margins_are_legendre_check_of_l_minus_lambda_g():
    # the solver combines the Hessian rows of L and g; the textbook check
    # compiles F = L - lambda*g as one expression
    p = IsoperimetricProblem(_explicit_grid(3, n=11), "v^2 + 0.1*u^4 + t*u*v", "u^2 + 0.5*u*v",
                             0.0, 1.0, 0.5)
    cand = solve_isoperimetric(p, SolverConfig(starts=16, seed=0, box=(-2.0, 2.0)))
    F = dsl.Bin("-", p.L, dsl.Bin("*", dsl.Num(cand.multiplier), p.g))
    report = legendre_check(VariationalProblem(p.scale, F, p.A, p.B), cand.y)
    assert np.array_equal(cand.margins.values, report.margins.values)
    assert cand.legendre_ok == report.ok


def test_isoperimetric_newton_jacobian_forms_one_tridiagonal_block(monkeypatch):
    # the block is the Jacobian of F = L - lambda*g's rows, one _el_jacobian
    # call per Newton Jacobian; the abnormality check gets diag(mu) J_g as
    # three diagonals
    calls, per_jacobian, seen = [0], [], {}
    el_jacobian, real_multi_start = varcalc._el_jacobian, varcalc.multi_start

    def counting(*args):
        calls[0] += 1
        return el_jacobian(*args)

    def spy_multi_start(fn, jac, n, config=None):
        def counted_jac(x):
            before = calls[0]
            J = jac(x)
            per_jacobian.append(calls[0] - before)
            return J
        return real_multi_start(fn, counted_jac, n, config)

    monkeypatch.setattr(varcalc, "_el_jacobian", counting)
    monkeypatch.setattr(varcalc, "multi_start", spy_multi_start)
    monkeypatch.setattr(varcalc, "_reject_abnormal", lambda g, grad, hess, x: seen.update(hess=hess))
    p = IsoperimetricProblem(_explicit_grid(3, n=11), "v^2 + 0.1*u^4 + t*u*v", "u^2 + 0.5*u*v",
                             0.0, 1.0, 0.5)
    solve_isoperimetric(p, SolverConfig(starts=4, seed=0, box=(-2.0, 2.0)))
    assert per_jacobian and set(per_jacobian) == {1}
    assert isinstance(seen["hess"], solvers.Tridiagonal)


class _Captured(Exception):
    pass


def _capture_pair(monkeypatch, solve, p):
    """The (residual, Jacobian) pair that ``solve(p)`` hands to multi_start."""
    pair = []

    def capture(fn, jac, n, config):
        pair.extend((fn, jac))
        raise _Captured

    monkeypatch.setattr(varcalc, "multi_start", capture)
    with pytest.raises(_Captured):
        solve(p)
    monkeypatch.undo()
    return pair


def test_newton_pairs_of_two_solves_of_one_parsed_lagrangian_share_no_buffer(monkeypatch):
    # a classical and an isoperimetric solve of one parsed L run its one
    # cached program, each into its own row buffers: evaluated in turn, the
    # pairs give bit for bit what each gives alone and keep what they returned
    grid, L = _explicit_grid(3, n=11), dsl.parse("v^2 + 0.1*u^4 + t*u*v")
    solves = [(solve_el, VariationalProblem(grid, L, 0.0, 1.0)),
              (solve_isoperimetric, IsoperimetricProblem(grid, L, "u^2 + 0.5*u*v", 0.0, 1.0, 0.5))]
    rng = np.random.default_rng(5)
    # [problem][call], each point one array object: the Jacobian reuses the
    # rows only at the very object of the latest residual call
    points = [list(rng.uniform(-1.0, 1.0, size=(2, n))) for n in (9, 10)]
    alone = []
    for (solve, p), xs in zip(solves, points):
        fn, jac = _capture_pair(monkeypatch, solve, p)
        alone.append([(fn(x).copy(), np.array(jac(x))) for x in xs])
    pairs = [_capture_pair(monkeypatch, solve, p) for solve, p in solves]
    for i in range(2):
        r = [fn(xs[i]) for (fn, _), xs in zip(pairs, points)]
        for fresh in (False, True):  # the Jacobian from the residual's rows, then anew
            J = [np.array(jac(xs[i].copy() if fresh else xs[i]))
                 for (_, jac), xs in zip(pairs, points)]
            for k in range(2):
                assert np.array_equal(r[k], alone[k][i][0])
                assert np.array_equal(J[k], alone[k][i][1])


def test_isoperimetric_abnormality_check_reads_the_rows_at_the_chosen_root(monkeypatch):
    # the check gets c = mu (g_u - (g_v)^Delta) and diag(mu) J_g from the row
    # buffer that Newton last filled; they must be g's rows at the chosen
    # root, not those of another start or of a rejected trial point
    seen = {}
    monkeypatch.setattr(varcalc, "_reject_abnormal",
                        lambda g, grad, hess, x: seen.update(grad=grad, hess=hess, x=x.copy()))
    p = IsoperimetricProblem(_explicit_grid(3, n=11), "v^2 + 0.1*u^4 + t*u*v", "u^2 + 0.5*u*v",
                             0.0, 1.0, 0.5)
    cand = solve_isoperimetric(p, SolverConfig(starts=16, seed=0, box=(-2.0, 2.0)))
    assert np.array_equal(seen["x"][:-1], cand.y.values[1:-1])
    mu = np.diff(p.scale.points)
    t, u, v = varcalc._first_order_args(p.scale, cand.y.values)[:3]
    with np.errstate(all="ignore"):
        g_rows = dsl.program(p.g, 2)(t, u, v, 0.0, t.shape)
    assert np.array_equal(seen["grad"], mu[:-1] * varcalc._el_rows(g_rows[1:], mu))
    J_g = varcalc._el_jacobian(g_rows[4:], mu)
    assert np.array_equal(seen["hess"].diag, mu[:-1] * J_g.diag)
    assert np.array_equal(seen["hess"].lower, mu[1:-1] * J_g.lower)


def test_isoperimetric_1001_point_solve_peaks_under_20_mib():
    # the bordered Jacobian is one (N - 1)^2 buffer per solve, about 7.6 MiB
    # here; forming it from two densified tridiagonals peaked at 38.3 MiB
    p = IsoperimetricProblem(tsc.uniform(0.0, 1.0, 1e-3), "v^2 + 0.1*u^4", "u", 0.0, 0.0, 1.0)
    tracemalloc.start()
    try:
        cand = solve_isoperimetric(p, SolverConfig(starts=1, seed=0, box=(0.0, 1.0), tol=1e-5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 20 * 2**20
    assert cand.residual_norm <= 1e-5
    assert cand.multiplier == pytest.approx(24.8191275, rel=1e-7)


# ---------------------------------------------------------------------------
# one Lagrangian evaluation per Newton point


def _solve_counting_runs(monkeypatch, module, solve):
    """solve()'s result, and calls[(name, where)] with where "inside" or
    "outside" multi_start, for name "_run" (the eval_* wrapper), "program"
    (runs of the programs newton_pair compiled), "full" and "derivatives"
    (the programs it asked for, with and without the value row) and
    "residual" (Newton's residual calls)."""
    calls = Counter()
    where = ["outside"]

    def counted(name, fn):
        def wrapper(*args):
            calls[name, where[0]] += 1
            return fn(*args)
        return wrapper

    real_program, real_multi_start = varcalc.program, module.multi_start

    def inside(fn, jac, n, config):
        where[0] = "inside"
        try:
            return real_multi_start(counted("residual", fn), jac, n, config)
        finally:
            where[0] = "outside"

    def program(e, order, value=True):
        calls["full" if value else "derivatives", where[0]] += 1
        return counted("program", real_program(e, order, value=value))

    monkeypatch.setattr(dsl, "_run", counted("_run", dsl._run))
    monkeypatch.setattr(varcalc, "program", program)
    monkeypatch.setattr(module, "multi_start", inside)
    return solve(), calls


@pytest.mark.parametrize("module, solve, lagrangians", [
    pytest.param(varcalc, partial(solve_el, VariationalProblem(
        tsc.uniform(0.0, 1.0, 0.05), "0.5*v^2 + 0.25*u^4 + u*v", 0.0, 1.0),
        SolverConfig(starts=8, seed=0, box=(-3.0, 3.0))), 1, id="classical"),
    pytest.param(varcalc, partial(solve_isoperimetric, IsoperimetricProblem(
        zgrid(6), "v^2", "u^2", 0.0, 0.0, 1.0),
        SolverConfig(starts=16, seed=0, box=(-1.5, 1.5))), 2, id="isoperimetric"),
    pytest.param(fracvar, partial(fracvar.solve_frac_el, fracvar.FracProblem(
        fracvar.FracGrid(0.0, 1.0, 0.1), fracvar.FracOrders(0.75, 0.6),
        "0.5*v^2 + 0.5*w^2 - u + 0.1*u^4", A=0.0, B=None),
        SolverConfig(starts=4, seed=0, box=(0.0, 1.0))), 1, id="fractional"),
])
def test_newton_loop_runs_each_lagrangian_once_per_residual_call(monkeypatch, module, solve,
                                                                 lagrangians):
    # inside multi_start the residual runs each compiled program once and the
    # Jacobian reads the rows it kept, never the eval_* wrapper; L, whose
    # value no row reads, runs without its value row (orders 2 and 1)
    result, calls = _solve_counting_runs(monkeypatch, module, solve)
    assert result
    assert calls["_run", "inside"] == 0
    assert calls["residual", "inside"] > 0
    assert calls["program", "inside"] == lagrangians * calls["residual", "inside"]
    assert calls["derivatives", "outside"] == 2
    assert calls["full", "outside"] == 2 * (lagrangians - 1)


def test_repeated_isoperimetric_solve_compiles_no_program(monkeypatch):
    p = IsoperimetricProblem(zgrid(6), "v^2", "u^2", 0.0, 0.0, 1.0)
    cfg = SolverConfig(starts=16, seed=0, box=(-1.5, 1.5))
    first = solve_isoperimetric(p, cfg)
    compiled = []
    compile_ = dsl._Compiler.compile
    monkeypatch.setattr(dsl._Compiler, "compile",
                        lambda self, e: compiled.append(e) or compile_(self, e))
    again = solve_isoperimetric(p, cfg)
    assert compiled == []
    assert np.array_equal(again.margins.values, first.margins.values)


# ---------------------------------------------------------------------------
# Sturm-Liouville


def test_sturm_liouville_integer_grid_closed_form():
    for N in (5, 10):
        g = zgrid(N)
        lam1, y1 = sturm_liouville_first(g, lambda t: 0.0)
        assert lam1 == pytest.approx(2.0 - 2.0 * math.cos(math.pi / N), abs=1e-10)
        # normalization: sum mu * (y^sigma)^2 = 1
        mass = float(np.sum(np.asarray(y1.values[1:]) ** 2))
        assert mass == pytest.approx(1.0, abs=1e-10)


def test_sturm_liouville_constant_shift():
    g = zgrid(8)
    base, _ = sturm_liouville_first(g, lambda t: 0.0)
    c = 0.7
    shifted, _ = sturm_liouville_first(g, lambda t: -c)
    assert shifted == pytest.approx(base + c, abs=1e-10)


def test_sturm_liouville_pair_satisfies_equation():
    g = zgrid(9)
    qv = tsc.GridFunction.sample(g, lambda t: 0.1 * math.sin(t))
    lam1, y = sturm_liouville_first(g, qv)
    # y^{Delta Delta}(t) + q(t) y(sigma(t)) + lambda y(sigma(t)) = 0 on T^{kappa kappa}
    yv = np.asarray(y.values)
    second = yv[2:] - 2.0 * yv[1:-1] + yv[:-2]
    res = second + (np.asarray(qv.values)[:-2] + lam1) * yv[1:-1]
    assert np.max(np.abs(res)) <= 1e-8
    with pytest.raises(GridTooSmall):
        sturm_liouville_first(tsc.uniform(0, 2, 1.0), lambda t: 0.0)


def test_sturm_liouville_nonuniform_grid_matches_quadratic_forms():
    # lambda_1 is the smallest eigenvalue of J[y] relative to the mass
    # integral((y^sigma)^2), both built here from their defining sums
    g = tsc.explicit(0.0, 0.3, 0.5, 1.1, 1.4, 2.0, 2.2, 3.0, 3.25)
    pts = g.points
    mu = np.diff(pts)
    q = 0.5 + np.cos(3.0 * pts)
    n = len(g)

    def J(y):
        return sum((y[j + 1] - y[j]) ** 2 / mu[j] - mu[j] * q[j] * y[j + 1] ** 2
                   for j in range(n - 1))

    def mass(y):
        return sum(mu[j] * y[j + 1] ** 2 for j in range(n - 1))

    unit = np.eye(n)[1:-1]  # interior unit vectors; y(a) = y(b) = 0
    K = np.array([[(J(e + f) - J(e - f)) / 4.0 for f in unit] for e in unit])
    M = np.array([[(mass(e + f) - mass(e - f)) / 4.0 for f in unit] for e in unit])
    C = np.linalg.cholesky(M)
    evals, vecs = np.linalg.eigh(np.linalg.solve(C, np.linalg.solve(C, K).T))
    expect = np.linalg.solve(C.T, vecs[:, 0])

    lam1, y1 = sturm_liouville_first(g, tsc.GridFunction(g, q))
    assert lam1 == pytest.approx(evals[0], rel=1e-10)
    y = np.asarray(y1.values)
    assert mass(y) == pytest.approx(1.0, rel=1e-10)
    assert J(y) == pytest.approx(lam1, rel=1e-10)
    assert_allclose(y[1:-1], math.copysign(1.0, expect[0]) * expect, atol=1e-8)


def test_sturm_liouville_first_pair_at_n202_matches_sine_mode():
    g = tsc.uniform(0.0, 201.0, 1.0)
    n = len(g)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow or invalid-value warnings
        lam1, y1 = sturm_liouville_first(g, tsc.GridFunction.constant(g, 0.0))
    exact = 4.0 * math.sin(math.pi / (2.0 * (n - 1))) ** 2
    assert abs(lam1 - exact) <= 1e-11 * exact
    y = np.asarray(y1.values)
    mode = np.sin(math.pi * np.arange(n) / (n - 1))
    mode *= np.linalg.norm(y) / np.linalg.norm(mode)
    assert np.max(np.abs(y - mode)) <= 1e-10


def test_sturm_liouville_refuses_an_overflowing_matrix_before_the_eigensolver(monkeypatch):
    # q = 1e308 is finite, but mu q overflows where mu > 1; runs under pytest's
    # RuntimeWarning-as-error filter, so the overflow must not warn either
    monkeypatch.setattr(varcalc, "jacobi_eigh", lambda A: pytest.fail("eigh was called"))
    with pytest.raises(NonFinite, match="Sturm-Liouville matrix is not finite"):
        sturm_liouville_first(tsc.geometric(1.5, 0, 8), lambda t: 1e308)


# ---------------------------------------------------------------------------
# direct methods


def test_direct_power_linear_phi_case():
    g = tsc.uniform(0.0, 2.0, 0.5)
    B = 3.0
    out = direct_solve_power(g, lambda s: 1.0, 2.0, B)
    C = B / 2.0
    assert_allclose(out.y.values, C * g.points, atol=1e-10)
    assert out.F_value == pytest.approx(2.0 * C ** 2, rel=1e-12)
    assert out.kind == "min"
    assert np.all(np.diff(out.y.values) > 0)
    assert power_functional(g, lambda s: 1.0, 2.0, out.y) == pytest.approx(
        out.F_value, abs=1e-10)


def test_direct_power_curved_phi_and_max_case():
    g = tsc.uniform(0.0, 1.0, 0.25)
    phi = lambda s: 1.0 + s * s
    out = direct_solve_power(g, phi, 0.5, 2.0)
    assert out.kind == "max"
    G = lambda x: x + x ** 3 / 3.0
    C = G(2.0) / 1.0
    for t, yv in zip(g.points, out.y.values):
        assert G(yv) == pytest.approx(C * t, abs=1e-9)
    assert power_functional(g, phi, 0.5, out.y) == pytest.approx(
        out.F_value, abs=1e-10)
    with pytest.raises(InvalidExponent):
        direct_solve_power(g, phi, 1.0, 2.0)
    for alpha_exp in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidExponent, match="finite"):
            direct_solve_power(g, phi, alpha_exp, 2.0)
    with pytest.raises(DomainError):
        direct_solve_power(g, phi, 2.0, -1.0)


@pytest.mark.parametrize("phi", [lambda s: 1.0 + s * s, lambda s: s], ids=["1+x^2", "x"])
def test_direct_power_ends_exactly_at_B(phi):
    # C = G(B) / (b - a) makes G(y(b)) = G(B): y(b) is B, not a bisection's 1e-13 of it
    out = direct_solve_power(tsc.uniform(0.0, 1.0, 0.01), phi, 2.0, 3.0)
    assert out.y.values[-1] == 3.0


@pytest.mark.parametrize("n", [101, 1001])
@pytest.mark.parametrize("phi, G_of_B, G_inv", [
    (lambda s: s, 4.5, lambda u: math.sqrt(2.0 * u)),  # G = x^2/2, y = 3 sqrt(t)
    (math.exp, math.expm1(3.0), math.log1p),           # G = e^x - 1, y = ln(1 + (e^3 - 1) t)
], ids=["x", "exp"])
def test_direct_power_matches_the_closed_form_inverse(phi, G_of_B, G_inv, n):
    # B = 3 on [0, 1]: y(t) = G^-1(G(B) t)
    g = tsc.uniform(0.0, 1.0, 1.0 / (n - 1))
    out = direct_solve_power(g, phi, 2.0, 3.0)
    exact = np.array([G_inv(G_of_B * t) for t in g.points])
    assert_allclose(out.y.values, exact, rtol=5e-14, atol=0.0)


def test_direct_power_quadrature_budget(monkeypatch):
    # one quadrature piece per Newton step of one walk over the grid, not a
    # bisection that integrates from 0 on every probe (47,672 calls here)
    calls = [0]
    simpson = solvers.adaptive_simpson

    def counting(*args, **kwargs):
        calls[0] += 1
        return simpson(*args, **kwargs)

    monkeypatch.setattr(solvers, "adaptive_simpson", counting)
    monkeypatch.setattr(varcalc, "adaptive_simpson", counting)
    direct_solve_power(tsc.uniform(0.0, 1.0, 0.001), math.exp, 2.0, 3.0)
    assert 0 < calls[0] <= 3000


def test_direct_power_refuses_a_non_finite_phi():
    calls = [0]

    def nan_phi(x):
        calls[0] += 1
        if calls[0] > 10**5:
            raise AssertionError("the quadrature kept refining a NaN")
        return math.nan

    g = tsc.uniform(0.0, 1.0, 0.25)
    with pytest.raises(NonFinite):
        direct_solve_power(g, nan_phi, 2.0, 3.0)
    calls[0] = 0
    with pytest.raises(NonFinite):
        power_functional(g, nan_phi, 2.0, tsc.GridFunction(g, [0.0, 1.0, 2.0, 2.5, 3.0]))


@pytest.mark.parametrize("phi", [lambda s: s - 1.0, lambda s: -1.0], ids=["x-1", "-1"])
def test_direct_power_refuses_a_negative_phi(phi):
    # G is not increasing, so G^-1 is not defined
    with pytest.raises(RootNotBracketed):
        direct_solve_power(tsc.uniform(0.0, 1.0, 0.25), phi, 2.0, 3.0)


def test_direct_exp_constant_phi():
    g = tsc.uniform(0.0, 2.0, 0.5)
    B = 3.0
    out = direct_solve_exp(g, lambda t: 1.0, B)
    assert_allclose(out.y.values, B * g.points / 2.0, atol=1e-12)
    assert out.y.values[0] == 0.0
    assert out.y.values[-1] == pytest.approx(B)
    assert out.F_value == pytest.approx(2.0 * math.exp(B / 2.0), rel=1e-12)
    assert exp_functional(g, lambda t: 1.0, out.y) == pytest.approx(
        out.F_value, abs=1e-10)
    with pytest.raises(NonPositivePhi):
        direct_solve_exp(g, lambda t: t - 1.0, B)


def test_direct_exp_varying_phi_consistency():
    g = zgrid(4)
    phi = lambda t: t + 1.0
    out = direct_solve_exp(g, phi, 2.0)
    assert exp_functional(g, phi, out.y) == pytest.approx(out.F_value, abs=1e-10)


def test_direct_entropy_exact_integer_example():
    g = zgrid(5)
    out = direct_solve_entropy(g, lambda t: 2.0 * t + 1.0, 25.0)
    assert np.array_equal(np.asarray(out.y.values),
                          np.array([0.0, 9.0, 16.0, 21.0, 24.0, 25.0]))
    assert out.F_value == pytest.approx(50.0 * math.log(10.0), abs=1e-12)
    assert out.kind == "min"
    # y^Delta = C - phi stays positive
    assert np.all(np.diff(out.y.values) > 0)
    assert entropy_functional(g, lambda t: 2.0 * t + 1.0, out.y) == pytest.approx(
        out.F_value, abs=1e-12)


def test_direct_entropy_precondition():
    g = zgrid(4)
    with pytest.raises(PreconditionViolated):
        direct_solve_entropy(g, lambda t: 1.0, 0.0)  # C equals phi: not strict


def _perturbations(rng, n_interior, scale, count=200):
    return scale * rng.standard_normal((count, n_interior))


def test_direct_optima_beat_random_admissible_competitors():
    rng = np.random.default_rng(123)

    # entropy on the integer example; keep phi + y^Delta > 0
    g = zgrid(5)
    phi_e = lambda t: 2.0 * t + 1.0
    ent = direct_solve_entropy(g, phi_e, 25.0)
    for d in _perturbations(rng, len(g) - 2, 0.35):
        y = np.asarray(ent.y.values, dtype=float).copy()
        y[1:-1] += d
        val = entropy_functional(g, phi_e, tsc.GridFunction(g, y))
        assert val >= ent.F_value - 1e-10

    # exponential: unconstrained interior
    ge = tsc.uniform(0.0, 2.0, 0.5)
    ex = direct_solve_exp(ge, lambda t: 1.0, 3.0)
    for d in _perturbations(rng, len(ge) - 2, 0.5):
        y = np.asarray(ex.y.values, dtype=float).copy()
        y[1:-1] += d
        val = exp_functional(ge, lambda t: 1.0, tsc.GridFunction(ge, y))
        assert val >= ex.F_value - 1e-10

    # power, min branch (alpha = 2), keep y increasing
    gp = tsc.uniform(0.0, 1.0, 0.25)
    phi_p = lambda s: 1.0 + s * s
    pw = direct_solve_power(gp, phi_p, 2.0, 2.0)
    min_gap = float(np.min(np.diff(pw.y.values)))
    for d in _perturbations(rng, len(gp) - 2, 0.3 * min_gap):
        y = np.asarray(pw.y.values, dtype=float).copy()
        y[1:-1] += d
        if np.any(np.diff(y) <= 0):
            continue
        val = power_functional(gp, phi_p, 2.0, tsc.GridFunction(gp, y))
        assert val >= pw.F_value - 1e-10

    # power, max branch (alpha = 1/2): the optimum dominates
    pmx = direct_solve_power(gp, phi_p, 0.5, 2.0)
    min_gap = float(np.min(np.diff(pmx.y.values)))
    for d in _perturbations(rng, len(gp) - 2, 0.3 * min_gap):
        y = np.asarray(pmx.y.values, dtype=float).copy()
        y[1:-1] += d
        if np.any(np.diff(y) <= 0):
            continue
        val = power_functional(gp, phi_p, 0.5, tsc.GridFunction(gp, y))
        assert val <= pmx.F_value + 1e-10


def test_direct_result_shape():
    g = zgrid(4)
    out = direct_solve_exp(g, lambda t: 1.0, 1.0)
    assert isinstance(out, DirectResult)
    assert out.kind in ("min", "max")
    assert len(out.y) == len(g)

"""Fractional h-operators and the fractional variational machinery.

The double-loop oracles here evaluate the defining sums directly through
h_factorial/gamma_fn, independently of the weight-table route used by the
implementation.
"""

import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from tsvar import dsl, fracvar, solvers, special
from tsvar import timescale as tsc
from tsvar.errors import (
    DomainError,
    InvalidAlpha,
    NoConvergence,
    OffDomain,
    OrderNotPositive,
)
from tsvar.fracvar import (
    FracGrid,
    FracOrders,
    FracProblem,
    el_residual_frac,
    frac_sbp_residual,
    functional_value,
    left_frac_diff,
    left_frac_sum,
    legendre_frac_check,
    natural_bc_residuals,
    right_frac_diff,
    right_frac_sum,
    solve_frac_el,
)
from tsvar.solvers import SolverConfig, multi_start
from tsvar.special import gamma_fn, h_factorial
from tsvar.varcalc import VariationalProblem, el_residual
from tsvar.timescale import GridFunction, delta_derivative, delta_integral, uniform


def sum_oracle_left(f, nu, t):
    pts = f.scale.points
    a, h = pts[0], float(pts[1] - pts[0])
    kmax = round((t - a) / h - nu)
    acc = 0.0
    for k in range(kmax + 1):
        acc += h_factorial(t - (pts[k] + h), nu - 1.0, h) * f.values[k] * h
    return acc / gamma_fn(nu)


def sum_oracle_right(f, nu, t):
    pts = f.scale.points
    a, h = pts[0], float(pts[1] - pts[0])
    kmin = round((t - a) / h + nu)
    acc = 0.0
    for k in range(kmin, len(pts)):
        acc += h_factorial(pts[k] - (t + h), nu - 1.0, h) * f.values[k] * h
    return acc / gamma_fn(nu)


def random_grid_function(b, h):
    g = uniform(0.0, b, h)
    rng = np.random.default_rng(5)
    return GridFunction(g, rng.uniform(-2.0, 2.0, len(g)))


@pytest.fixture
def random_f():
    return random_grid_function(3.0, 0.5)


@pytest.fixture
def special_calls(monkeypatch):
    """Names of the h_factorial and gamma_fn calls made through fracvar or special."""
    calls = []
    for module in (fracvar, special):
        for name in ("h_factorial", "gamma_fn"):
            real = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *a, _real=real, _name=name: calls.append(_name)
                                or _real(*a))
    return calls


def test_frac_sums_match_defining_double_loop(random_f, special_calls):
    # the 46-point grid takes kernel indices past 30, where h_factorial
    # switches to its log-gamma branch
    h = 0.5
    for f in (random_f, random_grid_function(22.5, h)):
        for nu in (0.3, 0.5, 0.9, 1.0, 1.7):
            for j in range(len(f.scale)):
                t_left = nu * h + j * h
                t_right = j * h - nu * h
                got = (left_frac_sum(f, nu, t_left), right_frac_sum(f, nu, t_right))
                assert special_calls == []  # the sums read the weight table
                assert got[0] == pytest.approx(sum_oracle_left(f, nu, t_left), abs=1e-12)
                assert got[1] == pytest.approx(sum_oracle_right(f, nu, t_right), abs=1e-12)
                special_calls.clear()  # the oracles' own calls


def test_frac_sum_order_one_is_plain_sum(random_f):
    f = random_f
    h = 0.5
    # order 1, evaluated at t + h: the plain Delta-sum over [a, t]
    for j in range(1, len(f.scale)):
        t = f.scale.points[j]
        assert left_frac_sum(f, 1.0, t + h) == pytest.approx(
            delta_integral(f, 0.0, float(t)) + h * f.values[j], abs=1e-12)
    # right variant mirrors with the sum over (t, b]
    for j in range(len(f.scale) - 1):
        t = f.scale.points[j]
        expect = sum(h * f.values[k] for k in range(j + 1, len(f.scale)))
        assert right_frac_sum(f, 1.0, t + h - h) == pytest.approx(
            sum_oracle_right(f, 1.0, t), abs=1e-12)
        assert sum_oracle_right(f, 1.0, t) == pytest.approx(expect, abs=1e-12)


def test_weight_tables_stay_bounded_over_many_orders():
    # each table is grid-sized, so one per distinct order would grow without end
    f = GridFunction(uniform(0.0, 1.0, 0.01), np.ones(101))
    for k in range(1, 101):
        nu = k / 101
        left_frac_sum(f, nu, nu * 0.01)
    assert fracvar._weights.cache_info().currsize <= 16


def test_frac_sum_zero_function_and_errors(random_f):
    g = random_f.scale
    zero = GridFunction(g, np.zeros(len(g)))
    assert left_frac_sum(zero, 0.7, 0.7 * 0.5) == 0.0
    assert right_frac_sum(zero, 0.7, 3.0 - 0.35) == 0.0
    with pytest.raises(OrderNotPositive):
        left_frac_sum(random_f, 0.0, 0.5)
    with pytest.raises(OrderNotPositive):
        right_frac_sum(random_f, -1.0, 0.5)
    with pytest.raises(OffDomain):
        left_frac_sum(random_f, 0.5, 0.4)  # not on the +nu*h shifted grid


def test_frac_sum_small_order_limits(random_f):
    # order -> 0+ recovers the function value at the shifted point
    f = random_f
    h, nu = 0.5, 1e-6
    for j in range(len(f.scale)):
        t = f.scale.points[j]
        assert abs(left_frac_sum(f, nu, t + nu * h) - f.values[j]) <= 1e-4
        assert abs(right_frac_sum(f, nu, t - nu * h) - f.values[j]) <= 1e-4


def test_frac_diff_alpha_one_is_plain_difference(random_f):
    f = random_f
    df = np.diff(np.asarray(f.values)) / 0.5
    assert_allclose(left_frac_diff(f, 1.0).values, df, atol=1e-14)
    assert_allclose(right_frac_diff(f, 1.0).values, -df, atol=1e-14)


def test_frac_diff_matches_shifted_sum_derivative(random_f):
    # Delta of the (1-alpha)-order sum, per the defining composition
    f = random_f
    h = 0.5
    for alpha in (0.3, 0.8):
        gam = 1.0 - alpha
        lfd = left_frac_diff(f, alpha)
        rfd = right_frac_diff(f, alpha)
        for j in range(len(f.scale) - 1):
            t = f.scale.points[j]
            expect_l = (sum_oracle_left(f, gam, t + h + gam * h)
                        - sum_oracle_left(f, gam, t + gam * h)) / h
            assert lfd.values[j] == pytest.approx(expect_l, abs=1e-12)
            expect_r = -(sum_oracle_right(f, gam, t + h - gam * h)
                         - sum_oracle_right(f, gam, t - gam * h)) / h
            assert rfd.values[j] == pytest.approx(expect_r, abs=1e-12)
    with pytest.raises(InvalidAlpha):
        left_frac_diff(f, 1.5)


def test_frac_diff_linearity(random_f):
    g = random_f.scale
    rng = np.random.default_rng(10)
    other = GridFunction(g, rng.uniform(-1.0, 1.0, len(g)))
    both = GridFunction(g, np.asarray(random_f.values) + np.asarray(other.values))
    for op in (left_frac_diff, right_frac_diff):
        combined = op(both, 0.6).values
        split = np.asarray(op(random_f, 0.6).values) + np.asarray(op(other, 0.6).values)
        assert_allclose(combined, split, atol=1e-12)


def test_sum_of_delta_identity_left(random_f):
    # fractional sum of f^Delta versus Delta of the fractional sum (left form)
    f = random_f
    h = 0.5
    a = f.scale.points[0]
    df = delta_derivative(f)
    for nu in (0.25, 0.5, 0.75, 1.3):
        for j in range(len(f.scale) - 1):
            t = f.scale.points[j]
            lhs = left_frac_sum(df, nu, t + nu * h)
            g_hi = left_frac_sum(f, nu, t + h + nu * h)
            g_lo = left_frac_sum(f, nu, t + nu * h)
            rhs = (g_hi - g_lo) / h - nu / gamma_fn(nu + 1.0) * h_factorial(
                t + nu * h - a, nu - 1.0, h) * f.values[0]
            assert abs(lhs - rhs) <= 1e-10


def test_sum_of_delta_identity_right(random_f):
    f = random_f
    h = 0.5
    b = f.scale.points[-1]
    df = delta_derivative(f)
    for nu in (0.25, 0.5, 0.75, 1.3):
        for j in range(len(f.scale) - 1):
            t = f.scale.points[j]
            lhs = right_frac_sum(df, nu, t - nu * h)
            g_hi = right_frac_sum(f, nu, t + h - nu * h)
            g_lo = right_frac_sum(f, nu, t - nu * h)
            rhs = nu / gamma_fn(nu + 1.0) * h_factorial(
                b + nu * h - (t + h), nu - 1.0, h) * f.values[-1] + (g_hi - g_lo) / h
            assert abs(lhs - rhs) <= 1e-10


# ---------------------------------------------------------------------------
# summation by parts


def test_sbp_residual_random_draws(special_calls):
    rng = np.random.default_rng(77)
    for trial in range(40):
        h = float(rng.choice([1.0, 0.5, 0.1]))
        n = int(rng.integers(3, 9))
        g = uniform(0.0, n * h, h)
        f = GridFunction(g.drop_last(1), rng.uniform(-2, 2, n))
        w = GridFunction(g, rng.uniform(-2, 2, n + 1))
        alpha = float(rng.choice([0.25, 0.5, 0.75, 1.0]))
        scale = max(1.0, float(np.max(np.abs(f.values))), float(np.max(np.abs(w.values))))
        assert frac_sbp_residual(f, w, alpha) <= 1e-10 * scale
    assert special_calls == []  # the gamma-correction reads the weight table


def test_sbp_alpha_one_classical():
    rng = np.random.default_rng(3)
    g = uniform(0.0, 3.0, 0.5)
    f = GridFunction(g.drop_last(1), rng.uniform(-1, 1, len(g) - 1))
    w = GridFunction(g, rng.uniform(-1, 1, len(g)))
    assert frac_sbp_residual(f, w, 1.0) <= 1e-12


def test_sbp_constant_g(random_f):
    g = uniform(0.0, 3.0, 0.5)
    f = GridFunction(g.drop_last(1), np.asarray(random_f.values)[:-1])
    const = GridFunction(g, np.full(len(g), 1.7))
    assert frac_sbp_residual(f, const, 0.5) <= 1e-11


# ---------------------------------------------------------------------------
# Euler-Lagrange pieces


def test_el_residual_classical_reduction():
    grid = FracGrid(0.0, 1.0, 0.25)
    p = FracProblem(grid, FracOrders(1.0, 1.0), "0.5*v^2 - u", A=0.0, B=0.0)
    ts = grid.scale()
    exact = tsc.GridFunction.sample(ts, lambda t: 0.5 * t * (1.0 - t))
    res = el_residual_frac(p, exact)
    assert np.max(np.abs(res.values)) <= 1e-12
    # and the -(second difference) - 1 shape for arbitrary y
    rng = np.random.default_rng(0)
    vals = rng.uniform(-1, 1, len(ts))
    y = tsc.GridFunction(ts, vals)
    second = (vals[2:] - 2.0 * vals[1:-1] + vals[:-2]) / 0.25 ** 2
    assert_allclose(el_residual_frac(p, y).values, -second - 1.0, atol=1e-10)


def test_el_residual_consistent_with_classical_module():
    grid = FracGrid(0.0, 2.0, 0.5)
    ts = grid.scale()
    rng = np.random.default_rng(9)
    y = tsc.GridFunction(ts, rng.uniform(-1, 1, len(ts)))
    for L in ("0.5*v^2 - u", "v^2 + t*u", "exp(u) - v^2"):
        pf = FracProblem(grid, FracOrders(1.0, 1.0), L, A=0.0, B=1.0)
        pc = VariationalProblem(ts, L, 0.0, 1.0)
        assert_allclose(el_residual_frac(pf, y).values,
                        el_residual(pc, y).values, atol=1e-12)


def test_el_residual_constant_lagrangian_vanishes():
    grid = FracGrid(0.0, 1.0, 0.25)
    p = FracProblem(grid, FracOrders(0.6, 0.4), "3.5", A=0.0, B=1.0)
    ts = grid.scale()
    rng = np.random.default_rng(1)
    y = tsc.GridFunction(ts, rng.uniform(-1, 1, len(ts)))
    assert_allclose(el_residual_frac(p, y).values, 0.0, atol=1e-14)


def test_el_residual_is_gradient_of_functional():
    # h * residual_k equals the partial derivative of the functional at
    # interior point k: the stationarity system is exactly grad F = 0.
    grid = FracGrid(0.0, 1.0, 0.25)
    p = FracProblem(grid, FracOrders(0.8, 0.5), "v^3 + 1*w^2", A=0.0, B=1.0)
    ts = grid.scale()
    rng = np.random.default_rng(21)
    vals = rng.uniform(-1, 1, len(ts))
    y = tsc.GridFunction(ts, vals)
    res = el_residual_frac(p, y).values
    eps = 1e-6
    for k in range(1, len(ts) - 1):
        hi = vals.copy()
        lo = vals.copy()
        hi[k] += eps
        lo[k] -= eps
        fd = (functional_value(p, tsc.GridFunction(ts, hi))
              - functional_value(p, tsc.GridFunction(ts, lo))) / (2 * eps)
        assert fd == pytest.approx(0.25 * res[k - 1], rel=5e-5, abs=5e-6)


def test_functional_constant_lagrangian():
    grid = FracGrid(0.0, 2.0, 0.25)
    p = FracProblem(grid, FracOrders(0.7, 0.7), "1", A=0.0, B=0.0)
    ts = grid.scale()
    y = tsc.GridFunction(ts, np.zeros(len(ts)))
    assert functional_value(p, y) == pytest.approx(2.0, abs=1e-14)


@pytest.mark.parametrize("L, orders, values, exact", [
    ("sqrt(v)", (1.0, 1.0), [0.0, 0.5, 0.5, 0.75, 1.0], 0.25 * (math.sqrt(2.0) + 2.0)),
    ("abs(v)", (1.0, 1.0), [0.0, 0.5, 0.5, 0.75, 1.0], 1.0),
    ("sqrt(u) + abs(w)", (0.8, 0.5), [0.0] * 5, 0.0),
], ids=["sqrt-flat", "abs-flat", "at-0"])
def test_functional_value_is_defined_wherever_the_lagrangian_is(L, orders, values, exact):
    # F reads L alone: v = 0 or u = 0 leaves L defined where its gradient is not
    grid = FracGrid(0.0, 1.0, 0.25)
    p = FracProblem(grid, FracOrders(*orders), L, A=values[0], B=values[-1])
    y = tsc.GridFunction(grid.scale(), values)
    assert functional_value(p, y) == pytest.approx(exact, rel=1e-15)


def test_natural_bc_both_fixed_absent():
    grid = FracGrid(0.0, 1.0, 0.25)
    p = FracProblem(grid, FracOrders(0.8, 0.5), "v^2", A=0.0, B=1.0)
    ts = grid.scale()
    y = tsc.GridFunction(ts, np.linspace(0, 1, len(ts)))
    assert natural_bc_residuals(p, y) == (None, None)


def test_natural_bc_classical_right_end():
    # alpha = beta = 1, L = 0.5 v^2, free right end: condition is yDelta(rho(b)) = 0
    grid = FracGrid(0.0, 1.0, 0.25)
    p = FracProblem(grid, FracOrders(1.0, 1.0), "0.5*v^2", A=0.0, B=None)
    ts = grid.scale()
    rng = np.random.default_rng(4)
    vals = rng.uniform(-1, 1, len(ts))
    y = tsc.GridFunction(ts, vals)
    left, right = natural_bc_residuals(p, y)
    assert left is None
    slope_end = (vals[-1] - vals[-2]) / 0.25
    assert right == pytest.approx(slope_end, rel=1e-10)


def test_natural_bc_superposition_for_quadratic_L():
    grid = FracGrid(0.0, 1.0, 0.25)
    p = FracProblem(grid, FracOrders(0.6, 0.8), "v^2 + 0.5*w^2", A=None, B=None)
    ts = grid.scale()
    rng = np.random.default_rng(8)
    vals = rng.uniform(-1, 1, len(ts))
    l1, r1 = natural_bc_residuals(p, tsc.GridFunction(ts, vals))
    l2, r2 = natural_bc_residuals(p, tsc.GridFunction(ts, 2.0 * vals))
    assert l2 == pytest.approx(2.0 * l1, rel=1e-10, abs=1e-12)
    assert r2 == pytest.approx(2.0 * r1, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("alpha, beta, h", [
    (1.0, 0.6, 0.1), (0.7, 0.6, 0.1), (0.8, 0.5, 0.25), (1.0, 1.0, 0.1),
    (0.5, 1.0, 0.2), (0.3, 0.3, 0.1), (0.75, 0.6, 0.01),
])
def test_natural_bc_rows_are_h_times_the_end_columns_of_the_diff_maps(
        special_calls, alpha, beta, h):
    # h * residual is the gradient of F, so dF/dy(a) and dF/dy(b) are h times
    # the first and last columns of y -> (u, v, w); no gamma value is needed
    p = FracProblem(FracGrid(0.0, 1.0, h), FracOrders(alpha, beta), "v^2", A=None, B=None)
    left, right = fracvar._natural_bc_rows(p)
    assert special_calls == []

    N = p.grid.n_steps + 1
    A = np.zeros((N - 1, 3, N))
    A[np.arange(N - 1), 0, np.arange(1, N)] = 1.0
    A[:, 1], A[:, 2] = fracvar._diff_maps(alpha, beta, h, N)
    for row, column in ((left, 0), (right, N - 1)):
        assert_allclose(np.stack(row, axis=1), h * A[:, :, column], rtol=1e-13, atol=0.0)


def test_solve_with_free_right_end_zeroes_natural_residual():
    grid = FracGrid(0.0, 1.0, 0.25)
    p = FracProblem(grid, FracOrders(1.0, 1.0), "0.5*v^2 - u", A=0.0, B=None)
    cands = solve_frac_el(p, SolverConfig(starts=8, seed=0))
    assert cands
    _, right = natural_bc_residuals(p, cands[0].y)
    assert abs(right) <= 1e-8


def test_legendre_frac_classical_reduction():
    grid = FracGrid(0.0, 1.0, 0.25)
    p = FracProblem(grid, FracOrders(1.0, 1.0), "0.5*v^2 - u", A=0.0, B=0.0)
    ts = grid.scale()
    y = tsc.GridFunction.sample(ts, lambda t: 0.5 * t * (1.0 - t))
    rep = legendre_frac_check(p, y)
    # h^2 L_uu + 2h L_uv + L_vv + L_vv(next) = 0 + 0 + 1 + 1
    assert_allclose(rep.margins.values, 2.0, atol=1e-12)
    assert rep.ok
    flipped = FracProblem(grid, FracOrders(1.0, 1.0), "-(0.5*v^2) - u", A=0.0, B=0.0)
    assert not legendre_frac_check(flipped, y).ok


def legendre_margins_oracle(p, y):
    """The Legendre margins summed point by point, one double loop per integral."""
    h, gamma, nu = p.grid.h, p.orders.gamma, p.orders.nu_order
    vals = np.asarray(y.values, dtype=float)
    t = p.grid.points()[:-1]
    v = left_frac_diff(y, p.orders.alpha).values
    w = right_frac_diff(y, p.orders.beta).values
    m = t.size
    H = np.array([dsl.eval_jet2(p.L, t[j], vals[j + 1], v[j], w[j]).hess for j in range(m)]).T
    Huu, Huv, Huw, Hvv, Hvw, Hww = H
    cw = nu * (1.0 - nu) / gamma_fn(nu + 1.0)
    cv = gamma * (gamma - 1.0) / gamma_fn(gamma + 1.0)
    margins = []
    for j in range(m - 1):
        val = (h * h * Huu[j] + 2.0 * h ** (gamma + 1.0) * Huv[j]
               + 2.0 * h ** (nu + 1.0) * (nu - 1.0) * Huw[j]
               + h ** (2.0 * gamma) * (gamma - 1.0) ** 2 * Hvv[j + 1]
               + 2.0 * h ** (nu + gamma) * (gamma - 1.0) * Hvw[j + 1]
               + 2.0 * h ** (nu + gamma) * (nu - 1.0) * Hvw[j]
               + h ** (2.0 * nu) * (nu - 1.0) ** 2 * Hww[j]
               + h ** (2.0 * nu) * Hww[j + 1] + h ** gamma * Hvv[j])
        if nu != 0.0:
            val += h ** 4 * sum(Hww[i] * (cw * h_factorial((j - i - 1 + nu) * h, nu - 2.0, h)) ** 2
                                for i in range(j))
        if gamma != 0.0:
            val += h ** 4 * sum(
                Hvv[i] * (cv * h_factorial((i - j - 2 + gamma) * h, gamma - 2.0, h)) ** 2
                for i in range(j + 2, m))
        margins.append(val)
    return np.array(margins)


@pytest.mark.parametrize("orders", [(0.8, 0.5), (0.3, 0.7), (1.0, 0.6), (0.75, 1.0), (1.0, 1.0)])
@pytest.mark.parametrize("h", [0.5, 0.1, 0.04])
def test_legendre_frac_margins_match_double_loop(orders, h):
    grid = FracGrid(0.0, 1.0, h)
    p = FracProblem(grid, FracOrders(*orders), "v^3 + 0.5*w^2*u - cos(u*v) + exp(w)", A=0.0, B=1.0)
    ts = grid.scale()
    y = tsc.GridFunction(ts, np.random.default_rng(3).uniform(-1.0, 1.0, len(ts)))
    ref = legendre_margins_oracle(p, y)
    got = legendre_frac_check(p, y).margins.values
    assert got.shape == ref.shape
    assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.max(np.abs(ref)))


@pytest.mark.parametrize("nu", [0.1, 0.25, 0.5, 0.75, 0.9])
@pytest.mark.parametrize("h", [0.25, 0.01, 0.0005])
def test_legendre_kernels_match_the_h_factorial_per_entry(nu, h):
    m = 2001
    kern = fracvar._legendre_kernel(nu, h, m)
    assert kern.shape == (m,)
    # h_factorial itself takes the Gamma quotient up to (d + nu) = 30 and
    # Stirling's series for the log-Gamma difference beyond
    ref = np.array([h_factorial((d + nu) * h, nu - 2.0, h) for d in range(m)])
    assert_allclose(kern[:30], ref[:30], rtol=1e-12, atol=0.0)
    assert_allclose(kern[30:], ref[30:], rtol=1e-13, atol=0.0)
    # so every entry is also held to rtol 1e-12 against the exact product
    # Gamma(d + nu + 1) / Gamma(d + 3) = (Gamma(nu + 1) / 2) prod_{k<d} (k + nu + 1) / (k + 3)
    with localcontext() as ctx:
        ctx.prec = 40
        ratio, exact = Decimal(1), [1.0]
        for k in range(m - 1):
            ratio *= (k + Decimal(nu) + 1) / (k + 3)
            exact.append(float(ratio))
    assert_allclose(kern, kern[0] * np.array(exact), rtol=1e-12, atol=0.0)


EX3A_ROWS = [
    (-0.5511786, 0.0515282, 0.5133134, False),
    (0.2669091, 0.4878808, 0.7151924, True),
    (-2.6745703, 0.5599360, -2.6730125, False),
    (0.5789976, 1.0701515, 0.1840377, False),
    (1.0306820, 1.8920322, 2.7429222, True),
    (0.5087946, -0.1861431, 0.4489196, False),
    (4.0583690, -1.0299054, -5.0030989, False),
    (-1.7436106, -3.1898449, -0.8850511, False),
]

DADOS16_ROWS = [
    (-0.305570704, -0.428093486, 0.223708338, 0.480549114, False),
    (-0.427934654, -0.599520948, 0.313290997, -0.661831134, False),
    (0.284152257, -0.227595659, 0.318847274, 0.531827387, False),
    (-0.277642565, 0.222381632, 0.386666793, 0.555841555, False),
    (0.387074742, -0.310032839, 0.434336603, -0.482903047, False),
    (0.259846344, 0.364035314, 0.463222456, 0.597907505, True),
    (-0.375094681, 0.300437245, 0.522386246, -0.419053781, False),
    (0.343327771, 0.480989769, 0.61204299, -0.280908953, False),
    (0.297792192, 0.417196073, -0.218013689, 0.460556635, False),
    (0.41283304, 0.578364133, -0.302235104, -0.649232892, False),
    (-0.321401682, 0.257431098, -0.360644857, 0.400971272, False),
    (0.330157414, -0.264444122, -0.459803086, 0.368850105, False),
    (-0.459640837, 0.368155651, -0.515763025, -0.860276767, False),
    (-0.359429958, -0.50354835, -0.640748011, 0.294083676, False),
    (0.477760586, -0.382668914, -0.66536683, -0.956478654, False),
    (-0.541587541, -0.758744525, -0.965476394, -1.246195157, False),
]


def test_legendre_frac_verdicts_on_reference_candidates():
    grid = FracGrid(0.0, 1.0, 0.25)
    p = FracProblem(grid, FracOrders(0.8, 0.5), "v^3 + 1*w^2", A=0.0, B=1.0)
    ts = grid.scale()
    for row in EX3A_ROWS:
        y = tsc.GridFunction(ts, np.array([0.0, *row[:3], 1.0]))
        assert legendre_frac_check(p, y).ok is row[3], row
    grid2 = FracGrid(0.0, 0.5, 0.1)
    p2 = FracProblem(grid2, FracOrders(0.3, 0.3), "v^3", A=0.0, B=1.0)
    ts2 = grid2.scale()
    for row in DADOS16_ROWS:
        y = tsc.GridFunction(ts2, np.array([0.0, *row[:4], 1.0]))
        assert legendre_frac_check(p2, y).ok is row[4], row


def test_reference_candidates_nearly_stationary():
    grid = FracGrid(0.0, 1.0, 0.25)
    p = FracProblem(grid, FracOrders(0.8, 0.5), "v^3 + 1*w^2", A=0.0, B=1.0)
    ts = grid.scale()
    y = tsc.GridFunction(ts, np.array([0.0, 1.0306820, 1.8920322, 2.7429222, 1.0]))
    assert float(np.linalg.norm(el_residual_frac(p, y).values)) <= 1e-4


# ---------------------------------------------------------------------------
# solver


def test_solve_frac_el_alpha_one_matches_linear_oracle():
    grid = FracGrid(0.0, 1.0, 0.125)
    p = FracProblem(grid, FracOrders(1.0, 1.0), "0.5*v^2 - u", A=0.0, B=0.0)
    cands = solve_frac_el(p, SolverConfig(starts=6, seed=0))
    assert len(cands) == 1
    ts = grid.scale()
    exact = 0.5 * ts.points * (1.0 - ts.points)
    assert_allclose(cands[0].y.values, exact, atol=1e-9)
    assert cands[0].residual_norm <= 1e-9
    assert cands[0].legendre_ok


def test_solve_frac_el_scaling_invariance():
    grid = FracGrid(0.0, 0.5, 0.125)
    cfg = SolverConfig(starts=48, seed=2, box=(-4.0, 4.0))
    base = solve_frac_el(FracProblem(grid, FracOrders(0.5, 0.5), "v^3 + w^2",
                                     A=0.0, B=1.0), cfg)
    tripled = solve_frac_el(FracProblem(grid, FracOrders(0.5, 0.5),
                                        "3*v^3 + 3*w^2", A=0.0, B=1.0), cfg)
    assert len(base) == len(tripled) >= 2
    for cb, ct in zip(base, tripled):
        assert_allclose(ct.y.values, cb.y.values, atol=1e-6)
        assert ct.legendre_ok == cb.legendre_ok
        assert ct.functional_value == pytest.approx(3.0 * cb.functional_value,
                                                    rel=1e-6)


def test_solve_frac_el_candidates_sorted_and_deduped():
    grid = FracGrid(0.0, 1.0, 0.25)
    p = FracProblem(grid, FracOrders(0.8, 0.5), "v^3 + 1*w^2", A=0.0, B=1.0)
    cands = solve_frac_el(p, SolverConfig(starts=96, seed=0, box=(-6.0, 6.0)))
    fv = [c.functional_value for c in cands]
    assert fv == sorted(fv)
    for c in cands:
        assert c.residual_norm <= 1e-9
    arr = [np.asarray(c.y.values) for c in cands]
    for i in range(len(arr)):
        for j in range(i + 1, len(arr)):
            assert np.max(np.abs(arr[i] - arr[j])) > 1e-6


def test_solve_frac_el_domain_error_fails_single_starts():
    # ln(u) is undefined at the starts with a negative interior value; those
    # starts fail on their own instead of aborting the whole solve
    grid = FracGrid(0.0, 1.0, 0.25)
    p = FracProblem(grid, FracOrders(0.8, 0.5), "ln(u) + v^2", A=1.0, B=2.0)
    cands = solve_frac_el(p, SolverConfig(starts=8, seed=0, box=(-1.0, 1.0)))
    assert cands
    for c in cands:
        assert np.all(c.y.values > 0.0)
        assert c.residual_norm <= 1e-9


def _stationarity_maps(p):
    """(A, A_unknown, C, lo, n) of solve_frac_el, built apart from it: A, of
    shape (m, 3, N), maps y to the point-major (u, v, w) rows, C maps the
    per-point partials to the system's rows, one per unknown in their order
    (the free-end rows from _natural_bc_rows), and the n unknowns are
    y_lo .. y_{lo+n-1}."""
    N, h = p.grid.points().size, p.grid.h
    m = N - 1
    lo = 0 if p.A is None else 1
    n = (N - 2) + int(p.A is None) + int(p.B is None)
    A = np.zeros((m, 3, N))
    A[np.arange(m), 0, np.arange(1, N)] = 1.0
    A[:, 1], A[:, 2] = fracvar._diff_maps(p.orders.alpha, p.orders.beta, h, N)
    left, right = ([] if row is None else [np.stack(row, axis=1).ravel()]
                   for row in fracvar._natural_bc_rows(p))
    interior = A.reshape(3 * m, N)[:, 1:N - 1].T
    C = np.vstack([*left, interior, *right]) if left or right else interior
    return A, A[:, :, lo:lo + n], C, lo, n


def _newton_maps(p):
    """The solver's (residual_of, jacobian_of), built by its own helper."""
    _, _, _, lo, n = _stationarity_maps(p)
    return fracvar._newton_maps(dsl.program(p.L, 2).rows, p, lo, lo + n)[1:]


def _jet_rows(L, args):
    """The ten rows of L's order-2 program, from a fresh eval_jet2."""
    jet = dsl.eval_jet2(L, *args)
    return np.vstack([jet.value, jet.grad, jet.hess])


def _reference_pair(p):
    """solve_frac_el's Newton pair without the jet hand-off: the residual
    evaluates the gradient, the Jacobian evaluates the jet anew; both go
    through the solver's helper (its own oracle tests check the helper
    against the dense C . (L_u, L_v, L_w) and C . blockdiag(H) . A)."""
    pts = p.grid.points()
    N = pts.size
    m = N - 1
    A, _, _, lo, n = _stationarity_maps(p)
    A = A.reshape(3 * m, N)
    residual_of, jacobian_of = _newton_maps(p)
    fixed = np.zeros(N)
    fixed[0] = 0.0 if p.A is None else p.A
    fixed[-1] = 0.0 if p.B is None else p.B

    def assemble(x):
        full = fixed.copy()
        full[lo:lo + n] = x
        return full

    def arguments(x):
        return (pts[:-1], *(A @ assemble(x)).reshape(m, 3).T)

    def residual(x):
        return residual_of(x, [dsl.eval_grad(p.L, *arguments(x))])

    def jacobian(x):
        return jacobian_of(x, [_jet_rows(p.L, arguments(x))])

    return residual, jacobian, n


ASSEMBLER_LAGRANGIANS = [
    "0.5*v^2 + 0.5*w^2",  # every Hessian entry constant
    "0.5*v^2 + 0.5*w^2 - u + 0.1*u^4",  # only L_uu varies
    "v^3 + 1*w^2",
    "v^3",
    "u^2 + v^2",
    "u*v + v*w + exp(u)*w^2",
    "t*v^2 + u^2",  # an entry that depends on t varies
]
ENDS = pytest.mark.parametrize("A, B", [(0.0, 1.0), (None, 1.0), (0.0, None), (None, None)],
                               ids=["fixed", "free_left", "free_right", "both_free"])


def _dense_oracle(p, C, A_unknown, seed):
    """(jet rows, C . (L_u, L_v, L_w), C . blockdiag(H) . A_unknown) at a random y."""
    N = p.grid.points().size
    y = GridFunction(p.grid.scale(), np.random.default_rng(seed).uniform(-1.0, 1.0, N))
    rows = _jet_rows(p.L, fracvar._arg_arrays(p, y))
    H = rows[4:].T[:, dsl.HESS_INDEX]
    return rows, C @ rows[1:4].T.ravel(), C @ (H @ A_unknown).reshape(C.shape[1], -1)


@pytest.mark.parametrize("L", ASSEMBLER_LAGRANGIANS)
@ENDS
@pytest.mark.parametrize("N", [5, 26, 201])
def test_jacobian_assembler_matches_the_dense_product(L, A, B, N):
    # the solver's residual and Jacobian against C . (L_u, L_v, L_w) and C . blockdiag(H) . A
    p = FracProblem(FracGrid(0.0, 1.0, 1.0 / (N - 1)), FracOrders(0.75, 0.6), L, A=A, B=B)
    _, A_unknown, C, _, _ = _stationarity_maps(p)
    rows, dense_residual, dense = _dense_oracle(p, C, A_unknown, N)
    structure = dsl.program(p.L, 2).rows
    residual_of, jacobian_of = _newton_maps(p)
    for got, ref in ((residual_of(None, [rows]), dense_residual), (jacobian_of(None, [rows]), dense)):
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
        # an entry besides L_uu varies: the plain product, bit for bit; with
        # fixed ends the residual reads the same view of A as C
        if None in structure[5:] or (ref is dense_residual and (A, B) == (0.0, 1.0)):
            assert np.array_equal(got, ref)


@pytest.mark.parametrize("L", ASSEMBLER_LAGRANGIANS[:2])
@ENDS
def test_jacobian_buffer_is_right_at_each_call_in_turn(L, A, B):
    # the constant-Hessian path hands out one buffer and rewrites it per call
    p = FracProblem(FracGrid(0.0, 1.0, 0.04), FracOrders(0.75, 0.6), L, A=A, B=B)
    _, A_unknown, C, _, _ = _stationarity_maps(p)
    jacobian_of = _newton_maps(p)[1]
    for seed in (1, 2, 1):
        rows, _, dense = _dense_oracle(p, C, A_unknown, seed)
        got = jacobian_of(None, [rows])
        assert np.max(np.abs(got - dense)) <= 1e-13 * np.max(np.abs(dense))


def _capture_pair(monkeypatch, p):
    """The (residual, Jacobian) pair that solve_frac_el hands to multi_start."""
    pair = []
    monkeypatch.setattr(fracvar, "multi_start",
                        lambda fn, jac, n, cfg: pair.extend((fn, jac)) or [])
    assert solve_frac_el(p) == []
    monkeypatch.undo()
    return pair


def test_residual_keeps_no_jet_where_only_the_hessian_is_undefined(monkeypatch):
    # u^1.5 has a gradient but no Hessian at u = 0
    p = FracProblem(FracGrid(0.0, 1.0, 0.25), FracOrders(0.8, 0.5),
                    "0.5*v^2 + 0.5*w^2 + u^1.5", A=0.0, B=1.0)
    residual, jacobian = _capture_pair(monkeypatch, p)
    ref_residual, ref_jacobian, _ = _reference_pair(p)
    x = np.array([0.0, 0.3, 0.6])
    assert np.array_equal(residual(x), ref_residual(x))
    for jac in (jacobian, ref_jacobian):
        with pytest.raises(DomainError):
            jac(x)
    # where the jet exists, the kept one and a fresh one give the same Jacobian
    x = np.array([0.2, 0.3, 0.6])
    assert np.array_equal(residual(x), ref_residual(x))
    assert np.array_equal(jacobian(x), ref_jacobian(x))
    assert np.array_equal(jacobian(x.copy()), ref_jacobian(x))
    y = np.array([0.4, 0.5, 0.7])  # not the residual's point: evaluated anew
    assert np.array_equal(jacobian(y), ref_jacobian(y))


QUARTIC = "0.5*v^2 + 0.5*w^2 - u + 0.1*u^4"


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("p, starts, box", [
    pytest.param(FracProblem(FracGrid(0.0, 1.0, 0.25), FracOrders(0.8, 0.5), "v^3 + 1*w^2",
                             A=0.0, B=1.0), 64, (-6.0, 6.0), id="criterion01"),
    pytest.param(FracProblem(FracGrid(0.0, 0.5, 0.1), FracOrders(0.3, 0.3), "v^3",
                             A=0.0, B=1.0), 64, (-6.0, 6.0), id="criterion02"),
    pytest.param(FracProblem(FracGrid(0.0, 1.0, 0.01), FracOrders(0.75, 0.6), QUARTIC,
                             A=0.0, B=None), 4, (0.0, 1.0), id="frac_free_right_n101"),
])
def test_newton_runs_match_the_fresh_jacobian_pair(monkeypatch, p, starts, box, seed):
    """Every start makes the same residual calls and ends the same way, bit
    for bit, whether the Jacobian reuses the residual's jet or not."""
    cfg = SolverConfig(starts=starts, seed=seed, box=box)
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
            records[-1].append((len(calls), type(exc).__name__, None))
            raise
        records[-1].append((len(calls), "ok", root.tobytes()))
        return root

    monkeypatch.setattr(solvers, "newton_solve", recording)
    records.append([])
    solve_frac_el(p, cfg)
    records.append([])
    residual, jacobian, n = _reference_pair(p)
    multi_start(residual, jacobian, n, cfg)
    assert len(records[0]) == starts
    assert records[0] == records[1]


def test_newton_pairs_of_two_solves_share_no_buffer(monkeypatch):
    # each solve fills its own y, (u, v, w) and Jacobian buffers: the pairs
    # of a product-path and a K-path problem on one grid, with other orders
    # and ends, evaluated in turn give bit for bit what each gives alone and
    # keep what they returned
    grid = FracGrid(0.0, 1.0, 0.25)
    problems = [FracProblem(grid, FracOrders(0.8, 0.5), "v^3 + 1*w^2", A=0.0, B=1.0),
                FracProblem(grid, FracOrders(0.75, 0.6), QUARTIC, A=0.5, B=2.0)]
    points = np.random.default_rng(3).uniform(-1.0, 1.0, size=(2, 2, 3))  # [call, problem]
    alone = []
    for k, p in enumerate(problems):
        fn, jac = _capture_pair(monkeypatch, p)
        alone.append([(fn(x).copy(), jac(x).copy()) for x in points[:, k]])
    pairs = [_capture_pair(monkeypatch, p) for p in problems]
    for i, xs in enumerate(points):
        r = [fn(x) for (fn, _), x in zip(pairs, xs)]
        for fresh in (False, True):  # the Jacobian from the residual's jet, then anew
            J = [jac(x.copy() if fresh else x) for (_, jac), x in zip(pairs, xs)]
            for k in range(2):
                assert np.array_equal(r[k], alone[k][i][0])
                assert np.array_equal(J[k], alone[k][i][1])


def test_solve_frac_el_overflowing_starts_leak_no_warning():
    # exp(v^2) overflows at most starts in (-30, 30); pytest turns a
    # RuntimeWarning into an error, so the solve must keep every one inside
    p = FracProblem(FracGrid(0.0, 1.0, 0.25), FracOrders(0.8, 0.5), "exp(v^2) + w^2",
                    A=0.0, B=1.0)
    try:
        cands = solve_frac_el(p, SolverConfig(starts=32, seed=0, box=(-30.0, 30.0)))
    except NoConvergence:
        return
    assert all(np.isfinite(c.functional_value) for c in cands)


def _solve_counting_calls(monkeypatch, p, cfg, *targets):
    """solve_frac_el's candidates, and calls[(name, where)] for each (module,
    name) target, where is "inside" or "outside" multi_start."""
    calls = {(name, where): 0 for _, name in targets for where in ("inside", "outside")}
    where = ["outside"]

    def counted(name, fn):
        def wrapper(*args):
            calls[name, where[0]] += 1
            return fn(*args)
        return wrapper

    real_multi_start = fracvar.multi_start

    def inside(*args):
        where[0] = "inside"
        try:
            return real_multi_start(*args)
        finally:
            where[0] = "outside"

    for module, name in targets:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    monkeypatch.setattr(fracvar, "multi_start", inside)
    return solve_frac_el(p, cfg), calls


def test_newton_loop_calls_the_compiled_programs_not_the_eval_wrapper(monkeypatch):
    # the eval_* wrapper costs about half of a small evaluation; inside
    # multi_start the residual and Jacobian run dsl.program's output directly
    p = FracProblem(FracGrid(0.0, 1.0, 0.25), FracOrders(0.8, 0.5), "v^3 + 1*w^2",
                    A=0.0, B=1.0)
    cands, calls = _solve_counting_calls(
        monkeypatch, p, SolverConfig(starts=64, seed=0, box=(-6.0, 6.0)), (dsl, "_run"))
    assert calls["_run", "inside"] == 0
    # each candidate's report: el_residual_frac (eval_grad), the Legendre
    # check (eval_jet2) and F (eval_value); fixed ends evaluate no natural row
    assert calls["_run", "outside"] == 3 * len(cands) > 0


def test_free_end_newton_loop_evaluates_the_lagrangian_once_per_point(monkeypatch):
    # the free-end rows come from the residual's own gradient through C, not
    # from natural_bc_residuals, which would evaluate L a second time
    p = FracProblem(FracGrid(0.0, 1.0, 0.1), FracOrders(0.75, 0.6), QUARTIC,
                    A=None, B=None)
    cands, calls = _solve_counting_calls(
        monkeypatch, p, SolverConfig(starts=4, seed=0, box=(0.0, 1.0)),
        (dsl, "_run"), (fracvar, "natural_bc_residuals"))
    assert cands
    assert calls["_run", "inside"] == calls["natural_bc_residuals", "inside"] == 0
    # the report: el_residual_frac, the natural rows, Legendre and F
    assert calls["_run", "outside"] == 4 * len(cands)
    assert calls["natural_bc_residuals", "outside"] == len(cands)


def test_free_right_residual_norm_is_the_textbook_system():
    # residual_norm reports el_residual_frac and the natural-boundary row,
    # evaluated apart from the solver's stationarity matrix
    p = FracProblem(FracGrid(0.0, 1.0, 0.05), FracOrders(0.75, 0.6), QUARTIC,
                    A=0.0, B=None)
    cands = solve_frac_el(p, SolverConfig(starts=2, seed=0, box=(0.0, 1.0)))
    assert cands
    for c in cands:
        left, right = natural_bc_residuals(p, c.y)
        assert left is None
        rows = np.concatenate([el_residual_frac(p, c.y).values, [right]])
        assert c.residual_norm == float(np.linalg.norm(rows))
        assert c.residual_norm <= 1e-9


@pytest.mark.parametrize("grid", [FracGrid(0.0, 1.0, 1e-6), FracGrid(0.0, 2001.0, 1.0)],
                         ids=["h=1e-6", "2002-points"])
def test_solve_frac_el_refuses_grids_beyond_its_point_cap(grid):
    # dense operators of about 56 N^2 bytes: N = 10^6 would need terabytes
    p = FracProblem(grid, FracOrders(0.8, 0.5), "v^2", A=0.0, B=1.0)
    with pytest.raises(ValueError, match=f"at most {solvers.MAX_DENSE_POINTS} grid points"):
        solve_frac_el(p)


def test_grid_and_order_validation():
    with pytest.raises(ValueError):
        FracGrid(0.0, 1.0, 0.3)  # not an integer number of steps
    with pytest.raises(ValueError):
        FracGrid(0.0, 1.0, 1.0)  # single step: T^{kappa kappa} empty
    with pytest.raises(ValueError):
        FracGrid(0.0, 1.0, -0.25)
    with pytest.raises(ValueError, match="exceed 10000000 grid points"):
        FracGrid(0.0, 1.0, 1e-9)  # refused before any point is allocated
    with pytest.raises(InvalidAlpha):
        FracOrders(0.0, 0.5)
    with pytest.raises(InvalidAlpha):
        FracOrders(0.5, 1.2)


def test_frac_grid_builds_its_scale_once():
    grid = FracGrid(0.0, 1.0, 0.25)
    assert grid.scale() is grid.scale()
    assert grid.points() is grid.scale().points


def test_frac_grid_allocates_no_points_before_its_scale_is_asked_for():
    # its scale would take 40 MB of points and peak near 200 MB while built
    tracemalloc.start()
    try:
        grid = FracGrid(0.0, 5_000_000.0, 1.0)
        assert grid.n_steps == 5_000_000
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def _quartic_801_peak(A, B):
    """The tracemalloc peak, in bytes, of a one-start quartic solve at 801
    points, whose one candidate is checked."""
    p = FracProblem(FracGrid(0.0, 1.0, 1.0 / 800), FracOrders(0.75, 0.6), QUARTIC, A=A, B=B)
    tracemalloc.start()
    try:
        cands = solve_frac_el(p, SolverConfig(starts=1, seed=0, box=(0.0, 1.0)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cands) == 1 and cands[0].residual_norm <= 1e-8
    return peak


def test_fixed_end_quartic_at_801_points_peaks_under_28_mb():
    # the stack A of the maps y -> (u, v, w) takes 15.4 MB and each n x n
    # matrix 5.1 MB; a stacked row matrix, a fresh Jacobian per Newton step
    # or a temporary per product of the constant part would push the peak
    # past 28 MB (30.8 MB with all three)
    assert _quartic_801_peak(0.0, 1.0) < 28_000_000


def test_free_left_quartic_at_801_points_peaks_under_28_mb():
    # the rows follow the unknowns, so the Newton maps read A's unknown
    # columns as a view; reordering them to put the left end's row after the
    # interior copied all of A (41.0 MB)
    assert _quartic_801_peak(None, 1.0) < 28_000_000


def _uniform_or_none(a, b, h):
    try:
        return tsc.uniform(a, b, h)
    except ValueError:
        return None


# Steps of at least 1e-3 on ends within 1e3 stay far above the rounding of the
# points; a step given in quarter ulps of a sits at that rounding level, where
# both refuse a step within 4 eps of the larger end (FracGrid(1e16, 1e16 + 2,
# 0.5) used to pass and then fail uniform's point check).
@given(st.one_of(st.floats(-1e3, 1e3), st.floats(-1e300, 1e300)),
       st.one_of(st.floats(1e-3, 1e3), st.sampled_from([0.0, -0.5, math.nan, math.inf])),
       st.integers(-2, 40), st.one_of(st.just(0.0), st.floats(-1e-8, 1e-8)),
       st.one_of(st.floats(-1e3, 1e3), st.sampled_from([math.inf, math.nan])), st.booleans(),
       st.one_of(st.none(), st.integers(1, 256)))
@example(a=0.0, h=1.0, n=2, stretch=1e-10, other_b=0.0, on_lattice=True, quarter_ulps=None)
@example(a=1e16, h=0.5, n=4, stretch=0.0, other_b=0.0, on_lattice=True, quarter_ulps=None)
def test_frac_grid_accepts_exactly_the_uniform_grids_of_at_least_3_points(
        a, h, n, stretch, other_b, on_lattice, quarter_ulps):
    if quarter_ulps is not None:
        h = quarter_ulps / 4.0 * math.ulp(a)
    b = a + n * h * (1.0 + stretch) if on_lattice else other_b
    scale = _uniform_or_none(a, b, h)
    try:
        grid = FracGrid(a, b, h)
    except ValueError:
        assert scale is None or len(scale) < 3
    else:
        assert scale is not None and len(scale) >= 3
        assert grid.n_steps == len(scale) - 1
        assert grid.scale().points.tobytes() == scale.points.tobytes()
        assert grid.scale().step == scale.step


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_sbp_property_random(seed):
    rng = np.random.default_rng(seed)
    h = float(rng.choice([1.0, 0.5, 0.1]))
    n = int(rng.integers(3, 8))
    g = uniform(0.0, n * h, h)
    f = GridFunction(g.drop_last(1), rng.uniform(-3, 3, n))
    w = GridFunction(g, rng.uniform(-3, 3, n + 1))
    alpha = float(rng.uniform(0.05, 1.0))
    scale = max(1.0, float(np.max(np.abs(f.values))), float(np.max(np.abs(w.values))))
    assert frac_sbp_residual(f, w, alpha) <= 1e-10 * scale

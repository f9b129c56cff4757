"""Discrete extremals against the continuous ones, on refining grids.

The observed order between two grids is log(e_coarse / e_fine) /
log(N_fine / N_coarse), e the sup error against the continuous extremal
(for ex2 the h-weighted L2 distance that ``repro ex2`` prints; for the
higher-order problem, which has no closed form here, the change of y(0.5)
from the grid before).
Each grid sequence stays where discretization error dominates: the
classical orders are 1.995, 2.000 and 2.000, so rounding has not set in by
N = 512, where the error is 1.7e-8.
"""

import math

import numpy as np
import pytest

from tsvar import cli
from tsvar import timescale as tsc
from tsvar.fracvar import FracGrid, FracOrders, FracProblem, solve_frac_el
from tsvar.solvers import SolverConfig
from tsvar.varcalc import (
    HigherOrderProblem,
    QuadraticLagrangian,
    VariationalProblem,
    direct_solve_entropy,
    direct_solve_exp,
    direct_solve_power,
    entropy_functional,
    exp_functional,
    power_functional,
    solve_el,
)


def _sup_error(candidates, exact):
    assert len(candidates) == 1
    y = candidates[0].y
    return float(np.max(np.abs(y.values - exact(y.scale.points))))


def _observed_orders(steps, errors):
    return [math.log(errors[i] / errors[i + 1]) / math.log(steps[i + 1] / steps[i])
            for i in range(len(steps) - 1)]


def test_classical_extremal_converges_at_order_two():
    # 0.5 v^2 + 0.5 u^2 with y(0) = 0, y(1) = 1: y'' = y, so y = sinh t / sinh 1;
    # the errors are 6.9e-5, 4.3e-6, 2.7e-7 and 1.7e-8
    steps = [8, 32, 128, 512]
    errors = []
    for N in steps:
        p = VariationalProblem(tsc.uniform(0.0, 1.0, 1.0 / N), "0.5*v^2 + 0.5*u^2", 0.0, 1.0)
        errors.append(_sup_error(solve_el(p, SolverConfig(starts=1)),
                                 lambda t: np.sinh(t) / math.sinh(1.0)))
    orders = _observed_orders(steps, errors)
    assert orders == pytest.approx([2.0] * len(orders), abs=0.05)


@pytest.mark.parametrize("h", [0.5, 0.25, 0.125, 0.0625])
def test_order_one_fractional_extremal_is_exact(h):
    # repro ex1: alpha = beta = 1, 0.5 v^2 - u with y(0) = y(1) = 0; y'' = -1
    # has the quadratic t (1 - t) / 2, which the differences take exactly
    p = FracProblem(FracGrid(0.0, 1.0, h), FracOrders(1.0, 1.0), "0.5*v^2 - u", A=0.0, B=0.0)
    error = _sup_error(solve_frac_el(p, SolverConfig(starts=6)), lambda t: 0.5 * t * (1.0 - t))
    assert error <= 1e-12


def test_fractional_ex2_extremal_converges_at_order_one_half():
    # repro ex2: alpha = beta = 3/4, 0.5 v^2 with y(0) = 0, y(1) = 1, against the
    # continuous extremal cli._ex2_reference in the h-weighted L2 distance that
    # repro ex2 prints; from h = 1/8 the orders are 0.38, 0.44, 0.47, 0.48, 0.49
    # and 0.49, so the last three halvings sit near the limit 1/2
    steps = [64, 128, 256, 512]
    errors = []
    for N in steps:
        h = 1.0 / N
        p = FracProblem(FracGrid(0.0, 1.0, h), FracOrders(0.75, 0.75), "0.5*v^2", A=0.0, B=1.0)
        (cand,) = solve_frac_el(p, SolverConfig(starts=1))
        pts = cand.y.scale.points
        dev = [cand.y.values[j] - cli._ex2_reference(pts[j]) for j in range(1, N)]
        errors.append(math.sqrt(h * sum(d * d for d in dev)))
    orders = _observed_orders(steps, errors)
    assert all(0.45 <= order <= 0.55 for order in orders), orders


def test_higher_order_extremal_converges_at_order_one():
    # order 2, L = u_0^2 + u_2^2, y(0) = 0, y^Delta(0) = 1, y(rho(1)) = 1,
    # y^Delta(rho(1)) = 0: y(0.5) moves by 3.3e-4, 1.6e-4 and 7.9e-5 per doubling.
    # Past 1601 points the system's rounding (4.9e-6 at 1601 points against a
    # 60-digit reference) nears these moves, so the sequence stops there.
    L = QuadraticLagrangian(np.diag([1.0, 0.0, 1.0]), np.zeros(3))
    points = [201, 401, 801, 1601]
    mids = []
    for n in points:
        p = HigherOrderProblem(tsc.uniform(0.0, 1.0, 1.0 / (n - 1)), 2, L, (0.0, 1.0), (1.0, 0.0))
        (cand,) = solve_el(p)
        mids.append(cand.y.values[(n - 1) // 2])
    moves = np.abs(np.diff(mids))
    orders = _observed_orders(points[1:], moves)
    assert orders == pytest.approx([1.0] * len(orders), abs=0.1)


GRID = tsc.explicit(0.0, 0.15, 0.2, 0.45, 0.5, 0.8, 1.1, 1.15, 1.5)
UNIFORM = tsc.uniform(0.5, 2.5, 0.25)


@pytest.mark.parametrize("alpha", [2.0, 0.5, -1.0])
def test_direct_power_method_matches_its_closed_form(alpha):
    # phi(s) = 1 + s: G(x) = x + x^2 / 2, so y = G^{-1}(C (t - a)) = sqrt(1 + 2 C (t - a)) - 1
    # with C = G(B) / (b - a), on any grid, and F = (b - a) C^alpha
    phi, B = (lambda s: 1.0 + s), 2.0
    a, b = GRID.points[0], GRID.points[-1]
    C = (B + 0.5 * B * B) / (b - a)
    result = direct_solve_power(GRID, phi, alpha, B)
    exact = np.sqrt(1.0 + 2.0 * C * (GRID.points - a)) - 1.0
    assert np.max(np.abs(result.y.values - exact)) <= 1e-12
    assert result.F_value == pytest.approx((b - a) * C ** alpha, rel=1e-12)
    assert power_functional(GRID, phi, alpha, result.y) == pytest.approx(result.F_value, rel=1e-12)
    assert result.kind == ("max" if 0.0 < alpha < 1.0 else "min")


def test_direct_exp_and_entropy_methods_match_their_closed_forms():
    # on a uniform grid with step h the sum of mu * t over [a, t) is
    # (t - a)(t + a - h) / 2; phi = e^t (exp) and phi = t (entropy) make the
    # optimal y^Delta + ln phi, or y^Delta + phi, the constant C
    t, h, B = UNIFORM.points, 0.25, 1.5
    a, b = t[0], t[-1]
    running = (t - a) * (t + a - h) / 2.0
    total = (b - a) * (b + a - h) / 2.0

    C = (total + B) / (b - a)
    result = direct_solve_exp(UNIFORM, np.exp, B)
    assert np.max(np.abs(result.y.values - (C * (t - a) - running))) <= 1e-12
    assert result.F_value == pytest.approx((b - a) * math.exp(C), rel=1e-12)
    assert exp_functional(UNIFORM, np.exp, result.y) == pytest.approx(result.F_value, rel=1e-12)

    B = 4.0  # C must exceed phi on T^kappa
    C = (B + total) / (b - a)
    result = direct_solve_entropy(UNIFORM, lambda s: s, B)
    assert np.max(np.abs(result.y.values - (C * (t - a) - running))) <= 1e-12
    assert result.F_value == pytest.approx((b - a) * C * math.log(C), rel=1e-12)
    assert entropy_functional(UNIFORM, lambda s: s, result.y) == pytest.approx(
        result.F_value, rel=1e-12)

"""Discrete extremals against the continuous ones, on refining grids.

The observed order between two grids is log(e_coarse / e_fine) /
log(N_fine / N_coarse), e the sup error against the continuous extremal.
Each grid sequence stays where discretization error dominates: the
classical orders are 1.995, 2.000 and 2.000, so rounding has not set in by
N = 512, where the error is 1.7e-8.
"""

import math

import numpy as np
import pytest

from tsvar import timescale as tsc
from tsvar.fracvar import FracGrid, FracOrders, FracProblem, solve_frac_el
from tsvar.solvers import SolverConfig
from tsvar.varcalc import VariationalProblem, solve_el


def _sup_error(candidates, exact):
    assert len(candidates) == 1
    y = candidates[0].y
    return float(np.max(np.abs(y.values - exact(y.scale.points))))


def test_classical_extremal_converges_at_order_two():
    # 0.5 v^2 + 0.5 u^2 with y(0) = 0, y(1) = 1: y'' = y, so y = sinh t / sinh 1;
    # the errors are 6.9e-5, 4.3e-6, 2.7e-7 and 1.7e-8
    steps = [8, 32, 128, 512]
    errors = []
    for N in steps:
        p = VariationalProblem(tsc.uniform(0.0, 1.0, 1.0 / N), "0.5*v^2 + 0.5*u^2", 0.0, 1.0)
        errors.append(_sup_error(solve_el(p, SolverConfig(starts=1)),
                                 lambda t: np.sinh(t) / math.sinh(1.0)))
    orders = [math.log(errors[i] / errors[i + 1]) / math.log(steps[i + 1] / steps[i])
              for i in range(len(steps) - 1)]
    assert orders == pytest.approx([2.0] * len(orders), abs=0.05)


@pytest.mark.parametrize("h", [0.5, 0.25, 0.125, 0.0625])
def test_order_one_fractional_extremal_is_exact(h):
    # repro ex1: alpha = beta = 1, 0.5 v^2 - u with y(0) = y(1) = 0; y'' = -1
    # has the quadratic t (1 - t) / 2, which the differences take exactly
    p = FracProblem(FracGrid(0.0, 1.0, h), FracOrders(1.0, 1.0), "0.5*v^2 - u", A=0.0, B=0.0)
    error = _sup_error(solve_frac_el(p, SolverConfig(starts=6)), lambda t: 0.5 * t * (1.0 - t))
    assert error <= 1e-12

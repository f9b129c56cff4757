"""Variational calculus on discrete time scales, with fractional h-operators."""

from . import dsl, errors, fracvar, ineqcheck, inequalities, special, timescale, varcalc
from .errors import TsvarError
from .fracvar import (
    FracGrid,
    FracOrders,
    FracProblem,
    el_residual_frac,
    frac_sbp_residual,
    left_frac_diff,
    left_frac_sum,
    legendre_frac_check,
    natural_bc_residuals,
    right_frac_diff,
    right_frac_sum,
    solve_frac_el,
)
from .inequalities import (
    BoundReport,
    NonlinearGrowthSpec,
    cauchy_schwarz_certify,
    comparison_bound,
    gronwall_2d_bound,
    gronwall_2d_power_bound,
    gronwall_bound,
    holder_certify,
    jensen_certify,
    minkowski_certify,
    nonlinear_gronwall_bound,
    solve_integrodynamic,
)
from .solvers import SolverConfig
from .special import generalized_polynomial_H, h_factorial, ts_exponential
from .timescale import (
    GridFunction,
    TimeScale,
    delta_derivative,
    delta_integral,
    diamond_integral,
    explicit,
    geometric,
    nabla_derivative,
    nabla_integral,
    uniform,
)
from .varcalc import (
    DirectResult,
    ExtremalCandidate,
    HigherOrderProblem,
    IsoperimetricProblem,
    QuadraticLagrangian,
    VariationalProblem,
    direct_solve_entropy,
    direct_solve_exp,
    direct_solve_power,
    el_residual,
    el_residual_higher,
    functional_value,
    legendre_check,
    solve_el,
    solve_isoperimetric,
    sturm_liouville_first,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

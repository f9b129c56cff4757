"""Exact Newton Jacobians against central differences, and the gradient identity.

Every Newton-solved stationarity system hands ``multi_start`` its residual
together with an exact Jacobian; the affine higher-order system hands
``np.linalg.solve`` its matrix.  The reference here is the central-difference
Jacobian with steps eps^(1/3) * max(1, |x_i|).  Its truncation and rounding
errors are both of order eps^(2/3) relative, about 4e-11, far inside the
comparisons' 1e-6 relative to the largest entry.  (A forward difference errs
by ulp(F)/sqrt(eps): at F = -544 that is already 7e-7 of the entries.)  The
systems are captured from the public solvers by replacing ``multi_start`` in
the solver's module, or ``np.linalg.solve``.
"""

import numpy as np
import pytest

from tsvar import fracvar, varcalc
from tsvar import timescale as tsc
from tsvar.fracvar import FracGrid, FracOrders, FracProblem, solve_frac_el
from tsvar.solvers import SolverConfig
from tsvar.varcalc import (
    HigherOrderProblem,
    IsoperimetricProblem,
    QuadraticLagrangian,
    VariationalProblem,
    solve_el,
    solve_isoperimetric,
)

CBRT_EPS = np.finfo(float).eps ** (1.0 / 3.0)
RTOL = 1e-6

ORDERS = [(0.75, 0.6), (0.7, 0.6), (1.0, 0.6), (1.0, 1.0), (0.3, 0.3)]
ENDS = {"fixed": (0.0, 1.0), "free_left": (None, 1.0), "free_right": (0.0, None),
        "both_free": (None, None)}
# every Hessian entry of (u, v, w) is non-zero somewhere
FRAC_L = "0.5*v^2 + 0.5*w^2 + 0.1*u^4 + u*v*w + exp(0.3*v)*w - u"
CLASSICAL_L = "0.5*v^2 + 0.25*u^4 + u*v + sin(t)*u*v^2"


def central_jacobian(fn, x):
    """Central-difference Jacobian of fn at x."""
    x = np.asarray(x, dtype=float)
    columns = []
    for i in range(x.size):
        step = CBRT_EPS * max(1.0, abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += step
        xm[i] -= step
        columns.append((np.asarray(fn(xp), dtype=float) - np.asarray(fn(xm), dtype=float))
                       / (2.0 * step))
    return np.stack(columns, axis=1)


def assert_close(exact, reference):
    exact = np.asarray(exact, dtype=float)
    scale = float(np.max(np.abs(reference)))
    assert exact.shape == reference.shape
    assert np.max(np.abs(exact - reference)) <= RTOL * scale


class _Captured(Exception):
    pass


def capture_system(monkeypatch, module, solve):
    """(residual, jacobian, n_unknowns) that ``solve()`` passes to multi_start."""
    seen = {}

    def spy(fn, jac, n_unknowns, config=None):
        seen.update(fn=fn, jac=jac, n=n_unknowns)
        raise _Captured

    monkeypatch.setattr(module, "multi_start", spy)
    with pytest.raises(_Captured):
        solve()
    return seen["fn"], seen["jac"], seen["n"]


def check_at_random_points(fn, jac, n, seed, count=3, box=(-1.0, 1.0)):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        x = rng.uniform(*box, n)
        assert_close(jac(x), central_jacobian(fn, x))


# ---------------------------------------------------------------------------
# fractional


@pytest.mark.parametrize("ends", sorted(ENDS))
@pytest.mark.parametrize("orders", ORDERS)
def test_fractional_jacobian_matches_forward_differences(monkeypatch, orders, ends):
    A, B = ENDS[ends]
    p = FracProblem(FracGrid(0.0, 1.0, 0.1), FracOrders(*orders), FRAC_L, A=A, B=B)
    fn, jac, n = capture_system(monkeypatch, fracvar, lambda: solve_frac_el(p))
    assert n == 9 + (A is None) + (B is None)
    check_at_random_points(fn, jac, n, seed=17)


# ---------------------------------------------------------------------------
# gradient identity: h * (interior residual) and the natural-BC rows are the
# partial derivatives of the summed functional


def _both_free_system(monkeypatch, orders):
    h = 0.1
    p = FracProblem(FracGrid(0.0, 1.0, h), FracOrders(*orders), FRAC_L, A=None, B=None)
    fn, _, n = capture_system(monkeypatch, fracvar, lambda: solve_frac_el(p))
    ts = p.grid.scale()
    y = np.random.default_rng(5).uniform(-1.0, 1.0, n)

    def F(vals):
        return [fracvar.functional_value(p, tsc.GridFunction(ts, vals))]

    # unknowns are the whole row y; rows follow them: left, interior, right
    return h, fn(y), central_jacobian(F, y)[0]


@pytest.mark.parametrize("orders", ORDERS)
def test_interior_and_right_rows_are_gradient_of_functional(monkeypatch, orders):
    h, res, grad = _both_free_system(monkeypatch, orders)
    assert_close(h * res[1:-1], grad[1:-1])
    assert_close(res[-1:], grad[-1:])


@pytest.mark.parametrize("orders", ORDERS)
def test_left_row_is_gradient_of_functional(monkeypatch, orders):
    _, res, grad = _both_free_system(monkeypatch, orders)
    assert_close(res[:1], grad[:1])


# ---------------------------------------------------------------------------
# classical, isoperimetric and higher order


def _explicit_grid(seed, n=12):
    steps = np.random.default_rng(seed).uniform(0.05, 0.3, n - 1)
    return tsc.explicit(*np.concatenate([[0.0], np.cumsum(steps)]))


@pytest.mark.parametrize("grid", [tsc.uniform(0.0, 1.0, 0.1), _explicit_grid(3)],
                         ids=["uniform", "explicit"])
def test_classical_jacobian_matches_forward_differences(monkeypatch, grid):
    p = VariationalProblem(grid, CLASSICAL_L, 0.0, 1.0)
    fn, jac, n = capture_system(monkeypatch, varcalc, lambda: solve_el(p))
    assert n == len(grid) - 2
    check_at_random_points(fn, jac, n, seed=23)


@pytest.mark.parametrize("grid", [tsc.uniform(0.0, 1.0, 0.1), _explicit_grid(4)],
                         ids=["uniform", "explicit"])
def test_isoperimetric_bordered_jacobian_matches_forward_differences(monkeypatch, grid):
    # the last column is d/d lambda, the last row the constraint's gradient
    p = IsoperimetricProblem(grid, CLASSICAL_L, "u^2 + 0.5*u*v + cos(v)", 0.0, 1.0, 2.0)
    fn, jac, n = capture_system(monkeypatch, varcalc, lambda: solve_isoperimetric(p))
    assert n == len(grid) - 1
    check_at_random_points(fn, jac, n, seed=29, box=(-2.0, 2.0))


def test_higher_order_jacobian_matches_forward_differences(monkeypatch):
    # the system is affine: solve_el hands LAPACK its matrix and the negated
    # rows at y = 0, captured here in place of the one linear solve
    rng = np.random.default_rng(31)
    M = rng.standard_normal((3, 3))
    L = QuadraticLagrangian(M @ M.T, rng.standard_normal(3))
    p = HigherOrderProblem(tsc.geometric(1.5, 0, 7), 2, L, (0.0, 1.0), (2.0, -1.0))
    seen = {}

    def spy(A, b):
        seen.update(A=A, b=b)
        raise _Captured

    monkeypatch.setattr(np.linalg, "solve", spy)
    with pytest.raises(_Captured):
        solve_el(p)
    n = len(p.scale)

    def rows(x):
        """The Euler-Lagrange rows, then y^{Delta^i} - ya_i at a and - yb_i at rho(b)."""
        y = tsc.GridFunction(p.scale, x)
        ends = []
        for i in range(2):
            d = tsc.higher_delta_derivative(y, i).values
            ends += [d[0] - p.ya[i], d[n - 2] - p.yb[i]]
        return np.concatenate([varcalc.el_residual_higher(p, y).values, ends])

    assert_close(-seen["b"], rows(np.zeros(n)))
    check_at_random_points(rows, lambda x: seen["A"], n, seed=37)


def central_hessian(fn, x):
    """Central-difference Hessian of the scalar fn at x, with steps
    eps^(1/4) * max(1, |x_i|): truncation and rounding both of order eps^(1/2)."""
    x = np.asarray(x, dtype=float)
    steps = np.finfo(float).eps ** 0.25 * np.maximum(1.0, np.abs(x))
    H = np.empty((x.size, x.size))
    for i in range(x.size):
        for j in range(x.size):
            total = 0.0
            for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                z = x.copy()
                z[i] += si * steps[i]
                z[j] += sj * steps[j]
                total += si * sj * fn(z)
            H[i, j] = total / (4.0 * steps[i] * steps[j])
    return H


def test_constraint_gradient_matches_forward_differences(monkeypatch):
    """The abnormality check's c and diag(mu) J_g at the root are the gradient
    and Hessian of the Newton residual's constraint row in the interior values."""
    seen = {}
    real_multi_start, real_reject = varcalc.multi_start, varcalc._reject_abnormal

    def spy_multi_start(fn, jac, n, config=None):
        seen["fn"] = fn
        return real_multi_start(fn, jac, n, config)

    def spy_reject(g, grad, hess, x):
        seen.update(grad=grad, hess=hess, x=x)
        return real_reject(g, grad, hess, x)

    monkeypatch.setattr(varcalc, "multi_start", spy_multi_start)
    monkeypatch.setattr(varcalc, "_reject_abnormal", spy_reject)
    for p in (IsoperimetricProblem(tsc.uniform(0.0, 6.0, 1.0), "v^2", "u^2", 0.0, 0.0, 1.0),
              # g's Hessian rows vary, so diag(mu) J_g changes with y
              IsoperimetricProblem(_explicit_grid(4), CLASSICAL_L, "u^2 + 0.5*u*v + cos(v)",
                                   0.0, 1.0, 2.0)):
        solve_isoperimetric(p, SolverConfig(starts=16, seed=0, box=(-2.0, 2.0)))
        x = seen["x"]

        def constraint_row(y):
            return float(seen["fn"](np.append(y, x[-1]))[-1])

        assert_close(seen["grad"], central_jacobian(seen["fn"], x)[-1, :-1])
        assert_close(seen["hess"], central_hessian(constraint_row, x[:-1]))

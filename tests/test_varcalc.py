"""Euler-Lagrange machinery, Legendre checks, direct methods, eigenvalue problem."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tsvar import dsl
from tsvar import timescale as tsc
from tsvar.errors import (
    DomainError,
    GridTooSmall,
    HypothesisHViolated,
    InvalidExponent,
    NonPositivePhi,
    PreconditionViolated,
    SingularJacobian,
)
from tsvar.solvers import SolverConfig
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
    with pytest.raises(DomainError):
        direct_solve_power(g, phi, 2.0, -1.0)


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

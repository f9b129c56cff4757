"""Gronwall-family bounds, diamond-alpha certifiers, and the IVP recursion.

Dominance tests drive the hypothesis inequality with an equality recursion:
any trajectory built that way satisfies the theorem's premise, so the bound
must sit above it pointwise.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from tsvar import inequalities as ineq
from tsvar.errors import (
    InvalidAlpha,
    InvalidExponent,
    NonFinite,
    NonRegressive,
    OutsideDomPsiInverse,
    ZeroWeightMass,
)
from tsvar.inequalities import NonlinearGrowthSpec
from tsvar.special import ts_exponential
from tsvar.timescale import GridFunction, TimeScale, uniform


def random_grid(rng, n=None):
    h = float(rng.choice([1.0, 0.5, 0.25]))
    n = n or int(rng.integers(5, 12))
    return uniform(0.0, n * h, h)


# ---------------------------------------------------------------------------
# gronwall_bound


def test_gronwall_constant_data_corollary():
    c, d, h = 2.0, 0.3, 0.5
    g = uniform(0.0, 4.0, h)
    bound = ineq.gronwall_bound(g, lambda t: c, lambda t: d, 0.0)
    for i in range(len(g)):
        expect = c + sum(c * d * (1.0 + d * h) ** (i - 1 - k) * h for k in range(i))
        assert bound.values[i] == pytest.approx(expect, rel=1e-13)


def test_gronwall_zero_b_returns_a():
    g = TimeScale([0.0, 1.0, 1.5, 3.0, 4.5])
    a = GridFunction.sample(g, lambda t: 1.0 + t ** 2)
    bound = ineq.gronwall_bound(g, a, lambda t: 0.0, 0.0)
    assert_allclose(bound.values, a.values, atol=1e-14)


def test_gronwall_dominates_equality_trajectory():
    g = TimeScale([0.0, 0.5, 0.75, 1.75, 2.0, 3.0])
    c, d = 1.5, 0.8
    mu = np.diff(g.points)
    u = np.empty(len(g))
    for i in range(len(g)):
        u[i] = c + sum(mu[j] * d * u[j] for j in range(i))
    bound = ineq.gronwall_bound(g, lambda t: c, lambda t: d, 0.0)
    assert np.all(u <= np.asarray(bound.values) + 1e-10)


def test_gronwall_random_slack_recursions():
    rng = np.random.default_rng(42)
    for _ in range(200):
        g = random_grid(rng)
        n = len(g)
        a = rng.uniform(0.1, 3.0, n)
        b = rng.uniform(0.0, 1.0, n)
        slack = rng.uniform(0.0, 1.0, n)
        mu = np.diff(g.points)
        u = np.empty(n)
        for i in range(n):
            u[i] = slack[i] * (a[i] + sum(mu[j] * b[j] * u[j] for j in range(i)))
        bound = ineq.gronwall_bound(g, GridFunction(g, a), GridFunction(g, b), 0.0)
        assert np.all(u <= np.asarray(bound.values) * (1 + 1e-12) + 1e-10)


def test_gronwall_below_classical_corollary_form():
    # nondecreasing a: the bound collapses below a(t) * e_b(t, t0)
    rng = np.random.default_rng(11)
    for _ in range(50):
        g = random_grid(rng)
        n = len(g)
        a = np.cumsum(rng.uniform(0.0, 1.0, n)) + 0.5
        b = rng.uniform(0.0, 1.5, n)
        bound = ineq.gronwall_bound(g, GridFunction(g, a), GridFunction(g, b), 0.0)
        pf = GridFunction(g, b)
        for i, t in enumerate(g.points):
            cap = a[i] * ts_exponential(g, pf, float(t), 0.0)
            assert bound.values[i] <= cap * (1 + 1e-12) + 1e-12


def test_gronwall_interior_start_and_nonregressive():
    g = uniform(0.0, 5.0, 1.0)
    bound = ineq.gronwall_bound(g, lambda t: 1.0, lambda t: 0.5, 2.0)
    assert_allclose(bound.scale.points, [2.0, 3.0, 4.0, 5.0])
    full = ineq.gronwall_bound(uniform(2.0, 5.0, 1.0), lambda t: 1.0,
                               lambda t: 0.5, 2.0)
    assert_allclose(bound.values, full.values, atol=1e-14)
    with pytest.raises(NonRegressive):
        ineq.gronwall_bound(g, lambda t: 1.0, lambda t: -2.0, 0.0)


# ---------------------------------------------------------------------------
# comparison_bound


def test_comparison_zero_f_is_exponential():
    g = TimeScale([0.0, 0.5, 1.5, 2.0, 3.5])
    p = GridFunction.sample(g, lambda t: 0.3 + 0.1 * t)
    bound = ineq.comparison_bound(g, 2.0, p, lambda t: 0.0, 0.0)
    expect = [2.0 * ts_exponential(g, p, float(t), 0.0) for t in g.points]
    assert_allclose(bound.values, expect, rtol=1e-13)


def test_comparison_zero_p_is_cumulative_sum():
    g = uniform(0.0, 2.0, 0.5)
    f = GridFunction.sample(g, lambda t: t ** 2)
    bound = ineq.comparison_bound(g, 1.0, lambda t: 0.0, f, 0.0)
    mu = np.diff(g.points)
    expect = 1.0 + np.concatenate([[0.0], np.cumsum(mu * np.asarray(f.values)[:-1])])
    assert_allclose(bound.values, expect, atol=1e-14)


def test_comparison_matches_forward_simulation():
    rng = np.random.default_rng(7)
    for _ in range(25):
        g = random_grid(rng)
        n = len(g)
        p = rng.uniform(-0.4, 0.8, n)
        f = rng.uniform(-1.0, 1.0, n)
        y0 = rng.uniform(-2.0, 2.0)
        mu = np.diff(g.points)
        y = np.empty(n)
        y[0] = y0
        for i in range(n - 1):
            y[i + 1] = y[i] + mu[i] * (p[i] * y[i] + f[i])
        bound = ineq.comparison_bound(g, y0, GridFunction(g, p),
                                      GridFunction(g, f), 0.0)
        assert_allclose(bound.values, y, atol=1e-12)


def test_comparison_nonregressive_raises():
    g = uniform(0.0, 3.0, 1.0)
    with pytest.raises(NonRegressive):
        ineq.comparison_bound(g, 1.0, lambda t: -1.0, lambda t: 0.0, 0.0)


# ---------------------------------------------------------------------------
# nonlinear Gronwall


IDENTITY_SPEC = NonlinearGrowthSpec(Phi=lambda u: u, W=lambda u: u, Psi_x0=1.0)


def test_nonlinear_zero_kernel_collapses_to_linear_bound():
    g = uniform(0.0, 6.0, 1.0)
    f = lambda t: 0.4
    got = ineq.nonlinear_gronwall_bound(g, None, lambda t: 2.0, f,
                                        lambda t, s: 0.0, IDENTITY_SPEC)
    linear = ineq.gronwall_bound(g, lambda t: 2.0, f, 0.0)
    assert_allclose(got.values, linear.values, rtol=1e-12)


def test_nonlinear_dominates_equality_trajectory():
    g = uniform(0.0, 9.0, 1.0)
    n = len(g)
    a = 2.0 + g.points / 10.0
    f = np.full(n, 0.3)
    k = lambda t, s: 0.1 * (1.0 + s / 5.0)
    mu = np.diff(g.points)
    u = np.empty(n)
    for i in range(n):
        acc = a[i]
        for j in range(i):
            inner = sum(mu[m] * k(g.points[j], g.points[m]) * u[m] for m in range(j))
            acc += mu[j] * f[j] * (u[j] + inner)
        u[i] = acc
    bound = ineq.nonlinear_gronwall_bound(g, None, GridFunction(g, a),
                                          GridFunction(g, f), k, IDENTITY_SPEC)
    assert np.all(u <= np.asarray(bound.values) * (1 + 1e-9))


def test_nonlinear_bound_monotone_in_f():
    g = uniform(0.0, 7.0, 1.0)
    k = lambda t, s: 0.05 * (1.0 + s)
    lo = ineq.nonlinear_gronwall_bound(g, None, lambda t: 1.0 + t / 10.0,
                                       lambda t: 0.2, k, IDENTITY_SPEC)
    hi = ineq.nonlinear_gronwall_bound(g, None, lambda t: 1.0 + t / 10.0,
                                       lambda t: 0.3, k, IDENTITY_SPEC)
    assert np.all(np.asarray(hi.values) >= np.asarray(lo.values) - 1e-12)


def test_nonlinear_outside_psi_domain_raises():
    # Phi(u) = u^2 makes Psi(x) = 1 - 1/x, bounded above by 1; a large kernel
    # pushes the inversion target past that ceiling.
    spec = NonlinearGrowthSpec(Phi=lambda u: u * u, W=lambda u: u, Psi_x0=1.0)
    g = uniform(0.0, 5.0, 1.0)
    with pytest.raises(OutsideDomPsiInverse):
        ineq.nonlinear_gronwall_bound(g, None, lambda t: 1.0, lambda t: 1.0,
                                      lambda t, s: 10.0, spec)


def _zero_zeta_bound(Phi):
    # the kernel vanishes at t = rho(b) = 5 only, so zeta = 0 while the inner
    # integrals are not: the inversions start from Psi(0)
    g = uniform(0.0, 6.0, 1.0)
    spec = NonlinearGrowthSpec(Phi=Phi, W=lambda x: x, Psi_x0=1.0)
    return ineq.nonlinear_gronwall_bound(g, None, lambda t: 1.0, lambda t: 0.2,
                                         lambda t, s: 0.0 if t == 5.0 else 0.1, spec)


@pytest.mark.parametrize("Phi", [lambda x: x, math.sqrt], ids=["identity", "sqrt"])
def test_nonlinear_zero_zeta_with_phi_vanishing_at_zero_raises(Phi):
    # 1/Phi(W(s)) is not finite at s = 0, where Psi(0) is taken
    with pytest.raises(OutsideDomPsiInverse):
        _zero_zeta_bound(Phi)


def test_nonlinear_zero_zeta_with_phi_positive_at_zero_is_closed_form():
    # Phi(x) = 1 + x, W = id: Psi(x) = ln((1 + x) / 2), so Psi^-1(Psi(0) + I)
    # = e^I - 1 and the bound is p (1 + sum_{j<i} 0.2 (e^{I_j} - 1)),
    # with p = 1.2^i and I_j = sum_{m<j} k(t_j, t_m) Phi(p_m) Phi(0.2 m)
    got = _zero_zeta_bound(lambda x: 1.0 + x).values
    p = 1.2 ** np.arange(7)
    inner = [sum(0.1 * (1.0 + p[m]) * (1.0 + 0.2 * m) for m in range(j)) if j != 5 else 0.0
             for j in range(6)]
    want = p * (1.0 + np.concatenate([[0.0], np.cumsum(0.2 * np.expm1(inner))]))
    assert_allclose(got, want, rtol=1e-12)


def test_growth_spec_validation():
    with pytest.raises(ValueError):
        NonlinearGrowthSpec(Phi=lambda u: u, W=lambda u: u, Psi_x0=0.0)
    with pytest.raises(ValueError):
        NonlinearGrowthSpec(Phi=lambda u: -u, W=lambda u: u, Psi_x0=1.0)
    with pytest.raises(ValueError):
        NonlinearGrowthSpec(Phi=lambda u: u, W=lambda u: 1.0 / u, Psi_x0=1.0)


# ---------------------------------------------------------------------------
# certifiers


def test_jensen_constant_equality():
    g = uniform(0.0, 5.0, 0.5)
    for alpha in (0.0, 0.5, 1.0):
        rep = ineq.jensen_certify(g, lambda x: x ** 4, lambda t: 3.0,
                                  weights=lambda t: 1.0 + t, alpha=alpha)
        assert rep.holds
        assert abs(rep.lhs - rep.rhs) <= 1e-12


def test_jensen_am_gm_on_integers():
    g = uniform(0.0, 6.0, 1.0)
    rng = np.random.default_rng(13)
    gv = rng.uniform(0.5, 4.0, len(g))
    rep = ineq.jensen_certify(g, lambda x: -math.log(x), GridFunction(g, gv))
    # alpha=1 integral over [a,b) sees the first n-1 samples with weight 1
    am = float(np.mean(gv[:-1]))
    gm = float(np.exp(np.mean(np.log(gv[:-1]))))
    assert rep.lhs == pytest.approx(-math.log(am), rel=1e-12)
    assert rep.rhs == pytest.approx(-math.log(gm), rel=1e-12)
    assert rep.holds
    assert am >= gm


def test_jensen_weighted_diamond_oracle():
    g = TimeScale([0.0, 1.0, 1.5, 3.0])
    gv = np.array([1.0, 2.0, 0.5, 3.0])
    hv = np.array([1.0, 0.5, 2.0, 1.0])
    alpha = 0.25
    mu = np.diff(g.points)
    dia = lambda vals: alpha * float(mu @ vals[:-1]) + (1 - alpha) * float(mu @ vals[1:])
    F = lambda x: x * x
    rep = ineq.jensen_certify(g, F, GridFunction(g, gv), GridFunction(g, hv), alpha)
    mean = dia(hv * gv) / dia(hv)
    assert rep.lhs == pytest.approx(F(mean), rel=1e-13)
    assert rep.rhs == pytest.approx(dia(hv * gv ** 2) / dia(hv), rel=1e-13)


def test_jensen_random_trials():
    rng = np.random.default_rng(100)
    for _ in range(300):
        g = random_grid(rng)
        gv = GridFunction(g, rng.uniform(-3.0, 3.0, len(g)))
        weights = (None if rng.random() < 0.5
                   else GridFunction(g, rng.uniform(0.1, 2.0, len(g))))
        alpha = float(rng.choice([0.0, 0.5, 1.0]))
        rep = ineq.jensen_certify(g, lambda x: x * x, gv, weights, alpha)
        assert rep.holds


def test_jensen_errors():
    g = uniform(0.0, 3.0, 1.0)
    with pytest.raises(ZeroWeightMass):
        ineq.jensen_certify(g, lambda x: x * x, lambda t: 1.0,
                            weights=lambda t: 0.0)
    with pytest.raises(InvalidAlpha):
        ineq.jensen_certify(g, lambda x: x * x, lambda t: 1.0, alpha=1.5)


def test_holder_power_mean_reduction():
    g = uniform(0.0, 4.0, 0.5)
    rng = np.random.default_rng(2)
    fv = rng.uniform(0.0, 2.0, len(g))
    rep = ineq.holder_certify(g, GridFunction(g, fv), lambda t: 1.0, p=3.0)
    mu = np.diff(g.points)
    total = float(np.sum(mu))
    assert rep.lhs == pytest.approx(float(mu @ fv[:-1]), rel=1e-13)
    assert rep.rhs == pytest.approx(
        float(mu @ fv[:-1] ** 3) ** (1 / 3) * total ** (2 / 3), rel=1e-13)
    assert rep.holds


def test_holder_p2_equals_cauchy_schwarz():
    g = uniform(0.0, 3.0, 0.25)
    rng = np.random.default_rng(6)
    f = GridFunction(g, rng.uniform(-1, 1, len(g)))
    w = GridFunction(g, rng.uniform(-1, 1, len(g)))
    a = ineq.holder_certify(g, f, w, None, 2.0, 0.5)
    b = ineq.cauchy_schwarz_certify(g, f, w, 0.5)
    assert a.lhs == b.lhs and a.rhs == b.rhs and a.holds == b.holds


def test_holder_minkowski_random_trials():
    rng = np.random.default_rng(200)
    for _ in range(300):
        g = random_grid(rng)
        n = len(g)
        f = GridFunction(g, rng.uniform(0.0, 3.0, n))
        w = GridFunction(g, rng.uniform(0.0, 3.0, n))
        weights = GridFunction(g, rng.uniform(0.1, 1.0, n))
        alpha = float(rng.choice([0.0, 0.5, 1.0]))
        p = float(rng.choice([1.5, 2.0, 3.0]))
        assert ineq.holder_certify(g, f, w, weights, p, alpha).holds
        assert ineq.minkowski_certify(g, f, w, p, alpha).holds


def test_minkowski_equality_for_proportional_inputs():
    g = uniform(0.0, 2.0, 0.25)
    f = GridFunction.sample(g, lambda t: 1.0 + t)
    rep = ineq.minkowski_certify(g, f, 2.5 * f, p=2.0)
    assert rep.holds
    assert abs(rep.margin) <= 1e-10 * rep.rhs


def test_certifier_invalid_exponent():
    g = uniform(0.0, 2.0, 1.0)
    with pytest.raises(InvalidExponent):
        ineq.holder_certify(g, lambda t: 1.0, lambda t: 1.0, p=1.0)
    with pytest.raises(InvalidExponent):
        ineq.minkowski_certify(g, lambda t: 1.0, lambda t: 1.0, p=0.5)


@given(st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=12),
       st.sampled_from([0.0, 0.5, 1.0]))
@settings(max_examples=60, deadline=None)
def test_jensen_exp_property(values, alpha):
    g = uniform(0.0, float(len(values) - 1), 1.0)
    rep = ineq.jensen_certify(g, math.exp, GridFunction(g, np.array(values)),
                              alpha=alpha)
    assert rep.holds


# ---------------------------------------------------------------------------
# two-variable bounds

REMARK_F = {(0, 0): 0.25, (1, 0): 0.2, (2, 0): 1.0,
            (0, 1): 0.5, (1, 1): 0.0, (2, 1): 5.0}


def remark_f(t1, t2):
    return REMARK_F.get((int(round(t1)), int(round(t2))), 0.0)


def test_gronwall_2d_remark_rationals():
    ts1 = uniform(0.0, 3.0, 1.0)
    ts2 = uniform(0.0, 2.0, 1.0)
    a = lambda t1, t2: 1.0 + 0.5 * t1 + t2
    b1, b2 = ineq.gronwall_2d_bound(ts1, ts2, a, remark_f)
    assert b1[2, 1] == pytest.approx(a(2, 1) * 3 / 2, abs=1e-12)
    assert b2[2, 1] == pytest.approx(a(2, 1) * 29 / 20, abs=1e-12)
    assert b1[3, 2] == pytest.approx(a(3, 2) * 147 / 10, abs=1e-12)
    assert b2[3, 2] == pytest.approx(a(3, 2) * 637 / 40, abs=1e-12)


def test_gronwall_2d_zero_f_returns_a():
    ts1 = uniform(0.0, 2.0, 0.5)
    ts2 = uniform(0.0, 1.0, 0.5)
    a = lambda t1, t2: 1.0 + t1 * t2
    b1, b2 = ineq.gronwall_2d_bound(ts1, ts2, a, lambda t1, t2: 0.0)
    expect = np.array([[a(x, y) for y in ts2.points] for x in ts1.points])
    assert_allclose(b1, expect, atol=1e-14)
    assert_allclose(b2, expect, atol=1e-14)


def test_gronwall_2d_dominates_equality_recursion():
    rng = np.random.default_rng(17)
    for _ in range(20):
        ts1 = uniform(0.0, float(rng.integers(2, 5)), 1.0)
        ts2 = uniform(0.0, float(rng.integers(2, 5)), 1.0)
        n1, n2 = len(ts1), len(ts2)
        a = rng.uniform(0.5, 1.5)
        f = rng.uniform(0.0, 0.4, (n1, n2))
        u = np.empty((n1, n2))
        for i1 in range(n1):
            for i2 in range(n2):
                u[i1, i2] = a + sum(f[j1, j2] * u[j1, j2]
                                    for j1 in range(i1) for j2 in range(i2))
        b1, b2 = ineq.gronwall_2d_bound(ts1, ts2, lambda t1, t2: a, f)
        assert np.all(u <= b1 * (1 + 1e-12) + 1e-12)
        assert np.all(u <= b2 * (1 + 1e-12) + 1e-12)


def test_gronwall_2d_power_reduces_and_validates():
    ts1 = uniform(0.0, 3.0, 1.0)
    ts2 = uniform(0.0, 2.0, 1.0)
    a = lambda t1, t2: 2.0 + t1 + t2
    b1, _ = ineq.gronwall_2d_bound(ts1, ts2, a, remark_f)
    powered = ineq.gronwall_2d_power_bound(ts1, ts2, a, remark_f, 1.0, 1.0)
    assert_allclose(powered, b1, rtol=1e-12)
    flat = ineq.gronwall_2d_power_bound(ts1, ts2, lambda t1, t2: 9.0,
                                        lambda t1, t2: 0.0, 2.0, 1.0)
    assert_allclose(flat, 3.0, atol=1e-14)
    with pytest.raises(InvalidExponent):
        ineq.gronwall_2d_power_bound(ts1, ts2, a, remark_f, 1.0, 2.0)
    with pytest.raises(ValueError):
        ineq.gronwall_2d_power_bound(ts1, ts2, lambda t1, t2: 0.0, remark_f,
                                     2.0, 1.0)


def test_gronwall_2d_power_dominates_recursion():
    ts1 = uniform(0.0, 4.0, 1.0)
    ts2 = uniform(0.0, 3.0, 1.0)
    n1, n2 = len(ts1), len(ts2)
    rng = np.random.default_rng(23)
    f = rng.uniform(0.0, 0.3, (n1, n2))
    a, p, q = 2.0, 2.0, 1.0
    u = np.empty((n1, n2))
    for i1 in range(n1):
        for i2 in range(n2):
            s = a + sum(f[j1, j2] * u[j1, j2] ** q
                        for j1 in range(i1) for j2 in range(i2))
            u[i1, i2] = s ** (1.0 / p)
    bound = ineq.gronwall_2d_power_bound(ts1, ts2, lambda t1, t2: a, f, p, q)
    assert np.all(u <= bound * (1 + 1e-12) + 1e-12)


def test_gronwall_2d_bound_reads_a_number_as_a_constant_surface():
    ts1 = uniform(0.0, 3.0, 1.0)
    ts2 = uniform(0.0, 2.0, 0.5)
    f = np.random.default_rng(5).uniform(0.0, 1.0, (len(ts1), len(ts2)))
    for got, want in zip(ineq.gronwall_2d_bound(ts1, ts2, 1.5, f),
                         ineq.gronwall_2d_bound(ts1, ts2, lambda t1, t2: 1.5, f)):
        assert np.array_equal(got, want)
    square = uniform(0.0, 2.0, 1.0)
    for got in ineq.gronwall_2d_bound(square, square, 1.0, 0.0):
        assert np.array_equal(got, np.ones((3, 3)))


# ---------------------------------------------------------------------------
# non-finite bound data


def test_gronwall_bound_rejects_non_finite_data():
    g = uniform(0.0, 2.0, 0.5)
    a = np.ones(len(g))
    a[1] = math.nan
    with pytest.raises(NonFinite):
        ineq.gronwall_bound(g, a, 0.5, 0.0)
    a[1] = 1.0
    a[-1] = math.inf  # the last point enters the bound but no step
    with pytest.raises(NonFinite):
        ineq.gronwall_bound(g, a, 0.5, 0.0)
    with pytest.raises(NonFinite):
        ineq.gronwall_bound(g, 1.0, lambda t: math.inf if t == 1.0 else 0.5, 0.0)


def test_comparison_bound_rejects_non_finite_data():
    g = uniform(0.0, 2.0, 0.5)
    p = np.full(len(g), 0.3)
    p[2] = math.inf
    with pytest.raises(NonFinite):
        ineq.comparison_bound(g, 1.0, p, 0.0, 0.0)
    with pytest.raises(NonFinite):
        ineq.comparison_bound(g, math.inf, 0.3, 0.0, 0.0)
    with pytest.raises(NonFinite):
        ineq.comparison_bound(g, 1.0, 0.3, lambda t: math.nan, 0.0)


def test_gronwall_2d_and_nonlinear_bounds_reject_non_finite_data():
    ts = uniform(0.0, 2.0, 1.0)
    f = np.zeros((3, 3))
    f[1, 2] = math.nan
    with pytest.raises(NonFinite):
        ineq.gronwall_2d_bound(ts, ts, 1.0, f)
    with pytest.raises(NonFinite):
        ineq.gronwall_2d_bound(ts, ts, math.inf, 0.0)
    spec = NonlinearGrowthSpec(Phi=lambda u: u, W=lambda u: u, Psi_x0=1.0)
    with pytest.raises(NonFinite):
        ineq.nonlinear_gronwall_bound(ts, None, math.nan, 0.1, lambda t, s: 0.1, spec)


# ---------------------------------------------------------------------------
# integrodynamic recursion


def test_integrodynamic_linear_matches_exponential():
    g = TimeScale([0.0, 0.5, 1.25, 2.0, 2.75])
    p = GridFunction.sample(g, lambda t: 0.4 + 0.2 * t)
    x = ineq.solve_integrodynamic(g, lambda t, u, z: p(t) * u,
                                  lambda t, s, u: 0.0, A=3.0)
    expect = [3.0 * ts_exponential(g, p, float(t), 0.0) for t in g.points]
    assert_allclose(x.values, expect, rtol=1e-13)


def test_integrodynamic_zero_field_is_constant():
    g = uniform(0.0, 4.0, 0.5)
    x = ineq.solve_integrodynamic(g, lambda t, u, z: 0.0,
                                  lambda t, s, u: 1.0, A=-2.5)
    assert_allclose(x.values, -2.5, atol=0.0)


def test_integrodynamic_nonregressive_rate_reaches_zero():
    g = uniform(0.0, 5.0, 1.0)
    x = ineq.solve_integrodynamic(g, lambda t, u, z: -u,
                                  lambda t, s, u: 0.0, A=7.0)
    assert x.values[0] == 7.0
    assert_allclose(x.values[1:], 0.0, atol=0.0)


def test_integrodynamic_memory_doubling():
    # xDelta(t) = integral of x over [0, t) on Z doubles after the first step
    g = uniform(0.0, 8.0, 1.0)
    x = ineq.solve_integrodynamic(g, lambda t, u, z: z,
                                  lambda t, s, u: u, A=1.0)
    expect = [1.0] + [2.0 ** (i - 1) for i in range(1, len(g))]
    assert_allclose(x.values, expect, atol=0.0)


def test_integrodynamic_overflow_raises():
    g = uniform(0.0, 40.0, 1.0)
    with np.errstate(over="ignore"), pytest.raises(NonFinite):
        ineq.solve_integrodynamic(g, lambda t, u, z: u * u,
                                  lambda t, s, u: 0.0, A=1e200)


# ---------------------------------------------------------------------------
# regression: the claimed supremum is beaten by an explicit curve


def test_counterexample_value_exceeds_claimed_maximum():
    along_curve = 2.0 * math.log(2.0) - 1.0
    claimed = -math.log(math.log(2.0))
    assert along_curve == pytest.approx(0.386, abs=5e-4)
    assert claimed == pytest.approx(0.367, abs=5e-4)
    assert along_curve > claimed

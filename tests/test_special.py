"""Gamma, h-factorials, grid polynomials, and the grid exponential."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tsvar import timescale as tsc
from tsvar.errors import DomainError, NonFinite, NonRegressive, Pole
from tsvar.special import (
    gamma_fn,
    generalized_polynomial_H,
    h_factorial,
    is_positively_regressive,
    is_regressive,
    log_abs_gamma,
    ts_exponential,
)


def test_gamma_integers_and_half():
    for n in range(1, 12):
        assert gamma_fn(float(n)) == pytest.approx(math.factorial(n - 1), rel=1e-13)
    assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)
    assert gamma_fn(2.5) == pytest.approx(1.5 * 0.5 * math.sqrt(math.pi), rel=1e-13)


def test_gamma_reflection_negative_arguments():
    # Gamma(x) Gamma(1-x) = pi / sin(pi x)
    for x in (-0.5, -1.3, -2.7, -5.25):
        lhs = gamma_fn(x) * gamma_fn(1.0 - x)
        assert lhs == pytest.approx(math.pi / math.sin(math.pi * x), rel=1e-10)


def test_gamma_poles_raise():
    for x in (0.0, -1.0, -4.0):
        with pytest.raises(Pole):
            gamma_fn(x)


@given(st.floats(min_value=0.05, max_value=30.0))
@settings(max_examples=200, deadline=None)
def test_gamma_recurrence(x):
    assert gamma_fn(x + 1.0) == pytest.approx(x * gamma_fn(x), rel=1e-11)


def test_log_abs_gamma_tracks_sign():
    ln, sign = log_abs_gamma(-1.5)
    # Gamma(-1.5) = 4 sqrt(pi) / 3 > 0
    assert sign == 1.0
    assert math.exp(ln) == pytest.approx(4.0 * math.sqrt(math.pi) / 3.0, rel=1e-10)
    ln2, sign2 = log_abs_gamma(-0.5)
    assert sign2 == -1.0
    assert math.exp(ln2) == pytest.approx(2.0 * math.sqrt(math.pi), rel=1e-10)


def test_gamma_is_the_factorial_to_twenty_and_root_pi_at_a_half():
    for n in range(1, 21):
        assert gamma_fn(float(n)) == math.factorial(n - 1)
    assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-15)


@pytest.mark.parametrize("x", [-0.01, -0.99, -3.5, -10.1, -20.5, -100.25])
def test_gamma_reflection_on_negative_non_integers(x):
    # Gamma(x) Gamma(1 - x) = pi / sin(pi x)
    assert gamma_fn(x) * gamma_fn(1.0 - x) == pytest.approx(
        math.pi / math.sin(math.pi * x), rel=1e-12)


@pytest.mark.parametrize("x, sign", [
    (-0.01, -1), (-0.5, -1), (-0.99, -1),
    (-1.01, 1), (-1.5, 1), (-1.99, 1),
    (-2.01, -1), (-2.5, -1), (-2.99, -1),
])
def test_log_abs_gamma_sign_between_the_first_poles(x, sign):
    ln, got = log_abs_gamma(x)
    assert got == sign
    assert got * math.exp(ln) == pytest.approx(gamma_fn(x), rel=1e-13)


@pytest.mark.parametrize("x", [0.0, -1.0, -4.0, 1e-10, -1.0 + 5e-10, -3.0 - 5e-10])
def test_gamma_poles_raise_within_the_guard(x):
    with pytest.raises(Pole):
        gamma_fn(x)
    with pytest.raises(Pole):
        log_abs_gamma(x)


def test_gamma_is_finite_up_to_the_float_range():
    for x in np.arange(150.0, 171.75, 0.5):
        value = gamma_fn(float(x))
        assert math.isfinite(value)
        assert value == pytest.approx(math.exp(log_abs_gamma(float(x))[0]), rel=1e-12)
    with pytest.raises(OverflowError):
        gamma_fn(172.0)


def test_h_factorial_integer_cases_match_falling_product():
    # x^(k) with integer k is the plain falling product x(x-h)...(x-(k-1)h)
    h = 0.25
    for k in range(0, 5):
        for m in range(0, 8):
            x = m * h
            expect = 1.0
            for i in range(k):
                expect *= x - i * h
            assert h_factorial(x, float(k), h) == pytest.approx(expect, abs=1e-12), (k, m)


def test_h_factorial_pole_conventions():
    # denominator pole (x/h + 1 - y nonpositive integer) collapses to zero
    assert h_factorial(1.0, 3.0, 1.0) == 0.0  # 1^(3) = 1*0*(-1) -> 0 via the pole rule
    # numerator-only pole is an error
    with pytest.raises(DomainError):
        h_factorial(-2.0, 0.5, 1.0)


def test_h_factorial_fractional_value():
    # h=1: x^(y) = Gamma(x+1)/Gamma(x+1-y); check against gamma directly
    x, y = 3.0, 0.5
    assert h_factorial(x, y, 1.0) == pytest.approx(
        gamma_fn(4.0) / gamma_fn(3.5), rel=1e-12)
    # scaling: (c x)^(y) with step c*h = c^y * x^(y) at step h
    c = 0.1
    assert h_factorial(c * x, y, c * 1.0) == pytest.approx(
        c ** y * h_factorial(x, y, 1.0), rel=1e-12)


def test_h_factorial_large_argument_uses_logs():
    # x/h = 400 forces the log branch; compare with the recurrence route
    h = 0.5
    x = 200.0
    y = 1.5
    direct = h_factorial(x, y, h)
    # x^(y) = x * (x-h)^(y-1) ... step down via integer part
    step = h_factorial(x - h, y - 1.0, h) * x
    assert direct == pytest.approx(step, rel=1e-10)


@pytest.mark.parametrize("h", [1.0, 0.25, 0.0005])
def test_h_factorial_below_minus_thirty_against_exact_quotients(h):
    # x/h < -30 takes the reflected Stirling branch; with z = x/h the quotient
    # Gamma(z + 1) / Gamma(z + 1 - y) is z at y = 1 and 1 / prod_{i<=k} (z + i)
    # at y = -k.  A difference of two lgamma values of about 1e4 erred by 4e-12.
    for x in np.random.default_rng(25).uniform(-2000.0, -34.0, 200) * h:
        z = x / h
        assert h_factorial(x, 1.0, h) == pytest.approx(z * h, rel=1e-14)
        for k in (1, 2, 3):
            expect = h ** -k / math.prod(z + i for i in range(1, k + 1))
            assert h_factorial(x, -float(k), h) == pytest.approx(expect, rel=1e-14)


@pytest.mark.parametrize("h", [1.0, 0.25, 0.0005])
def test_h_factorial_past_thirty_with_one_gamma_argument_short_of_stirling(h):
    # |z| > 30 while Gamma(z + 1 - y) sits on the other side of the Stirling
    # thresholds: z > 30 with y >= z - 29, or z < -30 with y <= z + 30.  The
    # branch takes exp(log|Gamma(z + 1)| - log|Gamma(z + 1 - y)|), whose error
    # is the two logs' absolute rounding: measured at most 2 eps (|ln Gamma| sum),
    # 3.4e-14 for |z| < 40 and 1.7e-13 near |z| = 120.  Integer y gives exact
    # rational references: the falling product z (z - 1) ... (z - y + 1) for
    # y > 0 and 1 / prod_{j<k} (z + 1 + j) for y = -k.
    eps = np.finfo(float).eps
    rng = np.random.default_rng(26)
    for sign in (1.0, -1.0):
        for x in sign * rng.uniform(30.5, 120.0, 12) * h:
            z = x / h
            if z > 0:
                ys = range(math.ceil(z - 29), math.ceil(z - 29) + 8)
            else:
                ys = range(-max(math.ceil(-z - 30), 1), -max(math.ceil(-z - 30), 1) - 8, -1)
            for y in ys:
                terms = ([Fraction(z) - j for j in range(y)] if y > 0
                         else [1 / (Fraction(z) + 1 + j) for j in range(-y)])
                expect = float(Fraction(h) ** y * math.prod(terms))
                logs = abs(math.lgamma(z + 1.0)) + abs(math.lgamma(z + 1.0 - y))
                assert h_factorial(x, float(y), h) == pytest.approx(expect, rel=4 * eps * logs)



@pytest.mark.parametrize("x, y, h", [(400.0, 380.0, 1.0), (1000.0, 200.0, 1.0),
                                     (-400.5, 200.0, 1.0), (5.0, 2.5, 1e200)],
                         ids=["log-gamma difference", "stirling", "reflected", "direct"])
def test_h_factorial_beyond_the_float_range_is_non_finite(x, y, h):
    # each branch's quotient exceeds 1.8e308, where math.exp or ** overflows
    with pytest.raises(NonFinite, match="not finite"):
        h_factorial(x, y, h)


@pytest.mark.parametrize("x, y, h", [(0.0005, 200, 0.001), (5.0, -300, 1.0),
                                     (0.0005, 170, 0.001), (0.0005, -120, 0.001)],
                         ids=["gamma underflows", "gamma overflows",
                              "h^y underflows", "h^y overflows"])
def test_h_factorial_with_a_factor_beyond_the_float_range(x, y, h):
    # |x/h| <= 30, but Gamma(x/h + 1 - y) or h^y leaves the float range while the
    # quotient does not, or underflows to 0 (5! / 305!): the exact rational
    # falling product (or its reciprocal) of the float x/h is the reference
    z = Fraction(x / h)
    terms = ([z - j for j in range(y)] if y > 0 else [1 / (z + 1 + j) for j in range(-y)])
    expect = float(Fraction(h) ** y * math.prod(terms))
    logs = abs(math.lgamma(x / h + 1.0)) + abs(math.lgamma(x / h + 1.0 - y)) + abs(y * math.log(h))
    tol = 4 * np.finfo(float).eps * logs
    assert h_factorial(x, float(y), h) == pytest.approx(expect, rel=tol, abs=0.0)


def test_generalized_polynomial_first_orders():
    g = tsc.explicit(0.0, 1.0, 3.0, 4.0, 5.0)
    for t in g.points:
        assert generalized_polynomial_H(g, 0, float(t), 1.0) == 1.0
    # H_1(t, s) = t - s on every time scale
    for t in g.points:
        for s in g.points:
            assert generalized_polynomial_H(g, 1, float(t), float(s)) == pytest.approx(
                t - s, abs=1e-13)


def test_generalized_polynomial_uniform_matches_h_factorial():
    # on hZ: H_k(t, s) = (t-s)^(k) / k!  (factorial powers with step h)
    h = 0.5
    g = tsc.uniform(0.0, 4.0, h)
    for k in range(0, 5):
        for t in (2.0, 3.5, 4.0):
            for s in (0.0, 1.0):
                expect = h_factorial(t - s, float(k), h) / math.factorial(k)
                got = generalized_polynomial_H(g, k, t, s)
                assert got == pytest.approx(expect, abs=1e-12), (k, t, s)


def test_generalized_polynomial_delta_recursion():
    # Delta_t H_{k+1}(t, s) = H_k(t, s)
    g = tsc.geometric(2.0, 0, 6)
    s = float(g.points[1])
    for k in range(0, 4):
        hk1 = tsc.GridFunction.sample(g, lambda t: generalized_polynomial_H(g, k + 1, t, s))
        d = tsc.delta_derivative(hk1)
        for i, t in enumerate(d.scale.points):
            assert d.values[i] == pytest.approx(
                generalized_polynomial_H(g, k, float(t), s), rel=1e-11, abs=1e-11)


def test_ts_exponential_constant_rate_uniform():
    # e_p(t, 0) = (1 + h p)^(t/h) on hZ for constant p
    h, p = 0.5, 0.3
    g = tsc.uniform(0.0, 3.0, h)
    pf = tsc.GridFunction.constant(g, p)
    for t in g.points:
        k = round(t / h)
        assert ts_exponential(g, pf, float(t), 0.0) == pytest.approx(
            (1.0 + h * p) ** k, rel=1e-12)


def test_ts_exponential_solves_dynamic_equation():
    # y = e_p(., t0) satisfies y^Delta = p y with y(t0) = 1, any grid, any p
    g = tsc.explicit(0.0, 0.4, 1.0, 1.1, 2.5, 3.0)
    rng = np.random.default_rng(7)
    pf = tsc.GridFunction(g, rng.uniform(-0.8, 1.5, len(g)))
    y = tsc.GridFunction.sample(g, lambda t: ts_exponential(g, pf, t, 0.0))
    dy = tsc.delta_derivative(y)
    for i, t in enumerate(dy.scale.points):
        assert dy.values[i] == pytest.approx(pf(float(t)) * y(float(t)), rel=1e-11)
    assert y(0.0) == 1.0


def test_ts_exponential_semigroup():
    g = tsc.uniform(0.0, 2.0, 0.25)
    pf = tsc.GridFunction.sample(g, lambda t: 0.2 + t)
    assert ts_exponential(g, pf, 2.0, 0.0) == pytest.approx(
        ts_exponential(g, pf, 1.0, 0.0) * ts_exponential(g, pf, 2.0, 1.0), rel=1e-12)


def test_regressivity_predicates():
    g = tsc.uniform(0.0, 1.0, 0.5)  # mu = 0.5
    assert is_regressive(g, tsc.GridFunction.constant(g, 1.0))
    assert not is_regressive(g, tsc.GridFunction.constant(g, -2.0))  # 1 + 0.5*(-2) = 0
    assert is_positively_regressive(g, tsc.GridFunction.constant(g, 1.0))
    assert not is_positively_regressive(g, tsc.GridFunction.constant(g, -3.0))
    with pytest.raises(NonRegressive):
        ts_exponential(g, tsc.GridFunction.constant(g, -2.0), 1.0, 0.0)

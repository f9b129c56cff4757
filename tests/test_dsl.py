"""Expression parsing and derivative evaluation."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tsvar import dsl
from tsvar.errors import DomainError, ExprSyntaxError


def ev(text, t=0.0, u=0.0, v=0.0, w=0.0):
    return dsl.eval_value(dsl.parse(text), t, u, v, w)


def test_numbers_and_precedence():
    assert ev("2 + 3 * 4") == 14.0
    assert ev("(2 + 3) * 4") == 20.0
    assert ev("2 - 3 - 4") == -5.0  # left associative
    assert ev("12 / 3 / 2") == 2.0
    assert ev("-2^2") == -4.0  # unary minus binds looser than power
    assert ev("2^3^2") == 512.0  # power is right associative
    assert ev("1.5e2") == 150.0
    assert ev(".5 + 1") == 1.5


def test_variables_and_functions():
    assert ev("t + 2*u - v*w", t=1, u=2, v=3, w=4) == 1 + 4 - 12
    assert ev("exp(0)") == 1.0
    assert ev("ln(exp(1))") == pytest.approx(1.0)
    assert ev("sin(0) + cos(0)") == 1.0
    assert ev("sqrt(u)", u=9) == 3.0
    assert ev("abs(v)", v=-2.5) == 2.5


def test_syntax_errors_carry_offsets():
    with pytest.raises(ExprSyntaxError) as ei:
        dsl.parse("1 + $")
    assert ei.value.offset == 4
    with pytest.raises(ExprSyntaxError):
        dsl.parse("2 *")
    with pytest.raises(ExprSyntaxError):
        dsl.parse("(1 + 2")
    with pytest.raises(ExprSyntaxError):
        dsl.parse("foo(1)")  # unknown function name
    with pytest.raises(ExprSyntaxError):
        dsl.parse("")


def test_malformed_number_is_a_syntax_error():
    with pytest.raises(ExprSyntaxError, match="malformed number") as ei:
        dsl.parse("u + 1.2.3")
    assert ei.value.offset == 4


@pytest.mark.parametrize("text, offset", [
    ("(" * 3000 + "u" + ")" * 3000, 100),
    ("-" * 3000 + "u", 100),
    ("^".join(["u"] * 3000), 200),
    ("sin(" * 3000 + "u" + ")" * 3000, 400),
], ids=["parentheses", "signs", "powers", "calls"])
def test_deep_nesting_is_a_syntax_error(text, offset):
    with pytest.raises(ExprSyntaxError, match="nested") as ei:
        dsl.parse(text)
    assert ei.value.offset == offset


def test_nesting_up_to_the_cap_parses_and_evaluates():
    assert ev("(" * 99 + "u" + ")" * 99, u=0.5) == 0.5
    assert ev("-" * 99 + "u", u=2.0) == -2.0


def test_domain_errors_at_evaluation():
    with pytest.raises(DomainError):
        ev("ln(u)", u=-1.0)
    with pytest.raises(DomainError):
        ev("sqrt(v)", v=-4.0)
    with pytest.raises(DomainError):
        ev("1 / u", u=0.0)


def test_round_trip_through_to_string():
    for text in ("v^3 + 1*w^2", "0.5*v^2 - u", "exp(t) * sin(u - v)",
                 "-(u + v) / (1 + t^2)", "2^3^2", "abs(w) - sqrt(u)", "(2^3)^2",
                 "(-u)^2", "-u^2", "u^-v^2", "u - (v - w)", "2 * -u / -(v * w)"):
        e = dsl.parse(text)
        assert dsl.parse(dsl.to_string(e)) == e  # ASTs compare structurally


def test_overflowing_number_is_a_syntax_error():
    with pytest.raises(ExprSyntaxError, match="out of range") as ei:
        dsl.parse("2*u + 1e400*u")
    assert ei.value.offset == 6


def test_flat_sum_evaluates_and_round_trips():
    # 3000 operators in a row parse into a left-deep tree 3000 levels deep
    e = dsl.parse("u" + "+u" * 3000)
    assert dsl.eval_value(e, 0.0, 0.25) == 3001 * 0.25
    assert list(dsl.eval_grad(e, 0.0, 0.25, 0.0, 0.0)) == [3001 * 0.25, 3001.0, 0.0, 0.0]
    text = dsl.to_string(e)
    assert text == " + ".join(["u"] * 3001)
    assert dsl.to_string(dsl.parse(text)) == text


def test_named_constants():
    assert ev("pi") == math.pi
    assert ev("e^2") == pytest.approx(math.e ** 2, rel=1e-15)
    assert ev("2*pi + e") == pytest.approx(2 * math.pi + math.e, rel=1e-15)


def test_ensure_expr_accepts_both():
    e = dsl.parse("u + v")
    assert dsl.ensure_expr(e) is e
    assert dsl.eval_value(dsl.ensure_expr("u + v"), 0, 1, 2, 0) == 3.0


FD_CASES = [
    "u*v + w^2",
    "0.5*v^2 - u",
    "v^3 + 1*w^2",
    "exp(u) * cos(v)",
    "ln(1 + u^2) + sqrt(4 + w)",
    "u / (1 + v^2)",
    "(t + u)^3 - t*w",
    "u^v",
]


@pytest.mark.parametrize("text", FD_CASES)
def test_eval_grad_matches_finite_differences(text):
    e = dsl.parse(text)
    t, u, v, w = 0.7, 0.9, 0.6, 0.8
    val, du, dv, dw = dsl.eval_grad(e, t, u, v, w)
    assert val == pytest.approx(dsl.eval_value(e, t, u, v, w), rel=1e-14)
    eps = 1e-6
    for name, got in (("u", du), ("v", dv), ("w", dw)):
        args_hi = {"u": u, "v": v, "w": w}
        args_lo = {"u": u, "v": v, "w": w}
        args_hi[name] += eps
        args_lo[name] -= eps
        fd = (dsl.eval_value(e, t, **args_hi) - dsl.eval_value(e, t, **args_lo)) / (2 * eps)
        assert got == pytest.approx(fd, rel=5e-6, abs=5e-7), (text, name)


@pytest.mark.parametrize("text", FD_CASES)
def test_jet2_hessian_matches_finite_differences(text):
    e = dsl.parse(text)
    t, u, v, w = 0.7, 0.9, 0.6, 0.8
    jet = dsl.eval_jet2(e, t, u, v, w)
    assert jet.value == pytest.approx(dsl.eval_value(e, t, u, v, w), rel=1e-13)
    g = dsl.eval_grad(e, t, u, v, w)
    assert jet.grad == pytest.approx(g[1:], rel=1e-12, abs=1e-12)
    H = jet.hess_matrix()
    # symmetry is structural; check entries against central differences of the gradient
    eps = 1e-5
    names = ["u", "v", "w"]
    for i in range(3):
        for j in range(3):
            args_hi = {"u": u, "v": v, "w": w}
            args_lo = {"u": u, "v": v, "w": w}
            args_hi[names[j]] += eps
            args_lo[names[j]] -= eps
            fd = (dsl.eval_grad(e, t, **args_hi)[1 + i]
                  - dsl.eval_grad(e, t, **args_lo)[1 + i]) / (2 * eps)
            assert H[i][j] == pytest.approx(fd, rel=2e-4, abs=1e-5), (text, i, j)


@given(st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2))
@settings(max_examples=200, deadline=None)
def test_polynomial_jet_identity(t, u, v, w):
    # d/dv of (v^3 + w^2) is 3 v^2; second derivative 6 v -- exact algebra
    e = dsl.parse("v^3 + 1*w^2")
    jet = dsl.eval_jet2(e, t, u, v, w)
    assert jet.value == pytest.approx(v ** 3 + w ** 2, rel=1e-12, abs=1e-12)
    assert jet.grad[1] == pytest.approx(3 * v * v, rel=1e-12, abs=1e-12)
    assert jet.grad[2] == pytest.approx(2 * w, rel=1e-12, abs=1e-12)
    hess = dict(zip(("uu", "uv", "uw", "vv", "vw", "ww"), jet.hess))
    assert hess["vv"] == pytest.approx(6 * v, rel=1e-12, abs=1e-12)
    assert hess["ww"] == pytest.approx(2.0)
    assert hess["vw"] == 0.0


def test_integer_power_of_negative_base_is_fine():
    # constant integer exponents avoid the log route
    assert ev("v^3", v=-2.0) == -8.0
    assert ev("v^2", v=-2.0) == 4.0
    g = dsl.eval_grad(dsl.parse("v^3"), 0, 0, -2.0, 0)
    assert g[2] == pytest.approx(12.0)


# ---------------------------------------------------------------------------
# one call over an array of points


PARITY_CASES = [
    "u + v - w * t / (1 + u^2)",
    "-u * v + -(w - t)",
    "ln(1 + u^2) + exp(v) * sin(w) - cos(t * u)",
    "sqrt(1 + v^2) + abs(w - 0.3)",
    "u^(1 + t^2)",          # exponent depends on t only
    "(1 + u^2)^(v + w)",    # exponent depends on the active variables
]


def _per_point(f, e, points):
    """Scalar calls of f, one per point, stacked along the last axis."""
    return np.stack([np.hstack([f(e, *p)]) for p in points.T], axis=-1)


@pytest.mark.parametrize("text", PARITY_CASES)
def test_array_call_matches_per_point_calls(text):
    e = dsl.parse(text)
    points = np.random.default_rng(11).uniform(0.2, 1.5, (4, 25))
    np.testing.assert_allclose(dsl.eval_value(e, *points),
                               _per_point(dsl.eval_value, e, points)[0], rtol=1e-15, atol=0)
    np.testing.assert_allclose(dsl.eval_grad(e, *points),
                               _per_point(dsl.eval_grad, e, points), rtol=1e-15, atol=0)
    jet = dsl.eval_jet2(e, *points)

    def rows(e, *p):
        j = dsl.eval_jet2(e, *p)
        return np.hstack([j.value, j.grad, j.hess])

    np.testing.assert_allclose(np.vstack([jet.value, jet.grad, jet.hess]),
                               _per_point(rows, e, points), rtol=1e-15, atol=0)


# (expression, value of u, lowest order that raises)
DOMAIN_RULES = [
    ("sqrt(u)", 0.0, 1),
    ("u^1.5", 0.0, 2),
    ("u^-1", 0.0, 0),
    ("u^0.5", -1.0, 0),
    ("ln(u)", 0.0, 0),
    ("abs(u)", 0.0, 1),
    ("1/u", 0.0, 0),
]


@pytest.mark.parametrize("shape", ["scalar", "array"])
@pytest.mark.parametrize("text, u, raises_from", DOMAIN_RULES)
def test_domain_rules_by_order(text, u, raises_from, shape):
    e = dsl.parse(text)
    # one bad point among good ones fails the whole call
    arg = u if shape == "scalar" else np.array([0.5, u, 2.0])
    for order, f in enumerate((dsl.eval_value, dsl.eval_grad, dsl.eval_jet2)):
        if order < raises_from:
            f(e, 0.0, arg, 0.0, 0.0)
        else:
            with pytest.raises(DomainError):
                f(e, 0.0, arg, 0.0, 0.0)


def test_overflow_gives_inf_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ev("exp(u)", u=1000.0) == math.inf
        assert ev("10^u", u=400.0) == math.inf
        g = dsl.eval_grad(dsl.parse("u^3"), 0.0, np.array([1.0, 1e200]), 0.0, 0.0)
        assert g[:2].tolist() == [[1.0, math.inf], [3.0, math.inf]]
        jet = dsl.eval_jet2(dsl.parse("exp(u) - exp(u)"), 0.0, 1000.0, 0.0, 0.0)
        assert math.isnan(jet.value)


# fragments of the grammar, with near misses, so the fuzzer reaches the parser
# and not only the tokenizer's first error
_FRAGMENTS = ["u", "v", "w", "t", "pi", "e", "x", "sin", "exp", "ln", "sqrt", "abs",
              "0", "1", "2.5", ".5", "1e3", "1e", "1.2.3", "9e999", "1e-400", "٣", "²",
              "+", "-", "*", "/", "^", "(", ")", "((", "))", " ", ",", "_", "ü", "\t"]


@given(st.one_of(st.text(max_size=40),
                 st.lists(st.sampled_from(_FRAGMENTS), max_size=30).map("".join)))
@settings(max_examples=500)
def test_any_text_parses_or_raises_syntax_error(text):
    try:
        e = dsl.parse(text)
    except ExprSyntaxError:
        return
    assert dsl.parse(dsl.to_string(e)) == e

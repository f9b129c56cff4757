"""Expression parsing and derivative evaluation."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dsl_expressions import LAGRANGIAN_LEAVES, expressions
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
    assert jet[0] == pytest.approx(dsl.eval_value(e, t, u, v, w), rel=1e-13)
    g = dsl.eval_grad(e, t, u, v, w)
    assert jet[1:4] == pytest.approx(g[1:], rel=1e-12, abs=1e-12)
    H = jet[4:][dsl.HESS_INDEX]
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
    assert jet[0] == pytest.approx(v ** 3 + w ** 2, rel=1e-12, abs=1e-12)
    assert jet[2] == pytest.approx(3 * v * v, rel=1e-12, abs=1e-12)
    assert jet[3] == pytest.approx(2 * w, rel=1e-12, abs=1e-12)
    hess = dict(zip(("uu", "uv", "uw", "vv", "vw", "ww"), jet[4:]))
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
    np.testing.assert_allclose(dsl.eval_jet2(e, *points),
                               _per_point(dsl.eval_jet2, e, points), rtol=1e-15, atol=0)


@pytest.mark.parametrize("text", PARITY_CASES + ["v^3 + 1*w^2",
                                                  "0.5*v^2 + 0.5*w^2 - u + 0.1*u^4"])
def test_jet2_value_and_gradient_rows_equal_eval_grad(text):
    # fracvar's Newton residual reads its gradient rows from the jet it keeps
    # for the Jacobian, so both orders must compute them the same way
    e = dsl.parse(text)
    points = np.random.default_rng(5).uniform(0.2, 1.5, (4, 25))
    jet, grad = dsl.eval_jet2(e, *points), dsl.eval_grad(e, *points)
    assert np.array_equal(jet[:4], grad)


@pytest.mark.parametrize("text", ["u^v", "u^(v*w)", "(1+u)^(v+t)", "exp(u)^v", "u^(2*v)/v"])
def test_variable_exponent_value_does_not_depend_on_the_order(text):
    # orders 1 and 2 take their derivative rows from exp(v ln u), but their
    # value row is order 0's u^v, bit for bit
    e = dsl.parse(text)
    rng = np.random.default_rng(0)
    u, v, w = rng.uniform(0.1, 3.0, 1000), rng.uniform(-2.5, 2.5, 1000), rng.uniform(-1.0, 1.0, 1000)
    value = dsl.eval_value(e, 0.3, u, v, w)
    assert np.array_equal(dsl.eval_grad(e, 0.3, u, v, w)[0], value)
    assert np.array_equal(dsl.eval_jet2(e, 0.3, u, v, w)[0], value)


def test_variable_exponent_derivatives_need_a_positive_base():
    # d/dv u^v = u^v ln u: order 0 gives (-2)^2, orders 1 and 2 refuse the base
    e = dsl.parse("u^v")
    assert dsl.eval_value(e, 0.0, -2.0, 2.0, 0.0) == 4.0
    for order in (dsl.eval_grad, dsl.eval_jet2):
        with pytest.raises(DomainError, match="positive base"):
            order(e, 0.0, -2.0, 2.0, 0.0)


@pytest.mark.parametrize("text", PARITY_CASES)
def test_program_is_the_one_evaluator_behind_eval(text):
    # fracvar's Newton loop runs the compiled programs directly
    e = dsl.parse(text)
    points = np.random.default_rng(6).uniform(0.2, 1.5, (4, 25))
    assert dsl.program(e, 2) is dsl.program(e, 2)  # compiled once
    with np.errstate(all="ignore"):
        rows = [dsl.program(e, order)(*points, (25,)) for order in (1, 2)]
    assert np.array_equal(rows[0], dsl.eval_grad(e, *points))
    assert np.array_equal(rows[1], dsl.eval_jet2(e, *points))


@pytest.mark.parametrize("text", PARITY_CASES + [
    "0.5*v^2 + 0.5*w^2 - u + 0.1*u^4", "v^3 + 1*w^2", "u*v + v*w + exp(u)*w^2",
    "t*v^2 + u^2", "2.5 - pi", "t", "u*v*w"])
@pytest.mark.parametrize("order", [1, 2])
def test_program_rows_report_what_is_known_without_evaluating(text, order):
    # fracvar forms the constant Hessian blocks once per solve from these rows
    run = dsl.program(dsl.parse(text), order)
    points = np.random.default_rng(8).uniform(0.0, 1.5, (4, 25))
    with np.errstate(all="ignore"):
        out = run(*points, (25,))
    assert len(run.rows) == out.shape[0]
    for row, known in zip(out, run.rows):
        if known is None:  # varies with (t, u, v, w): not one value at random points
            assert np.ptp(row) > 0.0
        else:  # a constant row, 0.0 for a structurally zero one
            assert np.all(row == known)


def test_program_rows_of_a_lagrangian_with_t_in_its_hessian():
    rows = dsl.program(dsl.parse("t*v^2 + u^2"), 2).rows
    # value, L_u, L_v, L_w; then uu, uv, uw, vv = 2t, vw, ww
    assert rows == (None, None, None, 0.0, 2.0, 0.0, 0.0, None, 0.0, 0.0)


def _outcome(run, args, shape, *out):
    """The rows of ``run`` at the points ``args`` (run into ``out`` if given),
    or its DomainError's message."""
    try:
        with np.errstate(all="ignore"):
            return run(*args, shape, *out)
    except DomainError as exc:
        return str(exc)


# values that reach every domain rule: zero, negative, fractional, huge
_POINTS = st.sampled_from((0.0, -1.0, -0.5, 0.3, 1.0, 2.0, 1e300))


@given(expressions(LAGRANGIAN_LEAVES, broken=()), st.sampled_from([(), (3,)]), st.data())
def test_derivative_only_program_matches_the_full_one(text, shape, data):
    # rows 1-9 bit for bit and DomainError at the same points, with the
    # same message, at orders 1 and 2, at 0-d and at array shapes
    e = dsl.parse(text)
    point = st.lists(_POINTS, min_size=3, max_size=3) if shape else _POINTS
    args = [np.array(data.draw(point)) for _ in range(4)]
    for order in (1, 2):
        full = _outcome(dsl.program(e, order), args, shape)
        derivatives = _outcome(dsl.program(e, order, value=False), args, shape)
        if isinstance(full, str):
            assert derivatives == full
        else:
            assert derivatives.shape == full.shape == ((4, 10)[order - 1],) + shape
            assert np.array_equal(derivatives[1:], full[1:], equal_nan=True)
            assert np.all(derivatives[0] == 0.0)


@given(expressions(LAGRANGIAN_LEAVES, broken=()), st.sampled_from([(), (3,)]), st.data())
def test_program_run_into_its_own_rows_gives_the_fresh_rows(text, shape, data):
    # a run into the array an earlier run returned rewrites only the varying
    # rows: byte for byte what a fresh run gives (NaN as NaN), the same
    # DomainError, and again after a run that raised part-way through; the
    # constant and zero rows keep what the first run wrote
    e = dsl.parse(text)
    point = st.lists(_POINTS, min_size=3, max_size=3) if shape else _POINTS
    draws = [[np.array(data.draw(point)) for _ in range(4)] for _ in range(4)]
    for order, value in ((0, True), (1, True), (1, False), (2, True), (2, False)):
        run = dsl.program(e, order, value=value)
        out = None
        for args in draws:
            fresh = _outcome(run, args, shape)
            if out is None:
                out = None if isinstance(fresh, str) else fresh
                continue
            reused = _outcome(run, args, shape, out)
            if isinstance(fresh, str):
                assert reused == fresh
                continue
            assert reused is out
            assert out.tobytes() == fresh.tobytes()
        for k, known in enumerate(run.rows):
            if out is not None and known is not None:
                assert out[k].tobytes() == np.full(shape, known).tobytes()


@given(expressions(LAGRANGIAN_LEAVES, broken=()), st.sampled_from([(), (3,)]), st.data())
def test_eval_jet2_returns_the_rows_of_the_order_2_program(text, shape, data):
    # the ten rows as the program writes them, byte for byte (NaN as NaN),
    # or the same DomainError
    e = dsl.parse(text)
    point = st.lists(_POINTS, min_size=3, max_size=3) if shape else _POINTS
    args = [np.array(data.draw(point)) for _ in range(4)]
    expect = _outcome(dsl.program(e, 2), args, shape)
    try:
        got = dsl.eval_jet2(e, *args)
    except DomainError as exc:
        got = str(exc)
    if isinstance(expect, str):
        assert got == expect
    else:
        assert got.shape == (10,) + shape
        assert got.tobytes() == expect.tobytes()


def test_derivative_only_program_drops_the_value_but_no_domain_check():
    e = dsl.parse("v^3 + exp(w) + ln(u)")
    full, derivatives = dsl.program(e, 2), dsl.program(e, 2, value=False)
    assert derivatives is dsl.program(e, 2, value=False)  # compiled once
    assert derivatives is not full
    assert derivatives.rows == (0.0,) + full.rows[1:]
    args = [np.array([0.5, 1.5])] * 4
    assert np.array_equal(derivatives(*args, (2,))[1:], full(*args, (2,))[1:])
    with pytest.raises(DomainError, match="ln of non-positive value"):
        derivatives(np.zeros(2), np.zeros(2), np.ones(2), np.ones(2), (2,))
    # (t - 2)^t only feeds the value row, but its run-time rules still apply
    power = dsl.program(dsl.parse("(t - 2)^t + v^2"), 2, value=False)
    with pytest.raises(DomainError, match="negative base with non-integer exponent"):
        power(np.array([0.5, 3.0]), *[np.ones(2)] * 3, (2,))
    with pytest.raises(ValueError):
        dsl.program(e, 0, value=False)


def test_hessian_index_map_places_every_pair_of_gradient_rows():
    for k, (i, j) in enumerate(dsl._PAIRS):
        assert dsl.HESS_INDEX[i - 1, j - 1] == dsl.HESS_INDEX[j - 1, i - 1] == k
    H = (np.arange(6.0)[:, None] * np.ones(2))[dsl.HESS_INDEX]
    assert H.shape == (3, 3, 2)
    assert np.array_equal(H[:, :, 1], dsl.HESS_INDEX)


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
        assert math.isnan(jet[0])


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

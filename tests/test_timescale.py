"""Grid mechanics: jumps, graininess, derivatives, integrals."""

import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from tsvar import timescale as ts
from tsvar.errors import InvalidAlpha, NotOnGrid
from tsvar.fracvar import FracGrid


def test_uniform_points():
    g = ts.uniform(0.0, 1.0, 0.25)
    assert_allclose(g.points, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert g.kind == "uniform"
    assert g.hypothesis_h() == (1.0, 0.25)


def test_geometric_points():
    g = ts.geometric(2.0, 0, 4)
    assert_allclose(g.points, [1.0, 2.0, 4.0, 8.0, 16.0])
    assert g.kind == "geometric"
    a1, a0 = g.hypothesis_h()
    assert a1 == 2.0 and a0 == 0.0


def test_explicit_irregular_has_no_affine_sigma():
    g = ts.explicit(0.0, 0.5, 0.75, 1.5)
    assert g.kind == "explicit"
    assert g.hypothesis_h() is None


def test_constructor_rejects_bad_grids():
    with pytest.raises(ValueError):
        ts.explicit(0.0, 1.0, 1.0)  # duplicate
    with pytest.raises(ValueError):
        ts.TimeScale([3.0, 1.0, 2.0])  # unsorted
    with pytest.raises(ValueError, match="not in geometric progression"):
        ts.geometric(1.0 + 1e-15, 0, 5)  # its gaps are equal to rounding: uniform


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_constructor_rejects_non_finite_points(bad):
    with pytest.raises(ValueError, match="finite"):
        ts.TimeScale([0.0, bad, 1.0])
    with pytest.raises(ValueError, match="finite"):
        ts.TimeScale(np.array([0.0, 1.0, bad]))
    with pytest.raises(ValueError, match="finite"):
        ts.explicit(0.0, 1.0, bad)


def test_constructor_copies_array_input_read_only():
    raw = np.array([0.0, 0.5, 2.0])
    g = ts.TimeScale(raw)
    assert not np.shares_memory(g.points, raw)
    raw[1] = 0.25
    assert_allclose(g.points, [0.0, 0.5, 2.0])
    assert not g.points.flags.writeable
    with pytest.raises(ValueError):
        g.points[0] = 1.0
    # a read-only array handed back in is copied as well
    again = ts.explicit(g.points)
    assert again == g and not np.shares_memory(again.points, g.points)


def test_constructor_accepts_any_iterable():
    pts = [0.0, 1.0, 3.0]
    assert ts.TimeScale(iter(pts)) == ts.TimeScale(pts) == ts.TimeScale(tuple(pts))
    assert ts.TimeScale(np.array([0, 1, 3])).points.dtype == np.float64


@pytest.mark.parametrize("points, kind, step, ratio", [
    pytest.param([1.5], "explicit", None, None, id="one-point"),
    pytest.param([-0.5, 0.25], "uniform", 0.75, None, id="two-points"),
    pytest.param([0.0, 0.1, 0.2, 0.30000000000000004, 0.4], "uniform", 0.1, None,
                 id="uniform-with-rounding"),
    pytest.param([1.0, 2.0, 4.0, 8.0], "geometric", None, 2.0, id="geometric"),
    pytest.param([1.5 ** k for k in range(-3, 4)], "geometric", None, 1.5,
                 id="geometric-with-rounding"),
    pytest.param([0.0, 0.5, 0.75, 1.5], "explicit", None, None, id="explicit"),
    pytest.param([1.0, 2.0, 3.5], "explicit", None, None, id="explicit-positive"),
])
def test_constructor_detects_kind_step_and_ratio(points, kind, step, ratio):
    g = ts.TimeScale(points)
    assert (g.kind, g.step, g.ratio) == (kind, step, ratio)
    assert g.points.tolist() == points


@pytest.mark.parametrize("points, kind, ratio", [
    pytest.param([5e-324, 1e-10, 1.0], "explicit", None, id="first-ratio"),
    pytest.param([1e-300, 1e-299, 1e10], "explicit", None, id="second-ratio"),
    pytest.param([2.0 ** k for k in range(-1074, 1024)], "geometric", 2.0, id="geometric"),
    pytest.param([-1e308, 1e308], "explicit", None, id="one-gap"),
    pytest.param([-1.7e308, 1e308, 1.7e308], "explicit", None, id="first-gap"),
])
def test_kind_of_grids_spanning_more_than_the_float_range(points, kind, ratio):
    # neighbour ratios, the ratio of the ends, or a gap overflow; no warning
    # escapes, and a gap beyond the float range is not uniform
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = ts.TimeScale(points)
    assert (g.kind, g.step, g.ratio) == (kind, None, ratio)


@pytest.mark.parametrize("build, n_points, h", [
    pytest.param(lambda: ts.uniform(100.0, 101.0, 0.01), 101, 0.01, id="away-from-origin"),
    pytest.param(lambda: ts.uniform(0.0, 1.0, 1e-4), 10001, 1e-4, id="h=1e-4"),
    pytest.param(lambda: ts.uniform(0.0, 1.0, 1e-5), 100001, 1e-5, id="h=1e-5"),
    pytest.param(lambda: ts.uniform(-1.0, 0.0, 1e-5), 100001, 1e-5, id="left-of-origin"),
    pytest.param(lambda: FracGrid(100.0, 101.0, 0.01).scale(), 101, 0.01, id="frac-grid"),
])
def test_fine_uniform_grids_are_uniform(build, n_points, h):
    # each gap carries about eps * |t| of rounding, more than 1e-12 * h
    g = build()
    assert (g.kind, len(g)) == ("uniform", n_points)
    assert g.step == pytest.approx(h, rel=1e-9)


@pytest.mark.parametrize("points, message", [
    pytest.param([], "at least one point", id="empty"),
    pytest.param([[0.0, 1.0]], "at least one point", id="two-dimensional"),
    pytest.param([0.0, 1.0, 1.0], "strictly increasing", id="repeated"),
    pytest.param([0.0, 2.0, 1.0], "strictly increasing", id="decreasing"),
    pytest.param([0.0, math.nan, 1.0], "finite", id="nan"),
    pytest.param([math.nan], "finite", id="one-nan"),
])
def test_constructor_error_messages(points, message):
    with pytest.raises(ValueError, match=message):
        ts.TimeScale(points)


@pytest.mark.parametrize("kind", ["unifrom", "Uniform", "", "detect", None,
                                  "auto", "uniform", "geometric", "explicit"])
def test_constructor_refuses_an_unknown_kind(kind):
    # the kind is always detected from the points: the constructor takes no other argument
    with pytest.raises(TypeError, match="kind"):
        ts.TimeScale([0.0, 0.5, 1.0], kind=kind)


def _no_detection(points, gaps):
    raise AssertionError("kind detection ran for a declared explicit scale")


def _declared_explicit(points):
    """The scale of ``points`` declared explicit: ``_explicit_rows`` of one row."""
    return ts._explicit_rows(np.array([points], dtype=float), np.array([len(points)]))[0]


@pytest.mark.parametrize("points", [
    pytest.param([0.0, 0.5, 1.0, 1.5], id="uniform-looking"),
    pytest.param([1.0, 2.0, 4.0, 8.0], id="geometric-looking"),
])
def test_declared_explicit_scale_skips_kind_detection(monkeypatch, points):
    assert ts.TimeScale(points).kind != "explicit"  # detection would find a kind
    monkeypatch.setattr(ts, "_detect_kind", _no_detection)
    g = _declared_explicit(points)
    assert (g.kind, g.step, g.ratio) == ("explicit", None, None)
    assert g.hypothesis_h() is None
    assert_allclose(g.points, points)


@pytest.mark.parametrize("points, message", [
    pytest.param([0.0, math.nan, 1.0], "finite", id="nan"),
    pytest.param([0.0, 1.0, math.inf], "finite", id="inf"),
    pytest.param([0.0, 1.0, 1.0], "strictly increasing", id="repeated"),
    pytest.param([0.0, 2.0, 1.0], "strictly increasing", id="decreasing"),
])
def test_declared_explicit_scale_still_checks_its_points(monkeypatch, points, message):
    monkeypatch.setattr(ts, "_detect_kind", _no_detection)
    with pytest.raises(ValueError, match=message):
        _declared_explicit(points)


NOT_FINITE = "time scale points must be finite"
NOT_INCREASING = "time scale points must be strictly increasing"


def _old_point_check(points):
    """TimeScale's point check as it was when it took the gaps first."""
    pts = np.array(points, dtype=float)
    if not np.isfinite(pts).all():
        return NOT_FINITE
    if (pts[1:] - pts[:-1] <= 0).any():
        return NOT_INCREASING
    return None


def _message(points, kind):
    """What the constructor ("auto") or the builder of declared-explicit
    scales ("explicit") raises for ``points``, or None."""
    try:
        ts.TimeScale(points) if kind == "auto" else _declared_explicit(points)
    except ValueError as exc:
        return str(exc)
    return None


BAD_POINTS = [
    *(pytest.param(p, NOT_FINITE, id=f"{name}-{where}")
      for name, bad in [("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf)]
      for where, p in [("first", [bad, 1.0, 2.0]), ("middle", [0.0, bad, 2.0]),
                       ("last", [0.0, 1.0, bad])]),
    pytest.param([1.0, math.inf, math.inf], NOT_FINITE, id="inf-inf"),
    pytest.param([math.nan], NOT_FINITE, id="one-nan"),
    pytest.param([math.inf], NOT_FINITE, id="one-inf"),
    pytest.param([2.0, 1.0, math.nan], NOT_FINITE, id="decreasing-and-nan"),
    pytest.param([0.0, 1.0, 1.0], NOT_INCREASING, id="repeated"),
    pytest.param([0.0, 2.0, 1.0], NOT_INCREASING, id="decreasing"),
    pytest.param([1.0, 1.0], NOT_INCREASING, id="two-equal"),
]


@pytest.mark.parametrize("kind", ["auto", "explicit"])
@pytest.mark.parametrize("points, message", BAD_POINTS)
def test_constructor_message_for_each_bad_point(points, message, kind):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # comparisons only: inf - inf would warn
        assert _message(points, kind) == message
    assert _old_point_check(points) == message


_point = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 0.0, 1.0]),
                   st.floats(min_value=-1e300, max_value=1e300))


@given(st.lists(_point, min_size=1, max_size=8), st.booleans(),
       st.sampled_from(["auto", "explicit"]))
@settings(max_examples=300)
def test_constructor_accepts_exactly_the_points_the_old_check_accepts(points, order, kind):
    if order:
        points = sorted(points)  # mostly increasing; NaN leaves the order partial
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _message(points, kind) == _old_point_check(points)


# ---------------------------------------------------------------------------
# _explicit_rows: a block's scales, its points checked in one array pass


def _block(rows, pad=math.nan):
    """Rows of points as one block, each padded past its count with ``pad``."""
    points = np.full((len(rows), max(map(len, rows)) + 2), pad)
    for k, row in enumerate(rows):
        points[k, :len(row)] = row
    return points, np.array([len(row) for row in rows])


def _block_message(rows, pad=math.nan):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # comparisons only, as in the row constructor
        try:
            ts._explicit_rows(*_block(rows, pad))
        except ValueError as exc:
            return str(exc)
    return None


@pytest.mark.parametrize("pad", [math.nan, -1.0])
def test_block_constructor_gives_each_row_its_explicit_scale(pad):
    rows = [[0.0, 0.5, 1.0, 1.5], [1.0, 2.0, 4.0], [-2.0, -1.9, 0.3, 0.31, 7.0], [3.0]]
    points, counts = _block(rows, pad)
    scales = ts._explicit_rows(points, counts)
    points[:] = 0.0  # the scales own their points
    assert len(scales) == len(rows)
    for scale, row in zip(scales, rows):
        expect = ts.TimeScale(row)
        assert scale == expect
        assert scale.points.dtype == expect.points.dtype
        assert scale.points.tobytes() == expect.points.tobytes()
        assert (scale.kind, scale.step, scale.ratio) == ("explicit", None, None)
        assert not scale.points.flags.writeable
        with pytest.raises(AttributeError):
            scale.kind = "uniform"


@pytest.mark.parametrize("where", [0, 1, 2])
@pytest.mark.parametrize("points, message", BAD_POINTS)
def test_block_constructor_message_for_each_bad_point(points, message, where):
    rows = [[0.0, 0.5, 2.0]] * 3
    rows[where] = points
    assert _block_message(rows) == message


def test_block_constructor_raises_for_the_first_bad_row():
    rows = [[0.0, 1.0], [0.0, 2.0, 1.0], [0.0, math.nan]]
    assert _block_message(rows) == NOT_INCREASING
    assert _block_message(rows[:1] + rows[2:] + rows[1:2]) == NOT_FINITE
    assert _block_message([[0.0, 1.0], []]) == "a time scale needs at least one point"


@given(st.lists(st.lists(_point, min_size=1, max_size=6), min_size=1, max_size=5),
       st.booleans(), st.sampled_from([math.nan, 0.0, math.inf]))
def test_block_constructor_accepts_exactly_the_rows_the_row_constructor_accepts(
        rows, order, pad):
    if order:
        rows = [sorted(row) for row in rows]  # mostly increasing
    messages = [_message(row, "auto") for row in rows]
    assert _block_message(rows, pad) == next((m for m in messages if m), None)


def test_a_span_beyond_the_float_range_with_finite_gaps_stays_uniform():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = ts.TimeScale([-1e308, 0.0, 1e308])
    assert (g.kind, g.step) == ("uniform", 1e308)


@pytest.mark.parametrize("args, points", [
    pytest.param((2.0, 0, 3.0), [1.0, 2.0, 4.0, 8.0], id="whole-float-kmax"),
    pytest.param((2, -2.0, 1), [0.25, 0.5, 1.0, 2.0], id="whole-float-kmin"),
    pytest.param((3, np.int64(0), np.float64(2)), [1.0, 3.0, 9.0], id="numpy-scalars"),
])
def test_geometric_accepts_whole_float_exponents(args, points):
    g = ts.geometric(*args)
    assert g.kind == "geometric"
    assert_allclose(g.points, points, rtol=1e-15)


@pytest.mark.parametrize("args", [
    pytest.param((2, 0.5, 4), id="fractional-kmin"),
    pytest.param((2, 0, 3.5), id="fractional-kmax"),
    pytest.param((2, 0, math.inf), id="infinite"),
    pytest.param((2, math.nan, 3), id="nan"),
    pytest.param((2, "0", 3), id="string"),
])
def test_geometric_refuses_exponents_that_are_not_whole(args):
    with pytest.raises(ValueError, match="kmin and kmax must be integers"):
        ts.geometric(*args)


@pytest.mark.parametrize("kmin, kmax", [(0, 1), (-3, -2), (2, 2), (3, 0)])
def test_geometric_refuses_fewer_than_three_exponents(kmin, kmax):
    # two points are detected as uniform, so they are refused up front,
    # with the reason, and not as points out of geometric progression
    with pytest.raises(ValueError, match="need at least three exponents"):
        ts.geometric(2.0, kmin, kmax)


@pytest.mark.parametrize("q, kmin, kmax", [(1e200, 0, 2), (2.0, 0, 1100)])
def test_geometric_refuses_powers_past_the_float_range(q, kmin, kmax):
    # float(q) ** k raises OverflowError there; the scale names it as bad data
    with pytest.raises(ValueError, match=re.escape(f"q^kmax = {q}^{kmax} overflows the float")):
        ts.geometric(q, kmin, kmax)


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=-10.0, max_value=1e300) | st.sampled_from([math.nan, math.inf]),
       st.integers(-1200, 1200), st.integers(-2, 1200))
def test_geometric_returns_a_scale_or_raises_value_error(q, kmin, span):
    try:
        g = ts.geometric(q, kmin, kmin + span)
    except ValueError:
        return
    assert g.kind == "geometric" and len(g) == span + 1


@pytest.mark.parametrize("build, kind, step, ratio", [
    pytest.param(lambda: ts.uniform(0.0, 1.0, 0.25), "uniform", 0.25, None, id="uniform"),
    pytest.param(lambda: ts.uniform(-1.0, 1.0, 1.0), "uniform", 1.0, None, id="uniform-one-gap"),
    pytest.param(lambda: ts.geometric(2.0, -2, 3), "geometric", None, 2.0, id="geometric"),
    pytest.param(lambda: ts.explicit(0.0, 0.5, 0.75), "explicit", None, None, id="explicit"),
    pytest.param(lambda: ts.explicit(0.0, 0.5, 1.0), "uniform", 0.5, None,
                 id="explicit-uniform"),
    pytest.param(lambda: ts.explicit([1.0, 3.0, 9.0]), "geometric", None, 3.0,
                 id="explicit-geometric"),
    pytest.param(lambda: ts.uniform(0.0, 1.0, 0.25).drop_last(2), "uniform", 0.25, None,
                 id="uniform-drop-last"),
    pytest.param(lambda: ts.uniform(0.0, 1.0, 0.25).drop_first(), "uniform", 0.25, None,
                 id="uniform-drop-first"),
    pytest.param(lambda: ts.geometric(2.0, 0, 4).drop_first(2), "geometric", None, 2.0,
                 id="geometric-drop-first"),
    pytest.param(lambda: ts.geometric(2.0, 0, 4).drop_last(3), "uniform", 1.0, None,
                 id="geometric-drop-to-two-points"),
    pytest.param(lambda: ts.explicit(0.0, 0.5, 0.75, 1.5).drop_last(), "explicit", None, None,
                 id="explicit-drop-last"),
    pytest.param(lambda: ts.explicit(0.0, 1.0, 2.0, 4.0).drop_first(), "geometric", None, 2.0,
                 id="explicit-drop-first"),
    pytest.param(lambda: ts.explicit(0.0, 0.5, 0.75, 1.5).drop_last(2), "uniform", 0.5, None,
                 id="explicit-drop-to-two-points"),
])
def test_builders_and_restrictions_detect_their_kind(build, kind, step, ratio):
    g = build()
    assert (g.kind, g.step, g.ratio) == (kind, step, ratio)


@given(st.floats(-1e6, 1e6), st.floats(1e-6, 1e3), st.integers(1, 2000),
       st.sampled_from([0.0, 1e-12, -1e-12, 1e-10, -1e-10]))
@settings(max_examples=300)
def test_every_grid_uniform_accepts_is_detected_as_uniform(a, h, steps, jitter):
    # uniform() does not check the kind: _uniform_steps bounds the last gap
    # within the detection's slack of the first
    b = a + steps * h * (1.0 + jitter)
    try:
        ts._uniform_steps(a, b, h)
    except ValueError:
        return
    g = ts.uniform(a, b, h)
    assert g.kind == "uniform" and g.points[-1] == b


def test_index_of_exact_grid_points():
    g = ts.explicit(-1.5, 0.0, 0.25, 2.0, 7.0)
    for i, t in enumerate(g.points):
        assert g.index(t) == i
        assert g.index(float(t)) == i
    assert g.index(-1.5) == 0 and g.index(7) == len(g) - 1
    one = ts.TimeScale([3.5])
    assert one.index(3.5) == 0
    with pytest.raises(NotOnGrid):
        one.index(3.6)


@pytest.mark.parametrize("scale", [
    pytest.param(ts.explicit(-1.5, 0.0, 0.25, 2.0, 7.0), id="explicit"),
    pytest.param(ts.uniform(100.0, 101.0, 0.01), id="fine-uniform"),
    pytest.param(ts.geometric(1.5, -4, 6), id="geometric"),
])
def test_index_of_near_hits_resolves_to_the_nearest_point(scale):
    pts = scale.points
    for i, t in enumerate(pts):
        tol = 1e-9 * max(1.0, abs(t))
        for off in (0.4 * tol, -0.4 * tol):
            near = float(t) + off
            if near == t:
                continue  # the offset is below the spacing of floats here
            assert near in scale
            assert scale.index(near) == i


def test_index_of_off_grid_values_raises():
    g = ts.explicit(-1.5, 0.0, 0.25, 2.0, 7.0)
    for t in (-2.0, -1.5 - 1e-6, 0.1, 0.25 + 3e-9, 7.0 + 1e-6, 100.0, math.nan):
        assert t not in g
        with pytest.raises(NotOnGrid):
            g.index(t)


@pytest.mark.parametrize("build", [
    pytest.param(lambda: ts.uniform(0.0, 1.0, 1e-9), id="uniform-1e9"),
    pytest.param(lambda: ts.uniform(0.0, 1.0, 1e-320), id="uniform-inf-steps"),
    pytest.param(lambda: ts.uniform(0.0, math.nan, 0.5), id="uniform-nan-steps"),
    pytest.param(lambda: ts.geometric(2.0, 0, 10 ** 9), id="geometric-1e9"),
])
def test_grid_builders_refuse_more_than_the_point_cap(build):
    # each call fails before allocating: the uncapped path is never run
    with pytest.raises(ValueError, match=f"exceed {ts.MAX_POINTS} grid points"):
        build()


def test_jump_operators_on_irregular_grid():
    g = ts.explicit(0.0, 0.5, 0.75, 1.5)
    assert g.sigma(0.0) == 0.5
    assert g.sigma(0.75) == 1.5
    assert g.sigma(1.5) == 1.5  # max is right-fixed
    assert g.rho(0.0) == 0.0  # min is left-fixed
    assert g.rho(1.5) == 0.75
    assert g.mu(0.5) == 0.25
    assert g.mu(1.5) == 0.0
    assert g.nu(0.75) == 0.25
    assert g.nu(0.0) == 0.0
    with pytest.raises(NotOnGrid):
        g.sigma(0.3)


def test_kappa_truncations():
    g = ts.uniform(0.0, 1.0, 0.25)
    assert_allclose(g.drop_last(1).points, [0.0, 0.25, 0.5, 0.75])
    assert_allclose(g.drop_last(2).points, [0.0, 0.25, 0.5])
    assert_allclose(g.drop_first(1).points, [0.25, 0.5, 0.75, 1.0])


def test_delta_derivative_squares():
    # f(t) = t^2 on {0,1,3,4}: f^Delta(t) = t + sigma(t)
    g = ts.explicit(0.0, 1.0, 3.0, 4.0)
    f = ts.GridFunction.sample(g, lambda t: t * t)
    df = ts.delta_derivative(f)
    assert_allclose(df.values, [1.0, 4.0, 7.0])
    assert_allclose(df.scale.points, [0.0, 1.0, 3.0])


def test_nabla_derivative_squares():
    g = ts.explicit(0.0, 1.0, 3.0, 4.0)
    f = ts.GridFunction.sample(g, lambda t: t * t)
    df = ts.nabla_derivative(f)
    assert_allclose(df.values, [1.0, 4.0, 7.0])
    assert_allclose(df.scale.points, [1.0, 3.0, 4.0])


def test_higher_delta_matches_iterated():
    g = ts.geometric(1.5, 0, 6)
    f = ts.GridFunction.sample(g, lambda t: t ** 3 - 2.0 * t)
    once = ts.delta_derivative(ts.delta_derivative(f))
    twice = ts.higher_delta_derivative(f, 2)
    assert_allclose(twice.values, once.values, rtol=1e-13)


def test_delta_integral_fraction_oracle():
    # sum of mu_j * f(t_j) over [a, b) with exact rational arithmetic
    pts = [Fraction(0), Fraction(1, 2), Fraction(3, 4), Fraction(3, 2)]
    fvals = [Fraction(1), Fraction(-2), Fraction(3), Fraction(5)]
    exact = sum((pts[j + 1] - pts[j]) * fvals[j] for j in range(3))
    g = ts.explicit(*[float(p) for p in pts])
    f = ts.GridFunction(g, [float(v) for v in fvals])
    assert ts.delta_integral(f, 0.0, 1.5) == pytest.approx(float(exact), abs=1e-15)
    # sub-interval
    exact_sub = (pts[2] - pts[1]) * fvals[1]
    assert ts.delta_integral(f, 0.5, 0.75) == pytest.approx(float(exact_sub), abs=1e-15)


def test_diamond_integral_blends_endpoints():
    g = ts.explicit(0.0, 1.0, 3.0, 4.0)
    f = ts.GridFunction(g, [1.0, -2.0, 3.0, 5.0])
    d1 = ts.diamond_integral(f, 0.0, 4.0, 1.0)
    d0 = ts.diamond_integral(f, 0.0, 4.0, 0.0)
    assert d1 == pytest.approx(ts.delta_integral(f, 0.0, 4.0))
    assert d0 == pytest.approx(ts.nabla_integral(f, 0.0, 4.0))
    mid = ts.diamond_integral(f, 0.0, 4.0, 0.3)
    assert mid == pytest.approx(0.3 * d1 + 0.7 * d0)
    with pytest.raises(InvalidAlpha):
        ts.diamond_integral(f, 0.0, 4.0, 1.5)


def test_compose_sigma_shifts():
    g = ts.uniform(0.0, 2.0, 0.5)
    f = ts.GridFunction(g, [0.0, 1.0, 4.0, 9.0, 16.0])
    fs = ts.compose_sigma(f)
    assert_allclose(fs.values, [1.0, 4.0, 9.0, 16.0])
    assert len(fs.scale) == len(g) - 1
    fss = ts.compose_sigma(f, 2)
    assert_allclose(fss.values, [4.0, 9.0, 16.0])


def test_gridfunction_arithmetic_and_lookup():
    g = ts.uniform(0.0, 1.0, 0.5)
    f = ts.GridFunction(g, [1.0, 2.0, 3.0])
    h = ts.GridFunction.constant(g, 10.0)
    assert_allclose((f + h).values, [11.0, 12.0, 13.0])
    assert_allclose((h - f).values, [9.0, 8.0, 7.0])
    assert_allclose((2.0 * f).values, [2.0, 4.0, 6.0])
    assert_allclose((-f).values, [-1.0, -2.0, -3.0])
    assert f(0.5) == 2.0
    assert f[2] == 3.0
    with pytest.raises(NotOnGrid):
        f(0.25)


grids = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False),
    min_size=3, max_size=12, unique=True,
).map(sorted).filter(lambda p: min(np.diff(p)) > 1e-6)


@given(grids, st.integers(0, 2 ** 32 - 1))
@settings(max_examples=150, deadline=None)
def test_fundamental_theorem_telescopes(points, seed):
    """integral_a^b f^Delta = f(b) - f(a) on any isolated grid."""
    rng = np.random.default_rng(seed)
    g = ts.TimeScale(points)
    f = ts.GridFunction(g, rng.uniform(-5, 5, size=len(g)))
    df = ts.delta_derivative(f)
    # the integrand's value at b never enters a [a, b) sum; pad to the full grid
    padded = ts.GridFunction(g, np.append(np.asarray(df.values), 0.0))
    lhs = ts.delta_integral(padded, points[0], points[-1])
    assert lhs == pytest.approx(f.values[-1] - f.values[0], rel=1e-10, abs=1e-10)


@given(grids, st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       st.integers(0, 2 ** 32 - 1))
def test_diamond_integral_is_the_alpha_blend_of_both_sums(points, alpha, seed):
    g = ts.TimeScale(points)
    f = ts.GridFunction(g, np.random.default_rng(seed).uniform(-5, 5, len(g)))
    mu = np.diff(g.points)
    blend = alpha * float(mu @ f.values[:-1]) + (1.0 - alpha) * float(mu @ f.values[1:])
    assert ts.diamond_integral(f, points[0], points[-1], alpha) == blend
    assert ts.diamond_integral(f, points[-1], points[0], alpha) == -blend


def test_diamond_integral_at_alpha_one_or_zero_leaves_out_the_unused_end():
    # the delta sum never reads f(b) and the nabla sum never reads f(a)
    g = ts.explicit(0.0, 1.0, 3.0, 4.0)
    f = ts.GridFunction(g, [1.0, -2.0, 3.0, math.inf])
    assert ts.diamond_integral(f, 0.0, 4.0, 1.0) == 1.0 - 4.0 + 3.0
    f = ts.GridFunction(g, [math.inf, -2.0, 3.0, 5.0])
    assert ts.diamond_integral(f, 0.0, 4.0, 0.0) == -2.0 + 6.0 + 5.0


@given(grids, st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_delta_product_rule(points, seed):
    """(fg)^Delta = f^Delta g + f^sigma g^Delta pointwise."""
    rng = np.random.default_rng(seed)
    g = ts.TimeScale(points)
    f = ts.GridFunction(g, rng.uniform(-3, 3, size=len(g)))
    w = ts.GridFunction(g, rng.uniform(-3, 3, size=len(g)))
    prod = ts.GridFunction(g, np.asarray(f.values) * np.asarray(w.values))
    lhs = ts.delta_derivative(prod).values
    fs = ts.compose_sigma(f).values
    rhs = (np.asarray(ts.delta_derivative(f).values) * np.asarray(w.values)[:-1]
           + np.asarray(fs) * np.asarray(ts.delta_derivative(w).values))
    assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-9)

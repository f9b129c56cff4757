"""Grid mechanics: jumps, graininess, derivatives, integrals."""

import math
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
    with pytest.raises(ValueError):
        ts.TimeScale([0.0, 0.3, 0.6, 1.0], kind="geometric")


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
])
def test_kind_of_grids_spanning_more_than_the_float_range(points, kind, ratio):
    # neighbour ratios, or the ratio of the ends, overflow; no warning escapes
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


@pytest.mark.parametrize("kind", ["unifrom", "Uniform", "", "detect", None])
def test_constructor_refuses_an_unknown_kind(kind):
    with pytest.raises(ValueError, match="auto, uniform, geometric, explicit"):
        ts.TimeScale([0.0, 0.5, 1.0], kind=kind)


def _no_detection(points, gaps):
    raise AssertionError("kind detection ran for a declared explicit scale")


@pytest.mark.parametrize("points", [
    pytest.param([0.0, 0.5, 1.0, 1.5], id="uniform-looking"),
    pytest.param([1.0, 2.0, 4.0, 8.0], id="geometric-looking"),
])
def test_declared_explicit_scale_skips_kind_detection(monkeypatch, points):
    assert ts.TimeScale(points).kind != "explicit"  # detection would find a kind
    monkeypatch.setattr(ts, "_detect_kind", _no_detection)
    g = ts.TimeScale(points, kind="explicit")
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
        ts.TimeScale(points, kind="explicit")


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
    try:
        ts.TimeScale(points, kind=kind)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("kind", ["auto", "explicit"])
@pytest.mark.parametrize("points, message", [
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
])
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

"""ineq-check and the 2-D Gronwall bounds against the per-element loops they replaced.

The 2-D bounds build their step products with ``cumprod`` and the CLI suites
draw each trial's slack in one vector call; neither may change a single bit.
The references below are the earlier double loops, certifiers and suites.  The
suite oracle records every certifier, bound and pointwise check that
``ineq-check`` makes (arguments and results) and compares both records bit for
bit.
"""

import math

import numpy as np
import pytest

from tsvar import cli, inequalities
from tsvar.errors import InvalidAlpha, InvalidExponent
from tsvar.inequalities import BoundReport
from tsvar.timescale import GridFunction, TimeScale

# ---------------------------------------------------------------------------
# reference: the 2-D bounds as double loops


def old_gronwall_2d_bound(ts1, ts2, a_fn, f_fn):
    a = inequalities._surface_values(ts1, ts2, a_fn)
    f = inequalities._surface_values(ts1, ts2, f_fn)
    mu1 = np.diff(ts1.points)
    mu2 = np.diff(ts2.points)
    n1, n2 = a.shape
    S2 = np.zeros((n1, n2))
    S2[:, 1:] = np.cumsum(f[:, :-1] * mu2, axis=1)
    bound1 = np.empty_like(a)
    for i2 in range(n2):
        prod = 1.0
        for i1 in range(n1):
            bound1[i1, i2] = a[i1, i2] * prod
            if i1 < n1 - 1:
                prod *= 1.0 + mu1[i1] * S2[i1, i2]
    S1 = np.zeros((n1, n2))
    S1[1:, :] = np.cumsum(f[:-1, :] * mu1[:, None], axis=0)
    bound2 = np.empty_like(a)
    for i1 in range(n1):
        prod = 1.0
        for i2 in range(n2):
            bound2[i1, i2] = a[i1, i2] * prod
            if i2 < n2 - 1:
                prod *= 1.0 + mu2[i2] * S1[i1, i2]
    return bound1, bound2


def old_gronwall_2d_power_bound(ts1, ts2, a, f, p, q):
    mu1 = np.diff(ts1.points)
    mu2 = np.diff(ts2.points)
    n1, n2 = a.shape
    kernel = f * a ** (q / p - 1.0)
    S2 = np.zeros((n1, n2))
    S2[:, 1:] = np.cumsum(kernel[:, :-1] * mu2, axis=1)
    bound = np.empty_like(a)
    for i2 in range(n2):
        prod = 1.0
        for i1 in range(n1):
            bound[i1, i2] = a[i1, i2] ** (1.0 / p) * prod ** (1.0 / p)
            if i1 < n1 - 1:
                prod *= 1.0 + mu1[i1] * S2[i1, i2]
    return bound


def _random_grid(rng, n):
    steps = rng.uniform(0.05, 1.0, n - 1)
    return TimeScale(float(rng.uniform(-2.0, 2.0)) + np.concatenate([[0.0], np.cumsum(steps)]))


def test_gronwall_2d_bounds_match_double_loops():
    rng = np.random.default_rng(6)
    for _ in range(20):
        ts1 = _random_grid(rng, int(rng.integers(1, 7)))
        ts2 = _random_grid(rng, int(rng.integers(1, 7)))
        shape = (len(ts1), len(ts2))
        a = rng.uniform(0.1, 2.0, shape)
        f = rng.uniform(0.0, 3.0, shape)
        p = float(rng.uniform(1.0, 4.0))
        q = float(rng.uniform(0.1, p))
        for got, ref in zip(inequalities.gronwall_2d_bound(ts1, ts2, a, f),
                            old_gronwall_2d_bound(ts1, ts2, a, f)):
            assert np.array_equal(got, ref)
        assert np.array_equal(inequalities.gronwall_2d_power_bound(ts1, ts2, a, f, p, q),
                              old_gronwall_2d_power_bound(ts1, ts2, a, f, p, q))


# ---------------------------------------------------------------------------
# reference: the certifiers with a gap vector per diamond integral


def _old_diamond(ts, vals, alpha):
    if not (0.0 <= alpha <= 1.0):
        raise InvalidAlpha(f"alpha = {alpha} must lie in [0, 1]")
    mu = np.diff(ts.points)
    delta_part = float(mu @ vals[:-1])
    nabla_part = float(mu @ vals[1:])
    return alpha * delta_part + (1.0 - alpha) * nabla_part


def _old_report(lhs, rhs):
    holds = lhs <= rhs + 1e-10 * max(1.0, abs(rhs))
    return BoundReport(float(lhs), float(rhs), bool(holds), float(rhs - lhs))


def old_jensen_certify(ts, F, g, weights=None, alpha=1.0):
    gv = np.asarray(g.values, dtype=float)
    hv = np.ones(len(ts)) if weights is None else np.abs(np.asarray(weights.values))
    mass = _old_diamond(ts, hv, alpha)
    mean = _old_diamond(ts, hv * gv, alpha) / mass
    rhs = _old_diamond(ts, hv * np.array([F(x) for x in gv]), alpha) / mass
    return _old_report(F(mean), rhs)


def old_holder_certify(ts, f, g, h_weights=None, p=2.0, alpha=1.0):
    if p <= 1.0:
        raise InvalidExponent(f"p = {p} must exceed 1")
    q = p / (p - 1.0)
    fv = np.abs(np.asarray(f.values, dtype=float))
    gv = np.abs(np.asarray(g.values, dtype=float))
    hv = np.ones(len(ts)) if h_weights is None else np.abs(np.asarray(h_weights.values))
    lhs = _old_diamond(ts, hv * fv * gv, alpha)
    rhs = (_old_diamond(ts, hv * fv**p, alpha) ** (1.0 / p)
           * _old_diamond(ts, hv * gv**q, alpha) ** (1.0 / q))
    return _old_report(lhs, rhs)


def old_minkowski_certify(ts, f, g, p=2.0, alpha=1.0):
    fv = np.asarray(f.values, dtype=float)
    gv = np.asarray(g.values, dtype=float)
    lhs = _old_diamond(ts, np.abs(fv + gv) ** p, alpha) ** (1.0 / p)
    rhs = (_old_diamond(ts, np.abs(fv) ** p, alpha) ** (1.0 / p)
           + _old_diamond(ts, np.abs(gv) ** p, alpha) ** (1.0 / p))
    return _old_report(lhs, rhs)


def old_holds_pointwise(values, bound):
    tol = 1e-10 * np.maximum(1.0, np.abs(bound))
    return bool(np.all(values <= bound + tol))


# ---------------------------------------------------------------------------
# reference: the suites with one scalar draw per element


def _old_random_scale(rng, n_min=3, n_max=9, step_lo=0.1, step_hi=1.0):
    n = int(rng.integers(n_min, n_max + 1))
    start = float(rng.uniform(-2.0, 2.0))
    steps = rng.uniform(step_lo, step_hi, n - 1)
    return TimeScale(start + np.concatenate([[0.0], np.cumsum(steps)]))


def _old_suites(ref):
    """The seven suites as they drew their data before, calling ``ref.<name>``."""

    def jensen(trials, seed):
        rng = np.random.default_rng(seed)
        catalog = [math.exp, lambda x: x * x, abs, lambda x: x ** 4]
        for _ in range(trials):
            ts = _old_random_scale(rng)
            g = GridFunction(ts, rng.uniform(-2.0, 2.0, len(ts)))
            F = catalog[int(rng.integers(len(catalog)))]
            weights = None
            if rng.random() < 0.5:
                weights = GridFunction(ts, rng.uniform(0.05, 3.0, len(ts)))
            ref.jensen_certify(ts, F, g, weights, float(rng.random()))

    def holder(trials, seed):
        rng = np.random.default_rng(seed)
        for _ in range(trials):
            ts = _old_random_scale(rng)
            f = GridFunction(ts, rng.uniform(-3.0, 3.0, len(ts)))
            g = GridFunction(ts, rng.uniform(-3.0, 3.0, len(ts)))
            h = GridFunction(ts, rng.uniform(0.0, 2.0, len(ts)))
            p = 1.0 + float(rng.uniform(0.1, 3.0))
            ref.holder_certify(ts, f, g, h, p, float(rng.random()))

    def cauchy_schwarz(trials, seed):
        rng = np.random.default_rng(seed)
        for _ in range(trials):
            ts = _old_random_scale(rng)
            f = GridFunction(ts, rng.uniform(-3.0, 3.0, len(ts)))
            g = GridFunction(ts, rng.uniform(-3.0, 3.0, len(ts)))
            ref.cauchy_schwarz_certify(ts, f, g, float(rng.random()))

    def minkowski(trials, seed):
        rng = np.random.default_rng(seed)
        for _ in range(trials):
            ts = _old_random_scale(rng)
            f = GridFunction(ts, rng.uniform(-3.0, 3.0, len(ts)))
            g = GridFunction(ts, rng.uniform(-3.0, 3.0, len(ts)))
            p = 1.0 + float(rng.uniform(0.1, 3.0))
            ref.minkowski_certify(ts, f, g, p, float(rng.random()))

    def gronwall(trials, seed):
        rng = np.random.default_rng(seed)
        for _ in range(trials):
            ts = _old_random_scale(rng)
            n = len(ts)
            mu = np.diff(ts.points)
            a = rng.uniform(-1.0, 2.0, n)
            b = rng.uniform(0.0, 1.5, n)
            u = np.empty(n)
            u[0] = a[0] - rng.uniform(0.0, 0.5)
            for i in range(1, n):
                acc = a[i] + float(mu[:i] @ (b[:i] * u[:i]))
                u[i] = acc - rng.uniform(0.0, 0.5)
            bound = ref.gronwall_bound(ts, a, b, ts.points[0])
            ref.holds_pointwise(u, bound.values)

    def comparison(trials, seed):
        rng = np.random.default_rng(seed)
        for _ in range(trials):
            ts = _old_random_scale(rng)
            n = len(ts)
            mu = np.diff(ts.points)
            p = rng.uniform(-0.9, 1.5, n)
            f = rng.uniform(-1.0, 1.0, n)
            y = np.empty(n)
            y[0] = float(rng.uniform(-1.0, 1.0))
            for i in range(n - 1):
                y[i + 1] = y[i] + mu[i] * (p[i] * y[i] + f[i] - rng.uniform(0.0, 0.5))
            bound = ref.comparison_bound(ts, y[0], p, f, ts.points[0])
            ref.holds_pointwise(y, bound.values)

    def gronwall_2d(trials, seed):
        rng = np.random.default_rng(seed)
        for _ in range(trials):
            ts1 = _old_random_scale(rng, n_min=3, n_max=6, step_lo=0.2)
            ts2 = _old_random_scale(rng, n_min=3, n_max=6, step_lo=0.2)
            n1, n2 = len(ts1), len(ts2)
            mu1 = np.diff(ts1.points)
            mu2 = np.diff(ts2.points)
            a_const = float(rng.uniform(0.5, 2.0))
            f = rng.uniform(0.0, 1.0, (n1, n2))
            u = np.empty((n1, n2))
            for i1 in range(n1):
                for i2 in range(n2):
                    acc = a_const
                    for j1 in range(i1):
                        for j2 in range(i2):
                            acc += mu1[j1] * mu2[j2] * f[j1, j2] * u[j1, j2]
                    u[i1, i2] = acc - rng.uniform(0.0, 0.3)
            b1, b2 = ref.gronwall_2d_bound(ts1, ts2, lambda t1, t2: a_const, f)
            if ref.holds_pointwise(u.ravel(), b1.ravel()):
                ref.holds_pointwise(u.ravel(), b2.ravel())

    return {"jensen": jensen, "holder": holder, "cauchy-schwarz": cauchy_schwarz,
            "minkowski": minkowski, "gronwall": gronwall, "comparison": comparison,
            "gronwall2d": gronwall_2d}


# ---------------------------------------------------------------------------
# the oracle


def _key(x):
    """A bit-exact, comparable image of an argument or result."""
    if isinstance(x, TimeScale):
        return ("scale", x.points.tobytes())
    if isinstance(x, GridFunction):
        return ("gf", x.scale.points.tobytes(), x.values.dtype.str, x.values.tobytes())
    if isinstance(x, np.ndarray):
        return ("array", x.dtype.str, x.shape, x.tobytes())
    if isinstance(x, BoundReport):
        return ("report",) + tuple(_key(v) for v in (x.lhs, x.rhs, x.holds, x.margin))
    if isinstance(x, (tuple, list)):
        return tuple(_key(v) for v in x)
    if isinstance(x, bool) or x is None:
        return x
    if isinstance(x, float):  # numpy float64 included
        return float(x).hex()
    if callable(x):  # a Jensen F or a 2-D a(t1, t2): its value at fixed points
        nargs = x.__code__.co_argcount if hasattr(x, "__code__") else 1
        return ("fn", float(x(*(-1.25, 0.5)[:nargs])).hex())
    raise TypeError(f"no key for {x!r}")


RECORDED = ("jensen_certify", "holder_certify", "cauchy_schwarz_certify", "minkowski_certify",
            "gronwall_bound", "comparison_bound", "gronwall_2d_bound")


def _recording(log, name, fn):
    def record(*args, **kwargs):
        out = fn(*args, **kwargs)
        log.append((name, _key(args), _key(sorted(kwargs.items())), _key(out)))
        return out

    return record


class _Reference:
    def __init__(self, log):
        self.jensen_certify = _recording(log, "jensen_certify", old_jensen_certify)
        self.holder_certify = _recording(log, "holder_certify", old_holder_certify)
        self.cauchy_schwarz_certify = _recording(
            log, "cauchy_schwarz_certify",
            lambda ts, f, g, alpha: self.holder_certify(ts, f, g, None, 2.0, alpha))
        self.minkowski_certify = _recording(log, "minkowski_certify", old_minkowski_certify)
        # the 1-D bounds did not change: they are pinned by test_bound_oracles.py
        self.gronwall_bound = _recording(log, "gronwall_bound", inequalities.gronwall_bound)
        self.comparison_bound = _recording(log, "comparison_bound",
                                           inequalities.comparison_bound)
        self.gronwall_2d_bound = _recording(log, "gronwall_2d_bound", old_gronwall_2d_bound)
        self.holds_pointwise = _recording(log, "_holds_pointwise", old_holds_pointwise)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_suite_data_and_reports_match_the_old_loops(monkeypatch, seed):
    expected = []
    reference = _Reference(expected)
    for suite in _old_suites(reference).values():
        suite(300, seed)

    got = []
    for name in RECORDED:
        monkeypatch.setattr(inequalities, name,
                            _recording(got, name, getattr(inequalities, name)))
    monkeypatch.setattr(cli, "_holds_pointwise",
                        _recording(got, "_holds_pointwise", cli._holds_pointwise))
    for suite in cli._SUITES.values():
        assert suite(300, seed) == 300

    # every trial holds, so both 2-D checks run: 12 records per trial
    assert len(got) == len(expected) == 300 * 12
    for k, (g, e) in enumerate(zip(got, expected)):
        assert g == e, f"record {k} ({e[0]}) differs"

"""ineq-check and the 2-D Gronwall bounds against the per-element loops they replaced.

The 2-D bounds build their step products with ``cumprod``, the suites draw
each trial's slack in one vector call, and the Gronwall, comparison and 2-D
Gronwall suites run blocks of stacked trials through one kernel per bound;
none of this may change a single bit.  The references below are the earlier
double loops, forward-step loops, certifiers and suites.  The suite oracle
records every certifier call, every bound and every pointwise check that the
old suites made (arguments and results).  For the certifier suites it records
the calls ``ineq-check`` makes; for the stacked suites it reads each trial's
row of every block (grid points, data, reference trajectory, bounds and
verdicts) and compares both records bit for bit.
"""

import math

import numpy as np
import pytest

from tsvar import cli, ineqcheck, inequalities
from tsvar.errors import InvalidAlpha, InvalidExponent, NonRegressive
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
# reference: the 1-D bounds as one forward step per interval on Python floats


def _old_forward_solve(mu, c, d, y0, i0):
    mu, c, d = mu.tolist(), c.tolist(), d.tolist()
    y = [float(y0)]
    for j in range(i0, len(mu)):
        factor = 1.0 + mu[j] * c[j]
        if factor <= 1e-14:
            raise NonRegressive(f"1 + mu*p = {factor} at t index {j} must stay positive")
        y.append(factor * y[-1] + mu[j] * d[j])
    return np.array(y)


def old_gronwall_bound(ts, a, b, t0):
    i0 = ts.index(t0)
    acc = _old_forward_solve(np.diff(ts.points), b, a * b, 0.0, i0)
    return GridFunction(TimeScale(ts.points[i0:]), a[i0:] + acc)


def old_comparison_bound(ts, y0, p, f, t0):
    i0 = ts.index(t0)
    out = _old_forward_solve(np.diff(ts.points), p, f, y0, i0)
    return GridFunction(TimeScale(ts.points[i0:]), out)


@pytest.mark.parametrize("n,i0", [(9, 0), (2000, 0), (2000, 37)])
def test_public_1d_bounds_keep_the_forward_loop_bits(n, i0):
    rng = np.random.default_rng(n + i0)
    ts = _random_grid(rng, n)
    a, b = rng.uniform(-1.0, 2.0, n), rng.uniform(-0.5, 1.5, n)
    t0 = ts.points[i0]
    for got, want in ((inequalities.gronwall_bound(ts, a, b, t0),
                       old_gronwall_bound(ts, a, b, t0)),
                      (inequalities.comparison_bound(ts, 0.25, b, a, t0),
                       old_comparison_bound(ts, 0.25, b, a, t0))):
        assert np.array_equal(got.scale.points, want.scale.points)
        assert np.array_equal(got.values, want.values)


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


CERTIFIERS = ("jensen_certify", "holder_certify", "cauchy_schwarz_certify",
              "minkowski_certify")


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
        self.gronwall_bound = _recording(log, "gronwall_bound", old_gronwall_bound)
        self.comparison_bound = _recording(log, "comparison_bound", old_comparison_bound)
        self.gronwall_2d_bound = _recording(log, "gronwall_2d_bound", old_gronwall_2d_bound)
        self.holds_pointwise = _recording(log, "_holds_pointwise", old_holds_pointwise)


def _constant_surface(c):
    return lambda t1, t2: c


def _record(log, name, args, out):
    log.append((name, _key(args), _key([]), _key(out)))


def _trial_records(suite, block, values, bounds, verdicts, log):
    """The old suite's records of each trial, read from one stacked block."""
    for k in range(len(values)):
        mask = block["mask"][k]
        if suite == "gronwall2d":
            n1, n2 = mask.any(axis=1).sum(), mask.any(axis=0).sum()
            ts1 = TimeScale(block["points1"][k, :n1])
            ts2 = TimeScale(block["points2"][k, :n2])
            a = _constant_surface(block["a"][k])
            _record(log, "gronwall_2d_bound", (ts1, ts2, a, block["f"][k, :n1, :n2]),
                    tuple(b[k, :n1, :n2] for b in bounds))
            u = values[k, :n1, :n2].ravel()
            for bound, verdict in zip(bounds, verdicts):
                _record(log, "_holds_pointwise", (u, bound[k, :n1, :n2].ravel()),
                        bool(verdict[k]))
                if not verdict[k]:
                    break  # the old suite stopped at the first failed check
            continue
        n = mask.sum()
        ts = TimeScale(block["points"][k, :n])
        if suite == "gronwall":
            args = (ts, block["a"][k, :n], block["b"][k, :n], ts.points[0])
        else:
            args = (ts, block["y0"][k], block["p"][k, :n], block["f"][k, :n], ts.points[0])
        bound = bounds[0][k, :n]
        _record(log, f"{suite}_bound", args, GridFunction(ts, bound))
        _record(log, "_holds_pointwise", (values[k, :n], bound), bool(verdicts[0][k]))


STACKED = {"gronwall": "_gronwall_pass", "comparison": "_comparison_pass",
           "gronwall2d": "_gronwall_2d_pass"}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_suite_data_and_reports_match_the_old_loops(monkeypatch, seed):
    _match_old_loops(monkeypatch, seed)


def test_stacked_suites_match_the_old_loops_across_block_boundaries(monkeypatch):
    monkeypatch.setattr(ineqcheck, "TRIAL_BLOCK", 7)  # 300 trials make 43 blocks
    _match_old_loops(monkeypatch, 0)


def _match_old_loops(monkeypatch, seed):
    expected = []
    reference = _Reference(expected)
    for suite in _old_suites(reference).values():
        suite(300, seed)

    got = []
    for name in CERTIFIERS:
        monkeypatch.setattr(inequalities, name,
                            _recording(got, name, getattr(inequalities, name)))
    passes = []  # [block, values, bounds, verdicts of each bound] per block

    def recording_pass(bound_pass):
        def record(data):
            values, bounds = bound_pass(data)
            passes.append((data, values, bounds, []))
            return values, bounds

        return record

    holds = ineqcheck._holds_pointwise

    def recording_holds(values, bound, mask):
        verdicts = holds(values, bound, mask)
        passes[-1][3].append(verdicts)
        return verdicts

    monkeypatch.setattr(ineqcheck, "_holds_pointwise", recording_holds)
    for name, attr in STACKED.items():
        monkeypatch.setattr(ineqcheck, attr, recording_pass(getattr(ineqcheck, attr)))
    assert cli._SUITES is ineqcheck.SUITES
    for name, suite in cli._SUITES.items():
        assert suite(300, seed) == 300
        for record in passes:
            _trial_records(name, *record, got)
        passes.clear()

    # every trial holds, so both 2-D checks run: 12 records per trial
    assert len(got) == len(expected) == 300 * 12
    for k, (g, e) in enumerate(zip(got, expected)):
        assert g == e, f"record {k} ({e[0]}) differs"

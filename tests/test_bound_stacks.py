"""The stacked bound kernels against the public one-trial bounds, bit for bit.

ineq-check runs blocks of trials through ``_gronwall_stack``,
``_comparison_stack`` and ``_gronwall_2d_stack``, one row per trial and
zero-padded past each trial's grid.  The public bounds call the same kernels
with one row, which steps on Python floats; a stack of several rows steps a
column at a time.  Every row of a ragged stack must equal the public bound of
its trial exactly, whichever path computed either.
"""

import numpy as np
import pytest

from tsvar import inequalities as ineq
from tsvar.timescale import TimeScale


def _trial(rng, n):
    steps = rng.uniform(0.01, 0.5, n - 1)
    pts = float(rng.uniform(-2.0, 2.0)) + np.concatenate([[0.0], np.cumsum(steps)])
    return TimeScale(pts)


def _stack(rows, width):
    out = np.zeros((len(rows), width))
    for k, row in enumerate(rows):
        out[k, :len(row)] = row
    return out


def _gaps(scales, width):
    return _stack([np.diff(ts.points) for ts in scales], width - 1)


def _ragged_1d(rng, sizes):
    scales = [_trial(rng, n) for n in sizes]
    first = [rng.uniform(-1.0, 2.0, len(ts)) for ts in scales]
    second = [rng.uniform(-0.5, 1.5, len(ts)) for ts in scales]
    return scales, first, second


@pytest.mark.parametrize("i0", [0, 2])
def test_ragged_gronwall_stack_rows_equal_the_public_bound(i0):
    rng = np.random.default_rng(160)
    for _ in range(20):
        sizes = rng.integers(i0 + 1, 12, int(rng.integers(2, 9)))
        scales, a, b = _ragged_1d(rng, sizes)
        width = int(sizes.max())
        got = ineq._gronwall_stack(_gaps(scales, width), _stack(a, width), _stack(b, width), i0)
        for k, ts in enumerate(scales):
            want = ineq.gronwall_bound(ts, a[k], b[k], ts.points[i0]).values
            assert np.array_equal(got[k, :len(ts) - i0], want)


@pytest.mark.parametrize("i0", [0, 2])
def test_ragged_comparison_stack_rows_equal_the_public_bound(i0):
    rng = np.random.default_rng(161)
    for _ in range(20):
        sizes = rng.integers(i0 + 1, 12, int(rng.integers(2, 9)))
        scales, f, p = _ragged_1d(rng, sizes)
        y0 = rng.uniform(-1.0, 1.0, len(scales))
        width = int(sizes.max())
        got = ineq._comparison_stack(_gaps(scales, width), y0, _stack(p, width),
                                     _stack(f, width), i0)
        for k, ts in enumerate(scales):
            want = ineq.comparison_bound(ts, y0[k], p[k], f[k], ts.points[i0]).values
            assert np.array_equal(got[k, :len(ts) - i0], want)


def test_one_trial_at_n2000_equals_its_row_in_a_stack():
    # the public bounds step one row on Python floats, a stack steps columns
    rng = np.random.default_rng(162)
    scales, a, b = _ragged_1d(rng, [2000, 7, 1500])
    y0 = rng.uniform(-1.0, 1.0, 3)
    mu, A, B = _gaps(scales, 2000), _stack(a, 2000), _stack(b, 2000)
    for i0 in (0, 5):
        g = ineq._gronwall_stack(mu, A, B, i0)
        c = ineq._comparison_stack(mu, y0, B - 0.5, A, i0)
        for k in (0, 2):
            ts, t0 = scales[k], scales[k].points[i0]
            n = len(ts) - i0
            assert np.array_equal(g[k, :n], ineq.gronwall_bound(ts, a[k], b[k], t0).values)
            assert np.array_equal(c[k, :n],
                                  ineq.comparison_bound(ts, y0[k], b[k] - 0.5, a[k], t0).values)


def test_ragged_gronwall_2d_stack_rows_equal_the_public_bounds():
    rng = np.random.default_rng(163)
    for _ in range(20):
        count = int(rng.integers(2, 9))
        shapes = [tuple(int(v) for v in rng.integers(1, 8, 2)) for _ in range(count)]
        grids = [(_trial(rng, n1), _trial(rng, n2)) for n1, n2 in shapes]
        a = [rng.uniform(0.1, 2.0, s) for s in shapes]
        f = [rng.uniform(0.0, 3.0, s) for s in shapes]
        width = max(max(s) for s in shapes)
        mu1 = _gaps([ts1 for ts1, _ in grids], width)
        mu2 = _gaps([ts2 for _, ts2 in grids], width)
        A, F = np.zeros((count, width, width)), np.zeros((count, width, width))
        for k, (n1, n2) in enumerate(shapes):
            A[k, :n1, :n2], F[k, :n1, :n2] = a[k], f[k]
        got = ineq._gronwall_2d_stack(mu1, mu2, A, F)
        for k, ((ts1, ts2), (n1, n2)) in enumerate(zip(grids, shapes)):
            for stacked, want in zip(got, ineq.gronwall_2d_bound(ts1, ts2, a[k], f[k])):
                assert np.array_equal(stacked[k, :n1, :n2], want)

"""Randomized certification suites for the dynamic inequalities (``tsvar ineq-check``).

A suite is ``run(trials, seed)``: it draws every trial from one seeded stream,
in order, and returns the number of trials whose inequality held to a 1e-10
tolerance.  The Jensen, Hoelder, Cauchy-Schwarz and Minkowski suites make one
``*_certify`` call per trial.  The Gronwall, comparison and 2-D Gronwall suites
draw ``TRIAL_BLOCK`` trials at a time into zero-padded arrays, one row per
trial, and give each block one array pass: the reference trajectory, the
bound from the stacked kernel that also serves the public bound, and the
pointwise check.  Padding never reaches a real entry (a zero gap adds nothing
to a sum and multiplies a step product by 1), so every trial gets the same
bits as the public one-trial bound would give it.
"""

from __future__ import annotations

import math

import numpy as np

from . import inequalities
from .timescale import KIND_EXPLICIT, GridFunction, TimeScale

# Trials per array pass: a fixed block keeps memory flat in --trials and each
# stacked array small (256 x 6 x 6 floats for the 2-D suite).
TRIAL_BLOCK = 256


def _grid_draw(rng, n_min: int, n_max: int, step_lo: float, step_hi: float) -> tuple:
    """(n, start, steps) of one random grid, in the stream's order."""
    n = int(rng.integers(n_min, n_max + 1))
    start = float(rng.uniform(-2.0, 2.0))
    return n, start, rng.uniform(step_lo, step_hi, n - 1)


def _random_scale(rng, n_min=3, n_max=9, step_lo=0.1, step_hi=1.0) -> TimeScale:
    n, start, steps = _grid_draw(rng, n_min, n_max, step_lo, step_hi)
    offsets = np.zeros(n)
    steps.cumsum(out=offsets[1:])
    # no suite reads kind, step or ratio, so the scale skips kind detection
    return TimeScale(start + offsets, kind=KIND_EXPLICIT)


def _padded(rows: list, mask: np.ndarray) -> np.ndarray:
    """Ragged rows (each flattened in C order) stacked into zeros where mask is set."""
    out = np.zeros(mask.shape)
    out[mask] = np.concatenate(rows)
    return out


def _stacked_grids(grids: list, width: int) -> tuple:
    """(mask, points) of drawn grids ``(n, start, steps)``, one trial per row of
    ``width`` points.  A point past a grid's end repeats its last point, so the
    padded gaps are 0."""
    n, start, steps = zip(*grids)
    mask = np.arange(width) < np.array(n)[:, None]
    offsets = np.zeros(mask.shape)
    np.cumsum(_padded(steps, mask[:, 1:]), axis=1, out=offsets[:, 1:])
    return mask, np.array(start)[:, None] + offsets


def _holds_pointwise(values: np.ndarray, bound: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per trial (row): values <= bound to the tolerance at every real entry."""
    tol = 1e-10 * np.maximum(1.0, np.abs(bound))
    ok = (values <= bound + tol) | ~mask
    return ok.reshape(len(ok), -1).all(axis=1)


def _run_blocks(trials: int, seed: int, draw, bound_pass) -> int:
    """Held count of a batched suite: ``draw(rng, count)`` gives a block's data
    and ``bound_pass(block)`` its reference values and bounds."""
    rng = np.random.default_rng(seed)
    held = 0
    for first in range(0, trials, TRIAL_BLOCK):
        block = draw(rng, min(TRIAL_BLOCK, trials - first))
        values, bounds = bound_pass(block)
        ok = np.ones(len(values), dtype=bool)
        for bound in bounds:
            ok &= _holds_pointwise(values, bound, block["mask"])
        held += int(ok.sum())
    return held


def _suite(trial):
    """A suite from one certifier trial ``trial(rng) -> bool``."""
    def run(trials: int, seed: int) -> int:
        rng = np.random.default_rng(seed)
        return sum(trial(rng) for _ in range(trials))

    return run


# ---------------------------------------------------------------------------
# Certifier suites: one certify call per trial


_JENSEN_CATALOG = (math.exp, lambda x: x * x, abs, lambda x: x ** 4)


@_suite
def _suite_jensen(rng) -> bool:
    ts = _random_scale(rng)
    g = GridFunction(ts, rng.uniform(-2.0, 2.0, len(ts)))
    F = _JENSEN_CATALOG[int(rng.integers(len(_JENSEN_CATALOG)))]
    weights = None
    if rng.random() < 0.5:
        weights = GridFunction(ts, rng.uniform(0.05, 3.0, len(ts)))
    alpha = float(rng.random())
    return inequalities.jensen_certify(ts, F, g, weights, alpha).holds


@_suite
def _suite_holder(rng) -> bool:
    ts = _random_scale(rng)
    f = GridFunction(ts, rng.uniform(-3.0, 3.0, len(ts)))
    g = GridFunction(ts, rng.uniform(-3.0, 3.0, len(ts)))
    h = GridFunction(ts, rng.uniform(0.0, 2.0, len(ts)))
    p = 1.0 + float(rng.uniform(0.1, 3.0))
    alpha = float(rng.random())
    return inequalities.holder_certify(ts, f, g, h, p, alpha).holds


@_suite
def _suite_cauchy_schwarz(rng) -> bool:
    ts = _random_scale(rng)
    f = GridFunction(ts, rng.uniform(-3.0, 3.0, len(ts)))
    g = GridFunction(ts, rng.uniform(-3.0, 3.0, len(ts)))
    alpha = float(rng.random())
    return inequalities.cauchy_schwarz_certify(ts, f, g, alpha).holds


@_suite
def _suite_minkowski(rng) -> bool:
    ts = _random_scale(rng)
    f = GridFunction(ts, rng.uniform(-3.0, 3.0, len(ts)))
    g = GridFunction(ts, rng.uniform(-3.0, 3.0, len(ts)))
    p = 1.0 + float(rng.uniform(0.1, 3.0))
    alpha = float(rng.random())
    return inequalities.minkowski_certify(ts, f, g, p, alpha).holds


# ---------------------------------------------------------------------------
# Bound suites: blocks of stacked trials


def _draw_gronwall(rng, count: int) -> dict:
    grids, a, b, slack = [], [], [], []
    for _ in range(count):
        grids.append(_grid_draw(rng, 3, 9, 0.1, 1.0))
        m = grids[-1][0]
        a.append(rng.uniform(-1.0, 2.0, m))
        b.append(rng.uniform(0.0, 1.5, m))
        slack.append(rng.uniform(0.0, 0.5, m))
    mask, points = _stacked_grids(grids, 9)
    return {"mask": mask, "points": points, "a": _padded(a, mask),
            "b": _padded(b, mask), "slack": _padded(slack, mask)}


def _gronwall_pass(block: dict) -> tuple:
    """u[i] = a[i] + sum_{j<i} mu_j b_j u_j - slack[i], which satisfies Gronwall's
    hypothesis, against gronwall_bound from t0 = the first point."""
    mu = np.diff(block["points"], axis=1)
    a, b, slack = block["a"], block["b"], block["slack"]
    u = a - slack  # column 0; the later columns are set in order below
    bu = b * u
    for i in range(1, u.shape[1]):
        # a stacked (1, i) @ (i, 1) matmul is the one-trial vector @ product
        dot = np.matmul(mu[:, None, :i], bu[:, :i, None])[:, 0, 0]
        u[:, i] = a[:, i] + dot - slack[:, i]
        bu[:, i] = b[:, i] * u[:, i]
    return u, (inequalities._gronwall_stack(mu, a, b, 0),)


def _draw_comparison(rng, count: int) -> dict:
    grids, p, f, y0, slack = [], [], [], [], []
    for _ in range(count):
        grids.append(_grid_draw(rng, 3, 9, 0.1, 1.0))
        m = grids[-1][0]
        p.append(rng.uniform(-0.9, 1.5, m))
        f.append(rng.uniform(-1.0, 1.0, m))
        y0.append(rng.uniform(-1.0, 1.0))
        slack.append(rng.uniform(0.0, 0.5, m - 1))
    mask, points = _stacked_grids(grids, 9)
    return {"mask": mask, "points": points, "y0": np.array(y0),
            "p": _padded(p, mask), "f": _padded(f, mask),
            "slack": _padded(slack, mask[:, 1:])}


def _comparison_pass(block: dict) -> tuple:
    """y^Delta = p y + f - slack from y0 against comparison_bound from the first point."""
    mu = np.diff(block["points"], axis=1)
    p, f, slack = block["p"], block["f"], block["slack"]
    y = np.empty_like(p)
    y[:, 0] = block["y0"]
    for i in range(y.shape[1] - 1):
        y[:, i + 1] = y[:, i] + mu[:, i] * (p[:, i] * y[:, i] + f[:, i] - slack[:, i])
    return y, (inequalities._comparison_stack(mu, block["y0"], p, f, 0),)


def _draw_gronwall_2d(rng, count: int) -> dict:
    grids1, grids2, a, f, slack = [], [], [], [], []
    for _ in range(count):
        grids1.append(_grid_draw(rng, 3, 6, 0.2, 1.0))
        grids2.append(_grid_draw(rng, 3, 6, 0.2, 1.0))
        shape = (grids1[-1][0], grids2[-1][0])
        a.append(rng.uniform(0.5, 2.0))
        f.append(rng.uniform(0.0, 1.0, shape).ravel())
        slack.append(rng.uniform(0.0, 0.3, shape).ravel())
    mask1, points1 = _stacked_grids(grids1, 6)
    mask2, points2 = _stacked_grids(grids2, 6)
    mask = mask1[:, :, None] & mask2[:, None, :]
    return {"mask": mask, "points1": points1, "points2": points2,
            "a": np.array(a), "f": _padded(f, mask), "slack": _padded(slack, mask)}


def _gronwall_2d_pass(block: dict) -> tuple:
    """u = a + double sum of mu1 mu2 f u - slack against both 2-D bounds, a constant."""
    mu1 = np.diff(block["points1"], axis=1)
    mu2 = np.diff(block["points2"], axis=1)
    f, slack = block["f"], block["slack"]
    count, N, _ = f.shape
    # u[i1, i2] = a + (sum over j1 < i1, j2 < i2 of mu1 mu2 f u) - slack, summed
    # row j1 by row j1 and along each row by j2: acc[:, i2] carries that sum
    # from row i1 to row i1 + 1, so every point adds the same terms in the same
    # order as a fresh double sum
    acc = np.repeat(block["a"][:, None], N, axis=1)
    u = np.empty_like(f)
    for i1 in range(N):
        u[:, i1] = row = acc - slack[:, i1]
        if i1 < N - 1:
            for j2 in range(N - 1):
                term = mu1[:, i1] * mu2[:, j2] * f[:, i1, j2] * row[:, j2]
                acc[:, j2 + 1:] += term[:, None]
    a = np.repeat(block["a"], N * N).reshape(count, N, N)
    return u, inequalities._gronwall_2d_stack(mu1, mu2, a, f)


def _suite_gronwall(trials: int, seed: int) -> int:
    return _run_blocks(trials, seed, _draw_gronwall, _gronwall_pass)


def _suite_comparison(trials: int, seed: int) -> int:
    return _run_blocks(trials, seed, _draw_comparison, _comparison_pass)


def _suite_gronwall_2d(trials: int, seed: int) -> int:
    return _run_blocks(trials, seed, _draw_gronwall_2d, _gronwall_2d_pass)


SUITES = {
    "jensen": _suite_jensen,
    "holder": _suite_holder,
    "cauchy-schwarz": _suite_cauchy_schwarz,
    "minkowski": _suite_minkowski,
    "gronwall": _suite_gronwall,
    "comparison": _suite_comparison,
    "gronwall2d": _suite_gronwall_2d,
}

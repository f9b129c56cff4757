"""Randomized certification suites for the dynamic inequalities (``tsvar ineq-check``).

A suite is ``run(trials, seed)``: it draws ``TRIAL_BLOCK`` trials at a time
from one seeded generator and returns how many held to the certifiers'
tolerance, ``inequalities._CERT_TOL``.  A block is a dict of arrays, one row
per trial, filled by one generator call per field: ``rng.integers`` for each
integer (a grid's point count, Jensen's F) and ``rng.uniform`` for each field
of doubles, times the trials' mask so that padding is 0.  A grid is its start
plus the running sum of its padded steps.  The instances a seed gives depend
on the block size.

The Jensen, Hoelder, Cauchy-Schwarz and Minkowski suites make one
``*_certify`` call per trial, looked up on ``inequalities`` as the suite runs.
The Gronwall, comparison and 2-D Gronwall suites give each block one array
pass: the reference trajectory, the stacked kernel that also serves the
public bound, and the pointwise check.  Padding never reaches a real entry (a
zero gap adds nothing to a sum and multiplies a step product by 1), so each
trial gets the bits the public one-trial bound would give it.
"""

from __future__ import annotations

import math

import numpy as np

from . import inequalities
from .timescale import GridFunction, _explicit_rows

# Trials per block: a fixed block keeps memory flat in --trials and each
# stacked array small (256 x 6 x 6 floats for the 2-D suite).
TRIAL_BLOCK = 256


def _upto(n: np.ndarray, width: int) -> np.ndarray:
    """Row k sets the first n[k] of ``width`` entries."""
    return np.arange(width) < n[:, None]


def _grid(rng, count: int, width: int, step_lo: float, key: str = "") -> dict:
    """``count`` grids of 3 to ``width`` points, starts in [-2, 2) and steps in
    [step_lo, 1): each grid's point count n, start, padded steps and points."""
    n = rng.integers(3, width + 1, count)
    start = rng.uniform(-2.0, 2.0, count)
    steps = rng.uniform(step_lo, 1.0, (count, width - 1)) * _upto(n - 1, width - 1)
    offsets = np.cumsum(np.pad(steps, ((0, 0), (1, 0))), axis=1)  # 0 + step is the step
    return {"n" + key: n, "start" + key: start, "steps" + key: steps,
            "points" + key: start[:, None] + offsets}


def _on_one_grid(**fields):
    """The draw of a suite on one grid of 3-9 points with fields name=(lo, hi, d):
    d = 0 or -1 gives each trial n + d entries, d None one double."""
    def draw(rng, count: int) -> dict:
        block = _grid(rng, count, 9, 0.1)
        n = block["n"]
        block["mask"] = _upto(n, 9)
        for name, (lo, hi, d) in fields.items():
            block[name] = (rng.uniform(lo, hi, count) if d is None
                           else rng.uniform(lo, hi, (count, 9 + d)) * _upto(n + d, 9 + d))
        return block

    return draw


def _suite(draw, check):
    """A suite whose ``check(block)`` counts the block's trials that held."""
    def run(trials: int, seed: int) -> int:
        rng = np.random.default_rng(seed)
        return sum(check(draw(rng, min(TRIAL_BLOCK, trials - first)))
                   for first in range(0, trials, TRIAL_BLOCK))

    return run


# ---------------------------------------------------------------------------
# Certifier suites: one certify call per trial


def _trials(block: dict, *keys: str):
    """Per trial: its grid, declared explicit (no suite reads kind, step or
    ratio) and checked with the rest of the block, and a GridFunction on it of
    each field in ``keys``."""
    fields = [block[key] for key in keys]
    scales = _explicit_rows(block["points"], block["n"])
    for k, (ts, n) in enumerate(zip(scales, block["n"].tolist())):
        yield (ts, *[GridFunction(ts, field[k, :n]) for field in fields])


_JENSEN_CATALOG = (math.exp, lambda x: x * x, abs, lambda x: x ** 4)
_jensen_fields = _on_one_grid(g=(-2.0, 2.0, 0), weights=(0.05, 3.0, 0), alpha=(0.0, 1.0, None))


def _jensen_draw(rng, count: int) -> dict:
    """Jensen's trials: F indexes the catalog, and about half carry weights."""
    block = _jensen_fields(rng, count)
    block["F"] = rng.integers(0, len(_JENSEN_CATALOG), count)
    block["weighted"] = rng.uniform(0.0, 1.0, count) < 0.5
    block["weights"] *= block["weighted"][:, None]
    return block


def _jensen_check(b: dict) -> int:
    rows = zip(_trials(b, "g", "weights"), b["F"].tolist(), b["weighted"].tolist(),
               b["alpha"].tolist())
    certify = inequalities.jensen_certify
    return sum(certify(ts, _JENSEN_CATALOG[F], g, w if weighted else None, alpha).holds
               for (ts, g, w), F, weighted, alpha in rows)


def _certifies(name: str, functions: tuple, scalars: tuple):
    """The check of one ``inequalities.<name>(ts, *functions, *scalars)`` call per
    trial, its grid functions and scalars read from the block by key."""
    def check(b: dict) -> int:
        certify = getattr(inequalities, name)
        rows = zip(_trials(b, *functions), *(b[key].tolist() for key in scalars))
        return sum(certify(*grid, *args).holds for grid, *args in rows)

    return check


# ---------------------------------------------------------------------------
# Bound suites: one array pass per block


def _holds_pointwise(values: np.ndarray, bound: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per trial (row): values <= bound to the tolerance at every real entry."""
    tol = inequalities._CERT_TOL * np.maximum(1.0, np.abs(bound))
    ok = (values <= bound + tol) | ~mask
    return ok.reshape(len(ok), -1).all(axis=1)


def _held(block: dict, passed: tuple) -> int:
    """Trials of a block whose reference values stay under every bound of
    ``passed`` = (values, bounds)."""
    values, bounds = passed
    ok = np.ones(len(values), dtype=bool)
    for bound in bounds:
        ok &= _holds_pointwise(values, bound, block["mask"])
    return int(ok.sum())


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


def _comparison_pass(block: dict) -> tuple:
    """y^Delta = p y + f - slack from y0 against comparison_bound from the first point."""
    mu = np.diff(block["points"], axis=1)
    p, f, slack = block["p"], block["f"], block["slack"]
    y = np.empty_like(p)
    y[:, 0] = block["y0"]
    for i in range(y.shape[1] - 1):
        y[:, i + 1] = y[:, i] + mu[:, i] * (p[:, i] * y[:, i] + f[:, i] - slack[:, i])
    return y, (inequalities._comparison_stack(mu, block["y0"], p, f, 0),)


def _gronwall_2d_draw(rng, count: int) -> dict:
    """Two grids of 3-6 points with steps in [0.2, 1), a constant a and f, slack on both."""
    block = {**_grid(rng, count, 6, 0.2, "1"), **_grid(rng, count, 6, 0.2, "2")}
    block["mask"] = mask = _upto(block["n1"], 6)[:, :, None] & _upto(block["n2"], 6)[:, None, :]
    block["a"] = rng.uniform(0.5, 2.0, count)
    block["f"] = rng.uniform(0.0, 1.0, mask.shape) * mask
    block["slack"] = rng.uniform(0.0, 0.3, mask.shape) * mask
    return block


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


_FG = {"f": (-3.0, 3.0, 0), "g": (-3.0, 3.0, 0)}
_P, _ALPHA = (1.1, 4.0, None), (0.0, 1.0, None)

# the certifiers and the stacked passes are looked up as the suites run, so a
# caller may wrap them
SUITES = {
    "jensen": _suite(_jensen_draw, _jensen_check),
    "holder": _suite(_on_one_grid(**_FG, h=(0.0, 2.0, 0), p=_P, alpha=_ALPHA),
                     _certifies("holder_certify", ("f", "g", "h"), ("p", "alpha"))),
    "cauchy-schwarz": _suite(_on_one_grid(**_FG, alpha=_ALPHA),
                             _certifies("cauchy_schwarz_certify", ("f", "g"), ("alpha",))),
    "minkowski": _suite(_on_one_grid(**_FG, p=_P, alpha=_ALPHA),
                        _certifies("minkowski_certify", ("f", "g"), ("p", "alpha"))),
    "gronwall": _suite(_on_one_grid(a=(-1.0, 2.0, 0), b=(0.0, 1.5, 0), slack=(0.0, 0.5, 0)),
                       lambda b: _held(b, _gronwall_pass(b))),
    "comparison": _suite(_on_one_grid(p=(-0.9, 1.5, 0), f=(-1.0, 1.0, 0), y0=(-1.0, 1.0, None),
                                      slack=(0.0, 0.5, -1)),
                         lambda b: _held(b, _comparison_pass(b))),
    "gronwall2d": _suite(_gronwall_2d_draw, lambda b: _held(b, _gronwall_2d_pass(b))),
}

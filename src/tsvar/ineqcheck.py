"""Randomized certification suites for the dynamic inequalities (``tsvar ineq-check``).

A suite is ``run(trials, seed)``: it draws every trial from one seeded stream,
in order, and returns the number of trials whose inequality held to a 1e-10
tolerance.  Every suite draws ``TRIAL_BLOCK`` trials before it uses any of
them.  A trial makes one ``rng.integers`` call per integer it draws (a grid's
point count, Jensen's F) and one ``rng.random(k)`` call per run of doubles
between two of them; the block then maps each field's raw uniforms U to its
range once, as lo + (hi - lo) * U on zero-padded arrays with one row per
trial.  numpy's ``rng.uniform(lo, hi, k)`` is that same expression of the
same doubles (``tests/test_ineq_check_stream.py`` pins it), so every trial
has the bits that one ``rng.uniform`` call per field gave it.

The Jensen, Hoelder, Cauchy-Schwarz and Minkowski suites then make one
``*_certify`` call per row, looked up on ``inequalities`` as the suite runs.
The Gronwall, comparison and 2-D Gronwall suites give each block one array
pass: the reference trajectory, the bound from the stacked kernel that also
serves the public bound, and the pointwise check.  Padding never reaches a
real entry (a zero gap adds nothing to a sum and multiplies a step product
by 1), so every trial gets the same bits as the public one-trial bound would
give it.
"""

from __future__ import annotations

import math

import numpy as np

from . import inequalities
from .timescale import KIND_EXPLICIT, GridFunction, TimeScale

# Trials per block: a fixed block keeps memory flat in --trials and each
# stacked array small (256 x 6 x 6 floats for the 2-D suite).
TRIAL_BLOCK = 256


def _upto(n: np.ndarray, width: int) -> np.ndarray:
    """Row k sets the first n[k] of ``width`` entries."""
    return np.arange(width) < n[:, None]


def _scalar(n: np.ndarray) -> np.ndarray:
    """The mask of a field of one double per trial."""
    return np.ones(len(n), dtype=bool)


def _grid(n: np.ndarray, width: int = 9, step_lo: float = 0.1, key: str = "") -> list:
    """The fields of a grid of n points: its start and its n - 1 steps."""
    return [("start" + key, -2.0, 2.0, _scalar(n)),
            ("steps" + key, step_lo, 1.0, _upto(n - 1, width - 1))]


def _draw_block(rng, count: int, trial, layout) -> dict:
    """``count`` trials, stacked.

    ``trial(rng)`` makes one trial's generator calls in stream order and
    returns its integers and its runs of raw doubles.  ``layout(*integers)``,
    given one array per integer, returns the trials' point mask and the fields
    (name, lo, hi, mask) that share out each trial's doubles in order: a field
    takes the set entries of its row of ``mask``, in C order, and is
    lo + (hi - lo) * U there and 0 elsewhere.  Each grid's points follow from
    its start and steps; padded steps are 0, so a grid repeats its last point.
    """
    ints, runs = [], []
    for _ in range(count):
        drawn, doubles = trial(rng)
        ints.append(drawn)
        runs += doubles
    ints = np.array(ints)
    mask, fields = layout(*ints.T)
    slots = np.hstack([m.reshape(count, -1) for *_, m in fields])
    raw = np.zeros(slots.shape)
    raw[slots] = np.concatenate(runs)
    block, col = {"ints": ints, "mask": mask}, 0
    for name, lo, hi, m in fields:
        width = m.size // count
        block[name] = (hi - lo) * raw[:, col:col + width].reshape(m.shape) + lo * m
        col += width
    for key in ("", "1", "2"):
        if "steps" + key in block:
            steps = block["steps" + key]
            offsets = np.zeros((count, steps.shape[1] + 1))
            np.cumsum(steps, axis=1, out=offsets[:, 1:])
            block["points" + key] = block["start" + key][:, None] + offsets
    return block


def _suite(trial, layout, check):
    """A suite whose ``check(block)`` counts the block's trials that held."""
    def run(trials: int, seed: int) -> int:
        rng = np.random.default_rng(seed)
        return sum(check(_draw_block(rng, min(TRIAL_BLOCK, trials - first), trial, layout))
                   for first in range(0, trials, TRIAL_BLOCK))

    return run


def _on_one_grid(*fields) -> tuple:
    """(trial, layout) of a suite on one grid of 3-9 points: n, then one run of
    the grid's n doubles and each field's (name, lo, hi, d) in order, n + d
    doubles for d = 0 or -1 and one for d None."""
    per_point = 1 + sum(d is not None for *_, d in fields)
    extra = sum(1 if d is None else d for *_, d in fields)

    def trial(rng) -> tuple:
        n = int(rng.integers(3, 10))
        return (n,), (rng.random(per_point * n + extra),)

    def layout(n) -> tuple:
        return _upto(n, 9), _grid(n) + [
            (name, lo, hi, _scalar(n) if d is None else _upto(n + d, 9 + d))
            for name, lo, hi, d in fields]

    return trial, layout


# ---------------------------------------------------------------------------
# Certifier suites: one certify call per trial


def _trials(block: dict, *keys: str):
    """Per trial: its grid, declared explicit (no suite reads kind, step or
    ratio), and a GridFunction on it of each field in ``keys``."""
    for k, (row, n) in enumerate(zip(block["points"], block["ints"][:, 0].tolist())):
        ts = TimeScale(row[:n], kind=KIND_EXPLICIT)
        yield (ts,) + tuple(GridFunction(ts, block[key][k, :n]) for key in keys)


_JENSEN_CATALOG = (math.exp, lambda x: x * x, abs, lambda x: x ** 4)


def _jensen_trial(rng) -> tuple:
    n = int(rng.integers(3, 10))
    head = rng.random(2 * n)  # start, steps, g
    F = int(rng.integers(len(_JENSEN_CATALOG)))
    coin = rng.random(1)
    weighted = coin[0] < 0.5
    return (n, F, weighted), (head, coin, rng.random(n + 1 if weighted else 1))


def _jensen_layout(n, F, weighted) -> tuple:
    at = _upto(n, 9)
    return at, _grid(n) + [("g", -2.0, 2.0, at),
                           ("coin", 0.0, 1.0, _scalar(n)),  # the trial read it raw
                           ("weights", 0.05, 3.0, _upto(n * weighted, 9)),
                           ("alpha", 0.0, 1.0, _scalar(n))]


def _jensen_check(b: dict) -> int:
    held = 0
    for (ts, g), (_, F, weighted), w, alpha in zip(_trials(b, "g"), b["ints"].tolist(),
                                                   b["weights"], b["alpha"].tolist()):
        weights = GridFunction(ts, w[:len(ts)]) if weighted else None
        held += inequalities.jensen_certify(ts, _JENSEN_CATALOG[F], g, weights, alpha).holds
    return held


def _holder_check(b: dict) -> int:
    return sum(inequalities.holder_certify(ts, f, g, h, p, alpha).holds
               for (ts, f, g, h), p, alpha in zip(_trials(b, "f", "g", "h"),
                                                  (1.0 + b["p"]).tolist(), b["alpha"].tolist()))


def _cauchy_schwarz_check(b: dict) -> int:
    return sum(inequalities.cauchy_schwarz_certify(ts, f, g, alpha).holds
               for (ts, f, g), alpha in zip(_trials(b, "f", "g"), b["alpha"].tolist()))


def _minkowski_check(b: dict) -> int:
    return sum(inequalities.minkowski_certify(ts, f, g, p, alpha).holds
               for (ts, f, g), p, alpha in zip(_trials(b, "f", "g"),
                                               (1.0 + b["p"]).tolist(), b["alpha"].tolist()))


# ---------------------------------------------------------------------------
# Bound suites: one array pass per block


def _holds_pointwise(values: np.ndarray, bound: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per trial (row): values <= bound to the tolerance at every real entry."""
    tol = 1e-10 * np.maximum(1.0, np.abs(bound))
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


def _gronwall_2d_trial(rng) -> tuple:
    n1 = int(rng.integers(3, 7))
    head = rng.random(n1)  # start1, steps1
    n2 = int(rng.integers(3, 7))
    return (n1, n2), (head, rng.random(n2 + 1 + 2 * n1 * n2))  # start2, steps2, a, f, slack


def _gronwall_2d_layout(n1, n2) -> tuple:
    mask = _upto(n1, 6)[:, :, None] & _upto(n2, 6)[:, None, :]
    return mask, (_grid(n1, 6, 0.2, "1") + _grid(n2, 6, 0.2, "2")
                  + [("a", 0.5, 2.0, _scalar(n1)), ("f", 0.0, 1.0, mask),
                     ("slack", 0.0, 0.3, mask)])


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


_F, _G = ("f", -3.0, 3.0, 0), ("g", -3.0, 3.0, 0)
_P, _ALPHA = ("p", 0.1, 3.0, None), ("alpha", 0.0, 1.0, None)

# the certifiers and the stacked passes are looked up as the suites run, so a
# caller may wrap them
SUITES = {
    "jensen": _suite(_jensen_trial, _jensen_layout, _jensen_check),
    "holder": _suite(*_on_one_grid(_F, _G, ("h", 0.0, 2.0, 0), _P, _ALPHA), _holder_check),
    "cauchy-schwarz": _suite(*_on_one_grid(_F, _G, _ALPHA), _cauchy_schwarz_check),
    "minkowski": _suite(*_on_one_grid(_F, _G, _P, _ALPHA), _minkowski_check),
    "gronwall": _suite(*_on_one_grid(("a", -1.0, 2.0, 0), ("b", 0.0, 1.5, 0),
                                     ("slack", 0.0, 0.5, 0)),
                       lambda b: _held(b, _gronwall_pass(b))),
    "comparison": _suite(*_on_one_grid(("p", -0.9, 1.5, 0), ("f", -1.0, 1.0, 0),
                                       ("y0", -1.0, 1.0, None), ("slack", 0.0, 0.5, -1)),
                         lambda b: _held(b, _comparison_pass(b))),
    "gronwall2d": _suite(_gronwall_2d_trial, _gronwall_2d_layout,
                         lambda b: _held(b, _gronwall_2d_pass(b))),
}

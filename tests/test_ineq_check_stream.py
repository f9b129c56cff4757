"""How the ineq-check suites draw their trials from a seeded generator, and the block edges.

A suite draws ``TRIAL_BLOCK`` trials at a time, one generator call per field.
The first tests check each suite's blocks at several seeds: point counts in
their ranges, every real entry in [lo, hi), every padded entry 0, grids
strictly increasing on their real points, and the same blocks and counts
from the same seed.  The others replay every suite at block edges through the
references of ``test_ineq_check_oracle.py`` and pin one certifier call per
certifier trial, the count the benchmark's traced ``bounds`` run expects.
"""

import numpy as np
import pytest

from test_ineq_check_oracle import CERTIFIERS, _match_old_loops, _spy_blocks
from tsvar import ineqcheck, inequalities

_ONE_GRID = [("", 9, 0.1)]
_FG = {"f": (-3.0, 3.0, "n"), "g": (-3.0, 3.0, "n")}
_ALPHA = {"alpha": (0.0, 1.0, None)}

# per suite: its grids as (key, most points, least step), and its fields as
# name: (lo, hi, real entries), the real entries being a grid's "n" points,
# "n-1" of them, the points of a "weighted" trial, "n1*n2" or None (one per trial)
DRAWS = {
    "jensen": (_ONE_GRID, {"g": (-2.0, 2.0, "n"), "weights": (0.05, 3.0, "weighted"),
                           **_ALPHA}),
    "holder": (_ONE_GRID, {**_FG, "h": (0.0, 2.0, "n"), "p": (1.1, 4.0, None), **_ALPHA}),
    "cauchy-schwarz": (_ONE_GRID, {**_FG, **_ALPHA}),
    "minkowski": (_ONE_GRID, {**_FG, "p": (1.1, 4.0, None), **_ALPHA}),
    "gronwall": (_ONE_GRID, {"a": (-1.0, 2.0, "n"), "b": (0.0, 1.5, "n"),
                             "slack": (0.0, 0.5, "n")}),
    "comparison": (_ONE_GRID, {"p": (-0.9, 1.5, "n"), "f": (-1.0, 1.0, "n"),
                               "y0": (-1.0, 1.0, None), "slack": (0.0, 0.5, "n-1")}),
    "gronwall2d": ([("1", 6, 0.2), ("2", 6, 0.2)],
                   {"a": (0.5, 2.0, None), "f": (0.0, 1.0, "n1*n2"),
                    "slack": (0.0, 0.3, "n1*n2")}),
}


def _upto(n, width):
    return np.arange(width) < np.asarray(n)[:, None]


def _real(block, rule, shape):
    """Which entries of a field of ``shape`` are a trial's own."""
    if rule is None:
        return np.ones(shape, dtype=bool)
    if rule == "n1*n2":
        return _upto(block["n1"], shape[1])[:, :, None] & _upto(block["n2"], shape[2])[:, None, :]
    real = _upto(block["n"] - (rule == "n-1"), shape[1])
    return real & block["weighted"][:, None] if rule == "weighted" else real


def _in_range(values, real, lo, hi, what):
    assert ((lo <= values[real]) & (values[real] < hi)).all(), what
    assert (values[~real] == 0.0).all(), what


def _check_block(name, block):
    grids, fields = DRAWS[name]
    keys = {"mask", *fields} | ({"F", "weighted"} if name == "jensen" else set())
    for key, most, step_lo in grids:
        keys |= {k + key for k in ("n", "start", "steps", "points")}
        n = block["n" + key]
        assert ((3 <= n) & (n <= most)).all()
        _in_range(block["start" + key], np.ones(len(n), dtype=bool), -2.0, 2.0, "start")
        real = _upto(n - 1, most - 1)
        _in_range(block["steps" + key], real, step_lo, 1.0, "steps")
        gaps = np.diff(block["points" + key], axis=1)
        assert (gaps[real] > 0.0).all() and (gaps[~real] == 0.0).all()
    assert set(block) == keys
    if name == "jensen":
        assert ((0 <= block["F"]) & (block["F"] < 4)).all() and block["weighted"].dtype == bool
    mask = block["mask"]
    assert np.array_equal(mask, _real(block, "n1*n2" if mask.ndim == 3 else "n", mask.shape))
    for field, (lo, hi, rule) in fields.items():
        _in_range(block[field], _real(block, rule, block[field].shape), lo, hi, field)


@pytest.mark.parametrize("name", sorted(DRAWS))
def test_draws_lie_in_their_ranges_and_pad_with_zeros(monkeypatch, name):
    blocks, _ = _spy_blocks(monkeypatch)
    for seed in range(5):
        assert ineqcheck.SUITES[name](300, seed) == 300
        assert [len(block["mask"]) for block in blocks] == [256, 44]
        for block in blocks:
            _check_block(name, block)
        blocks.clear()


def test_one_seed_gives_identical_blocks_and_held_counts(monkeypatch):
    blocks, _ = _spy_blocks(monkeypatch)
    counts = [[suite(300, 3) for suite in ineqcheck.SUITES.values()] for _ in range(2)]
    assert counts[0] == counts[1] == [300] * 7
    first, second = blocks[:len(blocks) // 2], blocks[len(blocks) // 2:]
    assert len(first) == len(second) == 14
    for a, b in zip(first, second):
        assert a.keys() == b.keys()
        for key in a:
            assert a[key].dtype == b[key].dtype and a[key].tobytes() == b[key].tobytes(), key


@pytest.mark.parametrize("trials", [1, 256, 257])
def test_suites_match_the_old_loops_at_block_edges(monkeypatch, trials):
    # one trial, exactly one full block, and a full block plus one trial
    assert ineqcheck.TRIAL_BLOCK == 256
    _match_old_loops(monkeypatch, trials, 4)


def test_one_certifier_call_per_certifier_trial(monkeypatch):
    calls = {name: 0 for name in CERTIFIERS}

    def counting(name, fn):
        def count(*args):
            calls[name] += 1
            return fn(*args)

        return count

    for name in CERTIFIERS:
        monkeypatch.setattr(inequalities, name, counting(name, getattr(inequalities, name)))
    for suite in ineqcheck.SUITES.values():
        assert suite(300, 0) == 300
    # cauchy_schwarz_certify enters holder_certify as well: 5 calls per 4 trials
    assert calls == {"jensen_certify": 300, "holder_certify": 600,
                     "cauchy_schwarz_certify": 300, "minkowski_certify": 300}

"""The numpy stream behaviour the ineq-check suites rely on, and the block edges.

The suites draw a block of trials with one ``rng.integers`` call per integer
and one ``rng.random(k)`` call per run of doubles, then map each field's raw
uniforms U to its range as lo + (hi - lo) * U.  They keep the bits of the
old suites, which made one ``rng.uniform(lo, hi, k)`` call (or a scalar
``rng.uniform`` / ``rng.random()``) per field, only because numpy's
Generator

- computes ``uniform(lo, hi)`` as ``lo + (hi - lo) * next_double``, and
- hands out doubles as one sequence however a run is split into calls,
  also right after an ``integers`` call, and leaves the integer stream as it
  was.

The first tests state this for every range the suites use; a numpy release
that changed it would fail here before the oracle in
``test_ineq_check_oracle.py`` does.  The others run every suite at block
edges against the old suites' records and pin one certifier call per
certifier trial, the count the benchmark's traced ``bounds`` run expects.
"""

import numpy as np
import pytest

from test_ineq_check_oracle import (CERTIFIERS, STACKED, _old_suites, _recording,
                                    _Reference, _trial_records)
from tsvar import cli, ineqcheck, inequalities


def _suite_ranges(monkeypatch) -> set:
    """Every (lo, hi) a field of some suite is mapped to."""
    ranges = set()
    draw = ineqcheck._draw_block

    def spy(rng, count, trial, layout):
        def recorded(*ints):
            mask, fields = layout(*ints)
            ranges.update((lo, hi) for _, lo, hi, _ in fields)
            return mask, fields

        return draw(rng, count, trial, recorded)

    monkeypatch.setattr(ineqcheck, "_draw_block", spy)
    for suite in ineqcheck.SUITES.values():
        suite(3, 0)
    return ranges


def test_uniform_is_lo_plus_width_times_random_for_every_suite_range(monkeypatch):
    ranges = _suite_ranges(monkeypatch)
    assert len(ranges) == 15 and (0.05, 3.0) in ranges and (0.0, 0.3) in ranges
    for lo, hi in sorted(ranges):
        for seed in range(3):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            want = a.uniform(lo, hi, 20000)
            assert np.array_equal(lo + (hi - lo) * b.random(20000), want), (lo, hi)
            # the old suites' scalar draws: one double each
            assert (lo + (hi - lo) * b.random(1)[0]) == a.uniform(lo, hi)
            assert b.random(1)[0] == a.random()


@pytest.mark.parametrize("integer_first", [False, True])
@pytest.mark.parametrize("a, b", [(1, 1), (1, 8), (9, 27), (37, 1)])
def test_a_run_of_doubles_is_the_same_in_one_call_or_two(integer_first, a, b):
    for seed in range(5):
        one, two = np.random.default_rng(seed), np.random.default_rng(seed)
        if integer_first:
            assert one.integers(3, 10) == two.integers(3, 10)
        joined = one.random(a + b)
        assert np.array_equal(joined, np.concatenate([two.random(a), two.random(b)]))
        # and the integer draws after the run are unchanged
        assert [one.integers(3, 10) for _ in range(3)] == [two.integers(3, 10) for _ in range(3)]


def _match_old_loops(monkeypatch, trials, seed):
    """Every certifier call and every stacked row of ``trials`` trials, against
    the old suites' records (as ``test_ineq_check_oracle`` does at 300)."""
    expected = []
    for suite in _old_suites(_Reference(expected)).values():
        suite(trials, seed)

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
    for attr in STACKED.values():
        monkeypatch.setattr(ineqcheck, attr, recording_pass(getattr(ineqcheck, attr)))
    for name, suite in cli._SUITES.items():
        assert suite(trials, seed) == trials
        for record in passes:
            _trial_records(name, *record, got)
        passes.clear()

    assert len(got) == len(expected) == trials * 12
    for k, (g, e) in enumerate(zip(got, expected)):
        assert g == e, f"record {k} ({e[0]}) differs"


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

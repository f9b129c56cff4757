"""Every entry point that reads per-point data reads it through
``timescale.values_on``: a GridFunction on the scale, a GridFunction on a
larger scale, a callable, an array of values and a number all give the same
result, a wrong-length array raises ValueError and a GridFunction that lives
off the grid raises NotOnGrid."""

import dataclasses
import math

import numpy as np
import pytest

from tsvar import inequalities as ineq
from tsvar import special, varcalc
from tsvar import timescale as tsc
from tsvar.errors import NotOnGrid

TS = tsc.uniform(0.0, 2.0, 0.25)
SUPERSET = tsc.uniform(-0.5, 2.5, 0.125)
OFF_GRID = tsc.uniform(0.1, 2.1, 0.25)  # as many points as TS, none of them shared
SPEC = ineq.NonlinearGrowthSpec(Phi=lambda u: u, W=lambda u: u, Psi_x0=1.0)


def rate(t):
    return 0.5 + 0.25 * t


CONSTANT = 0.75

# each entry point takes the per-point data d in every per-point argument
ENTRY_POINTS = {
    "gronwall_bound": lambda d: ineq.gronwall_bound(TS, d, d, 0.0),
    "comparison_bound": lambda d: ineq.comparison_bound(TS, 1.0, d, d, 0.0),
    "nonlinear_gronwall_bound": lambda d: ineq.nonlinear_gronwall_bound(
        TS, None, d, d, lambda t, s: 0.5, SPEC),
    "jensen_certify": lambda d: ineq.jensen_certify(TS, np.exp, d, d, 0.3),
    "holder_certify": lambda d: ineq.holder_certify(TS, d, d, d, 3.0, 0.6),
    "cauchy_schwarz_certify": lambda d: ineq.cauchy_schwarz_certify(TS, d, d, 0.5),
    "minkowski_certify": lambda d: ineq.minkowski_certify(TS, d, d, 1.5, 0.2),
    "sturm_liouville_first": lambda d: varcalc.sturm_liouville_first(TS, d),
    "direct_solve_exp": lambda d: varcalc.direct_solve_exp(TS, d, 2.0),
    "direct_solve_entropy": lambda d: varcalc.direct_solve_entropy(TS, d, 25.0),
    "ts_exponential": lambda d: special.ts_exponential(TS, d, 1.5, 0.5),
    "is_regressive": lambda d: special.is_regressive(TS, d),
    "is_positively_regressive": lambda d: special.is_positively_regressive(TS, d),
}

# form -> (data in that form, the same data as a GridFunction on TS, or the error)
FORMS = {
    "grid-function": (tsc.GridFunction.sample(TS, rate), tsc.GridFunction.sample(TS, rate)),
    "superset-grid-function": (tsc.GridFunction.sample(SUPERSET, rate),
                               tsc.GridFunction.sample(TS, rate)),
    "callable": (rate, tsc.GridFunction.sample(TS, rate)),
    "array": (rate(TS.points), tsc.GridFunction.sample(TS, rate)),
    "number": (CONSTANT, tsc.GridFunction.constant(TS, CONSTANT)),
    "wrong-length-array": (np.full(len(TS) - 1, CONSTANT), ValueError),
    "off-grid-grid-function": (tsc.GridFunction.sample(OFF_GRID, rate), NotOnGrid),
}


def _image(x):
    """A bit-exact, comparable image of a result."""
    if isinstance(x, tsc.GridFunction):
        return x.scale.points.tobytes(), x.values.tobytes()
    if dataclasses.is_dataclass(x):
        return tuple(_image(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, (tuple, list)):
        return tuple(_image(v) for v in x)
    if isinstance(x, (bool, str)):
        return x
    return float(x).hex()


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_per_point_data_forms(entry, form):
    call = ENTRY_POINTS[entry]
    data, expect = FORMS[form]
    if isinstance(expect, type):
        with pytest.raises(expect):
            call(data)
    else:
        assert _image(call(data)) == _image(call(expect))


SPECIAL = ("ts_exponential", "is_regressive", "is_positively_regressive")


def undefined_at_max(t):
    """rate(t) on [0, 2), with no value at max TS = 2."""
    return math.log(2.0 - t) + rate(t) - math.log(2.0 - t)


# p is read only where the products need it: T^kappa, and [t0, t) = [0.5, 1.5) for e_p
@pytest.mark.parametrize("entry, data", [
    *((e, tsc.GridFunction.sample(TS.drop_last(), rate)) for e in SPECIAL),
    *((e, undefined_at_max) for e in SPECIAL),
    ("ts_exponential", tsc.GridFunction.sample(tsc.uniform(0.5, 1.25, 0.25), rate)),
])
def test_special_reads_p_only_where_the_product_does(entry, data):
    call = ENTRY_POINTS[entry]
    assert _image(call(data)) == _image(call(tsc.GridFunction.sample(TS, rate)))


@pytest.mark.parametrize("data", [np.ones((len(TS), 1)), None, {"t": 1.0},
                                  [1j] * len(TS), np.full(len(TS), 1.0 + 2.0j),
                                  lambda t: complex(t, 1.0), [[1.0, 2.0], [3.0]]])
def test_values_on_refuses_other_data(data):
    with pytest.raises(ValueError):
        tsc.values_on(TS, data)

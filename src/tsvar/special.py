"""Gamma function, h-factorial, time-scale polynomials, and the exponential e_p.

Gamma and log|Gamma| come from the standard library (``math.gamma``,
``math.lgamma``); this module adds a pole guard that treats any argument
within 1e-9 of a non-positive integer as a pole, and the sign of Gamma for
the log form.  The h-factorial

    x_h^(y) = h^y * Gamma(x/h + 1) / Gamma(x/h + 1 - y)

follows the convention that division at a pole yields zero: whenever the
denominator gamma argument is a non-positive integer the whole expression is
0, which is exactly what the falling-product form gives for integer orders.
A pole in the numerator alone has no sanctioned value and raises DomainError.
Past |x/h| = 30 the Gamma quotient is taken in logs: by Stirling's series
where both arguments exceed 30 or, reflected, both are below -29, else as a
difference of log|Gamma|s.  Below it the quotient is taken directly while
|x/h + 1 - y| is at most 171 and h^y and h^y Gamma(x/h + 1) are normal floats
(h^y within e^700 of 1), else as that difference too, so a quotient below the
float range underflows to 0 rather than failing.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import DomainError, NonFinite, NonRegressive, Pole
from .timescale import TimeScale, values_on

_POLE_TOL = 1e-9
_TINY, _HUGE = sys.float_info.min, sys.float_info.max  # the normal float range


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0.5 and abs(x - round(x)) <= _POLE_TOL and round(x) <= 0


def gamma_fn(x: float) -> float:
    """Euler gamma; raises Pole at non-positive integers, OverflowError past 171.6."""
    if _is_nonpositive_integer(x):
        raise Pole(f"gamma pole at {x}")
    return math.gamma(x)


def log_abs_gamma(x: float):
    """Return (log|Gamma(x)|, sign) without overflow; raises Pole at poles."""
    if _is_nonpositive_integer(x):
        raise Pole(f"gamma pole at {x}")
    # Gamma is negative on (-1, 0), (-3, -2), ...: where floor(x) is odd
    sign = -1 if x < 0 and math.floor(x) % 2 else 1
    return math.lgamma(x), sign


def _log_gamma_ratio(a: float, y: float) -> float:
    """log Gamma(a) - log Gamma(b), b = a - y, for a, b > 30 by Stirling's
    series, without the rounding of two large log-Gammas: with the series'
    tail S(x) = 1/(12x) - 1/(360x^3) + 1/(1260x^5) - 1/(1680x^7), it is
    (b - 1/2) log1p(y / b) + y log a - y + S(a) - S(b)."""
    def tail(x):
        r = 1.0 / (x * x)
        return (1.0 / 12.0 - r * (1.0 / 360.0 - r * (1.0 / 1260.0 - r / 1680.0))) / x
    b = a - y
    return (b - 0.5) * math.log1p(y / b) + y * math.log(a) - y + tail(a) - tail(b)


def h_factorial(x: float, y: float, h: float) -> float:
    """The h-factorial x_h^(y) = h^y Gamma(x/h+1) / Gamma(x/h+1-y).

    Denominator pole => 0 (the paper's division convention); numerator-only
    pole => DomainError; a quotient beyond the float range => NonFinite.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    z = x / h
    num_arg = z + 1.0
    den_arg = z + 1.0 - y
    if _is_nonpositive_integer(den_arg):
        return 0.0
    if _is_nonpositive_integer(num_arg):
        raise DomainError(
            f"h_factorial numerator gamma pole at {num_arg} (x={x}, y={y}, h={h})"
        )
    try:  # math.exp, math.gamma and ** raise OverflowError past the float range
        if z > 30.0 and den_arg > 30.0:
            value = math.exp(y * math.log(h) + _log_gamma_ratio(num_arg, y))
        elif z < -30.0 and y - z > 30.0:
            # reflected: Gamma(y - z) / Gamma(-z) * sin(pi (z - y)) / sin(pi z), each
            # sine of its argument reduced exactly into [-1/2, 1/2]
            r, k = z - round(z), round(y)
            s = r - (y - k)
            value = ((-1.0) ** (k + round(s)) * math.sin(math.pi * (s - round(s)))
                     / math.sin(math.pi * r)
                     * math.exp(y * math.log(h) + _log_gamma_ratio(y - z, y)))
        elif (abs(z) > 30.0 or abs(den_arg) > 171.0 or abs(y * math.log(h)) > 700.0
              or not _TINY <= abs(top := h**y * gamma_fn(num_arg)) <= _HUGE):
            ln, sn = log_abs_gamma(num_arg)
            ld, sd = log_abs_gamma(den_arg)
            value = sn * sd * math.exp(y * math.log(h) + ln - ld)
        else:  # h^y, Gamma(x/h + 1 - y) and h^y Gamma(x/h + 1) are normal floats
            value = top / gamma_fn(den_arg)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise NonFinite(f"h_factorial({x}, {y}, {h}) is not finite in floating point")
    return value


def generalized_polynomial_H(ts: TimeScale, k: int, t: float, s: float) -> float:
    """Time-scale polynomial H_k(t, s) by the defining recursion.

    H_0 = 1 and H_{k+1}(t, s) = integral_s^t H_k(tau, s) Delta tau, evaluated
    exactly on the grid (prefix sums), for any on-grid t, s.
    """
    if k < 0:
        raise ValueError("polynomial order must be >= 0")
    it, i_s = ts.index(t), ts.index(s)
    pts = ts.points
    vals = np.ones(len(pts))
    w = np.diff(pts)  # mu at every point except the maximum
    for _ in range(k):
        prefix = np.zeros(len(pts))
        prefix[1:] = np.cumsum(w * vals[:-1])
        vals = prefix - prefix[i_s]
    return float(vals[it])


def _regressivity_factors(ts: TimeScale, p, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """1 + mu(t) p(t) at ``ts.points[lo:hi]`` (T^kappa by default), reading p only there."""
    pts = ts.points
    hi = len(ts) - 1 if hi is None else hi
    if lo >= hi:
        return np.empty(0)
    pv = values_on(TimeScale(pts[lo:hi]), p) if callable(p) else values_on(ts, p)[lo:hi]
    return 1.0 + (pts[lo + 1:hi + 1] - pts[lo:hi]) * pv


def ts_exponential(ts: TimeScale, p, t: float, t0: float) -> float:
    """Exponential e_p(t, t0) = prod over tau in [t0, t) of (1 + mu(tau) p(tau))."""
    ia, ib = ts.index(t0), ts.index(t)
    if ia > ib:
        raise ValueError("ts_exponential requires t0 <= t")
    factors = _regressivity_factors(ts, p, ia, ib)
    vanish = np.flatnonzero(np.abs(factors) <= 1e-14)
    if vanish.size:
        raise NonRegressive(f"1 + mu*p vanishes at t = {ts.points[ia + vanish[0]]}")
    return math.prod(factors.tolist(), start=1.0)  # in loop order


def is_regressive(ts: TimeScale, p) -> bool:
    """True when 1 + mu(t) p(t) stays away from zero (|.| > 1e-14) on T^kappa."""
    return not (np.abs(_regressivity_factors(ts, p)) <= 1e-14).any()


def is_positively_regressive(ts: TimeScale, p) -> bool:
    """True when 1 + mu(t) p(t) > 0 on T^kappa."""
    return not (_regressivity_factors(ts, p) <= 0.0).any()

"""Finite isolated time scales and the basic delta/nabla/diamond calculus.

A time scale here is a finite, strictly increasing grid of reals.  Jump
operators follow the usual conventions for bounded scales: sigma fixes the
maximum, rho fixes the minimum.  All integrals are exact finite sums, which
keeps the calculus identities (fundamental theorem, integration by parts,
additivity) bit-tight and testable.

Only isolated grids are supported; scales containing continuous sub-intervals
are out of scope by design.  The constructor detects a scale's kind (uniform,
geometric or explicit) from its points, where a gap or ratio may overflow;
``_explicit_rows`` is the one builder of scales declared explicit, whose step
and ratio stay None.  ``geometric`` refuses a q^k past the float range.
"""

from __future__ import annotations

import math
import numbers
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import GridTooSmall, InvalidAlpha, NotOnGrid

KIND_UNIFORM = "uniform"
KIND_GEOMETRIC = "geometric"
KIND_EXPLICIT = "explicit"

_REL_KIND_TOL = 1e-12  # spacing uniformity check
_REL_GRID_TOL = 1e-9   # membership snap tolerance
_EPS = float(np.finfo(float).eps)
MAX_POINTS = 10_000_000  # grid builders refuse more points before allocating any


def _spacing_slack(h, first, last):
    """How far a gap of a uniform scale on [first, last] may stray from its step h:
    1e-12 relative, plus the rounding of points of size |t|, about eps*|t| each."""
    return _REL_KIND_TOL * max(abs(h), 1e-300) + 4.0 * _EPS * max(-first, last)


def _detect_kind(points: np.ndarray, gaps: np.ndarray):
    """Return (kind, step, ratio) detected from raw points and their gaps."""
    if len(points) < 2:
        return KIND_EXPLICIT, None, None
    h = gaps[0]
    if np.abs(gaps - h).max() <= _spacing_slack(h, points[0], points[-1]):
        return KIND_UNIFORM, float(h), None
    if points[0] > 0:
        ratios = points[1:] / points[:-1]
        q = ratios[0]
        if 1 < q < np.inf and np.abs(ratios - q).max() <= _REL_KIND_TOL * q:
            return KIND_GEOMETRIC, None, float(q)
    return KIND_EXPLICIT, None, None


class TimeScale:
    """Immutable finite isolated time scale.

    Attributes
    ----------
    points : np.ndarray
        Strictly increasing grid points.
    kind : str
        One of ``uniform`` / ``geometric`` / ``explicit``, detected from the
        points.
    step : float or None
        Common step h for uniform scales.
    ratio : float or None
        Common ratio q for geometric scales.
    """

    __slots__ = ("points", "kind", "step", "ratio")

    def __init__(self, points: Iterable[float]):
        if not isinstance(points, np.ndarray):
            points = list(points)
        pts = np.array(points, dtype=float)  # always a copy the caller cannot alias
        if pts.ndim != 1 or len(pts) < 1:
            raise ValueError("a time scale needs at least one point")
        # strictly increasing with finite ends means finite throughout; only
        # comparisons here, as inf - inf would warn
        if not (np.count_nonzero(pts[1:] > pts[:-1]) == len(pts) - 1
                and math.isfinite(pts[0]) and math.isfinite(pts[-1])):
            if np.count_nonzero(np.isfinite(pts)) < len(pts):
                raise ValueError("time scale points must be finite")
            raise ValueError("time scale points must be strictly increasing")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        with np.errstate(over="ignore", invalid="ignore"):  # an infinite gap fails as NaN
            kind, h, q = _detect_kind(pts, pts[1:] - pts[:-1])
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "step", h)
        object.__setattr__(self, "ratio", q)

    def __setattr__(self, name, value):
        raise AttributeError("TimeScale is immutable")

    def __len__(self):
        return len(self.points)

    def __repr__(self):
        extra = ""
        if self.kind == KIND_UNIFORM:
            extra = f", h={self.step}"
        elif self.kind == KIND_GEOMETRIC:
            extra = f", q={self.ratio}"
        return f"TimeScale({len(self)} pts on [{self.points[0]}, {self.points[-1]}]{extra})"

    def __eq__(self, other):
        return isinstance(other, TimeScale) and np.array_equal(self.points, other.points)

    def __hash__(self):
        return hash(self.points.tobytes())

    # -- membership ---------------------------------------------------------

    def index(self, t: float) -> int:
        """Index of the grid point equal to ``t`` within relative tolerance 1e-9."""
        pts = self.points
        i = int(np.searchsorted(pts, t))
        if i < len(pts) and pts[i] == t:
            return i
        best, dist = -1, math.inf
        for j in (i - 1, i, i + 1):
            if 0 <= j < len(pts) and abs(pts[j] - t) < dist:
                best, dist = j, abs(pts[j] - t)
        tol = _REL_GRID_TOL * max(1.0, abs(t), abs(pts[best]) if best >= 0 else 0.0)
        if best < 0 or dist > tol:
            raise NotOnGrid(f"{t!r} is not a grid point of {self!r}")
        return best

    def __contains__(self, t):
        try:
            self.index(t)
            return True
        except NotOnGrid:
            return False

    # -- jump operators ------------------------------------------------------

    def sigma(self, t: float) -> float:
        i = self.index(t)
        return float(self.points[min(i + 1, len(self) - 1)])

    def rho(self, t: float) -> float:
        i = self.index(t)
        return float(self.points[max(i - 1, 0)])

    def mu(self, t: float) -> float:
        return self.sigma(t) - float(self.points[self.index(t)])

    def nu(self, t: float) -> float:
        return float(self.points[self.index(t)]) - self.rho(t)

    # -- restrictions --------------------------------------------------------

    def drop_last(self, k: int = 1) -> "TimeScale":
        """The scale T^{kappa^k}: remove the k largest points."""
        if len(self) <= k:
            raise GridTooSmall(f"cannot drop {k} points from a {len(self)}-point scale")
        return TimeScale(self.points[: len(self) - k])

    def drop_first(self, k: int = 1) -> "TimeScale":
        """The scale T_{kappa^k}: remove the k smallest points."""
        if len(self) <= k:
            raise GridTooSmall(f"cannot drop {k} points from a {len(self)}-point scale")
        return TimeScale(self.points[k:])

    # -- (H) coefficients -----------------------------------------------------

    def hypothesis_h(self):
        """Return (a1, a0) with sigma(t) = a1*t + a0, or None if (H) fails."""
        if self.kind == KIND_UNIFORM:
            return 1.0, self.step
        if self.kind == KIND_GEOMETRIC:
            return self.ratio, 0.0
        return None


def _uniform_steps(a: float, b: float, h: float) -> int:
    """The step count of ``uniform(a, b, h)``, checked without allocating: h > 0
    and above the rounding of the points, (b-a)/h a positive integer to 1e-9
    relative and below MAX_POINTS, and the last gap, up to b, within the kind
    check's slack of the first."""
    if h <= 0:
        raise ValueError("step h must be positive")
    n = (b - a) / h
    if not abs(n) < MAX_POINTS - 1:  # before round(), which fails on inf and nan
        raise ValueError(f"(b-a)/h = {n} would exceed {MAX_POINTS} grid points")
    if h <= 4.0 * _EPS * max(abs(a), abs(b)):  # the slack below would be at least h
        raise ValueError(f"step h = {h} is at the rounding level of the points")
    n_int = round(n)
    if n_int < 1 or abs(n - n_int) > 1e-9 * max(1.0, abs(n)):
        raise ValueError(f"(b-a)/h = {n} is not a positive integer")
    a, b, h = float(a), float(b), float(h)  # uniform's float64 arithmetic
    first, last = (a + h) - a, b - (a + h * (n_int - 1))
    if n_int > 1 and not abs(last - first) <= _spacing_slack(first, a, b):
        raise ValueError(f"b = {b} is not a + {n_int}*h up to rounding")
    return n_int


def uniform(a: float, b: float, h: float) -> TimeScale:
    """Uniform scale {a, a+h, ..., b}; (b-a)/h must be a positive integer."""
    pts = a + h * np.arange(_uniform_steps(a, b, h) + 1)
    pts[-1] = b  # kill accumulated rounding at the right endpoint
    return TimeScale(pts)  # uniform: _uniform_steps bounds the last gap


def _whole(k, name: str) -> int:
    """``k`` as an int if it is a whole number (an int or an integral float)."""
    if isinstance(k, numbers.Integral) or (isinstance(k, numbers.Real)
                                           and float(k).is_integer()):
        return int(k)
    raise ValueError(f"kmin and kmax must be integers, got {name} = {k!r}")


def geometric(q: float, kmin: int, kmax: int) -> TimeScale:
    """Geometric scale {q^k : kmin <= k <= kmax}, q > 1; whole-float exponents are accepted."""
    if q <= 1:
        raise ValueError("ratio q must exceed 1")
    kmin, kmax = _whole(kmin, "kmin"), _whole(kmax, "kmax")
    if kmax - kmin < 2:  # two points are detected as uniform
        raise ValueError(f"need at least three exponents, got kmin = {kmin}, kmax = {kmax}")
    if kmax - kmin >= MAX_POINTS:
        raise ValueError(f"{kmax - kmin + 1} exponents would exceed {MAX_POINTS} grid points")
    try:
        scale = TimeScale([float(q) ** k for k in range(kmin, kmax + 1)])
    except OverflowError as exc:
        raise ValueError(f"q^kmax = {q}^{kmax} overflows the float range") from exc
    if scale.kind != KIND_GEOMETRIC:
        raise ValueError("points are not in geometric progression")
    return scale


def _explicit_rows(points: np.ndarray, counts: np.ndarray) -> list:
    """An explicit scale of ``points[k, :counts[k]]`` for every row k of a block,
    with no kind detection, so step and ratio stay None even for evenly spaced
    points.  The points are checked in one array pass and then not again: the
    first row with a point that is not finite, or a real gap that does not
    rise, raises what ``TimeScale`` raises for it."""
    real = np.arange(points.shape[1]) < counts[:, None]
    ok = np.isfinite(points)
    ok[:, 1:] &= points[:, 1:] > points[:, :-1]  # a comparison: NaN fails it, no warning
    bad = (real & ~ok).any(axis=1) | (counts < 1)
    if np.count_nonzero(bad):
        k = int(bad.argmax())
        TimeScale(points[k, :counts[k]])
    frozen = np.array(points, dtype=float)  # a copy no caller can alias, read-only
    frozen.setflags(write=False)             # like each row view taken from it
    scales = []
    for row, n in zip(frozen, counts.tolist()):
        ts = object.__new__(TimeScale)
        object.__setattr__(ts, "points", row[:n])
        object.__setattr__(ts, "kind", KIND_EXPLICIT)
        object.__setattr__(ts, "step", None)
        object.__setattr__(ts, "ratio", None)
        scales.append(ts)
    return scales


def explicit(*points: float) -> TimeScale:
    """Scale from explicitly listed points (kind auto-detected)."""
    if len(points) == 1 and isinstance(points[0], (list, tuple, np.ndarray)):
        points = points[0]
    if len(points) < 2:
        raise ValueError("need at least two points")
    return TimeScale(points)


class GridFunction:
    """Real values attached to every point of a TimeScale."""

    __slots__ = ("scale", "values")

    def __init__(self, scale: TimeScale, values: Sequence[float]):
        vals = np.asarray(values, dtype=float)
        if vals.shape != scale.points.shape:
            raise ValueError(
                f"need {len(scale)} values for this scale, got shape {vals.shape}"
            )
        self.scale = scale
        self.values = vals

    @classmethod
    def sample(cls, scale: TimeScale, fn: Callable[[float], float]) -> "GridFunction":
        return cls(scale, [fn(float(t)) for t in scale.points])

    @classmethod
    def constant(cls, scale: TimeScale, c: float) -> "GridFunction":
        return cls(scale, np.full(len(scale), float(c)))

    def __len__(self):
        return len(self.values)

    def __call__(self, t: float) -> float:
        return float(self.values[self.scale.index(t)])

    def __getitem__(self, i: int) -> float:
        return float(self.values[i])

    def __repr__(self):
        return f"GridFunction({self.scale!r}, {self.values!r})"

    def _binary(self, other, op):
        if isinstance(other, GridFunction):
            if other.scale != self.scale:
                raise ValueError("grid functions live on different scales")
            return GridFunction(self.scale, op(self.values, other.values))
        return GridFunction(self.scale, op(self.values, float(other)))

    def __add__(self, other):
        return self._binary(other, np.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, other):
        return self._binary(other, np.multiply)

    __rmul__ = __mul__

    def __neg__(self):
        return GridFunction(self.scale, -self.values)


def values_on(ts: TimeScale, f) -> np.ndarray:
    """Per-point data on ``ts`` as a float array of ``len(ts)`` values.

    ``f`` may be a GridFunction on ``ts`` (its values are used as they are), a
    GridFunction on another scale (read at the points of ``ts`` through its own
    grid, so NotOnGrid where it has no value), a callable of t, a number, or
    ``len(ts)`` values.  Anything else raises ValueError.
    """
    if isinstance(f, GridFunction) and (f.scale is ts or f.scale == ts):
        return f.values
    if isinstance(f, numbers.Real):
        return np.full(len(ts), float(f))
    # a GridFunction on another scale is called through its own grid
    out = np.asarray([f(t) for t in ts.points] if callable(f) else f)
    try:
        if out.dtype.kind == "c":
            raise TypeError("complex values")
        out = out.astype(float, copy=False)
    except TypeError as exc:  # complex or non-numeric entries
        raise ValueError(f"cannot read {type(f).__name__} data as real values") from exc
    if out.shape != (len(ts),):
        raise ValueError(f"need {len(ts)} values for this scale, got shape {out.shape}")
    return out


def compose_sigma(f: GridFunction, k: int = 1) -> GridFunction:
    """f o sigma^k as a grid function on T^{kappa^k} (drops the top k points)."""
    if k == 0:
        return f
    if len(f) <= k:
        raise GridTooSmall("not enough points for the sigma shift")
    return GridFunction(f.scale.drop_last(k), f.values[k:])


def delta_derivative(f: GridFunction) -> GridFunction:
    """Forward difference quotient fDelta(t) = (f(sigma(t)) - f(t)) / mu(t) on T^kappa."""
    if len(f) < 2:
        raise GridTooSmall("delta derivative needs at least two points")
    pts = f.scale.points
    vals = (f.values[1:] - f.values[:-1]) / np.diff(pts)
    return GridFunction(f.scale.drop_last(), vals)


def nabla_derivative(f: GridFunction) -> GridFunction:
    """Backward difference quotient on T_kappa (all points except the minimum)."""
    if len(f) < 2:
        raise GridTooSmall("nabla derivative needs at least two points")
    pts = f.scale.points
    vals = (f.values[1:] - f.values[:-1]) / np.diff(pts)
    return GridFunction(f.scale.drop_first(), vals)


def higher_delta_derivative(f: GridFunction, n: int) -> GridFunction:
    """n-fold delta derivative; the domain loses one point per application."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if len(f) < n + 1:
        raise GridTooSmall(f"need at least {n + 1} points for the order-{n} derivative")
    for _ in range(n):
        f = delta_derivative(f)
    return f


def delta_integral(f: GridFunction, a: float, b: float) -> float:
    """Delta integral over [a, b): sum of mu(t) f(t); a > b flips the sign."""
    return diamond_integral(f, a, b, 1.0)


def nabla_integral(f: GridFunction, a: float, b: float) -> float:
    """Nabla integral over (a, b]: sum of nu(t) f(t); a > b flips the sign."""
    return diamond_integral(f, a, b, 0.0)


def _diamond_sum(mu: np.ndarray, values: np.ndarray, alpha: float) -> float:
    """alpha * sum mu f(t) + (1-alpha) * sum mu f(sigma(t)) over a grid's gaps mu and
    values f; at alpha 1 or 0 the other sum, and the end value only it reads, stay out."""
    if 0.0 < alpha < 1.0:
        return alpha * float(mu.dot(values[:-1])) + (1.0 - alpha) * float(mu.dot(values[1:]))
    if alpha == 1.0:
        return float(mu.dot(values[:-1]))
    if alpha == 0.0:
        return float(mu.dot(values[1:]))
    raise InvalidAlpha(f"alpha = {alpha} must lie in [0, 1]")


def diamond_integral(f: GridFunction, a: float, b: float, alpha: float) -> float:
    """Diamond-alpha integral alpha*delta + (1-alpha)*nabla over [a, b]; a > b flips it."""
    ts = f.scale
    ia, ib = ts.index(a), ts.index(b)
    if ia > ib:
        return -diamond_integral(f, b, a, alpha)
    pts = ts.points
    return _diamond_sum(pts[ia + 1 : ib + 1] - pts[ia:ib], f.values[ia : ib + 1], alpha)

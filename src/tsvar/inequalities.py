"""Bound calculators and certifiers for dynamic inequalities on finite grids.

Certifiers compute both sides of an inequality and report whether it holds
within floating tolerance; bound calculators return the explicit right-hand
sides of the Gronwall-type theorems.  The Gronwall, comparison and 2-D
Gronwall bounds come from kernels over a stack of trials (``_gronwall_stack``,
``_comparison_stack``, ``_gronwall_2d_stack``: one trial per row, zero-padded
past each grid), which ``ineqcheck`` runs on blocks of random trials; the
public functions are one-row wrappers with the same bits.  Bound data must be
finite, and so must the 2-D bounds' products, which one section-product
kernel builds (``NonFinite`` otherwise).  The integrodynamic solver is a plain
forward recursion (exact on isolated grids).  Per-point coefficients, data
and weights on one grid may come in any form ``timescale.values_on`` reads.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    InvalidExponent,
    NonFinite,
    NonRegressive,
    OutsideDomPsiInverse,
    RootNotBracketed,
    ZeroWeightMass,
)
from .solvers import _finite, adaptive_simpson, invert_integral
from .timescale import GridFunction, TimeScale, _diamond_sum, values_on

_CERT_TOL = 1e-10  # lhs <= rhs + _CERT_TOL * max(1, |rhs|) holds; ineqcheck reads it too


@dataclass(frozen=True)
class NonlinearGrowthSpec:
    """Growth data (Phi, W, Psi lower limit) for the nonlinear Gronwall bound."""

    Phi: Callable[[float], float]
    W: Callable[[float], float]
    Psi_x0: float

    def __post_init__(self):
        if self.Psi_x0 <= 0:
            raise ValueError("Psi_x0 must be positive")
        for u in (0.5, 1.0, 2.0):
            if self.Phi(u) <= 0:
                raise ValueError(f"Phi({u}) must be positive")
            if self.W(u) <= 0:
                raise ValueError(f"W({u}) must be positive")
        if self.Phi(2.0) < self.Phi(1.0) or self.W(2.0) < self.W(1.0):
            raise ValueError("Phi and W must be nondecreasing")


@dataclass
class BoundReport:
    lhs: float
    rhs: float
    holds: bool
    margin: float


def _report(lhs: float, rhs: float) -> BoundReport:
    """A certifier's verdict on lhs <= rhs; NonFinite where a side is not finite."""
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        raise NonFinite(f"the inequality's sides {float(lhs)!r} <= {float(rhs)!r} are not finite")
    holds = lhs <= rhs + _CERT_TOL * max(1.0, abs(rhs))
    return BoundReport(float(lhs), float(rhs), bool(holds), float(rhs - lhs))


# ---------------------------------------------------------------------------
# Gronwall / comparison bounds


def _require_finite(what: str, *arrays) -> None:
    """One finiteness check per stack of bound data, before any arithmetic."""
    for x in arrays:
        if not _finite(x):
            raise NonFinite(f"{what} must be finite")


def _forward_solve(mu: np.ndarray, c: np.ndarray, d: np.ndarray, y0: np.ndarray,
                   i0: int) -> np.ndarray:
    """Solutions of y^Delta = c y + d from y(t_{i0}) = y0, one per row of a stack.

    mu, c and d hold one trial per row, zero-padded past the end of each
    trial's grid: a zero gap makes the step factor 1 and adds nothing, so the
    real entries do not depend on the padding.  One forward step per grid
    interval, y[i+1] = (1 + mu_i c_i) y[i] + mu_i d_i, is the
    variation-of-constants formula on an isolated grid.  Returns the values at
    t_{i0}, ..., t_m for m gaps, shape (trials, m - i0 + 1).  Raises
    NonRegressive at the first i >= i0 where some row's 1 + mu_i c_i is not
    positive.
    """
    m = mu.shape[1]
    factor = 1.0 + mu[:, i0:] * c[:, i0:m]
    step = mu[:, i0:] * d[:, i0:m]
    bad = factor <= 1e-14
    if bad.any():
        j = int(bad.any(axis=0).argmax())
        value = float(factor[int(bad[:, j].argmax()), j])
        raise NonRegressive(f"1 + mu*p = {value} at t index {j + i0} must stay positive")
    if len(mu) == 1:
        # one trial steps on Python floats: a numpy call per column costs more
        factor, step, y = factor[0].tolist(), step[0].tolist(), [float(y0[0])]
    else:
        factor, step, y = factor.T, step.T, [y0]
    for f, s in zip(factor, step):
        y.append(f * y[-1] + s)
    return np.array(y).T.reshape(len(mu), -1)


def _gronwall_stack(mu: np.ndarray, a: np.ndarray, b: np.ndarray, i0: int) -> np.ndarray:
    """gronwall_bound's values for a stack of trials (rows of mu, a and b)."""
    _require_finite("Gronwall data a and b", a, b)
    # the integral term solves acc^Delta = b acc + a b with acc(t0) = 0
    return a[:, i0:] + _forward_solve(mu, b, a * b, np.zeros(len(a)), i0)


def _comparison_stack(mu: np.ndarray, y0: np.ndarray, p: np.ndarray, f: np.ndarray,
                      i0: int) -> np.ndarray:
    """comparison_bound's values for a stack of trials: y^Delta = p y + f, y(t0) = y0."""
    _require_finite("comparison data y0, p and f", y0, p, f)
    return _forward_solve(mu, p, f, y0, i0)


def _from_t0(ts: TimeScale, i0: int) -> TimeScale:
    return ts if i0 == 0 else TimeScale(ts.points[i0:])


def gronwall_bound(ts: TimeScale, a_fn, b_fn, t0: float) -> GridFunction:
    """Right side a(t) + integral_{t0}^t a b e_b(t, sigma(tau)) Delta tau, t >= t0."""
    a = values_on(ts, a_fn)
    b = values_on(ts, b_fn)
    i0 = ts.index(t0)
    bound = _gronwall_stack(np.diff(ts.points)[None], a[None], b[None], i0)
    return GridFunction(_from_t0(ts, i0), bound[0])


def comparison_bound(ts: TimeScale, y0: float, p, f, t0: float) -> GridFunction:
    """y0 e_p(t, t0) + integral_{t0}^t e_p(t, sigma(tau)) f(tau) Delta tau."""
    pv = values_on(ts, p)
    fv = values_on(ts, f)
    i0 = ts.index(t0)
    bound = _comparison_stack(np.diff(ts.points)[None], np.array([float(y0)]),
                              pv[None], fv[None], i0)
    return GridFunction(_from_t0(ts, i0), bound[0])


# ---------------------------------------------------------------------------
# Nonlinear Gronwall (kernel + growth functions)


def nonlinear_gronwall_bound(ts: TimeScale, u_data, a_fn, f_fn,
                             kernel: Callable[[float, float], float],
                             spec: NonlinearGrowthSpec) -> GridFunction:
    """Explicit bound for u <= a + int f u + int f(s) W(int k(s,.) Phi(u)) type growth.

    The bound is p (a + int f w) with p = e_f(., a) and
    w(s) = W(Psi^-1(Psi(zeta) + int_a^s k(s, tau) Phi(p) Phi(int_a^tau f))),
    zeta = int_a^rho(b) k(rho(b), s) Phi(p a).  Where the inner integral is 0,
    w is W(zeta), which a zero kernel makes W(0): the growth term keeps W's
    value at 0.  u_data is accepted for signature symmetry with the certified
    inequality but the bound itself depends only on (a, f, k, Phi, W).
    """
    del u_data  # the bound does not depend on the trajectory
    a = values_on(ts, a_fn)
    f = values_on(ts, f_fn)
    pts = ts.points
    n = pts.size
    mu = np.diff(pts)

    _require_finite("nonlinear Gronwall data a and f", a, f)
    # p = 1 + integral_a^t f e_f(t, sigma(s)) Delta s, which is e_f(t, a)
    p = _forward_solve(mu[None], f[None], np.zeros((1, n)), np.ones(1), 0)[0]

    # zeta = integral over [a, rho(b)) of k(rho(b), s) Phi(p(s) a(s))
    zeta = 0.0
    for j in range(n - 2):
        zeta += mu[j] * kernel(pts[n - 2], pts[j]) * spec.Phi(p[j] * a[j])

    def integrand(s: float) -> float:
        phi = spec.Phi(spec.W(s))
        value = 1.0 / phi if phi else math.inf
        if not math.isfinite(value):  # e.g. Phi(W(0)) = 0: Psi is undefined there
            raise OutsideDomPsiInverse(f"1/Phi(W(s)) is not finite at s = {s}")
        return value

    def Psi(x: float) -> float:
        # accumulate octave by octave: a single sweep over [x0, x] can span
        # hundreds of decades and exhaust the quadrature recursion depth.  No
        # octave walk reaches 0: Psi(0) walks down to 1, then sweeps [0, pos].
        acc, pos = 0.0, spec.Psi_x0
        while pos < x / 2.0:
            acc += adaptive_simpson(integrand, pos, 2.0 * pos)
            pos *= 2.0
        while pos > (2.0 * x if x else 1.0):
            acc += adaptive_simpson(integrand, pos, pos / 2.0)
            pos /= 2.0
        return acc + adaptive_simpson(integrand, pos, x)

    # F[m] = integral of f over [a, t_m); inner_j = int_a^{s_j} k(s_j,tau) Phi(p) Phi(F)
    # and w[j] = W(Psi^-1(Psi(zeta) + inner_j)) depend on j alone
    F = np.concatenate([[0.0], np.cumsum(mu * f[:-1])])
    phi_pF = [spec.Phi(p[m]) * spec.Phi(F[m]) for m in range(n - 2)]
    inner = []
    for j in range(n - 1):
        inner_j = 0.0
        for m in range(j):
            inner_j += mu[m] * kernel(pts[j], pts[m]) * phi_pF[m]
        inner.append(inner_j)
    # where zeta = inner_j = 0, w[j] = W(Psi^-1(Psi(0))) = W(0) needs no Psi,
    # which may diverge at 0
    live = [j for j in range(n - 1) if zeta != 0.0 or inner[j] != 0.0]
    w = np.full(n - 1, float(spec.W(zeta)))
    if live:
        try:  # a Psi that diverges (e.g. at 0 for Phi(W(s)) = s) or never reaches a target
            psi_zeta = Psi(zeta)
            # Psi' = 1/Phi(W) > 0: walk Psi^-1 from zeta, or from x0 where Psi is 0
            x, val = (zeta, psi_zeta) if zeta > 0.0 else (spec.Psi_x0, 0.0)
            roots = invert_integral(integrand, [psi_zeta + inner[j] for j in live], x, val)
        except (NonFinite, RootNotBracketed) as exc:
            raise OutsideDomPsiInverse(f"Psi^-1 is not defined here: {exc}") from exc
        w[live] = [spec.W(root) for root in roots]
    acc = np.concatenate([[0.0], np.cumsum(mu * f[:-1] * w)])
    return GridFunction(ts, p * a + p * acc)


# ---------------------------------------------------------------------------
# Diamond-alpha certifiers


def jensen_certify(ts: TimeScale, F: Callable[[float], float], g,
                   weights=None, alpha: float = 1.0) -> BoundReport:
    """F(weighted diamond-alpha mean of g) vs weighted mean of F(g)."""
    gv = values_on(ts, g)
    hv = np.ones(len(ts)) if weights is None else np.abs(values_on(ts, weights))
    mu = ts.points[1:] - ts.points[:-1]
    mass = _diamond_sum(mu, hv, alpha)
    if mass <= 0.0:
        raise ZeroWeightMass("the diamond-alpha integral of |weights| must be positive")
    mean = _diamond_sum(mu, hv * gv, alpha) / mass
    lhs = F(mean)
    rhs = _diamond_sum(mu, hv * np.array([F(x) for x in gv.tolist()]), alpha) / mass
    return _report(lhs, rhs)


def _check_exponent(p: float) -> None:
    if not 1.0 < p < math.inf:  # NaN fails the comparison
        raise InvalidExponent(f"p = {p} must exceed 1 and be finite")


def holder_certify(ts: TimeScale, f, g, h_weights=None, p: float = 2.0,
                   alpha: float = 1.0) -> BoundReport:
    """Diamond-alpha Hoelder: int h|fg| <= (int h|f|^p)^(1/p) (int h|g|^q)^(1/q)."""
    _check_exponent(p)
    q = p / (p - 1.0)
    fv = np.abs(values_on(ts, f))
    gv = np.abs(values_on(ts, g))
    hv = 1.0 if h_weights is None else np.abs(values_on(ts, h_weights))  # 1.0 * x is x
    mu = ts.points[1:] - ts.points[:-1]
    lhs = _diamond_sum(mu, hv * fv * gv, alpha)
    rhs = (_diamond_sum(mu, hv * fv**p, alpha) ** (1.0 / p)
           * _diamond_sum(mu, hv * gv**q, alpha) ** (1.0 / q))
    return _report(lhs, rhs)


def cauchy_schwarz_certify(ts: TimeScale, f, g, alpha: float = 1.0) -> BoundReport:
    return holder_certify(ts, f, g, None, 2.0, alpha)


def minkowski_certify(ts: TimeScale, f, g, p: float = 2.0,
                      alpha: float = 1.0) -> BoundReport:
    """Diamond-alpha Minkowski: ||f+g||_p <= ||f||_p + ||g||_p."""
    _check_exponent(p)
    fv = values_on(ts, f)
    gv = values_on(ts, g)
    mu = ts.points[1:] - ts.points[:-1]
    lhs = _diamond_sum(mu, np.abs(fv + gv) ** p, alpha) ** (1.0 / p)
    rhs = (_diamond_sum(mu, np.abs(fv) ** p, alpha) ** (1.0 / p)
           + _diamond_sum(mu, np.abs(gv) ** p, alpha) ** (1.0 / p))
    return _report(lhs, rhs)


# ---------------------------------------------------------------------------
# Two-variable Gronwall bounds


def _surface_values(ts1: TimeScale, ts2: TimeScale, fn) -> np.ndarray:
    if callable(fn):
        return np.array([[fn(t1, t2) for t2 in ts2.points] for t1 in ts1.points],
                        dtype=float)
    if isinstance(fn, numbers.Real):
        return np.full((len(ts1), len(ts2)), float(fn))
    out = np.asarray(fn, dtype=float)
    if out.shape != (len(ts1), len(ts2)):
        raise ValueError("surface shape does not match the grids")
    return out


def _section_products(mu_t: np.ndarray, mu_s: np.ndarray, f: np.ndarray, a) -> np.ndarray:
    """Entry [:, i, j] is a times prod_{k<i} (1 + mu_t[:, k] S[:, k, j]), S[:, k, j] =
    sum_{l<j} f[:, k, l] mu_s[:, l], in loop order; NonFinite where an entry is not finite."""
    S, P = np.zeros_like(f), np.ones_like(f)
    with np.errstate(over="ignore", invalid="ignore"):  # what overflows is refused below
        S[:, :, 1:] = np.cumsum(f[:, :, :-1] * mu_s[:, None, :], axis=2)
        P[:, 1:] = np.cumprod(1.0 + mu_t[:, :, None] * S[:, :-1], axis=1)
        P *= a
    _require_finite("2-D Gronwall step products", P)
    return P


def _gronwall_2d_stack(mu1: np.ndarray, mu2: np.ndarray, a: np.ndarray,
                       f: np.ndarray) -> tuple:
    """gronwall_2d_bound's (bound1, bound2) for a stack of trials.

    a and f have shape (trials, n1, n2) and the gaps mu1, mu2 one row per
    trial, all zero-padded past each trial's grids: a padded entry only ever
    follows the real ones in a sum or product, so it leaves them unchanged.
    """
    _require_finite("2-D Gronwall data a and f", a, f)
    return (_section_products(mu1, mu2, f, a),  # bound2 is bound1 on the transposed surfaces
            _section_products(mu2, mu1, f.swapaxes(1, 2), a.swapaxes(1, 2)).swapaxes(1, 2))


def gronwall_2d_bound(ts1: TimeScale, ts2: TimeScale, a_fn, f_fn):
    """Both explicit bounds for u <= a + double integral of f*u.

    Returns (bound1, bound2): bound1 exponentiates along t1 with the t2-section
    integral of f in the exponent; bound2 is the symmetric form.  Either is
    valid; their pointwise minimum is the sharper combined bound.
    """
    a = _surface_values(ts1, ts2, a_fn)
    f = _surface_values(ts1, ts2, f_fn)
    bound1, bound2 = _gronwall_2d_stack(np.diff(ts1.points)[None],
                                        np.diff(ts2.points)[None], a[None], f[None])
    return bound1[0], bound2[0]


def gronwall_2d_power_bound(ts1: TimeScale, ts2: TimeScale, a_fn, f_fn,
                            p: float, q: float) -> np.ndarray:
    """Bound for u^p <= a + double integral f u^q: a^{1/p} e_{...}^{1/p}."""
    if not (p >= q > 0):
        raise InvalidExponent(f"need p >= q > 0, got p={p}, q={q}")
    a = _surface_values(ts1, ts2, a_fn)
    f = _surface_values(ts1, ts2, f_fn)
    _require_finite("2-D Gronwall data a and f", a, f)
    if np.any(a <= 0):
        raise ValueError("a must be positive for the power bound")
    with np.errstate(over="ignore", invalid="ignore"):  # the products refuse what overflows
        weighted = f * a ** (q / p - 1.0)
    prod = _section_products(np.diff(ts1.points)[None], np.diff(ts2.points)[None],
                             weighted[None], 1.0)[0]
    e = 1.0 / p  # pow on Python floats: numpy's power may round the last bit differently
    try:
        bound = np.array([x ** e * y ** e for x, y in zip(a.ravel().tolist(),
                                                          prod.ravel().tolist())])
    except OverflowError as exc:
        raise NonFinite("the 2-D power bound must be finite") from exc
    _require_finite("the 2-D power bound", bound)
    return bound.reshape(a.shape)


# ---------------------------------------------------------------------------
# Integrodynamic initial value problem


def solve_integrodynamic(ts: TimeScale, F: Callable[[float, float, float], float],
                         K: Callable[[float, float, float], float],
                         A: float) -> GridFunction:
    """Forward recursion for x^Delta = F(t, x, integral_a^t K(t, s, x(s)) Delta s)."""
    pts = ts.points
    mu = np.diff(pts)
    x = np.empty(pts.size)
    x[0] = A
    for i in range(pts.size - 1):
        z = 0.0
        for j in range(i):
            z += mu[j] * K(pts[i], pts[j], x[j])
        x[i + 1] = x[i] + mu[i] * F(pts[i], x[i], z)
        if not math.isfinite(x[i + 1]):
            raise NonFinite(f"trajectory overflowed at t = {pts[i + 1]}")
    return GridFunction(ts, x)

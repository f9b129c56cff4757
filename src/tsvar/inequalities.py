"""Bound calculators and certifiers for dynamic inequalities on finite grids.

Certifiers compute both sides of an inequality and report whether it holds
within floating tolerance; bound calculators return the explicit right-hand
sides of the Gronwall-type theorems.  The integrodynamic solver is a plain
forward recursion (exact on isolated grids).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import (
    InvalidAlpha,
    InvalidExponent,
    NonFinite,
    NonRegressive,
    OutsideDomPsiInverse,
    ZeroWeightMass,
)
from .solvers import adaptive_simpson
from .timescale import GridFunction, TimeScale

_CERT_TOL = 1e-10


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
    holds = lhs <= rhs + _CERT_TOL * max(1.0, abs(rhs))
    return BoundReport(float(lhs), float(rhs), bool(holds), float(rhs - lhs))


def _values_on(ts: TimeScale, f) -> np.ndarray:
    if isinstance(f, GridFunction):
        return np.asarray(f.values, dtype=float)
    if callable(f):
        return np.array([f(t) for t in ts.points], dtype=float)
    out = np.asarray(f, dtype=float)
    if out.shape != (len(ts),):
        raise ValueError("values do not match the grid")
    return out


# ---------------------------------------------------------------------------
# Gronwall / comparison bounds


def _forward_solve(mu: np.ndarray, c: np.ndarray, d: np.ndarray, y0: float,
                   i0: int) -> np.ndarray:
    """Solution of y^Delta = c y + d from y(t_{i0}) = y0, on t_{i0}, ..., t_{n-1}.

    One forward step per grid interval, y[i+1] = (1 + mu_i c_i) y[i] + mu_i d_i,
    is the variation-of-constants formula on an isolated grid.  Raises
    NonRegressive at the first i >= i0 where 1 + mu_i c_i is not positive.
    """
    mu, c, d = mu.tolist(), c.tolist(), d.tolist()
    y = [float(y0)]
    for j in range(i0, len(mu)):
        factor = 1.0 + mu[j] * c[j]
        if factor <= 1e-14:
            raise NonRegressive(f"1 + mu*p = {factor} at t index {j} must stay positive")
        y.append(factor * y[-1] + mu[j] * d[j])
    return np.array(y)


def gronwall_bound(ts: TimeScale, a_fn, b_fn, t0: float) -> GridFunction:
    """Right side a(t) + integral_{t0}^t a b e_b(t, sigma(tau)) Delta tau, t >= t0."""
    a = _values_on(ts, a_fn)
    b = _values_on(ts, b_fn)
    pts = ts.points
    i0 = ts.index(t0)
    # the integral term solves acc^Delta = b acc + a b with acc(t0) = 0
    acc = _forward_solve(np.diff(pts), b, a * b, 0.0, i0)
    return GridFunction(TimeScale(pts[i0:]), a[i0:] + acc)


def comparison_bound(ts: TimeScale, y0: float, p, f, t0: float) -> GridFunction:
    """y0 e_p(t, t0) + integral_{t0}^t e_p(t, sigma(tau)) f(tau) Delta tau."""
    pv = _values_on(ts, p)
    fv = _values_on(ts, f)
    pts = ts.points
    i0 = ts.index(t0)
    # the solution of y^Delta = p y + f with y(t0) = y0
    out = _forward_solve(np.diff(pts), pv, fv, y0, i0)
    return GridFunction(TimeScale(pts[i0:]), out)


# ---------------------------------------------------------------------------
# Nonlinear Gronwall (kernel + growth functions)


def nonlinear_gronwall_bound(ts: TimeScale, u_data, a_fn, f_fn,
                             kernel: Callable[[float, float], float],
                             spec: NonlinearGrowthSpec) -> GridFunction:
    """Explicit bound for u <= a + int f u + int f(s) W(int k(s,.) Phi(u)) type growth.

    u_data is accepted for signature symmetry with the certified inequality but
    the bound itself depends only on (a, f, k, Phi, W).
    """
    del u_data  # the bound does not depend on the trajectory
    a = _values_on(ts, a_fn)
    f = _values_on(ts, f_fn)
    pts = ts.points
    n = pts.size
    mu = np.diff(pts)

    # p = 1 + integral_a^t f e_f(t, sigma(s)) Delta s, which is e_f(t, a)
    p = _forward_solve(mu, f, np.zeros(n), 1.0, 0)

    # zeta = integral over [a, rho(b)) of k(rho(b), s) Phi(p(s) a(s))
    zeta = 0.0
    for j in range(n - 2):
        zeta += mu[j] * kernel(pts[n - 2], pts[j]) * spec.Phi(p[j] * a[j])

    def integrand(s: float) -> float:
        return 1.0 / spec.Phi(spec.W(s))

    def Psi(x: float) -> float:
        # accumulate octave by octave: a single sweep over [x0, x] can span
        # hundreds of decades and exhaust the quadrature recursion depth
        acc, pos = 0.0, spec.Psi_x0
        while pos < x / 2.0:
            acc += adaptive_simpson(integrand, pos, 2.0 * pos)
            pos *= 2.0
        while pos > 2.0 * x:
            acc += adaptive_simpson(integrand, pos, pos / 2.0)
            pos /= 2.0
        return acc + adaptive_simpson(integrand, pos, x)

    def Psi_inv(target: float) -> float:
        if target == 0.0:
            return spec.Psi_x0
        grow = target > 0.0
        x, val = spec.Psi_x0, 0.0
        stall = 0
        while (val < target) if grow else (val > target):
            nxt = 2.0 * x if grow else 0.5 * x
            if nxt > 1e300 or nxt < 1e-300:
                raise OutsideDomPsiInverse(f"Psi never reaches {target}")
            piece = adaptive_simpson(integrand, x, nxt)
            if abs(piece) <= 1e-16 * max(1.0, abs(target)):
                stall += 1
                if stall >= 64:
                    raise OutsideDomPsiInverse(
                        f"Psi plateaus below its inversion target {target}")
            else:
                stall = 0
            prev_x, prev_v = x, val
            x, val = nxt, val + piece
        near_x, near_v, far_x = prev_x, prev_v, x
        for _ in range(200):
            mid = 0.5 * (near_x + far_x)
            v_mid = near_v + adaptive_simpson(integrand, near_x, mid)
            if (v_mid < target) if grow else (v_mid > target):
                near_x, near_v = mid, v_mid
            else:
                far_x = mid
            if abs(far_x - near_x) <= 1e-13 * max(1.0, abs(far_x)):
                break
        return 0.5 * (near_x + far_x)

    # F[m] = integral of f over [a, t_m); inner_j = int_a^{s_j} k(s_j,tau) Phi(p) Phi(F)
    # and w[j] = W(Psi^-1(Psi(zeta) + inner_j)) depend on j alone
    F = np.concatenate([[0.0], np.cumsum(mu * f[:-1])])
    phi_pF = [spec.Phi(p[m]) * spec.Phi(F[m]) for m in range(n - 2)]
    psi_zeta = None
    w = np.zeros(n - 1)
    for j in range(n - 1):
        inner = 0.0
        for m in range(j):
            inner += mu[m] * kernel(pts[j], pts[m]) * phi_pF[m]
        if zeta == 0.0 and inner == 0.0:
            continue  # zero-kernel collapse: no growth contribution
        if psi_zeta is None:
            psi_zeta = Psi(zeta)
        w[j] = spec.W(Psi_inv(psi_zeta + inner))
    acc = np.concatenate([[0.0], np.cumsum(mu * f[:-1] * w)])
    return GridFunction(ts, p * a + p * acc)


# ---------------------------------------------------------------------------
# Diamond-alpha integrals and certifiers


def _diamond(ts: TimeScale, vals: np.ndarray, alpha: float) -> float:
    if not (0.0 <= alpha <= 1.0):
        raise InvalidAlpha(f"alpha = {alpha} must lie in [0, 1]")
    pts = ts.points
    mu = np.diff(pts)
    delta_part = float(mu @ vals[:-1])
    nabla_part = float(mu @ vals[1:])
    return alpha * delta_part + (1.0 - alpha) * nabla_part


def jensen_certify(ts: TimeScale, F: Callable[[float], float], g,
                   weights=None, alpha: float = 1.0) -> BoundReport:
    """F(weighted diamond-alpha mean of g) vs weighted mean of F(g)."""
    gv = _values_on(ts, g)
    if weights is None:
        hv = np.ones(len(ts))
    else:
        hv = np.abs(_values_on(ts, weights))
    mass = _diamond(ts, hv, alpha)
    if mass <= 0.0:
        raise ZeroWeightMass("the diamond-alpha integral of |weights| must be positive")
    mean = _diamond(ts, hv * gv, alpha) / mass
    lhs = F(mean)
    rhs = _diamond(ts, hv * np.array([F(x) for x in gv]), alpha) / mass
    return _report(lhs, rhs)


def holder_certify(ts: TimeScale, f, g, h_weights=None, p: float = 2.0,
                   alpha: float = 1.0) -> BoundReport:
    """Diamond-alpha Hoelder: int h|fg| <= (int h|f|^p)^(1/p) (int h|g|^q)^(1/q)."""
    if p <= 1.0:
        raise InvalidExponent(f"p = {p} must exceed 1")
    q = p / (p - 1.0)
    fv = np.abs(_values_on(ts, f))
    gv = np.abs(_values_on(ts, g))
    hv = np.ones(len(ts)) if h_weights is None else np.abs(_values_on(ts, h_weights))
    lhs = _diamond(ts, hv * fv * gv, alpha)
    rhs = (_diamond(ts, hv * fv**p, alpha) ** (1.0 / p)
           * _diamond(ts, hv * gv**q, alpha) ** (1.0 / q))
    return _report(lhs, rhs)


def cauchy_schwarz_certify(ts: TimeScale, f, g, alpha: float = 1.0) -> BoundReport:
    return holder_certify(ts, f, g, None, 2.0, alpha)


def minkowski_certify(ts: TimeScale, f, g, p: float = 2.0,
                      alpha: float = 1.0) -> BoundReport:
    """Diamond-alpha Minkowski: ||f+g||_p <= ||f||_p + ||g||_p."""
    if p <= 1.0:
        raise InvalidExponent(f"p = {p} must exceed 1")
    fv = _values_on(ts, f)
    gv = _values_on(ts, g)
    lhs = _diamond(ts, np.abs(fv + gv) ** p, alpha) ** (1.0 / p)
    rhs = (_diamond(ts, np.abs(fv) ** p, alpha) ** (1.0 / p)
           + _diamond(ts, np.abs(gv) ** p, alpha) ** (1.0 / p))
    return _report(lhs, rhs)


# ---------------------------------------------------------------------------
# Two-variable Gronwall bounds


def _surface_values(ts1: TimeScale, ts2: TimeScale, fn) -> np.ndarray:
    if callable(fn):
        return np.array([[fn(t1, t2) for t2 in ts2.points] for t1 in ts1.points],
                        dtype=float)
    out = np.asarray(fn, dtype=float)
    if out.shape != (len(ts1), len(ts2)):
        raise ValueError("surface shape does not match the grids")
    return out


def gronwall_2d_bound(ts1: TimeScale, ts2: TimeScale, a_fn, f_fn):
    """Both explicit bounds for u <= a + double integral of f*u.

    Returns (bound1, bound2): bound1 exponentiates along t1 with the t2-section
    integral of f in the exponent; bound2 is the symmetric form.  Either is
    valid; their pointwise minimum is the sharper combined bound.
    """
    a = _surface_values(ts1, ts2, a_fn)
    f = _surface_values(ts1, ts2, f_fn)
    mu1 = np.diff(ts1.points)
    mu2 = np.diff(ts2.points)
    n1, n2 = a.shape

    # S2[i1, i2] = integral of f(t1_{i1}, .) over [a2, t2_{i2})
    S2 = np.zeros((n1, n2))
    S2[:, 1:] = np.cumsum(f[:, :-1] * mu2, axis=1)
    bound1 = np.empty_like(a)
    for i2 in range(n2):
        prod = 1.0
        for i1 in range(n1):
            bound1[i1, i2] = a[i1, i2] * prod
            if i1 < n1 - 1:
                prod *= 1.0 + mu1[i1] * S2[i1, i2]

    S1 = np.zeros((n1, n2))
    S1[1:, :] = np.cumsum(f[:-1, :] * mu1[:, None], axis=0)
    bound2 = np.empty_like(a)
    for i1 in range(n1):
        prod = 1.0
        for i2 in range(n2):
            bound2[i1, i2] = a[i1, i2] * prod
            if i2 < n2 - 1:
                prod *= 1.0 + mu2[i2] * S1[i1, i2]

    return bound1, bound2


def gronwall_2d_power_bound(ts1: TimeScale, ts2: TimeScale, a_fn, f_fn,
                            p: float, q: float) -> np.ndarray:
    """Bound for u^p <= a + double integral f u^q: a^{1/p} e_{...}^{1/p}."""
    if not (p >= q > 0):
        raise InvalidExponent(f"need p >= q > 0, got p={p}, q={q}")
    a = _surface_values(ts1, ts2, a_fn)
    f = _surface_values(ts1, ts2, f_fn)
    if np.any(a <= 0):
        raise ValueError("a must be positive for the power bound")
    mu1 = np.diff(ts1.points)
    mu2 = np.diff(ts2.points)
    n1, n2 = a.shape
    kernel = f * a ** (q / p - 1.0)
    S2 = np.zeros((n1, n2))
    S2[:, 1:] = np.cumsum(kernel[:, :-1] * mu2, axis=1)
    bound = np.empty_like(a)
    for i2 in range(n2):
        prod = 1.0
        for i1 in range(n1):
            bound[i1, i2] = a[i1, i2] ** (1.0 / p) * prod ** (1.0 / p)
            if i1 < n1 - 1:
                prod *= 1.0 + mu1[i1] * S2[i1, i2]
    return bound


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

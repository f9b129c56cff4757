"""Variational problems on finite time scales.

Covers the first-order Euler-Lagrange machinery (residuals, Legendre
condition, multi-start solving), higher-order problems with quadratic
Lagrangians, isoperimetric constraints with a multiplier, the Sturm-Liouville
first eigenvalue, and the three closed-form direct methods.  The potential q
and the direct-method weight phi may come in any form ``timescale.values_on``
reads; values that are not finite raise NonFinite.

Sign convention used throughout: the Euler-Lagrange residual is

    residual(t) = L_u[y](t) - (L_v[y])^Delta(t)

so a minimizer zeroes it.  (The time-scales EL equation is usually written
L_v^Delta = L_u; both orderings appear in the literature and only the sign of
the reported residual differs.)

The Newton-solved systems (classical and isoperimetric here, fractional in
``fracvar``) take their residual and exact Jacobian from ``newton_pair``, which
evaluates each Lagrangian once per Newton point, and report their roots
through ``extremal_candidates``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import dsl
from .dsl import Expr, ensure_expr, eval_jet2, eval_value, program
from .errors import (
    ConstraintInfeasible,
    DomainError,
    GridTooSmall,
    HypothesisHViolated,
    InvalidExponent,
    NoConvergence,
    NonFinite,
    NonPositivePhi,
    PreconditionViolated,
    SingularJacobian,
)
from .solvers import (
    SolverConfig,
    Tridiagonal,
    adaptive_simpson,
    invert_integral,
    jacobi_eigh,
    multi_start,
    refuse_dense_beyond_cap,
)
from .timescale import GridFunction, TimeScale, values_on

# ---------------------------------------------------------------------------
# Problem types


@dataclass(frozen=True)
class VariationalProblem:
    """Minimize integral of L(t, y^sigma, y^Delta) with fixed endpoints."""

    scale: TimeScale
    L: Union[Expr, str]
    A: float
    B: float

    def __post_init__(self):
        object.__setattr__(self, "L", ensure_expr(self.L))
        if len(self.scale) < 3:
            raise GridTooSmall("need at least 3 points for a variational problem")

    @cached_property
    def residual_scale(self) -> TimeScale:
        """T^{kappa kappa}, where el_residual lives; built once, not per residual."""
        return self.scale.drop_last(2)


@dataclass(frozen=True)
class QuadraticLagrangian:
    """L(u_0..u_r) = x.Q.x + c.x  -- the catalog used for higher-order problems."""

    quad: np.ndarray
    lin: np.ndarray

    def __post_init__(self):
        Q = np.array(self.quad, dtype=float)
        c = np.array(self.lin, dtype=float)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1] or c.shape != (Q.shape[0],):
            raise ValueError("quad must be square and lin of matching length")
        object.__setattr__(self, "quad", (Q + Q.T) / 2.0)
        object.__setattr__(self, "lin", c)

    @property
    def order(self) -> int:
        return self.lin.shape[0] - 1

    def value(self, x: np.ndarray) -> float:
        return float(x @ self.quad @ x + self.lin @ x)


@dataclass(frozen=True)
class HigherOrderProblem:
    """Minimize integral of L(t, y^{sigma^r}, ..., y^{Delta^r}) over [a, rho^{r-1}(b)].

    Boundary data fixes y^{Delta^i} at a and at rho^{r-1}(b) for i = 0..r-1.
    """

    scale: TimeScale
    order: int
    L: QuadraticLagrangian
    ya: Sequence[float]
    yb: Sequence[float]

    def __post_init__(self):
        r = self.order
        if r < 1:
            raise ValueError("order must be >= 1")
        if self.L.order != r:
            raise ValueError(f"Lagrangian has {self.L.order + 1} arguments, expected {r + 1}")
        if len(self.scale) < 2 * r + 1:
            raise GridTooSmall(f"need at least {2 * r + 1} points for order {r}")
        if self.scale.hypothesis_h() is None:
            raise HypothesisHViolated("scale must satisfy sigma(t) = a1*t + a0")
        if len(self.ya) != r or len(self.yb) != r:
            raise ValueError(f"need {r} boundary values at each end")
        object.__setattr__(self, "ya", tuple(float(x) for x in self.ya))
        object.__setattr__(self, "yb", tuple(float(x) for x in self.yb))


@dataclass(frozen=True)
class IsoperimetricProblem:
    """Minimize integral of L subject to integral of g equal to level l."""

    scale: TimeScale
    L: Union[Expr, str]
    g: Union[Expr, str]
    A: float
    B: float
    l: float

    def __post_init__(self):
        object.__setattr__(self, "L", ensure_expr(self.L))
        object.__setattr__(self, "g", ensure_expr(self.g))
        if len(self.scale) < 3:
            raise GridTooSmall("need at least 3 points for a variational problem")


@dataclass
class LegendreReport:
    margins: GridFunction
    ok: bool


@dataclass
class ExtremalCandidate:
    y: GridFunction
    residual_norm: float
    legendre_ok: bool
    margins: GridFunction
    functional_value: float
    multiplier: Optional[float] = None

    def __post_init__(self):
        if self.residual_norm < 0:
            raise ValueError("residual_norm must be nonnegative")


@dataclass
class DirectResult:
    y: GridFunction
    F_value: float
    kind: str  # "min" or "max"


# ---------------------------------------------------------------------------
# First-order residuals


def _first_order_args(ts: TimeScale, values: np.ndarray):
    """Per-point (t, u, v) with u = y^sigma, v = y^Delta on T^kappa."""
    pts = ts.points
    mu = np.diff(pts)
    u = values[1:]
    v = np.diff(values) / mu
    return pts[:-1], u, v, mu


def _el_rows(grad: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """L_u - (L_v)^Delta on T^{kappa kappa} from L's gradient rows on T^kappa."""
    return grad[0][:-1] - np.diff(grad[1]) / mu[:-1]


def el_residual(p: VariationalProblem, y: GridFunction) -> GridFunction:
    """L_u - (L_v)^Delta on T^{kappa kappa}; zero along extremals."""
    t, u, v, mu = _first_order_args(p.scale, np.asarray(y.values, dtype=float))
    # order 1: the rows equal an order-2 jet's gradient, and a Hessian undefined
    # where L_u and L_v are defined raises nothing; called on the dsl module,
    # where bench/tracer.py counts evaluations
    return GridFunction(p.residual_scale, _el_rows(dsl.eval_grad(p.L, t, u, v, 0.0)[1:], mu))


def _el_jacobian(hess: np.ndarray, mu: np.ndarray) -> Tridiagonal:
    """Exact Jacobian of el_residual in the interior values, as its three diagonals,
    from L's Hessian rows (uu, uv, uw, vv, vw, ww) on T^kappa.

    Row j, L_u(t_j) - (L_v(t_{j+1}) - L_v(t_j)) / mu_j, sees y_j, y_{j+1} and
    y_{j+2} through u_i = y_{i+1} and v_i = (y_{i+1} - y_i) / mu_i, so the
    matrix is tridiagonal: O(N) memory, and newton_solve steps with an O(N)
    sweep.  ``np.asarray`` gives the dense matrix.
    """
    huu, huv, _, hvv, _, _ = hess
    # d L_u(t_i) and d L_v(t_i) by y_i (suffix 0) and by y_{i+1} (suffix 1)
    du0, du1 = -huv / mu, huu + huv / mu
    dv0, dv1 = -hvv / mu, huv + hvv / mu
    return Tridiagonal(lower=(du0 + dv0 / mu)[1:-1],
                       diag=du1[:-1] + (dv1[:-1] - dv0[1:]) / mu[:-1],
                       upper=-dv1[1:-1] / mu[:-2])


def functional_value(p: Union[VariationalProblem, IsoperimetricProblem],
                     y: GridFunction) -> float:
    """Delta-integral of the Lagrangian along y."""
    t, u, v, mu = _first_order_args(p.scale, np.asarray(y.values, dtype=float))
    return float(mu @ eval_value(p.L, t, u, v))


def legendre_check(p: VariationalProblem, y: GridFunction) -> LegendreReport:
    """Pointwise L_vv + mu*(2 L_uv + mu L_uu + (mu^sigma)* L_vv(sigma)) on T^kappa.

    Uses the reciprocal convention 0* = 0, which on a finite grid kicks in at
    rho(b) where mu(sigma(t)) = 0.
    """
    t, u, v, mu = _first_order_args(p.scale, np.asarray(y.values, dtype=float))
    return _legendre_report(p.scale, eval_jet2(p.L, t, u, v, 0.0).hess, mu)


def _legendre_report(ts: TimeScale, hess: np.ndarray, mu: np.ndarray) -> LegendreReport:
    """legendre_check from L's Hessian rows (uu, uv, uw, vv, vw, ww) on T^kappa."""
    huu, huv, _, hvv, _, _ = hess
    # (1 / mu(sigma(t))) L_vv(sigma(t)); mu(sigma(t)) = 0 at the right edge: 0* = 0
    sigma_term = np.append((1.0 / mu[1:]) * hvv[1:], 0.0)
    margins = hvv + mu * (2.0 * huv + mu * huu + sigma_term)
    ok = bool(np.all(margins >= -1e-10))
    return LegendreReport(GridFunction(ts.drop_last(1), margins), ok)


# ---------------------------------------------------------------------------
# Higher-order problems


def _delta_rows(x: np.ndarray, mu: np.ndarray, i: int) -> np.ndarray:
    """Delta^i along axis 0 of x, whose rows sit at consecutive grid points.

    ``mu[k]`` is the graininess at the point of row k; each application drops
    the last row.
    """
    for _ in range(i):
        gaps = mu[: len(x) - 1]
        x = np.diff(x, axis=0)
        x /= gaps.reshape(gaps.shape + (1,) * (x.ndim - 1))
    return x


def _arguments(p: HigherOrderProblem, Y: np.ndarray, mu: np.ndarray):
    """X[i] = (y^{sigma^{r-i}})^{Delta^i} on the first n - r points, i = 0..r, in turn."""
    for i in range(p.order + 1):
        yield _delta_rows(Y[p.order - i:], mu, i)


def _higher_order_system(p: HigherOrderProblem, Y: np.ndarray, lin: bool) -> np.ndarray:
    """The stacked rows of the higher-order system for the columns of Y (or Y = y).

    The rows are the Euler-Lagrange residual on [a, rho^{2r}(b)], then
    y^{Delta^i}(a) - ya_i and y^{Delta^i}(rho^{r-1}(b)) - yb_i for each i < r.
    A quadratic L makes them affine in y; the constant part (c and the
    boundary data) enters only when ``lin`` is true, so Y = I with lin false
    gives the matrix and Y = 0 with lin true the constant.
    """
    a1, _ = p.scale.hypothesis_h()  # HigherOrderProblem checked (H) and the grid size
    r, n = p.order, len(p.scale)
    mu = np.diff(p.scale.points)
    Y = np.asarray(Y, dtype=float)
    # sum_k w_k (L_{u_k})^{Delta^k} with L_{u_k} = 2 sum_i Q[k, i] X[i] + c_k.
    # Each X[i] is carried through Delta^k for every k in turn, so Y = I needs
    # a few N x N arrays whatever the order.  Delta^k of the constant c_k
    # vanishes for k > 0, and w_0 = 1.
    weights = [(-1.0) ** k * (1.0 / a1) ** ((k - 1) * k // 2) for k in range(r + 1)]
    el = np.full((n - 2 * r,) + Y.shape[1:], p.L.lin[0] if lin else 0.0)
    for i, D in enumerate(_arguments(p, Y, mu)):
        for k in range(r + 1):
            if k:
                D = _delta_rows(D, mu, 1)
            el += 2.0 * weights[k] * p.L.quad[k, i] * D[: n - 2 * r]
    rows = [el]
    for i in range(r):
        rows.append(_delta_rows(Y[: i + 1], mu, i)[:1] - lin * p.ya[i])
        rows.append(_delta_rows(Y[n - r: n - r + i + 1], mu[n - r:], i)[:1] - lin * p.yb[i])
    return np.concatenate(rows)


def el_residual_higher(p: HigherOrderProblem, y: GridFunction) -> GridFunction:
    """Sum of (-1)^i (1/a1)^{i(i-1)/2} (L_{u_i})^{Delta^i} on [a, rho^{2r}(b)]."""
    m = len(p.scale) - 2 * p.order
    return GridFunction(p.scale.drop_last(2 * p.order),
                        _higher_order_system(p, y.values, lin=True)[:m])


def functional_value_higher(p: HigherOrderProblem, y: GridFunction) -> float:
    mu = np.diff(p.scale.points)
    X = np.array(list(_arguments(p, np.asarray(y.values, dtype=float), mu)))
    return float(mu[: X.shape[1]] @ (np.sum(X * (p.L.quad @ X), axis=0) + p.L.lin @ X))


# ---------------------------------------------------------------------------
# Solving


def newton_pair(exprs: Sequence[Expr], arguments: Callable,
                residual_of: Callable, jacobian_of: Callable) -> tuple:
    """Newton's residual and Jacobian built from the jets of ``exprs``, and ``jets(x)``.

    ``arguments(x)`` gives the expressions' (t, u, v, w) at the unknowns x,
    t spanning the grid; ``residual_of(x, rows)`` and ``jacobian_of(x, rows)``
    build the system from each expression's ``dsl.program`` rows at x.  The
    arguments, and a Jacobian, may be views of a per-solve buffer, valid
    until the next call (the fractional solver's are).  The residual runs
    each order-2 program once per point and keeps the rows (it runs order 1
    and keeps none where a Hessian raises DomainError).  Newton
    asks for the Jacobian only at the very x object of its latest successful
    residual call, so ``jets(x)``, and the Jacobian with it, reads the kept
    rows there and evaluates afresh elsewhere.  The programs run under the
    caller's ``np.errstate``, which newton_solve sets.
    """
    jet2, jet1 = [program(e, 2) for e in exprs], [program(e, 1) for e in exprs]
    kept = [None, None]  # [x, rows at x]

    def evaluate(programs, args):
        return [run(*args, args[0].shape) for run in programs]

    def residual(x):
        args = arguments(x)
        try:
            kept[:] = x, evaluate(jet2, args)
        except DomainError:
            kept[:] = None, evaluate(jet1, args)
        return residual_of(x, kept[1])

    def jets(x):
        return kept[1] if kept[0] is x else evaluate(jet2, arguments(x))

    return residual, lambda x: jacobian_of(x, jets(x)), jets


def extremal_candidates(roots: list, ts: TimeScale, assemble: Callable,
                        residual: Callable, legendre: Callable, value: Callable) -> list:
    """ExtremalCandidates at multi_start's roots x, sorted by functional value:
    at y = GridFunction(ts, assemble(x)), the norm of the textbook residual
    array ``residual(y)`` (overflow gives inf, as in multi_start), the
    LegendreReport ``legendre(y)`` and the functional ``value(y)``."""
    out = []
    for y in (GridFunction(ts, assemble(x)) for x in roots):
        with np.errstate(all="ignore"):
            norm = float(np.linalg.norm(residual(y)))
        report = legendre(y)
        out.append(ExtremalCandidate(y=y, residual_norm=norm, legendre_ok=report.ok,
                                     margins=report.margins, functional_value=value(y)))
    return sorted(out, key=lambda c: c.functional_value)


def _first_order_unknowns(p: Union[VariationalProblem, IsoperimetricProblem]):
    """(assemble, arguments): y and L's (t, u, v, w) at unknowns led by the interior values."""
    def assemble(x):
        return np.concatenate([[p.A], x[:len(p.scale) - 2], [p.B]])

    return assemble, lambda x: _first_order_args(p.scale, assemble(x))[:3] + (0.0,)


def solve_el(p: Union[VariationalProblem, HigherOrderProblem],
             config: Optional[SolverConfig] = None) -> list:
    """The extremals of the discrete stationarity system, as ExtremalCandidates.

    A first-order problem runs multi-start Newton and returns deduplicated
    candidates sorted by functional value; its system is tridiagonal and
    costs O(N) per Newton step.  A higher-order problem is affine in y: its
    matrix and constant part are assembled once and solved with one LAPACK
    call, so ``config`` is unused there and the one candidate comes back as
    a one-element list (SingularJacobian when the matrix is singular).  Its
    Legendre margins are trivially true, Legendre being a first-order
    notion.  The higher-order system is dense and refuses more than
    ``solvers.MAX_DENSE_POINTS`` points with a ValueError.
    """
    n = len(p.scale)
    if isinstance(p, HigherOrderProblem):
        refuse_dense_beyond_cap(n, "higher-order solver")
        J = _higher_order_system(p, np.eye(n), lin=False)
        r0 = _higher_order_system(p, np.zeros(n), lin=True)
        try:
            x = np.linalg.solve(J, -r0)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(f"higher-order system: {exc}") from exc
        if not np.isfinite(x).all():
            raise SingularJacobian("higher-order system: non-finite solution")
        y = GridFunction(p.scale, x)
        return [ExtremalCandidate(
            y=y, residual_norm=float(np.linalg.norm(el_residual_higher(p, y).values)),
            legendre_ok=True, margins=GridFunction(p.scale.drop_last(1), np.zeros(n - 1)),
            functional_value=functional_value_higher(p, y))]

    mu = np.diff(p.scale.points)
    assemble, arguments = _first_order_unknowns(p)
    residual, jacobian, _ = newton_pair(
        [p.L], arguments, lambda x, rows: _el_rows(rows[0][1:], mu),
        lambda x, rows: _el_jacobian(rows[0][4:], mu))
    roots = multi_start(residual, jacobian, n - 2, config or SolverConfig())
    return extremal_candidates(roots, p.scale, assemble, lambda y: el_residual(p, y).values,
                               lambda y: legendre_check(p, y), lambda y: functional_value(p, y))


def solve_isoperimetric(p: IsoperimetricProblem,
                        config: Optional[SolverConfig] = None) -> ExtremalCandidate:
    """Stationarity of F = L - lambda*g plus the constraint row; lambda unknown.

    Reports the root of least functional value.  The bordered Jacobian is dense,
    so more than ``solvers.MAX_DENSE_POINTS`` points are refused with a ValueError.
    """
    n = len(p.scale)
    refuse_dense_beyond_cap(n, "isoperimetric solver")
    mu = np.diff(p.scale.points)
    assemble, arguments = _first_order_unknowns(p)

    def residual_of(x, rows):
        L_rows, g_rows = rows
        return np.concatenate([_el_rows(L_rows[1:], mu) - x[-1] * _el_rows(g_rows[1:], mu),
                               [mu @ g_rows[0] - p.l]])

    def constraint_grad(g_rows):
        """The constraint row's gradient in y: mu times g's Euler-Lagrange rows."""
        return mu[:-1] * _el_rows(g_rows[1:], mu)

    def jacobian_of(x, rows):
        L_rows, g_rows = rows
        grad_g = constraint_grad(g_rows)
        J = np.zeros((n - 1, n - 1))
        # the block of F = L - lambda*g is tridiagonal
        J[:-1, :-1] = (np.asarray(_el_jacobian(L_rows[4:], mu))
                       - x[-1] * np.asarray(_el_jacobian(g_rows[4:], mu)))
        J[:-1, -1] = -grad_g / mu[:-1]
        J[-1, :-1] = grad_g
        return J

    residual, jacobian, jets = newton_pair([p.L, p.g], arguments, residual_of, jacobian_of)
    try:
        roots = multi_start(residual, jacobian, n - 1, config or SolverConfig())
    except NoConvergence as exc:
        raise ConstraintInfeasible(str(exc)) from exc
    values = [functional_value(p, GridFunction(p.scale, assemble(x))) for x in roots]
    best = min(range(len(roots)), key=values.__getitem__)
    x, lam = roots[best], roots[best][-1]
    with np.errstate(all="ignore"):  # as in multi_start: overflow gives inf
        residual_norm = float(np.linalg.norm(residual(x)))
        L_rows, g_rows = jets(x)  # the rows the residual kept at x
    _reject_abnormal(p.g, constraint_grad(g_rows),
                     mu[:-1, None] * np.asarray(_el_jacobian(g_rows[4:], mu)), x)
    report = _legendre_report(p.scale, L_rows[4:] - lam * g_rows[4:], mu)
    return ExtremalCandidate(y=GridFunction(p.scale, assemble(x)), residual_norm=residual_norm,
                             legendre_ok=report.ok, margins=report.margins,
                             functional_value=values[best], multiplier=float(lam))


def _reject_abnormal(g: Expr, grad: np.ndarray, hess: np.ndarray, x: np.ndarray) -> None:
    """Raise SingularJacobian when the multiplier is not identified.

    ``grad`` is the constraint's gradient c in the interior values at the
    root x and ``hess`` its Hessian diag(mu) J_g.  At an abnormal root (an
    extremal of the constraint itself) c vanishes.  A perturbation
    delta ~ N(0, s^2 I) moves c by diag(mu) J_g delta, of mean square
    s^2 ||diag(mu) J_g||_F^2; the check raises where ||c|| is at most 3e-2 of
    that move at s = 1e-2 max(1, |x|_inf), hence 3e-4 = 3e-2 * 1e-2.  A g
    affine in (u, v, w) has one c for every y and never raises: where c = 0
    it is a null constraint, whose lambda drops out of the system.
    """
    if all(row == 0.0 for row in dsl.program(g, 2).rows[4:]):  # a varying row is None
        return
    if np.linalg.norm(grad) <= 3e-4 * max(1.0, float(np.max(np.abs(x)))) * np.linalg.norm(hess):
        raise SingularJacobian(
            "constraint gradient vanishes at the solution "
            "(abnormal problem: the candidate extremizes the constraint)")


# ---------------------------------------------------------------------------
# Sturm-Liouville


def sturm_liouville_first(ts: TimeScale, q_fn) -> tuple:
    """Smallest eigenvalue and eigenfunction of y^{DeltaDelta} + q y^sigma = -lambda y^sigma.

    The pair minimizes J[y] = integral((y^Delta)^2 - q (y^sigma)^2) subject to
    integral((y^sigma)^2) = 1 and y(a) = y(b) = 0; the minimum value is
    lambda_1 itself.  The eigenproblem is dense, so more than
    ``solvers.MAX_DENSE_POINTS`` points are refused with a ValueError.
    """
    n = len(ts)
    if n < 4:
        raise GridTooSmall("need at least 4 points for the eigenvalue problem")
    refuse_dense_beyond_cap(n, "Sturm-Liouville solver")
    pts = ts.points
    mu = np.diff(pts)
    q = _finite_values(ts, q_fn, "q")
    m = n - 2  # unknowns y_1 .. y_{n-2}; boundary values are zero
    # J[y] sums (y_{j+1} - y_j)^2 / mu_j - mu_j q(t_j) y_{j+1}^2 over j < n - 1: y K y
    # for K tridiagonal, against the mass sum(mu_{i-1} y_i^2) = y D y
    w = 1.0 / mu
    k_diag, k_off = (w[:-1] - mu[:-1] * q[:m]) + w[1:], -w[1:-1]
    d = 1.0 / np.sqrt(mu[:m])
    b_off = k_off * d[1:] * d[:-1]  # B = D^{-1/2} K D^{-1/2}, symmetric by construction
    evals, vecs = jacobi_eigh(np.asarray(Tridiagonal(b_off, k_diag * d * d, b_off)))
    lam1 = float(evals[0])
    z = vecs[:, 0]
    y_int = z * d
    for comp in y_int:
        if abs(comp) > 1e-12:
            if comp < 0:
                y_int = -y_int
            break
    j_val = float(k_diag @ (y_int * y_int) + 2.0 * k_off @ (y_int[:-1] * y_int[1:]))
    if abs(j_val - lam1) > 1e-9 * max(1.0, abs(lam1)):
        raise NoConvergence(f"eigen-pair check failed: J[y1]={j_val} vs lambda1={lam1}")
    full = np.zeros(n)
    full[1:-1] = y_int
    return lam1, GridFunction(ts, full)


# ---------------------------------------------------------------------------
# Direct methods


def _finite_values(ts: TimeScale, f, name: str) -> np.ndarray:
    """``timescale.values_on(ts, f)``, refusing values that are not finite."""
    values = values_on(ts, f)
    if not np.isfinite(values).all():
        raise NonFinite(f"{name} is not finite on the grid")
    return values


def direct_solve_power(ts: TimeScale, phi: Callable[[float], float],
                       alpha_exp: float, B: float) -> DirectResult:
    """Optimal y(t) = G^{-1}(C (t-a)) with G(x) = integral_0^x phi.

    Minimum for alpha_exp < 0 or > 1, maximum for 0 < alpha_exp < 1.
    """
    if alpha_exp in (0.0, 1.0):
        raise InvalidExponent("the functional is constant for exponent 0 or 1")
    if B <= 0:
        raise DomainError("right boundary value B must be positive")
    a, b = ts.points[0], ts.points[-1]

    C = adaptive_simpson(phi, 0.0, B) / (b - a)
    # G(y(b)) = C (b - a) = G(B), so y(b) is B itself, without an inversion
    y = np.array(invert_integral(phi, [C * (t - a) for t in ts.points[:-1]], 0.0, 0.0)
                 + [B])
    F = (b - a) * math.pow(C, alpha_exp)
    kind = "max" if 0.0 < alpha_exp < 1.0 else "min"
    return DirectResult(GridFunction(ts, y), float(F), kind)


def power_functional(ts: TimeScale, phi: Callable[[float], float],
                     alpha_exp: float, y: GridFunction) -> float:
    """Grid value of the power functional: the averaged-phi form telescopes to
    (G(y^sigma) - G(y)) / mu pointwise."""
    pts = ts.points
    mu = np.diff(pts)
    vals = np.asarray(y.values, dtype=float)
    total = 0.0
    for j in range(pts.size - 1):
        inner = adaptive_simpson(phi, vals[j], vals[j + 1]) / mu[j]
        total += mu[j] * math.pow(inner, alpha_exp)
    return total


def direct_solve_exp(ts: TimeScale, phi, B: float) -> DirectResult:
    """Minimize integral of phi(t) e^{y^Delta}; optimum has ln(phi) + y^Delta constant."""
    pv = _finite_values(ts, phi, "phi")
    if np.any(pv[:-1] <= 0.0):
        raise NonPositivePhi("phi must be positive on T^kappa")
    pts = ts.points
    a, b = pts[0], pts[-1]
    mu = np.diff(pts)
    log_phi = np.log(pv[:-1])
    C = (float(mu @ log_phi) + B) / (b - a)
    cum = np.concatenate([[0.0], np.cumsum(mu * log_phi)])
    y = -cum + C * (pts - a)
    return DirectResult(GridFunction(ts, y), float((b - a) * math.exp(C)), "min")


def exp_functional(ts: TimeScale, phi, y: GridFunction) -> float:
    pv = _finite_values(ts, phi, "phi")
    mu = np.diff(ts.points)
    v = np.diff(np.asarray(y.values, dtype=float)) / mu
    return float(np.sum(mu * pv[:-1] * np.exp(v)))


def direct_solve_entropy(ts: TimeScale, phi, B: float) -> DirectResult:
    """Minimize integral of (phi + y^Delta) ln(phi + y^Delta) under y^Delta > 0."""
    pv = _finite_values(ts, phi, "phi")
    pts = ts.points
    a, b = pts[0], pts[-1]
    mu = np.diff(pts)
    C = (B + float(mu @ pv[:-1])) / (b - a)
    if not np.all(C > pv[:-1]):
        raise PreconditionViolated(
            f"(B + integral phi)/(b-a) = {C} must strictly exceed phi on T^kappa")
    cum = np.concatenate([[0.0], np.cumsum(mu * pv[:-1])])
    y = C * (pts - a) - cum
    return DirectResult(GridFunction(ts, y), float((b - a) * C * math.log(C)), "min")


def entropy_functional(ts: TimeScale, phi, y: GridFunction) -> float:
    pv = _finite_values(ts, phi, "phi")
    mu = np.diff(ts.points)
    v = np.diff(np.asarray(y.values, dtype=float)) / mu
    arg = pv[:-1] + v
    if np.any(arg <= 0.0):
        raise DomainError("phi + y^Delta must stay positive")
    return float(np.sum(mu * arg * np.log(arg)))

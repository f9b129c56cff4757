"""Variational problems on finite time scales.

Covers the first-order Euler-Lagrange machinery (residuals, Legendre
condition, multi-start solving), higher-order problems with quadratic
Lagrangians, isoperimetric constraints with a multiplier, the Sturm-Liouville
first eigenvalue, and the three closed-form direct methods.

Sign convention used throughout: the Euler-Lagrange residual is

    residual(t) = L_u[y](t) - (L_v[y])^Delta(t)

so a minimizer zeroes it.  (The time-scales EL equation is usually written
L_v^Delta = L_u; both orderings appear in the literature and only the sign of
the reported residual differs.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .dsl import Bin, Expr, Num, ensure_expr, eval_jet2
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
    adaptive_simpson,
    invert_increasing,
    jacobi_eigh,
    multi_start,
)
from .timescale import (
    GridFunction,
    TimeScale,
    compose_sigma,
    delta_integral,
    higher_delta_derivative,
)

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

    def grad(self, x: np.ndarray) -> np.ndarray:
        return 2.0 * self.quad @ x + self.lin


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


def _partials_first_order(L: Expr, ts: TimeScale, values: np.ndarray):
    t, u, v, mu = _first_order_args(ts, values)
    Lu, Lv, _ = eval_jet2(L, t, u, v, 0.0).grad
    return Lu, Lv, mu


def el_residual(p: VariationalProblem, y: GridFunction) -> GridFunction:
    """L_u - (L_v)^Delta on T^{kappa kappa}; zero along extremals."""
    values = np.asarray(y.values, dtype=float)
    Lu, Lv, mu = _partials_first_order(p.L, p.scale, values)
    res = Lu[:-1] - np.diff(Lv) / mu[:-1]
    return GridFunction(p.scale.drop_last(2), res)


def _el_jacobian(L: Expr, ts: TimeScale, values: np.ndarray) -> np.ndarray:
    """Exact Jacobian of el_residual in the interior values: tridiagonal.

    Row j, L_u(t_j) - (L_v(t_{j+1}) - L_v(t_j)) / mu_j, sees y_j, y_{j+1} and
    y_{j+2} through u_i = y_{i+1} and v_i = (y_{i+1} - y_i) / mu_i.
    """
    t, u, v, mu = _first_order_args(ts, values)
    huu, huv, _, hvv, _, _ = eval_jet2(L, t, u, v, 0.0).hess
    # d L_u(t_i) and d L_v(t_i) by y_i (suffix 0) and by y_{i+1} (suffix 1)
    du0, du1 = -huv / mu, huu + huv / mu
    dv0, dv1 = -hvv / mu, huv + hvv / mu
    r = t.size - 1
    J = np.zeros((r, r))
    J.flat[::r + 1] = du1[:-1] + (dv1[:-1] - dv0[1:]) / mu[:-1]
    J.flat[r::r + 1] = (du0 + dv0 / mu)[1:-1]
    J.flat[1::r + 1] = -dv1[1:-1] / mu[:-2]
    return J


def functional_value(p: Union[VariationalProblem, IsoperimetricProblem],
                     y: GridFunction, expr: Optional[Expr] = None) -> float:
    """Delta-integral of the Lagrangian along y (expr overrides p.L)."""
    L = expr if expr is not None else p.L
    values = np.asarray(y.values, dtype=float)
    t, u, v, mu = _first_order_args(p.scale, values)
    return float(mu @ eval_jet2(L, t, u, v, 0.0).value)


def legendre_check(p: VariationalProblem, y: GridFunction) -> LegendreReport:
    """Pointwise L_vv + mu*(2 L_uv + mu L_uu + (mu^sigma)* L_vv(sigma)) on T^kappa.

    Uses the reciprocal convention 0* = 0, which on a finite grid kicks in at
    rho(b) where mu(sigma(t)) = 0.
    """
    values = np.asarray(y.values, dtype=float)
    t, u, v, mu = _first_order_args(p.scale, values)
    huu, huv, _, hvv, _, _ = eval_jet2(p.L, t, u, v, 0.0).hess
    # (1 / mu(sigma(t))) L_vv(sigma(t)); mu(sigma(t)) = 0 at the right edge: 0* = 0
    sigma_term = np.append((1.0 / mu[1:]) * hvv[1:], 0.0)
    margins = hvv + mu * (2.0 * huv + mu * huu + sigma_term)
    ok = bool(np.all(margins >= -1e-10))
    return LegendreReport(GridFunction(p.scale.drop_last(1), margins), ok)


# ---------------------------------------------------------------------------
# Higher-order problems


def _higher_order_args(p: HigherOrderProblem, values: np.ndarray) -> np.ndarray:
    """Columns u_i = (y^{sigma^{r-i}})^{Delta^i} on the first n-r points."""
    r = p.order
    n = len(p.scale)
    y = GridFunction(p.scale, values)
    cols = []
    for i in range(r + 1):
        shifted = compose_sigma(y, r - i) if r - i > 0 else y
        cols.append(higher_delta_derivative(shifted, i).values if i > 0 else shifted.values)
    return np.column_stack([c[: n - r] for c in cols])


def el_residual_higher(p: HigherOrderProblem, y: GridFunction) -> GridFunction:
    """Sum of (-1)^i (1/a1)^{i(i-1)/2} (L_{u_i})^{Delta^i} on [a, rho^{2r}(b)]."""
    hyp = p.scale.hypothesis_h()
    if hyp is None:
        raise HypothesisHViolated("scale must satisfy sigma(t) = a1*t + a0")
    a1, _ = hyp
    r = p.order
    n = len(p.scale)
    if n < 2 * r + 1:
        raise GridTooSmall(f"need at least {2 * r + 1} points for order {r}")
    X = _higher_order_args(p, np.asarray(y.values, dtype=float))
    grads = 2.0 * X @ p.L.quad + p.L.lin  # row j holds L_{u_i} at t_j
    inner = p.scale.drop_last(r)
    total = np.zeros(n - 2 * r)
    for i in range(r + 1):
        term = GridFunction(inner, grads[:, i].copy())
        if i > 0:
            term = higher_delta_derivative(term, i)
        weight = (-1.0) ** i * (1.0 / a1) ** ((i - 1) * i // 2)
        total += weight * term.values[: n - 2 * r]
    return GridFunction(p.scale.drop_last(2 * r), total)


def functional_value_higher(p: HigherOrderProblem, y: GridFunction) -> float:
    r = p.order
    n = len(p.scale)
    X = _higher_order_args(p, np.asarray(y.values, dtype=float))
    mu = np.diff(p.scale.points)[: n - r]
    return float(sum(mu[j] * p.L.value(X[j]) for j in range(n - r)))


def _boundary_rows_higher(p: HigherOrderProblem, values: np.ndarray) -> np.ndarray:
    """Residuals of y^{Delta^i}(a) = ya_i and y^{Delta^i}(rho^{r-1}(b)) = yb_i."""
    r = p.order
    n = len(p.scale)
    y = GridFunction(p.scale, values)
    rows = []
    for i in range(r):
        d = higher_delta_derivative(y, i) if i > 0 else y
        rows.append(d.values[0] - p.ya[i])
        rows.append(d.values[n - r] - p.yb[i])
    return np.array(rows)


# ---------------------------------------------------------------------------
# Solving


def _candidate_from_values(p, full_values: np.ndarray, residual: np.ndarray,
                           multiplier: Optional[float] = None) -> ExtremalCandidate:
    y = GridFunction(p.scale, full_values.copy())
    if isinstance(p, HigherOrderProblem):
        fval = functional_value_higher(p, y)
        # Legendre is a first-order notion; report trivially true margins.
        margins = GridFunction(p.scale.drop_last(1), np.zeros(len(p.scale) - 1))
        leg_ok = True
    else:
        fval = functional_value(p, y)
        report = legendre_check(_as_variational(p), y)
        margins = report.margins
        leg_ok = report.ok
    return ExtremalCandidate(
        y=y,
        residual_norm=float(np.linalg.norm(residual)),
        legendre_ok=leg_ok,
        margins=margins,
        functional_value=fval,
        multiplier=multiplier,
    )


def _as_variational(p) -> VariationalProblem:
    if isinstance(p, VariationalProblem):
        return p
    return VariationalProblem(p.scale, p.L, p.A, p.B)


def solve_el(p: Union[VariationalProblem, HigherOrderProblem],
             config: Optional[SolverConfig] = None) -> list:
    """Multi-start Newton on the discrete stationarity system.

    Returns deduplicated ExtremalCandidates sorted by functional value.
    """
    cfg = config or SolverConfig()
    if isinstance(p, HigherOrderProblem):
        n = len(p.scale)

        def residual_map(x):
            res = el_residual_higher(p, GridFunction(p.scale, x)).values
            return np.concatenate([res, _boundary_rows_higher(p, x)])

        # a quadratic L makes the system affine, so its Jacobian is the constant
        # linear part: column i is the image of the i-th unit vector minus that of 0
        r0 = residual_map(np.zeros(n))
        J = np.column_stack([residual_map(e) - r0 for e in np.eye(n)])
        sols = multi_start(residual_map, lambda x: J, n, cfg)
        out = []
        for x in sols:
            res = el_residual_higher(p, GridFunction(p.scale, x)).values
            out.append(_candidate_from_values(p, x, res))
    else:
        n = len(p.scale)

        def assemble(interior):
            full = np.empty(n)
            full[0] = p.A
            full[-1] = p.B
            full[1:-1] = interior
            return full

        def residual_map(interior):
            return el_residual(p, GridFunction(p.scale, assemble(interior))).values

        def jacobian(interior):
            return _el_jacobian(p.L, p.scale, assemble(interior))

        sols = multi_start(residual_map, jacobian, n - 2, cfg)
        out = []
        for x in sols:
            full = assemble(x)
            res = el_residual(p, GridFunction(p.scale, full)).values
            out.append(_candidate_from_values(p, full, res))
    out.sort(key=lambda c: c.functional_value)
    return out


def solve_isoperimetric(p: IsoperimetricProblem,
                        config: Optional[SolverConfig] = None) -> ExtremalCandidate:
    """Stationarity of F = L - lambda*g plus the constraint row; lambda unknown."""
    cfg = config or SolverConfig()
    n = len(p.scale)

    def assemble(x):
        full = np.empty(n)
        full[0] = p.A
        full[-1] = p.B
        full[1:-1] = x[:-1]
        return full, x[-1]

    base = VariationalProblem(p.scale, p.L, p.A, p.B)
    gprob = VariationalProblem(p.scale, p.g, p.A, p.B)

    def residual_map(x):
        full, lam = assemble(x)
        y = GridFunction(p.scale, full)
        res_L = el_residual(base, y).values
        res_g = el_residual(gprob, y).values
        constraint = functional_value(p, y, expr=p.g) - p.l
        return np.concatenate([res_L - lam * res_g, [constraint]])

    mu = np.diff(p.scale.points)[:-1]

    def constraint_grad(x):
        """Exact gradient of the constraint row in y: mu times g's residual."""
        full, _ = assemble(x)
        return mu * el_residual(gprob, GridFunction(p.scale, full)).values

    def jacobian(x):
        full, lam = assemble(x)
        grad_g = constraint_grad(x)
        J = np.zeros((n - 1, n - 1))
        J[:-1, :-1] = (_el_jacobian(p.L, p.scale, full)
                       - lam * _el_jacobian(p.g, p.scale, full))
        J[:-1, -1] = -grad_g / mu
        J[-1, :-1] = grad_g
        return J

    try:
        sols = multi_start(residual_map, jacobian, n - 1, cfg)
    except NoConvergence as exc:
        raise ConstraintInfeasible(str(exc)) from exc
    candidates = []
    for x in sols:
        full, lam = assemble(x)
        y = GridFunction(p.scale, full.copy())
        F_expr = Bin("-", p.L, Bin("*", Num(float(lam)), p.g))
        report = legendre_check(VariationalProblem(p.scale, F_expr, p.A, p.B), y)
        candidates.append((x, ExtremalCandidate(
            y=y,
            residual_norm=float(np.linalg.norm(residual_map(x))),
            legendre_ok=report.ok,
            margins=report.margins,
            functional_value=functional_value(p, y, expr=p.L),
            multiplier=float(lam),
        )))
    candidates.sort(key=lambda pair: pair[1].functional_value)
    best_x, best = candidates[0]
    _reject_abnormal(constraint_grad, best_x)
    return best


def _reject_abnormal(constraint_grad, x: np.ndarray) -> None:
    """Raise SingularJacobian when the multiplier is not identified.

    In the abnormal isoperimetric case (the candidate is an extremal of the
    constraint itself) the stationarity system is rank-deficient at the
    solution: the lambda column and the constraint gradient both vanish.  A
    null constraint (its value fixed by the boundary data alone, so every
    admissible y satisfies it) shows the same rank signature but is harmless:
    lambda drops out of the stationarity system entirely.  Probing the
    constraint gradient under finite y-perturbations separates the two.
    """
    x = np.asarray(x, dtype=float)
    scale = max(1.0, float(np.max(np.abs(x))))
    g_sol = float(np.linalg.norm(constraint_grad(x)))
    rng = np.random.default_rng(0)
    g_probe = 0.0
    for _ in range(4):
        probe = x.copy()
        probe[:-1] += 1e-2 * scale * rng.standard_normal(x.size - 1)
        g_probe = max(g_probe, float(np.linalg.norm(constraint_grad(probe))))
    if g_probe <= 1e-9 * scale:
        return  # constraint blind to y everywhere: the null-constraint case
    if g_sol <= 3e-2 * g_probe:
        raise SingularJacobian(
            "constraint gradient vanishes at the solution "
            "(abnormal problem: the candidate extremizes the constraint)")


# ---------------------------------------------------------------------------
# Sturm-Liouville


def sturm_liouville_first(ts: TimeScale, q_fn) -> tuple:
    """Smallest eigenvalue and eigenfunction of y^{DeltaDelta} + q y^sigma = -lambda y^sigma.

    The pair minimizes J[y] = integral((y^Delta)^2 - q (y^sigma)^2) subject to
    integral((y^sigma)^2) = 1 and y(a) = y(b) = 0; the minimum value is
    lambda_1 itself.
    """
    n = len(ts)
    if n < 4:
        raise GridTooSmall("need at least 4 points for the eigenvalue problem")
    pts = ts.points
    mu = np.diff(pts)
    if isinstance(q_fn, GridFunction):
        q = np.asarray(q_fn.values, dtype=float)
    elif callable(q_fn):
        q = np.array([q_fn(t) for t in pts], dtype=float)
    else:
        q = np.asarray(q_fn, dtype=float)
    if not np.all(np.isfinite(q)):
        raise NonFinite("q is not finite on the grid")
    m = n - 2  # unknowns y_1 .. y_{n-2}
    K = np.zeros((m, m))
    for j in range(n - 1):
        w = 1.0 / mu[j]
        # (y_{j+1} - y_j)^2 / mu_j ; boundary values are zero
        if 1 <= j <= n - 2:
            K[j - 1, j - 1] += w
        if 1 <= j + 1 <= n - 2:
            K[j, j] += w
        if 1 <= j <= n - 2 and 1 <= j + 1 <= n - 2:
            K[j - 1, j] -= w
            K[j, j - 1] -= w
        # -mu_j q(t_j) y_{j+1}^2
        if 1 <= j + 1 <= n - 2:
            K[j, j] -= mu[j] * q[j]
    mass = mu[:m]  # unknown y_i carries weight mu_{i-1}
    d = 1.0 / np.sqrt(mass)
    B = (K * d).T * d  # D^{-1/2} K D^{-1/2} for diagonal D
    B = (B + B.T) / 2.0
    evals, vecs = jacobi_eigh(B)
    lam1 = float(evals[0])
    z = vecs[:, 0]
    y_int = z * d
    for comp in y_int:
        if abs(comp) > 1e-12:
            if comp < 0:
                y_int = -y_int
            break
    j_val = float(y_int @ K @ y_int)
    if abs(j_val - lam1) > 1e-9 * max(1.0, abs(lam1)):
        raise NoConvergence(f"eigen-pair check failed: J[y1]={j_val} vs lambda1={lam1}")
    full = np.zeros(n)
    full[1:-1] = y_int
    return lam1, GridFunction(ts, full)


# ---------------------------------------------------------------------------
# Direct methods


def _phi_values(ts: TimeScale, phi) -> np.ndarray:
    if isinstance(phi, GridFunction):
        values = np.asarray(phi.values, dtype=float)
    elif callable(phi):
        values = np.array([phi(t) for t in ts.points], dtype=float)
    else:
        values = np.asarray(phi, dtype=float)
    if not np.all(np.isfinite(values)):
        raise NonFinite("phi is not finite on the grid")
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

    def G(x):
        return adaptive_simpson(phi, 0.0, x)

    C = G(B) / (b - a)
    y = np.array([invert_increasing(G, C * (t - a)) for t in ts.points])
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
    pv = _phi_values(ts, phi)
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
    pv = _phi_values(ts, phi)
    mu = np.diff(ts.points)
    v = np.diff(np.asarray(y.values, dtype=float)) / mu
    return float(np.sum(mu * pv[:-1] * np.exp(v)))


def direct_solve_entropy(ts: TimeScale, phi, B: float) -> DirectResult:
    """Minimize integral of (phi + y^Delta) ln(phi + y^Delta) under y^Delta > 0."""
    pv = _phi_values(ts, phi)
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
    pv = _phi_values(ts, phi)
    mu = np.diff(ts.points)
    v = np.diff(np.asarray(y.values, dtype=float)) / mu
    arg = pv[:-1] + v
    if np.any(arg <= 0.0):
        raise DomainError("phi + y^Delta must stay positive")
    return float(np.sum(mu * arg * np.log(arg)))

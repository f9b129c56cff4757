"""Discrete fractional calculus on uniform grids and the fractional
variational solver.

Operators follow the usual discrete fractional conventions on hZ: the left
fractional h-sum of order nu lives on the grid shifted by +nu*h, the right one
on the grid shifted by -nu*h, and the order-alpha differences (0 < alpha <= 1)
are forward h-differences of the order-(1-alpha) sums, the right one carrying
a minus sign.  On the grid everything reduces to lower-triangular weight
tables

    w_nu(m) = Gamma(m + nu) / (Gamma(m + 1) Gamma(nu)),  w_nu(0) = 1,

the coefficients of (1 - z)^(-nu): the textbook kernel
((m - 1 + nu) h)_h^(nu-1) / Gamma(nu) is h^(nu-1) w_nu(m).  Since
(1 - z) (1 - z)^(alpha-1) = (1 - z)^alpha, each difference is one convolution
with w_{-alpha}, the Grunwald-Letnikov weights (Lubich, SIAM J. Math. Anal. 17,
1986), divided by h^alpha; it equals the difference of the sums.  The sums,
the differences, the summation-by-parts correction, the solver's operators and
every row of its stationarity system are assembled from these cached weight
vectors; the Legendre check steps its kernels from one h_factorial by
Gamma(x + 1) = x Gamma(x).  The tests cross-check both against the textbook
kernels.
The solver's Newton pair and candidate reports come from ``varcalc``'s
``newton_pair`` and ``extremal_candidates``, shared with the classical solvers.
Its maps y -> (u, v, w) are one (3, m, N) array A, component by component:
the residual reads A's unknown columns and the gradient rows as views, and
the Jacobian adds A_a^T diag(L_ab) A_b, per varying Hessian entry, to the
constant part formed once per solve.  A free end's natural boundary residual
is h times A's column at that end against the partials, summed from the same
weights without forming A.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Optional, Union

import numpy as np

from .dsl import HESS_INDEX, Expr, ensure_expr, eval_grad, eval_jet2, eval_value, program
from .errors import InvalidAlpha, OffDomain, OrderNotPositive
from .solvers import SolverConfig, multi_start, refuse_dense_beyond_cap
from .special import gamma_fn, h_factorial
from .timescale import GridFunction, TimeScale, _uniform_steps, uniform
from .varcalc import LegendreReport, extremal_candidates, newton_pair

# ---------------------------------------------------------------------------
# Types


@dataclass(frozen=True)
class FracGrid:
    """Uniform grid {a, a+h, ..., b} of at least 2 steps, checked as
    ``timescale.uniform`` checks it; its scale is built once, on first use."""

    a: float
    b: float
    h: float
    n_steps: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        steps = _uniform_steps(self.a, self.b, self.h)
        if steps < 2:
            raise ValueError(f"(b-a)/h = {steps} must be at least 2")
        object.__setattr__(self, "n_steps", steps)

    @cached_property
    def _scale(self) -> TimeScale:
        return uniform(self.a, self.b, self.h)

    def scale(self) -> TimeScale:
        return self._scale

    def points(self) -> np.ndarray:
        return self._scale.points


@dataclass(frozen=True)
class FracOrders:
    alpha: float
    beta: float

    def __post_init__(self):
        _check_alpha(self.alpha)
        _check_alpha(self.beta, "beta")

    @property
    def gamma(self) -> float:
        return 1.0 - self.alpha

    @property
    def nu_order(self) -> float:
        return 1.0 - self.beta


@dataclass(frozen=True)
class FracProblem:
    """Minimize sum of h*L(t, y^sigma, left-diff y, right-diff y) over [a, b).

    A or B set to None leaves that endpoint free; the corresponding natural
    boundary condition, dF/dy = 0 at that end, then joins the stationarity
    system: its row is dF/dy(a) or dF/dy(b) of the summed functional F.
    """

    grid: FracGrid
    orders: FracOrders
    L: Union[Expr, str]
    A: Optional[float] = None
    B: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "L", ensure_expr(self.L))


# ---------------------------------------------------------------------------
# Weight tables


@lru_cache(maxsize=16)  # each table is grid-sized; a solve reads a handful of orders
def _weights(nu: float, count: int) -> np.ndarray:
    w = np.empty(count)
    w[0] = 1.0
    for m in range(1, count):
        w[m] = w[m - 1] * (m - 1 + nu) / m
    w.flags.writeable = False
    return w


def _uniform_step(f: GridFunction) -> float:
    step = f.scale.step
    if step is None:
        raise ValueError("fractional operators are defined on uniform grids only")
    return step


# ---------------------------------------------------------------------------
# Fractional sums and differences


def _shifted_index(f: GridFunction, nu: float, t: float, shift: float, where: str):
    """(h^nu, w_nu, values of f, j) with t = t_j + shift*nu*h on f's grid."""
    if nu <= 0:
        raise OrderNotPositive(f"order nu = {nu} must be positive")
    h = _uniform_step(f)
    pts = f.scale.points
    pos = (t - pts[0] - shift * nu * h) / h
    j = round(pos)
    if abs(pos - j) > 1e-9 * max(1.0, abs(pos)) or not (0 <= j < pts.size):
        raise OffDomain(f"t = {t} is not on the shifted grid {where}")
    return math.pow(h, nu), _weights(nu, pts.size), np.asarray(f.values, dtype=float), j


def left_frac_sum(f: GridFunction, nu: float, t: float) -> float:
    """Left fractional h-sum of order nu at t, with t on the +nu*h shifted grid."""
    scale, w, vals, j = _shifted_index(f, nu, t, 1.0, "a + nu*h + k*h")
    return scale * float(w[j::-1] @ vals[:j + 1])


def right_frac_sum(f: GridFunction, nu: float, t: float) -> float:
    """Right fractional h-sum of order nu at t, with t on the -nu*h shifted grid."""
    scale, w, vals, j = _shifted_index(f, nu, t, -1.0, "s - nu*h for s on the grid")
    return scale * float(w[:vals.size - j] @ vals[j:])


def _left_diff_values(vals: np.ndarray, alpha: float, h: float) -> np.ndarray:
    """v_j = h^-alpha sum_{k <= j+1} w_{-alpha}(j + 1 - k) y_k on T^kappa."""
    if alpha == 1.0:
        return np.diff(vals) / h
    return np.convolve(_weights(-alpha, vals.size), vals)[1:vals.size] / math.pow(h, alpha)


def _right_diff_values(vals: np.ndarray, alpha: float, h: float) -> np.ndarray:
    """w_j = h^-alpha sum_{k >= j} w_{-alpha}(k - j) y_k on T^kappa: the left
    difference of the reversed values, reversed."""
    return _left_diff_values(vals[::-1], alpha, h)[::-1]


def _lower_toeplitz(c: np.ndarray) -> np.ndarray:
    """Read-only view T with T[i, k] = c[i - k] for k <= i and 0 above the diagonal."""
    n = c.size
    padded = np.concatenate([np.zeros(n - 1), c])
    return np.lib.stride_tricks.sliding_window_view(padded, n)[:, ::-1]


def _diff_maps(alpha: float, beta: float, h: float, n: int, out=(None, None)):
    """(n - 1) x n Toeplitz matrices (V, W) of _left_diff_values / _right_diff_values,
    written into the arrays ``out`` when given."""
    return (np.multiply(math.pow(h, -alpha), _lower_toeplitz(_weights(-alpha, n))[1:], out=out[0]),
            np.multiply(math.pow(h, -beta), _lower_toeplitz(_weights(-beta, n)).T[:-1], out=out[1]))


def _check_alpha(alpha: float, name: str = "alpha") -> None:
    if not (0.0 < alpha <= 1.0):
        raise InvalidAlpha(f"{name} = {alpha} must be in (0, 1]")


def left_frac_diff(f: GridFunction, alpha: float) -> GridFunction:
    """Order-alpha left fractional difference on T^kappa."""
    _check_alpha(alpha)
    h = _uniform_step(f)
    vals = np.asarray(f.values, dtype=float)
    return GridFunction(f.scale.drop_last(1), _left_diff_values(vals, alpha, h))


def right_frac_diff(f: GridFunction, alpha: float) -> GridFunction:
    """Order-alpha right fractional difference (base point max of the grid) on T^kappa."""
    _check_alpha(alpha)
    h = _uniform_step(f)
    vals = np.asarray(f.values, dtype=float)
    return GridFunction(f.scale.drop_last(1), _right_diff_values(vals, alpha, h))


# ---------------------------------------------------------------------------
# Summation by parts


def frac_sbp_residual(f: GridFunction, g: GridFunction, alpha: float) -> float:
    """|LHS - RHS| of the fractional summation-by-parts identity.

    f lives on T^kappa (one point short of g's grid); the right difference of
    f inside the identity is based at rho(b), i.e. taken on f's own grid.
    """
    _check_alpha(alpha)
    gamma = 1.0 - alpha
    h = _uniform_step(g)
    gp = g.scale.points
    fp = f.scale.points
    if fp.size != gp.size - 1 or abs(fp[0] - gp[0]) > 1e-12 * max(1.0, abs(gp[0])):
        raise ValueError("f must live on g's grid with the last point dropped")
    fv = np.asarray(f.values, dtype=float)
    gv = np.asarray(g.values, dtype=float)
    n = gp.size

    lfd_g = _left_diff_values(gv, alpha, h)          # on T^kappa
    lhs = h * float(fv @ lfd_g)

    rfd_f = _right_diff_values(fv, alpha, h)         # on (T^kappa)^kappa
    rhs = math.pow(h, gamma) * (fv[-1] * gv[-1] - fv[0] * gv[0])
    rhs += h * float(rfd_f @ gv[1:n - 1])
    if gamma != 0.0:
        # gamma-correction: kernels (t_j + gamma h - a) and (t_j + gamma h - sigma(a))
        w = _weights(gamma, n)
        rhs += math.pow(h, gamma) * gv[0] * float(w[1:n] @ fv - w[1:n - 1] @ fv[1:])
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# Euler-Lagrange machinery


def _arg_arrays(p: FracProblem, y: GridFunction):
    """(t, u, v, w) rows of [y] on T^kappa."""
    yvals = np.asarray(y.values, dtype=float)
    h = p.grid.h
    return (p.grid.points()[:-1], yvals[1:], _left_diff_values(yvals, p.orders.alpha, h),
            _right_diff_values(yvals, p.orders.beta, h))


def el_residual_frac(p: FracProblem, y: GridFunction) -> GridFunction:
    """L_u + (right diff base rho(b)) L_v + (left diff order beta) L_w on T^{kappa kappa}."""
    h, alpha, beta = p.grid.h, p.orders.alpha, p.orders.beta
    Lu, Lv, Lw = eval_grad(p.L, *_arg_arrays(p, y))[1:]
    res = Lu[:-1] + _right_diff_values(Lv, alpha, h) + _left_diff_values(Lw, beta, h)
    return GridFunction(y.scale.drop_last(2), res)


def functional_value(p: FracProblem, y: GridFunction) -> float:
    """Sum of h * L([y](t)) over [a, b)."""
    return p.grid.h * float(np.sum(eval_value(p.L, *_arg_arrays(p, y))))


def natural_bc_residuals(p: FracProblem, y: GridFunction):
    """(left, right) residuals of the natural boundary conditions; None when fixed.

    Each is dF/dy of the summed functional at its end: since h * residual is
    the gradient of F, h times the first or last column of the maps
    y -> (u, v, w) of _diff_maps against the partials (L_u, L_v, L_w).
    """
    if p.A is not None and p.B is not None:
        return (None, None)
    h, m = p.grid.h, p.grid.n_steps
    alpha, beta = p.orders.alpha, p.orders.beta
    Lu, Lv, Lw = eval_grad(p.L, *_arg_arrays(p, y))[1:]
    left = right = None
    if p.A is None:  # y(a) enters v through w_{-alpha}(j + 1) and w only at t_0
        left = float((math.pow(h, 1.0 - alpha) * _weights(-alpha, m + 1)[1:]) @ Lv
                     + math.pow(h, 1.0 - beta) * Lw[0])
    if p.B is None:  # y(b) enters u and v only at t_{m-1}, and w through w_{-beta}(m - j)
        right = float(h * Lu[-1] + math.pow(h, 1.0 - alpha) * Lv[-1]
                      + (math.pow(h, 1.0 - beta) * _weights(-beta, m + 1)[:0:-1]) @ Lw)
    return (left, right)


def _legendre_kernel(nu: float, h: float, m: int) -> np.ndarray:
    """((d + nu) h)_h^(nu - 2) for d = 0 .. m - 1, which is h^(nu - 2)
    Gamma(d + nu + 1) / Gamma(d + 3): h_factorial at d = 0, then each entry
    from the one before by Gamma(x + 1) = x Gamma(x), a factor (d + nu + 1) / (d + 3)."""
    d = np.arange(m - 1)
    return np.cumprod(np.concatenate(([h_factorial(nu * h, nu - 2.0, h)],
                                      (d + nu + 1.0) / (d + 3.0))))


def legendre_frac_check(p: FracProblem, y: GridFunction) -> LegendreReport:
    """Second-order (Legendre) margins on T^{kappa kappa}; verdict >= -1e-8."""
    h = p.grid.h
    gamma = p.orders.gamma
    nu = p.orders.nu_order
    t, u, v, w = _arg_arrays(p, y)
    m = t.size
    Huu, Huv, Huw, Hvv, Hvw, Hww = eval_jet2(p.L, t, u, v, w)[4:]

    if nu != 0.0:
        cw = nu * (1.0 - nu) / gamma_fn(nu + 1.0)
        kern_w = _legendre_kernel(nu, h, m)  # d = (t_j - sigma(t_i))/h
    if gamma != 0.0:
        cv = gamma * (gamma - 1.0) / gamma_fn(gamma + 1.0)
        kern_v = _legendre_kernel(gamma, h, m)  # d = (t_i - sigma(sigma(t_j)))/h

    margins = (h * h * Huu[:-1]
               + 2.0 * math.pow(h, gamma + 1.0) * Huv[:-1]
               + 2.0 * math.pow(h, nu + 1.0) * (nu - 1.0) * Huw[:-1]
               + math.pow(h, 2.0 * gamma) * (gamma - 1.0) ** 2 * Hvv[1:]
               + 2.0 * math.pow(h, nu + gamma) * (gamma - 1.0) * Hvw[1:]
               + 2.0 * math.pow(h, nu + gamma) * (nu - 1.0) * Hvw[:-1]
               + math.pow(h, 2.0 * nu) * (nu - 1.0) ** 2 * Hww[:-1]
               + math.pow(h, 2.0 * nu) * Hww[1:]
               + math.pow(h, gamma) * Hvv[:-1])
    # the integrals carry one extra h
    if nu != 0.0:
        # sum over i < j of Hww[i] (cw kern_w[j - i - 1])^2
        margins[1:] += h**4 * np.convolve(Hww, (cw * kern_w) ** 2)[:m - 2]
    if gamma != 0.0 and m > 2:
        # sum over i > j + 1 of Hvv[i] (cv kern_v[i - j - 2])^2
        margins[:-1] += h**4 * np.convolve(Hvv[:1:-1], (cv * kern_v) ** 2)[m - 3::-1]
    ok = bool(np.all(margins >= -1e-8))
    return LegendreReport(GridFunction(y.scale.drop_last(2), margins), ok)


# ---------------------------------------------------------------------------
# Solver


def _newton_maps(structure, p: FracProblem, lo: int, hi: int):
    """(A, residual_of, jacobian_of) for the fractional system with unknowns
    y_lo .. y_{hi-1}: A, of shape (3, m, N), holds the maps y -> u, v and w
    component by component (u_j = y_{j+1}, v and w from _diff_maps); the
    other two are ``newton_pair``'s maps of the jet rows ``rows[0]``.

    As h * residual is the gradient of the functional, the system has one row
    per unknown, in their order: each applies the unknown's column of A to
    the partials (L_u, L_v, L_w), a free end's row (the first at a free left
    end, the last at a free right end) times h.  The residual is one product
    of two views, A's unknown columns and the gradient rows.  J is the sum
    over the Hessian entries (a, b) of A_a^T . diag(L_ab) . A_b on the
    unknown columns, its free-end rows times h.  ``structure``, the ``rows``
    of ``dsl.program(L, 2)``, reads a float for a row that is constant and
    None for one that varies.  K, the constant entries' part, is formed here
    once; a varying L_uu is written on the diagonal where u_q = y_{q+1}
    enters (coefficient 1, h on a free right end's row), and each other
    varying entry adds its product through buffers allocated here once.
    Every call returns the one J buffer: a returned Jacobian is valid until
    the next call.  ``rows[0]`` is one of the few row buffers that
    ``newton_pair`` holds for the solve, so the views the maps read of it
    (the residual's flat gradient rows, the Jacobian's varying Hessian rows
    as columns) are built when a buffer first arrives, not at every call.
    """
    h, N = p.grid.h, p.grid.n_steps + 1
    m, n = N - 1, hi - lo
    hessian = 4 + HESS_INDEX  # rows of the jet holding each Hessian entry
    varying = [(a, b, k) for (a, b), k in np.ndenumerate(hessian)
               if k > 4 and structure[k] is None]
    constant = any(structure[4:])  # a nonzero constant; a varying entry reads None
    # one allocation for A and every buffer: as separate blocks, they and a
    # threaded OpenBLAS's level-3 work buffer outgrow the heap top that glibc
    # keeps mapped (twice the largest block it has unmapped), and each solve
    # faults them in again
    # (A, J, K, T the scaled columns of one product, P a second product)
    shapes = ((3, m, N), (n, n), (n if varying and constant else 0, n),
              (m if varying else 0, n), (n if len(varying) > 1 else 0, n))
    sizes = [math.prod(shape) for shape in shapes]
    A, J, K, T, P = (part.reshape(shape) for part, shape in
                     zip(np.split(np.zeros(sum(sizes)), np.cumsum(sizes)[:-1]), shapes))
    A[0, np.arange(m), np.arange(1, N)] = 1.0
    _diff_maps(p.orders.alpha, p.orders.beta, h, N, out=(A[1], A[2]))
    A_unknown = A[:, :, lo:hi]
    R = A_unknown.reshape(3 * m, n).T  # a view: A's component axis and point axis merge
    free = [i for i, end in ((0, p.A), (n - 1, p.B)) if end is None]

    grad = [None, None]  # [the rows buffer last read, its gradient rows as one flat view]

    def residual_of(x, rows):
        if rows[0] is not grad[0]:
            grad[:] = rows[0], rows[0][1:4].reshape(-1)
        r = R @ grad[1]
        for i in free:
            r[i] *= h
        return r

    row_scale = np.ones(n)
    row_scale[free] = h
    if constant:
        # K is J itself where nothing besides L_uu varies
        K, term = (K, J) if varying else (J, np.empty((n, n)))
        for (a, b), k in np.ndenumerate(hessian):
            if structure[k]:
                np.matmul(A_unknown[a].T, A_unknown[b], out=term)
                term *= structure[k]
                K += term
        K *= row_scale[:, None]
    # the diagonal from the row of y_1: L_uu[q] at u_q = y_{q+1}, row q + 1 - lo
    diagonal = J.reshape(-1)[(1 - lo) * (n + 1)::n + 1]
    K_diagonal, coef = diagonal.copy(), row_scale[1 - lo:]

    # each varying entry (a, b) but L_uu: (A_a^T, A_b, its jet row), as views
    products = [(A_unknown[a].T, A_unknown[b], k) for a, b, k in varying]
    free_rows = [J[i] for i in free]
    uu_varies = structure[4] is None
    # [the jet buffer last read, its product rows as columns, its L_uu row]
    columns = [None, None, None]

    def jacobian_of(x, rows):
        jet = rows[0]
        if jet is not columns[0]:
            columns[:] = jet, [jet[k, :, None] for *_, k in products], jet[4, :coef.size]
        for i, ((left, right, _), column) in enumerate(zip(products, columns[1])):
            np.multiply(column, right, out=T)
            np.matmul(left, T, out=P if i else J)
            if i:
                np.add(J, P, out=J)
        if products:
            for row in free_rows:
                row *= h
            if constant:
                np.add(J, K, out=J)
        if uu_varies:
            np.add(diagonal if products else K_diagonal, coef * columns[2], out=diagonal)
        return J

    return A, residual_of, jacobian_of


def solve_frac_el(p: FracProblem, config: Optional[SolverConfig] = None) -> list:
    """Multi-start Newton on the stationarity system of the fractional problem.

    Unknowns are the interior values plus any free endpoint; free endpoints
    contribute their natural-boundary-condition rows.  Candidates come back
    deduplicated, annotated with Legendre verdicts, sorted by functional value.
    """
    refuse_dense_beyond_cap(p.grid.n_steps + 1, "fractional solver")
    scale = p.grid.scale()
    pts = scale.points
    N = pts.size
    m = N - 1
    lo, hi = int(p.A is not None), N - int(p.B is not None)  # the unknowns are y_lo .. y_{hi-1}
    n_unknowns = hi - lo
    full = np.zeros(N)  # y: the fixed ends, and the unknowns last written
    full[0] = 0.0 if p.A is None else p.A
    full[-1] = 0.0 if p.B is None else p.B

    def assemble(x):
        full[lo:hi] = x
        return full.copy()

    # A holds the maps y -> u, v and w.  Since h * residual is the gradient
    # of the functional, the system's rows are A's columns read transposed,
    # with the free-end rows scaled by h; _newton_maps builds A and both maps
    # by the Lagrangian's structure
    A, residual_of, jacobian_of = _newton_maps(program(p.L, 2).rows, p, lo, hi)
    A = A.reshape(3 * m, N)
    uvw = np.empty(3 * m)
    args = (pts[:-1], *uvw.reshape(3, m))  # contiguous views of the buffer each call fills

    def arguments(x):
        full[lo:hi] = x
        A.dot(full, out=uvw)  # matmul's gemv call, with less dispatch
        return args

    residual, jacobian, _ = newton_pair([p.L], arguments, residual_of, jacobian_of)
    roots = multi_start(residual, jacobian, n_unknowns, config)

    def textbook_residual(y):
        # the textbook system, evaluated apart from the row maps: an independent check of them
        natural = [r for r in natural_bc_residuals(p, y) if r is not None]
        return np.concatenate([el_residual_frac(p, y).values, natural])

    return extremal_candidates(roots, scale, assemble, textbook_residual,
                               lambda y: legendre_frac_check(p, y),
                               lambda y: functional_value(p, y))

"""Shared numerical routines: damped Newton, multi-start roots, quadrature.

Newton solves a dense Jacobian with LAPACK's gesv, through the gufunc that
``np.linalg.solve`` wraps but without its Python-side checks, and a
``Tridiagonal`` one with a pivoted O(n) sweep on Python floats, so the
classical Euler-Lagrange system costs linear time and memory in the grid
size.  ``newton_solve`` sets one ``np.errstate(all="ignore")`` per solve.
Its finiteness checks (the residual at the start, each Jacobian and step)
count the finite entries with numpy's C ``count_nonzero``, without the
Python wrapper ``np.count_nonzero`` adds, where ``ndarray.all`` goes
through numpy's Python-level reductions: on the 3 to 12 entries of a small
system the check takes a fraction of the time.
Solvers that stay dense refuse grids of more than ``MAX_DENSE_POINTS``
points before they allocate.
The symmetric eigenproblem goes to LAPACK through ``np.linalg.eigh``.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

try:  # np.count_nonzero's C function, without the Python wrapper around it
    from numpy._core.multiarray import count_nonzero as _count_nonzero
except ImportError:  # numpy < 2
    _count_nonzero = np.count_nonzero

from .errors import (
    DomainError,
    NoConvergence,
    NonFinite,
    QuadratureFailure,
    RootNotBracketed,
    SingularJacobian,
)

# multi_start draws a starts x unknowns table up front: 80 MB at the cap
MAX_START_NUMBERS = 10**7
# grid points a dense solver takes; the fractional operators, the largest,
# take about 56 N^2 bytes: 0.22 GB at the cap
MAX_DENSE_POINTS = 2001
# multi_start keeps a root only if it differs from every earlier one by more
# than this in the max norm
DEDUP_TOL = 1e-6
# newton_solve's limits: Newton iterations per solve, step halvings per iteration
MAX_ITER = 200
MAX_HALVINGS = 30
# adaptive_simpson's limits: the error tolerance on the whole interval, halving
# depth, evaluations of the integrand per call (the most the test suite or
# `tsvar repro all` needs is 40,301, for 1/sqrt(x) on (0, 1]; unbounded, a
# pole such as 1/(x - 0.30000001) on [0, 1] takes 185,069 and returns -10.27)
SIMPSON_TOL = 1e-10
SIMPSON_MAX_DEPTH = 50
SIMPSON_MAX_EVALS = 100_000
_EPS = sys.float_info.epsilon


def refuse_dense_beyond_cap(n_points: int, solver: str) -> None:
    """Raise ValueError when a dense solver would get more than MAX_DENSE_POINTS points."""
    if n_points > MAX_DENSE_POINTS:
        raise ValueError(f"the {solver} takes at most {MAX_DENSE_POINTS} grid points, "
                         f"not {n_points}")


@dataclass
class SolverConfig:
    starts: int = 64
    seed: int = 0
    box: tuple = (-2.0, 3.0)
    tol: float = 1e-9

    def __post_init__(self):
        if not isinstance(self.starts, numbers.Integral):
            raise ValueError(f"solver starts = {self.starts} must be an integer")
        if self.starts < 1:
            raise ValueError(f"solver starts = {self.starts} must be at least 1")
        if not (isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            raise ValueError(f"solver seed = {self.seed} must be a non-negative integer")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"solver tol = {self.tol} must be finite and positive")
        lo, hi = self.box
        # rng.uniform needs a finite width as well as finite ends
        if not (math.isfinite(lo) and lo < hi and math.isfinite(hi - lo)):
            raise ValueError(f"solver box = {self.box} needs finite ends lo < hi "
                             "and a finite width")


class Tridiagonal:
    """Square tridiagonal matrix held as its three diagonals.

    ``lower[i]`` is entry (i+1, i), ``diag[i]`` entry (i, i) and ``upper[i]``
    entry (i, i+1).  ``np.asarray`` gives the dense matrix.
    """

    __slots__ = ("lower", "diag", "upper")

    def __init__(self, lower, diag, upper):
        self.lower = np.asarray(lower, dtype=float)
        self.diag = np.asarray(diag, dtype=float)
        self.upper = np.asarray(upper, dtype=float)
        n = self.diag.size
        if (self.diag.shape != (n,) or n < 1 or self.lower.shape != (n - 1,)
                or self.upper.shape != (n - 1,)):
            raise ValueError("a tridiagonal matrix needs n >= 1 diagonal entries "
                             "and n - 1 on each off-diagonal")

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("a tridiagonal matrix has no dense buffer to share")
        n = self.diag.size
        dense = np.zeros((n, n))
        dense.flat[::n + 1] = self.diag
        dense.flat[n::n + 1] = self.lower
        dense.flat[1::n + 1] = self.upper
        return dense if dtype is None else dense.astype(dtype, copy=False)


def solve_tridiagonal(T: Tridiagonal, b) -> np.ndarray:
    """x with T x = b by Gaussian elimination with partial pivoting.

    LAPACK ``dgtsv``'s algorithm on Python floats (Golub & Van Loan, Matrix
    Computations, 4th ed., 4.3): a row swap moves a fill-in entry onto the
    second superdiagonal.  A zero pivot raises ZeroDivisionError, so an
    exactly singular T raises it.
    """
    lower, diag, upper = T.lower.tolist(), T.diag.tolist(), T.upper.tolist()
    rhs = np.asarray(b, dtype=float).tolist()
    rows = []  # row i once eliminated: (U[i, i], U[i, i+1], U[i, i+2], rhs[i])
    # row i, updated by the elimination so far, and row i+1 as given
    d, u, y = diag[0], upper[0] if upper else 0.0, rhs[0]
    for l, d1, u1, y1 in zip(lower, diag[1:], upper[1:] + [0.0], rhs[1:]):
        if abs(d) >= abs(l):
            f = l / d
            rows.append((d, u, 0.0, y))
            d, u, y = d1 - f * u, u1, y1 - f * y
        else:  # swap rows i and i+1
            f = d / l
            rows.append((l, d1, u1, y1))
            d, u, y = u - f * d1, -f * u1, y - f * y1
    x1, x2 = y / d, 0.0  # x[i+1], x[i+2] of the row being solved
    x = [x1]
    for pivot, u, u2, y in reversed(rows):
        x1, x2 = (y - u * x1 - u2 * x2) / pivot, x1
        x.append(x1)
    return np.array(x[::-1])


def tikhonov_tridiagonal(T: Tridiagonal, r: np.ndarray, tau: float) -> np.ndarray:
    """s with (T^T T + tau I) s = -T^T r, by an LDL^T sweep in O(n).

    T^T T + tau I is pentadiagonal, and symmetric positive definite for
    tau > 0.  A zero pivot, which rounding can still produce, raises
    ZeroDivisionError.
    """
    lo, d, up = T.lower, T.diag, T.upper
    r = np.asarray(r, dtype=float)
    n = d.size
    # column k of T holds upper[k-1], diag[k], lower[k] in rows k-1, k, k+1
    a = d * d + tau
    a[1:] += up * up
    a[:-1] += lo * lo
    e = np.zeros(n)  # (T^T T)[k, k+1]
    e[:-1] = d[:-1] * up + lo * d[1:]
    f = np.zeros(n)  # (T^T T)[k, k+2]
    f[:-2] = lo[:-1] * up[1:]
    rhs = -(d * r)
    rhs[1:] -= up * r[:-1]
    rhs[:-1] -= lo * r[1:]
    a, e, f, rhs = a.tolist(), e.tolist(), f.tolist(), rhs.tolist()
    # unit lower L with L[k+1, k] = p[k+2], L[k+2, k] = q[k+2], D = diag(dd[k+2]);
    # two leading pad entries stand for the rows before the first
    p, q, dd, z = [0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [0.0, 0.0]
    for k in range(n):
        dk = a[k] - p[-1] * p[-1] * dd[-1] - q[-2] * q[-2] * dd[-2]
        z.append(rhs[k] - p[-1] * z[-1] - q[-2] * z[-2])
        p.append((e[k] - q[-1] * p[-1] * dd[-1]) / dk)
        q.append(f[k] / dk)
        dd.append(dk)
    s = [0.0] * (n + 2)
    for k in range(n - 1, -1, -1):
        s[k] = z[k + 2] / dd[k + 2] - p[k + 2] * s[k + 1] - q[k + 2] * s[k + 2]
    return np.array(s[:n])


def _finite(a: np.ndarray) -> bool:
    """True when every entry of ``a`` is finite."""
    return _count_nonzero(np.isfinite(a)) == a.size


def _dense_step(J: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The Newton step s with J s = -r by LAPACK, or a damped least-squares step."""
    # checked before the solve: LAPACK can return a finite step for a J
    # that is not finite, e.g. diag(inf, 1, 1)
    if not _finite(J):
        raise NonFinite("Jacobian is not finite")
    try:  # np.linalg.solve's gufunc: NaNs for a singular J, ValueError for a non-square one
        step = _umath_linalg.solve1(J, -r, signature="dd->d")
    except ValueError:
        step = None
    if step is None or not _finite(step):
        # exactly singular (e.g. a variable the residual ignores): take the
        # minimum-norm Gauss-Newton step with a whisper of Tikhonov damping
        tau = 1e-12 * max(1.0, float(np.sum(J * J)))
        try:
            step = np.linalg.solve(J.T @ J + tau * np.eye(J.shape[1]), -J.T @ r)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(str(exc)) from exc
        if not _finite(step):
            raise SingularJacobian("linear solve produced non-finite step")
    return step


def _tridiagonal_step(T: Tridiagonal, r: np.ndarray) -> np.ndarray:
    """``_dense_step`` for a tridiagonal J, with both solves O(n) sweeps."""
    if not (_finite(T.diag) and _finite(T.lower) and _finite(T.upper)):
        raise NonFinite("Jacobian is not finite")
    try:
        step = solve_tridiagonal(T, -r)
    except ZeroDivisionError:  # a zero pivot: T is singular
        step = None
    if step is None or not _finite(step):
        tau = 1e-12 * max(1.0, float(T.diag @ T.diag + T.lower @ T.lower
                                     + T.upper @ T.upper))
        try:
            step = tikhonov_tridiagonal(T, r, tau)
        except ZeroDivisionError as exc:
            raise SingularJacobian("zero pivot in the Tikhonov sweep") from exc
        if not _finite(step):
            raise SingularJacobian("linear solve produced non-finite step")
    return step


def newton_solve(
    fn: Callable[[np.ndarray], np.ndarray],
    jac: Callable[[np.ndarray], np.ndarray],
    x0: Sequence[float],
    tol: float = SolverConfig.tol,
) -> np.ndarray:
    """Damped Newton iteration on a square residual system.

    ``jac(x)`` returns the exact Jacobian of ``fn`` at ``x``: a
    ``Tridiagonal``, whose step is an O(n) sweep, or anything ``np.asarray``
    turns into a dense matrix, whose step goes to LAPACK.  Newton calls
    it only with the very object ``x`` of its latest ``fn`` call, and only
    when that call returned a finite residual, so ``fn`` may keep work for
    ``jac`` to reuse.  Steps are backtracked (halving, up to ``MAX_HALVINGS``)
    until the 2-norm of the residual decreases; a trial point outside the
    residual's domain halves the step as well.  Raises NoConvergence if the
    iteration stalls or exceeds ``MAX_ITER``, SingularJacobian if a linear
    solve fails.  It runs under ``np.errstate(all="ignore")``: a non-finite
    residual or step is rejected by value, so it never warns.
    """
    with np.errstate(all="ignore"):
        x = np.asarray(x0, dtype=float).copy()
        r = np.asarray(fn(x), dtype=float)
        if not _finite(r):
            raise NonFinite("residual is not finite at the initial point")
        rnorm = math.sqrt(r.dot(r))  # np.linalg.norm's formula for a 1-D vector: one ddot
        for _ in range(MAX_ITER):
            if rnorm <= tol:
                return x
            J = jac(x)
            if isinstance(J, Tridiagonal):
                step = _tridiagonal_step(J, r)
            else:
                # a dense J may be a buffer that the next jac call rewrites (the
                # fractional solver's is), so it serves this step only
                J = np.asarray(J, dtype=float)
                step = _dense_step(J, r)
            for _ in range(MAX_HALVINGS):
                x_try = x + step
                try:
                    r_try = np.asarray(fn(x_try), dtype=float)
                except (ArithmeticError, ValueError, DomainError):
                    r_try = None
                if r_try is not None:
                    # a NaN or infinite entry makes the norm NaN or inf, and so
                    # does a finite residual whose norm overflows: all rejected
                    rnorm_try = math.sqrt(r_try.dot(r_try))
                    if math.isfinite(rnorm_try) and (rnorm_try < rnorm or rnorm_try <= tol):
                        x, r, rnorm = x_try, r_try, rnorm_try
                        break
                step *= 0.5  # exact short of underflow: x + step is x + 2^-k * step
            else:
                raise NoConvergence(f"line search stalled at residual norm {rnorm:.3e}")
        if rnorm <= tol:
            return x
        raise NoConvergence(f"no convergence after {MAX_ITER} iterations (residual {rnorm:.3e})")


def multi_start(
    fn: Callable[[np.ndarray], np.ndarray],
    jac: Callable[[np.ndarray], np.ndarray],
    n_unknowns: int,
    config: Optional[SolverConfig] = None,
) -> list:
    """Run Newton from seeded random starts; return deduplicated solutions.

    Results keep start order (first found wins a dedup tie) so output is
    deterministic for a fixed seed.  A start fails on its own when Newton
    does not converge or when ``fn`` or ``jac`` leaves its domain there.
    Raises SingularJacobian if every start failed and at least one hit a
    singular Jacobian, NoConvergence if every start simply failed, and
    ValueError, before drawing any start, for more than MAX_START_NUMBERS
    start numbers (starts x n_unknowns).
    """
    cfg = config or SolverConfig()
    if cfg.starts * n_unknowns > MAX_START_NUMBERS:
        raise ValueError(f"solver starts = {cfg.starts} on {n_unknowns} unknowns needs more "
                         f"than {MAX_START_NUMBERS} start numbers")
    rng = np.random.default_rng(cfg.seed)
    lo, hi = cfg.box
    starts = rng.uniform(lo, hi, size=(cfg.starts, n_unknowns))

    roots, singular = [], False
    for x0 in starts:
        try:
            roots.append(newton_solve(fn, jac, x0, tol=cfg.tol))
        except SingularJacobian:
            singular = True
        except (NoConvergence, NonFinite, DomainError, ArithmeticError, ValueError):
            pass
    # in start order, each kept root drops every later root within DEDUP_TOL
    # in one array operation; written as ~(dist < tol), a NaN distance drops none
    stacked, alive = np.array(roots), np.ones(len(roots), dtype=bool)
    solutions = []
    for i, x in enumerate(roots):
        if alive[i]:
            solutions.append(x)
            alive[i + 1:] &= ~(np.abs(stacked[i + 1:] - x).max(axis=1) < DEDUP_TOL)
    if not solutions:
        if singular:
            raise SingularJacobian("all starts failed; at least one Jacobian was singular")
        raise NoConvergence("no start converged")
    return solutions


# ---------------------------------------------------------------------------
# Quadrature and the one integral inverter (direct_solve_power's G^-1 and
# nonlinear_gronwall_bound's Psi^-1)


def adaptive_simpson(f: Callable[[float], float], a: float, b: float) -> float:
    """Adaptive Simpson integration of a smooth scalar function.

    Raises NonFinite at the first estimate that is not finite, QuadratureFailure
    where SIMPSON_TOL is not met within SIMPSON_MAX_DEPTH halvings or
    SIMPSON_MAX_EVALS evaluations of f.
    """
    if a == b:
        return 0.0
    evals = 3

    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def rec(x0, x2, f0, f1, f2, whole, eps, depth):
        nonlocal evals
        evals += 2
        if evals > SIMPSON_MAX_EVALS:
            raise QuadratureFailure(f"adaptive Simpson needs more than {SIMPSON_MAX_EVALS} "
                                    f"evaluations on [{a}, {b}]")
        xm = 0.5 * (x0 + x2)
        xl = 0.5 * (x0 + xm)
        xr = 0.5 * (xm + x2)
        fl = f(xl)
        fr = f(xr)
        left = simpson(x0, xm, f0, fl, f1)
        right = simpson(xm, x2, f1, fr, f2)
        delta = left + right - whole
        if not math.isfinite(delta):  # NaN would never pass the test below
            raise NonFinite(f"adaptive Simpson estimate is not finite on [{x0}, {x2}]")
        # or delta at the rounding level of the halves, where halving cannot shrink
        # it: an integral above about 1e5 would otherwise halve every piece down
        # to the width floor, some 2^47 evaluations
        if (abs(delta) <= 15.0 * eps or (x2 - x0) < 1e-14
                or abs(delta) <= 64.0 * _EPS * (abs(left) + abs(right))):
            return left + right + delta / 15.0
        if depth <= 0:
            raise QuadratureFailure(f"adaptive Simpson recursion exhausted on [{x0}, {x2}]")
        return (rec(x0, xm, f0, fl, f1, left, eps / 2.0, depth - 1)
                + rec(xm, x2, f1, fr, f2, right, eps / 2.0, depth - 1))

    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = simpson(a, b, fa, fm, fb)
    return sign * rec(a, b, fa, fm, fb, whole, SIMPSON_TOL, SIMPSON_MAX_DEPTH)


def invert_integral(g: Callable[[float], float], targets: Sequence[float],
                    x: float, G: float) -> list:
    """Roots of G(root) = target, one per target in turn, where G' = g > 0 and G(x) = G.

    Safeguarded Newton: each step adds one ``adaptive_simpson`` piece of g
    from the last point, and each inversion starts where the one before
    stopped.  Before the root is bracketed a step at most doubles or halves
    x (from x = 0 it goes at most to 1); after, a step that leaves the
    bracket bisects it.  Raises RootNotBracketed where g is negative or not
    finite at an iterate, where G plateaus below a target, or where the walk
    leaves (1e-300, 1e300); NoConvergence after 2,500 steps for one target.
    """
    roots = []
    for target in targets:
        lo, hi = 0.0, math.inf
        stall = 0
        for _ in range(2500):  # doubling from 1e-300 past 1e300 takes 2,000
            slope = g(x)
            if not 0.0 <= slope < math.inf:
                raise RootNotBracketed(f"g({x}) = {slope} is negative or not finite")
            if target == G:
                roots.append(x)
                break
            # g(x) = 0 (as at 0 for g(s) = s) steps as far as the cap allows
            step = (target - G) / slope if slope else math.copysign(math.inf, target - G)
            if abs(step) <= 1e-13 * max(1.0, abs(x)):
                roots.append(x + step)
                break
            if step > 0.0:
                lo, nxt = x, min(x + step, 2.0 * x or 1.0)
            else:
                hi, nxt = x, max(x + step, 0.5 * x)
            if not lo < nxt < hi:
                nxt = 0.5 * (lo + hi)
            if nxt > 1e300 or nxt < 1e-300:
                raise RootNotBracketed(f"the integral never reaches {target}")
            piece = adaptive_simpson(g, x, nxt)
            stall = stall + 1 if G + piece == G else 0  # G stopped growing in floating point
            if stall >= 64:
                raise RootNotBracketed(f"the integral plateaus below its inversion target {target}")
            x, G = nxt, G + piece
        else:
            raise NoConvergence(f"the inversion for target {target} did not converge")
    return roots


def jacobi_eigh(A: np.ndarray):
    """Eigen-decomposition of a symmetric matrix by LAPACK (``np.linalg.eigh``).

    Returns (eigenvalues ascending, eigenvector columns in matching order).
    The name outlives the cyclic Jacobi sweep it once ran: the benchmark's
    tracer (``bench/tracer.py``) times this binding by name, so a rename
    waits for the next change to the benchmark.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    return np.linalg.eigh(A)

"""Shared numerical routines: damped Newton, multi-start roots, quadrature.

The symmetric eigenproblem goes to LAPACK through ``np.linalg.eigh``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    DomainError,
    NoConvergence,
    NonFinite,
    QuadratureFailure,
    RootNotBracketed,
    SingularJacobian,
)


@dataclass
class SolverConfig:
    starts: int = 64
    seed: int = 0
    box: tuple = (-2.0, 3.0)
    tol: float = 1e-9
    dedup_tol: float = 1e-6
    max_iter: int = 200
    max_halvings: int = 30

    def __post_init__(self):
        if self.starts < 1:
            raise ValueError(f"solver starts = {self.starts} must be at least 1")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"solver tol = {self.tol} must be finite and positive")
        lo, hi = self.box
        # rng.uniform needs a finite width as well as finite ends
        if not (math.isfinite(lo) and lo < hi and math.isfinite(hi - lo)):
            raise ValueError(f"solver box = {self.box} needs finite ends lo < hi "
                             "and a finite width")


def newton_solve(
    fn: Callable[[np.ndarray], np.ndarray],
    jac: Callable[[np.ndarray], np.ndarray],
    x0: Sequence[float],
    tol: float = 1e-9,
    max_iter: int = 200,
    max_halvings: int = 30,
) -> np.ndarray:
    """Damped Newton iteration on a square (or rectangular) residual system.

    ``jac(x)`` returns the exact Jacobian of ``fn`` at ``x``.  Newton calls
    it only with the very object ``x`` of its latest ``fn`` call, and only
    when that call returned a finite residual, so ``fn`` may keep work for
    ``jac`` to reuse.  Steps are backtracked (halving, up to ``max_halvings``)
    until the 2-norm of the residual decreases; a trial point outside the
    residual's domain halves the step as well.  Raises NoConvergence if the
    iteration stalls or exceeds ``max_iter``, SingularJacobian if a linear
    solve fails.
    """
    x = np.asarray(x0, dtype=float).copy()
    r = np.asarray(fn(x), dtype=float)
    if not np.isfinite(r).all():
        raise NonFinite("residual is not finite at the initial point")
    rnorm = math.sqrt(r @ r)  # np.linalg.norm's formula for a 1-D vector
    for _ in range(max_iter):
        if rnorm <= tol:
            return x
        J = np.asarray(jac(x), dtype=float)
        if not np.isfinite(J).all():
            raise NonFinite("Jacobian is not finite")
        try:
            if J.shape[0] == J.shape[1]:
                step = np.linalg.solve(J, -r)
            else:
                step, *_ = np.linalg.lstsq(J, -r, rcond=None)
        except np.linalg.LinAlgError:
            step = None
        if step is None or not np.isfinite(step).all():
            # exactly singular (e.g. a variable the residual ignores): take the
            # minimum-norm Gauss-Newton step with a whisper of Tikhonov damping
            tau = 1e-12 * max(1.0, float(np.sum(J * J)))
            try:
                step = np.linalg.solve(J.T @ J + tau * np.eye(J.shape[1]), -J.T @ r)
            except np.linalg.LinAlgError as exc:
                raise SingularJacobian(str(exc)) from exc
            if not np.isfinite(step).all():
                raise SingularJacobian("linear solve produced non-finite step")
        lam = 1.0
        accepted = False
        for _ in range(max_halvings):
            x_try = x + lam * step
            try:
                r_try = np.asarray(fn(x_try), dtype=float)
            except (ArithmeticError, ValueError, DomainError):
                r_try = None
            if r_try is not None and np.isfinite(r_try).all():
                rnorm_try = math.sqrt(r_try @ r_try)
                if rnorm_try < rnorm or rnorm_try <= tol:
                    x, r, rnorm = x_try, r_try, rnorm_try
                    accepted = True
                    break
            lam *= 0.5
        if not accepted:
            raise NoConvergence(f"line search stalled at residual norm {rnorm:.3e}")
    if rnorm <= tol:
        return x
    raise NoConvergence(f"no convergence after {max_iter} iterations (residual {rnorm:.3e})")


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
    singular Jacobian, NoConvergence if every start simply failed.
    """
    cfg = config or SolverConfig()
    rng = np.random.default_rng(cfg.seed)
    lo, hi = cfg.box
    starts = rng.uniform(lo, hi, size=(cfg.starts, n_unknowns))

    def attempt(x0):
        try:
            return newton_solve(fn, jac, x0, tol=cfg.tol, max_iter=cfg.max_iter,
                                max_halvings=cfg.max_halvings)
        except SingularJacobian:
            return "singular"
        except (NoConvergence, NonFinite, DomainError, ArithmeticError, ValueError):
            return None

    outcomes = [attempt(x0) for x0 in starts]
    solutions = []
    saw_singular = False
    for out in outcomes:
        if out is None:
            continue
        if isinstance(out, str):
            saw_singular = True
            continue
        if any(np.max(np.abs(out - s)) < cfg.dedup_tol for s in solutions):
            continue
        solutions.append(out)
    if not solutions:
        if saw_singular:
            raise SingularJacobian("all starts failed; at least one Jacobian was singular")
        raise NoConvergence("no start converged")
    return solutions


# ---------------------------------------------------------------------------
# Quadrature and inversion (used by the continuous reference solutions)


def adaptive_simpson(f: Callable[[float], float], a: float, b: float,
                     tol: float = 1e-10, max_depth: int = 50) -> float:
    """Adaptive Simpson integration of a smooth scalar function."""
    if a == b:
        return 0.0

    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def rec(x0, x2, f0, f1, f2, whole, eps, depth):
        xm = 0.5 * (x0 + x2)
        xl = 0.5 * (x0 + xm)
        xr = 0.5 * (xm + x2)
        fl = f(xl)
        fr = f(xr)
        left = simpson(x0, xm, f0, fl, f1)
        right = simpson(xm, x2, f1, fr, f2)
        delta = left + right - whole
        if abs(delta) <= 15.0 * eps or (x2 - x0) < 1e-14:
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
    return sign * rec(a, b, fa, fm, fb, whole, tol, max_depth)


def invert_increasing(G: Callable[[float], float], target: float,
                      lo: float = 0.0, tol: float = 1e-13) -> float:
    """Solve G(x) = target for increasing G on [lo, inf)."""
    g_lo = G(lo)
    if g_lo > target + 1e-15:
        raise RootNotBracketed(f"G({lo}) = {g_lo} already exceeds target {target}")
    if abs(g_lo - target) <= tol * max(1.0, abs(target)):
        return lo
    span = 1.0
    hi = lo + span
    for _ in range(200):
        if G(hi) >= target:
            break
        span *= 2.0
        hi = lo + span
    else:
        raise RootNotBracketed(f"could not bracket target {target} for inversion")
    a, b = lo, hi
    for _ in range(200):
        mid = 0.5 * (a + b)
        if G(mid) < target:
            a = mid
        else:
            b = mid
        if b - a <= tol * max(1.0, abs(b)):
            break
    return 0.5 * (a + b)


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

"""Newton, multi-start, quadrature, inversion, and the Jacobi eigensolver."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tsvar.errors import DomainError, NoConvergence, QuadratureFailure, RootNotBracketed
from tsvar.solvers import (
    SolverConfig,
    adaptive_simpson,
    invert_increasing,
    jacobi_eigh,
    multi_start,
    newton_solve,
)


def test_newton_scalar_sqrt():
    x = newton_solve(lambda x: np.array([x[0] ** 2 - 2.0]),
                     lambda x: np.array([[2.0 * x[0]]]), [1.0])
    assert x[0] == pytest.approx(math.sqrt(2.0), abs=1e-9)  # residual tol 1e-9


def test_newton_coupled_system():
    # intersection of a circle and a line: x^2 + y^2 = 5, x + y = 3 -> (1,2) / (2,1)
    def res(z):
        return np.array([z[0] ** 2 + z[1] ** 2 - 5.0, z[0] + z[1] - 3.0])

    def jac(z):
        return np.array([[2.0 * z[0], 2.0 * z[1]], [1.0, 1.0]])

    x = newton_solve(res, jac, [0.5, 2.5])
    assert_allclose(sorted(x), [1.0, 2.0], rtol=1e-10)


def test_newton_reports_stall():
    # residual bounded away from zero
    with pytest.raises(NoConvergence):
        newton_solve(lambda x: np.array([x[0] ** 2 + 1.0]),
                     lambda x: np.array([[2.0 * x[0]]]), [3.0], max_iter=60)


def test_newton_halves_steps_that_leave_the_domain():
    # sqrt(x) - 1/2 from x = 4: the full Newton step lands on x = -2, where
    # the residual raises; the halved step to x = 1 goes on to the root 1/4
    def res(x):
        if x[0] < 0.0:
            raise DomainError(f"sqrt of negative value {x[0]}")
        return np.array([math.sqrt(x[0]) - 0.5])

    def jac(x):
        return np.array([[0.5 / math.sqrt(x[0])]])

    x = newton_solve(res, jac, [4.0])
    assert x[0] == pytest.approx(0.25, abs=1e-9)


def test_newton_calls_jac_only_at_the_point_of_the_latest_finite_residual():
    # atan(x) from x = 3, undefined left of -5: the full step to -9.49 raises,
    # the half step to -3.25 is finite but no better, the quarter step is taken
    fn_calls, jac_calls = [], []

    def res(x):
        if x[0] < -5.0:
            fn_calls.append((x, "domain"))
            raise DomainError(f"undefined at {x[0]}")
        r = np.array([math.atan(x[0])])
        fn_calls.append((x, r))
        return r

    def jac(x):
        last, r = fn_calls[-1]
        assert x is last and not isinstance(r, str)
        jac_calls.append(x)
        return np.array([[1.0 / (1.0 + x[0] ** 2)]])

    x = newton_solve(res, jac, [3.0])
    assert abs(x[0]) <= 1e-9 and x is fn_calls[-1][0]
    assert len(jac_calls) >= 3
    trials = [(float(p[0]), r if isinstance(r, str) else abs(float(r[0])))
              for p, r in fn_calls[1:4]]
    assert trials[0][0] < -5.0 and trials[0][1] == "domain"            # raises
    assert -5.0 < trials[1][0] and trials[1][1] > math.atan(3.0)       # halved
    assert trials[2][1] < math.atan(3.0) and jac_calls[1] is fn_calls[3][0]  # taken


def cubic(x):
    return np.array([x[0] * (x[0] + 1.0) * (x[0] - 2.0)])


def cubic_jac(x):
    return np.array([[3.0 * x[0] ** 2 - 2.0 * x[0] - 2.0]])


def test_multi_start_finds_all_roots():
    # cubic with roots -1, 0, 2
    cfg = SolverConfig(starts=40, seed=3, box=(-3.0, 3.0))
    sols = multi_start(cubic, cubic_jac, 1, cfg)
    roots = sorted(s[0] for s in sols)
    assert_allclose(roots, [-1.0, 0.0, 2.0], atol=1e-7)


def test_multi_start_deterministic_and_deduplicated():
    def res(x):
        return np.array([x[0] ** 2 - 4.0])

    def jac(x):
        return np.array([[2.0 * x[0]]])

    cfg = SolverConfig(starts=32, seed=11)
    a = multi_start(res, jac, 1, cfg)
    b = multi_start(res, jac, 1, cfg)
    assert len(a) == len(b) == 2
    for xa, xb in zip(a, b):
        assert_allclose(xa, xb, rtol=0, atol=0)  # bit-identical across runs


@pytest.mark.parametrize("where", ["residual", "jacobian"])
def test_multi_start_domain_error_fails_one_start(where):
    # starts left of -1.5 leave the domain; the others still find the roots
    def guard(x):
        if x[0] < -1.5:
            raise DomainError(f"{where} undefined at {x[0]}")

    def res(x):
        if where == "residual":
            guard(x)
        return cubic(x)

    def jac(x):
        if where == "jacobian":
            guard(x)
        return cubic_jac(x)

    cfg = SolverConfig(starts=40, seed=3, box=(-3.0, 3.0))
    roots = sorted(s[0] for s in multi_start(res, jac, 1, cfg))
    assert_allclose(roots, [-1.0, 0.0, 2.0], atol=1e-7)


@pytest.mark.parametrize("setting", [
    {"tol": math.inf}, {"tol": math.nan}, {"tol": -1.0}, {"tol": 0.0},
    {"box": (-math.inf, 1.0)}, {"box": (math.nan, 1.0)}, {"box": (0.0, math.nan)},
    {"box": (-1e308, 1e308)}, {"box": (1.0, 1.0)}, {"box": (3.0, 1.0)},
    {"starts": 0},
], ids=repr)
def test_solver_config_rejects_unusable_settings(setting):
    with pytest.raises(ValueError, match=f"solver {next(iter(setting))}"):
        SolverConfig(**setting)


def test_multi_start_all_domain_failures_raise_no_convergence():
    def res(x):
        raise DomainError("nowhere defined")

    with pytest.raises(NoConvergence):
        multi_start(res, cubic_jac, 1, SolverConfig(starts=4))


def test_adaptive_simpson_known_integrals():
    assert adaptive_simpson(math.exp, 0.0, 1.0) == pytest.approx(math.e - 1.0, rel=1e-12)
    assert adaptive_simpson(lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0) == pytest.approx(
        math.pi / 4.0, rel=1e-11)
    # orientation
    assert adaptive_simpson(math.exp, 1.0, 0.0) == pytest.approx(1.0 - math.e, rel=1e-12)
    assert adaptive_simpson(math.sin, 0.0, 0.0) == 0.0


def test_adaptive_simpson_handles_mild_singularity():
    # integrand with unbounded derivative at 0: integral of 1/sqrt(x) on (0,1] is 2
    val = adaptive_simpson(lambda x: 0.0 if x == 0.0 else 1.0 / math.sqrt(x), 0.0, 1.0)
    assert val == pytest.approx(2.0, abs=5e-4)


def test_adaptive_simpson_depth_limit():
    def nasty(x):
        return 1.0 if x < 0.5 else -1.0  # jump keeps refinement alive

    with pytest.raises(QuadratureFailure):
        adaptive_simpson(nasty, 0.0, 1.0, tol=1e-15, max_depth=8)


def test_invert_increasing():
    g = lambda x: x ** 3 + x
    for target in (0.0, 0.5, 10.0, 1234.5):
        x = invert_increasing(g, target)
        assert g(x) == pytest.approx(target, rel=1e-10, abs=1e-10)
    with pytest.raises(RootNotBracketed):
        invert_increasing(g, -1.0)  # below G(lo)


def test_jacobi_eigh_matches_lapack():
    rng = np.random.default_rng(42)
    for n in (2, 3, 6, 10):
        M = rng.standard_normal((n, n))
        A = (M + M.T) / 2.0
        evals, vecs = jacobi_eigh(A)
        ref = np.linalg.eigvalsh(A)
        assert_allclose(evals, ref, rtol=1e-10, atol=1e-10)
        # columns are orthonormal eigenvectors
        assert_allclose(vecs.T @ vecs, np.eye(n), atol=1e-10)
        assert_allclose(A @ vecs, vecs @ np.diag(evals), atol=1e-9)


def test_jacobi_eigh_tridiagonal_closed_form():
    # second-difference matrix: eigenvalues 2 - 2 cos(k pi / N)
    N = 8
    A = 2.0 * np.eye(N - 1) - np.eye(N - 1, k=1) - np.eye(N - 1, k=-1)
    evals, _ = jacobi_eigh(A)
    expect = [2.0 - 2.0 * math.cos(k * math.pi / N) for k in range(1, N)]
    assert_allclose(evals, expect, rtol=1e-12, atol=1e-12)

"""Newton, multi-start, quadrature, the integral inverter, and the Jacobi eigensolver."""

import dataclasses
import inspect
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tsvar.errors import (
    DomainError,
    NoConvergence,
    NonFinite,
    QuadratureFailure,
    RootNotBracketed,
    SingularJacobian,
)
from tsvar import solvers
from tsvar.solvers import (
    SolverConfig,
    Tridiagonal,
    adaptive_simpson,
    invert_integral,
    jacobi_eigh,
    multi_start,
    newton_solve,
    solve_tridiagonal,
    tikhonov_tridiagonal,
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
                     lambda x: np.array([[2.0 * x[0]]]), [3.0])


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


@pytest.mark.parametrize("setting", [
    {"starts": math.inf}, {"starts": math.nan}, {"starts": 2.5}, {"starts": 4.0},
    {"seed": -1}, {"seed": 2.5}, {"seed": math.inf},
], ids=repr)
def test_solver_config_refuses_starts_and_seeds_that_are_not_integers(setting):
    # int() would truncate 2.5 and overflow on inf; SolverConfig takes neither
    with pytest.raises(ValueError, match=f"solver {next(iter(setting))} = "):
        SolverConfig(**setting)


def test_solver_config_has_only_the_validated_fields():
    # every field is checked in __post_init__; Newton's iteration limits and
    # the dedup distance are fixed in solvers, not per config
    assert [f.name for f in dataclasses.fields(SolverConfig)] == ["starts", "seed", "box", "tol"]


def test_solver_entry_points_take_no_other_parameters():
    # Newton's limits are solvers.MAX_ITER and MAX_HALVINGS, Simpson's
    # SIMPSON_TOL and SIMPSON_MAX_DEPTH, and the inverter fixes its own
    # tolerance and guards: no per-call knob that no caller sets
    def names(fn):
        return list(inspect.signature(fn).parameters)

    assert names(newton_solve) == ["fn", "jac", "x0", "tol"]
    assert inspect.signature(newton_solve).parameters["tol"].default == SolverConfig.tol
    assert names(multi_start) == ["fn", "jac", "n_unknowns", "config"]
    assert names(invert_integral) == ["g", "targets", "x", "G"]
    assert names(adaptive_simpson) == ["f", "a", "b"]


@pytest.mark.parametrize("starts, n_unknowns", [(10**7 + 1, 1), (10**6, 11), (10**30, 3)])
def test_multi_start_refuses_a_start_table_beyond_its_cap(monkeypatch, starts, n_unknowns):
    def never(*args):
        raise AssertionError("called before the start table was refused")

    monkeypatch.setattr(np.random, "default_rng", never)
    with pytest.raises(ValueError, match="start numbers"):
        multi_start(never, never, n_unknowns, SolverConfig(starts=starts))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [0, 2])
def test_newton_refuses_a_residual_that_is_not_finite_at_the_start(value, where):
    def res(x):
        r = x - 1.0
        r[where] = value
        return r

    def jac(x):
        raise AssertionError("no Jacobian is asked for at a non-finite start")

    with pytest.raises(NonFinite, match="initial point"):
        newton_solve(res, jac, [0.5, 2.0, -1.0])


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_multi_start_starts_with_a_non_finite_residual_fail_alone(value):
    # the residual is poisoned right of 2 (a third of the box): those starts
    # raise NonFinite, and every other start still reaches the root 1 in one step
    def res(x):
        return np.where(x > 2.0, value, x - 1.0)

    def jac(x):
        return np.eye(x.size)

    cfg = SolverConfig(starts=30, seed=4, box=(-3.0, 3.0))
    starts = np.random.default_rng(cfg.seed).uniform(*cfg.box, size=(cfg.starts, 2))
    poisoned = (starts > 2.0).any(axis=1)
    assert 0 < poisoned.sum() < cfg.starts
    for x0 in starts[poisoned]:
        with pytest.raises(NonFinite):
            newton_solve(res, jac, x0)
    roots = multi_start(res, jac, 2, cfg)
    assert len(roots) == 1
    assert_allclose(roots[0], [1.0, 1.0], rtol=0, atol=1e-12)
    with pytest.raises(NoConvergence, match="no start converged"):
        multi_start(res, jac, 2, SolverConfig(starts=4, box=(2.5, 3.0)))


def test_multi_start_all_domain_failures_raise_no_convergence():
    def res(x):
        raise DomainError("nowhere defined")

    with pytest.raises(NoConvergence):
        multi_start(res, cubic_jac, 1, SolverConfig(starts=4))


def _pairwise_newton(fn, jac, x0, tol=1e-9, max_iter=200, max_halvings=30):
    """newton_solve's dense loop as it was before its line search tested the
    norm alone: a trial needed every residual entry finite first."""
    x = np.asarray(x0, dtype=float).copy()
    r = np.asarray(fn(x), dtype=float)
    rnorm = math.sqrt(r @ r)
    for _ in range(max_iter):
        if rnorm <= tol:
            return x
        step = solvers._dense_step(np.asarray(jac(x), dtype=float), r)
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


def _logged_run(newton, fn, jac, x0):
    """(residual call points, Jacobian call points, root bytes or failure text)."""
    calls, accepted = [], []

    def logged_fn(x):
        calls.append(x.tobytes())
        return fn(x)

    def logged_jac(x):
        accepted.append(x.tobytes())
        return jac(x)

    try:
        with np.errstate(all="ignore"):  # as in multi_start
            outcome = newton(logged_fn, logged_jac, x0).tobytes()
    except NoConvergence as exc:
        outcome = str(exc)
    return calls, accepted, outcome


@pytest.mark.parametrize("poison", [math.nan, math.inf, -math.inf, 1e200],
                         ids=["nan", "inf", "-inf", "norm-overflows"])
@pytest.mark.parametrize("size", [1, 2])
@pytest.mark.parametrize("x0, bad", [
    pytest.param(2.0, lambda x: x < -1.0, id="overshoot"),  # full step lands at -3.5
    pytest.param(2.0, lambda x: x != 2.0, id="stall"),  # every trial is rejected
])
def test_line_search_rejects_the_same_trials_as_the_entrywise_check(poison, size, x0, bad):
    def res(x):
        r = np.array([math.atan(x[0]), x[-1] - 1.0][:size])
        if bad(x[0]):
            r[0] = poison
        return r

    def jac(x):
        return np.diag([1.0 / (1.0 + x[0] ** 2), 1.0][:size])

    start = [x0, 3.0][:size]
    got = _logged_run(newton_solve, res, jac, start)
    assert got == _logged_run(_pairwise_newton, res, jac, start)
    assert len(got[0]) > len(got[1])  # some trial was rejected


def _pairwise_dedup(roots):
    """multi_start's dedup as a loop over pairs of roots."""
    solutions = []
    for out in roots:
        if any(np.max(np.abs(out - s)) < solvers.DEDUP_TOL for s in solutions):
            continue
        solutions.append(out)
    return solutions


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_multi_start_dedup_keeps_the_roots_the_pairwise_loop_keeps(monkeypatch, seed):
    tol, n = solvers.DEDUP_TOL, 3
    # from the origin the gaps are exact: at DEDUP_TOL (kept), below (dropped)
    # and above (kept)
    table = [np.zeros(n), np.array([tol, 0.0, 0.0]),
             np.array([-tol * (1.0 - 1e-3), 0.0, 0.0]), np.array([0.0, tol * (1.0 + 1e-3), 0.0])]
    assert [x is y for x, y in zip(_pairwise_dedup(table), table[:2] + table[3:])] == [True] * 3
    rng = np.random.default_rng(seed)
    centres = rng.uniform(-2.0, 2.0, size=(4, n))
    gaps = tol * np.array([0.0, 0.5, 1.0 - 1e-6, 1.0, 1.0 + 1e-6, 2.0])
    for _ in range(80):
        x = centres[rng.integers(len(centres))].copy()
        x[rng.integers(n)] += rng.choice([-1.0, 1.0]) * rng.choice(gaps)
        table.append(None if rng.random() < 0.1 else x)  # None: the start fails

    outcomes = iter(table)

    def newton(fn, jac, x0, tol):
        root = next(outcomes)
        if root is None:
            raise NoConvergence("failed start")
        return root

    monkeypatch.setattr(solvers, "newton_solve", newton)
    got = multi_start(None, None, n, SolverConfig(starts=len(table), seed=seed))
    want = _pairwise_dedup([x for x in table if x is not None])
    assert [id(x) for x in got] == [id(x) for x in want]
    assert 4 < len(want) < len(table) - 20  # many near-duplicates dropped


# ---------------------------------------------------------------------------
# tridiagonal sweeps against LAPACK on the dense matrix


def random_tridiagonal(rng, n, zero_diagonal=False):
    diag = rng.standard_normal(n)
    if zero_diagonal:
        diag[1::3] = 0.0  # many eliminations then swap rows
    return Tridiagonal(rng.standard_normal(n - 1), diag, rng.standard_normal(n - 1))


def test_tridiagonal_array_is_the_dense_matrix():
    T = Tridiagonal([1.0, 2.0], [3.0, 4.0, 5.0], [6.0, 7.0])
    expect = [[3.0, 6.0, 0.0], [1.0, 4.0, 7.0], [0.0, 2.0, 5.0]]
    assert np.asarray(T).tolist() == expect
    with pytest.raises(ValueError, match="n - 1 on each off-diagonal"):
        Tridiagonal([1.0], [1.0, 2.0, 3.0], [1.0, 2.0])


@pytest.mark.parametrize("zero_diagonal", [False, True],
                         ids=["random", "zero-diagonal-entries"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 10, 200])
def test_tridiagonal_solve_matches_lapack(n, zero_diagonal):
    rng = np.random.default_rng(n)
    for _ in range(5):
        T = random_tridiagonal(rng, n, zero_diagonal and n > 1)
        b = rng.standard_normal(n)
        A = np.asarray(T)
        ref = np.linalg.solve(A, b)
        # the forward error of either solve is about cond(A) * eps * |x|
        tol = 1e-14 * np.linalg.cond(A) * float(np.max(np.abs(ref)))
        assert_allclose(solve_tridiagonal(T, b), ref, rtol=0, atol=tol)


def test_tridiagonal_solve_swaps_rows_where_a_pivot_is_zero():
    # [[0, 1, 0], [2, 0, 3], [0, 4, 5]] is regular, and both eliminations swap
    T = Tridiagonal([2.0, 4.0], [0.0, 0.0, 5.0], [1.0, 3.0])
    b = np.array([1.0, 2.0, 3.0])
    assert_allclose(solve_tridiagonal(T, b), np.linalg.solve(np.asarray(T), b),
                    rtol=1e-15, atol=0)


@pytest.mark.parametrize("T", [
    Tridiagonal([], [0.0], []),
    Tridiagonal([1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0]),  # column 1 is zero
    Tridiagonal([1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 0.0]),  # rows 0 and 1 equal
], ids=["zero", "zero-column", "equal-rows"])
def test_tridiagonal_solve_raises_on_an_exactly_singular_band(T):
    with pytest.raises(ZeroDivisionError):
        solve_tridiagonal(T, np.ones(T.diag.size))


@pytest.mark.parametrize("singular", [False, True], ids=["regular", "singular"])
@pytest.mark.parametrize("n", [1, 2, 3, 10, 200])
def test_tikhonov_sweep_matches_the_dense_formula(n, singular):
    rng = np.random.default_rng(100 + n)
    T = random_tridiagonal(rng, n)
    if singular:  # a zero column: the variable the residual ignores
        k = n // 2
        T.diag[k] = 0.0
        T.lower[k:k + 1] = 0.0
        T.upper[k - 1:k] = 0.0
    A = np.asarray(T)
    r = rng.standard_normal(n)
    for tau in (1e-3, 1.0):
        ref = np.linalg.solve(A.T @ A + tau * np.eye(n), -A.T @ r)
        assert_allclose(tikhonov_tridiagonal(T, r, tau), ref, rtol=1e-9, atol=1e-12)


def test_newton_takes_the_tikhonov_step_on_an_exactly_singular_band(monkeypatch):
    # x1 drops out: J = [[1, 0, 0], [1, 0, 1], [0, 0, 1]] has a zero column
    def res(x):
        return np.array([x[0] - 1.0, x[0] + x[2] - 3.0, x[2] - 2.0])

    def band(x):
        return Tridiagonal([1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0])

    calls = []
    sweep = solvers.tikhonov_tridiagonal
    monkeypatch.setattr(solvers, "tikhonov_tridiagonal",
                        lambda *args: calls.append(1) or sweep(*args))
    x0 = [0.0, 5.0, 0.0]
    x = newton_solve(res, band, x0)
    assert calls
    # the dense Jacobian fails in LAPACK and takes the dense Tikhonov step
    assert_allclose(x, newton_solve(res, lambda x: np.asarray(band(x)), x0),
                    rtol=1e-12, atol=1e-12)
    assert_allclose(x, [1.0, 5.0, 2.0], atol=1e-9)


def _old_dense_step(J, r):
    """_dense_step as it was when it called np.linalg.solve."""
    if not np.isfinite(J).all():
        raise NonFinite("Jacobian is not finite")
    try:
        step = np.linalg.solve(J, -r)
    except np.linalg.LinAlgError:
        step = None
    if step is None or not np.isfinite(step).all():
        tau = 1e-12 * max(1.0, float(np.sum(J * J)))
        try:
            step = np.linalg.solve(J.T @ J + tau * np.eye(J.shape[1]), -J.T @ r)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(str(exc)) from exc
        if not np.isfinite(step).all():
            raise SingularJacobian("linear solve produced non-finite step")
    return step


def _guarded_dense_step(J, r):
    with np.errstate(all="ignore"):  # as in newton_solve
        return solvers._dense_step(J, r)


@pytest.mark.parametrize("conditioning", ["random", "ill"])
@pytest.mark.parametrize("n", range(1, 9))
def test_dense_step_is_bit_equal_to_np_linalg_solve(n, conditioning):
    rng = np.random.default_rng(700 + n)
    for _ in range(20):
        J = rng.standard_normal((n, n))
        if conditioning == "ill":  # singular values from 1 down to 1e-15
            U, _, Vt = np.linalg.svd(J)
            J = (U * np.logspace(0, -15, n)) @ Vt
        r = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9)
        assert _guarded_dense_step(J, r).tobytes() == np.linalg.solve(J, -r).tobytes()


@pytest.mark.parametrize("shape", ["zero column", "repeated row", "rank one", "zero"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
def test_dense_step_on_a_singular_jacobian_takes_the_old_tikhonov_step(n, shape):
    rng = np.random.default_rng(800 + n)
    J = rng.standard_normal((n, n))
    if shape == "zero column":
        J[:, n // 2] = 0.0
    elif shape == "repeated row":
        J[-1] = J[0]
    elif shape == "rank one":
        J = np.outer(rng.standard_normal(n), rng.standard_normal(n))
    else:
        J = np.zeros((n, n))
    r = rng.standard_normal(n)
    assert _guarded_dense_step(J, r).tobytes() == _old_dense_step(J, r).tobytes()


def test_dense_step_on_a_non_square_jacobian_takes_the_old_least_squares_step():
    rng = np.random.default_rng(9)
    J, r = rng.standard_normal((3, 4)), rng.standard_normal(3)
    assert _guarded_dense_step(J, r).tobytes() == _old_dense_step(J, r).tobytes()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [(0, 0), (1, 2), (2, 1)])
def test_dense_step_refuses_a_jacobian_that_is_not_finite(value, where):
    J = np.eye(3)
    J[where] = value
    with pytest.raises(NonFinite):
        _guarded_dense_step(J, np.ones(3))


def test_newton_solve_on_a_singular_dense_system_does_not_warn():
    # x1 drops out: J = [[1, 0], [2, 0]] is exactly singular at every point,
    # so every step is gesv's NaN step followed by the Tikhonov step
    def res(x):
        return np.array([x[0] - 1.0, 2.0 * (x[0] - 1.0)])

    def jac(x):
        return np.array([[1.0, 0.0], [2.0, 0.0]])

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = newton_solve(res, jac, [4.0, 5.0])
    assert_allclose(x, [1.0, 5.0], atol=1e-9)


def test_multi_start_raises_singular_jacobian_when_every_start_is_singular():
    # x1 drops out and J^T J overflows, so the Tikhonov step is not finite
    def res(x):
        return np.array([x[0] - 1.0, 0.0])

    def jac(x):
        return np.array([[1e200, 0.0], [0.0, 0.0]])

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularJacobian):
            multi_start(res, jac, 2, SolverConfig(starts=5))


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


def test_adaptive_simpson_refuses_a_pole_past_its_evaluation_budget():
    # 1/(x - c) is not integrable across c; unbounded, the refinement near the
    # pole takes 185,069 evaluations and returns -10.27
    calls = [0]

    def pole(x):
        calls[0] += 1
        return 1.0 / (x - 0.30000001)

    with pytest.raises(QuadratureFailure, match="evaluations"):
        adaptive_simpson(pole, 0.0, 1.0)
    assert calls[0] <= solvers.SIMPSON_MAX_EVALS


def test_adaptive_simpson_depth_limit(monkeypatch):
    def nasty(x):
        return 1.0 if x < 0.5 else -1.0  # jump keeps refinement alive

    monkeypatch.setattr(solvers, "SIMPSON_TOL", 1e-15)
    monkeypatch.setattr(solvers, "SIMPSON_MAX_DEPTH", 8)
    with pytest.raises(QuadratureFailure):
        adaptive_simpson(nasty, 0.0, 1.0)


def test_adaptive_simpson_refuses_a_non_finite_estimate():
    # a NaN estimate never meets the tolerance: without the check the
    # recursion runs to its width floor, about 2^47 evaluations
    calls = [0]

    def nan_after_a_while(x):
        calls[0] += 1
        if calls[0] > 10**5:
            raise AssertionError("adaptive Simpson kept refining a non-finite estimate")
        return math.nan if x > 0.3 else 1.0

    with pytest.raises(NonFinite):
        adaptive_simpson(nan_after_a_while, 0.0, 3.0)
    with pytest.raises(NonFinite):
        adaptive_simpson(lambda x: math.inf, 1.0, 0.0)


@pytest.mark.parametrize("scale, b", [(1e7, 0.8591409142295227), (1e7, 1.0), (1e300, 1.0)])
def test_adaptive_simpson_stops_at_the_rounding_level_of_a_large_integral(scale, b):
    # the absolute tolerance is below the rounding of these estimates, so without
    # a stop there a piece may halve down to the width floor: [0, 0.859...] is
    # where `tsvar direct --kind power --phi "1e7*exp(t)"` on uniform(0,1,0.5)
    # with B = 1 and exponent 2 ran without end
    calls = [0]

    def f(x):
        calls[0] += 1
        if calls[0] > 10**5:
            raise AssertionError("adaptive Simpson kept refining below the rounding level")
        return scale * math.exp(x)

    assert adaptive_simpson(f, 0.0, b) == pytest.approx(scale * math.expm1(b), rel=1e-14)


def _cubic(x):  # G(x) = x^3 + x, the integral of g(x) = 3x^2 + 1 from 0
    return x ** 3 + x


def _cubic_slope(x):
    return 3.0 * x * x + 1.0


def test_invert_integral():
    for target in (0.0, 0.5, 10.0, 1234.5):
        [x] = invert_integral(_cubic_slope, [target], 0.0, 0.0)
        assert _cubic(x) == pytest.approx(target, rel=1e-10, abs=1e-10)
    with pytest.raises(RootNotBracketed):
        invert_integral(_cubic_slope, [-1.0], 0.0, 0.0)  # below the start


def test_invert_integral_walks_its_targets_in_turn():
    # each inversion starts where the one before stopped, in either direction
    targets = [0.5, 10.0, 1234.5, 3.0, 3.0]
    roots = invert_integral(_cubic_slope, targets, 0.0, 0.0)
    assert len(roots) == len(targets)
    assert_allclose([_cubic(x) for x in roots], targets, rtol=1e-12)
    # from a later start (1, G(1) = 2) the same roots come back
    assert_allclose(invert_integral(_cubic_slope, targets, 1.0, 2.0), roots, rtol=1e-13)


@pytest.mark.parametrize("slope", [lambda x: math.nan, lambda x: 1.0 - x], ids=["nan", "1-x"])
def test_invert_integral_refuses_a_negative_or_non_finite_integrand(slope):
    # 1 - x is positive at the start but turns negative before G reaches 5;
    # a negative start is covered by the direct power method's tests
    with pytest.raises(RootNotBracketed):
        invert_integral(slope, [0.25, 5.0], 0.0, 0.0)



@pytest.mark.parametrize("slope", [lambda s: math.exp(-s), lambda s: 1.0 / (1.0 + s * s)],
                         ids=["exp(-s)", "1/(1+s^2)"])
def test_invert_integral_refuses_a_target_above_a_plateau(slope):
    # G tends to 1 and to pi/2: the walk doubles x until G stops growing in floating point
    with pytest.raises(RootNotBracketed, match="plateaus below its inversion target 2.0"):
        invert_integral(slope, [2.0], 0.0, 0.0)

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

"""The linear-time bound calculators against their defining double sums.

``gronwall_bound`` and ``comparison_bound`` step the variation-of-constants
recurrence forward, and the nonlinear bound takes its ``p`` to be e_f(t, a).
The references below are the direct O(n^2) sums with cumulative-exponential
ratios P[i] / P[j+1], on random explicit grids.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tsvar import inequalities as ineq
from tsvar.errors import NonRegressive
from tsvar.inequalities import NonlinearGrowthSpec
from tsvar.timescale import GridFunction, explicit, uniform

IDENTITY_SPEC = NonlinearGrowthSpec(Phi=lambda u: u, W=lambda u: u, Psi_x0=1.0)


def _cumulative(mu, p, i0):
    """P[i] = product over [t_{i0}, t_i) of (1 + mu p)."""
    P = np.ones(mu.size + 1)
    for j in range(i0, mu.size):
        P[j + 1] = P[j] * (1.0 + mu[j] * p[j])
    return P


def ref_gronwall(pts, a, b, i0):
    mu = np.diff(pts)
    P = _cumulative(mu, b, i0)
    out = []
    for i in range(i0, pts.size):
        acc = sum(mu[j] * a[j] * b[j] * (P[i] / P[j + 1]) for j in range(i0, i))
        out.append(a[i] + acc)
    return np.array(out)


def ref_comparison(pts, y0, p, f, i0):
    mu = np.diff(pts)
    P = _cumulative(mu, p, i0)
    out = []
    for i in range(i0, pts.size):
        acc = y0 * P[i] + sum(mu[j] * f[j] * (P[i] / P[j + 1]) for j in range(i0, i))
        out.append(acc)
    return np.array(out)


def ref_p(pts, f):
    """p[i] = 1 + sum_{j<i} mu_j f_j P[i] / P[j+1], the nonlinear bound's factor."""
    mu = np.diff(pts)
    P = _cumulative(mu, f, 0)
    return np.array([1.0 + sum(mu[j] * f[j] * (P[i] / P[j + 1]) for j in range(i))
                     for i in range(pts.size)])


def _random_cases():
    rng = np.random.default_rng(20261018)
    for k in range(20):
        n = int(rng.integers(3, 301))
        steps = rng.uniform(0.001, 0.2, n - 1)
        pts = float(rng.uniform(-2.0, 2.0)) + np.concatenate([[0.0], np.cumsum(steps)])
        i0 = int(rng.integers(1, n - 1)) if k % 3 == 0 else 0
        yield k, rng, explicit(pts), i0


def _assert_close(got, ref):
    got = np.asarray(got)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_gronwall_bound_matches_double_sum():
    for _, rng, g, i0 in _random_cases():
        n = len(g)
        a = rng.uniform(0.5, 1.5, n)
        b = rng.uniform(0.0, 2.0, n)
        got = ineq.gronwall_bound(g, a, b, float(g.points[i0]))
        assert_allclose(got.scale.points, g.points[i0:])
        _assert_close(got.values, ref_gronwall(g.points, a, b, i0))


def test_comparison_bound_matches_double_sum():
    for _, rng, g, i0 in _random_cases():
        n = len(g)
        p = rng.uniform(-2.0, 1.0, n)  # 1 + mu p stays positive for mu <= 0.2
        f = rng.uniform(-1.0, 1.0, n)
        y0 = float(rng.uniform(-1.0, 1.0))
        got = ineq.comparison_bound(g, y0, p, f, float(g.points[i0]))
        assert_allclose(got.scale.points, g.points[i0:])
        _assert_close(got.values, ref_comparison(g.points, y0, p, f, i0))


def test_nonlinear_p_is_the_exponential():
    # with a zero kernel the bound is p * a, so a = 1 exposes p itself
    for _, rng, g, _ in _random_cases():
        f = rng.uniform(0.0, 1.0, len(g))
        got = ineq.nonlinear_gronwall_bound(g, None, np.ones(len(g)), f,
                                            lambda t, s: 0.0, IDENTITY_SPEC)
        _assert_close(got.values, ref_p(g.points, f))


@pytest.mark.parametrize("bound", ["gronwall", "comparison"])
def test_nonregressive_reports_first_index_from_t0(bound):
    g = uniform(0.0, 6.0, 1.0)
    p = np.full(len(g), 0.5)
    p[1] = -3.0  # before t0: ignored
    p[4] = -1.0  # 1 + mu p = 0 at index 4
    t0 = 2.0
    with pytest.raises(NonRegressive, match="= 0.0 at t index 4 must stay positive"):
        if bound == "gronwall":
            ineq.gronwall_bound(g, np.ones(len(g)), p, t0)
        else:
            ineq.comparison_bound(g, 1.0, p, np.zeros(len(g)), t0)
    p[4] = 0.5
    ok = (ineq.gronwall_bound(g, np.ones(len(g)), p, t0) if bound == "gronwall"
          else ineq.comparison_bound(g, 1.0, p, np.zeros(len(g)), t0))
    assert np.all(np.isfinite(ok.values))


def _nonlinear_case():
    """The benchmark's 41-point problem: identity Phi and W, seeded a and f."""
    rng = np.random.default_rng(3)
    g = uniform(0.0, 40.0, 1.0)
    pts = g.points
    a = rng.uniform(0.5, 1.5, pts.size)
    f = rng.uniform(0.01, 0.05, pts.size)

    def kernel(t, s):
        return 0.002 * (1.0 + s / 40.0)

    # Psi(x) = ln x, so W(Psi^-1(Psi(zeta) + I)) = zeta e^I on the grid
    mu = np.diff(pts)
    p = np.concatenate([[1.0], np.cumprod(1.0 + mu * f[:-1])])
    F = np.concatenate([[0.0], np.cumsum(mu * f[:-1])])
    K = np.array([[kernel(t, s) for s in pts] for t in pts])
    zeta = float(np.sum(mu[:-1] * K[-2, :-2] * p[:-2] * a[:-2]))
    inner = np.tril(K[:, :-1], -1) @ (mu * p[:-1] * F[:-1])
    growth = zeta * np.exp(inner)
    acc = np.concatenate([[0.0], np.cumsum(mu * f[:-1] * growth[:-1])])
    return g, a, f, kernel, p * a + p * acc


def test_nonlinear_bound_closed_form_and_quadrature_budget(monkeypatch):
    g, a, f, kernel, reference = _nonlinear_case()
    calls = [0]
    simpson = ineq.adaptive_simpson

    def counting(*args, **kwargs):
        calls[0] += 1
        return simpson(*args, **kwargs)

    monkeypatch.setattr(ineq, "adaptive_simpson", counting)
    got = ineq.nonlinear_gronwall_bound(g, None, GridFunction(g, a), GridFunction(g, f),
                                        kernel, IDENTITY_SPEC)
    assert_allclose(got.values, reference, rtol=1e-7)
    assert 0 < calls[0] <= 3000


def test_nonlinear_bound_calls_the_kernel_once_per_pair():
    g, a, f, kernel, _ = _nonlinear_case()
    pairs = []

    def recording(t, s):
        pairs.append((t, s))
        return kernel(t, s)

    ineq.nonlinear_gronwall_bound(g, None, a, f, recording, IDENTITY_SPEC)
    n = len(g)
    # n - 2 calls for zeta, then one per (j, m) with m < j <= n - 2
    assert len(pairs) == (n - 2) + (n - 1) * (n - 2) // 2

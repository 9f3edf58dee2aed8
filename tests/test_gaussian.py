"""Covariance sampling, regression solves, estimation, and binomial interval helpers.

``CovMatrix.solve`` is checked against ``scipy.linalg.cho_solve`` on the
same factor, on the past windows the library regresses on.
"""

import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import cho_solve
from scipy.stats import binomtest

from fbmkit.acceptance import _exp_grid_neg
from fbmkit.cli import V_GRID_DEFAULT
from fbmkit.drift import REGRESSION_MAX_POINTS, inversion_grid
from fbmkit.errors import AccuracyError, ValidationError
from fbmkit.fbm import fbm_cov, fbm_cov_matrix
from fbmkit.gaussian import (
    CovMatrix,
    cholesky_with_jitter,
    estimate_cov,
)
from fbmkit.reports import wilson_interval
from fbmkit.rng import make_rng


def test_estimate_cov_is_the_zero_mean_formula():
    x = np.array([[1.0, 2.0], [3.0, -1.0], [0.0, 1.0]])
    expected = x.T @ x / 3.0
    assert np.allclose(estimate_cov(x)[0], expected, rtol=0.0, atol=0.0)


def test_cov_standard_errors_small_case():
    x = np.array([[1.0, 2.0], [3.0, -1.0], [0.0, 1.0], [2.0, 2.0]])
    n = 4
    prods = x[:, :, None] * x[:, None, :]
    expected = prods.std(axis=0) / np.sqrt(n)
    assert np.allclose(estimate_cov(x)[1], expected, rtol=1.0e-12, atol=1.0e-15)


def test_sampling_reproduces_the_covariance():
    cov = np.array([[2.0, 0.6, 0.0], [0.6, 1.0, -0.3], [0.0, -0.3, 0.5]])
    draws = CovMatrix(cov).sample(make_rng(7), 40_000)
    emp, se = estimate_cov(draws)
    assert np.all(np.abs(emp - cov) <= 4.0 * se)


def test_cholesky_handles_semidefinite_matrices():
    # covariance pinned to zero in the first coordinate: genuinely singular
    cov = np.array([[0.0, 0.0], [0.0, 1.0]])
    factor, jitter = cholesky_with_jitter(cov)
    assert jitter <= 1.0e-10
    assert np.allclose(factor @ factor.T, cov, atol=1.0e-9)


def test_cholesky_rejects_indefinite_matrices():
    with pytest.raises(AccuracyError):
        cholesky_with_jitter(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_cholesky_rejects_asymmetric_input():
    with pytest.raises(ValidationError):
        cholesky_with_jitter(np.array([[1.0, 0.5], [0.1, 1.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [(0, 0), (0, 1)])
def test_cholesky_rejects_non_finite_entries(bad, where):
    cov = np.array([[2.0, 0.5], [0.5, 1.0]])
    cov[where] = bad
    cov[where[::-1]] = bad
    with pytest.raises(ValidationError, match="finite"):
        cholesky_with_jitter(cov)


@pytest.mark.parametrize("scale", [1.0e-3, 1.0, 1.0e6])
def test_cholesky_symmetry_tolerance(scale):
    # The tolerance is 1e-10 * max(1, max |A|): twice it is rejected, half passes.
    cov = scale * np.array([[2.0, 0.5], [0.5, 1.0]])
    tol = 1.0e-10 * max(1.0, 2.0 * scale)
    off = cov.copy()
    off[0, 1] += 2.0 * tol
    with pytest.raises(ValidationError, match="symmetric"):
        cholesky_with_jitter(off)
    off[0, 1] = cov[0, 1] + 0.5 * tol
    factor, jitter = cholesky_with_jitter(off)
    assert jitter == 0.0 and np.all(np.isfinite(factor))


def test_covmatrix_sampling_is_chunk_invariant():
    cov = np.eye(3)
    whole = CovMatrix(cov).sample(make_rng(3), 10)
    rng = make_rng(3)
    parts = np.vstack([CovMatrix(cov).sample(rng, 4), CovMatrix(cov).sample(rng, 6)])
    # sample() fixes the draw shape as (dim, n), so chunked draws differ from
    # one big draw -- but each chunk individually is deterministic
    again = make_rng(3)
    parts2 = np.vstack(
        [CovMatrix(cov).sample(again, 4), CovMatrix(cov).sample(again, 6)]
    )
    assert np.array_equal(parts, parts2)
    assert whole.shape == (10, 3)


def test_covmatrix_sample_is_the_factor_times_one_normal_block():
    # The draw every sampling route makes; artifacts depend on its bytes.
    cov = fbm_cov_matrix(np.linspace(0.1, 1.0, 7), 0.3)
    factor, _ = cholesky_with_jitter(cov)
    expected = (factor @ make_rng(11).standard_normal((7, 5))).T
    assert np.array_equal(CovMatrix(cov).sample(make_rng(11), 5), expected)


def regression_grid(name):
    """Past times and future times of one regression the library solves."""
    v_crit = np.linspace(0.125, 2.0, 16)
    if name == "criterion2-h0.25":
        return _exp_grid_neg(-7.0, 3.0, 24), v_crit
    if name == "criterion2-h0.75":
        return _exp_grid_neg(-7.0, 7.0, 24), v_crit
    v_default = np.array([float(v) for v in V_GRID_DEFAULT.split(",")])
    if name == "drift-regression-default":
        return inversion_grid(1.0 / 128, u_deep=1.0e7), v_default
    # drift regression at --dt 2^-11 hits the cap on regression points.
    times = inversion_grid(2.0**-11, u_deep=1.0e7)
    pick = np.round(np.linspace(0, times.size - 1, REGRESSION_MAX_POINTS)).astype(int)
    return times[pick], v_default


def regression_system(name, hurst):
    past, v = regression_grid(name)
    return CovMatrix(fbm_cov_matrix(past, hurst)), fbm_cov(past[:, None], v[None, :], hurst)


GRIDS = ["criterion2-h0.25", "criterion2-h0.75", "drift-regression-default", "cap-2048"]


@pytest.mark.parametrize("name", GRIDS)
@pytest.mark.parametrize("hurst", [0.05, 0.25, 0.75, 0.95])
def test_solve_matches_cho_solve_on_the_regression_windows(name, hurst):
    cov, cpv = regression_system(name, hurst)
    low = cov.cholesky

    def residual(weights):
        return np.abs(low @ (low.T @ weights) - cpv).max() / np.abs(cpv).max()

    # The gate is one that scipy's solve on the same factor meets as well.
    assert residual(cho_solve((low, True), cpv)) <= 1e-14
    assert residual(cov.solve(cpv)) <= 1e-14
    if name == "cap-2048":
        assert cov.dim == REGRESSION_MAX_POINTS


def test_solve_is_no_slower_than_cho_solve_at_the_regression_cap():
    cov, cpv = regression_system("cap-2048", 0.75)

    def best(solve):
        times = []
        for _ in range(5):
            start = time.perf_counter()
            solve()
            times.append(time.perf_counter() - start)
        return min(times)

    ours = best(lambda: cov.solve(cpv))
    scipy_time = best(lambda: cho_solve((cov.cholesky, True), cpv))
    assert ours <= scipy_time, f"solve {ours:.4f} s, cho_solve {scipy_time:.4f} s"


def test_solve_takes_a_vector_and_checks_the_shape():
    cov = CovMatrix(np.array([[4.0, 2.0], [2.0, 3.0]]))
    x = cov.solve(np.array([2.0, 1.0]))
    assert x.shape == (2,)
    assert np.allclose(cov.matrix @ x, [2.0, 1.0], rtol=0.0, atol=1e-15)
    for bad in (np.ones(3), np.ones((3, 1)), np.ones((2, 1, 1))):
        with pytest.raises(ValidationError):
            cov.solve(bad)


@given(
    hits=st.integers(0, 500),
    n=st.integers(1, 500),
)
def test_wilson_interval_matches_scipy(hits, n):
    hits = min(hits, n)
    lo, hi = wilson_interval(hits, n)
    ref = binomtest(hits, n).proportion_ci(confidence_level=0.95, method="wilson")
    assert lo == pytest.approx(ref.low, abs=2.0e-3)
    assert hi == pytest.approx(ref.high, abs=2.0e-3)
    assert 0.0 <= lo <= hits / n <= hi <= 1.0


def test_wilson_interval_never_collapses_at_the_edges():
    lo0, hi0 = wilson_interval(0, 100)
    assert lo0 == 0.0 and hi0 > 0.0
    lo1, hi1 = wilson_interval(100, 100)
    assert lo1 < 1.0 and hi1 == 1.0  # phat is guaranteed inside the interval


def test_wilson_interval_validation():
    with pytest.raises(ValidationError):
        wilson_interval(-1, 10)
    with pytest.raises(ValidationError):
        wilson_interval(11, 10)
    with pytest.raises(ValidationError):
        wilson_interval(0, 0)

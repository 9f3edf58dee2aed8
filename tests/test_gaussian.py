"""Covariance factors, sampling, regression solves, estimation, and binomial interval helpers.

The in-place blocked factor of ``cholesky_with_jitter`` is checked against
LAPACK's ``np.linalg.cholesky`` (bit for bit up to one block, by backward
error beyond) on the matrices the CLI factors at its default windows, and on
the joint (W, Z) covariances of the ``drift validate`` and ``invert``
windows, which it no longer factors.  Those accuracy cases run again in a
child interpreter with BLAS pinned to one thread, as the benchmark runs.
``CovMatrix.solve`` is checked against ``scipy.linalg.cho_solve`` on the
same factor, on the past windows the library regresses on.  The moment
accumulator ``CrossMoments`` is checked against ``estimate_cov`` below, the
full-array formula the library used before it reduced block by block, and
against the hand-kept sums acceptance criterion 2 once drew, bit for bit.
"""

import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import cho_solve
from scipy.stats import binomtest

from fbmkit.acceptance import _exp_grid_neg
from fbmkit.cli import V_GRID_DEFAULT
from fbmkit.context import make_context
from fbmkit.drift import REGRESSION_MAX_POINTS, inversion_grid
from fbmkit.errors import AccuracyError, ValidationError
from fbmkit.fbm import fbm_cov, fbm_cov_matrix
from fbmkit.gaussian import (
    _CHOLESKY_BLOCK,
    _JITTER_LADDER,
    _PANEL_VALUES,
    CovMatrix,
    CrossMoments,
    block_edges,
    cholesky_with_jitter,
)
from fbmkit.reports import wilson_interval
from fbmkit.rng import make_rng

from dense_joint import joint_wz_cov


def estimate_cov(samples):
    """Zero-mean empirical covariance of the rows of ``samples`` and its standard errors.

    The oracle: ``cov = X.T @ X / N``, and entry ``(k, l)`` of ``se`` is
    ``std(X_k * X_l) / sqrt(N)``, from the whole array at once.
    """
    n = samples.shape[0]
    cov = samples.T @ samples / n
    sq = samples * samples
    var = np.maximum(sq.T @ sq / n - cov**2, 0.0)
    return cov, np.sqrt(var / n)


def moments_of(x):
    return CrossMoments().add(x).finish()


def test_moments_are_the_zero_mean_formula():
    x = np.array([[1.0, 2.0], [3.0, -1.0], [0.0, 1.0]])
    expected = x.T @ x / 3.0
    assert np.allclose(moments_of(x)[0], expected, rtol=0.0, atol=0.0)


def test_cov_standard_errors_small_case():
    x = np.array([[1.0, 2.0], [3.0, -1.0], [0.0, 1.0], [2.0, 2.0]])
    n = 4
    prods = x[:, :, None] * x[:, None, :]
    expected = prods.std(axis=0) / np.sqrt(n)
    assert np.allclose(moments_of(x)[1], expected, rtol=1.0e-12, atol=1.0e-15)


def test_sampling_reproduces_the_covariance():
    cov = np.array([[2.0, 0.6, 0.0], [0.6, 1.0, -0.3], [0.0, -0.3, 0.5]])
    draws = CovMatrix(cov.copy()).sample(make_rng(7), 40_000)
    emp, se = moments_of(draws)
    assert np.all(np.abs(emp - cov) <= 4.0 * se)


@pytest.mark.parametrize("order", ["C", "F"])
def test_one_block_is_the_full_array_formula_bit_for_bit(order):
    # One add of a whole draw, as estimate_cov reduced it.
    x = np.asarray(make_rng(4).standard_normal((5000, 6)), order=order)
    for got, want in zip(moments_of(x), estimate_cov(x)):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("sizes", [[1, 1], [7, 993], [4096, 4096, 1808], [2**15, 2**15, 3000]])
def test_blocks_added_or_merged_equal_the_full_array_oracle(sizes):
    x = make_rng(sum(sizes)).standard_normal((sum(sizes), 9)) @ np.triu(np.ones((9, 9)))
    want = estimate_cov(x)
    edges = np.cumsum([0] + sizes)
    added, merged = CrossMoments(), CrossMoments()
    for a, b in zip(edges, edges[1:]):
        added.add(x[a:b])
        merged.merge(CrossMoments().add(x[a:b]))
    assert added.n == merged.n == x.shape[0]
    for acc in (added, merged):
        for got, ref in zip(acc.finish(), want):
            assert np.allclose(got, ref, rtol=1.0e-12, atol=1.0e-15 * np.abs(ref).max())


def hand_kept_sums(blocks, n_paths):
    """Criterion 2's former estimator: sums of a.T @ a and (a*a).T @ (a*a) per chunk."""
    total, total2 = 0.0, 0.0
    for a in blocks:
        total += a.T @ a
        total2 += (a * a).T @ (a * a)
    c = total / n_paths
    var = np.maximum(total2 / n_paths - c**2, 1.0e-300)
    return c, np.sqrt(var / n_paths)


def test_moments_match_criterion_2s_hand_kept_sums_bit_for_bit():
    # Criterion 2's former shapes: 5 chunks of 20 000 rows, of which the
    # future's 16 columns were reduced with themselves.
    rng = make_rng(6)
    blocks = [rng.standard_normal((20_000, 64))[:, 48:] for _ in range(5)]
    acc = CrossMoments()
    for a in blocks:
        acc.add(a)
    for got, want in zip(acc.finish(), hand_kept_sums(blocks, 100_000)):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_moments_refuse_too_few_rows_or_a_block_not_2d():
    with pytest.raises(ValidationError, match=">= 2 rows"):
        moments_of(np.ones((1, 3)))
    with pytest.raises(ValidationError, match="2-d"):
        CrossMoments().add(np.ones(3))


@pytest.mark.parametrize("n,block,edges", [
    (1, 4096, [0, 1]), (4095, 4096, [0, 4095]), (4096, 4096, [0, 4096]),
    (8191, 4096, [0, 8191]), (8192, 4096, [0, 4096, 8192]), (12287, 4096, [0, 4096, 12287]), (12288, 4096, [0, 4096, 8192, 12288]),
])
def test_the_remainder_joins_the_last_block(n, block, edges):
    assert block_edges(n, block) == edges


def test_cholesky_handles_semidefinite_matrices():
    # covariance pinned to zero in the first coordinate: genuinely singular
    cov = np.array([[0.0, 0.0], [0.0, 1.0]])
    factor, jitter = cholesky_with_jitter(cov.copy())
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



# Rows per panel of the symmetry check at dim 300.
_ROWS_300 = _PANEL_VALUES // 300


@pytest.mark.parametrize("where", [(140, 290), (290, 140), (0, 299), (299, 0),
                                   (2 * _ROWS_300 - 1, 2 * _ROWS_300), (_ROWS_300, _ROWS_300 - 1)])
def test_cholesky_checks_symmetry_in_every_panel(where):
    # The check runs over row panels from the diagonal on; an asymmetric
    # pair is caught whichever triangle and panel it falls in, and on
    # either side of a panel's edge.
    cov = fbm_cov_matrix(np.linspace(0.01, 3.0, 300), 0.7)
    bad = cov.copy()
    bad[where] += 1.0e-6
    with pytest.raises(ValidationError, match="symmetric"):
        cholesky_with_jitter(bad)
    bad[where] = np.nan
    with pytest.raises(ValidationError, match="finite"):
        cholesky_with_jitter(bad)


def test_cholesky_tolerance_scales_with_a_negative_largest_entry():
    # max |A| is -min here; at half the tolerance the pair passes the check
    # and the indefinite matrix fails the jitter ladder instead.
    cov = np.array([[1.0, -1.0e6], [-1.0e6, 1.0]])
    tol = 1.0e-10 * 1.0e6
    off = cov.copy()
    off[0, 1] += 2.0 * tol
    with pytest.raises(ValidationError, match="symmetric"):
        cholesky_with_jitter(off)
    off[0, 1] = cov[0, 1] + 0.5 * tol
    with pytest.raises(AccuracyError):
        cholesky_with_jitter(off)


def lapack_ladder(matrix):
    """The factor as LAPACK alone gives it: ``np.linalg.cholesky`` up the jitter ladder."""
    dim = matrix.shape[0]
    scale = float(np.trace(matrix)) / dim
    for jitter in _JITTER_LADDER:
        try:
            return np.linalg.cholesky(matrix + (jitter * scale) * np.eye(dim)), jitter
        except np.linalg.LinAlgError:
            continue
    raise AssertionError("the jitter ladder fails")


def backward_error(factor, matrix):
    return np.abs(factor @ factor.T - matrix).max() / np.abs(matrix).max()


def factored_window(name, hurst):
    """A matrix the CLI factors at its default window, or at the regression cap.

    ``drift-validate`` and ``invert`` are the joint (W, Z) covariances of
    those calls' default windows.  The CLI no longer factors them: it draws
    their routes' images from a 32 x 32 covariance.  They stay here as
    accuracy cases for the factor, a joint matrix with a block boundary.
    """
    ctx = make_context(hurst)
    drift_past = inversion_grid(1.0 / 128, u_deep=1.0e7)  # drift's --dt and --umax defaults
    if name == "drift":  # the kernel and regression routes
        return fbm_cov_matrix(drift_past, hurst)
    if name == "drift-validate":
        return joint_wz_cov(ctx, drift_past, drift_past)
    if name == "invert":  # invert's defaults; driver_roundtrip's recovery times
        past = inversion_grid(1.0 / 512, u_deep=600.0)
        t = np.array([past[np.argmin(np.abs(past - ti))] for ti in -np.linspace(1.0, 1.0 / 16, 16)])
        return joint_wz_cov(ctx, t, past)
    return fbm_cov_matrix(regression_grid("cap-2048")[0], hurst)


@pytest.mark.parametrize("dim", [1, 2, 64, _CHOLESKY_BLOCK - 1, _CHOLESKY_BLOCK])
def test_the_factor_is_lapacks_bit_for_bit_up_to_one_block(dim):
    a = np.random.default_rng(dim).standard_normal((dim, dim))
    for matrix in (a @ a.T + dim * np.eye(dim), fbm_cov_matrix(np.linspace(0.01, 2.0, dim), 0.3)):
        want = np.linalg.cholesky(matrix)
        work = matrix.copy()
        got, jitter = cholesky_with_jitter(work)
        assert got is work and jitter == 0.0
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_the_factor_copies_an_array_it_cannot_overwrite():
    matrix = fbm_cov_matrix(np.linspace(0.1, 1.0, 200), 0.6)
    want, _ = cholesky_with_jitter(matrix.copy())
    fortran, frozen = np.asfortranarray(matrix), matrix.copy()
    frozen.flags.writeable = False
    for arg in (fortran, frozen, matrix.tolist()):
        got, _ = cholesky_with_jitter(arg)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.array_equal(fortran, matrix) and np.array_equal(frozen, matrix)
    cov = CovMatrix(matrix)
    assert cov.cholesky is matrix and cov.dim == 200


@pytest.mark.parametrize("hurst", [0.1, 0.25, 0.75, 0.9])
@pytest.mark.parametrize("window", ["drift", "invert", "regression-cap"])
def test_the_blocked_factor_is_as_accurate_as_lapack(window, hurst):
    matrix = factored_window(window, hurst)
    assert matrix.shape[0] > _CHOLESKY_BLOCK
    lapack = np.linalg.cholesky(matrix)
    ours, jitter = cholesky_with_jitter(matrix.copy())
    assert jitter == 0.0
    assert backward_error(ours, matrix) <= 4.0 * backward_error(lapack, matrix)


@pytest.mark.parametrize("hurst", [0.1, 0.25, 0.75, 0.9])
def test_the_blocked_factor_is_as_accurate_as_lapack_on_the_joint_validate_window(hurst):
    # drift validate's 1070-row (W, Z) matrix at its default window: at
    # H = 0.75 LAPACK's max |LL^T - A| is 1/64 of an ulp of max |A|, as its
    # recursive split falls on the W/Z boundary and its trailing product sums
    # as the check's own product does; the blocked factor's is one ulp.  So
    # the entries are compared in correlation units, |LL^T - A|_ij /
    # sqrt(A_ii A_jj).
    matrix = factored_window("drift-validate", hurst)
    scale = np.sqrt(np.diag(matrix))

    def error(factor):
        return (np.abs(factor @ factor.T - matrix) / scale[:, None] / scale[None, :]).max()

    ours, jitter = cholesky_with_jitter(matrix.copy())
    assert jitter == 0.0
    assert error(ours) <= 4.0 * error(np.linalg.cholesky(matrix))


@pytest.mark.parametrize("dim", [51, _CHOLESKY_BLOCK + 1, 301])
def test_a_pinned_matrix_takes_lapacks_jitter_step(dim):
    # fBm's variance at t = 0 is zero: the matrix is singular at its middle
    # row, which lies past the first block at the larger dims.
    matrix = fbm_cov_matrix(np.linspace(-1.0, 1.0, dim), 0.7)
    assert matrix[dim // 2, dim // 2] == 0.0
    want, step = lapack_ladder(matrix)
    got, jitter = cholesky_with_jitter(matrix.copy())
    assert jitter == step > 0.0
    if dim <= _CHOLESKY_BLOCK:
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    else:
        bumped = matrix + (jitter * np.trace(matrix) / dim) * np.eye(dim)
        assert backward_error(got, bumped) <= 4.0 * backward_error(want, bumped)


FACTOR_ACCURACY_CASES = (
    "test_the_factor_is_lapacks_bit_for_bit_up_to_one_block"
    " or test_the_blocked_factor_is_as_accurate_as_lapack"
    " or test_a_pinned_matrix_takes_lapacks_jitter_step"
)


def test_the_factor_accuracy_cases_pass_at_one_blas_thread():
    # The benchmark pins BLAS to one thread, and OpenBLAS rounds its
    # products by thread count, so the accuracy cases run again in a child
    # interpreter under that pin, whatever this one runs at.
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", __file__,
         "-k", FACTOR_ACCURACY_CASES],
        env=env, cwd=root, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:]
    assert " passed" in proc.stdout and "deselected" in proc.stdout


@pytest.mark.parametrize("dim", [40, 300])
def test_a_failed_ladder_leaves_the_matrix_as_it_was(dim):
    # The last diagonal entry is negative: the factor fails in the last
    # block, after every earlier block has overwritten its lower triangle.
    x = np.random.default_rng(dim).standard_normal((dim, dim))
    matrix = x @ x.T + np.eye(dim)
    matrix = (matrix + matrix.T) / 2.0
    matrix[-1, -1] = -1.0
    work = matrix.copy()
    with pytest.raises(AccuracyError):
        cholesky_with_jitter(work)
    assert np.array_equal(work.view(np.uint64), matrix.view(np.uint64))


def test_factoring_inverts_window_allocates_under_a_quarter_of_the_matrix():
    # The joint matrix of invert's default window.  np.linalg.cholesky on
    # the whole matrix allocates a new n x n factor (and a Fortran copy that
    # tracemalloc does not see).
    matrix = factored_window("invert", 0.25)
    assert matrix.shape == (1203, 1203)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cholesky_with_jitter(matrix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < matrix.nbytes / 4


def test_covmatrix_sampling_is_chunk_invariant():
    cov = CovMatrix(np.eye(3))
    whole = cov.sample(make_rng(3), 10)
    rng = make_rng(3)
    parts = np.vstack([cov.sample(rng, 4), cov.sample(rng, 6)])
    # sample() fixes the draw shape as (dim, n), so chunked draws differ from
    # one big draw -- but each chunk individually is deterministic
    again = make_rng(3)
    parts2 = np.vstack([cov.sample(again, 4), cov.sample(again, 6)])
    assert np.array_equal(parts, parts2)
    assert whole.shape == (10, 3)


def test_covmatrix_sample_is_the_factor_times_one_normal_block():
    # The draw every sampling route makes; artifacts depend on its bytes.
    cov = fbm_cov_matrix(np.linspace(0.1, 1.0, 7), 0.3)
    factor, _ = cholesky_with_jitter(cov.copy())
    expected = (factor @ make_rng(11).standard_normal((7, 5))).T
    assert np.array_equal(CovMatrix(cov).sample(make_rng(11), 5), expected)


def _random_cov(dim):
    a = np.random.default_rng(dim).standard_normal((dim, dim))
    return CovMatrix(a @ a.T + dim * np.eye(dim))


@pytest.mark.parametrize("dim", [1, 2, 32, 41, 64])
@pytest.mark.parametrize("n", [1, 7, 4095, 4096, 4097, 8191, 8193, 16960, 2**15])
def test_blocked_in_place_sample_is_the_one_shot_product(dim, n):
    # The product runs in column blocks of 4096, overwriting the draw;
    # sizes around one and two blocks and the Monte Carlo chunk 2^15 are
    # compared bit for bit with the product of the whole draw.
    cov = _random_cov(dim)
    oracle_rng = make_rng(5)
    expected = (cov.cholesky @ oracle_rng.standard_normal((dim, n))).T
    bits = expected.view(np.uint64)
    rng = make_rng(5)
    assert np.array_equal(cov.sample(rng, n).view(np.uint64), bits)
    assert repr(rng.bit_generator.state) == repr(oracle_rng.bit_generator.state)
    buf = np.full(dim * n + 3, np.nan)
    got = cov.sample(make_rng(5), n, out=buf)
    assert np.shares_memory(got, buf)
    assert np.array_equal(got.view(np.uint64), bits)
    assert np.isnan(buf[dim * n:]).all()


def test_sample_refuses_an_unfit_out_buffer():
    cov = _random_cov(3)
    for out in (np.empty(3 * 5 - 1), np.empty((3, 5)), np.empty(15, dtype=np.float32),
                np.empty(30)[::2]):
        with pytest.raises(ValidationError, match="out must be"):
            cov.sample(make_rng(0), 5, out=out)


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
    # Alternating pairs, gated on the median of the per-pair ratios: a load
    # spike on the machine slows a pair or two, not the median.
    cov, cpv = regression_system("cap-2048", 0.75)

    def seconds(solve):
        start = time.perf_counter()
        solve()
        return time.perf_counter() - start

    ratios = sorted(
        seconds(lambda: cov.solve(cpv)) / seconds(lambda: cho_solve((cov.cholesky, True), cpv))
        for _ in range(21)
    )
    assert ratios[10] <= 1.0, f"median ratio solve / cho_solve {ratios[10]:.3f} over 21 pairs"


def test_solve_takes_a_vector_and_checks_the_shape():
    matrix = np.array([[4.0, 2.0], [2.0, 3.0]])
    cov = CovMatrix(matrix.copy())
    x = cov.solve(np.array([2.0, 1.0]))
    assert x.shape == (2,)
    assert np.allclose(matrix @ x, [2.0, 1.0], rtol=0.0, atol=1e-15)
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

"""Covariance formulas and samplers for the fractional processes.

Monte-Carlo checks compare sample moments against the closed-form or
quadrature covariances within four standard errors of the product moments;
fixed-value checks use literals frozen from independent arbitrary-precision
quadrature.  The one-sided (Levy) covariance is also checked against Euler's
integral in 40-digit mpmath (itself checked against mpmath quadrature of the
definition), against scipy's ``hyp2f1`` through the same closed forms, and
against the graded Gauss-Legendre quadrature that computed it before the
closed form.  The fGn autocovariance is checked against its second
difference in 50-digit mpmath out to lag 2^24.  The half-spectrum inverse
real FFT that maps normals to fGn is checked against the full Hermitian
complex FFT it replaced, on the same normals, and its circulant embedding
is checked nonnegative definite from H = 1e-4 to 0.99999.  The sampler,
which draws and transforms its paths in blocks of rows, is checked bit for
bit against the one-shot draw of every path it replaced, through
``sample_fbm_paths`` and through ``FgnSampler.sample``, the contract the
Monte Carlo engine draws by.  ``fbm_cov_matrix``, and the joint covariance
of driver and process on past windows, filled by row panels, equal the
broadcast entries bit for bit; the driver's cross covariance refuses
non-finite times as ``fbm_cov`` does, and the joint covariance refuses any
window but a past one.  The covariance of linear images of the joint law,
built by row panels, is the dense product ``A @ C @ A.T``
(``tests/dense_joint.py``) to rounding, on the route checks' default
windows, and evaluates each covariance entry once.  Its kernels fill the
cross entries with ``t <= s`` in closed form and take ``fbm_cov`` unsigned;
they keep the bits of the walk that sends every entry through ``xi`` with
its sign (``dense_joint.walked_image_cov``) and reuse one workspace: in a
fresh interpreter a repeated call on ``drift validate``'s window faults in
fewer than 400 pages.
"""

import functools
import sys
import tracemalloc
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate as scipy_integrate
from scipy.special import gamma as scipy_gamma
from scipy.special import hyp2f1

from fbmkit import acceptance, drift, fbm, gaussian
from fbmkit.context import make_context
from fbmkit.drift import _driver_weights, _inversion_weights, _kernel_weights, inversion_grid
from fbmkit.errors import AccuracyError, ValidationError
from fbmkit.fbm import (
    _fgn_eigenvalues,
    _fgn_from_normals,
    _levy_integral,
    cross_cov_wz,
    fbm_cov,
    fbm_cov_matrix,
    _fgn_unit_autocov,
    FgnSampler,
    fgn_autocov,
    joint_wz_image_cov,
    levy_cov,
    levy_cov_matrix,
    sample_fbm_paths,
    sample_levy_paths,
    sample_obm,
)
from fbmkit.gaussian import (
    _PANEL_VALUES,
    CovMatrix,
    CrossMoments,
    _row_panels,
    cholesky_with_jitter,
)
from fbmkit.quadrature import graded_breaks, panel_nodes
from fbmkit.rng import make_rng

from dense_joint import joint_wz_cov, signed_fbm_cov, walked_image_cov

# Reference values for the one-sided moving-average covariance
# c1(H)^2 * integral_0^{s ^ t} (s-u)^eta (t-u)^eta du, computed with
# 40-digit arbitrary-precision quadrature.
LEVY_COV_FROZEN = {
    (0.25, 0.5, 1.5): 0.3159105287890550640057,
    (0.25, 1.0, 1.0): 0.8346268416740731862814,
    (0.25, 0.25, 2.0): 0.1685596461287102296272,
    (0.75, 0.5, 1.5): 0.4087063314010335925093,
    (0.75, 1.0, 1.0): 0.7627597635018131880623,
    (0.75, 0.25, 2.0): 0.1896667365499727613147,
}

HURST_GRID = [k / 200 for k in range(1, 200)]
# The grid plus both ends of the range and both sides of H = 1/2, where the
# connection form's two terms cancel most (H -> 0 and H -> 1) or its
# constants near poles of Gamma (H -> 1/2).
LEVY_ORACLE_HURSTS = HURST_GRID + [1e-4, 0.4999, 0.5, 0.5001, 0.999, 0.9999, 0.99999]
ONE_ULP = float(np.nextafter(1.0, 2.0))
# (s, t) pairs with gaps of 1 ulp, 1e-12, 2^-10 (a point perfbench's mc
# oracle pins), 1/3 and 0.5, and pairs on either side of the switches
# between the series in z = s/t and the connection form: z = 1/2 for
# H < 1/2, z = 0.9 for H > 1/2.
LEVY_ORACLE_PAIRS = [
    (1.0, ONE_ULP),
    (1.0, 1.0 + 1e-12),
    (1.0, 1.0 + 2.0**-10),
    (1.0, 1.5),
    (0.5, 1.0),
    (0.49, 1.0),
    (0.51, 1.0),
    (0.89, 1.0),
    (0.91, 1.0),
]


def levy_cov_mpmath(hurst, s, t, quad=False):
    """``c1^2 * integral_0^s (s-u)^eta (t-u)^eta du`` (``s <= t``) in 40-digit mpmath.

    By default through Euler's integral
    ``t^eta s^{eta+1} / (eta+1) * 2F1(-eta, 1; eta+2; s/t)``; with ``quad``
    by tanh-sinh quadrature of the definition in ``x = s - u``,
    ``integral_0^s x^eta (x + t - s)^eta dx``, split where the factor
    ``(x + t - s)^eta`` changes scale.
    """
    mp = mpmath.mp
    with mpmath.workdps(40):
        h, s, t = mp.mpf(hurst), mp.mpf(s), mp.mpf(t)
        eta = h - mp.mpf(0.5)
        c1sq = 2 * h * mp.sinpi(h) * mp.gamma(2 * h) / mp.gamma(h + mp.mpf(0.5)) ** 2
        if quad:
            gap = t - s
            cuts = [0, gap, s] if 0 < gap < s else [0, s]
            val = mp.quad(lambda x: x**eta * (x + gap) ** eta, cuts)
        else:
            val = t**eta * s ** (eta + 1) / (eta + 1) * mp.hyp2f1(-eta, 1, eta + 2, s / t)
        return c1sq * val


def levy_cov_scipy(ctx, s, t):
    """The same closed forms through scipy's ``hyp2f1``, switched at ``w = 1/2`` for ``H < 1/2``.

    Euler's integral ``hi^eta lo^{eta+1} / (eta+1) * 2F1(-eta, 1; eta+2; lo/hi)``,
    and for ``H < 1/2`` near the diagonal its connection form in
    ``w = (hi - lo)/hi``.  Broadcast over ``s, t > 0``.
    """
    eta, h2 = ctx.eta, 2.0 * ctx.hurst
    lo, hi = np.minimum(s, t), np.maximum(s, t)
    gap = hi - lo
    near = (gap < 0.5 * hi) & (eta < 0.0)
    out = hyp2f1(-eta, 1.0, np.where(near, -2.0 * eta, eta + 2.0), np.where(near, gap, lo) / hi)
    out *= hi**eta * lo ** (eta + 1.0) / np.where(near, h2, eta + 1.0)
    if eta < 0.0:
        singular = scipy_gamma(eta + 1.0) * scipy_gamma(-h2) / scipy_gamma(-eta)
        out += np.where(near, singular * gap**h2, 0.0)
    return ctx.c1**2 * out


def levy_cov_graded(ctx, s, t):
    """The former quadrature route: Gauss-Legendre on a mesh graded toward ``u = s``.

    With ``x = s - u`` the integral is ``integral_0^s x^eta (x + t - s)^eta dx``,
    on 40 levels of halving toward the ``x^eta`` singularity, 16 nodes a panel.
    """
    s, t = min(s, t), max(s, t)
    nodes, weights = panel_nodes(
        graded_breaks(0.0, s, toward="left", levels=40), 16
    )
    return ctx.c1**2 * float(
        weights @ (nodes**ctx.eta * (nodes + (t - s)) ** ctx.eta)
    )


def fgn_from_normals_full_fft(lam, normals, n):
    """The former transform: a Hermitian ``(paths, M)`` spectrum and a full complex FFT."""
    m = lam.size
    half = m // 2
    w = np.zeros((normals.shape[0], m), dtype=complex)
    w[:, 0] = np.sqrt(lam[0] / m) * normals[:, 0]
    w[:, half] = np.sqrt(lam[half] / m) * normals[:, 1]
    k = np.arange(1, half)
    amp = np.sqrt(lam[k] / (2.0 * m))
    w[:, k] = amp * (normals[:, 2 : 1 + half] + 1j * normals[:, 1 + half : m])
    w[:, m - k] = np.conj(w[:, k])
    return np.fft.fft(w, axis=1).real[:, :n]


def one_shot_fgn(hurst, n, dt, rng, paths):
    """The former sampler: every path's normals in one draw, transformed at once."""
    gam = fgn_autocov(n, hurst, dt)
    if n == 1:
        return np.sqrt(gam[0]) * rng.standard_normal((paths, 1))
    lam = _fgn_eigenvalues(gam)
    return _fgn_from_normals(lam, rng.standard_normal((paths, lam.size)), n)


def block_edges(n):
    """Path counts around the sampler's panel of rows for paths of ``n`` steps."""
    rows = max(1, _PANEL_VALUES // (1 if n == 1 else 2 * (n - 1)))
    return sorted({p for p in (1, rows - 1, rows, rows + 1, 3 * rows + 2) if p >= 1})


def assert_cov_within_se(samples, exact, z=4.0, slack=0.0):
    estimate, se = CrossMoments().add(samples).finish()
    gap = np.abs(estimate - np.asarray(exact))
    bound = z * se + slack
    assert np.all(gap <= bound), (
        f"max gap {gap.max():.4g} exceeds {z} SE bound {bound.min():.4g}"
    )


hursts = st.sampled_from([0.1, 0.25, 0.5, 0.6, 0.75, 0.9])
times = st.floats(-3.0, 3.0)


class TestFbmCov:
    @given(hursts, times, times)
    def test_symmetry_and_variance(self, hurst, s, t):
        assert fbm_cov(s, t, hurst) == pytest.approx(fbm_cov(t, s, hurst))
        assert fbm_cov(t, t, hurst) == pytest.approx(abs(t) ** (2 * hurst))
        assert fbm_cov(0.0, t, hurst) == 0.0

    @given(hursts, times, times)
    def test_increment_variance(self, hurst, s, t):
        var = (
            fbm_cov(t, t, hurst)
            - 2 * fbm_cov(s, t, hurst)
            + fbm_cov(s, s, hurst)
        )
        assert var == pytest.approx(abs(t - s) ** (2 * hurst), abs=1e-12)

    @given(st.floats(0.01, 3.0), st.floats(0.01, 3.0))
    def test_brownian_case(self, s, t):
        assert fbm_cov(s, t, 0.5) == pytest.approx(min(s, t))
        # Two-sided Brownian motion has independent halves.
        assert fbm_cov(-s, t, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_matrix_agrees_and_is_psd(self):
        grid = np.array([-2.0, -0.5, 0.25, 1.0, 3.0])
        for hurst in (0.25, 0.75):
            mat = fbm_cov_matrix(grid, hurst)
            for i, s in enumerate(grid):
                for j, t in enumerate(grid):
                    assert mat[i, j] == fbm_cov(s, t, hurst)
            _, jitter = cholesky_with_jitter(mat)
            assert jitter <= 1e-10

    def test_rejects_bad_hurst(self):
        for bad in (0.0, 1.0, -0.3, 1.7):
            with pytest.raises(ValidationError):
                fbm_cov(1.0, 2.0, bad)
            with pytest.raises(ValidationError):
                fbm_cov_matrix([], bad)

    def test_matrix_rejects_nan_times(self):
        with pytest.raises(ValidationError):
            fbm_cov_matrix([0.5, np.nan], 0.75)

    @pytest.mark.parametrize("hurst", [0.1, 0.5, 0.75, 0.9])
    @pytest.mark.parametrize("signs", ["past", "future", "past-future", "mixed-mixed", "zeros"])
    def test_one_sign_keeps_the_bits_of_the_signed_path(self, signs, hurst):
        # The unsigned path for operands of one sign against the path that
        # signs every entry by s * t; -0.0 and 0.0 count as both signs.
        grid = np.r_[inversion_grid(1 / 128, 1e9)[::7], -0.0, 0.0]
        s, t = {
            "past": (-np.abs(grid), -np.abs(grid)),
            "future": (np.abs(grid), np.abs(grid)[::-1]),
            "past-future": (-np.abs(grid), np.abs(grid)),
            "mixed-mixed": (np.r_[grid, -grid], np.r_[-grid, grid]),
            "zeros": (np.array([-0.0, 0.0]), np.array([0.0, -0.0, 1.0])),
        }[signs]
        for a, b in ((s[:, None], t[None, :]), (t[:, None], s[None, :]), (s[3:4, None], t)):
            got, want = fbm_cov(a, b, hurst), signed_fbm_cov(a, b, hurst)
            assert got.view(np.uint64).tobytes() == want.view(np.uint64).tobytes()
        assert fbm_cov(-0.0, 2.0, hurst) == signed_fbm_cov(-0.0, 2.0, hurst) == 0.0
        assert fbm_cov(-1.5, -0.5, hurst) == signed_fbm_cov(-1.5, -0.5, hurst)

    def test_matrix_by_panels_is_the_broadcast_bit_for_bit(self):
        # 585 unsorted times of both signs and 0: eleven row panels of 56 rows.
        times = make_rng(3).permutation(np.r_[-inversion_grid(1 / 128, 1e9)[::2],
                                              inversion_grid(1 / 128, 1e9)[::2], 0.0])
        for hurst in (0.1, 0.5, 0.9):
            broadcast = fbm_cov(times[:, None], times[None, :], hurst)
            assert np.array_equal(fbm_cov_matrix(times, hurst), broadcast)


class TestFgnAutocov:
    @given(hursts, st.floats(0.05, 4.0), st.integers(0, 12))
    def test_matches_increment_covariance(self, hurst, dt, lag):
        gam = fgn_autocov(lag + 1, hurst, dt)
        # Cov of increments B_{(k+1)dt} - B_{k dt} and B_dt - B_0.
        k = lag
        direct = (
            fbm_cov((k + 1) * dt, dt, hurst)
            - fbm_cov(k * dt, dt, hurst)
            - fbm_cov((k + 1) * dt, 0.0, hurst)
            + fbm_cov(k * dt, 0.0, hurst)
        )
        assert gam[-1] == pytest.approx(direct, rel=1e-9, abs=1e-12)

    def test_matches_mpmath_to_lag_2_pow_24(self):
        # The float second difference was off by 1.3e-3 at lag 2^20 - 1, H = 0.1.
        lags = sorted({0, 1, 2, 3, 4, 5, 7, 10, 100}
                      | {2**p + d for p in range(4, 25) for d in (-1, 0, 1)} - {2**24 + 1})
        worst = 0.0
        with mpmath.workdps(50):
            for hurst in np.arange(1, 200) * 0.005:
                got = _fgn_unit_autocov(np.array(lags), hurst)
                a = 2 * mpmath.mpf(hurst)
                for k, value in zip(lags, got):
                    ref = ((k + 1) ** a - 2 * mpmath.mpf(k) ** a + abs(k - 1) ** a) / 2
                    if ref == 0:  # H = 1/2, k >= 1
                        assert value == 0.0
                    else:
                        worst = max(worst, float(abs(value / ref - 1)))
        assert worst <= 1e-14
        gam = fgn_autocov(4097, 0.3, 0.5)
        assert np.array_equal(gam, 0.5**0.6 * _fgn_unit_autocov(np.arange(4097), 0.3))

    def test_lag_zero_and_sign(self):
        assert fgn_autocov(1, 0.3, 0.5)[0] == pytest.approx(0.5**0.6)
        assert fgn_autocov(2, 0.25, 1.0)[1] < 0  # antipersistent
        assert fgn_autocov(2, 0.75, 1.0)[1] > 0  # persistent
        assert fgn_autocov(2, 0.5, 1.0)[1] == pytest.approx(0.0, abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValidationError):
            fgn_autocov(0, 0.5)
        with pytest.raises(ValidationError):
            fgn_autocov(4, 0.5, dt=0.0)
        with pytest.raises(ValidationError):
            fgn_autocov(4, 1.5)

    def test_rejects_infinite_dt(self):
        with pytest.raises(ValidationError):
            fgn_autocov(4, 0.25, dt=np.inf)


class TestLevyCov:
    def test_frozen_values(self):
        for (hurst, s, t), expected in LEVY_COV_FROZEN.items():
            ctx = make_context(hurst)
            got = levy_cov(s, t, ctx)
            assert got == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("s,t", LEVY_ORACLE_PAIRS)
    def test_matches_mpmath_across_the_hurst_range(self, s, t):
        worst = max(
            (
                abs(levy_cov(s, t, make_context(h)) / float(levy_cov_mpmath(h, s, t)) - 1),
                h,
            )
            for h in LEVY_ORACLE_HURSTS
        )
        assert worst[0] <= 1e-12, f"rel error {worst[0]:.3g} at H={worst[1]}"

    @pytest.mark.parametrize("hurst", [1e-5, 1e-6])
    def test_below_h_1e_4_the_error_stays_within_its_stated_growth(self, hurst):
        # The connection form's two terms grow like 1/(2H); the docstring
        # bounds the relative error there by 2^-52 / (2H).
        ctx = make_context(hurst)
        worst = max(
            abs(levy_cov(s, t, ctx) / float(levy_cov_mpmath(hurst, s, t)) - 1)
            for s, t in LEVY_ORACLE_PAIRS
        )
        assert worst <= 2.0**-52 / (2.0 * hurst)

    @pytest.mark.parametrize("hurst", [0.25, 0.75, 0.95])
    def test_matrix_matches_scipy_hyp2f1(self, hurst):
        # The grid that perfbench's mc workload samples.
        ctx = make_context(hurst)
        times = 2.0**-10 * np.arange(1, 1025)
        ref = levy_cov_scipy(ctx, times[:, None], times[None, :])
        rel = np.abs(levy_cov_matrix(times, ctx) / ref - 1.0)
        assert rel.max() <= 2e-13

    @pytest.mark.parametrize("hurst", [0.005, 0.1, 0.25, 0.75, 0.995])
    @pytest.mark.parametrize("s,t", [(1.0, 1.0 + 1e-12), (1.0, 1.0 + 2.0**-10), (0.5, 1.0)])
    def test_mpmath_oracle_matches_the_definition(self, hurst, s, t):
        # Pins Euler's integral itself, which the oracle above shares with the code.
        euler = levy_cov_mpmath(hurst, s, t)
        assert abs(levy_cov_mpmath(hurst, s, t, quad=True) / euler - 1) < 1e-25

    @pytest.mark.parametrize("hurst", [0.25, 0.75])
    @pytest.mark.parametrize(
        "s,t", [(0.5, 1.5), (0.25, 2.0), (1.0, 1.0 + 2.0**-10), (1e-3, 1.0)]
    )
    def test_matches_graded_quadrature(self, hurst, s, t):
        # Closer to the diagonal the graded route itself degrades at H < 1/2
        # (its innermost panel does not resolve x^eta): 1e-10 off at a gap
        # of 1e-7, 2.5e-8 on the diagonal.
        ctx = make_context(hurst)
        assert levy_cov(s, t, ctx) == pytest.approx(levy_cov_graded(ctx, s, t), rel=1e-10)

    @given(
        st.sampled_from(HURST_GRID),
        st.floats(1e-3, 1e3),
        st.floats(1e-3, 1e3),
        st.integers(-30, 30),
    )
    def test_self_similarity(self, hurst, s, t, k):
        # lambda = 2^k scales s and t exactly, so only levy_cov's own error shows.
        ctx = make_context(hurst)
        lam = 2.0**k
        assert levy_cov(lam * s, lam * t, ctx) == pytest.approx(
            lam ** (2 * hurst) * levy_cov(s, t, ctx), rel=1e-12
        )

    def test_symmetry_and_zero_time(self):
        ctx = make_context(0.75)
        assert levy_cov(0.5, 1.5, ctx) == pytest.approx(
            levy_cov(1.5, 0.5, ctx), rel=1e-12
        )
        assert levy_cov(0.0, 1.5, ctx) == 0.0

    def test_diagonal_closed_form(self):
        for hurst in (0.25, 0.6, 0.75):
            ctx = make_context(hurst)
            for t in (0.25, 1.0, 2.0):
                expected = ctx.c1**2 * t ** (2 * hurst) / (2 * hurst)
                assert levy_cov(t, t, ctx) == pytest.approx(expected, rel=1e-12)

    def test_brownian_case_is_min(self):
        ctx = make_context(0.5)
        for s, t in ((0.5, 1.5), (1.0, 1.0), (0.25, 2.0)):
            assert levy_cov(s, t, ctx) == pytest.approx(min(s, t), rel=1e-14)

    def test_matrix_agrees_with_scalar(self):
        ctx = make_context(0.75)
        grid = np.array([0.0, 0.25, 0.5, 1.0, 2.0])
        mat = levy_cov_matrix(grid, ctx)
        assert np.allclose(mat, mat.T, rtol=0, atol=0)
        for i, s in enumerate(grid):
            for j, t in enumerate(grid):
                assert mat[i, j] == pytest.approx(
                    levy_cov(s, t, ctx), rel=1e-14, abs=1e-300
                )
        _, jitter = cholesky_with_jitter(mat[1:, 1:])
        assert jitter <= 1e-10

    @pytest.mark.parametrize("hurst", [0.1, 0.25, 0.75])
    @pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 300])
    def test_matrix_mirrors_the_upper_triangle_bit_for_bit(self, hurst, n):
        # Only row panels from the diagonal on are evaluated, each in one
        # call; the mirrored lower part must equal that evaluation exactly.
        # The series take their term counts from a call's largest ratio, so
        # the whole matrix is the full broadcast evaluation bit for bit when
        # it is one panel, and within 1e-14 relative of it when it is more.
        ctx = make_context(hurst)
        times = np.cumsum(make_rng(n).uniform(0.01, 1.0, n))
        mat = levy_cov_matrix(times, ctx)
        assert np.array_equal(mat.view(np.uint64), mat.T.view(np.uint64))
        panels = list(_row_panels(n, n))
        for rows in panels:
            strip = _levy_integral(ctx, times[rows, None], times[None, rows.start:])
            assert np.array_equal(mat[rows, rows.start:].view(np.uint64), strip.view(np.uint64))
        full = _levy_integral(ctx, times[:, None], times[None, :])
        if len(panels) == 1:
            assert np.array_equal(mat.view(np.uint64), full.view(np.uint64))
        assert np.max(np.abs(mat - full) / np.abs(full)) <= 1.0e-14

    def test_validation(self):
        ctx = make_context(0.75)
        with pytest.raises(ValidationError):
            levy_cov(-0.5, 1.0, ctx)
        with pytest.raises(ValidationError):
            levy_cov_matrix([0.5, 0.25], ctx)
        with pytest.raises(ValidationError):
            levy_cov_matrix([[0.5]], ctx)

    def test_rejects_nan_time(self, ctx75):
        with pytest.raises(ValidationError):
            levy_cov(np.nan, 1.0, ctx75)

    def test_rejects_infinite_time(self, ctx75):
        with pytest.raises(ValidationError):
            levy_cov(1.0, np.inf, ctx75)

    def test_matrix_rejects_nan_times(self, ctx75):
        with pytest.raises(ValidationError):
            levy_cov_matrix([0.5, np.nan], ctx75)


class TestSamplers:
    @pytest.mark.parametrize("n", [2, 3, 64, 16384])
    @pytest.mark.parametrize("hurst", [0.005, 0.25, 0.75, 0.995])
    def test_half_spectrum_transform_matches_the_full_fft(self, n, hurst):
        lam = _fgn_eigenvalues(fgn_autocov(n, hurst, 1.0))
        assert lam.size == 2 * (n - 1)
        normals = make_rng(n).standard_normal((16, lam.size))
        want = fgn_from_normals_full_fft(lam, normals, n)
        got = _fgn_from_normals(lam, normals, n)  # writes over the normals
        assert got.shape == want.shape == (16, n)
        assert np.max(np.abs(got - want)) <= 2.0e-15 * np.max(np.abs(want))

    @pytest.mark.parametrize("n", [2, 3, 17, 1024, 16384])
    def test_circulant_embedding_is_nonnegative_definite(self, n):
        # Perrin et al. 2002: true for every H in (0, 1), so the sampler
        # needs no dense fallback.
        for hurst in (1e-4, 0.001, 0.01, *np.linspace(0.05, 0.95, 19), 0.99, 0.99999):
            assert np.all(_fgn_eigenvalues(fgn_autocov(n, hurst, 1.0)) >= 0.0)

    def test_indefinite_embedding_raises(self):
        with pytest.raises(AccuracyError, match="indefinite"):
            _fgn_eigenvalues(np.array([1.0, -2.0]))

    @pytest.mark.parametrize("hurst", [0.25, 0.75])
    def test_fgn_covariance(self, hurst):
        rng = make_rng(101)
        n, dt, paths = 8, 0.5, 20_000
        x = np.diff(sample_fbm_paths(hurst, n, dt, rng, paths), axis=1)
        assert x.shape == (paths, n)
        gam = fgn_autocov(n, hurst, dt)
        idx = np.arange(n)
        exact = gam[np.abs(idx[:, None] - idx[None, :])]
        assert_cov_within_se(x, exact)

    def test_fgn_single_lag(self):
        rng = make_rng(7)
        x = sample_fbm_paths(0.75, 1, 0.5, rng, 50_000)
        assert np.all(x[:, 0] == 0.0)
        x = x[:, 1:]
        var = float(np.mean(x**2))
        exact = fgn_autocov(1, 0.75, 0.5)[0]
        se = np.std(x.ravel() ** 2) / np.sqrt(x.size)
        assert abs(var - exact) <= 4 * se

    @pytest.mark.parametrize("hurst", [0.25, 0.75])
    def test_fbm_paths_covariance(self, hurst):
        rng = make_rng(202)
        n_steps, dt, paths = 6, 0.4, 20_000
        x = sample_fbm_paths(hurst, n_steps, dt, rng, paths)
        assert x.shape == (paths, n_steps + 1)
        assert np.all(x[:, 0] == 0.0)
        body = x[:, 1:]
        exact = fbm_cov_matrix(dt * np.arange(1, n_steps + 1), hurst)
        assert_cov_within_se(body, exact)

    # n = 40000 has rows of 79998 normals, more than one block.
    @pytest.mark.parametrize("paths_n", [(p, n) for n in (1, 2, 100, 40000) for p in block_edges(n)])
    @pytest.mark.parametrize("hurst", [0.25, 0.5, 0.75])
    def test_blocked_draw_matches_the_one_shot_draw(self, paths_n, hurst):
        paths, n = paths_n
        rng, ref_rng = make_rng(32), make_rng(32)
        want = np.zeros((paths, n + 1))
        np.cumsum(one_shot_fgn(hurst, n, 0.01, ref_rng, paths), axis=1, out=want[:, 1:])
        got = sample_fbm_paths(hurst, n, 0.01, rng, paths)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        # repr spells out the Philox counter, key and buffer arrays in full.
        assert repr(rng.bit_generator.state) == repr(ref_rng.bit_generator.state)

    @pytest.mark.parametrize("n", [1, 2, 100, 40000])
    def test_fgn_sampler_keeps_the_covmatrix_sample_contract(self, n):
        # dim, and sample(rng, k, out=flat buffer) returning (k, dim) in the
        # buffer's head: the rows of the one-shot draw, bit for bit.
        sampler = FgnSampler(0.3, n, 0.01)
        paths = block_edges(n)[-1]
        ref_rng, rng = make_rng(9), make_rng(9)
        want = one_shot_fgn(0.3, n, 0.01, ref_rng, paths).view(np.uint64)
        buf = np.full(n * paths + 2, np.nan)
        got = sampler.sample(rng, paths, out=buf)
        assert sampler.dim == n and got.shape == (paths, n) and np.shares_memory(got, buf)
        assert np.array_equal(got.view(np.uint64), want) and np.isnan(buf[n * paths:]).all()
        assert repr(rng.bit_generator.state) == repr(ref_rng.bit_generator.state)
        assert np.array_equal(sampler.sample(make_rng(9), paths).view(np.uint64), want)
        with pytest.raises(ValidationError, match="out must be"):
            sampler.sample(make_rng(9), paths, out=np.empty(n * paths - 1))

    def test_draw_holds_little_besides_its_result(self):
        # numpy reports its buffers to tracemalloc.  The one-shot draw peaked
        # at 250 MB here, eight times its result.
        tracemalloc.start()
        try:
            x = sample_fbm_paths(0.75, 4096, 1.0 / 4096, make_rng(7), 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= x.nbytes + 16 * 2**20

    def test_sample_fbm_deterministic(self):
        a = sample_fbm_paths(0.25, 8, 0.5, make_rng(11))
        b = sample_fbm_paths(0.25, 8, 0.5, make_rng(11))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("hurst", [0.25, 0.75])
    def test_levy_paths_covariance(self, hurst):
        ctx = make_context(hurst)
        rng = make_rng(505)
        n_steps, dt, paths = 4, 0.25, 20_000
        x = sample_levy_paths(ctx, n_steps, dt, rng, paths)
        assert np.all(x[:, 0] == 0.0)
        body = x[:, 1:]
        exact = levy_cov_matrix(dt * np.arange(1, n_steps + 1), ctx)
        assert_cov_within_se(body, exact)

    def test_obm_two_sided_covariance(self):
        rng = make_rng(606)
        n_steps, dt, t0 = 8, 0.25, -1.0
        draws = sample_obm(n_steps, dt, rng, t0=t0, paths=5000)
        assert draws.shape == (5000, n_steps + 1)
        grid = t0 + dt * np.arange(n_steps + 1)
        anchor = np.argmin(np.abs(grid))
        assert np.all(draws[:, anchor] == 0.0)
        sign = np.sign(grid)
        exact = np.where(
            sign[:, None] * sign[None, :] > 0,
            np.minimum(np.abs(grid)[:, None], np.abs(grid)[None, :]),
            0.0,
        )
        assert_cov_within_se(draws, exact, slack=1e-12)

    @pytest.mark.parametrize("t0", [0.0, -0.25, -0.5])
    def test_obm_batch_is_the_paths_drawn_one_by_one(self, t0):
        batch = sample_obm(8, 0.25, make_rng(17), t0=t0, paths=5)
        rng = make_rng(17)
        rows = np.concatenate([sample_obm(8, 0.25, rng, t0=t0) for _ in range(5)])
        assert np.array_equal(batch, rows)

    def test_obm_requires_origin_on_grid(self):
        rng = make_rng(1)
        with pytest.raises(ValidationError):
            sample_obm(4, 0.25, rng, t0=0.1)
        with pytest.raises(ValidationError):
            sample_obm(4, 0.25, rng, t0=-0.3)
        with pytest.raises(ValidationError):
            sample_obm(2, 0.25, rng, t0=-1.0)  # grid ends before t = 0
        with pytest.raises(ValidationError):
            sample_obm(4, 0.0, rng)  # no grid without a positive step

    # A row block of 2^16 values is 1, 655 and 65536 rows at these steps.
    @pytest.mark.parametrize("n_steps,paths", [(n, p) for n in (1, 100, 70_000)
                                               for p in {1, 65535 // n, 65536 // n + 1, 3 * (65536 // n) + 2} - {0}])
    def test_blocked_obm_draw_matches_the_one_shot_draw(self, n_steps, paths):
        dt = 0.125
        t0 = -dt * (n_steps // 2)
        ref_rng, rng = make_rng(41), make_rng(41)
        want = np.zeros((paths, n_steps + 1))
        np.cumsum(np.sqrt(dt) * ref_rng.standard_normal((paths, n_steps)), axis=1, out=want[:, 1:])
        idx = n_steps // 2
        want -= want[:, [idx]]
        want[:, idx] = 0.0
        got = sample_obm(n_steps, dt, rng, t0=t0, paths=paths)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert repr(rng.bit_generator.state) == repr(ref_rng.bit_generator.state)

    @pytest.mark.parametrize("paths", [1, 4097, 9000])
    def test_levy_draw_is_the_transposed_sample(self, paths):
        ctx = make_context(0.25)
        ref_rng, rng = make_rng(43), make_rng(43)
        times = 0.125 * np.arange(1, 33)
        want = np.zeros((paths, 33))
        want[:, 1:] = CovMatrix(levy_cov_matrix(times, ctx)).sample(ref_rng, paths)
        got = sample_levy_paths(ctx, 32, 0.125, rng, paths)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert repr(rng.bit_generator.state) == repr(ref_rng.bit_generator.state)

    def test_obm_and_levy_draws_hold_little_besides_their_result(self):
        # The one-shot obm draw held its normals, their scaled copy and the
        # result (49 MB here); the Levy sampler copied the draw into a new
        # result (41 MB).  Each now holds its result, one block of normals
        # or of product columns (at most 8191 wide) and small arrays.
        def peak_of(draw):
            tracemalloc.start()
            try:
                x = draw()
                return tracemalloc.get_traced_memory()[1] - x.nbytes
            finally:
                tracemalloc.stop()

        assert peak_of(lambda: sample_obm(4096, 1.0 / 4096, make_rng(7), paths=500)) \
            <= 4 * 2**20
        n = 128
        assert peak_of(lambda: sample_levy_paths(make_context(0.25), n, 1.0 / n,
                                                 make_rng(7), 20_000)) \
            <= 8 * n * 8191 + 4 * 2**20


class TestJointWZ:
    def test_cross_cov_brownian_identities(self):
        ctx = make_context(0.5)
        for s, t in ((0.5, 1.5), (1.5, 0.5), (2.0, 2.0)):
            assert cross_cov_wz(ctx, s, t) == pytest.approx(min(s, t))
        # Driver past is independent of the driven process's future values.
        assert cross_cov_wz(ctx, -1.0, 2.0) == pytest.approx(0.0, abs=1e-12)
        assert cross_cov_wz(ctx, -1.0, -0.5) == pytest.approx(0.5)
        assert cross_cov_wz(ctx, -0.25, -2.0) == pytest.approx(0.25)

    @pytest.mark.parametrize("hurst", [0.25, 0.75])
    def test_cross_cov_vs_quadrature(self, hurst):
        # Independent oracle: Cov(W_s, Z_t) as a sign-carrying integral of
        # the moving-average kernel over the driver increment window.
        ctx = make_context(hurst)
        eta = ctx.eta

        def kernel(u, t):
            lead = (t - u) ** eta if t > u else 0.0
            lag = (-u) ** eta if u < 0 else 0.0
            return lead - lag

        for s, t in ((0.75, 1.5), (1.5, 0.75), (-0.5, 1.0), (-2.0, 0.5)):
            lo, hi = min(s, 0.0), max(s, 0.0)
            val, err = scipy_integrate.quad(
                kernel, lo, hi, args=(t,), limit=300, points=[0.0, t]
            )
            expected = np.sign(s) * ctx.c1 * val
            assert cross_cov_wz(ctx, s, t) == pytest.approx(
                expected, rel=1e-7, abs=1e-10
            )

    def test_joint_cov_blocks(self):
        ctx = make_context(0.75)
        w_times = np.array([-1.0, -0.25, -0.25])
        z_times = np.array([-0.5, -0.125])
        mat = joint_cov(ctx, w_times, z_times)
        assert mat.shape == (5, 5)
        assert np.array_equal(mat, mat.T)
        assert np.allclose(
            mat[3:, 3:], fbm_cov_matrix(z_times, ctx.hurst)
        )
        assert mat[0, 1] == 0.25 and mat[1, 2] == 0.25  # min(|s|, |t|), ties too
        assert mat[1, 3] == pytest.approx(cross_cov_wz(ctx, -0.25, -0.5))

    def test_cross_cov_refuses_non_finite_times(self):
        ctx = make_context(0.75)
        with pytest.raises(ValidationError, match="finite times"):
            cross_cov_wz(ctx, np.nan, 1.0)
        with pytest.raises(ValidationError, match="finite times"):
            cross_cov_wz(ctx, -1.0, np.inf)

    @pytest.mark.parametrize("w_times,z_times", [
        pytest.param([-1.0, 0.5], [-0.5], id="w of both signs"),
        pytest.param([-1.0], [-0.5, 0.5], id="z of both signs"),
        pytest.param([-1.0], [-0.5, 0.0], id="z at 0"),
        pytest.param([-0.25, -1.0], [-0.5], id="w descending"),
        pytest.param([-1.0], [-0.25, -0.5], id="z descending"),
        pytest.param([-1.0], [-0.5, -0.5], id="z tied"),
        pytest.param([np.nan, -1.0], [-0.5], id="w nan"),
        pytest.param([-1.0], [-0.5, np.nan, -0.25], id="z nan"),
        pytest.param([-np.inf, -1.0], [-0.5], id="w -inf"),
        pytest.param([-1.0], [-0.5, np.inf], id="z inf"),
        pytest.param([], [-0.5], id="w empty"),
        pytest.param([-1.0], [], id="z empty"),
    ])
    def test_joint_images_refuse_all_but_past_windows(self, w_times, z_times):
        with pytest.raises(ValidationError, match="past windows"):
            joint_cov(make_context(0.75), w_times, z_times)

    def test_joint_cov_by_panels_is_the_broadcast_bit_for_bit(self):
        # Past windows, the driver's with ties.
        ctx = make_context(0.25)
        w_times = np.sort(make_rng(4).choice(inversion_grid(1 / 128, 1e7), 400))
        z_times = inversion_grid(1 / 256, 1e7)
        n = w_times.size
        mat = joint_cov(ctx, w_times, z_times)
        assert np.array_equal(mat, joint_wz_cov(ctx, w_times, z_times))
        cross = cross_cov_wz(ctx, w_times[:, None], z_times[None, :])
        assert np.array_equal(mat[:n, n:], cross)
        assert np.array_equal(mat[n:, :n], cross.T)
        assert np.array_equal(mat[n:, n:], fbm_cov(z_times[:, None], z_times[None, :], ctx.hurst))
        assert np.array_equal(mat[:n, :n], np.minimum(np.abs(w_times)[:, None], np.abs(w_times)))

    def test_sample_joint_matches_cov(self):
        # The joint law is a valid covariance: it samples without jitter and
        # the draws reproduce it.
        ctx = make_context(0.75)
        w_times = np.array([-1.0, -0.5])
        z_times = np.array([-1.5, -0.5])
        exact = joint_cov(ctx, w_times, z_times)
        _, jitter = cholesky_with_jitter(exact.copy())
        assert jitter == 0.0
        stacked = CovMatrix(exact.copy()).sample(make_rng(909), 20_000)
        assert_cov_within_se(stacked, exact, slack=1e-12)


def joint_cov(ctx, w_times, z_times):
    """The joint covariance itself: its images under the identity."""
    return joint_wz_image_cov(ctx, w_times, np.eye(np.size(w_times)),
                              z_times, np.eye(np.size(z_times)))


def route_images(name, hurst):
    """``(w_times, w_weights, z_times, z_weights)`` of a route check at its window.

    ``drift validate`` reads the driver route on ``W`` and the kernel route
    on ``Z``, both on the drift window; ``invert`` reads ``W`` at its 16
    recovery times and the inversion of ``Z`` on its window.  A name may
    carry the window's ``--umax`` or ``--dt``.  The weights come straight
    from their builders, past the tail checks that refuse ``drift validate``
    at ``H = 0.9``; at ``H = 1/2``, where the drift weights vanish, the
    drift window takes seeded normal weights.  ``criterion 3`` is the
    images of that criterion's two-window draw (at its ``H = 3/4``).
    """
    if name == "criterion 3":
        return criterion_3_images()
    command, *flags = name.split(" --")
    window = dict(flag.split() for flag in flags)
    ctx = make_context(hurst)
    if command == "drift validate":
        times = inversion_grid(float(window.get("dt", 1.0 / 128)),
                               u_deep=float(window.get("umax", 1.0e7)))
        v_grid, pinned = np.linspace(0.125, 2.0, 16), np.append(times, 0.0)
        if ctx.eta == 0.0:
            draw = make_rng(3).standard_normal((2, 16, times.size))
            return times, draw[0], times, draw[1]
        return (times, _driver_weights(ctx, pinned, v_grid)[:, :-1],
                times, _kernel_weights(ctx, pinned, v_grid)[:, :-1])
    times = inversion_grid(float(window.get("dt", 1.0 / 512)),
                           u_deep=float(window.get("umax", 600.0)))
    t = np.array([times[np.argmin(np.abs(times - ti))] for ti in -np.linspace(1.0, 1.0 / 16, 16)])
    return t, np.eye(16), times, _inversion_weights(ctx, np.append(times, 0.0), t)[:, :-1]


@functools.cache
def criterion_3_images():
    """The images criterion 3 draws, caught on their way to ``joint_wz_image_cov``."""
    caught = []

    def catch(*args):
        caught.append(args[1:])
        raise LookupError

    with mock.patch.object(drift, "joint_wz_image_cov", catch), pytest.raises(LookupError):
        acceptance._criterion_3(0, 1)
    return caught[0]


class TestJointImages:
    @pytest.mark.parametrize("hurst", [0.1, 0.25, 0.75, 0.9])
    @pytest.mark.parametrize("name", ["drift validate", "invert"])
    def test_the_panel_product_is_the_dense_one(self, name, hurst):
        # A C A^T against A @ C @ A.T with C broadcast whole.  Where the
        # routes' sums cancel, a product can only promise its error against
        # the size of its terms, |A| |C| |A|^T: at H = 0.9 invert's is
        # 2.5e-13 of max |A C A^T|, and the dense product is 5e-14 from an
        # extended-precision one there.  The worst here is 2.7e-15.
        ctx = make_context(hurst)
        w_times, a_w, z_times, a_z = route_images(name, hurst)
        got = joint_wz_image_cov(ctx, w_times, a_w, z_times, a_z)
        a = np.zeros((a_w.shape[0] + a_z.shape[0], w_times.size + z_times.size))
        a[:a_w.shape[0], :w_times.size], a[a_w.shape[0]:, w_times.size:] = a_w, a_z
        dense = joint_wz_cov(ctx, w_times, z_times)
        terms = np.abs(a) @ np.abs(dense) @ np.abs(a).T
        assert np.array_equal(got, got.T)
        assert np.max(np.abs(got - a @ dense @ a.T)) <= 1.0e-13 * terms.max()

    @pytest.mark.parametrize("hurst", [0.1, 0.25, 0.5, 0.75, 0.9])
    @pytest.mark.parametrize("name", ["drift validate", "invert", "drift validate --umax 1e12",
                                      "invert --dt 0.25", "criterion 3"])
    def test_the_walk_keeps_the_bits_of_the_full_walk(self, name, hurst):
        # Past windows all, so the past kernels; invert --dt 0.25 snaps its
        # recovery times together and criterion 3's masks leave zero columns.
        ctx = make_context(hurst)
        images = route_images(name, hurst)
        got = joint_wz_image_cov(ctx, *images)
        assert got.view(np.uint64).tobytes() == walked_image_cov(ctx, *images).view(np.uint64).tobytes()

    @pytest.mark.parametrize("hurst", [0.1, 0.25, 0.5, 0.75, 0.9])
    @pytest.mark.parametrize("budget", [64, _PANEL_VALUES])
    def test_the_closed_form_cross_entries_are_cross_cov_wzs(self, hurst, budget, monkeypatch):
        # A past window: at one row per panel (64) the closed-form columns
        # of each row run through its diagonal t == s, at the default budget
        # up to its panel's first time.  With identity weights the images are
        # the entries.
        monkeypatch.setattr(gaussian, "_PANEL_VALUES", budget)
        ctx = make_context(hurst)
        times = inversion_grid(1 / 64, 1e7)[::3]
        n = times.size
        got = joint_wz_image_cov(ctx, times, np.eye(n), times, np.eye(n))[:n, n:]
        want = cross_cov_wz(ctx, times[:, None], times[None, :])
        # The identity product can only turn a -0.0 into 0.0.
        assert (got + 0.0).view(np.uint64).tobytes() == (want + 0.0).view(np.uint64).tobytes()

    def test_it_evaluates_each_entry_once(self, monkeypatch):
        # As the dense fill does: each symmetric block by row panels from its
        # diagonal on.  Of each cross panel of past windows the columns at or
        # below every time of the panel are the closed form, those above
        # every time go through xi's ufuncs (_xi_scaled), and only those
        # between through cross_cov_wz.  No entry goes through fbm_cov.
        sizes = {}

        def counted(name, entries):
            def wrapped(*args, **kwargs):
                out = entries(*args, **kwargs)
                key = name if name != "_xi_scaled" else f"xi {args[0]}"
                sizes[key] = sizes.get(key, 0) + np.size(out)
                return out
            return wrapped

        for name in ("fbm_cov", "cross_cov_wz", "_xi_scaled"):
            monkeypatch.setattr(fbm, name, counted(name, getattr(fbm, name)))
        ctx, p, q = make_context(0.25), 0.5, 0.75

        def cross_columns(w_times, z_times, first, last):
            return sum((r.stop - r.start) * np.count_nonzero((z_times > first(w_times[r]))
                                                             & (z_times <= last(w_times[r])))
                       for r in _row_panels(w_times.size, z_times.size))

        def upper(n):
            return sum((r.stop - r.start) * (n - r.start) for r in _row_panels(n, n))

        for name in ("invert", "drift validate"):
            sizes.clear()
            w_times, a_w, z_times, a_z = route_images(name, 0.25)
            joint_wz_image_cov(ctx, w_times, a_w, z_times, a_z)
            between = cross_columns(w_times, z_times, np.min, np.max)
            above = cross_columns(w_times, z_times, np.max, lambda s: np.inf)
            assert sizes == {f"xi {p}": upper(z_times.size), f"xi {q}": above,
                             "cross_cov_wz": between}
            # The closed form takes every t <= -1 at invert's recovery times
            # (48% of its window) and all but the panels' diagonal squares of
            # the lower half of drift validate's square block (45%).
            assert 1.0 - (between + above) / (w_times.size * z_times.size) > 0.44

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux minor faults")
    def test_a_repeated_walk_faults_in_its_workspace_once(self, run_fresh, tmp_path):
        # The past kernels write every panel into one workspace per call:
        # a repeat on drift validate's default window faults in about 100
        # pages, where the walk with fresh temporaries per panel took 1,562.
        np.savez(tmp_path / "images.npz", *route_images("drift validate", 0.75))
        script = (
            "import resource, numpy as np\n"
            "from fbmkit.context import make_context\n"
            "from fbmkit.fbm import joint_wz_image_cov\n"
            f"images = list(np.load({str(tmp_path / 'images.npz')!r}).values())\n"
            "ctx = make_context(0.75)\n"
            "joint_wz_image_cov(ctx, *images)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "joint_wz_image_cov(ctx, *images)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        proc = run_fresh(script, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 400

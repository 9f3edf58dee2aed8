"""Conditional-prediction routes: kernel, driver, regression, inversion.

The finite-dimensional Gaussian regression is the brute-force oracle for
both integral routes.  The closed-form kernel is checked against its printed
``J``-definition three ways: 50-digit mpmath, scipy's adaptive quadrature,
and the graded three-piece s-quadrature that the library used before the
closed form.
"""

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate as scipy_integrate

from fbmkit.context import make_context, pow0, xi
from fbmkit.drift import (
    DriftKernelSpec,
    conditional_future_cov,
    drift_apply,
    drift_from_obm,
    drift_kernel_value,
    drift_regression,
    drift_tail_sd,
    invert_tail_sd,
    pipiras_taqqu_invert,
    regression_weights,
)
from fbmkit.errors import AccuracyError, ValidationError
from fbmkit.fbm import fbm_cov, fbm_cov_matrix, joint_wz_cov, levy_cov_matrix
from fbmkit.gaussian import cholesky_with_jitter
from fbmkit.grids import SampledPath
from fbmkit.quadrature import DEFAULT_QUAD, graded_breaks, panel_nodes
from fbmkit.rng import make_rng


def exp_past_grid(u_max, per_decade=16, e_min=-7.0):
    """Geometric past observation times from ``-u_max`` up to 0 inclusive."""
    m = int(np.ceil((np.log10(u_max) - e_min) * per_decade))
    exps = np.linspace(e_min, np.log10(u_max), m + 1)
    return np.concatenate([-(10.0**exps)[::-1], [0.0]])


def sample_fbm_past(hurst, times, rng, paths):
    """Rows of fBm values on ``times`` (last entry must be 0, pinned)."""
    t_neg = times[:-1]
    factor, _ = cholesky_with_jitter(fbm_cov_matrix(t_neg, hurst))
    draws = (factor @ rng.standard_normal((t_neg.size, paths))).T
    return np.hstack([draws, np.zeros((paths, 1))])


def rel_l2(a, b):
    return float(np.sqrt(np.mean((a - b) ** 2) / np.mean(b**2)))


def kernel_printed_mpmath(hurst, u, v):
    """``K(u, v)`` from its printed ``J``-definition in 50-digit mpmath.

    ``K = eta c_h (eta integral_{-inf}^0 J ds - v (v - u)^{eta-1} (-u)^{-eta-1})``
    with ``J`` written literally; the float inputs are taken exactly.  The
    digits beyond double precision absorb the cancellation between the two
    ``(-s)^{-eta-1}`` terms of ``J`` at the tanh-sinh nodes next to ``s = 0``.
    """
    mp = mpmath.mp
    with mpmath.workdps(50):
        eta = mp.mpf(hurst) - mp.mpf(0.5)
        u, v = mp.mpf(u), mp.mpf(v)
        c_h = 1 / (mp.gamma(eta + 1) * mp.gamma(1 - eta))
        xi_uv = (v - u) ** (eta - 1) - (-u) ** (eta - 1)

        def j(s):
            out = -xi_uv * ((-s - u) ** (-eta - 1) - (-s) ** (-eta - 1))
            if s > u:
                out += ((s - u + v) ** (eta - 1) - (s - u) ** (eta - 1)) * (
                    (-u) ** (-eta - 1) - (-s) ** (-eta - 1)
                )
            return out

        s_int = mp.quad(j, [-mp.inf, u, u / 2, 0])
        boundary = v * (v - u) ** (eta - 1) * (-u) ** (-eta - 1)
        return float(eta * c_h * (eta * s_int - boundary))


def kernel_three_piece(ctx, u, v):
    """``K(u, v)`` with its inner ``s``-integral by graded Gauss-Legendre.

    The library's route before the closed form, kept as a second oracle.
    The ``s``-integral is split at ``u`` and ``u/2``:

    * on ``(-inf, u)`` the indicator vanishes and the integral has the
      closed form ``-xi_{eta-1}(-u, v) xi_{-eta}(-u, -u) / eta``;
    * on ``[u, u/2]`` the printed grouping of ``J``, graded toward ``u``;
    * on ``[u/2, 0]``, with ``xi_{-eta-1}(-s, s-u) = (-u)^{-eta-1} - (-s)^{-eta-1}``,
      ``J`` is regrouped so that the ``(-s)^{-eta-1}`` blow-up multiplies a
      bracket vanishing linearly at ``s = 0``, graded toward 0.

    Its graded meshes stop resolving the integrand when ``u`` is far from
    the scale of ``v`` (off by 1e-4 relative at ``u = -1e7``, H = 0.02), so
    it serves as an oracle for moderate ``u`` only.
    """
    eta, quad = ctx.eta, DEFAULT_QUAD
    v = np.asarray(v, dtype=float)
    xi_uv = xi(eta - 1.0, -u, v)
    below = -xi_uv * xi(-eta, -u, -u) / eta

    b1 = graded_breaks(u, 0.5 * u, toward="left",
                       ratio=quad.grading_ratio, levels=quad.grading_levels)
    s1, w1 = panel_nodes(b1, quad.nodes_per_panel)
    j1 = (
        xi(eta - 1.0, (s1 - u)[:, None], v[None, :])
        * xi(-eta - 1.0, -s1, s1 - u)[:, None]
        - xi_uv[None, :] * xi(-eta - 1.0, -s1, -u)[:, None]
    )

    b2 = graded_breaks(0.5 * u, 0.0, toward="right",
                       ratio=quad.grading_ratio, levels=quad.grading_levels)
    s2, w2 = panel_nodes(b2, quad.nodes_per_panel)
    bracket = (
        xi(eta - 1.0, -u, s2)[:, None]
        - xi(eta - 1.0, v[None, :] - u, s2[:, None])
    )
    j2 = (
        xi(eta - 1.0, (s2 - u)[:, None], v[None, :]) * pow0(-u, -eta - 1.0)
        - xi_uv[None, :] * pow0(-s2 - u, -eta - 1.0)[:, None]
        + pow0(-s2, -eta - 1.0)[:, None] * bracket
    )
    s_int = below + w1 @ j1 + w2 @ j2
    boundary = v * (v - u) ** (eta - 1.0) * (-u) ** (-eta - 1.0)
    return eta * ctx.c_h * (eta * s_int - boundary)


class TestKernelValue:
    @pytest.mark.parametrize("hurst", [0.25, 0.6, 0.75])
    def test_against_adaptive_quadrature(self, hurst):
        # Brute-force the inner s-integral of the kernel with scipy's
        # adaptive quadrature and assemble K(u, v) from its definition.
        ctx = make_context(hurst)
        kspec = DriftKernelSpec(ctx=ctx)
        eta = ctx.eta

        def integrand(s, u, v):
            lead = (
                xi(eta - 1.0, s - u, v) * xi(-eta - 1.0, -s, s - u)
                if s > u
                else 0.0
            )
            return float(lead - xi(eta - 1.0, -u, v) * xi(-eta - 1.0, -s, -u))

        for u in (-0.5, -3.0):
            for v in (0.4, 1.5):
                pieces = [
                    scipy_integrate.quad(
                        integrand, a, b, args=(u, v), limit=400
                    )[0]
                    for a, b in ((-np.inf, u), (u, u / 2), (u / 2, 0.0))
                ]
                s_int = sum(pieces)
                brute = (
                    eta
                    * ctx.c_h
                    * (
                        eta * s_int
                        - v * (v - u) ** (eta - 1.0) * (-u) ** (-eta - 1.0)
                    )
                )
                got = float(drift_kernel_value(kspec, u, np.array([v]))[0])
                assert got == pytest.approx(brute, rel=1e-6)

    @pytest.mark.parametrize("hurst", [0.02, 0.05, 0.1, 0.25, 0.75, 0.95])
    def test_against_mpmath_at_extreme_nodes(self, hurst):
        # The deepest past node of the default CLI grid, a mid-range node and
        # the innermost graded node, where v / (-u) reaches 1.2e21.
        kspec = DriftKernelSpec(ctx=make_context(hurst))
        for u, v in ((-1.0e7, 0.125), (-1.0e-3, 1.0), (-1.7e-21, 2.0)):
            got = float(drift_kernel_value(kspec, u, v)[0])
            assert got == pytest.approx(
                kernel_printed_mpmath(hurst, u, v), rel=1e-12, abs=0.0
            ), (u, v)

    @pytest.mark.parametrize("hurst", [0.1, 0.25, 0.6, 0.75, 0.9])
    def test_against_three_piece_quadrature(self, hurst):
        ctx = make_context(hurst)
        kspec = DriftKernelSpec(ctx=ctx)
        v = np.array([0.125, 0.5, 1.0, 2.0])
        for u in (-100.0, -1.0, -0.01):
            assert np.allclose(
                drift_kernel_value(kspec, u, v),
                kernel_three_piece(ctx, u, v),
                rtol=1e-7, atol=0.0,
            ), u

    @given(
        hurst=st.floats(0.01, 0.99).filter(lambda h: h != 0.5),
        log_u=st.floats(-8.0, 8.0),
        log_v=st.floats(-8.0, 8.0),
        log_lam=st.floats(-3.0, 3.0),
    )
    def test_self_similarity(self, hurst, log_u, log_v, log_lam):
        # K(lambda u, lambda v) = K(u, v) / lambda.
        kspec = DriftKernelSpec(ctx=make_context(hurst))
        u, v, lam = -(10.0**log_u), 10.0**log_v, 10.0**log_lam
        scaled = float(drift_kernel_value(kspec, lam * u, lam * v)[0])
        base = float(drift_kernel_value(kspec, u, v)[0])
        assert scaled == pytest.approx(base / lam, rel=1e-12, abs=0.0)

    def test_broadcasts_over_u_and_v(self):
        kspec = DriftKernelSpec(ctx=make_context(0.3))
        u = -np.geomspace(1e-6, 1e3, 7)
        v = np.array([0.25, 1.0, 4.0])
        grid = drift_kernel_value(kspec, u, v[:, None])
        assert grid.shape == (3, 7)
        for j, uj in enumerate(u):
            assert np.array_equal(grid[:, j], drift_kernel_value(kspec, uj, v))
        zero = drift_kernel_value(DriftKernelSpec(ctx=make_context(0.5)), u, v[:, None])
        assert zero.shape == (3, 7) and not zero.any()

    def test_validation(self):
        kspec = DriftKernelSpec(ctx=make_context(0.75))
        with pytest.raises(ValidationError):
            drift_kernel_value(kspec, 0.0, 1.0)
        with pytest.raises(ValidationError):
            drift_kernel_value(kspec, np.array([-1.0, 0.5]), 1.0)
        with pytest.raises(ValidationError):
            drift_kernel_value(kspec, -1.0, np.array([1.0, 0.0]))


class TestRegression:
    def test_weights_match_normal_equations(self):
        past_times = np.array([-2.0, -1.25, -0.5, -0.125])
        v_grid = np.array([0.25, 1.0])
        for hurst in (0.25, 0.75):
            cpp = fbm_cov_matrix(past_times, hurst)
            cpv = fbm_cov(past_times[:, None], v_grid[None, :], hurst)
            expected = np.linalg.solve(cpp, cpv)
            got = regression_weights(hurst, past_times, v_grid)
            assert np.allclose(got, expected, rtol=1e-9, atol=1e-12)

    def test_drift_regression_applies_weights(self):
        hurst = 0.75
        times = np.array([-2.0, -1.0, -0.5, -0.25, 0.0])
        values = np.array([0.7, -0.3, 0.2, 0.4, 0.0])
        past = SampledPath(times=times, values=values, kind="fBm")
        v_grid = np.array([0.5, 1.0])
        weights = regression_weights(hurst, times[:-1], v_grid)
        expected = weights.T @ values[:-1]
        got = drift_regression(hurst, past, v_grid)
        assert np.allclose(got, expected, rtol=1e-12)

    def test_rejects_nonnegative_past_times(self):
        with pytest.raises(ValidationError):
            regression_weights(0.75, [-1.0, 0.0], [1.0])
        with pytest.raises(ValidationError):
            regression_weights(0.75, [-1.0, 0.5], [1.0])

    def test_conditional_future_cov_properties(self):
        hurst = 0.75
        past_times = -(2.0 ** -np.arange(0.0, 6.0))
        v_grid = np.array([0.25, 0.5, 1.0])
        cov = conditional_future_cov(hurst, past_times, v_grid)
        assert np.allclose(cov, cov.T, atol=1e-12)
        _, jitter = cholesky_with_jitter(cov)
        assert jitter <= 1e-8
        # Conditioning can only reduce marginal variance.
        assert np.all(np.diag(cov) <= v_grid ** (2 * hurst) + 1e-12)

    @pytest.mark.parametrize("hurst", [0.25, 0.75])
    def test_conditional_cov_converges_to_moving_average(self, hurst):
        # As the past observation grid refines and deepens, the residual
        # covariance approaches the one-sided moving-average covariance.
        ctx = make_context(hurst)
        v_grid = np.array([0.25, 0.5, 1.0, 2.0])
        target = levy_cov_matrix(v_grid, ctx)
        errors = []
        for u_max, per_decade in ((10.0, 4), (1.0e4, 16)):
            times = exp_past_grid(u_max, per_decade)[:-1]
            cov = conditional_future_cov(hurst, times, v_grid)
            errors.append(rel_l2(cov, target))
        assert errors[1] < errors[0]
        assert errors[1] < 0.05


class TestDriftRoutes:
    @pytest.mark.parametrize(
        "hurst,u_max", [(0.25, 600.0), (0.75, 1.0e7)]
    )
    def test_kernel_route_matches_regression(self, hurst, u_max):
        # Same observed past, two routes: explicit kernel quadrature versus
        # finite-dimensional Gaussian regression.
        ctx = make_context(hurst)
        kspec = DriftKernelSpec(ctx=ctx)
        times = exp_past_grid(u_max)
        v_grid = np.linspace(0.25, 2.0, 8)
        rng = make_rng(811)
        rows = sample_fbm_past(hurst, times, rng, paths=8)
        pred_k = np.empty((rows.shape[0], v_grid.size))
        pred_r = np.empty_like(pred_k)
        for i, vals in enumerate(rows):
            past = SampledPath(times=times, values=vals, kind="fBm")
            pred_k[i] = drift_apply(kspec, past, v_grid)
            pred_r[i] = drift_regression(hurst, past, v_grid)
        err = rel_l2(pred_k, pred_r)
        assert err < 0.05, f"H={hurst}: kernel vs regression rel L2 {err:.4f}"

    @pytest.mark.parametrize(
        "hurst,u_max", [(0.25, 600.0), (0.75, 1.0e7)]
    )
    def test_driver_route_matches_regression_on_driver(self, hurst, u_max):
        # Oracle for the driver route: regress the driven process's future
        # on the observed driver values with the joint covariance.
        ctx = make_context(hurst)
        kspec = DriftKernelSpec(ctx=ctx)
        times = exp_past_grid(u_max)
        t_neg = times[:-1]
        v_grid = np.linspace(0.25, 2.0, 8)
        joint = joint_wz_cov(ctx, t_neg, v_grid)
        nw = t_neg.size
        ww, wz = joint[:nw, :nw], joint[:nw, nw:]
        factor, _ = cholesky_with_jitter(ww)
        draws = (factor @ make_rng(812).standard_normal((nw, 8))).T
        weights = np.linalg.solve(ww, wz)
        pred_d = np.empty((draws.shape[0], v_grid.size))
        pred_o = draws @ weights
        for i, w_vals in enumerate(draws):
            w_past = SampledPath(
                times=times,
                values=np.concatenate([w_vals, [0.0]]),
                kind="oBm",
            )
            pred_d[i] = drift_from_obm(kspec, w_past, v_grid)
        err = rel_l2(pred_d, pred_o)
        assert err < 0.05, f"H={hurst}: driver vs regression rel L2 {err:.4f}"

    def test_brownian_prediction_is_zero(self):
        ctx = make_context(0.5)
        kspec = DriftKernelSpec(ctx=ctx)
        times = exp_past_grid(10.0, per_decade=4)
        values = np.concatenate([make_rng(3).standard_normal(times.size - 1), [0.0]])
        past = SampledPath(times=times, values=values, kind="fBm")
        v_grid = np.array([0.5, 1.0])
        assert np.array_equal(drift_apply(kspec, past, v_grid), np.zeros(2))
        w_past = SampledPath(times=times, values=values, kind="oBm")
        assert np.array_equal(drift_from_obm(kspec, w_past, v_grid), np.zeros(2))

    def test_tail_estimates_shrink_with_window(self):
        ctx = make_context(0.75)
        kspec = DriftKernelSpec(ctx=ctx)
        tails = [drift_tail_sd(kspec, 1.0, u) for u in (1e2, 1e4, 1e6)]
        assert tails[0] > tails[1] > tails[2] > 0
        inv = [invert_tail_sd(ctx, 1.0, u) for u in (1e2, 1e4, 1e6)]
        assert inv[0] > inv[1] > inv[2] > 0
        assert invert_tail_sd(make_context(0.5), 1.0, 1e2) == 0.0

    def test_short_window_raises(self):
        ctx = make_context(0.75)
        kspec = DriftKernelSpec(ctx=ctx)
        times = exp_past_grid(2.0, per_decade=8)
        values = np.zeros(times.size)
        past = SampledPath(times=times, values=values, kind="fBm")
        with pytest.raises(AccuracyError):
            drift_apply(kspec, past, np.array([2.0]))
        w_past = SampledPath(times=times, values=values, kind="oBm")
        with pytest.raises(AccuracyError):
            drift_from_obm(kspec, w_past, np.array([2.0]))

    def test_validation(self):
        ctx = make_context(0.75)
        kspec = DriftKernelSpec(ctx=ctx)
        times = exp_past_grid(10.0, per_decade=4)
        values = np.zeros(times.size)
        past = SampledPath(times=times, values=values, kind="fBm")
        with pytest.raises(ValidationError):
            drift_apply(kspec, past, np.array([-0.5]))
        with pytest.raises(ValidationError):
            drift_from_obm(kspec, past, np.array([1.0]))  # not an oBm path
        not_ending_at_zero = SampledPath(
            times=times[:-1], values=values[:-1], kind="fBm"
        )
        with pytest.raises(ValidationError):
            drift_apply(kspec, not_ending_at_zero, np.array([1.0]))


class TestInversion:
    def test_brownian_identity(self):
        ctx = make_context(0.5)
        kspec = DriftKernelSpec(ctx=ctx)
        times = exp_past_grid(4.0, per_decade=6)
        values = np.concatenate([make_rng(9).standard_normal(times.size - 1), [0.0]])
        past = SampledPath(times=times, values=values, kind="fBm")
        t_rec = times[times < 0][::5]
        got = pipiras_taqqu_invert(kspec, past, t_rec)
        assert np.allclose(got, past.value_at(t_rec), atol=1e-12)

    @pytest.mark.parametrize("hurst", [0.25, 0.75])
    def test_round_trip_recovers_driver(self, hurst):
        # Draw (driver, driven) jointly, reconstruct the driver from the
        # driven past, and compare with the jointly drawn values.
        ctx = make_context(hurst)
        kspec = DriftKernelSpec(ctx=ctx)
        dt = 1.0 / 512
        from fbmkit.acceptance import inversion_grid

        times = inversion_grid(dt)
        t_neg = times[:-1]
        t_rec = -np.linspace(1.0, 1.0 / 8, 8)
        t_rec = np.array([t_neg[np.argmin(np.abs(t_neg - t))] for t in t_rec])
        factor, _ = cholesky_with_jitter(joint_wz_cov(ctx, t_rec, t_neg))
        rng = make_rng(813)
        paths = 8
        draw = (factor @ rng.standard_normal((t_rec.size + t_neg.size, paths))).T
        w_true, z_obs = draw[:, : t_rec.size], draw[:, t_rec.size :]
        w_rec = np.empty_like(w_true)
        for i in range(paths):
            past = SampledPath(
                times=times,
                values=np.concatenate([z_obs[i], [0.0]]),
                kind="fBm",
            )
            w_rec[i] = pipiras_taqqu_invert(kspec, past, t_rec)
        err = rel_l2(w_rec, w_true)
        assert err < 0.05, f"H={hurst}: inversion rel L2 {err:.4f}"

    def test_zero_time_is_zero(self):
        ctx = make_context(0.75)
        kspec = DriftKernelSpec(ctx=ctx)
        times = exp_past_grid(100.0, per_decade=8)
        values = np.concatenate([make_rng(4).standard_normal(times.size - 1), [0.0]])
        past = SampledPath(times=times, values=values, kind="fBm")
        assert pipiras_taqqu_invert(kspec, past, 0.0) == 0.0

    def test_short_window_raises(self):
        ctx = make_context(0.75)
        kspec = DriftKernelSpec(ctx=ctx)
        times = exp_past_grid(2.0, per_decade=8)
        past = SampledPath(times=times, values=np.zeros(times.size), kind="fBm")
        with pytest.raises(AccuracyError):
            pipiras_taqqu_invert(kspec, past, -1.5)

    def test_validation(self):
        ctx = make_context(0.75)
        kspec = DriftKernelSpec(ctx=ctx)
        times = exp_past_grid(10.0, per_decade=4)
        zeros = np.zeros(times.size)
        past = SampledPath(times=times, values=zeros, kind="fBm")
        with pytest.raises(ValidationError):
            pipiras_taqqu_invert(kspec, past, 0.5)  # future time
        with pytest.raises(ValidationError):
            pipiras_taqqu_invert(kspec, past, times[0] - 1.0)  # before window
        obm = SampledPath(times=times, values=zeros, kind="oBm")
        with pytest.raises(ValidationError):
            pipiras_taqqu_invert(kspec, obm, -1.0)

"""Conditional-prediction routes: kernel, driver, regression, inversion.

The finite-dimensional Gaussian regression is the brute-force oracle for
both integral routes.  The closed-form kernel is checked against its printed
``J``-definition three ways: 50-digit mpmath, scipy's adaptive quadrature,
and the graded three-piece s-quadrature that the library used before the
closed form.  The operators build exact hat-function weights on the samples
once and apply them to a batch of paths in one product.  Those weights are
checked against 40-digit mpmath built from the antiderivatives (``mp.hyp2f1``
for the kernel route); the per-path Gauss-Legendre panel evaluation that
the operators used before stays as a cross-route check at its own measured
error.  Every operator takes strictly negative sample times and pins the
origin itself, so the oracles see each window with ``(0, 0)`` appended.
"""

import re

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate as scipy_integrate

from fbmkit.acceptance import inversion_grid
from fbmkit.context import make_context, pow0, xi
from fbmkit.drift import (
    DriftKernelSpec,
    _driver_weights,
    _inversion_weights,
    _kernel_weights,
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
from fbmkit.quadrature import graded_breaks, panel_nodes
from fbmkit.rng import make_rng

# Gauss-Legendre order of the panel oracles below.
PATH_NODES = 8


def aligned_breaks(times):
    """Panel boundaries on the sample intervals, the last one graded toward its right end.

    The panels the operators integrated on before their weights were exact:
    aligned with the samples, so the interpolant's kinks never fall inside a
    panel, and graded toward the singular end of the window.
    """
    last = graded_breaks(times[-2], times[-1], toward="right")
    return np.concatenate([times[:-2], last])


def exp_past_grid(u_max, per_decade=16, e_min=-7.0):
    """Geometric past observation times from ``-u_max`` up to ``-10^e_min``."""
    m = int(np.ceil((np.log10(u_max) - e_min) * per_decade))
    exps = np.linspace(e_min, np.log10(u_max), m + 1)
    return -(10.0**exps)[::-1]


def sample_fbm_past(hurst, times, rng, paths):
    """Rows of fBm values on the negative ``times``."""
    factor, _ = cholesky_with_jitter(fbm_cov_matrix(times, hurst))
    return (factor @ rng.standard_normal((times.size, paths))).T


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
    eta = ctx.eta
    v = np.asarray(v, dtype=float)
    xi_uv = xi(eta - 1.0, -u, v)
    below = -xi_uv * xi(-eta, -u, -u) / eta

    s1, w1 = panel_nodes(graded_breaks(u, 0.5 * u, toward="left"), PATH_NODES)
    j1 = (
        xi(eta - 1.0, (s1 - u)[:, None], v[None, :])
        * xi(-eta - 1.0, -s1, s1 - u)[:, None]
        - xi_uv[None, :] * xi(-eta - 1.0, -s1, -u)[:, None]
    )

    s2, w2 = panel_nodes(graded_breaks(0.5 * u, 0.0, toward="right"), PATH_NODES)
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
        times = np.array([-2.0, -1.0, -0.5, -0.25])
        values = np.array([0.7, -0.3, 0.2, 0.4])
        v_grid = np.array([0.5, 1.0])
        weights = regression_weights(hurst, times, v_grid)
        expected = weights.T @ values
        got = drift_regression(hurst, times, values, v_grid)
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
            times = exp_past_grid(u_max, per_decade)
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
            pred_k[i] = drift_apply(kspec, times, vals, v_grid)
            pred_r[i] = drift_regression(hurst, times, vals, v_grid)
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
        v_grid = np.linspace(0.25, 2.0, 8)
        joint = joint_wz_cov(ctx, times, v_grid)
        nw = times.size
        ww, wz = joint[:nw, :nw], joint[:nw, nw:]
        factor, _ = cholesky_with_jitter(ww)
        draws = (factor @ make_rng(812).standard_normal((nw, 8))).T
        weights = np.linalg.solve(ww, wz)
        pred_d = np.empty((draws.shape[0], v_grid.size))
        pred_o = draws @ weights
        for i, w_vals in enumerate(draws):
            pred_d[i] = drift_from_obm(kspec, times, w_vals, v_grid)
        err = rel_l2(pred_d, pred_o)
        assert err < 0.05, f"H={hurst}: driver vs regression rel L2 {err:.4f}"

    def test_brownian_prediction_is_zero(self):
        ctx = make_context(0.5)
        kspec = DriftKernelSpec(ctx=ctx)
        times = exp_past_grid(10.0, per_decade=4)
        values = make_rng(3).standard_normal(times.size)
        v_grid = np.array([0.5, 1.0])
        assert np.array_equal(drift_apply(kspec, times, values, v_grid), np.zeros(2))
        assert np.array_equal(drift_from_obm(kspec, times, values, v_grid), np.zeros(2))

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
        with pytest.raises(AccuracyError):
            drift_apply(kspec, times, values, np.array([2.0]))
        with pytest.raises(AccuracyError):
            drift_from_obm(kspec, times, values, np.array([2.0]))

    @pytest.mark.parametrize("hurst,u_short", [(0.25, 2.5), (0.75, 2.5), (0.9, 1e7), (0.95, 1e7)])
    def test_driver_window_error_names_a_sufficient_depth(self, hurst, u_short):
        # The message names the window depth (--umax) that meets the same
        # tail bound; a depth 10% shorter than the named one does not.
        kspec = DriftKernelSpec(ctx=make_context(hurst))
        v_grid = np.linspace(0.125, 2.0, 16)

        def check(u_max):
            times = inversion_grid(1.0 / 128, u_deep=u_max)
            return drift_from_obm(kspec, times, np.zeros(times.size), v_grid)

        with pytest.raises(AccuracyError) as short:
            check(u_short)
        need = float(re.search(r"\(--umax\) of (\S+)$", str(short.value)).group(1))
        assert np.all(check(need) == 0.0)
        with pytest.raises(AccuracyError):
            check(need / 1.1)
        if hurst == 0.9:  # the known limit: far beyond any sampled window
            assert 1e15 < need < 1e17

    def test_validation(self):
        ctx = make_context(0.75)
        kspec = DriftKernelSpec(ctx=ctx)
        times = exp_past_grid(10.0, per_decade=4)
        values = np.zeros(times.size)
        with pytest.raises(ValidationError):
            drift_apply(kspec, times, values, np.array([-0.5]))
        with pytest.raises(ValidationError):
            drift_from_obm(kspec, times, values, np.array([-0.5]))
        # The operators add the origin themselves; a window holding it is refused.
        with_origin = np.append(times, 0.0)
        with pytest.raises(ValidationError, match="strictly negative"):
            drift_apply(kspec, with_origin, np.append(values, 0.0), np.array([1.0]))


@pytest.mark.parametrize("dt", [1e-3, 1.0 / 128, 0.3, 1.1, 1.2, 4.0 / 3.0, 2.0])
@pytest.mark.parametrize("u_deep", [2.5, 600.0, 1.0e7])
def test_inversion_grid_is_a_valid_past_window(dt, u_deep):
    # Strictly increasing, strictly negative, from -u_deep, and uniform with
    # spacing dt on [-2, 0) even where 2 / dt rounds up.
    times = inversion_grid(dt, u_deep=u_deep)
    assert np.all(np.diff(times) > 0) and times[-1] < 0.0
    assert times[0] == pytest.approx(-u_deep, rel=1e-12)
    uniform = times[(times >= -2.0) & (times <= -dt)]
    assert uniform.size >= 1 and np.allclose(np.diff(uniform), dt, rtol=1e-9)


@pytest.mark.parametrize("dt,u_deep", [(0.0, 600.0), (-0.1, 600.0), (3.0, 600.0),
                                       (0.1, 2.0), (0.1, -5.0), (0.1, np.inf)])
def test_inversion_grid_refuses_a_bad_window(dt, u_deep):
    with pytest.raises(ValidationError, match="0 < dt <= 2.0 < u_deep"):
        inversion_grid(dt, u_deep=u_deep)


class TestInversion:
    def test_brownian_identity(self):
        ctx = make_context(0.5)
        kspec = DriftKernelSpec(ctx=ctx)
        times = exp_past_grid(4.0, per_decade=6)
        values = make_rng(9).standard_normal(times.size)
        t_rec = times[::5]
        got = pipiras_taqqu_invert(kspec, times, values, t_rec)
        assert np.allclose(got, values[::5], atol=1e-12)

    @pytest.mark.parametrize("hurst", [0.25, 0.75])
    def test_round_trip_recovers_driver(self, hurst):
        # Draw (driver, driven) jointly, reconstruct the driver from the
        # driven past, and compare with the jointly drawn values.
        ctx = make_context(hurst)
        kspec = DriftKernelSpec(ctx=ctx)
        dt = 1.0 / 512
        times = inversion_grid(dt)
        t_rec = -np.linspace(1.0, 1.0 / 8, 8)
        t_rec = np.array([times[np.argmin(np.abs(times - t))] for t in t_rec])
        factor, _ = cholesky_with_jitter(joint_wz_cov(ctx, t_rec, times))
        rng = make_rng(813)
        paths = 8
        draw = (factor @ rng.standard_normal((t_rec.size + times.size, paths))).T
        w_true, z_obs = draw[:, : t_rec.size], draw[:, t_rec.size :]
        w_rec = np.empty_like(w_true)
        for i in range(paths):
            w_rec[i] = pipiras_taqqu_invert(kspec, times, z_obs[i], t_rec)
        err = rel_l2(w_rec, w_true)
        assert err < 0.05, f"H={hurst}: inversion rel L2 {err:.4f}"

    def test_zero_time_is_zero(self):
        ctx = make_context(0.75)
        kspec = DriftKernelSpec(ctx=ctx)
        times = exp_past_grid(100.0, per_decade=8)
        values = make_rng(4).standard_normal(times.size)
        assert pipiras_taqqu_invert(kspec, times, values, 0.0) == 0.0

    def test_short_window_raises(self):
        ctx = make_context(0.75)
        kspec = DriftKernelSpec(ctx=ctx)
        times = exp_past_grid(2.0, per_decade=8)
        with pytest.raises(AccuracyError):
            pipiras_taqqu_invert(kspec, times, np.zeros(times.size), -1.5)

    def test_validation(self):
        ctx = make_context(0.75)
        kspec = DriftKernelSpec(ctx=ctx)
        times = exp_past_grid(10.0, per_decade=4)
        zeros = np.zeros(times.size)
        with pytest.raises(ValidationError):
            pipiras_taqqu_invert(kspec, times, zeros, 0.5)  # future time
        with pytest.raises(ValidationError):
            pipiras_taqqu_invert(kspec, times, zeros, times[0] - 1.0)  # before window


# ---------------------------------------------------------------------------
# Exact hat weights against 40-digit mpmath
# ---------------------------------------------------------------------------
#
# With F1 an antiderivative of a kernel and F2 one of F1, the weight of
# sample j in integral F1'(s) x(s) ds, for the linear interpolant x of the
# samples, is D_j - D_{j-1} with D_i = (F2(t_{i+1}) - F2(t_i)) / (t_{i+1} - t_i),
# and D_0 - F1(t_0) at the first sample.  The references below evaluate F1
# and F2 in 40-digit mpmath straight from their definitions: powers for the
# driver route and the inversion, and for the kernel route
# B_r(x) = x^r / r 2F1(1, r; r + 1; -x) from mp.hyp2f1, with neither the
# Pfaff form nor the reflection that the library sums.  The differences
# cancel at most 10 of the 40 digits on these grids.

WEIGHT_TOL = 1.0e-11
WEIGHT_TIMES = np.append(inversion_grid(1.0 / 128, u_deep=1.0e7), 0.0)
# Sample times deep, in the uniform window and at the tip, times between
# samples (the last one between the last sample and 0), the first sample
# after the deep tail's last gap, and 0.
WEIGHT_T = np.array([
    WEIGHT_TIMES[0], WEIGHT_TIMES[3], -2.5, -1.99, -1.9921875, -1.0, -0.3,
    -0.01, -3.0e-6, WEIGHT_TIMES[-2], 0.5 * WEIGHT_TIMES[-2], 0.0,
])


def mp_hat_weights(nodes, f1, f2):
    """Hat weights on the mpf ``nodes`` but the last, from ``F1`` and its antiderivative ``F2``."""
    f2_at = [f2(s) for s in nodes]
    means = [(f2_at[i + 1] - f2_at[i]) / (nodes[i + 1] - nodes[i]) for i in range(len(nodes) - 1)]
    return [means[0] - f1(nodes[0])] + [b - a for a, b in zip(means, means[1:])]


def mp_constants(hurst):
    """``(eta, c1, c_h)`` in mpmath at the working precision."""
    h = mpmath.mpf(hurst)
    eta = h - mpmath.mpf(1) / 2
    c1 = mpmath.sqrt(2 * h * mpmath.sin(mpmath.pi * h) * mpmath.gamma(2 * h))
    c1 /= mpmath.gamma(h + 0.5)
    return eta, c1, 1 / (mpmath.gamma(1 + eta) * mpmath.gamma(1 - eta))


def mp_kernel_weights(hurst, times, v):
    """Weights of ``drift_apply`` at ``v`` on the pinned ``times``, but the origin's."""
    with mpmath.workdps(40):
        eta, _, c_h = mp_constants(hurst)
        r, v = -eta, mpmath.mpf(v)

        def b(s, x):  # integral_0^x y^{s-1} / (1 + y) dy
            return x**s / s * mpmath.hyp2f1(1, s, s + 1, -x) if x else mpmath.mpf(0)

        def f2(u):  # x = -u / v, so du = -v dx
            x = -u / v
            return -v * eta * c_h * (x * b(r, x) - b(r + 1, x))

        nodes = [mpmath.mpf(t) for t in times]
        return mp_hat_weights(nodes, lambda u: eta * c_h * b(r, -u / v), f2)


def mp_driver_weights(hurst, times, v):
    """Weights of ``drift_from_obm`` at ``v`` on the pinned ``times``, but the origin's."""
    with mpmath.workdps(40):
        eta, c1, _ = mp_constants(hurst)
        v = mpmath.mpf(v)
        nodes = [mpmath.mpf(t) for t in times]
        return mp_hat_weights(
            nodes,
            lambda s: -c1 * ((v - s) ** eta - (-s) ** eta),
            lambda s: c1 * ((v - s) ** (eta + 1) - (-s) ** (eta + 1)) / (eta + 1),
        )


def mp_inversion_weights(hurst, times, t):
    """Weights of ``pipiras_taqqu_invert`` at ``t`` on the pinned ``times``.

    The printed formula term by term: ``eta (-s)^{-eta-1}`` on ``[t, 0]``,
    ``eta xi_{-eta-1}(t - s, -t)`` against ``Z_s - Z_t`` on ``[t0, t]``, and
    ``(-t)^{-eta} Z_t``, with ``Z_t`` shared by the samples that bracket ``t``.
    """
    with mpmath.workdps(40):
        eta, c1, c_h = mp_constants(hurst)
        q, t = -eta, mpmath.mpf(t)
        nodes = [mpmath.mpf(s) for s in times]
        row = [mpmath.mpf(0)] * len(nodes)
        if t == 0:
            return row
        above = [s for s in nodes if s > t]
        near = mp_hat_weights(
            [t] + above, lambda s: (-s) ** q, lambda s: -((-s) ** (1 + q)) / (1 + q)
        )
        row[len(nodes) - len(above):-1] = near[1:]
        z_t = near[0] + (-t) ** q
        below = [s for s in nodes if s < t]
        if below:
            deep = mp_hat_weights(
                below + [t],
                lambda s: (-s) ** q - (t - s) ** q,
                lambda s: ((t - s) ** (1 + q) - (-s) ** (1 + q)) / (1 + q),
            )
            row[:len(below)] = deep
            z_t -= mpmath.fsum(deep)
        j = max(i for i in range(len(nodes) - 1) if nodes[i] <= t)
        share = (t - nodes[j]) / (nodes[j + 1] - nodes[j])
        row[j] += (1 - share) * z_t
        row[j + 1] += share * z_t
        return [w * c_h / c1 for w in row]


def row_gap(got, want):
    """Largest ``|got - want|`` over the row's largest ``|want|``."""
    want = np.array(want, dtype=float)
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def mp_applied(weights, values):
    """``sum_j w_j x_j`` in mpmath for mpf weights on the pinned samples."""
    with mpmath.workdps(40):
        return float(mpmath.fsum(w * mpmath.mpf(x) for w, x in zip(weights, values)))


@pytest.mark.parametrize(
    "hurst", [0.05, 0.25, 0.499, 0.499999, 0.500001, 0.501, 0.75, 0.95]
)
def test_hat_weights_match_mpmath(hurst):
    # Within 1e-11 of each row's largest weight on the CLI's default grid; the
    # panels they replace reached 8.5e-9 (H = 0.05 driver, H = 0.95 kernel).
    ctx = make_context(hurst)
    for v in (0.125, 2.0):
        for build, reference in ((_kernel_weights, mp_kernel_weights),
                                 (_driver_weights, mp_driver_weights)):
            got = build(ctx, WEIGHT_TIMES, np.array([v]))[0]
            assert got[-1] == 0.0
            assert row_gap(got[:-1], reference(hurst, WEIGHT_TIMES, v)) <= WEIGHT_TOL, (
                build.__name__, v)
    got = _inversion_weights(ctx, WEIGHT_TIMES, WEIGHT_T)
    assert not got[-1].any()
    for row, t in zip(got[:-1], WEIGHT_T[:-1]):
        assert row_gap(row, mp_inversion_weights(hurst, WEIGHT_TIMES, t)) <= WEIGHT_TOL, t


@pytest.mark.parametrize("hurst", [0.25, 0.75])
def test_inversion_after_the_deep_tail_matches_mpmath(hurst):
    # t = -1.9921875 is the first uniform sample after the deep tail's last
    # 0.2-wide gap, which ends 1/128 below it; t = -1.99 lies between samples.
    # Grading only the last interval before t left the panels 7e-4 off here.
    kspec = DriftKernelSpec(ctx=make_context(hurst))
    times = inversion_grid(1.0 / 128, u_deep=1.0e4)
    values = random_rows(times, 1, 915)[0]
    got = pipiras_taqqu_invert(kspec, times, values, [-1.99, -1.9921875])
    pinned, path = pin(times, values)
    for value, t in zip(got, (-1.99, -1.9921875)):
        want = mp_applied(mp_inversion_weights(hurst, pinned, t), path)
        assert value == pytest.approx(want, rel=1e-12, abs=0.0), t


@pytest.mark.parametrize("hurst", [0.499, 0.501])
def test_inversion_at_the_window_ends_and_between_samples(hurst):
    # t = t0 has no interval below it and t = 0 gives W_0 = 0; -0.3 falls
    # between samples.  Near H = 1/2 the tail bound admits t = t0.
    kspec = DriftKernelSpec(ctx=make_context(hurst))
    times = inversion_grid(1.0 / 128, u_deep=1.0e4)
    values = random_rows(times, 1, 916)[0]
    pinned, path = pin(times, values)
    got = pipiras_taqqu_invert(kspec, times, values, [times[0], -0.3, 0.0])
    assert got[2] == 0.0
    scalar = pipiras_taqqu_invert(kspec, times, values, -0.3)
    assert np.ndim(scalar) == 0
    for value, t in ((got[0], times[0]), (got[1], -0.3), (scalar, -0.3)):
        want = mp_applied(mp_inversion_weights(hurst, pinned, t), path)
        assert value == pytest.approx(want, rel=1e-12, abs=0.0), t


@pytest.mark.parametrize("hurst", [0.5, 0.75])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_evaluation_times_are_refused(hurst, bad):
    kspec = DriftKernelSpec(ctx=make_context(hurst))
    times = exp_past_grid(10.0, per_decade=4)
    values = np.zeros(times.size)
    for op in (drift_apply, drift_from_obm):
        with pytest.raises(ValidationError, match="v_grid"):
            op(kspec, times, values, [1.0, bad])
    for t in (bad, [-1.0, bad]):
        with pytest.raises(ValidationError, match="inversion times t"):
            pipiras_taqqu_invert(kspec, times, values, t)


# ---------------------------------------------------------------------------
# Batched operators against the per-path panel evaluation
# ---------------------------------------------------------------------------
#
# Each oracle evaluates one path the way the operators did before their
# weights were exact: Gauss-Legendre panels aligned with the samples, the
# path interpolated at every node.  It sees the window pinned at the origin.
# It returns the value and its rounding scale: the sum of |node weight| times
# |x_j| + |x_{j+1}|, the two samples the node interpolates (np.interp's
# rounding error is a few ulps of those).  A batch must match its rows called
# one by one to BATCH_TOL of that scale.  The panels themselves are a second
# route with their own error: measured against the exact weights on these
# grids it is 1.9e-14 (kernel), 3.1e-15 (driver) and 1.9e-8 (inversion, at
# t = -3e-6, where only the last interval before t is graded) of the scale.

BATCH_TOL = 1.0e-13
PANEL_TOL = {"kernel": BATCH_TOL, "driver": BATCH_TOL, "regression": BATCH_TOL,
             "inversion": 5.0e-8}


def bracket_sizes(times, row, nodes):
    """``|x_j| + |x_{j+1}|`` for the samples bracketing each node."""
    j = np.clip(np.searchsorted(times, nodes, side="right") - 1, 0, times.size - 2)
    return np.abs(row[j]) + np.abs(row[j + 1])


def oracle_drift_apply(kspec, times, row, v_grid):
    nodes, weights = panel_nodes(aligned_breaks(times), PATH_NODES)
    matrix = weights * drift_kernel_value(kspec, nodes, v_grid[:, None])
    value = matrix @ np.interp(nodes, times, row)
    return value, np.abs(matrix) @ bracket_sizes(times, row, nodes)


def oracle_drift_from_obm(kspec, times, row, v_grid):
    ctx = kspec.ctx
    nodes, weights = panel_nodes(aligned_breaks(times), PATH_NODES)
    kernel = xi(ctx.eta - 1.0, -nodes[:, None], v_grid[None, :])
    value = ctx.eta * ctx.c1 * ((weights * np.interp(nodes, times, row)) @ kernel)
    scale = abs(ctx.eta * ctx.c1) * (
        (np.abs(weights) * bracket_sizes(times, row, nodes)) @ np.abs(kernel)
    )
    return value, scale


def oracle_drift_regression(hurst, times, row, v_grid):
    past_times = times[times < 0.0]
    values = np.interp(past_times, times, row)
    weights = regression_weights(hurst, past_times, v_grid)
    return weights.T @ values, np.abs(weights).T @ np.abs(values)


def oracle_invert(kspec, times, row, t_arr):
    ctx = kspec.ctx
    eta = ctx.eta
    prefactor = ctx.c_h / ctx.c1
    out = np.zeros(t_arr.size)
    scale = np.zeros(t_arr.size)
    for i, ti in enumerate(t_arr):
        if ti == 0.0:
            continue
        z_t = np.interp(ti, times, row)
        size_t = bracket_sizes(times, row, np.array([ti]))[0]
        below = times[times < ti]
        i_deep = s_deep = 0.0
        if below.size:
            s_d, w_d = panel_nodes(
                aligned_breaks(np.concatenate([below, [ti]])), PATH_NODES
            )
            k_d = w_d * xi(-eta - 1.0, ti - s_d, -ti)
            i_deep = k_d @ (np.interp(s_d, times, row) - z_t)
            s_deep = np.abs(k_d) @ (bracket_sizes(times, row, s_d) + size_t)
        s_n, w_n = panel_nodes(
            aligned_breaks(np.concatenate([[ti], times[times > ti]])), PATH_NODES
        )
        k_n = w_n * (-s_n) ** (-eta - 1.0)
        i_near = k_n @ np.interp(s_n, times, row)
        s_near = np.abs(k_n) @ bracket_sizes(times, row, s_n)
        out[i] = prefactor * (eta * (i_deep + i_near) + (-ti) ** (-eta) * z_t)
        scale[i] = prefactor * (
            abs(eta) * (s_deep + s_near) + (-ti) ** (-eta) * size_t
        )
    return out, scale


def pin(times, row):
    """The window with the origin and its zero value appended."""
    return np.append(times, 0.0), np.append(row, 0.0)


def oracle_rows(oracle, first, times, rows, grid):
    """Stack the oracle's (value, scale) over the pinned rows of a batch."""
    pairs = [oracle(first, *pin(times, row), grid) for row in rows]
    return np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])


def random_rows(times, paths, seed):
    """Rough random rows: independent normals at the negative ``times``."""
    return make_rng(seed).standard_normal((paths, times.size))


def assert_within_rounding(got, expected, scale, tol=BATCH_TOL):
    assert got.shape == expected.shape
    assert np.all(np.abs(got - expected) <= tol * scale), (
        float(np.max(np.abs(got - expected) / np.maximum(scale, 1e-300)))
    )


DRIFT_TIMES = exp_past_grid(1.0e7)
DRIFT_V = np.linspace(0.125, 2.0, 6)
INVERT_TIMES = inversion_grid(1.0 / 64, u_deep=1.0e4)
# Sample times (deep tail, uniform window, tip), times between samples and 0.
INVERT_T = np.array([
    INVERT_TIMES[INVERT_TIMES < -2.0][-3], -2.5, -1.0, -0.3, -1.0 / 64, -0.01,
    -3.0e-6, INVERT_TIMES[-2], 0.0,
])


# name -> (operator, its per-path oracle, sample times, v or t grid)
BATCH_OPERATORS = {
    "kernel": (drift_apply, oracle_drift_apply, DRIFT_TIMES, DRIFT_V),
    "driver": (drift_from_obm, oracle_drift_from_obm, DRIFT_TIMES, DRIFT_V),
    "regression": (drift_regression, oracle_drift_regression,
                   exp_past_grid(100.0, per_decade=8), DRIFT_V),
    "inversion": (pipiras_taqqu_invert, oracle_invert, INVERT_TIMES, INVERT_T),
}


class TestBatchedOperators:
    @pytest.mark.parametrize("name", sorted(BATCH_OPERATORS))
    @pytest.mark.parametrize("hurst", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("paths,two_d", [(1, False), (1, True), (5, True)])
    def test_matches_per_path_panels_and_row_by_row_calls(self, name, hurst, paths, two_d):
        op, oracle, times, grid = BATCH_OPERATORS[name]
        first = hurst if name == "regression" else DriftKernelSpec(ctx=make_context(hurst))
        rows = random_rows(times, paths, 900 + paths)
        values = rows if two_d else rows[0]
        got = op(first, times, values, grid)
        single = np.array([op(first, times, row, grid) for row in rows])
        if hurst == 0.5 and name != "regression":
            # No drift, and the driver is the process: exact, bit for bit.
            exact = np.zeros((paths, grid.size))
            if name == "inversion":
                exact = np.array([np.interp(grid, *pin(times, row)) for row in rows])
            assert np.array_equal(got, exact if two_d else exact[0])
            assert np.array_equal(single, exact)
            return
        want, scale = oracle_rows(oracle, first, times, rows, grid)
        assert_within_rounding(np.atleast_2d(got), single, scale)
        tol = PANEL_TOL[name]
        assert_within_rounding(got, want if two_d else want[0], scale if two_d else scale[0], tol)
        assert_within_rounding(single, want, scale, tol)

    def test_scalar_time_drops_the_time_axis(self):
        kspec = DriftKernelSpec(ctx=make_context(0.75))
        rows = random_rows(INVERT_TIMES, 3, 907)
        got = pipiras_taqqu_invert(kspec, INVERT_TIMES, rows, -1.0)
        assert got.shape == (3,)
        assert np.array_equal(
            got, pipiras_taqqu_invert(kspec, INVERT_TIMES, rows, np.array([-1.0]))[:, 0]
        )
        assert np.array_equal(pipiras_taqqu_invert(kspec, INVERT_TIMES, rows, 0.0), np.zeros(3))
        half = DriftKernelSpec(ctx=make_context(0.5))
        assert np.array_equal(
            pipiras_taqqu_invert(half, INVERT_TIMES, rows, -1.0),
            [np.interp(-1.0, INVERT_TIMES, row) for row in rows],
        )

    def test_short_window_raises_for_a_batch(self):
        kspec = DriftKernelSpec(ctx=make_context(0.75))
        times = exp_past_grid(2.0, per_decade=8)
        zeros = np.zeros((3, times.size))
        with pytest.raises(AccuracyError):
            drift_apply(kspec, times, zeros, [2.0])
        with pytest.raises(AccuracyError):
            drift_from_obm(kspec, times, zeros, [2.0])
        with pytest.raises(AccuracyError):
            pipiras_taqqu_invert(kspec, times, zeros, -1.5)

    def test_every_row_is_validated(self):
        # One entry check for all four operators: every row must be finite,
        # the batch at most 2-d, non-empty and matched to the times, and the
        # times finite, strictly increasing and strictly negative.
        kspec = DriftKernelSpec(ctx=make_context(0.75))
        times = exp_past_grid(10.0, per_decade=4)
        rows = random_rows(times, 3, 908)
        calls = {
            "kernel": lambda t, x: drift_apply(kspec, t, x, [1.0]),
            "driver": lambda t, x: drift_from_obm(kspec, t, x, [1.0]),
            "regression": lambda t, x: drift_regression(0.75, t, x, [1.0]),
            "inversion": lambda t, x: pipiras_taqqu_invert(kspec, t, x, -1.0),
        }
        bad_rows = []
        for bad in (np.nan, np.inf):
            broken = rows.copy()
            broken[2, 3] = bad
            bad_rows.append((broken, "finite"))
        bad_rows += [
            (rows[None], "shape"),
            (rows[:, :-1], "shape"),
            (np.zeros((0, times.size)), "shape"),
        ]
        bad_times = [
            (np.where(np.arange(times.size) == 2, np.nan, times), "finite"),
            (times[::-1], "increasing"),
            (times - times[-1], "negative"),
            (times + 1.0, "negative"),
            (times[None], "1-d"),
        ]
        for name, call in calls.items():
            for values, match in bad_rows:
                with pytest.raises(ValidationError, match=match):
                    call(times, values)
            for bad, match in bad_times:
                with pytest.raises(ValidationError, match=match):
                    call(bad, rows)

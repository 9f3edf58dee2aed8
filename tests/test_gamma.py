"""Scale-ladder observables: covariance, decay profile, modulus, MC oracle.

Fixed values are frozen from 40-digit arbitrary-precision quadrature of
the defining integrals.  The library sums two one-signed series for the
kernel energy; two mpmath references guard that route independently:

* ``mp.quad`` of the defining integrals (the two-scale covariance, which
  exercises stationarity rather than assuming it, and the covariance of the
  running observable), at a few Hurst values including both sides of 1/2;
* the Mandelbrot-Van Ness split in closed form, through Euler's integral
  for 2F1, at 60 + |log10 r^d| digits over a grid reaching H = 0.005 and
  0.995, lags down to r^d = 1e-299 and windows down to t = 2^-20.

The algebraic variance identity through c1, the discrete-driver Monte Carlo
oracle and the Monte Carlo pair sampler of the running observable are
further independent routes.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from fbmkit.context import make_context, xi
from fbmkit.errors import ValidationError
from fbmkit.gamma import (
    MC_CHUNK,
    MC_PER_DECADE,
    MC_U_MAX,
    GammaConfig,
    c_e,
    decay_bound_check,
    gamma_cov,
    gamma_cov_matrix,
    gamma_mc_implied_cov,
    gammahat_modulus,
    reg_bound_constants,
    reg_gamhat_bound,
    sample_gamma_mc,
    sigma2,
)
from fbmkit.gaussian import cov_standard_errors, estimate_cov
from fbmkit.quadrature import graded_breaks
from fbmkit.rng import make_rng

# Cov(G_0, G_d) frozen from arbitrary-precision quadrature of
# r^(-hurst*d) * integral_0^inf ((x + r^d)^eta - x^eta)((x + 1)^eta - x^eta) dx.
GAMMA_COV_FROZEN = {
    (0.70, 0.5): [
        0.12460725758612934212,
        0.12327028074503486086,
        0.11938149904041548645,
        0.11328198186422480702,
        0.10546510790260650909,
    ],
    (0.75, 0.1): [
        0.20735251809737326927,
        0.18685650448732526718,
        0.14068130567122750954,
        0.093701702780086394282,
        0.057986898527339713555,
    ],
}

SIGMA2_FROZEN = {0.25: 0.3962804694711844148797, 0.75: 0.2073525180973732701549}

# Regression values pinned from an earlier quadrature route.
C_E_FROZEN = {0.25: 2.313923687648483, 0.75: 0.9508532721388789}
REG_CONSTANTS_FROZEN = (0.013311176088281456, 54.598150033144165)

# Hurst values of the quadrature reference, and the grid of the split
# reference with its relative gate.
QUAD_HURSTS = [0.25, 0.4999, 0.5001, 0.75]
SPLIT_HURSTS = [0.005, 0.02, 0.25, 0.4999, 0.5001, 0.75, 0.98, 0.995]
SPLIT_RATIOS = [0.1, 0.5, 0.9]
SPLIT_LAGS = [0, 1, 3, 8, 40]
SPLIT_WINDOWS = [2.0**-k for k in range(21)]
SPLIT_TOL = 1e-12


def cfg_for(hurst, r, **kwargs):
    return GammaConfig(ctx=make_context(hurst), r=r, **kwargs)


def _xi_mp(eta, a, b):
    return (a + b) ** eta - a**eta


def gamma_cov_quad(cfg, i, j):
    """Cov(G_i, G_j) by mp.quad of the two-scale defining integral.

    Integrates xi_eta(x, r^i) xi_eta(x, r^j) over the half-line and
    normalizes by r^(hurst*(i+j)), so stationarity is exercised rather than
    assumed.
    """
    with mp.workdps(30):
        hurst = mp.mpf(cfg.ctx.hurst)
        eta = hurst - mp.mpf(1) / 2
        a, b = mp.mpf(cfg.r) ** i, mp.mpf(cfg.r) ** j
        integral = mp.quad(
            lambda x: _xi_mp(eta, x, a) * _xi_mp(eta, x, b),
            sorted({mp.mpf(0), a, b}) + [mp.inf],
        )
        return float(mp.mpf(cfg.r) ** (-hurst * (i + j)) * integral)


def gammahat_cov_quad(cfg, tau):
    """Cov(Ghat_0, Ghat_tau) for tau >= 0 by mp.quad of its defining integral."""
    with mp.workdps(30):
        eta = mp.mpf(cfg.ctx.hurst) - mp.mpf(1) / 2
        tau = mp.mpf(tau)
        return float(mp.quad(
            lambda x: _xi_mp(eta, x, 1) * _xi_mp(eta, x + tau, 1),
            sorted({mp.mpf(0), tau, mp.mpf(1)}) + [mp.inf],
        ))


def _one_sided(eta, a, c):
    """Integral_0^a y^eta (y + c)^eta dy, from Euler's integral for 2F1."""
    if c == 0:
        return a ** (2 * eta + 1) / (2 * eta + 1)
    return c**eta * a ** (eta + 1) / (eta + 1) * mp.hyp2f1(-eta, eta + 1, eta + 2, -a / c)


def _split_constants(hurst):
    """(eta, c1^-2, sigma2) in mpmath for a float Hurst value."""
    hurst = mp.mpf(hurst)
    inv_c1sq = mp.gamma(hurst + mp.mpf(1) / 2) ** 2 / (
        2 * hurst * mp.sin(mp.pi * hurst) * mp.gamma(2 * hurst)
    )
    return hurst - mp.mpf(1) / 2, inv_c1sq, inv_c1sq - 1 / (2 * hurst)


def gamma_cov_split(cfg, d):
    """Cov(G_0, G_d) = r^(-hurst d) I(r^d, 1) at 60 + |log10 r^d| digits.

    Mandelbrot-Van Ness split: I(a, b) = R(a, b)/c1^2 - P(a, b - a) with
    R the fBm covariance and P the one-sided integral of ``_one_sided``.
    """
    with mp.workdps(60 + int(abs(d * math.log10(cfg.r)))):
        eta, inv_c1sq, _ = _split_constants(cfg.ctx.hurst)
        h2 = 2 * eta + 1
        a = mp.mpf(cfg.r) ** d
        fbm_cov = (a**h2 + 1 - (1 - a) ** h2) / 2
        value = fbm_cov * inv_c1sq - _one_sided(eta, a, 1 - a)
        return float(mp.mpf(cfg.r) ** (-(h2 / 2) * d) * value)


def gammahat_modulus_split(cfg, t):
    """Var(Ghat_t - Ghat_0) = 2 (sigma2 - C(t)) at 60 digits.

    C(t) = gamma(t)/c1^2 - P(1, t) + P(t, 1 - t), with gamma the fGn
    covariance and P the one-sided integral of ``_one_sided``.
    """
    with mp.workdps(60):
        eta, inv_c1sq, sig2 = _split_constants(cfg.ctx.hurst)
        h2 = 2 * eta + 1
        t = mp.mpf(t)
        fgn = ((1 + t) ** h2 + (1 - t) ** h2 - 2 * t**h2) / 2
        cov = fgn * inv_c1sq - _one_sided(eta, 1, t) + _one_sided(eta, t, 1 - t)
        return float(2 * (sig2 - cov))


def sigma2_reference(ctx):
    """Algebraic reduction of Var(G): 1/c1^2 - 1/(2 hurst).

    Follows from expanding the square of the defining kernel: the
    normalization constant c1 satisfies c1^(-2) = 1/(2H) + Integral
    xi_eta(x,1)^2 dx.  Zero exactly at hurst = 1/2.
    """
    return 1.0 / (ctx.c1 * ctx.c1) - 1.0 / (2.0 * ctx.hurst)


def sample_gammahat_pair_mc(cfg, t, rng, n_paths):
    """Monte Carlo draws of (Ghat_0, Ghat_t), t in (0, 1], from shared driver noise.

    Grid in x = -s covers [-t, MC_U_MAX]: the window (-t, 0) uses panels
    graded toward the kernel singularity at x = -t, the common past a
    geometric grid.  Both kernels use exact panel averages, so the pair is
    the conditional mean given the same increments.
    """
    eta = cfg.ctx.eta
    x_min = 1.0e-6 * t
    n_pts = int(math.ceil(math.log10(MC_U_MAX / x_min) * MC_PER_DECADE)) + 1
    past = np.concatenate([[0.0], np.geomspace(x_min, MC_U_MAX, n_pts)])
    # window panels on [-t, 0], graded toward the kernel onset at x = -t
    recent = -graded_breaks(0.0, t, toward="right")[::-1]
    grid = np.concatenate([recent[:-1], past])
    delta = np.diff(grid)

    def panel_avg(b_shift):
        # exact panel averages of x -> xi_eta(x + b_shift, 1)_+; the clamp at
        # zero makes panels outside the kernel support contribute nothing
        z = np.maximum(grid + b_shift, 0.0)
        anti = xi(eta + 1.0, z, 1.0) / (eta + 1.0)
        return np.diff(anti) / delta

    weights = np.stack([panel_avg(0.0), panel_avg(t)], axis=1)
    sd = np.sqrt(delta)
    out = np.empty((n_paths, 2))
    for start in range(0, n_paths, MC_CHUNK):
        stop = min(start + MC_CHUNK, n_paths)
        noise = rng.standard_normal((stop - start, delta.size)) * sd[None, :]
        out[start:stop] = noise @ weights
    return out


class TestGammaCov:
    def test_frozen_lags(self):
        for (hurst, r), expected in GAMMA_COV_FROZEN.items():
            cfg = cfg_for(hurst, r)
            for d, value in enumerate(expected):
                assert gamma_cov(cfg, 0, d) == pytest.approx(value, rel=1e-11)

    def test_sigma2_frozen_and_identity(self):
        for hurst, expected in SIGMA2_FROZEN.items():
            cfg = cfg_for(hurst, 0.5)
            assert sigma2(cfg) == pytest.approx(expected, rel=1e-12)
            # Independent algebraic route through the normalization constant.
            assert sigma2_reference(cfg.ctx) == pytest.approx(expected, rel=1e-9)

    def test_stationarity_and_two_scale_route(self):
        for hurst in QUAD_HURSTS:
            cfg = cfg_for(hurst, 0.5)
            for i, j in ((2, 5), (3, 3), (4, 1), (0, 6)):
                lag_route = gamma_cov(cfg, i, j)
                assert lag_route == gamma_cov(cfg, 0, abs(i - j))
                assert gamma_cov_quad(cfg, i, j) == pytest.approx(lag_route, rel=1e-13), hurst

    @pytest.mark.parametrize("hurst", SPLIT_HURSTS)
    def test_lags_match_split_reference(self, hurst):
        for r in SPLIT_RATIOS:
            cfg = cfg_for(hurst, r)
            assert gamma_cov(cfg, 0, 0) == sigma2(cfg)
            for d in SPLIT_LAGS:
                expected = gamma_cov_split(cfg, d)
                assert gamma_cov(cfg, 0, d) == pytest.approx(expected, rel=SPLIT_TOL), (r, d)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("hurst", [0.005, 0.75, 0.995])
    def test_deepest_lags_match_split_reference(self, hurst):
        # 0.1^300 is the last power of 0.1 above the 1e-300 scale guard.
        cfg = cfg_for(hurst, 0.1)
        for d in (295, 299, 300):
            expected = gamma_cov_split(cfg, d)
            assert gamma_cov(cfg, 0, d) == pytest.approx(expected, rel=SPLIT_TOL), d
        with pytest.raises(ValidationError):
            gamma_cov(cfg, 0, 301)

    def test_near_the_ends_returns_finite_values(self):
        # Near H = 0 and H = 1 the kernel is nearly non-integrable at 0 or
        # at infinity; the series still give finite values, and the variance
        # matches the route through c1.
        grid = np.concatenate([np.arange(1, 10) * 0.005, np.arange(177, 200) * 0.005])
        for hurst in np.round(grid, 3):
            cfg = cfg_for(float(hurst), 0.1)
            values = [gamma_cov(cfg, 0, d) for d in range(4)]
            assert np.all(np.isfinite(values)), hurst
            assert values[0] == pytest.approx(sigma2_reference(cfg.ctx), rel=1e-12), hurst

    def test_brownian_field_vanishes(self):
        cfg = cfg_for(0.5, 0.5)
        assert gamma_cov(cfg, 0, 3) == 0.0
        assert sigma2(cfg) == 0.0
        assert sigma2_reference(cfg.ctx) == pytest.approx(0.0, abs=1e-12)

    def test_matrix_is_toeplitz_and_samplable(self):
        cfg = cfg_for(0.75, 0.5)
        n = 6
        cov = gamma_cov_matrix(cfg, n)
        mat = cov.matrix
        assert np.allclose(mat, mat.T, atol=0)
        lags = np.array([gamma_cov(cfg, 0, d) for d in range(n)])
        idx = np.arange(n)
        assert np.allclose(mat, lags[np.abs(idx[:, None] - idx[None, :])], atol=0)
        draws = cov.sample(make_rng(2), 4)
        assert draws.shape == (4, n)

    def test_threads_do_not_change_values(self):
        cfg = cfg_for(0.75, 0.3)
        a = gamma_cov_matrix(cfg, 5, threads=1).matrix
        b = gamma_cov_matrix(cfg, 5, threads=3).matrix
        assert np.array_equal(a, b)

    def test_config_validation(self):
        ctx = make_context(0.75)
        with pytest.raises(ValidationError):
            GammaConfig(ctx=ctx, r=1.0)
        with pytest.raises(ValidationError):
            GammaConfig(ctx=ctx, r=0.0)
        with pytest.raises(ValidationError):
            GammaConfig(ctx=ctx, r=0.5, n=0)
        cfg = cfg_for(0.75, 0.1)
        with pytest.raises(ValidationError):
            cfg.scale(-1)
        with pytest.raises(ValidationError):
            cfg.scale(400)  # r^400 underflows


class TestDecayProfile:
    @pytest.mark.parametrize(
        "hurst,r", [(0.75, 0.1), (0.75, 0.5), (0.25, 0.1)]
    )
    def test_profile_saturates(self, hurst, r):
        cfg = cfg_for(hurst, r)
        profile = decay_bound_check(cfg, 12)
        assert profile.trend_ok, (
            f"normalized profile still growing: slope {profile.trend_slope:.2e}"
        )
        assert profile.rho[0] == pytest.approx(1.0)
        kappa = 0.5 - abs(hurst - 0.5)
        d = np.arange(profile.rho.size, dtype=float)
        bound = profile.cf_fit * r ** (kappa * d)
        assert np.all(
            np.abs(profile.sigma2 * profile.rho) <= bound * (1 + 1e-9)
        )

    def test_epsilon_is_max_root(self):
        cfg = cfg_for(0.75, 0.5)
        profile = decay_bound_check(cfg, 8)
        d = np.arange(1, profile.rho.size, dtype=float)
        expected = float(np.max(np.abs(profile.rho[1:]) ** (1.0 / d)))
        assert profile.epsilon == pytest.approx(expected, rel=1e-12)
        assert 0.0 < profile.epsilon < 1.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            decay_bound_check(cfg_for(0.75, 0.5), 0)
        with pytest.raises(ValidationError):
            decay_bound_check(cfg_for(0.5, 0.5), 4)


class TestRunningObservable:
    @pytest.mark.parametrize("hurst", QUAD_HURSTS)
    def test_modulus_equals_two_sigma_minus_cov(self, hurst):
        # Var(Ghat_t - Ghat_0) = 2 (Var(Ghat) - Cov(Ghat_0, Ghat_t)) by
        # stationarity; the right side comes from mp.quad.
        cfg = cfg_for(hurst, 0.5)
        sig2 = sigma2(cfg)
        assert gammahat_cov_quad(cfg, 0.0) == pytest.approx(sig2, rel=1e-13)
        for t in (0.25, 0.5, 1.0):
            via_cov = 2.0 * (sig2 - gammahat_cov_quad(cfg, t))
            assert gammahat_modulus(cfg, t) == pytest.approx(via_cov, rel=1e-12)

    @pytest.mark.parametrize("hurst", SPLIT_HURSTS)
    def test_modulus_matches_split_reference(self, hurst):
        cfg = cfg_for(hurst, 0.5)
        for t in SPLIT_WINDOWS:
            expected = gammahat_modulus_split(cfg, t)
            assert gammahat_modulus(cfg, t) == pytest.approx(expected, rel=SPLIT_TOL), t

    @pytest.mark.parametrize("hurst", [0.25, 0.75])
    def test_modulus_bounded_by_c_e(self, hurst):
        cfg = cfg_for(hurst, 0.5)
        const = c_e(cfg)
        assert const == pytest.approx(C_E_FROZEN[hurst], rel=1e-12)
        kappa = min(2.0 * hurst, 1.0)
        for k in range(1, 7):
            t = 2.0**-k
            assert gammahat_modulus(cfg, t) <= const * t**kappa * (1 + 1e-12)

    def test_reg_bound_constants_frozen(self):
        cfg = cfg_for(0.75, 0.1)
        c_a, c_b = reg_bound_constants(cfg)
        assert c_a == pytest.approx(REG_CONSTANTS_FROZEN[0], rel=1e-12)
        assert c_b == pytest.approx(REG_CONSTANTS_FROZEN[1], rel=1e-12)
        assert c_b >= math.exp(c_a) - 1e-12

    def test_reg_bound_scale_invariance(self):
        cfg = cfg_for(0.75, 0.1)
        consts = reg_bound_constants(cfg)
        for i in (1, 3, 5):
            for T in (0.01, 0.05):
                assert reg_gamhat_bound(cfg, i, T, consts) == reg_gamhat_bound(
                    cfg, 0, T / cfg.r**i, consts
                )

    def test_reg_bound_monotone_in_window(self):
        cfg = cfg_for(0.75, 0.1)
        consts = reg_bound_constants(cfg)
        bounds = [reg_gamhat_bound(cfg, 0, T, consts) for T in (0.01, 0.1, 1.0, 10.0)]
        assert all(a < b for a, b in zip(bounds, bounds[1:]))
        assert all(b > 0 for b in bounds)

    def test_validation(self):
        cfg = cfg_for(0.75, 0.5)
        with pytest.raises(ValidationError):
            gammahat_modulus(cfg, 0.0)
        with pytest.raises(ValidationError):
            gammahat_modulus(cfg, 1.5)
        with pytest.raises(ValidationError):
            reg_gamhat_bound(cfg, 0, 0.0, (1.0, 1.0))
        # c_e = 0 on the zero field: the bound has no finite constants.
        with pytest.raises(ValidationError):
            reg_bound_constants(cfg_for(0.5, 0.5))


class TestMonteCarloOracle:
    def test_mc_matches_implied_and_exact_cov(self):
        cfg = cfg_for(0.75, 0.5)
        d_max = 3
        rng = make_rng(314)
        draws = sample_gamma_mc(cfg, d_max, rng, 30_000)
        implied = gamma_mc_implied_cov(cfg, d_max)
        est = estimate_cov(draws)
        se = cov_standard_errors(draws)
        assert np.all(np.abs(est - implied) <= 4.0 * se)
        exact = gamma_cov_matrix(cfg, d_max + 1).matrix
        # The linear estimator is a conditional mean: its variance sits
        # below the exact one, and the discretization deficit is small.
        deficit = exact - implied
        assert np.all(np.diag(deficit) >= -1e-12)
        assert np.max(np.abs(deficit)) <= 0.02 * exact[0, 0]

    def test_pair_mc_matches_modulus(self):
        cfg = cfg_for(0.75, 0.5)
        t = 0.5
        rng = make_rng(315)
        pairs = sample_gammahat_pair_mc(cfg, t, rng, 30_000)
        diff_sq = (pairs[:, 1] - pairs[:, 0]) ** 2
        est = float(diff_sq.mean())
        se = float(diff_sq.std() / np.sqrt(diff_sq.size))
        exact = gammahat_modulus(cfg, t)
        assert abs(est - exact) <= 4.0 * se + 0.02 * exact

    def test_mc_validation(self):
        cfg = cfg_for(0.75, 0.5)
        with pytest.raises(ValidationError):
            sample_gamma_mc(cfg, 2, make_rng(0), 0)

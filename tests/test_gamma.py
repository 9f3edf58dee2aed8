"""Scale-ladder observables: covariance, decay profile, modulus, MC oracle.

Fixed values are frozen from 40-digit arbitrary-precision quadrature of
the defining integrals; dual routes (lag-reduced vs two-scale quadrature,
algebraic variance identity, discrete-driver Monte Carlo) guard each
formula independently.
"""

import math

import numpy as np
import pytest

from fbmkit.context import make_context
from fbmkit.errors import AccuracyError, ValidationError
from fbmkit.gamma import (
    GammaConfig,
    c_e,
    decay_bound_check,
    gamma_cov,
    gamma_cov_direct,
    gamma_cov_matrix,
    gamma_mc_implied_cov,
    gammahat_cov,
    gammahat_modulus,
    reg_bound_constants,
    reg_gamhat_bound,
    sample_gamma_mc,
    sample_gamma_vector,
    sample_gammahat_pair_mc,
    sample_gammahat_path,
    sigma2,
    sigma2_reference,
)
from fbmkit.gaussian import cov_standard_errors, estimate_cov
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

# Regression values pinned from the current quadrature configuration.
C_E_FROZEN = {0.25: 2.313923687648483, 0.75: 0.9508532721388789}
REG_CONSTANTS_FROZEN = (0.013311176088281456, 54.598150033144165)


def cfg_for(hurst, r, **kwargs):
    return GammaConfig(ctx=make_context(hurst), r=r, **kwargs)


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
        cfg = cfg_for(0.75, 0.5)
        for i, j in ((2, 5), (3, 3), (4, 1), (0, 6)):
            lag_route = gamma_cov(cfg, i, j)
            assert lag_route == gamma_cov(cfg, 0, abs(i - j))
            assert gamma_cov_direct(cfg, i, j) == pytest.approx(
                lag_route, rel=1e-9
            )

    def test_near_the_ends_returns_finite_values_or_raises(self):
        # Near H = 0 and H = 1 the half-line quadrature stops resolving its
        # integrand (inf at H = 0.02, NaN at H = 0.98); it must raise
        # AccuracyError there, never return a non-finite value.  Where it
        # succeeds, the variance matches the route through c1.
        grid = np.concatenate([np.arange(1, 10) * 0.005, np.arange(177, 200) * 0.005])
        for hurst in np.round(grid, 3):
            cfg = cfg_for(float(hurst), 0.1)
            try:
                values = [gamma_cov(cfg, 0, d) for d in range(4)]
            except AccuracyError:
                continue
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
        draws = sample_gamma_vector(cfg, n, make_rng(2), 4)
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
    @pytest.mark.parametrize("hurst", [0.25, 0.75])
    def test_modulus_equals_two_sigma_minus_cov(self, hurst):
        # Var(Ghat_t - Ghat_0) = 2 (Var(Ghat) - Cov(Ghat_0, Ghat_t)) by
        # stationarity; both sides are computed by different quadratures.
        cfg = cfg_for(hurst, 0.5)
        sig2 = sigma2(cfg)
        assert gammahat_cov(cfg, 0.0) == pytest.approx(sig2, rel=1e-10)
        for t in (0.25, 0.5, 1.0):
            direct = gammahat_modulus(cfg, t)
            via_cov = 2.0 * (sig2 - gammahat_cov(cfg, t))
            assert direct == pytest.approx(via_cov, rel=1e-8)

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
        for i in (1, 3, 5):
            for T in (0.01, 0.05):
                assert reg_gamhat_bound(cfg, i, T) == reg_gamhat_bound(
                    cfg, 0, T / cfg.r**i
                )

    def test_reg_bound_monotone_in_window(self):
        cfg = cfg_for(0.75, 0.1)
        bounds = [reg_gamhat_bound(cfg, 0, T) for T in (0.01, 0.1, 1.0, 10.0)]
        assert all(a < b for a, b in zip(bounds, bounds[1:]))
        assert all(b > 0 for b in bounds)

    def test_validation(self):
        cfg = cfg_for(0.75, 0.5)
        with pytest.raises(ValidationError):
            gammahat_modulus(cfg, 0.0)
        with pytest.raises(ValidationError):
            gammahat_modulus(cfg, 1.5)
        with pytest.raises(ValidationError):
            gammahat_cov(cfg, -0.25)
        with pytest.raises(ValidationError):
            reg_gamhat_bound(cfg, 0, 0.0)
        with pytest.raises(ValidationError):
            c_e(cfg, k_max=0)


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

    def test_stationary_path_sampler(self):
        cfg = cfg_for(0.75, 0.5)
        t_grid = np.array([0.0, 0.25, 0.5])
        draws = sample_gammahat_path(cfg, t_grid, make_rng(316), 20_000)
        assert draws.shape == (20_000, 3)
        exact = np.empty((3, 3))
        for a in range(3):
            for b in range(3):
                exact[a, b] = gammahat_cov(cfg, abs(t_grid[a] - t_grid[b]))
        est = estimate_cov(draws)
        se = cov_standard_errors(draws)
        assert np.all(np.abs(est - exact) <= 4.0 * se)

    def test_mc_validation(self):
        cfg = cfg_for(0.75, 0.5)
        with pytest.raises(ValidationError):
            sample_gamma_mc(cfg, 2, make_rng(0), 0)
        with pytest.raises(ValidationError):
            sample_gammahat_pair_mc(cfg, 0.0, make_rng(0), 10)
        with pytest.raises(ValidationError):
            sample_gammahat_path(cfg, np.empty(0), make_rng(0), 10)

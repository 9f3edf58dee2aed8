"""Normalized drift observables on a geometric scale ladder and their field law.

For a Hurst context with exponent ``eta = hurst - 1/2`` and a ratio
``r in (0, 1)``, the scale family of drift observables is

    G_i := r^(-hurst*i) * Integral_{x>0} ((x + r^i)^eta - x^eta) dW(-x),

a centered stationary Gaussian sequence: Cov(G_i, G_j) depends only on
d = |i - j| and equals

    r^(-hurst*d) * Integral_{x>0} xi_eta(x, r^d) xi_eta(x, 1) dx,

with xi_eta(a, b) = (a+b)^eta - a^eta.  The covariance decays geometrically,
|Cov| <= c_f * r^((1/2-|eta|) d), which is the input to the almost-diagonal
matrix machinery.  The running-in-time version

    Ghat_t := Integral_{s<=t} xi_eta(t - s, 1) dW(s)

is stationary with Var(Ghat_t - Ghat_0) = O(t^(2 hurst ∧ 1)); the computed
modulus constant c_e feeds an explicit sub-Gaussian bound on
Pr(sup_{t<=T} |Ghat_t - Ghat_0| >= x).

Numerics: everything reduces to the kernel energy J(A) = Integral_0^A phi^2
with phi(u) = xi_eta(u, 1) and its limit sigma2 = J(inf) = Var(G_i), summed
from two series whose terms keep one sign, so they cannot cancel, not even
as eta -> 0 where J = O(eta^2):

* A <= 1: with W = A/(1+A) <= 1/2 and q = W^eta (q - 1 by ``expm1``),
  J(A) = sum_{k>=0} (2 eta + 2)_k / k! * W^(k+1) h_{k+1}, where
  h_n = (q-1)^2/n + 2 eta q (1-q)/(n (n+2 eta)) + 2 eta^2 q/(n (n+eta) (n+2 eta));
* A >= 1: with V = 1/(1+A) <= 1/2, the tail T(A) = Integral_A^inf phi^2 is
  sum_{m>=2} E_m V^(m-1-2 eta)/(m-1-2 eta), where E = beta * beta is the
  self-convolution of the coefficients of 1 - (1-v)^eta = sum_k beta_k v^k
  (beta_1 = eta, beta_k = beta_{k-1} (k-1-eta)/k),

so sigma2 = J(1) + T(1), and J(A) = sigma2 - T(A) for A > 1.  The
Mandelbrot-Van Ness split of the two-sided kernel integral into an fBm
covariance R(a, b) / c1^2 and a one-sided part, together with
2 y^eta (y+c)^eta = y^(2 eta) + (y+c)^(2 eta) - xi_eta(y, c)^2, gives

    Cov(G_0, G_d) = r^(-hurst*d) * (sigma2 R + c^(2 hurst) J(r^d / c) / 2),

with c = 1 - r^d and R = (r^(2 hurst d) + xi_{2 hurst}(c, r^d)) / 2, and

    Var(Ghat_t - Ghat_0) = sigma2 S(t) + (1-t)^(2 hurst) J(t/(1-t))
                           - t^(2 hurst) J(1/t),

with S(t) = 2 t^(2 hurst) + xi_{2 hurst}(1-t, t) - xi_{2 hurst}(1, t), that is
2 - 2 gamma(t) for the fGn covariance gamma (the middle term is 0 at t = 1).

``gamma_cov`` is the one lag route, read by ``decay_bound_check``,
``gamma_cov_matrix`` and ``gamma cov``: sigma2 once, then each lag's closed
form serially (tens of microseconds a lag, less than a thread pool costs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .context import HurstContext, xi
from .errors import AccuracyError, ValidationError
from .fbm import fbm_cov
from .gaussian import CovMatrix, block_edges
from .subgauss import THETA_MIN, subgaussian_constants

__all__ = [
    "GammaConfig",
    "GammaCovariance",
    "gamma_cov",
    "sigma2",
    "decay_bound_check",
    "gammahat_modulus",
    "c_e",
    "reg_bound_constants",
    "reg_gamhat_bound",
    "gamma_cov_matrix",
    "gamma_mc_weights",
    "gamma_mc_implied_cov",
    "sample_gamma_mc",
]

# Depth of the dyadic grid t = 2^-k, k = 1..C_E_LEVELS, that defines c_e.
C_E_LEVELS = 20
# Term indices n = 1..72 of the kernel-energy series.  Their variable never
# exceeds 1/2 and term n is at most about n^2 2^-n times the first, so the
# truncated sums are complete to 1e-18.
_SERIES_N = np.arange(1.0, 73.0)
# Driver grid of the discrete-driver Monte Carlo oracle: geometric points per
# decade of x, its far end, and its near end as a fraction of the smallest
# ladder scale.
MC_PER_DECADE = 48
MC_U_MAX = 1.0e6
MC_X_MIN_FACTOR = 1.0e-3
# Driver-noise values per block of sample_gamma_mc (8 MiB of floats).  It
# fixes bytes: OpenBLAS rounds the products of short blocks differently.
_MC_BLOCK_VALUES = 2**20


@dataclass(frozen=True)
class GammaConfig:
    """Scale-ladder configuration: context and ratio r."""

    ctx: HurstContext
    r: float

    def __post_init__(self) -> None:
        if not (0.0 < self.r < 1.0):
            raise ValidationError(f"r must lie in (0, 1), got {self.r}")

    def scale(self, i: int) -> float:
        """r^i, guarded against underflow."""
        if i < 0:
            raise ValidationError(f"scale index must be >= 0, got {i}")
        val = self.r**i
        if val < 1.0e-300:
            raise ValidationError(f"scale r^{i} underflows for r={self.r}")
        return val


# ---------------------------------------------------------------------------
# Kernel energy J(A) = Integral_0^A xi_eta(u, 1)^2 du
# ---------------------------------------------------------------------------


def _head_energy(eta: float, a: float) -> float:
    """J(a) for 0 < a <= 1, from the series in W = a/(1+a) (module docstring)."""
    w = a / (1.0 + a)
    q_m1 = math.expm1(eta * math.log(w))
    q = 1.0 + q_m1
    n = _SERIES_N
    # (2 eta + 2)_k / k! for k = n - 1
    coef = np.cumprod(np.concatenate(([1.0], (2.0 * eta + 1.0 + n[:-1]) / n[:-1])))
    h = (
        q_m1 * q_m1 / n
        - 2.0 * eta * q * q_m1 / (n * (n + 2.0 * eta))
        + 2.0 * eta * eta * q / (n * (n + eta) * (n + 2.0 * eta))
    )
    return float(np.sum(coef * w**n * h))


def _tail_energy(eta: float, a: float) -> float:
    """Integral_a^inf xi_eta(u, 1)^2 du for a >= 1, from the series in V = 1/(1+a)."""
    v = 1.0 / (1.0 + a)
    k = _SERIES_N[1:]
    beta = np.cumprod(np.concatenate(([eta], (k - 1.0 - eta) / k)))
    e = np.convolve(beta, beta)[: k.size]  # E_m for m = 2..72
    p = k - 1.0 - 2.0 * eta  # m - 1 - 2 eta
    return float(np.sum(e * v**p / p))


def _energy(eta: float, a: float, sig2: float) -> float:
    """J(a) for 0 < a <= inf, given sig2 = J(inf)."""
    if a <= 1.0:
        return _head_energy(eta, a)
    return sig2 - _tail_energy(eta, a)


# ---------------------------------------------------------------------------
# Covariance of the scale ladder
# ---------------------------------------------------------------------------


def sigma2(cfg: GammaConfig) -> float:
    """Var(G_i) (scale-free); exactly 0 at hurst = 1/2, where every term vanishes."""
    eta = cfg.ctx.eta
    return _head_energy(eta, 1.0) + _tail_energy(eta, 1.0)


def gamma_cov(cfg: GammaConfig, n_lags: int) -> np.ndarray:
    """Cov(G_0, G_d) for d = 0..n_lags-1, from one sigma2 in one serial pass.

    The ladder is stationary, so Cov(G_i, G_j) is the entry at d = |i - j|.
    """
    if n_lags < 1:
        raise ValidationError(f"n_lags must be >= 1, got {n_lags}")
    sig2 = sigma2(cfg)
    return np.array([_lag_cov(cfg, d, sig2) for d in range(n_lags)])


def _lag_cov(cfg: GammaConfig, d: int, sig2: float) -> float:
    """Cov(G_0, G_d) given sig2 = sigma2(cfg)."""
    scale = cfg.scale(d)
    if d == 0:
        return sig2
    hurst = cfg.ctx.hurst
    c = 1.0 - scale
    window = 0.5 * c ** (2.0 * hurst) * _energy(cfg.ctx.eta, scale / c, sig2)
    return float(cfg.r ** (-hurst * d) * (sig2 * fbm_cov(scale, 1.0, hurst) + window))


@dataclass(frozen=True)
class GammaCovariance:
    """Covariance profile of the ladder: variance, correlations, decay fit."""

    sigma2: float
    rho: np.ndarray
    cf_fit: float
    qs: np.ndarray  # |cov(d)| * r^(-(1/2-|eta|) d)
    trend_slope: float
    trend_ok: bool

    def __post_init__(self) -> None:
        # rho[0] = 1 and the fitted envelope hold by construction in
        # decay_bound_check; a correlation past 1 can come from roundoff.
        if np.any(np.abs(self.rho) > 1.0 + 1.0e-9):
            raise ValidationError("correlations must lie in [-1, 1]")

    @property
    def epsilon(self) -> float:
        """max over d >= 1 of |rho[d]|^(1/d); 0 if no lags computed."""
        if self.rho.size < 2:
            return 0.0
        d = np.arange(1, self.rho.size, dtype=float)
        vals = np.abs(self.rho[1:]) ** (1.0 / d)
        return float(vals.max())


def decay_bound_check(cfg: GammaConfig, d_max: int) -> GammaCovariance:
    """Covariance profile up to lag d_max with the fitted decay constant.

    The lags are one ``gamma_cov`` pass.  Fits the smallest c_f making
    |cov(d)| <= c_f r^((1/2-|eta|) d) on all computed lags.  The running fit c_f(d) = max_{d' <= d} q_{d'} of the
    normalized profile q_d = |cov(d)| r^(-(1/2-|eta|) d) must saturate rather
    than grow: its mean relative growth per lag over the last quarter of the
    range must either be tiny in absolute terms or collapse to a small
    fraction of the early growth rate.  A misdeclared decay exponent makes
    q_d grow geometrically forever and fails this check.
    """
    if d_max < 1:
        raise ValidationError(f"d_max must be >= 1, got {d_max}")
    if cfg.ctx.eta == 0.0:
        raise ValidationError("profile degenerates at hurst = 1/2 (zero field)")
    covs = gamma_cov(cfg, d_max + 1)
    sig2 = covs[0]
    kappa = 0.5 - abs(cfg.ctx.eta)
    d = np.arange(d_max + 1, dtype=float)
    qs = np.abs(covs) * cfg.r ** (-kappa * d)
    cf_fit = float(qs.max())
    running = np.maximum.accumulate(qs)
    growth = running[1:] / running[:-1] - 1.0
    quarter = max(1, growth.size // 4)
    early = float(growth[:quarter].mean())
    late = float(growth[-quarter:].mean())
    slope = late
    trend_ok = late <= max(2.0e-3, 0.25 * early)
    return GammaCovariance(
        sigma2=float(sig2),
        rho=covs / sig2,
        cf_fit=cf_fit,
        qs=qs,
        trend_slope=slope,
        trend_ok=trend_ok,
    )


# ---------------------------------------------------------------------------
# Running-in-time observable: modulus of continuity constants
# ---------------------------------------------------------------------------


def gammahat_modulus(cfg: GammaConfig, t: float) -> float:
    """Var(Ghat_t - Ghat_0) for t in (0, 1], from the kernel energy (module docstring)."""
    t = float(t)
    if not (0.0 < t <= 1.0):
        raise ValidationError(f"t must lie in (0, 1], got {t}")
    return _modulus(cfg, t, sigma2(cfg))


def _modulus(cfg: GammaConfig, t: float, sig2: float) -> float:
    """Var(Ghat_t - Ghat_0) given sig2 = sigma2(cfg)."""
    eta = cfg.ctx.eta
    h2 = 2.0 * cfg.ctx.hurst
    s = 2.0 * t**h2 + xi(h2, 1.0 - t, t) - xi(h2, 1.0, t)
    window = 0.0 if t == 1.0 else (1.0 - t) ** h2 * _energy(eta, t / (1.0 - t), sig2)
    return float(sig2 * s + window - t**h2 * _energy(eta, 1.0 / t, sig2))


def c_e(cfg: GammaConfig) -> float:
    """Computed modulus constant: sup over t = 2^-k, k = 1..C_E_LEVELS, of modulus/t^(2H∧1).

    A reproducible stand-in for the analytic constant; the dyadic grid is
    part of its definition.
    """
    sig2 = sigma2(cfg)
    kappa = min(2.0 * cfg.ctx.hurst, 1.0)
    best = 0.0
    for k in range(1, C_E_LEVELS + 1):
        t = 2.0**-k
        best = max(best, _modulus(cfg, t, sig2) / t**kappa)
    return best


def reg_bound_constants(cfg: GammaConfig) -> tuple[float, float]:
    """(c_a, c_b) of the sup tail bound: c_a = c_c / c_e, c_b = max(c_d, e^c_a)."""
    if cfg.ctx.eta == 0.0:
        raise ValidationError("sup tail bound degenerates at hurst = 1/2 (zero field, c_e = 0)")
    if cfg.ctx.hurst < THETA_MIN:
        raise ValidationError(f"hurst must be at least {THETA_MIN} (c_d = exp(2/hurst)"
                              f" overflows below it), got {cfg.ctx.hurst}")
    consts = subgaussian_constants(min(cfg.ctx.hurst, 0.5))
    c_a = consts.c_c / c_e(cfg)
    try:
        c_b = max(consts.c_d, math.exp(c_a))
    except OverflowError:  # c_e -> 0 as hurst -> 1/2
        raise AccuracyError(f"sup tail bound: c_b = e^c_a exceeds the float range at"
                            f" c_a = {c_a:.6g}") from None
    return c_a, c_b


def reg_gamhat_bound(
    cfg: GammaConfig, i: int, T: float, constants: tuple[float, float]
) -> float:
    """Tail bound c_b exp(-c_a (r^i / T)^(2H∧1)) on Pr(sup_{t<=T}|Ghat-G| >= 1).

    ``constants`` is ``reg_bound_constants(cfg)``, taken once by the caller
    for any number of windows: c_a = c_c / c_e with c_c the sub-Gaussian
    coefficient at theta = H ∧ 1/2, and c_b = max(c_d, e^(c_a)) so the bound
    also holds for windows longer than the observable's own scale.  Scale
    invariance is exact: bound(i, T) == bound(0, T / r^i) by construction.
    """
    if not 0.0 < T < math.inf:
        raise ValidationError(f"T must be positive and finite, got {T}")
    c_a, c_b = constants
    t_eff = float(T) / cfg.scale(int(i))
    try:
        return c_b * math.exp(-c_a * t_eff ** -min(2.0 * cfg.ctx.hurst, 1.0))
    except OverflowError:  # the power is past the float range: the bound's limit
        return 0.0


# ---------------------------------------------------------------------------
# Exact ladder sampling and Monte Carlo cross-checks
# ---------------------------------------------------------------------------


def gamma_cov_matrix(cfg: GammaConfig, n: int) -> CovMatrix:
    """Exact n x n covariance of (G_0, ..., G_{n-1}) (Toeplitz by lag)."""
    covs = gamma_cov(cfg, n)
    idx = np.arange(n)
    return CovMatrix(covs[np.abs(idx[:, None] - idx[None, :])])


def gamma_mc_weights(cfg: GammaConfig, d_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Panel widths and per-scale mean kernel weights for the driver grid.

    The driver increments live on a geometric grid of x = (distance into the
    past) with ``MC_PER_DECADE`` points per decade from
    ``MC_X_MIN_FACTOR * r^d_max`` to ``MC_U_MAX``; each weight is the exact panel average of the kernel
    xi_eta(x, r^i), from the closed-form antiderivative
    xi_{eta+1}(x, b) / (eta + 1).  The resulting linear estimator is the
    conditional mean of G_i given the discrete increments.
    """
    eta = cfg.ctx.eta
    x_min = MC_X_MIN_FACTOR * cfg.scale(d_max)
    n_pts = int(math.ceil(math.log10(MC_U_MAX / x_min) * MC_PER_DECADE)) + 1
    grid = np.concatenate([[0.0], np.geomspace(x_min, MC_U_MAX, n_pts)])
    delta = np.diff(grid)
    scales = cfg.r ** np.arange(d_max + 1, dtype=float)
    # antiderivative of xi_eta(., b) evaluated on the grid, per scale
    anti = xi(eta + 1.0, grid[:, None], scales[None, :]) / (eta + 1.0)
    avg = np.diff(anti, axis=0) / delta[:, None]
    norm = cfg.r ** (-cfg.ctx.hurst * np.arange(d_max + 1, dtype=float))
    return delta, avg * norm[None, :]


def gamma_mc_implied_cov(cfg: GammaConfig, d_max: int) -> np.ndarray:
    """Covariance the discrete-driver estimator actually has (deterministic).

    Always below the exact covariance in the PSD order; the gap is the
    discretization deficit of the Monte Carlo oracle.
    """
    delta, w = gamma_mc_weights(cfg, d_max)
    return (w * delta[:, None]).T @ w


def sample_gamma_mc(
    cfg: GammaConfig,
    d_max: int,
    rng: np.random.Generator,
    n_paths: int,
) -> np.ndarray:
    """Monte Carlo draws of (G_0, ..., G_{d_max}) from discrete driver noise.

    Independent of the series + Cholesky route: each path draws Gaussian
    driver increments on the geometric grid and applies the panel-average
    kernel weights.  The noise comes from the one stream in row order, a
    block of about ``_MC_BLOCK_VALUES`` values at a time, scaled in place.
    """
    if n_paths < 1:
        raise ValidationError(f"n_paths must be >= 1, got {n_paths}")
    delta, w = gamma_mc_weights(cfg, d_max)
    sd = np.sqrt(delta)
    rows = max(1, _MC_BLOCK_VALUES // delta.size)
    # A short block's product can round differently (OpenBLAS 0.3.31 on
    # Haswell takes another kernel for products of at most 10^6
    # multiply-adds).
    edges = block_edges(n_paths, rows)
    out = np.empty((n_paths, d_max + 1))
    for a, b in zip(edges, edges[1:]):
        noise = rng.standard_normal((b - a, delta.size))
        noise *= sd
        out[a:b] = noise @ w
    return out

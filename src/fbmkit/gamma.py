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

Numerics: all half-line integrals are split at a point beyond the largest
kernel scale; the far field is mapped to a bounded interval by x -> 1/x
(no truncation error), and integrable endpoint singularities are removed
exactly by power substitutions, so the internal mesh-refinement check is
meaningful at every Hurst value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .context import HurstContext, xi
from .errors import ValidationError
from .gaussian import CovMatrix
from .quadrature import (
    CHECKED_NODES,
    geometric_breaks,
    graded_breaks,
    integrate,
    integrate_checked,
)
from .rng import parallel_map
from .subgauss import subgaussian_constants

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
# Driver grid of the discrete-driver Monte Carlo oracle: geometric points per
# decade of x, its far end, and its near end as a fraction of the smallest
# ladder scale; paths are drawn MC_CHUNK at a time to bound the noise block.
MC_PER_DECADE = 48
MC_U_MAX = 1.0e6
MC_X_MIN_FACTOR = 1.0e-3
MC_CHUNK = 20_000


@dataclass(frozen=True)
class GammaConfig:
    """Scale-ladder configuration: context, ratio r, ladder length."""

    ctx: HurstContext
    r: float
    n: int = 1

    def __post_init__(self) -> None:
        if not (0.0 < self.r < 1.0):
            raise ValidationError(f"r must lie in (0, 1), got {self.r}")
        if self.n < 1:
            raise ValidationError(f"n must be >= 1, got {self.n}")

    def scale(self, i: int) -> float:
        """r^i, guarded against underflow."""
        if i < 0:
            raise ValidationError(f"scale index must be >= 0, got {i}")
        val = self.r**i
        if val < 1.0e-300:
            raise ValidationError(f"scale r^{i} underflows for r={self.r}")
        return val


# ---------------------------------------------------------------------------
# Desingularized half-line quadrature
# ---------------------------------------------------------------------------


def _zero_to(f, length, sing_power, *, anchors=(), scale=0.0):
    """Integral of f over [0, length], f ~ x^sing_power near 0 (power > -1).

    The substitution x = w^p with p = 1/(1 + sing_power) removes a negative
    endpoint power exactly; interior scale anchors are transported to the
    w domain and bridged with geometrically growing panels.
    """
    if sing_power <= -1.0:
        raise ValidationError(f"non-integrable endpoint power {sing_power}")
    p = 1.0 if sing_power >= 0.0 else 1.0 / (1.0 + sing_power)

    if p == 1.0:
        g = f
    else:
        def g(w, _f=f, _p=p):
            w = np.asarray(w, dtype=float)
            # For H near 0 or 1, p is large and w**p underflows at the
            # innermost graded nodes; the inf/nan this yields fails
            # integrate_checked.
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                return _f(w**_p) * _p * w ** (_p - 1.0)

    w_end = length ** (1.0 / p)
    w_anchors = [a ** (1.0 / p) for a in anchors if 0.0 < a < length * (1.0 - 1.0e-12)]
    w_anchors.sort()
    first = w_anchors[0] if w_anchors else w_end
    pieces = [graded_breaks(0.0, first, toward="left")]
    prev = first
    for a in w_anchors[1:] + [w_end]:
        if a > prev * (1.0 + 1.0e-12):
            pieces.append(geometric_breaks(prev, a, first_width=prev)[1:])
            prev = a
    breaks = np.concatenate(pieces)
    return integrate_checked(g, breaks, scale=scale)


def _half_line_integral(f, anchors, head_power, tail_power):
    """Integral of f over (0, inf) with interior scale anchors.

    ``head_power``/``tail_power`` are the asymptotic powers of f at 0 and of
    u -> f(1/u)/u^2 at 0; the far field is folded onto [0, 1/X] exactly.
    """
    anchors = sorted(a for a in anchors if a > 0.0)
    if not anchors:
        anchors = [1.0]
    x_split = 4.0 * max(1.0, anchors[-1])

    def f_tail(u, _f=f):
        u = np.asarray(u, dtype=float)
        return _f(1.0 / u) / (u * u)

    rough = integrate(f, graded_breaks(0.0, x_split, toward="left"), CHECKED_NODES)
    hint = abs(rough)
    head = _zero_to(f, x_split, head_power, anchors=anchors, scale=hint)
    tail = _zero_to(f_tail, 1.0 / x_split, tail_power, scale=max(hint, abs(head)))
    return head + tail


# ---------------------------------------------------------------------------
# Covariance of the scale ladder
# ---------------------------------------------------------------------------


def gamma_cov(cfg: GammaConfig, i: int, j: int) -> float:
    """Cov(G_i, G_j); symmetric, a function of d = |i - j| only."""
    d = abs(int(i) - int(j))
    eta = cfg.ctx.eta
    if eta == 0.0:
        return 0.0
    scale = cfg.scale(d)

    def f(x):
        return xi(eta, x, scale) * xi(eta, x, 1.0)

    head_power = 2.0 * eta if eta < 0.0 else 0.0
    integral = _half_line_integral(f, (scale, 1.0), head_power, -2.0 * eta)
    return float(cfg.r ** (-cfg.ctx.hurst * d) * integral)


def sigma2(cfg: GammaConfig) -> float:
    """Var(G_i) (scale-free)."""
    return gamma_cov(cfg, 0, 0)


@dataclass(frozen=True)
class GammaCovariance:
    """Covariance profile of the ladder: variance, correlations, decay fit."""

    sigma2: float
    rho: np.ndarray
    cf_fit: float
    r: float
    hurst: float
    qs: np.ndarray = field(default=None)  # |cov(d)| * r^(-(1/2-|eta|) d)
    trend_slope: float = 0.0
    trend_ok: bool = True

    def __post_init__(self) -> None:
        rho = np.asarray(self.rho, dtype=float)
        object.__setattr__(self, "rho", rho)
        if self.qs is not None:
            object.__setattr__(self, "qs", np.asarray(self.qs, dtype=float))
        if abs(rho[0] - 1.0) > 1.0e-9:
            raise ValidationError(f"rho[0] must be 1, got {rho[0]}")
        if np.any(np.abs(rho) > 1.0 + 1.0e-9):
            raise ValidationError("correlations must lie in [-1, 1]")
        kappa = 0.5 - abs(self.hurst - 0.5)
        d = np.arange(rho.size, dtype=float)
        bound = self.cf_fit * self.r ** (kappa * d)
        if np.any(np.abs(self.sigma2 * rho) > bound * (1.0 + 1.0e-9)):
            raise ValidationError("decay bound violated by fitted constant")

    @property
    def epsilon(self) -> float:
        """max over d >= 1 of |rho[d]|^(1/d); 0 if no lags computed."""
        if self.rho.size < 2:
            return 0.0
        d = np.arange(1, self.rho.size, dtype=float)
        vals = np.abs(self.rho[1:]) ** (1.0 / d)
        return float(vals.max())


def decay_bound_check(cfg: GammaConfig, d_max: int, *, threads: int = 1) -> GammaCovariance:
    """Covariance profile up to lag d_max with the fitted decay constant.

    Fits the smallest c_f making |cov(d)| <= c_f r^((1/2-|eta|) d) on all
    computed lags.  The running fit c_f(d) = max_{d' <= d} q_{d'} of the
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
    covs = np.asarray(
        parallel_map(lambda d: gamma_cov(cfg, 0, d), range(d_max + 1), threads=threads)
    )
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
        r=cfg.r,
        hurst=cfg.ctx.hurst,
        qs=qs,
        trend_slope=slope,
        trend_ok=trend_ok,
    )


# ---------------------------------------------------------------------------
# Running-in-time observable: modulus of continuity constants
# ---------------------------------------------------------------------------


def gammahat_modulus(cfg: GammaConfig, t: float) -> float:
    """Var(Ghat_t - Ghat_0) for t in (0, 1], by direct kernel quadrature."""
    eta = cfg.ctx.eta
    t = float(t)
    if not (0.0 < t <= 1.0):
        raise ValidationError(f"t must lie in (0, 1], got {t}")
    if eta == 0.0:
        return 0.0

    def f_recent(y):  # kernel difference over the window (0, t)
        return xi(eta, y, 1.0) ** 2

    def f_past(x):  # kernel difference over the shared past
        return (xi(eta, 1.0 + x, t) - xi(eta, x, t)) ** 2

    p1 = _zero_to(f_recent, t, 2.0 * eta if eta < 0.0 else 0.0)
    head_power = 2.0 * eta if eta < 0.0 else 0.0
    p2 = _half_line_integral(f_past, (t, 1.0), head_power, 2.0 - 2.0 * eta)
    return float(p1 + p2)


def c_e(cfg: GammaConfig) -> float:
    """Computed modulus constant: sup over t = 2^-k, k = 1..C_E_LEVELS, of modulus/t^(2H∧1).

    A reproducible stand-in for the analytic constant; the dyadic grid is
    part of its definition.
    """
    kappa = min(2.0 * cfg.ctx.hurst, 1.0)
    best = 0.0
    for k in range(1, C_E_LEVELS + 1):
        t = 2.0**-k
        best = max(best, gammahat_modulus(cfg, t) / t**kappa)
    return best


def reg_gamhat_bound(cfg: GammaConfig, i: int, T: float) -> float:
    """Tail bound c_b exp(-c_a (r^i / T)^(2H∧1)) on Pr(sup_{t<=T}|Ghat-G| >= 1).

    c_a = c_c / c_e with c_c the sub-Gaussian coefficient at theta = H ∧ 1/2,
    and c_b = max(c_d, e^(c_a)) so the bound also holds for windows longer
    than the observable's own scale.  Scale invariance is exact:
    bound(i, T) == bound(0, T / r^i) by construction.
    """
    if T <= 0.0:
        raise ValidationError(f"T must be positive, got {T}")
    t_eff = float(T) / cfg.scale(int(i))
    return _reg_bound_scale_free(cfg, t_eff)


def reg_bound_constants(cfg: GammaConfig) -> tuple[float, float]:
    """(c_a, c_b) of the sup tail bound: c_a = c_c / c_e, c_b = max(c_d, e^c_a)."""
    consts = subgaussian_constants(min(cfg.ctx.hurst, 0.5))
    c_a = consts.c_c / c_e(cfg)
    c_b = max(consts.c_d, math.exp(c_a))
    return c_a, c_b


def _reg_bound_scale_free(cfg: GammaConfig, t_eff: float) -> float:
    kappa = min(2.0 * cfg.ctx.hurst, 1.0)
    c_a, c_b = reg_bound_constants(cfg)
    return c_b * math.exp(-c_a * t_eff**-kappa)


# ---------------------------------------------------------------------------
# Exact ladder sampling and Monte Carlo cross-checks
# ---------------------------------------------------------------------------


def gamma_cov_matrix(cfg: GammaConfig, n: int, *, threads: int = 1) -> CovMatrix:
    """Exact n x n covariance of (G_0, ..., G_{n-1}) (Toeplitz by lag)."""
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    covs = np.asarray(
        parallel_map(lambda d: gamma_cov(cfg, 0, d), range(n), threads=threads)
    )
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

    Independent of the quadrature + Cholesky route: each path draws Gaussian
    driver increments on the geometric grid and applies the panel-average
    kernel weights.
    """
    if n_paths < 1:
        raise ValidationError(f"n_paths must be >= 1, got {n_paths}")
    delta, w = gamma_mc_weights(cfg, d_max)
    sd = np.sqrt(delta)
    out = np.empty((n_paths, d_max + 1))
    for start in range(0, n_paths, MC_CHUNK):
        stop = min(start + MC_CHUNK, n_paths)
        noise = rng.standard_normal((stop - start, delta.size)) * sd[None, :]
        out[start:stop] = noise @ w
    return out

"""Fractional Brownian motion engine.

Covariances
-----------
* :func:`fbm_cov` — the two-sided fractional Brownian covariance
  ``(|s|^{2H} + |t|^{2H} - |t-s|^{2H}) / 2``.
* :func:`levy_cov` — covariance of the one-sided moving average
  ``Y_v = c1 * integral_0^v (v - u)**eta dW_u`` (``v >= 0``), in closed
  form as a Gauss hypergeometric function (Euler's integral), switched to
  its ``z -> 1`` connection form near the diagonal.  Both are summed here
  as power series with scalar coefficients; no special-function library
  is needed.

Every covariance entry point rejects non-finite times (and ``dt``) with
:class:`~fbmkit.errors.ValidationError`.

Samplers (all exact in law, deterministic given a Generator)
-----------------------------------------------------------
* :func:`sample_fgn` / :func:`sample_fbm_paths` — circulant-embedding
  (spectral) sampler for fractional Gaussian noise, cumulatively summed to
  fBm.  The embedding is nonnegative definite for every H in (0, 1)
  (Perrin et al. 2002, IEEE Signal Process. Lett. 9), so there is no
  fallback: an eigenvalue below ``-1e-9`` times the largest raises
  :class:`~fbmkit.errors.AccuracyError`.
* :func:`sample_levy_paths` — dense Cholesky sampler for the one-sided
  average.
* :func:`sample_obm` — ordinary Brownian motion on a grid containing 0,
  pinned to 0 there.

Driver and driven process
-------------------------
* :func:`cross_cov_wz` / :func:`joint_wz_cov` — the closed-form covariance
  of a driving Brownian motion and the fractional process it drives, the
  joint law behind the prediction and inversion checks.
"""

from __future__ import annotations

import math

import numpy as np
from numpy import fft

from .context import HurstContext, pow0
from .errors import AccuracyError, ValidationError
from .gaussian import CovMatrix

__all__ = [
    "fbm_cov",
    "fbm_cov_matrix",
    "fgn_autocov",
    "levy_cov",
    "levy_cov_matrix",
    "sample_fgn",
    "sample_fbm_paths",
    "sample_levy_paths",
    "sample_obm",
    "joint_wz_cov",
]


# ---------------------------------------------------------------------------
# Covariances
# ---------------------------------------------------------------------------

def fbm_cov(s, t, hurst: float):
    """Two-sided fBm covariance ``(|s|^{2H} + |t|^{2H} - |t - s|^{2H}) / 2``."""
    if not (0.0 < hurst < 1.0):
        raise ValidationError(f"hurst must lie in (0, 1), got {hurst}")
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    if not (np.isfinite(s).all() and np.isfinite(t).all()):
        raise ValidationError("fbm covariance requires finite times")
    h2 = 2.0 * hurst
    # At most two arrays of the broadcast shape at once; the rest is in place.
    gap = np.abs(t - s) ** h2
    out = np.abs(s) ** h2 + np.abs(t) ** h2
    out -= gap
    out *= 0.5
    if out.ndim == 0:
        return float(out)
    return out


def fbm_cov_matrix(times, hurst: float) -> np.ndarray:
    """Covariance matrix of fBm at the given (possibly negative) times."""
    times = np.asarray(times, dtype=float)
    return fbm_cov(times[:, None], times[None, :], hurst)


def fgn_autocov(n_lags: int, hurst: float, dt: float = 1.0) -> np.ndarray:
    """Autocovariance of fractional Gaussian noise at lags ``0 .. n_lags - 1``.

    ``gamma(k) = dt^{2H} * ((k+1)^{2H} - 2 k^{2H} + |k-1|^{2H}) / 2``,
    evaluated by :func:`_fgn_unit_autocov` without forming the difference.
    """
    if n_lags < 1:
        raise ValidationError(f"n_lags must be >= 1, got {n_lags}")
    if not (0.0 < hurst < 1.0):
        raise ValidationError(f"hurst must lie in (0, 1), got {hurst}")
    if not (0.0 < dt < math.inf):
        raise ValidationError(f"dt must be positive and finite, got {dt}")
    return dt ** (2.0 * hurst) * _fgn_unit_autocov(np.arange(n_lags), hurst)


# Terms of the even binomial series in _fgn_unit_autocov.  From k = 2 on each
# term is at most about 1/k^2 = 1/4 of the one before, and 4^-29 < 2^-57.
_FGN_SERIES_TERMS = 30


def _fgn_unit_autocov(lags: np.ndarray, hurst: float) -> np.ndarray:
    """``((k+1)^{2H} - 2 k^{2H} + |k-1|^{2H}) / 2`` at integer lags ``k >= 0``.

    The difference is about ``H |2H - 1| k^{2H-2}`` against terms of size
    ``k^{2H}``: formed in floats it loses ``log10(k^2 / |2H - 1|)`` digits,
    so it is never formed.  Lag 1 is ``expm1((2H - 1) ln 2)``; from lag 2 on
    it is the even half of the binomial series of ``(k +- 1)^{2H}``,
    ``k^{2H} sum_{j>=1} C(2H, 2j) k^{-2j}``, whose terms all have the sign of
    ``2H - 1``, so no digits cancel.
    """
    a = 2.0 * hurst
    coeffs, c = [], 1.0
    for n in range(2 * _FGN_SERIES_TERMS):
        c *= (a - n) / (n + 1)  # now C(a, n + 1)
        if n % 2:
            coeffs.append(c)
    k = np.asarray(lags, dtype=float)
    out = np.where(k == 0.0, 1.0, math.expm1((a - 1.0) * math.log(2.0)))
    far = k >= 2.0
    kf = k[far]
    x = 1.0 / (kf * kf)
    series = np.zeros_like(x)
    for coef in reversed(coeffs):
        series = (series + coef) * x
    out[far] = kf**a * series
    return out


# Machine epsilon of float64; sets where the 2F1 series stop.
_EPS = float(np.finfo(float).eps)


def _hyp2f1_unit_b(a: float, c: float, x: np.ndarray) -> np.ndarray:
    """``2F1(a, 1; c; x) = sum_n (a)_n / (c)_n x^n`` for ``0 <= x < 1``, by Horner's rule.

    The coefficients are scalars.  The number of terms comes from the largest
    ``x`` of the call: coefficients are added until the term at that ``x``
    falls below ``eps (1 - x) / 2``.  In every use, in :func:`_levy_integral`
    and in the kernel weights of :mod:`fbmkit.drift` (``a = 1``,
    ``c = 2 -+ r``, ``x <= 1/2``), the terms after the first share one sign
    and their ratio tends to ``x``, so the neglected tail stays near half an
    ulp of the sum at every ``x``.
    """
    x_max = float(x.max(initial=0.0))
    coeffs, term = [1.0], 1.0
    while abs(term) > 0.5 * _EPS * (1.0 - x_max):
        n = len(coeffs) - 1
        coeffs.append(coeffs[-1] * (a + n) / (c + n))
        term = coeffs[-1] * x_max ** (n + 1)
    out = np.full(x.shape, coeffs[-1])
    for coef in reversed(coeffs[:-1]):
        out *= x
        out += coef
    return out


def _levy_integral(ctx: HurstContext, s, t):
    """``c1**2 * integral_0^{min(s,t)} (s-u)^eta (t-u)^eta du``, broadcast over ``s, t >= 0``.

    With ``lo <= hi`` the two times, Euler's integral gives
    ``hi^eta lo^{eta+1} / (eta+1) * 2F1(-eta, 1; eta+2; z)``, ``z = lo/hi``,
    summed as a power series in ``z`` by :func:`_hyp2f1_unit_b`.  Near the
    diagonal, where that series converges too slowly, the ``z -> 1``
    connection formula (DLMF 15.8(ii)) in ``w = (hi-lo)/hi`` is used instead,
    ``2F1 = (eta+1)/(2H) * 2F1(-eta, 1; -2 eta; w)
    + Gamma(eta+2) Gamma(-2H) / Gamma(-eta) * w^{2H} z^{-H-1/2}``,
    whose second term is ``(hi-lo)^{2H}`` times a constant once the prefactor
    is multiplied in.  At ``w = 0`` it is the diagonal ``lo^{2H} / (2H)``
    exactly, and ``hi - lo`` is exact, so no rounding of ``lo/hi`` enters.

    The connection form is used for ``w < 1/2`` if ``H < 1/2`` and for
    ``w < 1/10`` if ``H > 1/2``.  For ``H > 1/2`` its two terms have
    opposite signs and grow like ``w^2 / (1 - H)`` (the coefficients of the
    ``w`` series carry ``1/(1 - 2 eta)`` and ``Gamma(-2H)`` nears its pole at
    ``-2``), so they cancel as ``H -> 1``; the narrow window keeps that loss
    to about two digits at ``H = 0.99999``, and the series in ``z`` then runs
    up to ``z = 0.9``.  For ``H < 1/2`` the two terms grow like ``1/(2H)``
    against a result of order one, so the relative error grows like
    ``2^-52 / (2H)``: it stays within ``1e-12`` of 40-digit mpmath for
    ``H >= 1e-4`` (6.2e-13 there), but reaches 8.2e-12 at ``H = 1e-5``
    (``s = 0.51, t = 1``).  At ``H = 1/2`` the integral is ``lo``.
    """
    eta, h2 = ctx.eta, 2.0 * ctx.hurst
    lo = np.asarray(np.minimum(s, t), dtype=float)
    if eta == 0.0:
        return ctx.c1**2 * lo
    # lo = 0 gives 0 whatever hi is; hi = 1 at the origin avoids 0 * inf.
    hi = np.maximum(s, t)
    hi = np.where(hi > 0.0, hi, 1.0)
    gap = hi - lo
    near = gap < (0.5 if eta < 0.0 else 0.1) * hi
    out = np.empty(lo.shape)
    far = ~near
    lo_f, hi_f = lo[far], hi[far]
    out[far] = _hyp2f1_unit_b(-eta, eta + 2.0, lo_f / hi_f) * (
        hi_f**eta * lo_f ** (eta + 1.0) / (eta + 1.0)
    )
    lo_n, hi_n, gap_n = lo[near], hi[near], gap[near]
    singular = math.gamma(eta + 1.0) * math.gamma(-h2) / math.gamma(-eta)
    out[near] = _hyp2f1_unit_b(-eta, -2.0 * eta, gap_n / hi_n) * (
        hi_n**eta * lo_n ** (eta + 1.0) / h2
    ) + singular * gap_n**h2
    return ctx.c1**2 * out


def levy_cov(s: float, t: float, ctx: HurstContext) -> float:
    """Covariance of the one-sided moving average at times ``s, t >= 0``."""
    if not (0.0 <= s < math.inf and 0.0 <= t < math.inf):
        raise ValidationError("one-sided moving average requires finite times >= 0")
    return float(_levy_integral(ctx, s, t))


def levy_cov_matrix(times, ctx: HurstContext) -> np.ndarray:
    """Covariance matrix of the one-sided moving average at sorted times >= 0."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValidationError("times must be a 1-d array")
    if not np.isfinite(times).all():
        raise ValidationError("one-sided moving average requires finite times")
    if np.any(times < 0):
        raise ValidationError("one-sided moving average requires times >= 0")
    if np.any(np.diff(times) <= 0):
        raise ValidationError("times must be strictly increasing")
    # Blocks of rows keep the temporaries a small fraction of the matrix.
    # _levy_integral sees only min and max of its two times, so it is
    # symmetric bit for bit: each block is evaluated from its diagonal on
    # and mirrored below it.
    out = np.empty((times.size, times.size))
    for i in range(0, times.size, 128):
        block = _levy_integral(ctx, times[i:i + 128, None], times[None, i:])
        out[i:i + 128, i:] = block
        out[i:, i:i + 128] = block.T
    return out


# ---------------------------------------------------------------------------
# Circulant-embedding sampler for fractional Gaussian noise
# ---------------------------------------------------------------------------

def _fgn_eigenvalues(gam: np.ndarray) -> np.ndarray:
    """Eigenvalues of the circulant embedding of the autocovariance ``gam``."""
    first_row = np.concatenate([gam, gam[-2:0:-1]])
    lam = fft.fft(first_row).real
    if lam.min() < -1.0e-9 * lam.max():
        raise AccuracyError(
            "circulant embedding of the fGn covariance is indefinite",
            estimate=float(-lam.min()),
            budget=1.0e-9 * float(lam.max()),
        )
    return np.clip(lam, 0.0, None)


def _fgn_from_normals(lam: np.ndarray, normals: np.ndarray, n: int) -> np.ndarray:
    """Map iid standard normals ``(paths, M)`` to fGn samples ``(paths, n)``.

    The real part of the FFT of a Hermitian spectrum ``w`` is the unscaled
    inverse real FFT of its half ``conj(w[:M/2+1])``, so only that half is
    filled: the imaginary normals enter with the opposite sign.
    """
    m = lam.size
    half = m // 2
    v = np.empty((normals.shape[0], half + 1), dtype=complex)
    v[:, 0] = np.sqrt(lam[0] / m) * normals[:, 0]
    v[:, half] = np.sqrt(lam[half] / m) * normals[:, 1]
    amp = np.sqrt(lam[1:half] / (2.0 * m))
    v[:, 1:half] = amp * (normals[:, 2 : 1 + half] - 1j * normals[:, 1 + half : m])
    return fft.irfft(v, n=m, axis=1, norm="forward")[:, :n]


def sample_fgn(
    hurst: float,
    n: int,
    dt: float,
    rng: np.random.Generator,
    paths: int = 1,
) -> np.ndarray:
    """Sample ``paths`` fractional-Gaussian-noise vectors of length ``n``."""
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    if paths < 1:
        raise ValidationError(f"paths must be >= 1, got {paths}")
    gam = fgn_autocov(n, hurst, dt)
    if n == 1:
        return np.sqrt(gam[0]) * rng.standard_normal((paths, 1))
    lam = _fgn_eigenvalues(gam)
    normals = rng.standard_normal((paths, lam.size))
    return _fgn_from_normals(lam, normals, n)


def sample_fbm_paths(
    hurst: float,
    n_steps: int,
    dt: float,
    rng: np.random.Generator,
    paths: int = 1,
) -> np.ndarray:
    """fBm path values on ``0, dt, ..., n_steps*dt``; shape ``(paths, n_steps+1)``."""
    incr = sample_fgn(hurst, n_steps, dt, rng, paths)
    out = np.zeros((paths, n_steps + 1))
    np.cumsum(incr, axis=1, out=out[:, 1:])
    return out


def sample_levy_paths(
    ctx: HurstContext,
    n_steps: int,
    dt: float,
    rng: np.random.Generator,
    paths: int = 1,
) -> np.ndarray:
    """One-sided moving-average paths on ``0, dt, ..., n_steps*dt``."""
    if n_steps < 1:
        raise ValidationError(f"n_steps must be >= 1, got {n_steps}")
    times = dt * np.arange(1, n_steps + 1)
    cov = CovMatrix(levy_cov_matrix(times, ctx))
    body = cov.sample(rng, paths)
    out = np.zeros((paths, n_steps + 1))
    out[:, 1:] = body
    return out


def sample_obm(
    n_steps: int,
    dt: float,
    rng: np.random.Generator,
    t0: float = 0.0,
) -> np.ndarray:
    """Ordinary Brownian motion on the grid ``t0 + dt * k``, ``k = 0..n_steps``.

    Returns the ``n_steps + 1`` values.  The grid must contain ``t = 0``;
    that point gets the exact value 0, so for ``t0 < 0`` this produces a
    two-sided path anchored at the origin.
    """
    if n_steps < 1:
        raise ValidationError(f"n_steps must be >= 1, got {n_steps}")
    if not (0.0 < dt < np.inf and np.isfinite(t0)):
        raise ValidationError(f"need finite dt > 0 and finite t0, got dt={dt}, t0={t0}")
    anchor = -t0 / dt
    idx = int(round(anchor))
    if not (0 <= idx <= n_steps) or abs(anchor - idx) > 1.0e-9:
        raise ValidationError(
            "the grid must contain t = 0 (t0 must be a nonpositive multiple of dt)"
        )
    incr = np.sqrt(dt) * rng.standard_normal(n_steps)
    cum = np.concatenate([[0.0], np.cumsum(incr)])
    values = cum - cum[idx]
    values[idx] = 0.0
    return values


# ---------------------------------------------------------------------------
# Joint law of the driver and the driven process
# ---------------------------------------------------------------------------

def _antiderivative_plus(x, eta: float):
    """``F(x) = x_+^{eta+1} / (eta+1)``, the antiderivative of ``x_+^eta``."""
    x = np.asarray(x, dtype=float)
    return pow0(np.maximum(x, 0.0), eta + 1.0) / (eta + 1.0)


def cross_cov_wz(ctx: HurstContext, s, t):
    """``Cov(W_s, Z_t)`` between the driving motion and the driven process.

    With ``F(x) = x_+^{eta+1}/(eta+1)``:

    * ``s <= 0``:  ``c1 * (F(-s) - F(t - s) + F(t))``
    * ``s >= 0``:  ``c1 * (F(t) - F(t - s))``
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    eta = ctx.eta
    f_t = _antiderivative_plus(t, eta)
    f_ts = _antiderivative_plus(t - s, eta)
    f_ms = _antiderivative_plus(-s, eta)
    out = np.where(
        s <= 0,
        ctx.c1 * (f_ms - f_ts + f_t),
        ctx.c1 * (f_t - f_ts),
    )
    if out.ndim == 0:
        return float(out)
    return out


def joint_wz_cov(ctx: HurstContext, w_times, z_times) -> np.ndarray:
    """Covariance of the stacked vector ``(W at w_times, Z at z_times)``."""
    w_times = np.asarray(w_times, dtype=float)
    z_times = np.asarray(z_times, dtype=float)
    sw = np.sign(w_times)
    ww = np.where(
        sw[:, None] * sw[None, :] > 0,
        np.minimum(np.abs(w_times)[:, None], np.abs(w_times)[None, :]),
        0.0,
    )
    wz = cross_cov_wz(ctx, w_times[:, None], z_times[None, :])
    zz = fbm_cov_matrix(z_times, ctx.hurst)
    top = np.hstack([ww, wz])
    bottom = np.hstack([wz.T, zz])
    return np.vstack([top, bottom])

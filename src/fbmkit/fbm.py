"""Fractional Brownian motion engine.

Covariances
-----------
* :func:`fbm_cov` — the two-sided fractional Brownian covariance
  ``(|s|^{2H} + |t|^{2H} - |t-s|^{2H}) / 2``, its difference of powers
  taken by :func:`~fbmkit.context.xi` (7e-16 against 40-digit mpmath).
* :func:`levy_cov` — covariance of the one-sided moving average
  ``Y_v = c1 * integral_0^v (v - u)**eta dW_u`` (``v >= 0``), in closed
  form as a Gauss hypergeometric function (Euler's integral), switched to
  its ``z -> 1`` connection form near the diagonal.  Both are summed here
  as power series with scalar coefficients; no special-function library
  is needed.

Every covariance entry point rejects non-finite times (and ``dt``, or a
``dt`` whose ``dt^(2H)`` leaves the normal floats) with
:class:`~fbmkit.errors.ValidationError`.

Samplers (all exact in law, deterministic given a Generator)
-----------------------------------------------------------
* :class:`FgnSampler` — circulant-embedding (spectral) sampler for
  fractional Gaussian noise (Davies & Harte 1987, Biometrika 74), with
  ``CovMatrix.sample``'s contract; :func:`sample_fbm_paths` sums it to fBm.
  The embedding is nonnegative definite for every H in (0, 1) (Perrin et al.
  2002, IEEE Signal Process. Lett. 9), so there is no fallback: an eigenvalue
  below ``-1e-9`` times the largest raises :class:`~fbmkit.errors.AccuracyError`.
* :func:`sample_levy_paths` — dense Cholesky sampler for the one-sided
  average.
* :func:`sample_obm` — ordinary Brownian motion on a grid containing 0,
  pinned to 0 there.

Driver and driven process
-------------------------
* :func:`cross_cov_wz` — the closed-form covariance of a driving Brownian
  motion and the fractional process it drives, also through ``xi``.
* :func:`joint_wz_image_cov` — the covariance of fixed linear images of a
  draw of that joint law, the law behind the prediction and inversion
  checks, built by row panels without the joint matrix.  Where ``t <= s``
  the cross covariance has no power difference, ``c1 ((-s)_+^q + t_+^q) / q``
  (Mandelbrot & Van Ness 1968, SIAM Rev. 10), so the walk fills those
  columns of each panel in closed form; for ascending times, as every
  library caller passes, that is about half of a square cross block.
"""

from __future__ import annotations

import math
import sys
from functools import partial

import numpy as np
from numpy import fft

from .context import HurstContext, xi
from .errors import AccuracyError, ValidationError
from .gaussian import CovMatrix, _row_panels, draw_buffer

__all__ = [
    "fbm_cov",
    "fbm_cov_matrix",
    "fgn_autocov",
    "FgnSampler",
    "levy_cov",
    "levy_cov_matrix",
    "sample_fbm_paths",
    "sample_levy_paths",
    "sample_obm",
    "joint_wz_image_cov",
]


# ---------------------------------------------------------------------------
# Covariances
# ---------------------------------------------------------------------------

def fbm_cov(s, t, hurst: float):
    """Two-sided fBm covariance ``(|s|^{2H} + |t|^{2H} - |t - s|^{2H}) / 2``.

    With ``lo <= hi`` the two of ``|s|, |t|`` and ``p = 2H`` it is
    ``(lo^p + xi(p, |t - s|, +-lo)) / 2``, ``+lo`` for times of one sign
    (``|t - s| = hi - lo``) and ``-lo`` across 0 (``|t - s| = hi + lo``):
    ``xi`` gives ``hi^p - |t - s|^p`` without forming it.  Within 7e-16 of
    40-digit mpmath on ``inversion_grid(1/128, u)``, ``u <= 1e12``, where the
    formed difference was off by 1e-2 at ``u = 1e7`` and by 1.0 at 1e12.
    When all of ``s`` and all of ``t`` have one sign (as in every past
    window), ``lo`` is taken unsigned: the sign of ``s * t`` is not formed.
    """
    if not (0.0 < hurst < 1.0):
        raise ValidationError(f"hurst must lie in (0, 1), got {hurst}")
    s, t = np.asarray(s, dtype=float), np.asarray(t, dtype=float)
    if not (np.isfinite(s).all() and np.isfinite(t).all()):
        raise ValidationError("fbm covariance requires finite times")
    p, s_abs, t_abs = 2.0 * hurst, np.abs(s), np.abs(t)
    lo = np.minimum(s_abs, t_abs)
    # Checked on the operands' own shapes.  Across 0 the sign of s * t is
    # that of the product of their signs, whatever its size.
    if not ((s.min(initial=0.0) >= 0 and t.min(initial=0.0) >= 0)
            or (s.max(initial=0.0) <= 0 and t.max(initial=0.0) <= 0)):
        lo = np.copysign(lo, s * t)
    out = np.asarray(xi(p, np.abs(t - s), lo))
    out += np.minimum(s_abs**p, t_abs**p)
    out *= 0.5
    return float(out) if out.ndim == 0 else out


def _symmetric_panels(times: np.ndarray, entries):
    """``(rows, block)``: ``entries(times, times)`` by row panels, each block from its diagonal on.

    ``entries`` must be symmetric in its two arguments bit for bit, so the
    blocks hold every entry of the matrix once, its mirror aside.
    """
    for rows in _row_panels(times.size, times.size):
        yield rows, entries(times[rows, None], times[None, rows.start:])


def _fill_symmetric(out: np.ndarray, times: np.ndarray, entries) -> np.ndarray:
    """``out = entries(times, times)`` from :func:`_symmetric_panels`, mirrored below."""
    for rows, block in _symmetric_panels(times, entries):
        out[rows, rows.start:] = block
        out[rows.stop:, rows] = out[rows, rows.stop:].T
    return out


def _symmetric_product(times: np.ndarray, entries, weights: np.ndarray) -> np.ndarray:
    """``entries(times, times) @ weights.T`` from :func:`_symmetric_panels`, never the matrix.

    Each block adds to its own rows and, right of its diagonal square, to
    the rows of its mirror.
    """
    out = np.zeros((times.size, weights.shape[0]))
    w_t = weights.T
    for rows, block in _symmetric_panels(times, entries):
        out[rows] += block @ w_t[rows.start:]
        out[rows.stop:] += block[:, rows.stop - rows.start:].T @ w_t[rows]
    return out


def fbm_cov_matrix(times, hurst: float) -> np.ndarray:
    """Covariance matrix of fBm at the given (possibly negative) times."""
    if not (0.0 < hurst < 1.0):
        raise ValidationError(f"hurst must lie in (0, 1), got {hurst}")
    times = np.asarray(times, dtype=float)
    out = np.empty((times.size, times.size))
    return _fill_symmetric(out, times, partial(fbm_cov, hurst=hurst))


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
    try:
        scale = dt ** (2.0 * hurst)
    except OverflowError:
        raise ValidationError(f"--dt {dt} is too large: dt^(2H) exceeds the float range") from None
    if scale < sys.float_info.min:  # 0 or subnormal: the draws would be zeros or lose digits
        raise ValidationError(f"--dt {dt} is too small: dt^(2H) underflows the float range")
    return scale * _fgn_unit_autocov(np.arange(n_lags), hurst)


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
    # _levy_integral is symmetric bit for bit, as it sees only min and max of
    # its times; its series' term counts follow each panel's largest ratio.
    out = np.empty((times.size, times.size))
    return _fill_symmetric(out, times, partial(_levy_integral, ctx))


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
    filled, in place: the imaginary normals enter with the opposite sign.
    The inverse FFT is written over ``normals``.
    """
    m = lam.size
    half = m // 2
    v = np.empty((normals.shape[0], half + 1), dtype=complex)
    re, im = v.real, v.imag
    amp = np.sqrt(lam[1:half] / (2.0 * m))
    np.multiply(normals[:, 2 : 1 + half], amp, out=re[:, 1:half])
    np.multiply(normals[:, 1 + half : m], -amp, out=im[:, 1:half])
    np.multiply(normals[:, 0], np.sqrt(lam[0] / m), out=re[:, 0])
    np.multiply(normals[:, 1], np.sqrt(lam[half] / m), out=re[:, half])
    im[:, [0, half]] = 0.0
    return fft.irfft(v, n=m, axis=1, norm="forward", out=normals)[:, :n]


def _fill_rows(rng: np.random.Generator, dest: np.ndarray, width: int, transform) -> np.ndarray:
    """Fill the rows of ``dest``, strided or not, with ``transform`` of ``width`` normals each.

    The normals are those of one ``(rows, width)`` draw, taken a row panel
    at a time into one reused buffer.
    """
    panels = list(_row_panels(dest.shape[0], width))
    normals = np.empty((panels[0].stop, width))
    for rows in panels:
        dest[rows] = transform(rng.standard_normal(out=normals[: rows.stop - rows.start]))
    return dest


class FgnSampler:
    """fGn increments over ``dim = n_steps`` steps of ``dt``; ``sample`` as in ``CovMatrix``.

    Each path takes one row of ``M = 2 (n_steps - 1)`` normals (1 at one step).
    """

    def __init__(self, hurst: float, n_steps: int, dt: float) -> None:
        gam = fgn_autocov(n_steps, hurst, dt)
        self.dim = n_steps
        if n_steps == 1:
            root = math.sqrt(gam[0])
            self._width, self._transform = 1, lambda z: root * z
        else:
            lam = _fgn_eigenvalues(gam)
            self._width, self._transform = lam.size, lambda z: _fgn_from_normals(lam, z, n_steps)

    def sample(self, rng: np.random.Generator, n: int, out: np.ndarray | None = None) -> np.ndarray:
        return _fill_rows(rng, draw_buffer(out, (n, self.dim)), self._width, self._transform)


def sample_fbm_paths(
    hurst: float,
    n_steps: int,
    dt: float,
    rng: np.random.Generator,
    paths: int = 1,
) -> np.ndarray:
    """fBm path values on ``0, dt, ..., n_steps*dt``; shape ``(paths, n_steps+1)``.

    The :class:`FgnSampler` rows come from the one stream ``rng`` in row
    order, straight into the result behind its zero column, then summed in place.
    """
    if paths < 1:
        raise ValidationError(f"paths must be >= 1, got {paths}")
    sampler = FgnSampler(hurst, n_steps, dt)
    out = np.empty((paths, n_steps + 1))
    out[:, 0] = 0.0
    _fill_rows(rng, out[:, 1:], sampler._width, sampler._transform)
    np.cumsum(out[:, 1:], axis=1, out=out[:, 1:])
    return out


def sample_levy_paths(
    ctx: HurstContext,
    n_steps: int,
    dt: float,
    rng: np.random.Generator,
    paths: int = 1,
) -> np.ndarray:
    """One-sided moving-average paths on ``0, dt, ..., n_steps*dt``; shape ``(paths, n_steps+1)``.

    The result is the transpose of a C-ordered ``(n_steps+1, paths)`` array
    that holds the draw itself, so no second array of its size is made.
    """
    if n_steps < 1:
        raise ValidationError(f"n_steps must be >= 1, got {n_steps}")
    if paths < 1:
        raise ValidationError(f"paths must be >= 1, got {paths}")
    fgn_autocov(1, ctx.hurst, dt)  # refuses a dt whose dt^(2H) leaves the normal floats
    times = dt * np.arange(1, n_steps + 1)
    cov = CovMatrix(levy_cov_matrix(times, ctx))
    # The draw is (n_steps, paths) in C order: behind a row of zeros for
    # t = 0 it is the transpose of the result, so it is drawn in place.
    flat = np.empty((n_steps + 1) * paths)
    flat[:paths] = 0.0
    cov.sample(rng, paths, out=flat[paths:])
    return flat.reshape(n_steps + 1, paths).T


def sample_obm(
    n_steps: int,
    dt: float,
    rng: np.random.Generator,
    t0: float = 0.0,
    paths: int = 1,
) -> np.ndarray:
    """Ordinary Brownian motion paths on the grid ``t0 + dt * k``, ``k = 0..n_steps``.

    Returns shape ``(paths, n_steps + 1)``.  The increments are those of one
    ``standard_normal((paths, n_steps))`` draw, taken by :func:`_fill_rows`
    without its transients.  The grid must contain
    ``t = 0``; that point gets the exact value 0, so for ``t0 < 0`` this
    produces two-sided paths anchored at the origin.
    """
    if n_steps < 1 or paths < 1:
        raise ValidationError(f"need n_steps >= 1 and paths >= 1, got {n_steps} and {paths}")
    if not (0.0 < dt < np.inf and np.isfinite(t0)):
        raise ValidationError(f"need finite dt > 0 and finite t0, got dt={dt}, t0={t0}")
    anchor = -t0 / dt
    idx = int(round(anchor))
    if not (0 <= idx <= n_steps) or abs(anchor - idx) > 1.0e-9:
        raise ValidationError(
            "the grid must contain t = 0 (t0 must be a nonpositive multiple of dt)"
        )
    values = np.empty((paths, n_steps + 1))
    values[:, 0] = 0.0
    scale = np.sqrt(dt)
    _fill_rows(rng, values[:, 1:], n_steps, lambda z: np.multiply(z, scale, out=z))
    np.cumsum(values[:, 1:], axis=1, out=values[:, 1:])
    values -= values[:, [idx]]
    values[:, idx] = 0.0
    return values


# ---------------------------------------------------------------------------
# Joint law of the driver and the driven process
# ---------------------------------------------------------------------------

def cross_cov_wz(ctx: HurstContext, s, t):
    """``Cov(W_s, Z_t)`` between the driving motion and the driven process.

    ``c1 (F(-s) + F(t) - F(t - s))`` with ``F(x) = x_+^q / q``, ``q = eta + 1``:
    as in :func:`fbm_cov`, ``c1 (lo^q + xi(q, (t - s)_+, b)) / q`` with ``lo``
    the smaller of ``(-s)_+, t_+`` and ``b = min(|s|, |t|)`` for
    ``s, t <= 0``, ``-min(|s|, t)`` for ``s <= 0 < t``, ``min(s, t_+)`` for
    ``s > 0``.  Within 1.2e-15 of 40-digit mpmath where :func:`fbm_cov` is
    7e-16, against 2.7e-2 at ``u = 1e7`` and 1.8 at 1e12 for the difference
    of ``F`` values.
    """
    s, t = np.asarray(s, dtype=float), np.asarray(t, dtype=float)
    if not (np.isfinite(s).all() and np.isfinite(t).all()):
        raise ValidationError("driver cross covariance requires finite times")
    q, past, future = ctx.eta + 1.0, np.maximum(-s, 0.0), np.maximum(t, 0.0)
    b = np.where(s > 0, np.minimum(s, future), np.copysign(np.minimum(-s, np.abs(t)), -t))
    x = xi(q, np.maximum(t - s, 0.0), b)
    out = ctx.c1 / q * (np.minimum(past**q, future**q) + x)
    return float(out) if out.ndim == 0 else out


def _driver_cov(s, t):
    """``Cov(W_s, W_t)`` of the two-sided driving motion, broadcast."""
    return np.where((s < 0) == (t < 0), np.minimum(np.abs(s), np.abs(t)), 0.0)


def joint_wz_image_cov(ctx: HurstContext, w_times, w_weights, z_times, z_weights) -> np.ndarray:
    """``A C A^T``: ``C`` the covariance of ``(W at w_times, Z at z_times)``, ``A`` the weights.

    ``A`` is block diagonal, ``w_weights`` on ``W`` and ``z_weights`` on
    ``Z``.  The images ``A x`` of a draw ``x`` of the joint law are Gaussian
    with this covariance, the ``w_weights`` rows first.  ``C`` is never
    formed: its three blocks are walked by row panels as
    :func:`_fill_symmetric` walks them, each entry evaluated once, into
    ``C A^T`` (of its cross block only the ``W`` rows are needed), so the
    call holds ``O((nw + nz) k)`` values for ``k`` images and one panel.
    The result is symmetric bit for bit.

    In a cross panel the leading columns with ``t`` at or below every ``s``
    of the panel have ``(t - s)_+ = 0``: they are filled with
    ``c1 ((-s)_+^q + t_+^q) / q``, the bits :func:`cross_cov_wz` gives
    there, and only the rest go through ``xi``.  Any order of times is
    right; ascending ``z_times`` and ``w_times`` (every library caller's)
    make the leading run every such column.
    """
    w_times, z_times = np.asarray(w_times, dtype=float), np.asarray(z_times, dtype=float)
    kw = w_weights.shape[0]
    out = np.empty((kw + z_weights.shape[0],) * 2)
    out[:kw, :kw] = w_weights @ _symmetric_product(w_times, _driver_cov, w_weights)
    zz = _symmetric_product(z_times, partial(fbm_cov, hurst=ctx.hurst), z_weights)
    out[kw:, kw:] = z_weights @ zz
    cross = np.empty((w_times.size, z_weights.shape[0]))
    q = ctx.eta + 1.0
    c1_q, future_q = ctx.c1 / q, np.maximum(z_times, 0.0) ** q
    for rows in _row_panels(w_times.size, z_times.size):
        s = w_times[rows, None]
        # A nan in s leaves no column later; cross_cov_wz still refuses it.
        later = z_times > s.min()
        j = int(later.argmax()) if later.any() else z_times.size
        panel = np.empty((s.size, z_times.size))
        np.add(np.maximum(-s, 0.0) ** q, future_q[:j], out=panel[:, :j])
        panel[:, :j] *= c1_q
        panel[:, j:] = cross_cov_wz(ctx, s, z_times[None, j:])
        cross[rows] = panel @ z_weights.T
    out[:kw, kw:] = w_weights @ cross
    out[kw:, :kw] = out[:kw, kw:].T
    return 0.5 * (out + out.T)

"""Fractional Brownian motion engine.

Covariances
-----------
* :func:`fbm_cov` — the two-sided fractional Brownian covariance
  ``(|s|^{2H} + |t|^{2H} - |t-s|^{2H}) / 2``.
* :func:`levy_cov` — covariance of the one-sided moving average
  ``Y_v = c1 * integral_0^v (v - u)**eta dW_u`` (``v >= 0``), in closed
  form as a Gauss hypergeometric function (Euler's integral), switched to
  its ``z -> 1`` connection form near the diagonal when ``H < 1/2``.

Samplers (all exact in law, deterministic given a Generator)
-----------------------------------------------------------
* :func:`sample_fgn` / :func:`sample_fbm` — circulant-embedding (spectral)
  sampler for fractional Gaussian noise, cumulatively summed to fBm, with a
  dense Cholesky fallback if the embedding ever went indefinite.
* :func:`sample_fbm_bilateral` — two-sided fBm pinned to 0 at time 0.
* :func:`sample_levy` — dense Cholesky sampler for the one-sided average.
* :func:`sample_obm` — ordinary Brownian motion on a grid containing 0.
* :func:`sample_joint_wz` — *jointly* samples a driving Brownian motion and
  the fractional process it drives, using the closed-form cross-covariance;
  this is the reference coupling for consistency experiments.

Pathwise evaluation
-------------------
* :func:`integrate_by_parts_eval` — evaluates the fractional process at
  ``t > 0`` from a discretely observed driving path using the
  integration-by-parts form of the moving average, which only involves the
  *increments*-regularized kernel and therefore converges on truncated
  observation windows.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gamma as _gamma
from scipy.special import hyp2f1

from .context import HurstContext, pow0, xi
from .errors import AccuracyError, ValidationError
from .gaussian import CovMatrix
from .grids import GridPath
from .quadrature import PATH_NODES, PATH_TOL, graded_breaks, panel_nodes

__all__ = [
    "fbm_cov",
    "fbm_cov_matrix",
    "fgn_autocov",
    "levy_cov",
    "levy_cov_matrix",
    "sample_fgn",
    "sample_fbm_paths",
    "sample_fbm",
    "sample_fbm_bilateral",
    "sample_levy_paths",
    "sample_levy",
    "sample_obm",
    "refine_obm",
    "joint_wz_cov",
    "sample_joint_wz",
    "integrate_by_parts_eval",
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
    h2 = 2.0 * hurst
    out = 0.5 * (
        np.abs(s) ** h2 + np.abs(t) ** h2 - np.abs(t - s) ** h2
    )
    if out.ndim == 0:
        return float(out)
    return out


def fbm_cov_matrix(times, hurst: float) -> np.ndarray:
    """Covariance matrix of fBm at the given (possibly negative) times."""
    times = np.asarray(times, dtype=float)
    return fbm_cov(times[:, None], times[None, :], hurst)


def fgn_autocov(n_lags: int, hurst: float, dt: float = 1.0) -> np.ndarray:
    """Autocovariance of fractional Gaussian noise at lags ``0 .. n_lags - 1``.

    ``gamma(k) = dt^{2H} * ((k+1)^{2H} - 2 k^{2H} + |k-1|^{2H}) / 2``.
    """
    if n_lags < 1:
        raise ValidationError(f"n_lags must be >= 1, got {n_lags}")
    if not (0.0 < hurst < 1.0):
        raise ValidationError(f"hurst must lie in (0, 1), got {hurst}")
    if not (dt > 0):
        raise ValidationError(f"dt must be positive, got {dt}")
    k = np.arange(n_lags, dtype=float)
    h2 = 2.0 * hurst
    return 0.5 * dt**h2 * ((k + 1.0) ** h2 - 2.0 * k**h2 + np.abs(k - 1.0) ** h2)


def _levy_integral(ctx: HurstContext, s, t):
    """``c1**2 * integral_0^{min(s,t)} (s-u)^eta (t-u)^eta du``, broadcast over ``s, t >= 0``.

    With ``lo <= hi`` the two times, Euler's integral gives
    ``hi^eta lo^{eta+1} / (eta+1) * 2F1(-eta, 1; eta+2; z)``, ``z = lo/hi``.
    For ``H < 1/2`` and ``w = (hi-lo)/hi < 1/2`` the z -> 1 connection formula
    (DLMF 15.8(ii)) is used instead,
    ``2F1 = (eta+1)/(2H) * 2F1(-eta, 1; -2 eta; w)
    + Gamma(eta+2) Gamma(-2H) / Gamma(-eta) * w^{2H} z^{-H-1/2}``,
    whose second term is ``(hi-lo)^{2H}`` times a constant once the prefactor
    is multiplied in.  For ``H < 0.47`` scipy's ``2F1(..; z)`` has relative
    errors up to 2.7 once ``1 - z <= 5e-14``, and rounding ``lo/hi`` alone
    costs up to ``8e-7`` at ``H = 0.005`` and ``hi - lo = 2e-12 hi``; the
    connection form needs neither.  At ``w = 0`` it is the diagonal
    ``lo^{2H} / (2H)`` exactly.
    """
    eta, h2 = ctx.eta, 2.0 * ctx.hurst
    lo = np.minimum(s, t)
    # lo = 0 gives 0 whatever hi is; hi = 1 at the origin avoids 0 * inf.
    hi = np.maximum(s, t)
    hi = np.where(hi > 0.0, hi, 1.0)
    gap = hi - lo
    near = (gap < 0.5 * hi) & (eta < 0.0)
    out = hyp2f1(-eta, 1.0, np.where(near, -2.0 * eta, eta + 2.0),
                 np.where(near, gap, lo) / hi)
    out *= hi**eta * lo ** (eta + 1.0) / np.where(near, h2, eta + 1.0)
    if eta < 0.0:
        singular = _gamma(eta + 1.0) * _gamma(-h2) / _gamma(-eta)
        out += np.where(near, singular * gap**h2, 0.0)
    return ctx.c1**2 * out


def levy_cov(s: float, t: float, ctx: HurstContext) -> float:
    """Covariance of the one-sided moving average at times ``s, t >= 0``."""
    if s < 0 or t < 0:
        raise ValidationError("one-sided moving average requires times >= 0")
    return float(_levy_integral(ctx, s, t))


def levy_cov_matrix(times, ctx: HurstContext) -> np.ndarray:
    """Covariance matrix of the one-sided moving average at sorted times >= 0."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValidationError("times must be a 1-d array")
    if np.any(times < 0):
        raise ValidationError("one-sided moving average requires times >= 0")
    if np.any(np.diff(times) <= 0):
        raise ValidationError("times must be strictly increasing")
    # Blocks of rows keep the temporaries a small fraction of the matrix.
    out = np.empty((times.size, times.size))
    for i in range(0, times.size, 128):
        out[i:i + 128] = _levy_integral(ctx, times[i:i + 128, None], times[None, :])
    return out


# ---------------------------------------------------------------------------
# Circulant-embedding sampler for fractional Gaussian noise
# ---------------------------------------------------------------------------

def _fgn_eigenvalues(n: int, hurst: float, dt: float) -> np.ndarray | None:
    """Eigenvalues of the circulant embedding, or None if indefinite."""
    gam = fgn_autocov(n, hurst, dt)
    first_row = np.concatenate([gam, gam[-2:0:-1]])
    lam = np.fft.fft(first_row).real
    if lam.min() < -1.0e-9 * lam.max():
        return None
    return np.clip(lam, 0.0, None)


def _fgn_from_normals(lam: np.ndarray, normals: np.ndarray, n: int) -> np.ndarray:
    """Map iid standard normals ``(paths, M)`` to fGn samples ``(paths, n)``."""
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
    lam = _fgn_eigenvalues(n, hurst, dt)
    if lam is not None:
        normals = rng.standard_normal((paths, lam.size))
        return _fgn_from_normals(lam, normals, n)
    # Indefinite embedding: exact dense fallback.
    idx = np.arange(n)
    cov = CovMatrix(gam[np.abs(idx[:, None] - idx[None, :])])
    return cov.sample(rng, paths)


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


def sample_fbm(
    hurst: float,
    n_steps: int,
    dt: float,
    rng: np.random.Generator,
) -> GridPath:
    """One fBm path as a :class:`GridPath` starting at ``t = 0``."""
    values = sample_fbm_paths(hurst, n_steps, dt, rng, paths=1)[0]
    return GridPath(t0=0.0, dt=dt, values=values, kind="fBm")


def sample_fbm_bilateral(
    hurst: float,
    n_past: int,
    n_future: int,
    dt: float,
    rng: np.random.Generator,
) -> GridPath:
    """Two-sided fBm on ``[-n_past*dt, n_future*dt]`` pinned to 0 at time 0.

    Built from one stationary fGn stream re-anchored at the origin, so past
    and future are correlated exactly as the two-sided covariance dictates.
    """
    if n_past < 0 or n_future < 0 or n_past + n_future < 1:
        raise ValidationError("need n_past, n_future >= 0 with at least one step")
    incr = sample_fgn(hurst, n_past + n_future, dt, rng, paths=1)[0]
    cum = np.concatenate([[0.0], np.cumsum(incr)])
    values = cum - cum[n_past]
    values[n_past] = 0.0
    return GridPath(t0=-n_past * dt, dt=dt, values=values, kind="fBm")


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


def sample_levy(
    ctx: HurstContext,
    n_steps: int,
    dt: float,
    rng: np.random.Generator,
) -> GridPath:
    """One one-sided moving-average path as a :class:`GridPath`."""
    values = sample_levy_paths(ctx, n_steps, dt, rng, paths=1)[0]
    return GridPath(t0=0.0, dt=dt, values=values, kind="LevyfBm")


def sample_obm(
    n_steps: int,
    dt: float,
    rng: np.random.Generator,
    t0: float = 0.0,
) -> GridPath:
    """Ordinary Brownian motion on a uniform grid whose span contains ``t = 0``.

    The grid point at time 0 (required to exist) gets the exact value 0;
    for ``t0 < 0`` this produces a two-sided path anchored at the origin.
    """
    if n_steps < 1:
        raise ValidationError(f"n_steps must be >= 1, got {n_steps}")
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
    return GridPath(t0=t0, dt=dt, values=values, kind="oBm")


def refine_obm(path: GridPath, rng: np.random.Generator) -> GridPath:
    """Halve the grid step of a Brownian path by Brownian-bridge midpoints.

    The refined path agrees with the input on the original grid and the new
    midpoints are drawn from the exact conditional (bridge) law.
    """
    if path.kind != "oBm":
        raise ValidationError("refine_obm requires an oBm path")
    v = path.values
    n = path.n - 1
    if n < 1:
        raise ValidationError("path must have at least one step")
    mid_mean = 0.5 * (v[:-1] + v[1:])
    mid = mid_mean + np.sqrt(path.dt / 4.0) * rng.standard_normal(n)
    out = np.empty(2 * n + 1)
    out[0::2] = v
    out[1::2] = mid
    new = GridPath(t0=path.t0, dt=path.dt / 2.0, values=out, kind="derived")
    # Re-tag as oBm; the anchor value at t=0 is inherited from the input.
    return GridPath(t0=new.t0, dt=new.dt, values=new.values, kind="oBm")


# ---------------------------------------------------------------------------
# Joint (driver, driven) simulation
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


def sample_joint_wz(
    ctx: HurstContext,
    w_times,
    z_times,
    rng: np.random.Generator,
    paths: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Jointly sample the driver ``W`` and driven ``Z`` on their grids.

    Returns ``(W, Z)`` with shapes ``(paths, len(w_times))`` and
    ``(paths, len(z_times))``.  Grid points at time 0 are returned as exact
    zeros (both processes are pinned there).
    """
    w_times = np.asarray(w_times, dtype=float)
    z_times = np.asarray(z_times, dtype=float)
    nw, nz = w_times.size, z_times.size
    all_times = np.concatenate([w_times, z_times])
    keep = all_times != 0.0
    cov = joint_wz_cov(ctx, w_times, z_times)[np.ix_(keep, keep)]
    draw = CovMatrix(cov).sample(rng, paths)
    full = np.zeros((paths, nw + nz))
    full[:, keep] = draw
    return full[:, :nw], full[:, nw:]


# ---------------------------------------------------------------------------
# Pathwise evaluation of the moving average from a driver path
# ---------------------------------------------------------------------------

def ibp_tail_sd(ctx: HurstContext, t: float, u_max: float) -> float:
    """Bound on the std. dev. contributed by the driver path beyond ``u_max``.

    The neglected term is ``c1 * eta * integral_{-inf}^{-u_max}`` of the
    increment-regularized kernel against the driver; bounding the kernel
    difference by ``|eta - 1| |t| a^{eta-2}`` and the driver's standard
    deviation by ``sqrt(2 a)`` gives, after integrating the tail,
    ``c1 |eta| |eta-1| |t| sqrt(2) u_max^{eta-1/2} / (1/2 - eta)``.
    """
    eta = ctx.eta
    if eta == 0.0:
        return 0.0
    return (
        ctx.c1 * abs(eta) * abs(eta - 1.0) * abs(t) * np.sqrt(2.0)
        * u_max ** (eta - 0.5) / (0.5 - eta)
    )


def integrate_by_parts_eval(ctx: HurstContext, w_path, t: float) -> float:
    """Evaluate the driven fractional process at time ``t`` from a driver path.

    For ``t > 0`` this uses the integration-by-parts representation

    ``Z_t / c1 = t^eta W_t
    + eta * integral_{t0}^0 xi_{eta-1}(-s, t) W_s ds
    + eta * integral_0^t (t - s)^{eta-1} (W_s - W_t) ds``

    (the sign of the integral terms follows from
    ``d/ds[(t-s)^eta - (-s)_+^eta] = -eta[(t-s)^{eta-1} - (-s)_+^{eta-1}]``
    and is confirmed against a direct discrete moving-average evaluation);
    for ``t < 0`` the analogous computation gives

    ``Z_t / c1 = (-t)^eta W_t
    - eta * integral_{t0}^t xi_{eta-1}(t-s, -t) (W_s - W_t) ds
    - eta * integral_t^0 (-s)^{eta-1} W_s ds``.

    The driver (an ``oBm`` :class:`~fbmkit.grids.GridPath` or
    :class:`~fbmkit.grids.SampledPath`) is interpolated linearly between
    observations.  Truncating the driver window to ``[t0, 0]`` contributes a
    random error whose standard deviation is bounded by :func:`ibp_tail_sd`;
    an :class:`AccuracyError` is raised when that bound exceeds
    ``PATH_TOL * |t|**H``.
    """
    if w_path.kind != "oBm":
        raise ValidationError("integrate_by_parts_eval requires an oBm driver path")
    if t == 0.0:
        return 0.0
    if w_path.t0 >= min(t, 0.0):
        raise ValidationError("driver path must extend into the past of t and 0")
    if t > w_path.t_end + 1.0e-12:
        raise ValidationError(
            f"t={t} beyond the driver path horizon {w_path.t_end}"
        )
    eta = ctx.eta
    w_t = w_path.value_at(t)
    if eta == 0.0:
        return w_t

    u_max = -w_path.t0
    tail = ibp_tail_sd(ctx, abs(t), u_max)
    budget = PATH_TOL * abs(t) ** ctx.hurst
    if tail > budget:
        raise AccuracyError(
            f"driver window [{w_path.t0}, 0] too short: truncation sd bound "
            f"{tail:.3e} exceeds {budget:.3e}; extend the window",
            estimate=tail,
            budget=budget,
        )

    def interp(s):
        return np.interp(s, w_path.times, w_path.values)

    if t > 0:
        past_breaks = graded_breaks(w_path.t0, 0.0, toward="right")
        nodes_p, weights_p = panel_nodes(past_breaks, PATH_NODES)
        i_neg = weights_p @ (xi(eta - 1.0, -nodes_p, t) * interp(nodes_p))
        fut_breaks = graded_breaks(0.0, t, toward="both")
        nodes_f, weights_f = panel_nodes(fut_breaks, PATH_NODES)
        i_pos = weights_f @ (
            (t - nodes_f) ** (eta - 1.0) * (interp(nodes_f) - w_t)
        )
        return ctx.c1 * (t**eta * w_t + eta * (i_neg + i_pos))

    deep_breaks = graded_breaks(w_path.t0, t, toward="right")
    nodes_d, weights_d = panel_nodes(deep_breaks, PATH_NODES)
    i_deep = weights_d @ (
        xi(eta - 1.0, t - nodes_d, -t) * (interp(nodes_d) - w_t)
    )
    near_breaks = graded_breaks(t, 0.0, toward="right")
    nodes_n, weights_n = panel_nodes(near_breaks, PATH_NODES)
    i_near = weights_n @ ((-nodes_n) ** (eta - 1.0) * interp(nodes_n))
    return ctx.c1 * ((-t) ** eta * w_t - eta * (i_deep + i_near))

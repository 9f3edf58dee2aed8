"""Conditional prediction of fractional Brownian motion from its past.

Given the past trajectory ``(X_u)_{u <= 0}`` of the process (pinned to 0 at
time 0), the conditional mean of the future is a linear functional of the
past.  This module provides four independent routes to it plus the inverse
representation recovering the driving Brownian motion:

* :func:`drift_apply` — the explicit integral operator
  ``(D X)_v = integral_{-inf}^0 K(u, v) X_u du`` with the prediction kernel

  ``K(u, v) = eta * c_h * ( eta * integral_{-inf}^0 J(v, u, s) ds
  - v (v - u)^{eta-1} (-u)^{-eta-1} )``,

  ``J(v, u, s) = 1_{s > u} xi_{eta-1}(s - u, v) xi_{-eta-1}(-s, s - u)
  - xi_{eta-1}(-u, v) xi_{-eta-1}(-s, -u)``,

  where ``c_h = 1 / (Pi(eta) Pi(-eta)) = sin(pi eta) / (pi eta)`` and
  ``xi_r(a, b) = (a+b)^r - a^r``.

* :func:`drift_from_obm` — the same functional expressed through the
  *driving* Brownian motion:
  ``(D X)_v = eta c1 integral_{-inf}^0 xi_{eta-1}(-s, v) W_s ds``.

* :func:`drift_regression` — finite-dimensional Gaussian regression onto the
  observed past values (the brute-force oracle; no kernel knowledge).

* :func:`conditional_future_cov` — covariance of the future *residual*
  after regression on a finite past grid; converges to the one-sided
  moving-average covariance as the grid refines.

* :func:`pipiras_taqqu_invert` — recovers the driver at ``t <= 0`` from the
  past of the driven process:

  ``W_t * c1 / c_h = eta * integral_{-inf}^t xi_{-eta-1}(t-s, -t) (Z_s - Z_t) ds
  + eta * integral_t^0 (-s)^{-eta-1} Z_s ds + (-t)^{-eta} Z_t``.

Operators on sampled paths
--------------------------
All four take a past window as two arrays: ``times``, strictly increasing
and strictly negative, and ``values``, one path of shape ``(n,)`` or a batch
on the same times, ``(paths, n)``; the result is ``(nv,)`` or ``(paths, nv)``
to match.  Every window is pinned at ``Z_0 = 0``: the operators append the
origin and its zero value themselves, after refusing non-finite,
non-increasing, non-negative or mis-shaped input with
:class:`~fbmkit.errors.ValidationError`.  Between samples the path is the
linear interpolant of the pinned window.  Each call builds one weight matrix
``W`` over the ``n + 1`` pinned samples and returns ``values @ W.T``, so a
batch costs one product.  For the three integral routes ``W`` comes from
Gauss-Legendre panels aligned with the samples
(:func:`~fbmkit.quadrature.aligned_breaks`): each node's weight is split
between its two bracketing samples by the hat functions.  The truncation
estimates that raise :class:`~fbmkit.errors.AccuracyError` run once per
call, before any weights are built.

The kernel in closed form
-------------------------
The printed ``K`` is elementary (Gripenberg & Norros 1996, J. Appl. Prob.
33:400-410):

  ``K(u, v) = -eta c_h (v / (-u))^{eta+1} / (v - u)``.

With ``a = -u``, ``K = -d/du g_v(u)`` for the Gripenberg-Norros weight
``g_v(u) = eta c_h a^{-eta} integral_0^v x^eta / (x + a) dx``, so

  ``K = -eta c_h a^{-eta-1} integral_0^v (eta x^eta / (x + a)
  + x^eta a / (x + a)^2) dx``.

Integrating the second term by parts with ``a / (x + a)^2 = d/dx [x / (x + a)]``
gives ``v^{eta+1} / (v + a) - eta integral_0^v x^eta / (x + a) dx``, which
cancels the first term and leaves ``K`` above.  It is a product of positive
factors, so it keeps full relative precision for every ``v / (-u)``, and
``K(lambda u, lambda v) = K(u, v) / lambda``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .context import HurstContext, xi
from .errors import AccuracyError, ValidationError
from .fbm import fbm_cov, fbm_cov_matrix
from .gaussian import CovMatrix
from .quadrature import PATH_NODES, PATH_TOL, aligned_breaks, panel_nodes

__all__ = [
    "DriftKernelSpec",
    "drift_kernel_value",
    "drift_apply",
    "drift_tail_sd",
    "drift_from_obm",
    "drift_regression",
    "regression_weights",
    "conditional_future_cov",
    "pipiras_taqqu_invert",
    "invert_tail_sd",
]

REGRESSION_MAX_POINTS = 2048


@dataclass(frozen=True)
class DriftKernelSpec:
    """Prediction-kernel configuration: the Hurst context."""

    ctx: HurstContext


def _pinned_past(times, values) -> tuple[np.ndarray, np.ndarray]:
    """Check a past window and pin it at the origin.

    ``times`` must be finite, strictly increasing and strictly negative, and
    ``values`` finite, of shape ``(n,)`` or ``(paths, n)`` for the ``n``
    times.  Returns the times with 0 appended and the values with a zero
    column appended, as a fresh C-ordered array: the layout of the input
    must not change how ``values @ W.T`` rounds.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValidationError("past times must be a non-empty 1-d array")
    if values.ndim not in (1, 2) or values.shape[-1] != times.size or values.size == 0:
        raise ValidationError(
            "past values must have shape (n,) or (paths, n) matching the n times"
        )
    if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
        raise ValidationError("past times and values must be finite")
    if np.any(np.diff(times) <= 0):
        raise ValidationError("past times must be strictly increasing")
    if times[-1] >= 0.0:
        raise ValidationError(f"past times must be strictly negative, got {times[-1]}")
    pinned = np.zeros(values.shape[:-1] + (times.size + 1,))
    pinned[..., :-1] = values
    return np.append(times, 0.0), pinned


# ---------------------------------------------------------------------------
# The prediction kernel K(u, v)
# ---------------------------------------------------------------------------

def drift_kernel_value(kspec: DriftKernelSpec, u, v) -> np.ndarray:
    """The prediction kernel ``K(u, v)`` for ``u < 0`` and ``v > 0``, in closed form.

    ``u`` and ``v`` broadcast against each other; the result is at least 1-d.
    See the module docstring for the formula and its derivation.
    """
    u = np.asarray(u, dtype=float)
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if not np.all(u < 0):
        raise ValidationError(f"u must be negative, got {u.max()}")
    if np.any(v <= 0):
        raise ValidationError("v must be positive")
    ctx = kspec.ctx
    eta = ctx.eta
    if eta == 0.0:
        return np.zeros(np.broadcast(u, v).shape)
    return -eta * ctx.c_h * (v / -u) ** (eta + 1.0) / (v - u)


# ---------------------------------------------------------------------------
# The drift operator
# ---------------------------------------------------------------------------

def _on_samples(times: np.ndarray, nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weights on the samples that apply ``weights`` to the interpolant at ``nodes``.

    ``nodes`` increase and lie in ``[times[0], times[-1]]``; ``weights`` has
    one entry per node on its last axis.  Each node's weight is split between
    its two bracketing samples by the hat functions, so ``x @ W.T`` equals
    ``weights @ np.interp(nodes, times, x)`` up to rounding for every sample
    vector ``x``.  Nodes sharing an interval are summed by one ``reduceat``.
    """
    j = np.clip(np.searchsorted(times, nodes, side="right") - 1, 0, times.size - 2)
    lo, hi = times[j], times[j + 1]
    # Each node's shares of its left and right sample.
    shares = np.stack([hi - nodes, nodes - lo]) / (hi - lo)
    starts = np.flatnonzero(np.diff(j, prepend=-1))
    cols = j[starts]
    sums = np.add.reduceat(weights[..., None, :] * shares, starts, axis=-1)
    out = np.zeros(weights.shape[:-1] + times.shape)
    out[..., cols] = sums[..., 0, :]
    out[..., cols + 1] += sums[..., 1, :]
    return out


def drift_tail_sd(kspec: DriftKernelSpec, v: float, u_max: float) -> float:
    """Estimated std. dev. neglected by truncating the operator at ``-u_max``.

    Beyond the window the kernel decays like ``(-u)^{-2}`` while the past
    path has standard deviation ``(-u)^H``; extrapolating the kernel from
    its value at the truncation edge gives the estimate
    ``|K(-u_max, v)| * u_max^{1+H} / (1 - H)``.  (An estimate, not a bound:
    it is reported/raised, never added back as a correction.)
    """
    ctx = kspec.ctx
    if ctx.eta == 0.0:
        return 0.0
    k_edge = float(drift_kernel_value(kspec, -u_max, np.asarray([v]))[0])
    return abs(k_edge) * u_max ** (1.0 + ctx.hurst) / (1.0 - ctx.hurst)


def drift_apply(kspec: DriftKernelSpec, times, values, v_grid) -> np.ndarray:
    """Apply the prediction operator to a past trajectory of the process.

    ``values`` is the observed past of the *driven* process at the negative
    ``times``, one path or a batch; returns the conditional-mean prediction
    at each ``v > 0`` in ``v_grid``, shape ``(nv,)`` or ``(paths, nv)``.
    """
    times, values = _pinned_past(times, values)
    v_grid = np.atleast_1d(np.asarray(v_grid, dtype=float))
    if np.any(v_grid <= 0):
        raise ValidationError("evaluation times must be positive")
    ctx = kspec.ctx
    if ctx.eta == 0.0:
        return np.zeros(values.shape[:-1] + v_grid.shape)
    u_max = -times[0]
    worst_v = float(v_grid.max())
    tail = drift_tail_sd(kspec, worst_v, u_max)
    budget = PATH_TOL * worst_v**ctx.hurst
    if tail > budget:
        raise AccuracyError(
            f"past window [{times[0]}, 0] too short for kernel prediction: "
            f"tail estimate {tail:.3e} exceeds {budget:.3e}",
            estimate=tail,
            budget=budget,
        )
    nodes, weights = panel_nodes(aligned_breaks(times), PATH_NODES)
    kernel = weights * drift_kernel_value(kspec, nodes, v_grid[:, None])
    return values @ _on_samples(times, nodes, kernel).T


def drift_from_obm(kspec: DriftKernelSpec, times, values, v_grid) -> np.ndarray:
    """Prediction expressed through the past of the *driving* Brownian motion.

    ``(D X)_v = eta c1 integral_{t0}^0 xi_{eta-1}(-s, v) W_s ds`` for each
    ``v`` in ``v_grid``; ``values`` are the driver at the negative ``times``,
    one path or a batch, and the result has shape ``(nv,)`` or ``(paths, nv)``.
    """
    times, values = _pinned_past(times, values)
    v_grid = np.atleast_1d(np.asarray(v_grid, dtype=float))
    if np.any(v_grid <= 0):
        raise ValidationError("evaluation times must be positive")
    ctx = kspec.ctx
    eta = ctx.eta
    if eta == 0.0:
        return np.zeros(values.shape[:-1] + v_grid.shape)
    u_max = -times[0]
    worst_v = float(v_grid.max())
    tail = (
        ctx.c1 * abs(eta) * abs(eta - 1.0) * worst_v
        * u_max ** (eta - 0.5) / (0.5 - eta)
    )
    budget = PATH_TOL * worst_v**ctx.hurst
    if tail > budget:
        # tail is proportional to u_max^(eta - 1/2) = u_max^(H - 1): the depth
        # that meets the budget, padded by 1% so its 3-digit rendering does.
        log10_need = math.log10(u_max) + math.log10(tail / budget) / (0.5 - eta)
        need = 1.01 * 10.0**log10_need if log10_need < 300.0 else math.inf
        raise AccuracyError(
            f"driver window [{times[0]}, 0] too short: tail sd bound "
            f"{tail:.3e} exceeds {budget:.3e}; the bound falls as "
            f"u_max^(H-1) and needs a window depth (--umax) of {need:.2e}",
            estimate=tail,
            budget=budget,
        )
    nodes, weights = panel_nodes(aligned_breaks(times), PATH_NODES)
    kernel = (eta * ctx.c1) * weights * xi(eta - 1.0, -nodes, v_grid[:, None])
    return values @ _on_samples(times, nodes, kernel).T


# ---------------------------------------------------------------------------
# Finite-dimensional regression oracle
# ---------------------------------------------------------------------------

def _regression_samples(n: int) -> np.ndarray:
    """Indices of the ``n`` observed samples used for regression, at most ``REGRESSION_MAX_POINTS``."""
    if n <= REGRESSION_MAX_POINTS:
        return np.arange(n)
    return np.unique(np.round(np.linspace(0, n - 1, REGRESSION_MAX_POINTS)).astype(int))


def regression_weights(hurst: float, past_times, v_grid) -> np.ndarray:
    """Gaussian-regression weight matrix ``Cpp^{-1} Cpv`` (shape npast x nv).

    ``past_times`` must be strictly negative; the weights applied to the
    observed past values give the conditional mean at each ``v``.  The
    solve runs on the Cholesky factor of ``Cpp`` (:meth:`CovMatrix.solve`).
    """
    past_times = np.asarray(past_times, dtype=float)
    v_grid = np.atleast_1d(np.asarray(v_grid, dtype=float))
    if np.any(past_times >= 0):
        raise ValidationError("regression past times must be strictly negative")
    cpp = fbm_cov_matrix(past_times, hurst)
    cpv = fbm_cov(past_times[:, None], v_grid[None, :], hurst)
    return CovMatrix(cpp).solve(cpv)


def drift_regression(hurst: float, times, values, v_grid) -> np.ndarray:
    """Conditional mean at ``v_grid`` by direct regression on the observed past.

    The regression weights fall on a subset of the samples at the negative
    ``times`` (the pin at 0 has zero variance and is left out); one path
    gives shape ``(nv,)``, a batch ``(paths, nv)``.
    """
    times, values = _pinned_past(times, values)
    v_grid = np.atleast_1d(np.asarray(v_grid, dtype=float))
    idx = _regression_samples(times.size - 1)
    weights = regression_weights(hurst, times[idx], v_grid)
    return values[..., idx] @ weights


def conditional_future_cov(hurst: float, past_times, v_grid) -> np.ndarray:
    """Covariance of the future residual after regression on a finite past.

    ``Cvv - Cvp Cpp^{-1} Cpv``; as the past observation grid refines and
    lengthens, this converges to the one-sided moving-average covariance
    (compare :func:`fbmkit.fbm.levy_cov_matrix`).
    """
    past_times = np.asarray(past_times, dtype=float)
    v_grid = np.atleast_1d(np.asarray(v_grid, dtype=float))
    weights = regression_weights(hurst, past_times, v_grid)
    cpv = fbm_cov(past_times[:, None], v_grid[None, :], hurst)
    cvv = fbm_cov_matrix(v_grid, hurst)
    return cvv - cpv.T @ weights


# ---------------------------------------------------------------------------
# Inverse representation (driver from driven)
# ---------------------------------------------------------------------------

def invert_tail_sd(ctx: HurstContext, t: float, u_max: float) -> float:
    """Bound on the std. dev. neglected by truncating the inversion at ``-u_max``.

    The neglected term is ``(c_h/c1) eta integral_{-inf}^{-u_max}
    xi_{-eta-1}(t-s, -t) (Z_s - Z_t) ds``; with
    ``|xi_{-eta-1}(a, -t)| <= (eta+1) |t| a^{-eta-2}`` and
    ``sd(Z_s - Z_t) <= (2(-s))^H`` for ``-s >= u_max >= 2|t|`` this telescopes
    to ``(c_h/c1) |eta| (eta+1) |t| 2^{H+1} u_max^{-1/2}``.
    """
    eta = ctx.eta
    if eta == 0.0:
        return 0.0
    return (
        (ctx.c_h / ctx.c1) * abs(eta) * (eta + 1.0) * abs(t)
        * 2.0 ** (ctx.hurst + 1.0) * u_max**-0.5
    )


def pipiras_taqqu_invert(kspec: DriftKernelSpec, times, values, t) -> np.ndarray:
    """Recover the driving Brownian motion at times ``t <= 0`` from the past of ``Z``.

    ``W_t * c1 / c_h = eta * integral_{t0}^t xi_{-eta-1}(t-s, -t) (Z_s - Z_t) ds
    + eta * integral_t^0 (-s)^{-eta-1} Z_s ds + (-t)^{-eta} Z_t``

    with ``Z`` observed as ``values`` at the negative ``times`` and
    interpolated linearly.  The right side is linear in the
    samples of ``Z``, so it is built once as a weight matrix over the samples
    (one row per ``t``) and applied to one path or a batch in one product;
    the result has shape ``(nt,)`` or ``(paths, nt)``, and a scalar ``t``
    drops that axis.  Each integral is Gauss-Legendre on panels aligned with
    the samples and graded toward its singular end, and each node's weight
    is split between its two bracketing samples.  On the interval that ends
    at or contains ``t``, ``Z_s - Z_t`` is the interpolant's slope times
    ``s - t``, so those nodes weigh that slope and the weights stay finite
    where ``integral xi_{-eta-1}`` alone diverges (``eta > 0``).
    At ``eta = 0`` the driver equals the process and is returned exactly.
    """
    times, values = _pinned_past(times, values)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t_arr > 0) or np.any(t_arr < times[0]):
        raise ValidationError("inversion times must lie in [t0, 0]")
    scalar = np.ndim(t) == 0
    ctx = kspec.ctx
    eta = ctx.eta
    if eta == 0.0:
        rows = [np.interp(t_arr, times, row) for row in values.reshape(-1, times.size)]
        out = np.reshape(rows, values.shape[:-1] + t_arr.shape)
        return out[..., 0] if scalar else out

    u_max = -times[0]
    worst = float(np.abs(t_arr).max())
    if worst > 0:
        tail = invert_tail_sd(ctx, worst, u_max)
        budget = PATH_TOL * np.sqrt(worst)
        if tail > budget:
            raise AccuracyError(
                f"observation window [{times[0]}, 0] too short for inversion "
                f"at t={-worst}: tail sd bound {tail:.3e} exceeds {budget:.3e}",
                estimate=tail,
                budget=budget,
            )

    weights = np.zeros((t_arr.size, times.size))
    for row, ti in zip(weights, t_arr):
        if ti == 0.0:
            continue
        below = times[times < ti]
        # Node weights of Z below t (deep), at t, and above t (near).  Panels
        # follow the sample intervals, graded toward the integrable
        # singularities at s -> t (deep) and s -> 0 (near).
        s_d = w_d = np.empty(0)
        z_t_weight = (-ti) ** (-eta)
        if below.size:
            s_d, w_d = panel_nodes(
                aligned_breaks(np.concatenate([below, [ti]])), PATH_NODES
            )
            w_d = eta * w_d * xi(-eta - 1.0, ti - s_d, -ti)
            last = s_d > below[-1]
            j = below.size - 1
            slope = w_d[last] @ (ti - s_d[last]) / (times[j + 1] - times[j])
            row[j] += slope
            row[j + 1] -= slope
            s_d, w_d = s_d[~last], w_d[~last]
            z_t_weight -= w_d.sum()
        s_n, w_n = panel_nodes(
            aligned_breaks(np.concatenate([[ti], times[times > ti]])), PATH_NODES
        )
        w_n = eta * w_n * (-s_n) ** (-eta - 1.0)
        row += _on_samples(
            times,
            np.concatenate([s_d, [ti], s_n]),
            np.concatenate([w_d, [z_t_weight], w_n]),
        )
    weights *= ctx.c_h / ctx.c1
    out = values @ weights.T
    return out[..., 0] if scalar else out

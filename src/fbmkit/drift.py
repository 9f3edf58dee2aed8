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

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve

from .context import HurstContext, xi
from .errors import AccuracyError, ValidationError
from .fbm import fbm_cov, fbm_cov_matrix
from .gaussian import cholesky_with_jitter
from .grids import GridPath, SampledPath
from .quadrature import (
    DEFAULT_QUAD,
    QuadratureSpec,
    aligned_breaks,
    panel_nodes,
)

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
    """Prediction-kernel configuration: Hurst context plus quadrature knobs."""

    ctx: HurstContext
    quad: QuadratureSpec = DEFAULT_QUAD


def _as_past(path) -> SampledPath:
    """Validate and normalize a past-observation window ending at time 0."""
    if isinstance(path, GridPath):
        path = path.sampled()
    if not isinstance(path, SampledPath):
        raise ValidationError("past path must be a GridPath or SampledPath")
    if path.t_end != 0.0:
        raise ValidationError(
            f"past path must end exactly at time 0, got {path.t_end}"
        )
    if path.values[-1] != 0.0:
        raise ValidationError("past path must take the value 0 at time 0")
    if path.t0 >= 0.0:
        raise ValidationError("past path must extend into the past (t0 < 0)")
    return path


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

def _drift_quadrature(kspec: DriftKernelSpec, times: np.ndarray, v_grid: np.ndarray):
    """(nodes, K-weighted quadrature matrix) for the operator on sampled data.

    Panels are aligned with the observation intervals so the rule is
    spectrally accurate on the piecewise-linear interpolant; the matrix ``M``
    satisfies ``(D X)(v_i) ~= sum_j M[i, j] X(u_j)``.
    """
    quad = kspec.quad
    breaks = aligned_breaks(
        times, ratio=quad.grading_ratio, levels=quad.grading_levels
    )
    nodes, weights = panel_nodes(breaks, quad.nodes_per_panel)
    return nodes, weights * drift_kernel_value(kspec, nodes, v_grid[:, None])


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


def drift_apply(kspec: DriftKernelSpec, past, v_grid) -> np.ndarray:
    """Apply the prediction operator to a past trajectory of the process.

    ``past`` is the observed past of the *driven* process (fBm increments
    window, pinned to 0 at time 0); returns the conditional-mean prediction
    at each ``v > 0`` in ``v_grid``.
    """
    past = _as_past(past)
    v_grid = np.atleast_1d(np.asarray(v_grid, dtype=float))
    if np.any(v_grid <= 0):
        raise ValidationError("evaluation times must be positive")
    ctx = kspec.ctx
    if ctx.eta == 0.0:
        return np.zeros_like(v_grid)
    u_max = -past.t0
    worst_v = float(v_grid.max())
    tail = drift_tail_sd(kspec, worst_v, u_max)
    budget = kspec.quad.path_tol * worst_v**ctx.hurst
    if tail > budget:
        raise AccuracyError(
            f"past window [{past.t0}, 0] too short for kernel prediction: "
            f"tail estimate {tail:.3e} exceeds {budget:.3e}",
            estimate=tail,
            budget=budget,
        )
    nodes, matrix = _drift_quadrature(kspec, past.times, v_grid)
    return matrix @ past.value_at(nodes)


def drift_from_obm(kspec: DriftKernelSpec, w_past, v_grid) -> np.ndarray:
    """Prediction expressed through the past of the *driving* Brownian motion.

    ``(D X)_v = eta c1 integral_{t0}^0 xi_{eta-1}(-s, v) W_s ds`` for each
    ``v`` in ``v_grid``; ``w_past`` must be an ``oBm`` window ending at 0.
    """
    if w_past.kind != "oBm":
        raise ValidationError("drift_from_obm requires an oBm past path")
    w_past = _as_past(
        w_past if isinstance(w_past, SampledPath) else w_past.sampled()
    )
    v_grid = np.atleast_1d(np.asarray(v_grid, dtype=float))
    if np.any(v_grid <= 0):
        raise ValidationError("evaluation times must be positive")
    ctx = kspec.ctx
    eta = ctx.eta
    if eta == 0.0:
        return np.zeros_like(v_grid)
    quad = kspec.quad
    u_max = -w_past.t0
    worst_v = float(v_grid.max())
    tail = (
        ctx.c1 * abs(eta) * abs(eta - 1.0) * worst_v
        * u_max ** (eta - 0.5) / (0.5 - eta)
    )
    budget = quad.path_tol * worst_v**ctx.hurst
    if tail > budget:
        raise AccuracyError(
            f"driver window [{w_past.t0}, 0] too short: tail sd bound "
            f"{tail:.3e} exceeds {budget:.3e}",
            estimate=tail,
            budget=budget,
        )
    breaks = aligned_breaks(
        w_past.times, ratio=quad.grading_ratio, levels=quad.grading_levels
    )
    nodes, weights = panel_nodes(breaks, quad.nodes_per_panel)
    w_vals = w_past.value_at(nodes)
    kernel = xi(eta - 1.0, -nodes[:, None], v_grid[None, :])
    return eta * ctx.c1 * ((weights * w_vals) @ kernel)


# ---------------------------------------------------------------------------
# Finite-dimensional regression oracle
# ---------------------------------------------------------------------------

def _regression_times(past: SampledPath) -> np.ndarray:
    """Past times used for regression: drop t = 0 (zero-variance pin), cap count."""
    times = past.times[past.times < 0.0]
    if times.size == 0:
        raise ValidationError("past path has no strictly negative observation times")
    if times.size > REGRESSION_MAX_POINTS:
        idx = np.linspace(0, times.size - 1, REGRESSION_MAX_POINTS)
        times = times[np.unique(np.round(idx).astype(int))]
    return times


def regression_weights(hurst: float, past_times, v_grid) -> np.ndarray:
    """Gaussian-regression weight matrix ``Cpp^{-1} Cpv`` (shape npast x nv).

    ``past_times`` must be strictly negative; the weights applied to the
    observed past values give the conditional mean at each ``v``.
    """
    past_times = np.asarray(past_times, dtype=float)
    v_grid = np.atleast_1d(np.asarray(v_grid, dtype=float))
    if np.any(past_times >= 0):
        raise ValidationError("regression past times must be strictly negative")
    cpp = fbm_cov_matrix(past_times, hurst)
    cpv = fbm_cov(past_times[:, None], v_grid[None, :], hurst)
    factor, _ = cholesky_with_jitter(cpp)
    return cho_solve((factor, True), cpv)


def drift_regression(hurst: float, past, v_grid) -> np.ndarray:
    """Conditional mean at ``v_grid`` by direct regression on the observed past."""
    past = _as_past(past if isinstance(past, SampledPath) else past.sampled())
    v_grid = np.atleast_1d(np.asarray(v_grid, dtype=float))
    times = _regression_times(past)
    values = past.value_at(times)
    weights = regression_weights(hurst, times, v_grid)
    return weights.T @ values


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


def pipiras_taqqu_invert(
    kspec: DriftKernelSpec, z_past, t
) -> np.ndarray:
    """Recover the driving Brownian motion at times ``t <= 0`` from the past of ``Z``.

    ``W_t * c1 / c_h = eta * integral_{t0}^t xi_{-eta-1}(t-s, -t) (Z_s - Z_t) ds
    + eta * integral_t^0 (-s)^{-eta-1} Z_s ds + (-t)^{-eta} Z_t``

    evaluated by graded-mesh quadrature with ``Z`` interpolated linearly.
    At ``eta = 0`` the driver equals the process and is returned exactly.
    """
    z_past = _as_past(z_past if isinstance(z_past, SampledPath) else z_past.sampled())
    if z_past.kind not in ("fBm", "derived"):
        raise ValidationError("inversion expects the driven (fBm) past path")
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t_arr > 0) or np.any(t_arr < z_past.t0):
        raise ValidationError("inversion times must lie in [t0, 0]")
    ctx, quad = kspec.ctx, kspec.quad
    eta = ctx.eta
    if eta == 0.0:
        return z_past.value_at(t_arr)

    u_max = -z_past.t0
    worst = float(np.abs(t_arr).max())
    if worst > 0:
        tail = invert_tail_sd(ctx, worst, u_max)
        budget = quad.path_tol * np.sqrt(worst)
        if tail > budget:
            raise AccuracyError(
                f"observation window [{z_past.t0}, 0] too short for inversion "
                f"at t={-worst}: tail sd bound {tail:.3e} exceeds {budget:.3e}",
                estimate=tail,
                budget=budget,
            )

    out = np.empty(t_arr.size)
    prefactor = ctx.c_h / ctx.c1
    times = z_past.times
    for i, ti in enumerate(t_arr):
        if ti == 0.0:
            out[i] = 0.0
            continue
        z_t = z_past.value_at(ti)
        below = times[times < ti]
        if below.size:
            # Panels follow the sample intervals, sub-graded toward the
            # integrable singularity of xi_{-eta-1}(t - s, -t) at s -> t.
            deep_breaks = aligned_breaks(
                np.concatenate([below, [ti]]),
                ratio=quad.grading_ratio, levels=quad.grading_levels,
            )
            s_d, w_d = panel_nodes(deep_breaks, quad.nodes_per_panel)
            i_deep = w_d @ (
                xi(-eta - 1.0, ti - s_d, -ti) * (z_past.value_at(s_d) - z_t)
            )
        else:
            i_deep = 0.0
        near_breaks = aligned_breaks(
            np.concatenate([[ti], times[times > ti]]),
            ratio=quad.grading_ratio, levels=quad.grading_levels,
        )
        s_n, w_n = panel_nodes(near_breaks, quad.nodes_per_panel)
        i_near = w_n @ ((-s_n) ** (-eta - 1.0) * z_past.value_at(s_n))
        out[i] = prefactor * (
            eta * (i_deep + i_near) + (-ti) ** (-eta) * z_t
        )
    if np.isscalar(t) or np.asarray(t).ndim == 0:
        return out[0]
    return out

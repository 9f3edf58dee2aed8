"""Conditional prediction of fractional Brownian motion from its past.

Given the past trajectory ``(X_u)_{u <= 0}`` of the process (pinned to 0 at
time 0), the conditional mean of the future is a linear functional of the
past.  This module provides three independent routes to it plus the inverse
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

* :func:`pipiras_taqqu_invert` — recovers the driver at ``t <= 0`` from the
  past of the driven process:

  ``W_t * c1 / c_h = eta * integral_{-inf}^t xi_{-eta-1}(t-s, -t) (Z_s - Z_t) ds
  + eta * integral_t^0 (-s)^{-eta-1} Z_s ds + (-t)^{-eta} Z_t``.

* :func:`prediction_routes` and :func:`driver_roundtrip` — the checks that
  ``fbmkit drift validate`` and ``fbmkit invert`` run, and acceptance
  criteria 3 and 4 with them, scored by :func:`rel_l2`: the kernel route
  against the driver route on one joint draw of driver and process, and the
  driver recovered from the process against the driver drawn with it.

Operators on sampled paths
--------------------------
All four take a past window as two arrays: ``times``, strictly increasing
and strictly negative, and ``values``, one path of shape ``(n,)`` or a batch
on the same times, ``(paths, n)``; the result is ``(nv,)`` or ``(paths, nv)``
to match.  The operators' window in the CLI and the acceptance battery is
:func:`inversion_grid`: geometric deep in the past, uniform near the
present, and graded toward the origin, where the kernels are singular.
Every window is pinned at ``Z_0 = 0``: the operators append the origin and
its zero value themselves, after refusing non-finite, non-increasing,
non-negative or mis-shaped input with
:class:`~fbmkit.errors.ValidationError`; evaluation times ``v`` must be
finite and positive, and inversion times ``t`` finite in ``[t0, 0]``.
Between samples the path is the linear interpolant of the pinned window.
Each call builds one weight matrix ``W`` over the ``n + 1`` pinned samples
and returns ``values @ W.T``, so a batch costs one product.

The three integral routes take ``W`` in closed form.  For a kernel with
antiderivative ``F1``, integration by parts against each sample's hat
function gives its exact weight from the means ``D_i`` of ``F1`` over the
sample intervals (:func:`_hat_weights`), so only interpolation and window
truncation remain as errors.  The means are elementary in ``xi`` for the
driver route (``F1 = -c1 xi_eta(-s, v)``) and the inversion
(:func:`_xi_mean`), and for the kernel route a Pfaff-transformed ``2F1``
summed in an argument of at most 1/2 (:func:`_kernel_weights`); neither
cancels as ``H -> 1/2``.  Against 40-digit mpmath on
``inversion_grid(1/128, 1e7)`` for ``H`` in [0.05, 0.95], ``1/2 +- 1e-6``
included, every weight is within 2e-12 of its row's largest.  The
truncation estimates that raise :class:`~fbmkit.errors.AccuracyError` run
once per call, before any weights are built.

Route checks on linear images
-----------------------------
Every route is a weight matrix ``A`` applied to a sampled past ``x``, and
the checks read nothing of a draw of the joint law of ``(W, Z)`` but such
images.  For ``x ~ N(0, C)``, ``A x ~ N(0, A C A^T)``, so the checks draw
the images from that ``k x k`` covariance (``k`` = 32 for the CLI's 16
times per route), which :func:`~fbmkit.fbm.joint_wz_image_cov` builds by
row panels in ``O(N^2 k)``, against ``O(N^3)`` to factor ``C`` over the
``N`` window times.  Nothing here forms or factors ``C`` itself.

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

import numpy as np

from .context import HurstContext, xi
from .errors import AccuracyError, ValidationError
from .fbm import _hyp2f1_unit_b, fbm_cov, fbm_cov_matrix, joint_wz_image_cov
from .gaussian import MAX_ARRAY_VALUES, CovMatrix
from .quadrature import PATH_TOL

__all__ = [
    "DriftKernelSpec",
    "drift_kernel_value",
    "drift_apply",
    "drift_tail_sd",
    "drift_from_obm",
    "drift_regression",
    "regression_weights",
    "pipiras_taqqu_invert",
    "invert_tail_sd",
    "inversion_grid",
    "rel_l2",
    "prediction_routes",
    "driver_roundtrip",
]

REGRESSION_MAX_POINTS = 2048

# Most times of a past window: drift kernel and drift regression draw the
# path on it from its n x n covariance.  The budget is MAX_ARRAY_VALUES
# (256 MiB) for the matrix, which becomes its own Cholesky factor in place.
# Peak RSS measured at one BLAS thread within two rows of the cap: drift
# kernel 301 MiB.  A finer --dt (or a deeper --umax) is refused before the
# matrix is allocated.  drift validate and invert never build that matrix.
WINDOW_MAX_POINTS = math.isqrt(MAX_ARRAY_VALUES)  # 5792

# Geometry of inversion_grid: the uniform window's length, the geometric
# points per decade, and log10 of the innermost tip time's magnitude.
INVERSION_SPAN = 2.0
INVERSION_PER_DECADE = 24
INVERSION_E_MIN = -7.0


class DriftKernelSpec:
    """Prediction-kernel configuration: the Hurst context."""

    __slots__ = ("ctx",)

    def __init__(self, ctx: HurstContext) -> None:
        self.ctx = ctx


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


def _future_times(v_grid) -> np.ndarray:
    """``v_grid`` as a non-empty 1-d array, refused unless every time is finite and positive."""
    v_grid = np.atleast_1d(np.asarray(v_grid, dtype=float))
    if v_grid.ndim != 1 or v_grid.size == 0 or not np.all(np.isfinite(v_grid) & (v_grid > 0)):
        raise ValidationError("v_grid must be a non-empty 1-d array of finite positive times")
    return v_grid


def inversion_grid(dt: float, u_deep: float = 600.0) -> np.ndarray:
    """Past observation times for the operators: deep geometric + uniform + graded tip.

    Uniform with spacing ``dt`` on ``[-INVERSION_SPAN, 0)``, geometric with
    ``INVERSION_PER_DECADE`` points per decade out to ``-u_deep`` and in to
    ``-10^INVERSION_E_MIN`` at the tip.  All times are strictly negative (the
    operators pin the origin themselves).  Raises
    :class:`~fbmkit.errors.ValidationError` unless
    ``10^INVERSION_E_MIN <= dt <= INVERSION_SPAN < u_deep`` (the tip's end),
    or, before allocating anything, if the window would hold more than
    ``WINDOW_MAX_POINTS`` times.
    """
    if not (10.0**INVERSION_E_MIN <= dt <= INVERSION_SPAN < u_deep < math.inf):
        raise ValidationError(
            f"the past window needs 0 < dt <= {INVERSION_SPAN} < u_deep (--dt, --umax) and"
            f" dt >= {10.0**INVERSION_E_MIN:g}, got dt={dt}, u_deep={u_deep}"
        )
    n_uni = int(round(INVERSION_SPAN / dt))
    if n_uni * dt > INVERSION_SPAN:  # rounded up past the span: stay inside it
        n_uni -= 1
    e_dt = math.log10(dt)
    m = int(math.ceil((e_dt - INVERSION_E_MIN) * INVERSION_PER_DECADE))
    md = int(math.ceil(math.log10(u_deep / INVERSION_SPAN) * INVERSION_PER_DECADE))
    if md + n_uni + m > WINDOW_MAX_POINTS:
        raise ValidationError(
            f"the past window at dt={dt}, u_deep={u_deep} would hold {md + n_uni + m} times,"
            f" more than {WINDOW_MAX_POINTS}: raise --dt (or lower --umax)"
        )
    uniform = -dt * np.arange(n_uni, 0, -1)
    tip = -(10.0 ** (e_dt - np.arange(1, m + 1) / INVERSION_PER_DECADE))
    deep = -INVERSION_SPAN * (u_deep / INVERSION_SPAN) ** (np.arange(md, 0, -1) / md)
    return np.concatenate([deep, uniform, tip])


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
# Exact weights on sampled paths
# ---------------------------------------------------------------------------

def _hat_weights(first, means) -> np.ndarray:
    """Sample weights of ``integral F1'(s) x(s) ds`` for the interpolant ``x`` of the samples.

    From the means ``D_i`` of ``F1`` over the sample intervals and ``first
    = F1(t_0)``, by parts: ``w_0 = D_0 - F1(t_0)``, ``w_j = D_j - D_{j-1}``.
    The last weight, whose boundary term may be infinite, is 0: every window
    ends at a node where ``x`` is 0 (the pinned origin, or ``Z_t - Z_t``).
    """
    out = np.zeros(means.shape[:-1] + (means.shape[-1] + 1,))
    out[..., 0] = means[..., 0] - first
    out[..., 1:-1] = np.diff(means, axis=-1)
    return out


def _xi_mean(r: float, a, h, b) -> np.ndarray:
    """Mean of ``xi_r(x, b)`` over ``x`` in ``[a, a + h]``, for ``a >= 0`` and ``h, b > 0``.

    It is ``Delta_h Delta_b x^{r+1} / ((r + 1) h)``; dropping the linear
    part of ``x^{r+1} = x + x (x^r - 1)`` leaves terms of the size of ``r``,
    ``h xi_r(a+h, b) + b xi_r(a+b, h) + a Delta_h Delta_b x^r``.  The last
    difference is taken in ``b`` where ``a < b``, its terms a factor 2 or
    more apart, and in ``h`` elsewhere, losing at most ``log10(a / h)`` digits.
    """
    mixed = np.where(a < b, xi(r, a + b, h) - xi(r, a, h), xi(r, a + h, b) - xi(r, a, b))
    return (xi(r, a + h, b) + (b / h) * xi(r, a + b, h) + (a / h) * mixed) / (1.0 + r)


def _sine_pole_free(r: float) -> float:
    """``pi / sin(pi r) - 1/r`` for ``0 < |r| <= 1/2``, as ``(z - sin z) / (r sin z)``, ``z = pi r``.

    ``z - sin z`` is summed from its Taylor series, whose 12th term is below
    1e-20 of the sum at ``|z| <= pi / 2``, so nothing cancels at small ``r``.
    """
    z = math.pi * r
    term, total = z, 0.0
    for k in range(1, 13):
        term *= -z * z / ((2 * k) * (2 * k + 1))
        total -= term
    return total / (r * math.sin(z))


def _kernel_weights(ctx: HurstContext, times: np.ndarray, v_grid: np.ndarray) -> np.ndarray:
    """Weights ``(nv, n + 1)`` of :func:`drift_apply` on the pinned ``times``.

    With ``x = -u/v`` and ``r = -eta``, ``F1 = eta c_h B(x)`` for
    ``B = B_r - 1/r`` and ``B_s(x) = integral_0^x y^{s-1} / (1 + y) dy``,
    whose pole at ``r = 0`` is the dropped constant: ``B = E - B_{r+1}``
    with ``E = (x^r - 1)/r``.  Its antiderivative is ``C = x B - B_{r+1}``,
    summed by :func:`~fbmkit.fbm._hyp2f1_unit_b` in an argument of at most 1/2:

    * ``x <= 1``: Pfaff's transformation (DLMF 15.8.1) gives
      ``(1 + x) B_{r+1}(x) = x^{r+1} 2F1(1, 1; r+2; x/(1+x)) / (r+1)``,
      and ``C = x E - (1 + x) B_{r+1}``;
    * ``x > 1``: the reflection ``B_r(x) = pi / sin(pi r) - B_{1-r}(1/x)``
      gives ``C = (1 + x) S - E - x^r 2F1(1, 1; 2-r; 1/(1+x)) / (1 - r)``
      with ``S = pi / sin(pi r) - 1/r``.

    In both, ``B = (E + C) / (1 + x)``, which gives ``F1`` at the first sample.
    """
    r = -ctx.eta
    x = -times / v_grid[:, None]
    c = np.zeros_like(x)
    pos = x > 0
    xp = x[pos]
    e = np.expm1(r * np.log(xp)) / r
    near = xp <= 1.0
    xn, xf = xp[near], xp[~near]
    c_p = np.empty_like(xp)
    series = _hyp2f1_unit_b(1.0, 2.0 + r, xn / (1.0 + xn))
    c_p[near] = xn * e[near] - xn ** (1.0 + r) * series / (1.0 + r)
    series = _hyp2f1_unit_b(1.0, 2.0 - r, 1.0 / (1.0 + xf))
    c_p[~near] = (1.0 + xf) * _sine_pole_free(r) - e[~near] - xf**r * series / (1.0 - r)
    c[pos] = c_p
    first = (np.expm1(r * np.log(x[:, 0])) / r + c[:, 0]) / (1.0 + x[:, 0])
    means = np.diff(c, axis=-1) / np.diff(x, axis=-1)
    return (ctx.eta * ctx.c_h) * _hat_weights(first, means)


def _driver_weights(ctx: HurstContext, times: np.ndarray, v_grid: np.ndarray) -> np.ndarray:
    """Weights ``(nv, n + 1)`` of :func:`drift_from_obm`: ``F1 = -c1 xi_eta(-s, v)``."""
    means = _xi_mean(ctx.eta, -times[1:], np.diff(times), v_grid[:, None])
    return -ctx.c1 * _hat_weights(xi(ctx.eta, -times[0], v_grid), means)


# ---------------------------------------------------------------------------
# The drift operator
# ---------------------------------------------------------------------------

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


def _kernel_operator(kspec: DriftKernelSpec, times: np.ndarray, v_grid: np.ndarray) -> np.ndarray:
    """Weights ``(nv, n + 1)`` of :func:`drift_apply` on pinned ``times``, after its tail check.

    At ``eta = 0`` the kernel vanishes and so do the weights.
    """
    ctx = kspec.ctx
    if ctx.eta == 0.0:
        return np.zeros((v_grid.size, times.size))
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
    return _kernel_weights(ctx, times, v_grid)


def drift_apply(kspec: DriftKernelSpec, times, values, v_grid) -> np.ndarray:
    """Apply the prediction operator to a past trajectory of the process.

    ``values`` is the observed past of the *driven* process at the negative
    ``times``, one path or a batch; returns the conditional-mean prediction
    at each ``v > 0`` in ``v_grid``, shape ``(nv,)`` or ``(paths, nv)``.
    """
    times, values = _pinned_past(times, values)
    return values @ _kernel_operator(kspec, times, _future_times(v_grid)).T


def _driver_operator(kspec: DriftKernelSpec, times: np.ndarray, v_grid: np.ndarray) -> np.ndarray:
    """Weights ``(nv, n + 1)`` of :func:`drift_from_obm` on pinned ``times``, after its tail check.

    At ``eta = 0`` the weights vanish.
    """
    ctx = kspec.ctx
    eta = ctx.eta
    if eta == 0.0:
        return np.zeros((v_grid.size, times.size))
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
    return _driver_weights(ctx, times, v_grid)


def drift_from_obm(kspec: DriftKernelSpec, times, values, v_grid) -> np.ndarray:
    """Prediction expressed through the past of the *driving* Brownian motion.

    ``(D X)_v = eta c1 integral_{t0}^0 xi_{eta-1}(-s, v) W_s ds`` for each
    ``v`` in ``v_grid``; ``values`` are the driver at the negative ``times``,
    one path or a batch, and the result has shape ``(nv,)`` or ``(paths, nv)``.
    """
    times, values = _pinned_past(times, values)
    return values @ _driver_operator(kspec, times, _future_times(v_grid)).T


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
    v_grid = _future_times(v_grid)
    idx = _regression_samples(times.size - 1)
    weights = regression_weights(hurst, times[idx], v_grid)
    return values[..., idx] @ weights


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


def _inversion_weights(ctx: HurstContext, times: np.ndarray, t_arr: np.ndarray) -> np.ndarray:
    """Weights ``(nt, n + 1)`` of :func:`pipiras_taqqu_invert` on the pinned ``times``.

    Below ``t`` the kernel stays ``xi_{-eta-1}(t-s, -t)``: split into
    ``(-s)^{-eta-1}`` less ``(t-s)^{-eta-1}``, a deep sample's two weights
    cancel at small ``|t|`` (2e-9 of the row's largest weight at
    ``t = -3e-6``, ``H = 0.05``, against 1.5e-13 here).
    """
    q = -ctx.eta
    weights = np.zeros((t_arr.size, times.size))
    for row, ti in zip(weights, t_arr):
        if ti == 0.0:
            continue
        # Above t: the mean of F1 = x^q over x = -s in [a, a + h].
        near = np.concatenate([[ti], times[times > ti]])
        h = np.diff(near)
        w_near = _hat_weights((-ti) ** q, xi(1.0 + q, -near[1:], h) / ((1.0 + q) * h))
        row[times.size + 1 - near.size:] = w_near[1:]
        z_t = w_near[0] + (-ti) ** q
        below = times[times < ti]
        if below.size:
            # Below t: the mean of F1 = xi_q(y, -t) over y = t - s in [a, a + h].
            deep = np.append(below, ti)
            w_deep = _hat_weights(
                xi(q, ti - below[0], -ti), _xi_mean(q, ti - deep[1:], np.diff(deep), -ti)
            )[:-1]
            row[:below.size] = w_deep
            z_t -= w_deep.sum()
        j, share = _bracket(times, ti)
        row[j] += (1.0 - share) * z_t
        row[j + 1] += share * z_t
    weights *= ctx.c_h / ctx.c1
    return weights


def _interpolation_weights(times: np.ndarray, t_arr: np.ndarray) -> np.ndarray:
    """Weights ``(nt, n + 1)`` of the linear interpolant of the pinned ``times`` at each ``t``."""
    weights = np.zeros((t_arr.size, times.size))
    for row, ti in zip(weights, t_arr):
        j, share = _bracket(times, ti)
        row[j], row[j + 1] = 1.0 - share, share
    return weights


def _bracket(times: np.ndarray, ti: float) -> tuple[int, float]:
    """``(j, share)``: ``ti`` lies in ``[times[j], times[j + 1]]``, ``share`` of the way along."""
    j = min(np.searchsorted(times, ti, side="right") - 1, times.size - 2)
    return j, (ti - times[j]) / (times[j + 1] - times[j])


def _inversion_operator(kspec: DriftKernelSpec, times: np.ndarray, t_arr: np.ndarray) -> np.ndarray:
    """Weights ``(nt, n + 1)`` of :func:`pipiras_taqqu_invert` on pinned ``times``, after its checks.

    At ``eta = 0`` the driver is the process: the weights interpolate it.
    """
    if not np.all(np.isfinite(t_arr) & (t_arr <= 0) & (t_arr >= times[0])):
        raise ValidationError("inversion times t must be finite and lie in [t0, 0]")
    ctx = kspec.ctx
    if ctx.eta == 0.0:
        return _interpolation_weights(times, t_arr)
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
    return _inversion_weights(ctx, times, t_arr)


def pipiras_taqqu_invert(kspec: DriftKernelSpec, times, values, t) -> np.ndarray:
    """Recover the driving Brownian motion at times ``t <= 0`` from the past of ``Z``.

    ``W_t * c1 / c_h = eta * integral_{t0}^t xi_{-eta-1}(t-s, -t) (Z_s - Z_t) ds
    + eta * integral_t^0 (-s)^{-eta-1} Z_s ds + (-t)^{-eta} Z_t``

    with ``Z`` observed as ``values`` at the negative ``times`` and
    interpolated linearly.  One weight row per ``t`` is applied to one path
    or a batch in one product; the result has shape ``(nt,)`` or
    ``(paths, nt)``, and a scalar ``t`` drops that axis.  Each integral takes
    exact hat weights on the nodes it spans, ``t`` included:
    ``F1 = (-s)^{-eta}`` above ``t`` and ``F1 = xi_{-eta}(t-s, -t)`` below it,
    where the node ``t`` carries ``Z_t - Z_t = 0``, so the weights stay
    finite where ``integral xi_{-eta-1}`` alone diverges (``eta > 0``).
    At ``eta = 0`` the driver equals the process and is returned exactly,
    as ``np.interp`` gives its interpolant.
    """
    times, values = _pinned_past(times, values)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    weights = _inversion_operator(kspec, times, t_arr)
    if kspec.ctx.eta == 0.0:  # the same interpolant, rounded as np.interp rounds it
        rows = [np.interp(t_arr, times, row) for row in values.reshape(-1, times.size)]
        out = np.reshape(rows, values.shape[:-1] + t_arr.shape)
    else:
        out = values @ weights.T
    return out[..., 0] if np.ndim(t) == 0 else out


# ---------------------------------------------------------------------------
# The route checks on joint draws of driver and driven process
# ---------------------------------------------------------------------------

def rel_l2(a: np.ndarray, b: np.ndarray) -> float:
    """Relative L2 distance of ``a`` from the reference ``b``.

    Against an all-zero reference (both prediction routes at H = 1/2) an
    equal ``a`` is 0 away and any other is infinitely far.
    """
    scale = np.sqrt(np.mean(b**2))
    if scale == 0.0:
        return 0.0 if np.array_equal(a, b) else math.inf
    return float(np.sqrt(np.mean((a - b) ** 2)) / scale)


def _draw_images(
    ctx: HurstContext, w_times, w_weights, z_times, z_weights, rng: np.random.Generator, paths: int
) -> np.ndarray:
    """``paths`` draws of ``(w_weights @ W, z_weights @ Z)`` for ``(W, Z)`` of the joint law.

    The images are drawn from their own covariance,
    :func:`~fbmkit.fbm.joint_wz_image_cov`, one row of the result
    ``(paths, kw + kz)`` per draw.  A zero covariance (both prediction
    routes at ``H = 1/2``) gives exact zeros, where the jitter ladder would
    draw noise.
    """
    cov = joint_wz_image_cov(ctx, w_times, w_weights, z_times, z_weights)
    if not cov.any():
        return np.zeros((paths, cov.shape[0]))
    return CovMatrix(cov).sample(rng, paths)


def prediction_routes(
    kspec: DriftKernelSpec, times, v_grid, rng: np.random.Generator, paths: int, windows=None
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Predict by the kernel route and by the driver route from one joint draw of the past.

    ``W`` and ``Z`` are drawn jointly on the past window ``times``.  For each
    of ``windows``, boolean masks over ``times`` (by default the whole
    window), :func:`drift_apply` reads ``Z`` and :func:`drift_from_obm`
    reads ``W`` at the masked times.  Returns one ``(kernel, driver)`` pair
    of ``(paths, nv)`` predictions per window.  Both tail checks run on
    every window before anything is drawn.  The predictions are linear
    images of the draw, so they are drawn from their own covariance
    (:func:`_draw_images`), and the window's is never formed.
    """
    times = _pinned_past(times, times)[0][:-1]
    v_grid = _future_times(v_grid)
    windows = [np.ones(times.size, dtype=bool)] if windows is None else windows
    nv = v_grid.size
    blocks = [slice(k * nv, (k + 1) * nv) for k in range(len(windows))]
    driver, kernel = np.zeros((2, len(windows) * nv, times.size))
    for rows, mask in zip(blocks, windows):
        sub = _pinned_past(times[mask], times[mask])[0]
        kernel[rows, mask] = _kernel_operator(kspec, sub, v_grid)[:, :-1]
        driver[rows, mask] = _driver_operator(kspec, sub, v_grid)[:, :-1]
    draw = _draw_images(kspec.ctx, times, driver, times, kernel, rng, paths)
    driver_draw, kernel_draw = draw[:, :driver.shape[0]], draw[:, driver.shape[0]:]
    return [(kernel_draw[:, rows], driver_draw[:, rows]) for rows in blocks]


def driver_roundtrip(
    kspec: DriftKernelSpec, times, rng: np.random.Generator, paths: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw ``W`` and ``Z`` jointly, then recover ``W`` from the past of ``Z``.

    The recovery times -1, -15/16, ..., -1/16 snap to their nearest sample of
    the past window ``times``.  The drawn driver there and the driver that
    :func:`pipiras_taqqu_invert` recovers from ``Z`` on ``times`` are linear
    images of one joint draw, so they are drawn from their own 32 x 32
    covariance (:func:`_draw_images`), after the inversion's checks.
    Returns ``(recovered, true, t)``, each of the first two of shape
    ``(paths, 16)``, and the snapped times.
    """
    pinned = _pinned_past(times, times)[0]
    times = pinned[:-1]
    t = np.array([times[np.argmin(np.abs(times - ti))] for ti in -np.linspace(1.0, 1.0 / 16, 16)])
    weights = _inversion_operator(kspec, pinned, t)[:, :-1]
    draw = _draw_images(kspec.ctx, t, np.eye(t.size), times, weights, rng, paths)
    return draw[:, t.size:], draw[:, :t.size], t

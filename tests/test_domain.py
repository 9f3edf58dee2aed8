"""The covariance closed forms against 40-digit mpmath over the windows the CLI reaches.

The past windows of ``drift`` and ``invert`` are ``inversion_grid(dt, u)``:
their times run from about ``-1e-7`` at the tip out to ``-u``.  Where a tip
time meets a deep one, ``|s|^{2H} + |t|^{2H} - |t - s|^{2H}`` formed in
floats cancels (the formed differences were off by up to 1.8 on these
grids at ``u = 1e12``), so these checks pair every such time with every
other.  Each grid is thinned to its four
innermost and four deepest times and every 16th between; each time also
enters with its sign flipped, so every sign case of each formula is met:
times of one sign and on opposite sides of 0 for :func:`fbm_cov`, and
``s, t <= 0``, ``s <= 0 < t`` and ``s > 0`` for :func:`cross_cov_wz`.
:func:`joint_wz_image_cov` with identity weights, which is the joint
covariance itself, is checked block by block against the same references
(the driver block against ``min(|s|, |t|)`` for times of one sign, 0
otherwise), on the window as built and sorted ascending.  Sorted, as every
library caller passes its times, and walked in panels of one row, the cross
block takes its closed form at every column at or below the row's time.  The budget is 1e-13 relative, entry by entry; an exact zero
must come out as zero.  The reference takes the float ``c1`` and
``eta + 1`` of :func:`make_context` as exact, so it checks the formulas,
not the constants (at ``u = 1e12`` an ulp of ``eta + 1`` alone moves
``u^{eta+1}`` by 3e-15).
"""

import functools

import mpmath
import numpy as np
import pytest

from fbmkit import gaussian
from fbmkit.context import make_context
from fbmkit.drift import inversion_grid
from fbmkit.fbm import cross_cov_wz, fbm_cov, joint_wz_image_cov

BUDGET = 1.0e-13


def thinned_window(u_deep: float) -> np.ndarray:
    """The times of ``inversion_grid(1/128, u_deep)`` checked, each with both signs."""
    grid = inversion_grid(1.0 / 128, u_deep=u_deep)
    n = grid.size
    keep = np.unique(np.r_[0:4, n - 4:n, 0:n:16])
    return np.concatenate([grid[keep], -grid[keep]])


def references(ctx, times: np.ndarray):
    """``Cov(Z_s, Z_t)``, ``Cov(W_s, Z_t)`` and ``Cov(W_s, W_t)`` over ``times`` in mpmath."""
    n = times.size
    zz, wz, ww = np.empty((n, n)), np.empty((n, n)), np.empty((n, n))
    with mpmath.workdps(40):
        p, q = 2 * mpmath.mpf(ctx.hurst), mpmath.mpf(ctx.eta + 1.0)
        c1 = mpmath.mpf(ctx.c1)
        x = [mpmath.mpf(float(v)) for v in times]

        def f(y):  # F(y) = y_+^q / q
            return y**q / q if y > 0 else mpmath.mpf(0)

        powers = [abs(v) ** p for v in x]
        antis = [f(v) for v in x]
        for i, s in enumerate(x):
            lead = f(-s) if s <= 0 else 0
            for j, t in enumerate(x):
                zz[i, j] = float((powers[i] + powers[j] - abs(t - s) ** p) / 2)
                wz[i, j] = float(c1 * (lead + antis[j] - f(t - s)))
                ww[i, j] = float(min(abs(s), abs(t))) if (s < 0) == (t < 0) else 0.0
    return zz, wz, ww


def worst_error(got: np.ndarray, ref: np.ndarray) -> float:
    """Largest relative error of ``got`` against ``ref``; inf where a zero is missed."""
    zero = ref == 0.0
    if np.any(got[zero] != 0.0):
        return np.inf
    return float(np.max(np.abs(got[~zero] / ref[~zero] - 1.0), initial=0.0))


@functools.cache
def window_and_references(hurst: float, u_deep: float):
    """The thinned window of ``u_deep`` and its three references, computed once."""
    times = thinned_window(u_deep)
    return (times, *references(make_context(hurst), times))


@pytest.mark.parametrize("u_deep,ascending", [
    *(pytest.param(u, False, id=str(u)) for u in (600.0, 1.0e7, 1.0e12)),
    *(pytest.param(u, True, id=f"{u}-sorted") for u in (600.0, 1.0e7, 1.0e12)),
])
@pytest.mark.parametrize("hurst", [0.1, 0.25, 0.75, 0.9])
def test_covariances_match_mpmath_at_tip_deep_pairs(hurst, u_deep, ascending, monkeypatch):
    ctx = make_context(hurst)
    times, zz, wz, ww = window_and_references(hurst, u_deep)
    if ascending:
        order = np.argsort(times)
        times = times[order]
        zz, wz, ww = (ref[np.ix_(order, order)] for ref in (zz, wz, ww))
        # Panels of one row, as a long window has few: each row's columns at
        # or below its time are then the closed form.
        monkeypatch.setattr(gaussian, "_PANEL_VALUES", times.size)
    s, t = times[:, None], times[None, :]
    n = times.size
    eye = np.eye(times.size)
    joint = joint_wz_image_cov(ctx, times, eye, times, eye)
    errors = {
        "fbm_cov": worst_error(fbm_cov(s, t, hurst), zz),
        "cross_cov_wz": worst_error(cross_cov_wz(ctx, s, t), wz),
        "joint ww": worst_error(joint[:n, :n], ww),
        "joint wz": worst_error(joint[:n, n:], wz),
        "joint zw": worst_error(joint[n:, :n], wz.T),
        "joint zz": worst_error(joint[n:, n:], zz),
    }
    assert max(errors.values()) <= BUDGET, errors

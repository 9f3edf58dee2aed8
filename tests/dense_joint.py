"""The dense joint covariance of the driver and the driven process, as a test oracle.

The library never forms it: its route checks draw linear images of the
joint law from ``A C A^T`` (:func:`fbmkit.fbm.joint_wz_image_cov`), built
by row panels.  Here ``C`` is broadcast whole from the entry formulas, so
``A @ C @ A.T`` is an independent route to that product, and a Cholesky
factor of ``C`` an independent route to the joint draws.

:func:`walked_image_cov` is the library's panel walk as it stood before it
skipped any work: every cross entry goes through :func:`cross_cov_wz` and
every ``fbm_cov`` entry takes the sign of ``s * t``
(:func:`signed_fbm_cov`).  The library's walk must give its bytes.
"""

from functools import partial

import numpy as np

from fbmkit.context import xi
from fbmkit.fbm import _driver_cov, _symmetric_product, cross_cov_wz, fbm_cov
from fbmkit.gaussian import _row_panels


def joint_wz_cov(ctx, w_times, z_times) -> np.ndarray:
    """Covariance of ``(W at w_times, Z at z_times)``, the driver block first."""
    w, z = np.asarray(w_times, dtype=float), np.asarray(z_times, dtype=float)
    nw = w.size
    out = np.empty((nw + z.size,) * 2)
    same_side = (w[:, None] < 0) == (w[None, :] < 0)
    out[:nw, :nw] = np.where(same_side, np.minimum(np.abs(w)[:, None], np.abs(w)[None, :]), 0.0)
    out[nw:, nw:] = fbm_cov(z[:, None], z[None, :], ctx.hurst)
    out[:nw, nw:] = cross_cov_wz(ctx, w[:, None], z[None, :])
    out[nw:, :nw] = out[:nw, nw:].T
    return out


def signed_fbm_cov(s, t, hurst):
    """:func:`fbm_cov` with ``lo`` signed by ``s * t`` on every entry, whatever the signs."""
    s, t = np.asarray(s, dtype=float), np.asarray(t, dtype=float)
    p, s_abs, t_abs = 2.0 * hurst, np.abs(s), np.abs(t)
    x = xi(p, np.abs(t - s), np.copysign(np.minimum(s_abs, t_abs), s * t))
    out = 0.5 * (np.minimum(s_abs**p, t_abs**p) + x)
    return float(out) if out.ndim == 0 else out


def walked_image_cov(ctx, w_times, w_weights, z_times, z_weights) -> np.ndarray:
    """``A C A^T`` walked by row panels, each entry of ``C`` by its full formula."""
    w_times, z_times = np.asarray(w_times, dtype=float), np.asarray(z_times, dtype=float)
    kw = w_weights.shape[0]
    out = np.empty((kw + z_weights.shape[0],) * 2)
    out[:kw, :kw] = w_weights @ _symmetric_product(w_times, _driver_cov, w_weights)
    zz = _symmetric_product(z_times, partial(signed_fbm_cov, hurst=ctx.hurst), z_weights)
    out[kw:, kw:] = z_weights @ zz
    cross = np.empty((w_times.size, z_weights.shape[0]))
    for rows in _row_panels(w_times.size, z_times.size):
        cross[rows] = cross_cov_wz(ctx, w_times[rows, None], z_times[None, :]) @ z_weights.T
    out[:kw, kw:] = w_weights @ cross
    out[kw:, :kw] = out[:kw, kw:].T
    return 0.5 * (out + out.T)

"""The dense joint covariance of the driver and the driven process, as a test oracle.

The library never forms it: its route checks draw linear images of the
joint law from ``A C A^T`` (:func:`fbmkit.fbm.joint_wz_image_cov`), built
by row panels.  Here ``C`` is broadcast whole from the entry formulas, so
``A @ C @ A.T`` is an independent route to that product, and a Cholesky
factor of ``C`` an independent route to the joint draws.
"""

import numpy as np

from fbmkit.fbm import cross_cov_wz, fbm_cov


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

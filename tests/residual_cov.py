"""The covariance of the future residual after regression on a finite past, as a test oracle.

Acceptance criterion 2 forms it inline, ``C_ff - C_pf^T W``, from the
regression weights ``W`` it already holds for its orthogonality check, so
each window is factored once.  Here the weights come from their own call of
:func:`fbmkit.drift.regression_weights`, so the tests check the formula's
properties without the criterion's loop.
"""

import numpy as np

from fbmkit.drift import regression_weights
from fbmkit.fbm import fbm_cov, fbm_cov_matrix


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

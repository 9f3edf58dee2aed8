"""Composite Gauss-Legendre quadrature on graded meshes.

No library module calls this one: the path operators of :mod:`fbmkit.drift`
take exact hat-function weights, and the gamma ladder and the Levy
covariance sum closed-form series.  :mod:`fbmkit.drift` imports only
``PATH_TOL`` from here.  The module stays because the benchmark traces
``panel_nodes``, ``graded_breaks`` and ``integrate_checked`` by name, and
the tests integrate reference integrals with them.  The design is built
around integrands with power-law endpoint singularities:

* ``graded_breaks`` produces geometrically refined panels toward a singular
  endpoint, so fixed-order Gauss-Legendre converges on each panel even when
  the integrand behaves like ``(x - a)**p`` with ``p > -1``.
* ``integrate_checked`` compares an n-node rule with a 2n-node rule on the
  same mesh and raises :class:`~fbmkit.errors.AccuracyError` when the
  discrepancy exceeds the budget, so accuracy failures surface as errors
  instead of silently wrong numbers.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import AccuracyError, ValidationError

__all__ = [
    "panel_nodes",
    "integrate",
    "integrate_checked",
    "graded_breaks",
]


# Successive panel-width ratio of graded meshes toward a singular endpoint.
GRADING_RATIO = 0.5
# Gauss-Legendre order of ``integrate_checked``; the check reruns with twice
# as many nodes on the same mesh.
CHECKED_NODES = 12
# Relative error budget of the node-refinement check.
REL_TOL = 1.0e-9
# Relative budget for the standard deviation dropped by truncating a random
# integral to the observed window; kept apart from ``REL_TOL`` because the
# truncation perturbs the law of the result, not just its value.
PATH_TOL = 0.05


def panel_nodes(breaks: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on each panel of a partition.

    Parameters
    ----------
    breaks:
        Strictly increasing 1-d array of panel boundaries (length ``m + 1``
        for ``m`` panels).
    n:
        Nodes per panel.

    Returns
    -------
    (nodes, weights):
        Flat arrays of length ``m * n``, ordered panel by panel.
    """
    breaks = np.asarray(breaks, dtype=float)
    if breaks.ndim != 1 or breaks.size < 2:
        raise ValidationError("breaks must be a 1-d array with at least 2 entries")
    widths = np.diff(breaks)
    if np.any(widths <= 0):
        raise ValidationError("breaks must be strictly increasing")
    x, w = leggauss(n)
    mid = 0.5 * (breaks[1:] + breaks[:-1])
    half = 0.5 * widths
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def integrate(f, breaks: np.ndarray, n: int) -> float:
    """Integrate a vectorized callable over the partition ``breaks``."""
    nodes, weights = panel_nodes(breaks, n)
    values = np.asarray(f(nodes), dtype=float)
    return float(weights @ values)


def integrate_checked(f, breaks: np.ndarray, *, scale: float = 0.0) -> float:
    """Integrate with an internal node-refinement error estimate.

    The integral is computed with ``CHECKED_NODES`` nodes per panel and with
    twice as many on the same mesh; their discrepancy is compared against
    the budget ``REL_TOL * max(|I|, scale)``.

    Raises
    ------
    AccuracyError
        If the error estimate exceeds the budget, or the integral or its
        error estimate is not finite.
    """
    coarse = integrate(f, breaks, CHECKED_NODES)
    fine = integrate(f, breaks, 2 * CHECKED_NODES)
    err = abs(fine - coarse)
    ref = max(abs(fine), scale)
    budget = REL_TOL * ref if ref > 0 else REL_TOL
    # NaN compares False to everything, so a non-finite integral or error
    # estimate is rejected explicitly rather than returned as a value.
    if not (np.isfinite(fine) and err <= budget):
        raise AccuracyError(
            f"quadrature error estimate {err:.3e} exceeds budget {budget:.3e}",
            estimate=err,
            budget=budget,
        )
    return fine


def graded_breaks(
    a: float,
    b: float,
    *,
    toward: str = "left",
    levels: int = 40,
) -> np.ndarray:
    """Panel boundaries on ``[a, b]`` geometrically refined toward an endpoint.

    With ``toward='left'`` the panel widths shrink by ``GRADING_RATIO`` toward
    ``a``, so the innermost panel has width
    ``(b - a) * GRADING_RATIO**levels`` — small enough that power-law endpoint
    singularities are resolved.  ``'right'`` mirrors this.
    """
    if not (b > a):
        raise ValidationError(f"need b > a, got a={a}, b={b}")
    if toward not in ("left", "right"):
        raise ValidationError(f"toward must be 'left' or 'right', got {toward!r}")
    length = b - a
    # Offsets from the refined endpoint: length * GRADING_RATIO**levels, ..., length.
    offsets = length * np.power(GRADING_RATIO, np.arange(levels, -1, -1, dtype=float))
    if toward == "left":
        pts = a + offsets
        pts = np.concatenate([[a], pts])
    else:
        pts = b - offsets[::-1]
        pts = np.concatenate([pts, [b]])
    # Collapse panels that underflow to zero width.
    keep = np.concatenate([[True], np.diff(pts) > 0])
    return pts[keep]


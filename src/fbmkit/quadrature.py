"""Composite Gauss-Legendre quadrature on graded meshes.

Every deterministic integral in this package (covariance kernels, drift
weights, far-field tails) goes through this module.  The design is built
around integrands with power-law endpoint singularities and slowly decaying
power-law tails:

* ``graded_breaks`` produces geometrically refined panels toward a singular
  endpoint, so fixed-order Gauss-Legendre converges on each panel even when
  the integrand behaves like ``(x - a)**p`` with ``p > -1``.
* ``geometric_breaks`` produces geometrically *growing* panels toward a far
  endpoint, the economical mesh for integrable power-law tails.
* ``integrate_checked`` compares an n-node rule with a 2n-node rule on the
  same mesh and raises :class:`~fbmkit.errors.AccuracyError` when the
  discrepancy exceeds the budget, so accuracy failures surface as errors
  instead of silently wrong numbers.

Truncating an infinite domain is handled by the *caller* supplying an
analytic bound for the discarded tail (see ``power_tail_bound``); the bound
is treated as an error contribution, never added back as a correction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import AccuracyError, ValidationError

__all__ = [
    "QuadratureSpec",
    "DEFAULT_QUAD",
    "panel_nodes",
    "integrate",
    "integrate_checked",
    "graded_breaks",
    "geometric_breaks",
    "aligned_breaks",
    "mesh_with_singularities",
    "power_tail_bound",
]


@dataclass(frozen=True)
class QuadratureSpec:
    """Tuning knobs for deterministic integrals.

    Attributes
    ----------
    u_max:
        Truncation horizon for integrals over unbounded past ``(-inf, 0]``.
    grading_ratio:
        Successive panel-width ratio of graded meshes (in ``(0, 1)``).
    grading_levels:
        Number of geometric refinement levels toward a singular endpoint.
    nodes_per_panel:
        Gauss-Legendre order used on each panel.
    growth_ratio:
        Successive panel-width ratio of far-field meshes (``> 1``).
    rel_tol:
        Relative error budget for deterministic node-refinement checks.
    path_tol:
        Relative error budget for stochastic truncation effects (kept
        separate from ``rel_tol`` because truncating a random integral
        perturbs the *law* of the result, not just its value).
    """

    u_max: float = 1.0e3
    grading_ratio: float = 0.5
    grading_levels: int = 40
    nodes_per_panel: int = 8
    growth_ratio: float = 2.0
    rel_tol: float = 1.0e-9
    path_tol: float = 0.05

    def __post_init__(self) -> None:
        if not (self.u_max > 0):
            raise ValidationError(f"u_max must be positive, got {self.u_max}")
        if not (0.0 < self.grading_ratio < 1.0):
            raise ValidationError(
                f"grading_ratio must lie in (0, 1), got {self.grading_ratio}"
            )
        if self.grading_levels < 1:
            raise ValidationError(
                f"grading_levels must be >= 1, got {self.grading_levels}"
            )
        if self.nodes_per_panel < 1:
            raise ValidationError(
                f"nodes_per_panel must be >= 1, got {self.nodes_per_panel}"
            )
        if not (self.growth_ratio > 1.0):
            raise ValidationError(
                f"growth_ratio must exceed 1, got {self.growth_ratio}"
            )
        if not (self.rel_tol > 0):
            raise ValidationError(f"rel_tol must be positive, got {self.rel_tol}")
        if not (self.path_tol > 0):
            raise ValidationError(f"path_tol must be positive, got {self.path_tol}")

    def with_updates(self, **kwargs) -> "QuadratureSpec":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


DEFAULT_QUAD = QuadratureSpec()


@lru_cache(maxsize=64)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


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
    x, w = _leggauss(n)
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


def integrate_checked(
    f,
    breaks: np.ndarray,
    spec: QuadratureSpec = DEFAULT_QUAD,
    *,
    extra_error: float = 0.0,
    budget: float | None = None,
    scale: float | None = None,
) -> float:
    """Integrate with an internal node-refinement error estimate.

    The integral is computed with ``spec.nodes_per_panel`` and with twice as
    many nodes on the same mesh; their discrepancy plus ``extra_error``
    (e.g. an analytic truncation bound) is compared against the budget
    ``budget`` if given, else ``spec.rel_tol * max(|I|, scale)``.

    Raises
    ------
    AccuracyError
        If the total error estimate exceeds the budget, or the integral or
        its error estimate is not finite.
    """
    coarse = integrate(f, breaks, spec.nodes_per_panel)
    fine = integrate(f, breaks, 2 * spec.nodes_per_panel)
    err = abs(fine - coarse) + extra_error
    if budget is None:
        ref = max(abs(fine), scale if scale is not None else 0.0)
        budget = spec.rel_tol * ref if ref > 0 else spec.rel_tol
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
    ratio: float = 0.5,
    levels: int = 40,
) -> np.ndarray:
    """Panel boundaries on ``[a, b]`` geometrically refined toward an endpoint.

    With ``toward='left'`` the panel widths shrink by ``ratio`` toward ``a``,
    so the innermost panel has width ``(b - a) * ratio**levels`` — small
    enough that power-law endpoint singularities are resolved.  ``'right'``
    mirrors this; ``'both'`` splits at the midpoint and grades each half.
    """
    if not (b > a):
        raise ValidationError(f"need b > a, got a={a}, b={b}")
    if toward == "both":
        mid = 0.5 * (a + b)
        left = graded_breaks(a, mid, toward="left", ratio=ratio, levels=levels)
        right = graded_breaks(mid, b, toward="right", ratio=ratio, levels=levels)
        return np.concatenate([left, right[1:]])
    if toward not in ("left", "right"):
        raise ValidationError(f"toward must be 'left', 'right' or 'both', got {toward!r}")
    length = b - a
    # Offsets from the refined endpoint: length * ratio**levels, ..., length.
    offsets = length * np.power(ratio, np.arange(levels, -1, -1, dtype=float))
    if toward == "left":
        pts = a + offsets
        pts = np.concatenate([[a], pts])
    else:
        pts = b - offsets[::-1]
        pts = np.concatenate([pts, [b]])
    # Collapse panels that underflow to zero width.
    keep = np.concatenate([[True], np.diff(pts) > 0])
    return pts[keep]


def aligned_breaks(
    times: np.ndarray,
    *,
    ratio: float = 0.5,
    levels: int = 40,
) -> np.ndarray:
    """Panel boundaries aligned with sample times, sub-graded at the right end.

    When integrating a kernel against a piecewise-linear interpolant of
    sampled data, panels must coincide with the sample intervals — otherwise
    the interpolant's kinks fall inside panels and fixed-order Gauss-Legendre
    stops converging as the sampling densifies.  The final interval is
    additionally refined toward its right endpoint, where the kernels used in
    this package have their integrable singularity.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 2:
        raise ValidationError("times must be a 1-d array with at least 2 entries")
    if np.any(np.diff(times) <= 0):
        raise ValidationError("times must be strictly increasing")
    last = graded_breaks(
        times[-2], times[-1], toward="right", ratio=ratio, levels=levels
    )
    return np.concatenate([times[:-2], last])


def geometric_breaks(
    start: float,
    end: float,
    *,
    first_width: float,
    growth: float = 2.0,
) -> np.ndarray:
    """Panel boundaries from ``start`` to ``end`` with geometrically growing widths.

    The first panel has width ``first_width`` and each subsequent panel is
    ``growth`` times wider, the natural mesh for integrable far-field tails.
    """
    if not (end > start):
        raise ValidationError(f"need end > start, got start={start}, end={end}")
    if not (first_width > 0):
        raise ValidationError(f"first_width must be positive, got {first_width}")
    if not (growth > 1.0):
        raise ValidationError(f"growth must exceed 1, got {growth}")
    pts = [start]
    width = first_width
    pos = start
    # Cap panel count defensively; geometric growth reaches any horizon fast.
    for _ in range(10_000):
        pos = pos + width
        if pos >= end - 1.0e-12 * max(abs(end), 1.0):
            break
        pts.append(pos)
        width *= growth
    pts.append(end)
    return np.asarray(pts, dtype=float)


def mesh_with_singularities(
    a: float,
    b: float,
    sing: tuple[float, ...],
    spec: QuadratureSpec = DEFAULT_QUAD,
) -> np.ndarray:
    """Partition ``[a, b]`` graded toward each singular point in ``sing``.

    Singular points must be endpoints or interior points of ``[a, b]``;
    interior singularities split the interval and each side is graded
    toward the singularity.
    """
    if not (b > a):
        raise ValidationError(f"need b > a, got a={a}, b={b}")
    tol = 1.0e-12 * max(abs(a), abs(b), 1.0)
    interior = sorted(s for s in sing if a + tol < s < b - tol)
    grade_left = any(abs(s - a) <= tol for s in sing)
    grade_right = any(abs(s - b) <= tol for s in sing)
    anchors = [a, *interior, b]
    pieces: list[np.ndarray] = []
    for lo, hi in zip(anchors[:-1], anchors[1:]):
        toward_lo = grade_left if lo == a else True
        toward_hi = grade_right if hi == b else True
        if toward_lo and toward_hi:
            toward = "both"
        elif toward_lo:
            toward = "left"
        elif toward_hi:
            toward = "right"
        else:
            pieces.append(np.asarray([lo, hi]))
            continue
        pieces.append(
            graded_breaks(
                lo, hi, toward=toward,
                ratio=spec.grading_ratio, levels=spec.grading_levels,
            )
        )
    out = pieces[0]
    for piece in pieces[1:]:
        out = np.concatenate([out, piece[1:]])
    return out


def power_tail_bound(u_max: float, exponent: float, coefficient: float = 1.0) -> float:
    """Bound ``coefficient * integral_{u_max}^{inf} u**exponent du`` for ``exponent < -1``.

    Used to bound the mass discarded when an infinite integral is truncated
    at ``u_max``; the caller feeds the result to ``integrate_checked`` as
    ``extra_error``.
    """
    if exponent >= -1.0:
        raise ValidationError(
            f"tail integral diverges: exponent {exponent} >= -1"
        )
    if not (u_max > 0):
        raise ValidationError(f"u_max must be positive, got {u_max}")
    return abs(coefficient) * u_max ** (exponent + 1.0) / (-(exponent + 1.0))

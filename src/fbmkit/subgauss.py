"""Explicit tail constants for the sup of Hölder-regular centered Gaussian processes.

For a centered Gaussian process ``X`` on [0, 1] with ``X_0 = 0`` and
``Var(X_t - X_s) <= |t - s|^(2 theta)`` for some ``theta`` in (0, 1], the
running sup ``sup_t |X_t|`` has a sub-Gaussian tail

    Pr(sup |X| >= x) <= c_d(theta) * exp(-c_c(theta) * x^2)   for all x >= 0.

The constants come from a chaining argument over dyadic levels: level ``i``
contributes increments of scale ``2^(-i theta)``, the level budgets are the
geometric weights ``(1 - 2^(-theta/2)) * 2^(-i theta/2)`` (summing to 1), and
the resulting tail coefficient is ``c_c = (1 - 2^(-theta/2))^2 / 2``.  The raw
chained bound ``4 exp(-c_c x^2)`` is only valid for
``x >= c_o = 2 / ((1 - 2^(-theta/2)) sqrt(theta))``; taking
``c_d = max(4, exp(c_c c_o^2)) = max(4, exp(2/theta))`` patches it so the
displayed inequality holds for every ``x >= 0`` (for ``x < c_o`` the bound is
then >= 1, hence trivially true).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = [
    "SubGaussianConstants",
    "subgaussian_constants",
    "subgaussian_bound",
]

# Smallest admissible theta: below 2/ln(DBL_MAX) = 0.00281776...,
# c_d = exp(2/theta) overflows a double.  At that value itself exp overflows
# by rounding, so the limit is rounded up in the tenth decimal.
THETA_MIN = math.ceil(2.0e10 / math.log(sys.float_info.max)) / 1.0e10


@dataclass(frozen=True)
class SubGaussianConstants:
    """Tail constants: Pr(sup |X| >= x) <= c_d * exp(-c_c * x^2)."""

    theta: float
    c_c: float
    c_d: float
    c_o: float

    def __post_init__(self) -> None:
        if not (0.0 < self.theta <= 1.0):
            raise ValidationError(f"theta must lie in (0, 1], got {self.theta}")
        if not (self.c_c > 0.0 and self.c_d > 0.0 and self.c_o > 0.0):
            raise ValidationError("constants must be positive")


def subgaussian_constants(theta: float) -> SubGaussianConstants:
    """Chaining constants for Hölder exponent ``theta`` in (0, 1].

    c_c is the exponent coefficient, c_o the validity threshold of the raw
    chained bound, and c_d = max(4, exp(c_c c_o^2)) the patched prefactor
    making the bound valid on all of [0, infinity).  Note
    c_c * c_o^2 = 2 / theta exactly.  Below ``THETA_MIN`` c_d overflows, and
    the theta is rejected.
    """
    theta = float(theta)
    if not (0.0 < theta <= 1.0):
        raise ValidationError(f"theta must lie in (0, 1], got {theta}")
    if theta < THETA_MIN:
        raise ValidationError(
            f"theta must be at least {THETA_MIN} (c_d = exp(2/theta) overflows"
            f" below it), got {theta}"
        )
    gap = 1.0 - 2.0 ** (-theta / 2.0)
    c_c = gap * gap / 2.0
    c_o = 2.0 / (gap * math.sqrt(theta))
    c_d = max(4.0, math.exp(c_c * c_o * c_o))
    return SubGaussianConstants(theta=theta, c_c=c_c, c_d=c_d, c_o=c_o)


def subgaussian_bound(consts: SubGaussianConstants, x) -> np.ndarray | float:
    """Evaluate the tail bound c_d * exp(-c_c x^2) at every finite x >= 0.

    Accepts scalars or arrays; values are >= 1 for x <= c_o by construction
    of the patched prefactor.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all((arr >= 0.0) & (arr < np.inf)):
        raise ValidationError("tail bound is defined for finite x >= 0")
    # exp(-c_c x^2) is 0 from x^2 = 1500 / c_c on; the cap keeps x * x finite.
    arr = np.minimum(arr, math.sqrt(1500.0 / consts.c_c))
    out = consts.c_d * np.exp(-consts.c_c * arr * arr)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out

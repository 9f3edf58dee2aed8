"""Hurst-parameter context: shared constants and stable power-difference kernels.

Everything downstream of a Hurst index ``H`` is driven by two numbers,

* ``eta = H - 1/2``, the moving-average kernel exponent, and
* ``c1``, the normalization making the moving-average representation have
  unit variance at time 1,

plus the reflection constant ``c_h = 1 / (Pi(eta) * Pi(-eta))`` with
``Pi(x) = Gamma(x + 1)``.  :func:`make_context` computes them once and the
result is passed around explicitly.

The module also hosts the two scalar kernels used everywhere:

* ``pow0(x, r)`` — ``x**r`` under the convention ``0**r = 0`` for *every*
  real ``r`` (the moving-average kernels all adopt it), and
* ``xi(r, a, b) = (a + b)**r - a**r`` — evaluated via ``expm1``/``log1p``
  so that the catastrophic cancellation at ``b / a -> 0`` is avoided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = ["pow0", "xi", "HurstContext", "make_context"]


def pow0(x, r: float):
    """``x**r`` with the convention ``0**r = 0`` for every real ``r``.

    Accepts scalars or arrays; ``x`` must be nonnegative.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValidationError("pow0 requires nonnegative arguments")
    with np.errstate(divide="ignore"):
        out = np.where(x > 0, np.power(np.where(x > 0, x, 1.0), r), 0.0)
    if out.ndim == 0:
        return float(out)
    return out


def xi(r: float, a, b):
    """Stable evaluation of ``(a + b)**r - a**r``.

    Requires ``a >= 0`` and ``a + b >= 0`` elementwise (``b`` may be
    negative).  Uses ``a**r * expm1(r * log1p(b / a))`` for ``a > 0`` so the
    small-``b/a`` regime loses no significant digits, with explicit branches
    for ``a == 0`` and ``a + b == 0`` under the ``0**r = 0`` convention.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    # a**r depends on a alone, so it is taken before broadcasting against b.
    with np.errstate(over="ignore"):
        a_pow = np.power(np.where(a > 0, a, 1.0), r)
    a, b, a_pow = np.broadcast_arrays(a, b, a_pow)
    if np.any(a < 0):
        raise ValidationError("xi requires a >= 0")
    s = a + b
    if np.any(s < -1.0e-12 * np.maximum(a, 1.0)):
        raise ValidationError("xi requires a + b >= 0")
    interior = (a > 0) & (s > 0)
    a_safe = np.where(interior, a, 1.0)
    ratio = np.where(interior, b, 0.0) / a_safe
    with np.errstate(invalid="ignore", over="ignore"):
        core = a_pow * np.expm1(r * np.log1p(ratio))
    at_zero_sum = (a > 0) & ~(s > 0)      # a + b == 0:  0**r - a**r = -a**r
    from_zero = ~(a > 0)                  # a == 0:      (b)**r - 0   = b**r
    out = np.where(interior, core, 0.0)
    if np.any(at_zero_sum):
        out = np.where(at_zero_sum, -a_pow, out)
    if np.any(from_zero):
        b_pos = (np.abs(b) > 0) & from_zero
        out = np.where(
            b_pos, np.power(np.where(b_pos, np.abs(b), 1.0), r), out
        )
        out = np.where(from_zero & ~b_pos, 0.0, out)
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class HurstContext:
    """Constants attached to a Hurst index ``H``.

    Attributes
    ----------
    hurst:
        The Hurst index, in ``(0, 1)``.
    eta:
        ``H - 1/2``, the moving-average kernel exponent.
    c1:
        Normalization of the moving-average representation: the process
        ``c1 * integral ((t - s)_+**eta - (-s)_+**eta) dW_s`` has variance
        ``t**(2 H)``; in closed form
        ``c1 = sqrt(2 H sin(pi H) Gamma(2 H)) / Gamma(H + 1/2)``.
    c_h:
        ``1 / (Pi(eta) * Pi(-eta))`` with ``Pi(x) = Gamma(x + 1)``; appears
        in the inverse representation recovering the driving noise.
    """

    hurst: float
    eta: float
    c1: float
    c_h: float


def make_context(hurst: float) -> HurstContext:
    """Build the :class:`HurstContext` for a Hurst index in ``(0, 1)``."""
    hurst = float(hurst)
    if not (0.0 < hurst < 1.0):
        raise ValidationError(f"hurst must lie in (0, 1), got {hurst}")
    eta = hurst - 0.5
    if eta == 0.0:
        # Ordinary Brownian motion: the kernel difference vanishes.
        return HurstContext(hurst=hurst, eta=0.0, c1=1.0, c_h=1.0)
    # Mandelbrot & Van Ness (1968), SIAM Rev. 10.  sin(pi H) is taken at
    # min(H, 1 - H), where 1 - H is exact in floats, so c1 keeps full
    # relative precision as H -> 1 and sin(pi H) -> 0.  Below H = 1e-150, where
    # 2H sin(pi H) underflows, 2H Gamma(2H) is taken as Gamma(2H + 1).
    sine = math.sin(math.pi * min(hurst, 1.0 - hurst))
    c1 = math.sqrt(
        sine * math.gamma(2.0 * hurst + 1.0) if hurst < 1.0e-150
        else 2.0 * hurst * sine * math.gamma(2.0 * hurst)
    ) / math.gamma(hurst + 0.5)
    c_h = 1.0 / (math.gamma(eta + 1.0) * math.gamma(1.0 - eta))
    return HurstContext(hurst=hurst, eta=eta, c1=c1, c_h=c_h)

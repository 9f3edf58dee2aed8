"""Hurst-parameter context: shared constants and stable power-difference kernels.

Everything downstream of a Hurst index ``H`` is driven by two numbers,

* ``eta = H - 1/2``, the moving-average kernel exponent, and
* ``c1``, the normalization making the moving-average representation have
  unit variance at time 1,

plus the reflection constant ``c_h = 1 / (Pi(eta) * Pi(-eta))`` with
``Pi(x) = Gamma(x + 1)``.  :func:`make_context` computes them once and the
result is passed around explicitly.

The module also hosts the scalar kernel used everywhere, the power
difference ``xi(r, a, b) = (a + b)**r - a**r``, evaluated via
``expm1``/``log1p`` so that the catastrophic cancellation at ``b / a -> 0``
is avoided, under the convention ``0**r = 0`` for every real ``r`` (the
moving-average kernels all adopt it).  The fBm covariances and the driver's
cross covariance take every difference of powers through it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError

__all__ = ["xi", "HurstContext", "make_context"]


def xi(r: float, a, b):
    """Stable evaluation of ``(a + b)**r - a**r``.

    Requires ``a >= 0`` and ``a + b >= 0`` elementwise (``b`` may be
    negative).  Uses ``a**r * expm1(r * log1p(b / a))`` so the small-``b/a``
    regime loses no significant digits, then sets only the entries with
    ``a == 0`` or ``a + b <= 0``, under the ``0**r = 0`` convention; a nan
    entry stays nan.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if (a_min := a.min(initial=np.inf)) < 0:
        raise ValidationError("xi requires a >= 0")
    # a**r is taken on a's own shape, before broadcasting; it is unused at a == 0.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_pow = np.power(a, r)
        s = a + b
        s_min = s.min(initial=np.inf)
        if s_min < 0 and np.any(s < -1.0e-12 * np.maximum(a, 1.0)):
            raise ValidationError("xi requires a + b >= 0")
        out = _xi_scaled(r, a, b, a_pow, np.empty(s.shape))
    # a + b == 0: -a**r.  a == 0: |b|**r, 0 at b == 0.  A nan is in neither
    # set, so it passes through.
    if not (a_min > 0 and s_min > 0):
        edge = (a == 0) | (s <= 0)
        a_e, b_e = np.broadcast_to(a, s.shape)[edge], np.abs(np.broadcast_to(b, s.shape)[edge])
        b_pow = np.where(b_e > 0, np.power(np.where(b_e > 0, b_e, 1.0), r), 0.0)
        out[edge] = np.where(a_e > 0, -np.broadcast_to(a_pow, s.shape)[edge], b_pow)
    return float(out) if out.ndim == 0 else out


def _xi_scaled(r: float, a, b, a_pow, out: np.ndarray) -> np.ndarray:
    """``a_pow * expm1(r * log1p(b / a))`` into ``out``: :func:`xi` without its checks or edge path.

    ``out`` may be ``a`` itself.  Callers set the floating-point error state.
    """
    np.divide(b, a, out=out)
    np.log1p(out, out=out)
    np.multiply(out, r, out=out)
    np.expm1(out, out=out)
    return np.multiply(out, a_pow, out=out)


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

    __slots__ = ("hurst", "eta", "c1", "c_h")

    def __init__(self, hurst: float, eta: float, c1: float, c_h: float) -> None:
        self.hurst, self.eta, self.c1, self.c_h = hurst, eta, c1, c_h


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

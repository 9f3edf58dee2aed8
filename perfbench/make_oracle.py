"""Regenerate ``oracle.json``, the high-precision reference table of the benchmark.

The benchmark only reads the table; mpmath runs here and in the table's test.
Every value is computed from its defining formula, independently of the
routes fbmkit uses:

* ``c1`` from the Mandelbrot--Van Ness closed form
  ``c1 = sqrt(2 H sin(pi H) Gamma(2 H)) / Gamma(H + 1/2)``;
* ``levy_integral``: ``integral_0^s (s - u)^eta (t - u)^eta du`` by
  ``mpmath.quad`` (the one-sided covariance is ``c1**2`` times it);
* ``drift_kernel``: the prediction kernel
  ``K(u, v) = eta c_h (eta integral_{-inf}^0 J(v, u, s) ds
  - v (v - u)^{eta - 1} (-u)^{-eta - 1})`` with ``J`` written literally and
  the ``s``-integral split at ``u``, ``u/2`` and ``0``.

Run ``python3 perfbench/make_oracle.py`` to rewrite the table.
"""

from __future__ import annotations

import json
import os

import mpmath as mp

TABLE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "oracle.json")

WORK_DPS = 50
REPORT_DPS = 30

C1_HURSTS = ("0.1", "0.25", "0.75", "0.95")
LEVY_POINTS = tuple(
    (s, t, h)
    for h in C1_HURSTS
    for s, t in (("0.3", "1"), ("1", "1.0009765625"), ("0.0009765625", "1"))
)
KERNEL_POINTS = tuple(
    (h, u, v)
    for h in ("0.25", "0.75")
    for u, v in (("-0.01", "0.5"), ("-1", "0.125"), ("-1", "2"), ("-100", "1"))
)


def c1_closed_form(hurst):
    h = mp.mpf(hurst)
    return mp.sqrt(2 * h * mp.sin(mp.pi * h) * mp.gamma(2 * h)) / mp.gamma(h + mp.mpf(1) / 2)


def levy_integral(s, t, hurst):
    s, t = mp.mpf(s), mp.mpf(t)
    eta = mp.mpf(hurst) - mp.mpf(1) / 2
    return mp.quad(lambda u: (s - u) ** eta * (t - u) ** eta, [0, s])


def _xi(r, a, b):
    """``(a + b)**r - a**r`` with ``0**r = 0``."""
    def p(x):
        return mp.mpf(0) if x == 0 else x ** r
    return p(a + b) - p(a)


def drift_kernel(hurst, u, v):
    eta = mp.mpf(hurst) - mp.mpf(1) / 2
    u, v = mp.mpf(u), mp.mpf(v)
    c_h = 1 / (mp.gamma(eta + 1) * mp.gamma(1 - eta))

    def j(s):
        out = -_xi(eta - 1, -u, v) * _xi(-eta - 1, -s, -u)
        if s > u:
            out += _xi(eta - 1, s - u, v) * _xi(-eta - 1, -s, s - u)
        return out

    s_int = mp.quad(j, [-mp.inf, u, u / 2, 0])
    boundary = v * (v - u) ** (eta - 1) * (-u) ** (-eta - 1)
    return eta * c_h * (eta * s_int - boundary)


def _num(x) -> str:
    return mp.nstr(x, REPORT_DPS, min_fixed=1, max_fixed=0)


def build_table() -> dict:
    with mp.workdps(WORK_DPS):
        return {
            "c1": [{"hurst": h, "value": _num(c1_closed_form(h))} for h in C1_HURSTS],
            "levy_integral": [
                {"s": s, "t": t, "hurst": h, "value": _num(levy_integral(s, t, h))}
                for s, t, h in LEVY_POINTS
            ],
            "drift_kernel": [
                {"hurst": h, "u": u, "v": v, "value": _num(drift_kernel(h, u, v))}
                for h, u, v in KERNEL_POINTS
            ],
        }


if __name__ == "__main__":
    with open(TABLE_PATH, "w", encoding="utf-8") as fh:
        json.dump(build_table(), fh, indent=1)
        fh.write("\n")

"""Determinant and inverse-entry bounds for nearly diagonal matrices.

Setting: a real n x n matrix ``A`` with unit diagonal whose off-diagonal
entries decay geometrically, ``|a_ij| <= eps^|i-j|``.  Writing
``H := I - A`` (zero diagonal, same decay), the bounds are

    det A >= exp(-n * phi_g(eps) * eps^2),
    |b_ij|      <= 2^(|i-j|-1) * (phi_h(eps) * eps)^|i-j|    (i != j),
    |b_ii - 1|  <= 2 * phi_i(eps) * eps^2,

where ``B = A^(-1) = ((b_ij))`` and each ``phi_*`` is a "quasi-one" factor:
finite on an explicit radius, >= 1, and tending to 1 as eps -> 0.

All the series behind the phi factors have closed forms (geometric series,
central-binomial series and their derivatives); the closed forms are
implemented directly so the checks are sharp.  Outside its convergence
radius each factor is +inf.

The bounds are checked on stacks of matrices of shape ``(k, n, n)``: one
stacked ``slogdet`` and ``inv``, and the margins by broadcasting.  A batch
of random instances is drawn and checked a row panel of matrices at a
time (``gaussian._row_panels``), so its memory does not grow with the
number of trials.

Entry bounds for powers of ``H`` come from a walk-counting argument: any
contribution to ``(H^k)_ij`` is a k-step walk on Z from i to j with nonzero
steps, weighted by eps^(total step length).  A walk with total length n is
coded injectively by a word of n symbols over {p, P, m, M}: each step of
size d > 0 becomes (d-1) letters 'p' then one terminal 'P' (and 'm'/'M' for
negative steps).  Counting admissible words yields

    #{k-step walks 0 -> z, total length n}
        <= [2 | n - z] * C(n, (n-|z|)/2) * C(n-1, k-1),

and summing over n = |z| + 2m gives the entry bound ``hk_entry_bound``.
``valid_tuple_count`` computes the walk count exactly (big-integer dynamic
programming) so the coding bound can be verified exhaustively; the coding
itself lives in the tests, as the oracle of the injection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .gaussian import _row_panels

__all__ = [
    "PhiFunctions",
    "phi_functions",
    "phi_n_of",
    "matrix_bounds_check",
    "adversarial_matrix",
    "matrix_batch_check",
    "BatchReport",
    "hk_entry_bound",
    "valid_tuple_count",
    "tuple_count_bound",
]

_INF = float("inf")
# Roundoff allowance of the exact determinant and inverse-entry inequalities.
SLACK = 1.0e-9
# Last term index m summed in hk_entry_bound; a bound on the rest is added.
HK_TERMS = 60
# Terms of the phi_g and phi_i series; each falls by 1/4 or more, 4^-60 < 2^-110.
_SERIES_TERMS = 60


@dataclass(frozen=True)
class PhiFunctions:
    """Quasi-one correction factors at a given eps (entries may be +inf).

    ``phi_g`` enters the determinant bound, ``phi_h`` and ``phi_i`` the
    inverse-entry bounds, and ``phi_k`` the variance of the independent
    surrogate in ``experiments``.
    """

    eps: float
    phi_g: float
    phi_h: float
    phi_i: float
    phi_k: float

    def all_finite(self) -> bool:
        return all(math.isfinite(v) for v in (self.phi_g, self.phi_h, self.phi_i, self.phi_k))


def phi_n_of(x: float) -> float:
    """exp(2x) + 4 e x / (1 - 4 e x)  for 4 e x < 1, else +inf.

    Closed form of 1 + sum_{m>=1} ((2x)^m + (4 e x)^m * m^m e^(-m) ...) --
    concretely it upper-bounds sum_{m>=0} C(z + 2m, m) x^m uniformly via
    (value)^z for every z >= 1, using (z + 2m)^m <= (2z)^m + (4m)^m and
    m^m / m! <= e^m.
    """
    if not 0.0 <= x < math.inf:
        raise ValidationError(f"phi_n argument must be finite and >= 0, got {x}")
    if x == 0.0:
        return 1.0
    t = 4.0 * math.e * x
    if t >= 1.0:
        return _INF
    return math.exp(2.0 * x) + t / (1.0 - t)


def _phi_m(eps: float) -> float:
    # 1 + (2 eps^2)^(-1) * sum_{m>=2} (2m-1) (2 eps)^(2m)
    #   = 1 + 8 eps^2 (3 - 4 eps^2) / (1 - 4 eps^2)^2,  radius eps < 1/2.
    if eps >= 0.5:
        return _INF
    e2 = eps * eps
    return 1.0 + 8.0 * e2 * (3.0 - 4.0 * e2) / (1.0 - 4.0 * e2) ** 2


def _phi_g(eps: float, phi_m: float) -> float:
    # phi_m + eps^(-2) * sum_{k>=3} y^k / k,  y = 2 eps / (1 - eps) < 1
    # (i.e. eps < 1/3);  sum_{k>=3} y^k / k = -log(1-y) - y - y^2/2.
    # With y^3 / eps^2 = 8 eps / (1 - eps)^3 the sum is taken as
    # tail = sum_{k>=3} y^(k-3) / k: by its series for y <= 1/2, where the
    # closed form cancels all its digits as eps -> 0 (and eps^2 underflows).
    if eps >= 1.0 / 3.0 or not math.isfinite(phi_m):
        return _INF
    y = 2.0 * eps / (1.0 - eps)
    if y <= 0.5:
        tail = 0.0
        for k in range(_SERIES_TERMS + 2, 2, -1):
            tail = tail * y + 1.0 / k
    else:
        tail = (-math.log1p(-y) - y - y * y / 2.0) / y**3
    return phi_m + 8.0 * eps / (1.0 - eps) ** 3 * tail


def _phi_i(eps: float, phi_m: float) -> float:
    # The diagonal analogue of the off-diagonal series: the k = 1 walk term
    # vanishes (zero diagonal of H) and the k = 2 term is the phi_m piece;
    # the k >= 3 terms sum exactly to
    #     sum_{m>=2} C(2m, m) (2^(2m-1) - 2m) eps^(2m)
    #   = (1/2) [ (1-16 eps^2)^(-1/2) - 1 - 8 eps^2 ]
    #     - 4 eps^2 [ (1-4 eps^2)^(-3/2) - 1 ],
    # using sum C(2m,m) x^m = (1-4x)^(-1/2) and
    # sum C(2m,m) m x^m = 2x (1-4x)^(-3/2).  Radius eps < 1/4.  For
    # eps <= 1/8 the series itself is summed (its terms fall by about
    # 16 eps^2 <= 1/4 each), as the closed form cancels its digits as eps -> 0.
    if eps >= 0.25 or not math.isfinite(phi_m):
        return _INF
    e2 = eps * eps
    if eps <= 0.125:
        total, binom, power = 0.0, 6.0, 1.0  # C(2m, m) and e2^(m-2) at m = 2
        for m in range(2, _SERIES_TERMS + 2):
            total += binom * (2.0 ** (2 * m - 1) - 2 * m) * power
            binom *= (2 * m + 2) * (2 * m + 1) / (m + 1) ** 2
            power *= e2
        return phi_m + 0.5 * e2 * total
    head = 0.5 * ((1.0 - 16.0 * e2) ** (-0.5) - 1.0 - 8.0 * e2)
    deriv = 4.0 * e2 * ((1.0 - 4.0 * e2) ** (-1.5) - 1.0)
    return phi_m + (head - deriv) / (2.0 * e2)


def phi_functions(eps: float) -> PhiFunctions:
    """All quasi-one factors at ``eps`` (entries +inf outside their radius).

    Radii: phi_g needs eps < 1/3; phi_h = phi_n(4 eps^2) needs
    16 e eps^2 < 1; phi_i needs eps < 1/4; phi_k additionally needs
    2 phi_h eps < 1 and 1 - 2 phi_i eps^2 - 2 phi_h eps / (1 - 2 phi_h eps) > 0.
    """
    eps = float(eps)
    if not 0.0 < eps < math.inf:
        raise ValidationError(f"eps must be positive and finite, got {eps}")
    phi_m = _phi_m(eps)
    phi_g = _phi_g(eps, phi_m)
    phi_h = phi_n_of(4.0 * eps * eps)
    phi_i = _phi_i(eps, phi_m)
    phi_k = _INF
    if math.isfinite(phi_h) and math.isfinite(phi_i):
        t = 2.0 * phi_h * eps
        if t < 1.0:
            denom = 1.0 - 2.0 * phi_i * eps * eps - t / (1.0 - t)
            if denom > 0.0:
                phi_k = 1.0 / denom
    return PhiFunctions(eps=eps, phi_g=phi_g, phi_h=phi_h, phi_i=phi_i, phi_k=phi_k)


# ---------------------------------------------------------------------------
# Matrix bound verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BatchReport:
    """The three bounds checked on a stack of matrices: worst margins and violations.

    A margin is bound minus observed value, so a negative one beyond
    ``SLACK`` is a violation; ``violations`` counts the matrices with one.
    An empty stack has +inf margins and ``max_norm1_h`` 0.
    """

    n: int
    eps: float
    checked: int
    violations: int
    min_det_margin: float
    min_offdiag_margin: float
    min_diag_margin: float
    max_norm1_h: float


def _lags(n: int) -> np.ndarray:
    """The n x n matrix of |i - j|, as floats."""
    idx = np.arange(n)
    return np.abs(idx[:, None] - idx[None, :]).astype(float)


def _hypothesis_stack(matrices, eps: float) -> np.ndarray:
    """``matrices`` as a ``(k, n, n)`` stack, refused unless each is in the hypothesis class."""
    a = np.asarray(matrices, dtype=float)
    if a.ndim == 2:
        a = a[None]
    if a.ndim != 3 or a.shape[1] != a.shape[2] or a.shape[1] < 1:
        raise ValidationError(
            f"need a square matrix or a (k, n, n) stack with n >= 1, got shape {a.shape}"
        )
    if not np.isfinite(a).all():
        raise ValidationError("matrix entries must be finite")
    idx = np.arange(a.shape[1])
    bad_diag = np.abs(a[:, idx, idx] - 1.0) > 1.0e-12
    if np.any(bad_diag):
        offenders = [(int(m), int(i), float(a[m, i, i])) for m, i in np.argwhere(bad_diag)[:5]]
        raise ValidationError(
            f"diagonal entries must equal 1; offenders (matrix, i, a_ii): {offenders}"
        )
    limit = eps ** _lags(a.shape[1])
    over = np.abs(a) > limit * (1.0 + 1.0e-12)
    over[:, idx, idx] = False
    if np.any(over):
        offenders = [
            (int(m), int(i), int(j), float(a[m, i, j]), float(limit[i, j]))
            for m, i, j in np.argwhere(over)[:5]
        ]
        raise ValidationError(
            "entries exceed eps^|i-j| envelope; offenders (matrix, i, j, a_ij, limit): "
            f"{offenders}"
        )
    return a


def matrix_bounds_check(matrices, eps: float) -> BatchReport:
    """Verify the determinant and inverse-entry bounds on a matrix or a stack.

    ``matrices`` is one n x n matrix (a stack of one) or a ``(k, n, n)``
    stack.  Each must have unit diagonal and satisfy |a_ij| <= eps^|i-j|
    (checked, offending entries reported).  The stack goes through one
    stacked ``slogdet`` and one stacked ``inv``, and the margins of all k
    matrices are taken by broadcasting.  The inequalities are exact
    mathematical claims; ``SLACK`` only absorbs floating-point roundoff.
    """
    eps = float(eps)
    if eps <= 0.0:
        raise ValidationError(f"eps must be positive, got {eps}")
    a = _hypothesis_stack(matrices, eps)
    n = a.shape[1]
    phis = phi_functions(eps)
    if not (math.isfinite(phis.phi_g) and math.isfinite(phis.phi_h) and math.isfinite(phis.phi_i)):
        raise ValidationError(
            f"phi factors are infinite at eps={eps}; bounds require eps < 1/4 "
            "and 16*e*eps^2 < 1"
        )

    sign, logdet = np.linalg.slogdet(a)
    det_margin = sign * np.exp(logdet) - np.exp(-n * phis.phi_g * eps * eps)

    b = np.linalg.inv(a)
    idx = np.arange(n)
    off_gap = 0.5 * (2.0 * phis.phi_h * eps) ** _lags(n) - np.abs(b)
    off_gap[:, idx, idx] = _INF
    offdiag_margin = off_gap.min(axis=(1, 2))
    diag_margin = (2.0 * phis.phi_i * eps * eps - np.abs(b[:, idx, idx] - 1.0)).min(axis=1)
    norm1_h = np.abs(np.eye(n) - a).sum(axis=1).max(axis=1)

    ok = (det_margin >= -SLACK) & (offdiag_margin >= -SLACK) & (diag_margin >= -SLACK)
    return BatchReport(
        n=n,
        eps=eps,
        checked=a.shape[0],
        violations=int(np.count_nonzero(~ok)),
        min_det_margin=float(det_margin.min(initial=_INF)),
        min_offdiag_margin=float(offdiag_margin.min(initial=_INF)),
        min_diag_margin=float(diag_margin.min(initial=_INF)),
        max_norm1_h=float(norm1_h.max(initial=0.0)),
    )


def adversarial_matrix(n: int, eps: float, kind: int) -> np.ndarray:
    """One of three extreme instances saturating |a_ij| = eps^|i-j|, with unit diagonal.

    ``kind`` 0 has all-positive entries, 1 alternates sign by lag and 2 by
    index parity.
    """
    idx = np.arange(n)
    lag = _lags(n)
    out = float(eps) ** lag
    if kind == 1:
        out *= (-1.0) ** lag
    elif kind == 2:
        out *= (-1.0) ** (idx[:, None] + idx[None, :]).astype(float)
    elif kind != 0:
        raise ValidationError(f"kind must be 0, 1 or 2, got {kind}")
    out[idx, idx] = 1.0
    return out


def matrix_batch_check(n: int, eps: float, trials: int, rng: np.random.Generator) -> BatchReport:
    """Check ``trials`` random instances plus the adversarial ones at (n, eps).

    A random instance has unit diagonal and a_ij uniform in
    [-eps^|i-j|, eps^|i-j|].  They are drawn and checked a panel of
    matrices at a time, each panel one ``rng.uniform`` draw in row order:
    the stream is read as by drawing the matrices one at a time, so the
    panel size never changes the report.  The adversarial instances are
    built and checked one at a time, so a call at ``n`` holds a few ``n x n``
    arrays, not their ``(3, n, n)`` stack and its temporaries.
    """
    if trials < 0:
        raise ValidationError(f"trials must be >= 0, got {trials}")
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    envelope = float(eps) ** _lags(n)
    idx = np.arange(n)
    reports = []
    for rows in _row_panels(trials, n * n):
        a = rng.uniform(-1.0, 1.0, size=(rows.stop - rows.start, n, n)) * envelope
        a[:, idx, idx] = 1.0
        reports.append(matrix_bounds_check(a, eps))
    reports.extend(matrix_bounds_check(adversarial_matrix(n, eps, kind), eps) for kind in range(3))
    return BatchReport(
        n=n,
        eps=eps,
        checked=sum(r.checked for r in reports),
        violations=sum(r.violations for r in reports),
        min_det_margin=min(r.min_det_margin for r in reports),
        min_offdiag_margin=min(r.min_offdiag_margin for r in reports),
        min_diag_margin=min(r.min_diag_margin for r in reports),
        max_norm1_h=max(r.max_norm1_h for r in reports),
    )


# ---------------------------------------------------------------------------
# Walk counting and the coding bound
# ---------------------------------------------------------------------------


def hk_entry_bound(z: int, k: int, eps: float) -> float:
    """Upper bound on |(H^k)_ij| for |i - j| = |z|, or +inf.

    The series sum_{m>=0} t_m with
    t_m = C(|z|+2m, m) * C(|z|+2m-1, k-1) * eps^(|z|+2m)
    (terms with |z| + 2m < 1 or < k vanish), summed to m = M = HK_TERMS,
    plus a bound on its tail.  For m >= M the ratio t_(m+1) / t_m is at
    most

        rho = eps^2 * (2+u)^2 / (1+u) * (L+1) L / ((L+2-k) (L+1-k)),

    u = |z| / (M+1), L = |z| + 2M: the ratio's central-binomial factor is
    at most (2+a)^2 / (1+a) with a = |z| / (m+1) <= u, and its other factor
    falls as m grows.  So the tail is at most t_M * rho / (1 - rho).  The
    series diverges for eps >= 1/2, and the result is +inf there and
    wherever rho >= 1.  The float sum of the summed terms is within 1e-13 of
    its exact value, relative, so the result is raised by 1e-12 relative.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    eps = float(eps)
    if not 0.0 < eps < math.inf:
        raise ValidationError(f"eps must be positive and finite, got {eps}")
    az = abs(int(z))
    top = az + 2 * HK_TERMS
    if k > top:
        raise ValidationError(
            f"k = {k} exceeds |z| + 2 * HK_TERMS = {top}: every summed term is 0"
        )
    if eps >= 0.5:
        return _INF
    u = az / (HK_TERMS + 1)
    rho = eps * eps * (2.0 + u) ** 2 / (1.0 + u) * (top + 1) * top / ((top + 2 - k) * (top + 1 - k))
    if rho >= 1.0:
        return _INF
    total = term = 0.0
    for m in range(HK_TERMS + 1):
        length = az + 2 * m
        if length < 1 or k > length:
            continue
        term = math.comb(length, m) * math.comb(length - 1, k - 1) * eps**length
        total += term
    return (total + term * rho / (1.0 - rho)) * (1.0 + 1.0e-12)


def valid_tuple_count(z: int, k: int, n: int) -> int:
    """Exact number of k-step walks on Z from 0 to z with total |step| sum n.

    Steps are nonzero integers; counted exactly with big-integer dynamic
    programming over (position, spent-length) states.
    """
    z, k, n = int(z), int(k), int(n)
    if n < 0 or k < 0:
        raise ValidationError(f"need n >= 0 and k >= 0, got n={n}, k={k}")
    if n > 64 or k > 32:
        raise ValidationError(f"sizes too large for exact enumeration: k={k}, n={n}")
    if k == 0:
        return 1 if (z == 0 and n == 0) else 0
    states: dict[tuple[int, int], int] = {(0, 0): 1}
    for _ in range(k):
        nxt: dict[tuple[int, int], int] = {}
        for (pos, spent), cnt in states.items():
            room = n - spent
            for size in range(1, room + 1):
                for step in (size, -size):
                    key = (pos + step, spent + size)
                    nxt[key] = nxt.get(key, 0) + cnt
        states = nxt
    return states.get((z, n), 0)


def tuple_count_bound(z: int, k: int, n: int) -> int:
    """Coding bound [2 | n-z] * C(n, (n-|z|)/2) * C(n-1, k-1) on the walk count."""
    z, k, n = int(z), int(k), int(n)
    if n < 1 or k < 1:
        raise ValidationError(f"bound defined for n >= 1 and k >= 1, got n={n}, k={k}")
    az = abs(z)
    if az > n or (n - az) % 2 != 0:
        return 0
    return math.comb(n, (n - az) // 2) * math.comb(n - 1, k - 1)

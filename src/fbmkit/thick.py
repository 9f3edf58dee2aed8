"""Finite-prefix utilities for sets of naturals with positive upper density.

A set I of naturals is represented by an explicit membership bitset over a
finite prefix {0, ..., N-1}.  Upper asymptotic density is not computable from
a prefix, so every "thickness" output here is a trend report over a dyadic
ladder of horizons, never an asymptotic verdict.

Two structural facts drive the downstream experiments:

* splitting I by residue classes mod k partitions it, and the finite-n
  counting identity |I ∩ [n)| = sum_l |J_l ∩ [ceil((n-l)/k))| holds exactly,
  so at least one class keeps a comparable density;
* if the density along some subsequence stays >= p', the harmonic subseries
  sum_{i in I} 1/i grows without bound: an inductive ladder n_0 = 1,
  n_{k+1} = smallest n >= n_k/(p'-p'') with |I ∩ [n)| >= p'n, pays at least
  p'' per completed block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = [
    "ThickSet",
    "upper_density",
    "is_thick_estimate",
    "DensityTrend",
    "residue_class_split",
    "ResidueSplit",
    "harmonic_subsum",
    "nk_ladder",
    "LadderReport",
]


@dataclass(frozen=True)
class ThickSet:
    """Membership oracle over the finite prefix {0, ..., len(prefix)-1}."""

    prefix: np.ndarray
    description: str = ""

    def __post_init__(self) -> None:
        arr = np.asarray(self.prefix, dtype=bool)
        if arr.ndim != 1 or arr.size < 1:
            raise ValidationError("prefix must be a nonempty 1-d boolean array")
        object.__setattr__(self, "prefix", arr)

    def __len__(self) -> int:
        return int(self.prefix.size)

    def __contains__(self, i: int) -> bool:
        if not (0 <= i < self.prefix.size):
            raise ValidationError(f"index {i} outside known prefix [0, {self.prefix.size})")
        return bool(self.prefix[i])

    def indices(self, n: int | None = None) -> np.ndarray:
        n = self.prefix.size if n is None else int(n)
        if not (0 <= n <= self.prefix.size):
            raise ValidationError(f"n={n} outside prefix of length {self.prefix.size}")
        return np.flatnonzero(self.prefix[:n])

    # -- common instances -------------------------------------------------
    @staticmethod
    def naturals(n: int) -> "ThickSet":
        return ThickSet(np.ones(n, dtype=bool), description="all naturals")

    @staticmethod
    def evens(n: int) -> "ThickSet":
        pref = np.zeros(n, dtype=bool)
        pref[0::2] = True
        return ThickSet(pref, description="even numbers")

    @staticmethod
    def multiples(k: int, n: int) -> "ThickSet":
        if k < 1:
            raise ValidationError(f"k must be >= 1, got {k}")
        pref = np.zeros(n, dtype=bool)
        pref[0::k] = True
        return ThickSet(pref, description=f"multiples of {k}")

    @staticmethod
    def squares(n: int) -> "ThickSet":
        pref = np.zeros(n, dtype=bool)
        roots = np.arange(int(math.isqrt(max(n - 1, 0))) + 1)
        pref[roots * roots] = True
        return ThickSet(pref, description="perfect squares")

    @staticmethod
    def bernoulli(density: float, n: int, rng: np.random.Generator) -> "ThickSet":
        if not (0.0 < density < 1.0):
            raise ValidationError(f"density must lie in (0, 1), got {density}")
        pref = rng.random(n) < density
        return ThickSet(pref, description=f"Bernoulli({density})")


def upper_density(ts: ThickSet, n: int) -> float:
    """|I ∩ [n)| / n on the known prefix."""
    if not (1 <= n <= len(ts)):
        raise ValidationError(f"n must lie in [1, {len(ts)}], got {n}")
    return float(np.count_nonzero(ts.prefix[:n])) / float(n)


@dataclass(frozen=True)
class DensityTrend:
    """Densities along a dyadic horizon ladder (a trend, not a verdict)."""

    horizons: list[int]
    densities: list[float]
    running_max: list[float]
    description: str = ""

    def looks_vanishing(self) -> bool:
        """Heuristic flag: last density below half of the running max."""
        return self.densities[-1] < 0.5 * self.running_max[-1]


def is_thick_estimate(ts: ThickSet) -> DensityTrend:
    """Density trend over horizons 2, 4, 8, ... up to the prefix length."""
    ns: list[int] = []
    n = 2
    while n <= len(ts):
        ns.append(n)
        n *= 2
    if not ns or ns[-1] != len(ts):
        ns.append(len(ts))
    dens = [upper_density(ts, n) for n in ns]
    rmax: list[float] = []
    cur = -math.inf
    for d in dens:
        cur = max(cur, d)
        rmax.append(cur)
    return DensityTrend(horizons=ns, densities=dens, running_max=rmax, description=ts.description)


@dataclass(frozen=True)
class ResidueSplit:
    """Residue-class decomposition J_l = {j : jk + l in I} with densities."""

    k: int
    classes: list[ThickSet]
    densities: list[float]
    argmax: int
    partition_exact: bool
    density_inequality_ok: bool


def residue_class_split(ts: ThickSet, k: int) -> ResidueSplit:
    """Split by residues mod k; assert the exact finite-n partition identity.

    With N the prefix length and n_l = ceil((N-l)/k), the identity
    |I ∩ [N)| = sum_l |J_l ∩ [n_l)| holds exactly, and consequently
    density(I) <= (1/k) sum_l density(J_l) + k/N.
    """
    if k < 2:
        raise ValidationError(f"k must be >= 2, got {k}")
    n_total = len(ts)
    if n_total < k:
        raise ValidationError(f"prefix length {n_total} shorter than modulus {k}")
    classes: list[ThickSet] = []
    densities: list[float] = []
    count_sum = 0
    for l in range(k):
        pref = ts.prefix[l::k]
        if pref.size == 0:
            pref = np.zeros(1, dtype=bool)
        classes.append(ThickSet(pref, description=f"{ts.description} | residue {l} mod {k}"))
        count_sum += int(np.count_nonzero(ts.prefix[l::k]))
        densities.append(float(np.count_nonzero(pref)) / float(pref.size))
    total = int(np.count_nonzero(ts.prefix))
    partition_exact = count_sum == total
    dens_i = total / n_total
    density_inequality_ok = dens_i <= sum(densities) / k + k / n_total + 1.0e-12
    argmax = int(np.argmax(densities))
    return ResidueSplit(
        k=k,
        classes=classes,
        densities=densities,
        argmax=argmax,
        partition_exact=partition_exact,
        density_inequality_ok=density_inequality_ok,
    )


def harmonic_subsum(ts: ThickSet, n: int) -> float:
    """sum of 1/i over i in I ∩ [1, n), exactly ordered summation."""
    if not (1 <= n <= len(ts)):
        raise ValidationError(f"n must lie in [1, {len(ts)}], got {n}")
    idx = np.flatnonzero(ts.prefix[1:n]) + 1
    return float(math.fsum(1.0 / i for i in idx))


@dataclass(frozen=True)
class LadderReport:
    """The inductive horizon ladder and its certified per-block increments."""

    p_prime: float
    p_dprime: float
    ns: list[int]
    block_increments: list[float]
    all_blocks_certified: bool


def nk_ladder(
    ts: ThickSet,
    p_prime: float,
    p_dprime: float,
    *,
    min_blocks: int = 3,
    max_blocks: int = 64,
) -> LadderReport:
    """Build the ladder n_0 = 1, n_{k+1} = min{n >= n_k/(p'-p'') : |I∩[n)| >= p'n}.

    Certifies sum_{i in I ∩ [n_k, n_{k+1})} 1/i >= p'' for every completed
    block.  Raises if the prefix is exhausted before ``min_blocks`` blocks.
    """
    if not (0.0 < p_dprime < p_prime < 1.0):
        raise ValidationError(
            f"need 0 < p'' < p' < 1, got p'={p_prime}, p''={p_dprime}"
        )
    counts = np.cumsum(ts.prefix.astype(np.int64))  # counts[m] = |I ∩ [m+1)|
    n_total = len(ts)
    all_n = np.arange(1, n_total + 1)
    qualifying = all_n[counts >= p_prime * all_n - 1.0e-9]  # n with |I∩[n)| >= p'n

    ns = [1]
    increments: list[float] = []
    gap = p_prime - p_dprime
    while len(ns) - 1 < max_blocks:
        start = max(1, int(math.ceil(ns[-1] / gap - 1.0e-9)))
        pos = int(np.searchsorted(qualifying, start))
        if pos >= qualifying.size:
            break
        ns.append(int(qualifying[pos]))
        lo, hi = ns[-2], ns[-1]
        idx = np.flatnonzero(ts.prefix[lo:hi]) + lo
        idx = idx[idx >= 1]
        increments.append(float(math.fsum(1.0 / i for i in idx)))
    if len(increments) < min_blocks:
        raise ValidationError(
            f"prefix of length {n_total} exhausted after {len(increments)} "
            f"ladder blocks (< {min_blocks}); supply a longer prefix"
        )
    certified = all(inc >= p_dprime - 1.0e-12 for inc in increments)
    return LadderReport(
        p_prime=p_prime,
        p_dprime=p_dprime,
        ns=ns,
        block_increments=increments,
        all_blocks_certified=certified,
    )

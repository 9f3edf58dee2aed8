"""Finite-prefix utilities for sets of naturals with positive upper density.

A set I of naturals is represented by an explicit membership bitset over a
finite prefix {0, ..., N-1}.  Upper asymptotic density is not computable from
a prefix, so every "thickness" output here is a trend report over a dyadic
ladder of horizons, never an asymptotic verdict.

The fact the experiments lean on: if the density along some subsequence
stays >= p' > 0, the harmonic subseries sum_{i in I} 1/i grows without
bound.  On a prefix, :func:`harmonic_subsum` reports the partial sum and
:func:`is_thick_estimate` the density trend that suggests (never proves)
positive upper density.
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
    "harmonic_subsum",
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


def harmonic_subsum(ts: ThickSet, n: int) -> float:
    """sum of 1/i over i in I ∩ [1, n), exactly ordered summation."""
    if not (1 <= n <= len(ts)):
        raise ValidationError(f"n must lie in [1, {len(ts)}], got {n}")
    idx = np.flatnonzero(ts.prefix[1:n]) + 1
    return float(math.fsum(1.0 / i for i in idx))

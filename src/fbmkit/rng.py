"""Random-stream management.

Counter-based generators only (Philox), spawned from an explicit seed; no global
state anywhere in the package. Parallel work splits into indexed chunks, each
with its own pre-spawned stream, and reduces in chunk order so results are
byte-identical at any thread count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

from numpy.random import Generator, Philox, SeedSequence

__all__ = ["make_rng", "spawn_streams", "parallel_map"]


def make_rng(seed: int | SeedSequence) -> Generator:
    """Fresh Philox stream for the given seed."""
    seq = seed if isinstance(seed, SeedSequence) else SeedSequence(seed)
    return Generator(Philox(seq))


def spawn_streams(seed: int | SeedSequence, n: int) -> list[Generator]:
    """n independent child streams, deterministic in (seed, n)."""
    seq = seed if isinstance(seed, SeedSequence) else SeedSequence(seed)
    return [Generator(Philox(child)) for child in seq.spawn(n)]


def parallel_map(fn, items, threads: int = 1) -> list:
    """Map preserving order; thread count never changes the result.

    `fn` must not mutate shared state. With threads <= 1 this is a plain loop.
    """
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))

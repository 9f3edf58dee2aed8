"""Random-stream management and the one draw-and-reduce engine.

Counter-based generators only (Philox), spawned from an explicit seed; no global
state anywhere in the package. Parallel work splits into indexed chunks, each
with its own pre-spawned stream, and reduces in chunk order so results are
byte-identical at any thread count.

:func:`draw_reduce`, the one Monte Carlo engine, does so for any sampler with ``dim``
and ``sample(rng, n, out=flat_buffer)`` returning ``(n, dim)`` (Cholesky or fGn factor).
"""

from __future__ import annotations

import math
import queue
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

__all__ = ["DEFAULT_SEED", "make_rng", "spawn_streams", "parallel_map", "draw_reduce"]

# Pre-registered master seed of the acceptance battery.  Every Monte Carlo
# subclause was designed against its tolerance budget before this seed was
# fixed; the seed is part of the published acceptance configuration, not a knob.
DEFAULT_SEED = 20260815

# Paths per chunk of draw_reduce: a lent buffer holds 0.26 MB per dimension.
# It fixes the streams, one per chunk, and so every Monte Carlo result.
CHUNK = 2**15


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


def draw_reduce(sampler, n_paths: int, seed: int | SeedSequence, reduce,
                threads: int = 1) -> list:
    """``reduce`` of each chunk of ``CHUNK`` draws of ``sampler``, in chunk order.

    Chunk k draws from the k-th stream spawned from ``seed`` and runs on one
    of ``threads`` threads, so the result does not depend on ``threads``.
    It draws into one of ``min(threads, chunks)`` buffers lent to one chunk
    at a time: ``reduce`` may work in place on its argument, but must return
    new arrays, never views of it.  The buffers are allocated here, in the
    calling thread, because glibc keeps the blocks a worker thread frees in
    that thread's arena, where later, larger arrays do not fit.
    """
    n_chunks = math.ceil(n_paths / CHUNK)
    sizes = [min(CHUNK, n_paths - k * CHUNK) for k in range(n_chunks)]
    streams = spawn_streams(seed, n_chunks)
    buffers = queue.SimpleQueue()
    for _ in range(min(max(threads, 1), n_chunks)):
        buffers.put(np.empty(sampler.dim * sizes[0]))

    def run(k: int):
        buf = buffers.get()
        try:
            return reduce(sampler.sample(streams[k], sizes[k], out=buf))
        finally:
            buffers.put(buf)

    return parallel_map(run, range(n_chunks), threads=threads)

"""Stream determinism, order-preserving parallel mapping and the draw-and-reduce engine.

``draw_reduce`` is checked through both samplers it serves: the Cholesky
factor (``lil`` and ``arbitrage an-prob``, which draw at most 2^15 paths per
call of ``CovMatrix.sample``, give the same report at any thread count and,
for ``lil``, the digest it had before the engine moved into ``rng``) and the
fGn spectral factor (the same bytes at one and two threads).  Its chunks
draw into one lent buffer per thread, which no reduction's result shares
memory with and which bounds the peak: a criterion-1 style moment reduction
peaks the same at 2^17 and 2^20 paths.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

from fbmkit import rng
from fbmkit.context import make_context
from fbmkit.experiments import ArbitrageConfig, LilConfig, a_n_probability, lil_statistic
from fbmkit.fbm import FgnSampler
from fbmkit.gaussian import CovMatrix, CrossMoments
from fbmkit.rng import CHUNK, draw_reduce, make_rng, parallel_map, spawn_streams
from fbmkit.serialize import canonical_json_dumps


def test_same_seed_same_draws():
    a = make_rng(123).standard_normal(16)
    b = make_rng(123).standard_normal(16)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = make_rng(1).standard_normal(16)
    b = make_rng(2).standard_normal(16)
    assert not np.array_equal(a, b)


def test_spawned_streams_are_deterministic_and_distinct():
    first = [g.standard_normal(8) for g in spawn_streams(7, 4)]
    second = [g.standard_normal(8) for g in spawn_streams(7, 4)]
    for a, b in zip(first, second):
        assert np.array_equal(a, b)
    for i in range(4):
        for j in range(i + 1, 4):
            assert not np.array_equal(first[i], first[j])


def test_spawn_prefix_stability():
    # the first k children of spawn(n) match spawn(k): chunked work can grow
    # without perturbing earlier chunks
    wide = [g.standard_normal(4) for g in spawn_streams(42, 6)]
    narrow = [g.standard_normal(4) for g in spawn_streams(42, 3)]
    for a, b in zip(narrow, wide):
        assert np.array_equal(a, b)


def test_accepts_seed_sequence():
    seq = np.random.SeedSequence(99)
    a = make_rng(seq).standard_normal(4)
    b = make_rng(99).standard_normal(4)
    assert np.array_equal(a, b)


def test_parallel_map_preserves_order_and_thread_independence():
    items = list(range(37))
    serial = parallel_map(lambda x: x * x, items, threads=1)
    threaded = parallel_map(lambda x: x * x, items, threads=4)
    assert serial == [x * x for x in items]
    assert threaded == serial


def test_parallel_map_with_stream_per_item_is_thread_independent():
    streams = spawn_streams(5, 8)

    def draw(k):
        return float(make_rng(np.random.SeedSequence(1000 + k)).standard_normal())

    assert parallel_map(draw, range(8), threads=1) == parallel_map(
        draw, range(8), threads=3
    )
    assert len(streams) == 8


@pytest.mark.parametrize("n_paths", [1, CHUNK + 1, 2 * CHUNK + 5])
def test_fgn_draws_are_the_same_bytes_at_one_and_two_threads(n_paths):
    sampler = FgnSampler(0.75, 16, 1.0 / 16)
    one = draw_reduce(sampler, n_paths, 11, np.ndarray.tobytes, threads=1)
    two = draw_reduce(sampler, n_paths, 11, np.ndarray.tobytes, threads=2)
    assert len(one) == -(-n_paths // CHUNK) and one == two
    # Chunk k is the sampler's draw from the k-th spawned stream.
    streams = spawn_streams(11, len(one))
    assert one[-1] == sampler.sample(streams[-1], n_paths - CHUNK * (len(one) - 1)).tobytes()


def moment_peak(n_paths):
    """tracemalloc peak of criterion 1's fBm reduction over ``n_paths`` paths."""
    sampler = FgnSampler(0.25, 64, 1.0 / 64)

    def reduce(x):
        return CrossMoments().add(np.cumsum(x, axis=1, out=x))

    tracemalloc.start()
    try:
        moments = CrossMoments()
        for part in draw_reduce(sampler, n_paths, 5, reduce):
            moments.merge(part)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert moments.n == n_paths
    return peak


def test_a_moment_reduction_peaks_flat_in_the_path_count():
    # One lent buffer of 64 x 2^15 floats (16.8 MB) and a chunk's squares,
    # whatever the path count; only the 64 KiB per-chunk sums grow.  On two
    # threads the peak is two of each, as far as the threads overlap.
    small, large = moment_peak(2**17), moment_peak(2**20)
    assert abs(large - small) <= 5 * 2**20
    assert large <= 2 * 64 * CHUNK * 8 + 4 * 2**20


# Digest of a lil_statistic report (volatile fields dropped) for H = 0.75,
# r = 0.5, i_max = 12, 70000 paths, seed 5.  Frozen from the code before
# lil_statistic shared its chunking with a_n_probability, and refrozen when
# its covariance became the scaled one-sided covariance instead of the
# four-block sum: the medians and their intervals moved in the last one or
# two of their 17 digits, and no count below the band moved.
LIL_DIGEST = "cd9059bd3991533ccded6be686c38ea8603349d55799a858450d4e1c34de06bb"


def report_digest(report):
    doc = report.as_dict()
    del doc["wall_time"], doc["created_utc"]
    return hashlib.sha256(canonical_json_dumps(doc).encode("utf-8")).hexdigest()


def small_runs(n_paths):
    """Both Monte Carlo experiments at a small depth, as ``threads -> report``."""
    ctx = make_context(0.75)
    lil = LilConfig(ctx, r=0.5, i_max=8, n_paths=n_paths, seed=3)
    arb = ArbitrageConfig(ctx, r=0.1, alpha=0.5, p=0.5, n=8, n_paths=n_paths, seed=3)
    return [lambda threads: lil_statistic(lil, threads=threads),
            lambda threads: a_n_probability(arb, threads=threads)]


def test_no_draw_exceeds_one_chunk(monkeypatch):
    sizes = []
    real = CovMatrix.sample
    monkeypatch.setattr(CovMatrix, "sample",
                        lambda self, rng, n, out=None: sizes.append(n) or real(self, rng, n, out=out))
    n_paths = 3 * CHUNK - 1
    for run in small_runs(n_paths):
        sizes.clear()
        run(2)
        assert sorted(sizes) == [CHUNK - 1, CHUNK, CHUNK]


@pytest.mark.parametrize("n_paths", [1, CHUNK, CHUNK + 1, 3 * CHUNK - 1])
def test_reports_do_not_depend_on_threads(n_paths):
    for run in small_runs(n_paths):
        assert len({report_digest(run(threads)) for threads in (1, 2, 3)}) == 1


def test_lil_report_is_unchanged_by_the_shared_chunking():
    cfg = LilConfig(make_context(0.75), r=0.5, i_max=12, n_paths=70_000, seed=5)
    for threads in (1, 2):
        assert report_digest(lil_statistic(cfg, threads=threads)) == LIL_DIGEST


def test_reductions_share_no_memory_with_the_draw_buffers(monkeypatch):
    buffers, results = [], []
    real_sample, real_map = CovMatrix.sample, rng.parallel_map

    def sample(self, rng, n, out=None):
        buffers.append(out)
        return real_sample(self, rng, n, out=out)

    def record(fn, items, threads=1):
        got = real_map(fn, items, threads=threads)
        results.extend(got)
        return got

    monkeypatch.setattr(CovMatrix, "sample", sample)
    monkeypatch.setattr(rng, "parallel_map", record)
    for run in small_runs(3 * CHUNK - 1):
        for threads in (1, 2):
            buffers.clear()
            results.clear()
            run(threads)
            # One buffer per thread, reused by the third chunk.
            assert len(buffers) == 3 and len({id(b) for b in buffers}) == threads
            assert not any(np.shares_memory(r, b) for r in results for b in buffers)


@pytest.mark.parametrize("experiment", ["lil", "an_prob"])
def test_monte_carlo_memory_is_one_buffer_per_thread(experiment):
    # Four chunks on two threads: two dim x 2^15 buffers, plus 6 MiB for the
    # product blocks, the per-chunk reductions and their join.  Without the
    # reused buffers each thread held its normals, their product and (lil)
    # a normalised copy: 42 MiB and 24-32 MiB here.
    ctx = make_context(0.75)
    if experiment == "lil":
        cfg = LilConfig(ctx, r=0.5, i_max=40, n_paths=4 * CHUNK, seed=3)
        run, dim = (lambda: lil_statistic(cfg, threads=2)), cfg.i_max + 1
    else:
        cfg = ArbitrageConfig(ctx, r=0.1, alpha=0.5, p=0.5, n=32, n_paths=4 * CHUNK, seed=3)
        run, dim = (lambda: a_n_probability(cfg, threads=2)), cfg.n
    run()  # caches warm
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * dim * CHUNK * 8 + 6 * 2**20

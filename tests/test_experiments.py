"""The LIL covariances and the Monte Carlo reductions of the experiments.

The covariance that ``lil_statistic`` samples from is the one-sided
covariance at the ladder times; its oracle is the window/past block matrix
``lil_block_cov`` below, which sums a different set of one-sided integrals.
That block matrix is checked entry by entry against 40-digit mpmath
quadrature of the two block integrals (the recent window over ``(r, 1)`` and
the deep past over ``(0, r)``), against the graded Gauss-Legendre quadrature
that computed it before the closed form, and for symmetry and positive
definiteness.  The covariance is scaled and reversed in place: bit for bit
the whole-array formula it replaced, with no second matrix held.  The prefix-count
reduction of ``a_n_probability`` is checked against the cumulative-sum
reduction it replaced, and its estimate of P(A_n) against an antithetic
estimator on a symmetric square root of the same covariance.  The running
minimum of ``lil_statistic`` is checked against the minima of each chunk's
whole normalised block.  How both experiments draw (chunks, streams, lent
buffers, thread independence and the pinned ``lil`` digest) is tested with
the engine ``draw_reduce``, in ``tests/test_rng.py``.  The exact
Gaussian product of the excess-count chain is checked against
``scipy.stats``, and its normal log-tail against ``scipy.special.log_ndtr``.
"""

import math
import re
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats
from scipy.special import log_ndtr

from fbmkit.context import make_context
from fbmkit.experiments import (
    ArbitrageConfig,
    LilConfig,
    _lil_cov,
    _log_normal_tail,
    _prefix_hits,
    a_n_probability,
    lil_statistic,
    product_tail_chain,
    union_bound_ledger,
)
from fbmkit.fbm import _levy_integral, levy_cov_matrix
from fbmkit.gamma import GammaConfig, gamma_cov
from fbmkit.gaussian import CovMatrix, cholesky_with_jitter
from fbmkit.quadrature import graded_breaks, integrate_checked
from fbmkit.rng import CHUNK, make_rng, spawn_streams
from fbmkit.thick import ThickSet

I_MAX = 40
LAGS = [0, 1, 2, 5, 20, 40]


def _cfg(hurst, r):
    return LilConfig(make_context(hurst), r=r, i_max=I_MAX, n_paths=1, seed=0)


def lil_block_cov(cfg):
    """Exact covariance of the 2(i_max+1) normalized window/past blocks.

    Ordering: [T_0..T_m-1, P_0..P_m-1] with T_i the recent-window piece of
    Y_{r^i}/(c1 r^{Hi}) (integration over (r^{i+1}, r^i)) and P_i the deep-past
    piece (over (0, r^{i+1})).  The T_i are i.i.d. with variance
    (1-r)^{2H}/(2H); T/P and P/P covariances are Toeplitz in the depth lag d.
    With B = r^{-d} and L(lo, hi) = integral_0^lo (lo-u)^eta (hi-u)^eta du,
    the one-sided (Levy) integral that :mod:`fbmkit.fbm` evaluates in closed
    form,

        Cov(T_{i+d}, P_i) = r^{Hd} L(1-r, B-r),
        Cov(P_{i+d}, P_i) = r^{Hd} (L(1, B) - L(1-r, B-r)).

    Both integrate (1-u)^eta (B-u)^eta: the window over (r, 1), which the
    shift u -> u + r maps onto L, and the past over (0, r), which is the
    whole of (0, 1) less the window.  The lag-0 window is the T variance.
    All lags come from one broadcast evaluation of L.
    """
    ctx, r = cfg.ctx, cfg.r
    m = cfg.i_max + 1
    big = r ** -np.arange(m, dtype=float)
    window, whole = _levy_integral(
        ctx, np.array([[1.0 - r], [1.0]]), np.stack([big - r, big])
    ) / ctx.c1**2
    past = whole - window
    lag = np.subtract.outer(np.arange(m), np.arange(m))
    decay = r ** (ctx.hurst * np.abs(lag))
    cross = np.where(lag >= 1, decay * window[np.abs(lag)], 0.0)
    cov = np.zeros((2 * m, 2 * m))
    cov[:m, :m] = window[0] * np.eye(m)
    cov[:m, m:] = cross
    cov[m:, :m] = cross.T
    cov[m:, m:] = decay * past[np.abs(lag)]
    return cov


def blocks_mpmath(hurst, r, d):
    """``r^{Hd}`` times the window and past block integrals at lag ``d``, in 40-digit mpmath.

    With ``B = r^{-d}`` and ``x = 1 - u`` they are ``integral_0^{1-r}`` and
    ``integral_{1-r}^1`` of ``x^eta (x + B - 1)^eta``; at ``d = 0`` the
    integrand is ``x^{2 eta}`` and both have closed forms, and for ``d >= 1``
    tanh-sinh quadrature resolves the ``x^eta`` endpoint singularity.
    """
    with mp.workdps(40):
        h, r_ = mp.mpf(hurst), mp.mpf(r)
        eta = h - mp.mpf(1) / 2
        if d == 0:
            head = (1 - r_) ** (2 * h)
            window, past = head / (2 * h), (1 - head) / (2 * h)
        else:
            gap = r_**-d - 1

            def f(x):
                return x**eta * (x + gap) ** eta

            window, past = mp.quad(f, [0, 1 - r_]), mp.quad(f, [1 - r_, 1])
        decay = r_ ** (h * d)
        return float(decay * window), float(decay * past)


def window_graded(ctx, r, d):
    """The former quadrature route for the window block (lag ``d >= 1``)."""
    eta, big = ctx.eta, r**-d
    breaks = 1.0 - graded_breaks(0.0, 1.0 - r, toward="left")[::-1]
    return integrate_checked(
        lambda u: (1.0 - u) ** eta * (big - u) ** eta, breaks, scale=big**eta
    )


def past_graded(ctx, r, d):
    """The former quadrature route for the past block (lag ``d >= 0``)."""
    eta, big = ctx.eta, r**-d
    breaks = graded_breaks(0.0, r, toward="right")
    return integrate_checked(
        lambda v: (big - v) ** eta * (1.0 - v) ** eta, breaks,
        scale=max(big**eta, 1.0),
    )


@pytest.mark.parametrize("hurst", [0.005, 0.02, 0.05, 0.08, 0.25, 0.75, 0.995])
@pytest.mark.parametrize("r", [0.05, 0.5, 0.9])
def test_entries_match_mpmath(hurst, r):
    # The quadrature route failed its own error check at H <= 0.08.
    cov = lil_block_cov(_cfg(hurst, r))
    m = I_MAX + 1
    for d in LAGS:
        window, past = blocks_mpmath(hurst, r, d)
        # At lag 0 the window integral is Var(T_0); Cov(T_0, P_0) is zero.
        assert cov[d, m if d else 0] == pytest.approx(window, rel=1e-12, abs=0.0)
        assert cov[m + d, m] == pytest.approx(past, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("hurst", [0.25, 0.75])
@pytest.mark.parametrize("r", [0.1, 0.5])
def test_entries_match_graded_quadrature(hurst, r):
    cfg = _cfg(hurst, r)
    cov = lil_block_cov(cfg)
    m = I_MAX + 1
    for d in LAGS:
        decay = r ** (hurst * d)
        if d >= 1:
            assert cov[d, m] == pytest.approx(decay * window_graded(cfg.ctx, r, d), rel=2e-9)
        assert cov[m + d, m] == pytest.approx(decay * past_graded(cfg.ctx, r, d), rel=2e-9)


@pytest.mark.parametrize("hurst", [0.005, 0.05, 0.25, 0.75, 0.995])
@pytest.mark.parametrize("r", [0.05, 0.5, 0.9])
def test_matrix_is_symmetric_and_factors_without_jitter(hurst, r):
    cov = lil_block_cov(_cfg(hurst, r))
    m = I_MAX + 1
    assert np.array_equal(cov, cov.T)
    # A window block is independent of the past blocks at its own and deeper depths.
    assert np.all(np.triu(cov[:m, m:]) == 0.0)
    _, jitter = cholesky_with_jitter(cov)
    assert jitter == 0.0


@pytest.mark.parametrize("hurst", [0.005, 0.02, 0.25, 0.5, 0.75, 0.995])
@pytest.mark.parametrize("r", [0.1, 0.5, 0.9])
def test_sampled_cov_is_the_summed_blocks_and_factors_without_jitter(hurst, r):
    # Y at time r^i over r^{Hi} is c1 (T_i + P_i): the scaled one-sided
    # covariance is c1^2 times the sum of the four blocks (measured within
    # 2.1e-14 relative here).  At H = 1/2 the block matrix needs jitter; the
    # summed one must not.
    cfg = _cfg(hurst, r)
    cov = _lil_cov(cfg)
    m = I_MAX + 1
    blocks = lil_block_cov(cfg)
    ref = cfg.ctx.c1**2 * (blocks[:m, :m] + blocks[:m, m:] + blocks[m:, :m] + blocks[m:, m:])
    assert np.all(np.abs(cov - ref) <= 5e-14 * np.abs(ref))
    _, jitter = cholesky_with_jitter(cov)
    assert jitter == 0.0


def lil_cov_whole(cfg):
    """The covariance ``_lil_cov`` gave when it divided and reversed whole arrays."""
    times = cfg.r ** np.arange(cfg.i_max + 1, dtype=float)
    scale = times**cfg.ctx.hurst
    return levy_cov_matrix(times[::-1], cfg.ctx)[::-1, ::-1] / np.outer(scale, scale)


@pytest.mark.parametrize("hurst,r,i_max", [(0.75, 0.99, 600), (0.3, 0.5, 40), (0.6, 0.9, 41)])
def test_lil_cov_in_place_is_the_whole_array_formula_bit_for_bit(hurst, r, i_max):
    cfg = LilConfig(make_context(hurst), r=r, i_max=i_max, n_paths=1, seed=0)
    got, want = _lil_cov(cfg), lil_cov_whole(cfg)
    assert got.flags.c_contiguous
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_lil_cov_holds_no_second_matrix():
    # levy_cov_matrix holds its matrix and its panels' temporaries; the
    # division and the reversal add a panel and a row after those are freed
    # (measured: 11 KB more, against 3.2 MB more for the whole-array formula).
    cfg = LilConfig(make_context(0.75), r=0.99, i_max=600, n_paths=1, seed=0)
    times = cfg.r ** np.arange(cfg.i_max + 1, dtype=float)

    def peak(build):
        tracemalloc.start()
        try:
            build()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    levy_peak = peak(lambda: levy_cov_matrix(times[::-1], cfg.ctx))
    assert peak(lambda: _lil_cov(cfg)) <= levy_peak + 8 * 8 * times.size


def cumsum_hits(above, needs):
    """The reduction ``a_n_probability`` used before prefix counts."""
    exceed = np.cumsum(above.T, axis=1)
    return np.asarray([(exceed[:, m - 1] >= need).sum() for m, need in needs.items()])


@given(st.integers(1, 64), st.integers(1, 300), st.floats(0.0, 1.0),
       st.integers(0, 2**32 - 1))
def test_prefix_hits_match_the_cumsum_reduction(n, paths, density, seed):
    rng = np.random.default_rng(seed)
    above = rng.random((n, paths)) < density
    depths = sorted(set(rng.integers(1, n + 1, size=4).tolist()) | {n})
    needs = {m: int(rng.integers(1, m + 1)) for m in depths}
    assert np.array_equal(_prefix_hits(above, needs), cumsum_hits(above, needs))


UTC = re.compile(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ")


def test_reports_carry_wall_time_and_creation_time():
    ctx = make_context(0.75)
    arb = ArbitrageConfig(ctx, r=0.1, alpha=0.5, p=0.5, n=4, n_paths=50, seed=1)
    reports = [
        lil_statistic(LilConfig(ctx, r=0.5, i_max=8, n_paths=50, seed=1)),
        a_n_probability(arb),
        union_bound_ledger(ctx, 0.1, 0.05, 0.5, 0.5, {4: 0.44}),
    ]
    for report in reports:
        assert report.wall_time > 0.0
        assert UTC.fullmatch(report.created_utc)


def test_lil_minima_are_those_of_the_whole_normalised_block():
    # Oracle: each chunk's normalised rows stacked whole, minimised up to each
    # cap.  The index set skips (10, 24], so caps 10 and 20 end at the same
    # index and the running minimum must be taken twice at one stop.
    keep = np.zeros(41, dtype=bool)
    keep[2:11] = keep[25:] = True
    cfg = LilConfig(make_context(0.3), r=0.5, i_max=40, n_paths=CHUNK + 500, seed=8,
                    thick_set=ThickSet(keep, description="gap"))
    idx = np.flatnonzero(keep)
    cov = CovMatrix(_lil_cov(cfg))
    minima = {10: [], 20: [], 40: []}
    for stream, size in zip(spawn_streams(cfg.seed, 2), (CHUNK, 500)):
        stat = cov.sample(stream, size).T[idx] / np.sqrt(np.log(idx))[:, None]
        for cap in minima:
            minima[cap].append(stat[idx <= cap].min(axis=0))
    report = lil_statistic(cfg, threads=2)
    values = {e.name: e.value for e in report.estimates}
    for cap, parts in minima.items():
        assert values[f"median_min_imax_{cap}"] == float(np.median(np.concatenate(parts)))


# The chain needs a small decay epsilon, hence the tiny scale ratio r.
@pytest.mark.parametrize("hurst,alpha", [(0.25, 0.9), (0.75, 0.5)])
def test_exact_product_matches_scipy_stats_normal_tail(hurst, alpha):
    # The library sums its own log SF; scipy.stats is the oracle.
    cfg = ArbitrageConfig(make_context(hurst), r=1e-6, alpha=alpha, p=0.5, n=16,
                          n_paths=1, seed=0)
    idx = np.arange(16)
    chain = product_tail_chain(cfg, idx)
    thresholds = alpha / np.sqrt(hurst) * np.sqrt(np.log(np.maximum(idx, 1.0)))
    sd = np.sqrt(chain["phi_k"]) * chain["sigma"]
    expected = float(stats.norm.logsf(thresholds / sd).sum())
    assert chain["log_exact_product"] == pytest.approx(expected, rel=1e-15, abs=0.0)
    # Each link of the chain is an inequality of exact mathematics; the
    # tail product and the sorted-index bound coincide here (I = 0..15), so
    # they are compared up to rounding.
    links = ("log_exact_product", "log_tail_product", "log_sorted_bound", "log_final_bound")
    for smaller, larger in zip(links, links[1:]):
        a, b = chain[smaller], chain[larger]
        assert a <= b + 1e-12 * max(1.0, abs(a), abs(b)), (smaller, larger)


def test_log_normal_tail_matches_scipy_log_ndtr():
    # Dense on [0, 40], plus both sides of the switch to the asymptotic
    # series and of erfc's underflow near x = 37.5.
    xs = np.concatenate([np.linspace(0.0, 40.0, 20001), [1e-300, 29.999, 30.0, 37.4, 37.6]])
    got = np.array([_log_normal_tail(x) for x in xs.tolist()])
    assert np.max(np.abs(got / log_ndtr(-xs) - 1.0)) <= 1e-15


@pytest.mark.parametrize("x", [40.5, 1e3, 1e10, 1e100])
def test_log_normal_tail_stays_finite_beyond_the_checked_range(x):
    got = _log_normal_tail(x)
    assert math.isfinite(got)
    assert got == pytest.approx(float(log_ndtr(-x)), rel=1e-15)


def a_n_probability_dual(cfg, seed):
    """Antithetic estimate of P(A_n) at depth ``cfg.n`` and its standard error.

    Independent of the library's route in all but the covariance: a symmetric
    (eigendecomposition) square root in place of the Cholesky factor, one
    stream of ``(pairs, n)`` normals, and the event evaluated on each pair
    ``+z, -z``; the error is that of the pair means.
    """
    idx = np.arange(cfg.n)
    cov = gamma_cov(GammaConfig(cfg.ctx, cfg.r), cfg.n)[np.abs(idx[:, None] - idx[None, :])]
    vals, vecs = np.linalg.eigh(cov)
    root = (vecs * np.sqrt(np.maximum(vals, 0.0))) @ vecs.T
    z = make_rng(seed).standard_normal((cfg.n_paths, cfg.n)) @ root
    thr, need = cfg.thresholds(), cfg.required_count()
    up = (z >= thr).sum(axis=1) >= need
    down = (-z >= thr).sum(axis=1) >= need
    means = 0.5 * (up.astype(float) + down.astype(float))
    return float(means.mean()), float(means.std(ddof=1) / math.sqrt(means.size))


@pytest.mark.parametrize("hurst,n", [(0.75, 8), (0.25, 4)])
def test_a_n_probability_agrees_with_the_antithetic_estimator(hurst, n):
    cfg = ArbitrageConfig(make_context(hurst), r=0.1, alpha=0.5, p=0.5, n=n,
                          n_paths=200_000, seed=5)
    est = a_n_probability(cfg, threads=2).get(f"p_an_n_{n}")
    se = math.sqrt(est.value * (1.0 - est.value) / cfg.n_paths)
    dual, dual_se = a_n_probability_dual(cfg, seed=6)
    assert 0.01 < dual < 0.99
    assert abs(est.value - dual) <= 4.0 * math.hypot(se, dual_se)

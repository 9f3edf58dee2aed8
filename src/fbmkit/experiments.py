"""Monte Carlo experiments on the scale-ladder law and its bound pipeline.

Three families:

* ``lil_statistic`` — samples the one-sided moving-average process at
  geometric times r^i and tracks the running minimum of
  Y_{r^i} / ((log i)^{1/2} r^{H i}) down a ladder of depths.  The normalised
  values Y_{r^i} / r^{H i} are drawn directly from their exact
  (i_max+1)^2 covariance, the one-sided covariance of
  :func:`~fbmkit.fbm.levy_cov_matrix` at the ladder times.
* ``a_n_probability`` — estimates the probability that at least p*n of the
  ladder observables (G_i) exceed alpha * H^{-1/2} (log i)_+^{1/2},
  via exact covariance sampling, with Wilson intervals, over a doubling
  ladder of n.
* ``product_tail_chain`` / ``n_threshold`` / ``union_bound_ledger`` — the
  explicit bound chain for the surrogate independent vector, the event-family
  comparison threshold, and the assembled union-bound bookkeeping.

The two Monte Carlo families draw their paths through ``_map_sample_chunks``:
2^15 paths per chunk, each chunk with its own stream and reduced on its own
thread, so the thread count never changes the result and a chunk's memory
stays bounded.

Every report carries its wall time and creation time as volatile fields.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .almostdiag import phi_functions
from .context import HurstContext
from .errors import ValidationError
from .fbm import levy_cov_matrix
from .gamma import GammaConfig, decay_bound_check, gamma_cov_matrix, reg_bound_constants
from .gaussian import CovMatrix
from .reports import ExperimentReport, wilson_interval
from .rng import parallel_map, spawn_streams
from .thick import ThickSet

__all__ = [
    "LIL_BAND_OFFSETS",
    "LilConfig",
    "ArbitrageConfig",
    "lil_statistic",
    "a_n_probability",
    "max_feasible_epsilon",
    "product_tail_chain",
    "n_threshold",
    "union_bound_ledger",
]

# Acceptance band for the LIL running-minimum median, as offsets from the
# limit constant -1/sqrt(H): [limit - 0.35, limit + 0.6].
LIL_BAND_OFFSETS = (-0.35, 0.6)

# Paths per Monte Carlo chunk, for lil_statistic and a_n_probability alike.
# A chunk's normals and samples are two (dim, 2^15) float arrays of
# 0.26 MB per dimension each: 8.4 MB at dim 32, 16.8 MB at the deepest
# a_n_probability ladder (dim 64).
_CHUNK = 2**15
# Width at which the bisection of max_feasible_epsilon stops.
_EPS_BISECTION_TOL = 1.0e-12
# Above this x, log Phi(-x) comes from the asymptotic series, well before
# erfc(x / sqrt 2) underflows (near x = 37.5).
_TAIL_SERIES_FROM = 30.0


def _map_sample_chunks(cov: CovMatrix, n_paths: int, seed: int, reduce, threads: int) -> list:
    """``reduce`` of ``n_paths`` draws of ``cov``, taken ``_CHUNK`` paths at a time.

    Chunk k holds paths ``[k _CHUNK, (k+1) _CHUNK)`` and draws them from the
    k-th stream spawned from ``seed``; the chunks run on ``threads`` threads
    and their reductions come back in chunk order, so the result does not
    depend on ``threads``.
    """
    n_chunks = math.ceil(n_paths / _CHUNK)
    sizes = [min(_CHUNK, n_paths - k * _CHUNK) for k in range(n_chunks)]
    streams = spawn_streams(seed, n_chunks)
    return parallel_map(lambda k: reduce(cov.sample(streams[k], sizes[k])),
                        range(n_chunks), threads=threads)


# ---------------------------------------------------------------------------
# Scale-ladder law of the iterated logarithm statistic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LilConfig:
    """Running-minimum experiment: context, ratio, depth, index set, sampling."""

    ctx: HurstContext
    r: float
    i_max: int
    n_paths: int
    seed: int
    thick_set: ThickSet | None = None

    def __post_init__(self) -> None:
        if not (0.0 < self.r < 1.0):
            raise ValidationError(f"r must lie in (0, 1), got {self.r}")
        if self.i_max < 2:
            raise ValidationError(f"i_max must be >= 2, got {self.i_max}")
        if self.r**self.i_max < 1.0e-300:
            raise ValidationError(
                f"scale r^{self.i_max} underflows for r={self.r}"
            )
        if self.n_paths < 1:
            raise ValidationError(f"n_paths must be >= 1, got {self.n_paths}")
        if self.thick_set is not None and len(self.thick_set) < self.i_max + 1:
            raise ValidationError(
                "thick_set prefix must cover indices up to i_max"
            )


def _lil_cov(cfg: LilConfig) -> np.ndarray:
    """Exact covariance of the normalised values Y_{r^i} / r^{H i}, i <= i_max.

    The one-sided covariance at the ladder times r^i (taken in increasing
    order) divided by r^{H i} r^{H j}.  It is well conditioned (cond 33 at
    H = 1/2), so its Cholesky factor needs no jitter.
    """
    times = cfg.r ** np.arange(cfg.i_max + 1, dtype=float)
    scale = times**cfg.ctx.hurst
    return levy_cov_matrix(times[::-1], cfg.ctx)[::-1, ::-1] / np.outer(scale, scale)


def lil_statistic(cfg: LilConfig, *, threads: int = 1) -> ExperimentReport:
    """Distribution of the running minimum of Y_{r^i}/((log i)^{1/2} r^{Hi}).

    Indices i in (thick set) ∩ [2, i_max] (the normalizer vanishes at
    i <= 1); the report carries the median at each depth of a halving ladder
    i_max, i_max/2, i_max/4 (>= 2), its order-statistic confidence interval,
    the acceptance band around the limit constant -1/sqrt(H), and the
    fraction of paths falling below the band.

    The normalised values are drawn directly from their exact covariance
    (:func:`_lil_cov`).  Paths come ``_CHUNK`` = 2^15 at a time, one stream
    per chunk (:func:`_map_sample_chunks`); each chunk is reduced on one of
    ``threads`` threads to its minima up to each ladder depth, and the
    chunks are joined in order, so the report does not depend on
    ``threads``.  A chunk's samples are one (i_max+1, 2^15) float array,
    10.7 MB at the CLI's default i_max = 40, next to normals of the same size.
    """
    start = time.perf_counter()
    h = cfg.ctx.hurst
    all_idx = np.arange(2, cfg.i_max + 1)
    if cfg.thick_set is not None:
        all_idx = all_idx[[i in cfg.thick_set for i in all_idx]]
    if all_idx.size == 0:
        raise ValidationError("index set ∩ [2, i_max] is empty")

    caps = []
    cap = cfg.i_max
    while cap >= 2 and len(caps) < 3:
        caps.append(cap)
        cap //= 2
    caps = sorted(caps)
    # The indices up to a cap are the first stops[c] entries of all_idx.
    stops = np.searchsorted(all_idx, caps, side="right")
    if stops[0] == 0:
        raise ValidationError(f"index set ∩ [2, {caps[0]}] is empty")

    norm = np.sqrt(np.log(all_idx))[:, None]

    def reduce_chunk(samples: np.ndarray) -> np.ndarray:
        stat = samples.T[all_idx]
        stat /= norm
        # Row-wise minima of the C-ordered block; minimum.accumulate along
        # axis 0 is ten times slower.
        return np.stack([stat[:stop].min(axis=0) for stop in stops])

    per_chunk = _map_sample_chunks(CovMatrix(_lil_cov(cfg)), cfg.n_paths, cfg.seed,
                                   reduce_chunk, threads)
    minima = np.concatenate(per_chunk, axis=1)

    limit = -1.0 / math.sqrt(h)
    band = (limit + LIL_BAND_OFFSETS[0], limit + LIL_BAND_OFFSETS[1])
    report = ExperimentReport(
        kind="lil_statistic",
        config={
            "hurst": h,
            "r": cfg.r,
            "i_max": cfg.i_max,
            "n_paths": cfg.n_paths,
            "limit_constant": limit,
            "band_low": band[0],
            "band_high": band[1],
            "thick_set": "all" if cfg.thick_set is None else cfg.thick_set.description,
        },
        seed=cfg.seed,
    )

    medians = []
    for cap, mins in zip(caps, minima):
        med = float(np.median(mins))
        lo, hi = _median_ci(mins)
        report.add(f"median_min_imax_{cap}", med, lo, hi, cfg.n_paths)
        below = int((mins < band[0]).sum())
        wlo, whi = wilson_interval(below, cfg.n_paths)
        report.add(f"frac_below_band_imax_{cap}", below / cfg.n_paths, wlo, whi,
                   cfg.n_paths)
        medians.append(med)

    report.trends["i_max_ladder"] = [int(c) for c in caps]
    report.trends["median_min"] = medians
    report.trends["median_in_band"] = [bool(band[0] <= m <= band[1]) for m in medians]
    report.trends["median_decreasing"] = [
        bool(medians[k + 1] < medians[k]) for k in range(len(medians) - 1)
    ]
    return report.stamp(start)


def _median_ci(values: np.ndarray) -> tuple[float, float]:
    """Order-statistic (binomial) 95% confidence interval for the median."""
    srt = np.sort(values)
    n = srt.size
    half = 1.96 * math.sqrt(n) / 2.0
    lo = int(np.clip(math.floor(n / 2.0 - half), 0, n - 1))
    hi = int(np.clip(math.ceil(n / 2.0 + half), 0, n - 1))
    return float(srt[lo]), float(srt[hi])


# ---------------------------------------------------------------------------
# Excess-count event probabilities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ArbitrageConfig:
    """Excess-count event family: thresholds alpha, count fraction p, depth n."""

    ctx: HurstContext
    r: float
    alpha: float
    p: float
    n: int
    n_paths: int
    seed: int
    alpha_prime: float | None = None
    p_prime: float | None = None
    r_tilde: float | None = None

    def __post_init__(self) -> None:
        if not (0.0 < self.r < 1.0):
            raise ValidationError(f"r must lie in (0, 1), got {self.r}")
        # alpha = 0 is admitted deliberately: it degrades the event to a
        # median-type condition used as the estimator's negative control.
        if not (0.0 <= self.alpha < 1.0):
            raise ValidationError(f"alpha must lie in [0, 1), got {self.alpha}")
        if not (0.0 < self.p < 1.0):
            raise ValidationError(f"p must lie in (0, 1), got {self.p}")
        if self.n < 1:
            raise ValidationError(f"n must be >= 1, got {self.n}")
        if self.n_paths < 1:
            raise ValidationError(f"n_paths must be >= 1, got {self.n_paths}")
        if self.alpha_prime is not None and not (0.0 < self.alpha_prime < self.alpha):
            raise ValidationError(
                f"need 0 < alpha_prime < alpha, got {self.alpha_prime} vs {self.alpha}"
            )
        if self.p_prime is not None and not (0.0 < self.p_prime < self.p):
            raise ValidationError(
                f"need 0 < p_prime < p, got {self.p_prime} vs {self.p}"
            )
        if self.r_tilde is not None and not (0.0 < self.r_tilde < self.r):
            raise ValidationError(
                f"need 0 < r_tilde < r, got {self.r_tilde} vs {self.r}"
            )

    def thresholds(self, n: int | None = None) -> np.ndarray:
        """alpha * H^{-1/2} * (log i)_+^{1/2} for i in [0, n)."""
        n = self.n if n is None else n
        i = np.arange(n, dtype=float)
        logs = np.maximum(np.log(np.maximum(i, 1.0)), 0.0)
        return self.alpha / math.sqrt(self.ctx.hurst) * np.sqrt(logs)

    def required_count(self, n: int | None = None) -> int:
        """Smallest admissible exceedance count: ceil(p * n)."""
        n = self.n if n is None else n
        return max(1, math.ceil(self.p * n - 1.0e-12))


def _doubling_ladder(n: int) -> list[int]:
    ladder = {1, n}
    k = 2
    while k <= n:
        ladder.add(k)
        k *= 2
    return sorted(ladder)


def _prefix_hits(above: np.ndarray, needs: dict[int, int]) -> np.ndarray:
    """For each depth m in ``needs``, the columns with >= needs[m] True in their first m rows.

    ``above`` is an (n, paths) boolean array, one row per ladder index, read
    row by row in its C order; the counts come in ascending m.  The running
    count is int8: ``a_n_probability`` enforces n <= 64, so it never passes 64.
    """
    count = np.zeros(above.shape[1], dtype=np.int8)
    hits = []
    for m in range(1, above.shape[0] + 1):
        count += above[m - 1]
        if m in needs:
            hits.append(np.count_nonzero(count >= needs[m]))
    return np.asarray(hits, dtype=np.int64)


def a_n_probability(cfg: ArbitrageConfig, *, threads: int = 1) -> ExperimentReport:
    """Wilson-interval estimates of the excess-count probability P(A_n).

    Samples the ladder vector (G_0..G_{n-1}) exactly from its covariance
    (series + Cholesky) and evaluates the event on every prefix in a
    doubling ladder of depths from the same draws, reporting
    log P-hat / n and its trend.  Zero hits at some depth leave only the
    Wilson upper bound meaningful (value 0, ci_low 0).

    Paths come ``_CHUNK`` = 2^15 at a time, one stream per chunk
    (:func:`_map_sample_chunks`); each chunk is reduced on one of
    ``threads`` threads to its prefix hit counts, which are summed in chunk
    order, so the report does not depend on ``threads``.  A chunk's samples
    and its normals are two (n, 2^15) float arrays, 8.4 MB each at n = 32
    and 16.8 MB at the largest n = 64.
    """
    start = time.perf_counter()
    if cfg.n > 64:
        raise ValidationError(
            f"n = {cfg.n} out of the Monte Carlo regime (n <= 64)"
        )
    cov = gamma_cov_matrix(GammaConfig(cfg.ctx, cfg.r, n=cfg.n), cfg.n, threads=threads)
    thr = cfg.thresholds()
    ladder = _doubling_ladder(cfg.n)
    needs = {m: cfg.required_count(m) for m in ladder}

    def reduce_chunk(samples: np.ndarray) -> np.ndarray:
        return _prefix_hits(samples.T >= thr[:, None], needs)

    per_chunk = _map_sample_chunks(cov, cfg.n_paths, cfg.seed, reduce_chunk, threads)
    hits = np.sum(np.stack(per_chunk, axis=0), axis=0)

    report = ExperimentReport(
        kind="a_n_probability",
        config={
            "hurst": cfg.ctx.hurst,
            "r": cfg.r,
            "alpha": cfg.alpha,
            "p": cfg.p,
            "n": cfg.n,
            "n_paths": cfg.n_paths,
        },
        seed=cfg.seed,
    )
    log_p_over_n = []
    for m, h in zip(ladder, hits.tolist()):
        lo, hi = wilson_interval(h, cfg.n_paths)
        report.add(f"p_an_n_{m}", h / cfg.n_paths, lo, hi, cfg.n_paths)
        log_p_over_n.append(math.log(h / cfg.n_paths) / m if h > 0 else None)
    report.trends["n_ladder"] = ladder
    report.trends["hits"] = hits.tolist()
    report.trends["log_p_over_n"] = log_p_over_n
    # n in {1, 2} is dominated by the zero-threshold indices; the decay-rate
    # trend is meaningful from n = 4 up
    rate_pairs = [
        (log_p_over_n[k], log_p_over_n[k + 1])
        for k in range(len(ladder) - 1)
        if ladder[k] >= 4
    ]
    report.trends["rate_strictly_decreasing"] = [
        None if (a is None or b is None) else bool(b < a) for a, b in rate_pairs
    ]
    return report.stamp(start)


# ---------------------------------------------------------------------------
# Bound pipeline: surrogate product chain, comparison threshold, union ledger
# ---------------------------------------------------------------------------


def max_feasible_epsilon() -> float:
    """Largest epsilon with all almost-diagonal constants finite (bisection)."""
    lo, hi = 0.0, 0.25
    while hi - lo > _EPS_BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if phi_functions(mid).all_finite():
            lo = mid
        else:
            hi = mid
    return lo


def _log_normal_tail(x: float) -> float:
    """``log Phi(-x)`` for ``x >= 0``, finite wherever ``x*x`` is.

    ``log(erfc(x / sqrt 2) / 2)`` up to ``_TAIL_SERIES_FROM``; beyond it the
    asymptotic expansion (DLMF 7.12.1)
    ``-x^2/2 - log(x sqrt(2 pi)) + log(1 - 1/x^2 + 3/x^4 - ...)``, summed
    until a term no longer changes the sum.
    """
    if x < _TAIL_SERIES_FROM:
        return math.log(0.5 * math.erfc(x / math.sqrt(2.0)))
    inv = 1.0 / (x * x)
    term, series, k = 1.0, 1.0, 1
    while series + term != series:
        term *= -(2 * k - 1) * inv
        series += term
        k += 1
    return -0.5 * x * x - math.log(x * math.sqrt(2.0 * math.pi)) + math.log(series)


def product_tail_chain(cfg: ArbitrageConfig, index_set) -> dict:
    """Every link of the surrogate-vector tail chain, in log space.

    The surrogate vector has i.i.d. centered Gaussian coordinates with
    variance phi_k * sigma^2; the chain is

        log P(all i in I: coordinate_i >= threshold_i)
          = sum_i log SF(threshold_i / (sqrt(phi_k) sigma))     (exact)
         <= sum_{i in I} -C_l^2 (log i)_+ / 2                   (Gaussian tail)
         <= -C_l^2/2 * log((|I| - 1)!)                          (i_j >= j)
         <= -C_l^2/2 * log((ceil(p n) - 1)!)                    (|I| >= ceil(pn))

    with C_l = alpha H^{-1/2} / (sqrt(phi_k) sigma); log SF is
    :func:`_log_normal_tail`.
    """
    idx = sorted(set(int(i) for i in index_set))
    if not idx:
        raise ValidationError("index set must be nonempty")
    if idx[0] < 0 or idx[-1] >= cfg.n:
        raise ValidationError(f"index set must lie in [0, {cfg.n})")
    need = cfg.required_count()
    if len(idx) < need:
        raise ValidationError(
            f"index set has {len(idx)} elements; chain requires >= ceil(p n) = {need}"
        )
    profile = decay_bound_check(GammaConfig(cfg.ctx, cfg.r, n=cfg.n), max(cfg.n - 1, 1))
    eps = profile.epsilon
    phis = phi_functions(eps)
    if not phis.all_finite() or not math.isfinite(phis.phi_k):
        raise ValidationError(
            f"phi_k is infinite at epsilon = {eps:.6g} (H = {cfg.ctx.hurst}, "
            f"r = {cfg.r}); the chain requires epsilon < "
            f"{max_feasible_epsilon():.6g} — decrease r"
        )
    sigma = math.sqrt(profile.sigma2)
    sd_surrogate = math.sqrt(phis.phi_k) * sigma
    c_l = cfg.alpha / math.sqrt(cfg.ctx.hurst) / sd_surrogate

    logs_plus = np.maximum(np.log(np.maximum(np.asarray(idx, dtype=float), 1.0)), 0.0)
    thresholds = cfg.alpha / math.sqrt(cfg.ctx.hurst) * np.sqrt(logs_plus)
    log_exact = math.fsum(_log_normal_tail(x) for x in (thresholds / sd_surrogate).tolist())
    log_tail = float(-(c_l * c_l) / 2.0 * logs_plus.sum())
    log_sorted = -(c_l * c_l) / 2.0 * math.lgamma(len(idx))
    log_final = -(c_l * c_l) / 2.0 * math.lgamma(need)
    return {
        "epsilon": eps,
        "sigma": sigma,
        "phi_k": phis.phi_k,
        "c_l": c_l,
        "log_exact_product": log_exact,
        "log_tail_product": log_tail,
        "log_sorted_bound": log_sorted,
        "log_final_bound": log_final,
    }


def n_threshold(
    hurst: float, alpha: float, alpha_prime: float, p: float, p_prime: float
) -> int:
    """ceil((e^{H/(alpha - alpha')^2} + 1) / (p - p')) — event-family comparison depth."""
    if not (0.0 < hurst < 1.0):
        raise ValidationError(f"hurst must lie in (0, 1), got {hurst}")
    if not (0.0 < alpha_prime < alpha < 1.0):
        raise ValidationError(
            f"need 0 < alpha_prime < alpha < 1, got {alpha_prime}, {alpha}"
        )
    if not (0.0 < p_prime < p < 1.0):
        raise ValidationError(f"need 0 < p_prime < p < 1, got {p_prime}, {p}")
    gap = alpha - alpha_prime
    return math.ceil((math.exp(hurst / (gap * gap)) + 1.0) / (p - p_prime))


def union_bound_ledger(cfg: ArbitrageConfig, p_an_prime) -> ExperimentReport:
    """Assemble ceil(r_tilde^{-n}) * (P(A'_n) + remainder_n) per depth.

    ``p_an_prime`` maps each depth n to an estimate/bound of the primed-event
    probability.  The remainder is the n-term union bound
    n * C_b * exp(-C_a (r/r_tilde)^{(2H∧1) n}) with the constants of
    ``reg_gamhat_bound``; the multiplier ceil(r_tilde^{-n}) is computed in
    exact integer arithmetic.  The report flags the crossover depth where the
    remainder starts to fall.
    """
    start = time.perf_counter()
    if cfg.r_tilde is None:
        raise ValidationError("union_bound_ledger requires r_tilde in the config")
    items = sorted((int(n), float(v)) for n, v in dict(p_an_prime).items())
    if not items:
        raise ValidationError("p_an_prime must be a nonempty mapping n -> value")
    for n, value in items:
        if n < 1:
            raise ValidationError(f"depths must be >= 1, got {n}")
        if not (0.0 <= value <= 1.0):
            raise ValidationError(f"P(A'_{n}) = {value} outside [0, 1]")

    c_a, c_b = reg_bound_constants(GammaConfig(cfg.ctx, cfg.r))
    kappa = min(2.0 * cfg.ctx.hurst, 1.0)
    ratio = cfg.r / cfg.r_tilde
    frac = Fraction(cfg.r_tilde)

    report = ExperimentReport(
        kind="union_bound_ledger",
        config={
            "hurst": cfg.ctx.hurst,
            "r": cfg.r,
            "r_tilde": cfg.r_tilde,
            "alpha": cfg.alpha,
            "p": cfg.p,
            "c_a": c_a,
            "c_b": c_b,
        },
        seed=cfg.seed,
    )
    depths, multipliers, remainders, assembled = [], [], [], []
    for n, value in items:
        mult = -(-frac.denominator**n // frac.numerator**n)  # ceil(r_tilde^-n)
        rem = n * c_b * math.exp(-c_a * ratio ** (kappa * n))
        try:
            total = float(mult) * (value + rem)
        except OverflowError:
            total = math.inf
        depths.append(n)
        multipliers.append(int(mult))
        remainders.append(rem)
        assembled.append(total)
    report.trends["n"] = depths
    report.trends["multiplier"] = multipliers
    report.trends["p_an_prime"] = [v for _, v in items]
    report.trends["remainder"] = remainders
    report.trends["assembled"] = assembled
    crossover = None
    for k in range(1, len(remainders)):
        if remainders[k] < remainders[k - 1]:
            crossover = depths[k]
            break
    report.trends["remainder_crossover_n"] = [crossover]
    return report.stamp(start)

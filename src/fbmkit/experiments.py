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

The two Monte Carlo families draw and reduce their paths through the engine
:func:`fbmkit.rng.draw_reduce`, so the thread count never changes a report
and memory is bounded by the thread count, not by the number of paths.

Every report carries its wall time and creation time as volatile fields.

The bound pipeline imports what only it uses when it runs:
:func:`max_feasible_epsilon` and :func:`product_tail_chain` take
:mod:`fbmkit.almostdiag`, and :func:`union_bound_ledger` takes
:mod:`fractions`, so importing this module, as the CLI does at start,
loads neither.
"""

from __future__ import annotations

import contextlib
import math
import time
from typing import TYPE_CHECKING

import numpy as np

from .context import HurstContext
from .errors import AccuracyError, ValidationError
from .fbm import levy_cov_matrix
from .gamma import GammaConfig, decay_bound_check, gamma_cov_matrix, reg_bound_constants
from .gaussian import CovMatrix, _row_panels
from .reports import ExperimentReport, wilson_interval
from .rng import draw_reduce

if TYPE_CHECKING:
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

# Width at which the bisection of max_feasible_epsilon stops.
_EPS_BISECTION_TOL = 1.0e-12
# Above this x, log Phi(-x) comes from the asymptotic series, well before
# erfc(x / sqrt 2) underflows (near x = 37.5).
_TAIL_SERIES_FROM = 30.0


# ---------------------------------------------------------------------------
# Scale-ladder law of the iterated logarithm statistic
# ---------------------------------------------------------------------------


class LilConfig:
    """Running-minimum experiment: context, ratio, depth, index set, sampling."""

    __slots__ = ("ctx", "r", "i_max", "n_paths", "seed", "thick_set")

    def __init__(self, ctx: HurstContext, r: float, i_max: int, n_paths: int, seed: int,
                 thick_set: ThickSet | None = None) -> None:
        if not (0.0 < r < 1.0):
            raise ValidationError(f"r must lie in (0, 1), got {r}")
        if i_max < 2:
            raise ValidationError(f"i_max must be >= 2, got {i_max}")
        if r**i_max < 1.0e-300:
            raise ValidationError(f"scale r^{i_max} underflows for r={r}")
        if n_paths < 1:
            raise ValidationError(f"n_paths must be >= 1, got {n_paths}")
        if thick_set is not None and len(thick_set) < i_max + 1:
            raise ValidationError("thick_set prefix must cover indices up to i_max")
        self.ctx, self.r, self.i_max, self.n_paths = ctx, r, i_max, n_paths
        self.seed, self.thick_set = seed, thick_set


def _lil_cov(cfg: LilConfig) -> np.ndarray:
    """Exact covariance of the normalised values Y_{r^i} / r^{H i}, i <= i_max.

    The one-sided covariance at the ladder times r^i (taken in increasing
    order) divided by r^{H i} r^{H j}.  It is well conditioned (cond 33 at
    H = 1/2), so its Cholesky factor needs no jitter.  The division runs in
    place a row panel at a time, and both axes are reversed by moves, each
    row reversed into its mirror row: past what ``levy_cov_matrix`` holds,
    the call adds one panel and one row, not a second matrix.
    """
    times = cfg.r ** np.arange(cfg.i_max + 1, dtype=float)
    scale = times**cfg.ctx.hurst
    out = levy_cov_matrix(times[::-1], cfg.ctx)
    rev = scale[::-1]
    n = rev.size
    for rows in _row_panels(n, n):
        out[rows] /= rev[rows, None] * rev[None, :]
    row = np.empty(n)
    for i in range((n + 1) // 2):
        j = n - 1 - i
        row[:] = out[i, ::-1]
        out[i] = out[j, ::-1]
        out[j] = row
    return out


def lil_statistic(cfg: LilConfig, *, threads: int = 1) -> ExperimentReport:
    """Distribution of the running minimum of Y_{r^i}/((log i)^{1/2} r^{Hi}).

    Indices i in (thick set) ∩ [2, i_max] (the normalizer vanishes at
    i <= 1); the report carries the median at each depth of a halving ladder
    i_max, i_max/2, i_max/4 (>= 2), its order-statistic confidence interval,
    the acceptance band around the limit constant -1/sqrt(H), and the
    fraction of paths falling below the band.

    The normalised values are drawn directly from their exact covariance
    (:func:`_lil_cov`) by :func:`~fbmkit.rng.draw_reduce`, which reduces each
    chunk of 2^15 paths to its minima up to each ladder depth.  A chunk's
    buffer holds (i_max+1) x 2^15 floats, 10.7 MB at the CLI's default
    i_max = 40; the reduction adds a few rows of 0.26 MB.
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

    norm = np.sqrt(np.log(all_idx))

    def reduce_chunk(samples: np.ndarray) -> np.ndarray:
        # The rows of samples.T are C-ordered rows of the draw: normalise
        # them one at a time into `row` and fold them into the running
        # minimum in index order, taking its value at each cap.
        values = samples.T
        running = values[all_idx[0]] / norm[0]
        row = np.empty_like(running)
        minima = np.empty((len(stops), running.size))
        done = 1
        for c, stop in enumerate(stops):
            for j in range(done, stop):
                np.divide(values[all_idx[j]], norm[j], out=row)
                np.minimum(running, row, out=running)
            done = stop
            minima[c] = running
        return minima

    per_chunk = draw_reduce(CovMatrix(_lil_cov(cfg)), cfg.n_paths, cfg.seed,
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
        med, lo, hi = _median_and_ci(mins)
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


def _median_and_ci(values: np.ndarray) -> tuple[float, float, float]:
    """The median and its order-statistic (binomial) 95% confidence interval.

    All three come from one ``np.partition``.  The median is the mean of the
    middle one or two values, as ``np.median`` takes it, without the nan
    check that imports ``numpy.ma``.
    """
    n = values.size
    half = 1.96 * math.sqrt(n) / 2.0
    lo = min(max(math.floor(n / 2.0 - half), 0), n - 1)
    hi = min(max(math.ceil(n / 2.0 + half), 0), n - 1)
    middle = slice((n - 1) // 2, n // 2 + 1)
    part = np.partition(values, sorted({lo, hi, middle.start, middle.stop - 1}))
    return float(part[middle].mean()), float(part[lo]), float(part[hi])


# ---------------------------------------------------------------------------
# Excess-count event probabilities
# ---------------------------------------------------------------------------


def _check_event_family(r: float, alpha: float, p: float) -> None:
    """Refuse a scale ratio, threshold or count fraction outside its range."""
    if not (0.0 < r < 1.0):
        raise ValidationError(f"r must lie in (0, 1), got {r}")
    # alpha = 0 is admitted deliberately: it degrades the event to a
    # median-type condition used as the estimator's negative control.
    if not (0.0 <= alpha < 1.0):
        raise ValidationError(f"alpha must lie in [0, 1), got {alpha}")
    if not (0.0 < p < 1.0):
        raise ValidationError(f"p must lie in (0, 1), got {p}")


class ArbitrageConfig:
    """Excess-count event family: thresholds alpha, count fraction p, depth n."""

    __slots__ = ("ctx", "r", "alpha", "p", "n", "n_paths", "seed")

    def __init__(self, ctx: HurstContext, r: float, alpha: float, p: float, n: int,
                 n_paths: int, seed: int) -> None:
        _check_event_family(r, alpha, p)
        if n < 1:
            raise ValidationError(f"n must be >= 1, got {n}")
        if n_paths < 1:
            raise ValidationError(f"n_paths must be >= 1, got {n_paths}")
        self.ctx, self.r, self.alpha, self.p = ctx, r, alpha, p
        self.n, self.n_paths, self.seed = n, n_paths, seed

    def thresholds(self) -> np.ndarray:
        """alpha * H^{-1/2} * (log i)_+^{1/2} for i in [0, n)."""
        i = np.arange(self.n, dtype=float)
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

    :func:`~fbmkit.rng.draw_reduce` reduces each chunk of 2^15 paths to its
    prefix hit counts, summed in chunk order.  A chunk's buffer holds
    n x 2^15 floats, 8.4 MB at n = 32 and 16.8 MB at n = 64; the reduction
    adds an n x 2^15 boolean array (1 MB at n = 32).
    """
    start = time.perf_counter()
    if cfg.n > 64:
        raise ValidationError(
            f"n = {cfg.n} out of the Monte Carlo regime (n <= 64)"
        )
    cov = gamma_cov_matrix(GammaConfig(cfg.ctx, cfg.r), cfg.n)
    thr = cfg.thresholds()
    ladder = _doubling_ladder(cfg.n)
    needs = {m: cfg.required_count(m) for m in ladder}

    def reduce_chunk(samples: np.ndarray) -> np.ndarray:
        return _prefix_hits(samples.T >= thr[:, None], needs)

    per_chunk = draw_reduce(cov, cfg.n_paths, cfg.seed, reduce_chunk, threads)
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
    from .almostdiag import phi_functions

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
    from .almostdiag import phi_functions

    profile = decay_bound_check(GammaConfig(cfg.ctx, cfg.r), max(cfg.n - 1, 1))
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
    try:
        return math.ceil((math.exp(hurst / (gap * gap)) + 1.0) / (p - p_prime))
    except (OverflowError, ZeroDivisionError):  # gap * gap may underflow to 0
        raise AccuracyError(f"n_threshold: the depth exceeds the float range at alpha"
                            f" - alpha_prime = {gap:.6g}") from None


def union_bound_ledger(ctx: HurstContext, r: float, r_tilde: float, alpha: float,
                       p: float, p_an_prime) -> ExperimentReport:
    """Assemble ceil(r_tilde^{-n}) * (P(A'_n) + remainder_n) per depth.

    ``p_an_prime`` maps each depth n to an estimate/bound of the primed-event
    probability.  The remainder is the n-term union bound
    n * C_b * exp(-C_a (r/r_tilde)^{(2H∧1) n}) with the constants of
    ``reg_gamhat_bound``; the multiplier ceil(r_tilde^{-n}) is computed in
    exact integer arithmetic, and a value past the float range raises
    :class:`~fbmkit.errors.AccuracyError`.  The report flags the crossover
    depth where the remainder starts to fall.  ``alpha`` and ``p``, the event
    family the probabilities belong to, are range-checked and echoed in the
    config; the report's seed is 0, as nothing is drawn.
    """
    from fractions import Fraction

    start = time.perf_counter()
    _check_event_family(r, alpha, p)
    if not (0.0 < r_tilde < r):
        raise ValidationError(f"need 0 < r_tilde < r, got {r_tilde} vs {r}")
    items = sorted((int(n), float(v)) for n, v in dict(p_an_prime).items())
    if not items:
        raise ValidationError("p_an_prime must be a nonempty mapping n -> value")
    for n, value in items:
        if n < 1:
            raise ValidationError(f"depths must be >= 1, got {n}")
        if not (0.0 <= value <= 1.0):
            raise ValidationError(f"P(A'_{n}) = {value} outside [0, 1]")

    c_a, c_b = reg_bound_constants(GammaConfig(ctx, r))
    kappa = min(2.0 * ctx.hurst, 1.0)
    ratio = r / r_tilde
    frac = Fraction(r_tilde)

    report = ExperimentReport(
        kind="union_bound_ledger",
        config={
            "hurst": ctx.hurst,
            "r": r,
            "r_tilde": r_tilde,
            "alpha": alpha,
            "p": p,
            "c_a": c_a,
            "c_b": c_b,
        },
        seed=0,
    )
    depths, multipliers, remainders, assembled = [], [], [], []
    for n, value in items:
        total = math.inf
        # Past 2^1100 the multiplier is no float, and its exact integer would
        # take n times the digits of r_tilde to find that out.
        if n * -math.log2(r_tilde) <= 1100.0:
            mult = -(-frac.denominator**n // frac.numerator**n)  # ceil(r_tilde^-n)
            try:
                rem = n * c_b * math.exp(-c_a * ratio ** (kappa * n))
            except OverflowError:  # the power is past the float range: the limit
                rem = 0.0
            with contextlib.suppress(OverflowError):
                total = float(mult) * (value + rem)
        if not math.isfinite(total):
            raise AccuracyError(f"union_bound_ledger: the bound at n = {n} exceeds the float range")
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

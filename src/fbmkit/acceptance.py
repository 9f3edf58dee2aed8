"""End-to-end acceptance battery: eleven numbered oracle-backed criteria.

Each criterion exercises one load-bearing claim of the library against an
independent route (closed form, regression oracle, joint-law sampling,
exhaustive enumeration, or Monte Carlo with pinned tolerances).  Where the
library has the claim in closed form the criterion draws nothing: criteria 2
(the conditional decomposition) and 8 (the scale ladder's covariance) check
identities to a rounding bound and gaps that fall along a ladder of ever
finer windows or grids.  The battery is deterministic: one master seed fans
out to per-criterion seed sequences, every sampler consumes a single logical
stream (or per-chunk streams), and criterion 11 re-runs the first ten at a
different thread count and demands byte-identical canonical reports.

``run_all`` runs the battery, criterion 11 included, for the CLI
``selftest`` subcommand; ``run_criterion`` runs one of criteria 1-10 with
the same seeds, which is how the per-criterion tests call it.
"""

from __future__ import annotations

import functools
import hashlib
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .almostdiag import matrix_batch_check, tuple_count_bound, valid_tuple_count
from .context import make_context
from .drift import (
    DriftKernelSpec,
    driver_roundtrip,
    inversion_grid,
    pipiras_taqqu_invert,
    prediction_routes,
    regression_weights,
    rel_l2,
)
from .errors import FbmkitError, ValidationError
from .experiments import ArbitrageConfig, LilConfig, a_n_probability, lil_statistic
from .fbm import FgnSampler, fbm_cov, fbm_cov_matrix, levy_cov_matrix, sample_obm
from .gamma import GammaConfig, decay_bound_check, gamma_cov, gamma_mc_implied_cov
from .gaussian import CovMatrix, CrossMoments
from .reports import utc_now
from .rng import DEFAULT_SEED, draw_reduce, make_rng
from .serialize import canonical_json_dumps
from .subgauss import subgaussian_bound, subgaussian_constants

__all__ = [
    "ACCEPTANCE_SCHEMA",
    "CriterionResult",
    "AcceptanceReport",
    "run_all",
    "run_criterion",
    "CRITERION_NAMES",
]

CRITERION_NAMES = {
    1: "covariance-fidelity",
    2: "conditional-decomposition",
    3: "kernel-route-equality",
    4: "driver-roundtrip",
    5: "matrix-bounds",
    6: "word-coding-count",
    7: "subgaussian-sup",
    8: "gamma-decay",
    9: "lil-trend",
    10: "event-rate-trend",
    11: "determinism",
}

# Criterion 10 exercises a decay-rate trend that the pinned parameter point
# does not actually satisfy between depths 8 and 16 (the underlying
# probabilities decay superexponentially only asymptotically; at depth 16 the
# finite-size rate ticks up by about +4e-3 nats, resolved at ~10 sigma).
# The check is implemented literally and is expected to fail.
EXPECTED_FAILURES = frozenset({10})


@dataclass
class CriterionResult:
    """Outcome of one numbered acceptance criterion."""

    number: int
    name: str
    passed: bool
    detail: str
    runtime: float
    expected_failure: bool = False
    metrics: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        if not self.passed and self.expected_failure:
            status = "FAIL (expected)"
        return (
            f"[{status:>15}] criterion {self.number:2d} {self.name:<27}"
            f" {self.runtime:7.1f}s  {self.detail}"
        )

    def as_dict(self, *, include_volatile: bool = True) -> dict:
        doc = {
            "number": self.number,
            "name": self.name,
            "passed": self.passed,
            "expected_failure": self.expected_failure,
            "detail": self.detail,
            "metrics": dict(self.metrics),
        }
        if include_volatile:
            doc["runtime"] = self.runtime
        return doc


@dataclass
class AcceptanceReport:
    """Full battery outcome plus the canonical bytes criterion 11 compares."""

    seed: int
    threads: int
    results: list[CriterionResult]

    def as_dict(self) -> dict:
        """The ``selftest`` artifact's document, shaped as :data:`ACCEPTANCE_SCHEMA`."""
        return {
            "kind": "acceptance",
            "seed": self.seed,
            "criteria": [r.as_dict() for r in self.results],
            "threads": self.threads,
            "created_utc": utc_now(),
        }

    def lines(self) -> list[str]:
        return [r.line() for r in self.results]


ACCEPTANCE_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["kind", "seed", "criteria"],
    "properties": {
        "kind": {"const": "acceptance"},
        "seed": {"type": "integer"},
        "threads": {"type": "integer", "minimum": 1},
        "created_utc": {"type": "string"},
        "criteria": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": [
                    "number", "name", "passed", "expected_failure", "detail",
                    "metrics",
                ],
                "additionalProperties": False,
                "properties": {
                    "number": {"type": "integer", "minimum": 1, "maximum": 11},
                    "name": {"type": "string"},
                    "passed": {"type": "boolean"},
                    "expected_failure": {"type": "boolean"},
                    "detail": {"type": "string"},
                    "runtime": {"type": "number", "minimum": 0},
                    "metrics": {
                        "type": "object",
                        "additionalProperties": {
                            "type": ["number", "string", "boolean", "null"],
                        },
                    },
                },
            },
        },
    },
    "additionalProperties": False,
}


def _f(x: float) -> str:
    """Deterministic short rendering for detail strings."""
    return f"{float(x):.6g}"


def _exp_grid_neg(e_min: float, e_max: float, per_decade: int) -> np.ndarray:
    """Strictly negative geometric times -10^e_max .. -10^e_min (increasing)."""
    k = np.arange(int(round((e_max - e_min) * per_decade)) + 1)
    return -(10.0 ** (e_min + k / per_decade))[::-1]


# ---------------------------------------------------------------------------
# 1. Covariance fidelity of both samplers
# ---------------------------------------------------------------------------

def _criterion_1(seed_seq, threads: int) -> tuple[bool, str, dict]:
    n_steps, n_paths = 64, 100_000
    dt = 1.0 / n_steps
    times = dt * np.arange(1, n_steps + 1)
    seeds = iter(seed_seq.spawn(4))
    metrics: dict = {}
    worst = 0.0
    for hurst in (0.25, 0.75):
        levy = levy_cov_matrix(times, make_context(hurst))
        # Each 2^15-path chunk is reduced to moment sums as drawn (fGn summed to fBm in place).
        for label, sampler, to_paths, ref in (
            ("fbm", FgnSampler(hurst, n_steps, dt),
             lambda x: np.cumsum(x, axis=1, out=x), fbm_cov_matrix(times, hurst)),
            ("levy", CovMatrix(levy.copy()), lambda x: x, levy),
        ):
            parts = draw_reduce(sampler, n_paths, next(seeds),
                                lambda x: CrossMoments().add(to_paths(x)), threads)
            emp, se = functools.reduce(CrossMoments.merge, parts).finish()
            z_max = float(np.max(np.abs(emp - ref) / se))
            metrics[f"zmax_{label}_h{hurst}"] = z_max
            worst = max(worst, z_max)
    passed = worst <= 4.0
    detail = f"max |emp-ref|/SE = {_f(worst)} over 4 runs (gate 4)"
    return passed, detail, metrics


# ---------------------------------------------------------------------------
# 2. Conditional decomposition: drift prediction + one-sided noise
# ---------------------------------------------------------------------------

# Points per decade of criterion 2's past windows: each rung halves the spacing.
_C2_LADDER = (12, 24, 48, 96)
# Each rung of a ladder must cut the gap to at most this fraction of the last.
_LADDER_FALL = 0.75


def _worst_fall(gaps: list[float]) -> float:
    """The largest ratio of a gap to the one before it along a ladder."""
    return max(b / a for a, b in zip(gaps, gaps[1:]))


def _criterion_2(seed_seq, threads: int) -> tuple[bool, str, dict]:
    # With W the regression weights, the future is the drift W^T p plus a
    # residual: Cov(residual, past) = C_pf - C_pp W is 0 up to rounding, and
    # Cov(residual) = C_ff - C_pf^T W tends to the one-sided covariance as
    # the window refines, while the drift-omitted control C_ff stays far
    # from it.  Both come from the one factor of C_pp that W takes.
    v_grid = np.linspace(0.125, 2.0, 16)
    metrics: dict = {}
    all_ok = True
    for hurst, e_hi in ((0.25, 3.0), (0.75, 7.0)):
        lev = levy_cov_matrix(v_grid, make_context(hurst))
        c_ff = fbm_cov_matrix(v_grid, hurst)
        orth, budgets = 0.0, []
        for per_decade in _C2_LADDER:
            past = _exp_grid_neg(-7.0, e_hi, per_decade)
            c_pf = fbm_cov(past[:, None], v_grid[None, :], hurst)
            weights = regression_weights(hurst, past, v_grid)
            cross = c_pf - fbm_cov_matrix(past, hurst) @ weights
            orth = max(orth, float(np.abs(cross).max() / np.abs(c_pf).max()))
            residual = c_ff - c_pf.T @ weights
            budgets.append(float(np.abs(residual - lev).max()))
        fall = _worst_fall(budgets)
        control = float(np.abs(c_ff - lev).max())
        ratio = control / max(budgets)

        metrics[f"orthogonality_h{hurst}"] = orth
        metrics[f"budget_h{hurst}"] = budgets[-1]
        metrics[f"budget_fall_h{hurst}"] = fall
        metrics[f"control_h{hurst}"] = control
        metrics[f"control_ratio_h{hurst}"] = ratio
        all_ok = all_ok and orth <= 1.0e-12 and fall <= _LADDER_FALL and ratio >= 100.0
    detail = (
        f"orthogonality {_f(metrics['orthogonality_h0.25'])}/"
        f"{_f(metrics['orthogonality_h0.75'])} (gate 1e-12);"
        f" budget {_f(metrics['budget_h0.25'])}/{_f(metrics['budget_h0.75'])}"
        f" at {_C2_LADDER[-1]} per decade, worst rung ratio"
        f" {_f(metrics['budget_fall_h0.25'])}/{_f(metrics['budget_fall_h0.75'])}"
        f" (gate {_LADDER_FALL}); control {_f(metrics['control_ratio_h0.25'])}/"
        f"{_f(metrics['control_ratio_h0.75'])} budgets (must exceed 100)"
    )
    return all_ok, detail, metrics


# ---------------------------------------------------------------------------
# 3. Kernel route vs driver route on jointly sampled pasts
# ---------------------------------------------------------------------------

def _criterion_3(seed_seq, threads: int) -> tuple[bool, str, dict]:
    n_paths = 100
    kspec = DriftKernelSpec(ctx=make_context(0.75))
    v_grid = np.linspace(0.125, 2.0, 16)
    per_decade = 48
    fine_neg = _exp_grid_neg(-7.0, 9.0, per_decade)

    # Both routes on two windows of one joint draw on the fine grid.  The
    # default window: every second exponent, truncated two decades shallower.
    exps = np.round(np.log10(-fine_neg) * per_decade).astype(int)
    default_mask = (exps % 2 == 0) & (-fine_neg <= 1.0e7 * (1 + 1e-9))
    windows = (default_mask, np.ones(fine_neg.size, dtype=bool))
    preds = prediction_routes(kspec, fine_neg, v_grid, make_rng(seed_seq), n_paths, windows)
    errors = {label: rel_l2(*pair) for label, pair in zip(("default", "refined"), preds)}

    passed = (
        errors["default"] < 0.05
        and errors["refined"] < 0.02
        and errors["refined"] < errors["default"]
    )
    detail = (
        f"rel L2 default {_f(errors['default'])} (gate 0.05),"
        f" refined {_f(errors['refined'])} (gate 0.02, strictly smaller)"
    )
    return passed, detail, {f"rel_l2_{k}": v for k, v in errors.items()}


# ---------------------------------------------------------------------------
# 4. Driver recovery round trip
# ---------------------------------------------------------------------------

def _criterion_4(seed_seq, threads: int) -> tuple[bool, str, dict]:
    rng = make_rng(seed_seq)
    n_paths = 100
    dt = 1.0 / 512
    t_inv = -np.linspace(1.0, 1.0 / 16, 16)
    metrics: dict = {}
    ok = True
    for hurst in (0.25, 0.75):
        kspec = DriftKernelSpec(ctx=make_context(hurst))
        err = rel_l2(*driver_roundtrip(kspec, inversion_grid(dt), rng, n_paths)[:2])
        metrics[f"rel_l2_h{hurst}"] = err
        ok = ok and err < 0.05

    # hurst = 1/2: the moving average is the driver itself, so the recovery
    # must be an exact identity on any observed path.
    ctx_half = make_context(0.5)
    # The path's last sample is its pin at t = 0, which the operator adds.
    w_path = sample_obm(1024, dt, rng, t0=-2.0)[0, :-1]
    w_times = -2.0 + dt * np.arange(1024)
    rec = pipiras_taqqu_invert(DriftKernelSpec(ctx=ctx_half), w_times, w_path, t_inv)
    exact_err = float(np.max(np.abs(rec - np.interp(t_inv, w_times, w_path))))
    metrics["identity_err_h0.5"] = exact_err
    ok = ok and exact_err <= 1.0e-10

    detail = (
        f"rel L2 {_f(metrics['rel_l2_h0.25'])}/{_f(metrics['rel_l2_h0.75'])}"
        f" (gate 0.05); identity error at h=1/2 {_f(exact_err)} (gate 1e-10)"
    )
    return ok, detail, metrics


# ---------------------------------------------------------------------------
# 5. Almost-diagonal matrix bounds
# ---------------------------------------------------------------------------

def _criterion_5(seed_seq, threads: int) -> tuple[bool, str, dict]:
    rng = make_rng(seed_seq)
    total_checked = 0
    total_violations = 0
    min_margin = math.inf
    for n in (4, 16, 64):
        for eps in (0.01, 0.05, 0.1):
            rep = matrix_batch_check(n, eps, 1000, rng)
            total_checked += rep.checked
            total_violations += rep.violations
            min_margin = min(
                min_margin, rep.min_det_margin, rep.min_offdiag_margin,
                rep.min_diag_margin,
            )
    passed = total_violations == 0
    detail = (
        f"{total_checked} instances, {total_violations} violations"
        f" (slack 1e-09), worst margin {_f(min_margin)}"
    )
    return passed, detail, {
        "checked": total_checked,
        "violations": total_violations,
        "min_margin": float(min_margin),
    }


# ---------------------------------------------------------------------------
# 6. Exhaustive walk-count bound
# ---------------------------------------------------------------------------

def _criterion_6(seed_seq, threads: int) -> tuple[bool, str, dict]:
    checked = 0
    violations = 0
    for z in range(-6, 7):
        for k in range(1, 5):
            for n in range(1, 13):
                if valid_tuple_count(z, k, n) > tuple_count_bound(z, k, n):
                    violations += 1
                checked += 1
    passed = violations == 0
    detail = f"{checked} (z, k, n) triples checked, {violations} violations"
    return passed, detail, {"checked": checked, "violations": violations}


# ---------------------------------------------------------------------------
# 7. Sub-Gaussian supremum tail bound
# ---------------------------------------------------------------------------

def _criterion_7(seed_seq, threads: int) -> tuple[bool, str, dict]:
    n_paths = 10_000
    rng = make_rng(seed_seq)
    metrics: dict = {}
    ok = True

    # theta = 1/2: Brownian motion on a 1024-step unit grid (increment sd
    # |t-s|^(1/2), pathwise values bounded by the Holder envelope).
    n_steps, chunk = 1024, 2000
    sup_bm = np.concatenate([
        np.max(np.abs(sample_obm(n_steps, 1.0 / n_steps, rng, paths=chunk)), axis=1)
        for _ in range(n_paths // chunk)
    ])

    # theta = 1: the linear path X_t = t * xi (increment sd exactly |t-s|).
    sup_line = np.abs(rng.standard_normal(n_paths))

    for theta, sups in ((0.5, sup_bm), (1.0, sup_line)):
        consts = subgaussian_constants(theta)
        for x in (1.0, 2.0, 3.0):
            p_hat = float(np.mean(sups >= x))
            se = math.sqrt(max(p_hat * (1.0 - p_hat), 1.0 / n_paths) / n_paths)
            bound = float(subgaussian_bound(consts, x))
            ok = ok and (p_hat <= bound + 3.0 * se)
            metrics[f"phat_theta{theta}_x{int(x)}"] = p_hat
            metrics[f"bound_theta{theta}_x{int(x)}"] = bound
    detail = (
        f"worst case theta=1, x=3: p-hat {_f(metrics['phat_theta1.0_x3'])}"
        f" <= bound {_f(metrics['bound_theta1.0_x3'])} + 3 SE"
    )
    return ok, detail, metrics


# ---------------------------------------------------------------------------
# 8. Covariance decay of the normalized increment field
# ---------------------------------------------------------------------------

# Rungs of criterion 8's driver grid, (far end, points per decade).  Both
# grow: at a fixed far end the truncated tail, of relative size
# ~u_max^(2H-2), stops the gap from falling.
_C8_LADDER = ((1.0e6, 48), (1.0e8, 96), (1.0e10, 192), (1.0e12, 384))


def _criterion_8(seed_seq, threads: int) -> tuple[bool, str, dict]:
    ctx = make_context(0.75)
    d_max = 5
    lags = np.abs(np.subtract.outer(np.arange(d_max + 1), np.arange(d_max + 1)))
    metrics: dict = {}
    finest = {}
    ok = True
    for r in (0.1, 0.5):
        cfg = GammaConfig(ctx, r)
        profile = decay_bound_check(cfg, 30)
        metrics[f"cf_fit_r{r}"] = profile.cf_fit
        metrics[f"trend_slope_r{r}"] = profile.trend_slope
        ok = ok and profile.trend_ok

        # Independent route: the discrete-driver conditional mean, whose
        # covariance sits below the series one in the PSD order by a gap
        # that closes along the ladder of driver grids.
        series = gamma_cov(cfg, d_max + 1)[lags]
        gaps, margin = [], math.inf
        for u_max, per_decade in _C8_LADDER:
            gap = (series - gamma_mc_implied_cov(cfg, d_max, u_max, per_decade)) / series[0, 0]
            gaps.append(float(np.abs(gap).max()))
            margin = min(margin, float(np.linalg.eigvalsh(gap)[0]))
        fall = _worst_fall(gaps)
        metrics[f"psd_margin_r{r}"] = margin
        metrics[f"gap_fall_r{r}"] = fall
        finest[r] = gaps[-1]
        ok = ok and margin > 0.0 and fall <= _LADDER_FALL
    detail = (
        f"decay envelope saturates at c_f {_f(metrics['cf_fit_r0.1'])}"
        f"/{_f(metrics['cf_fit_r0.5'])} (r=0.1/0.5);"
        f" series less discrete-driver covariance at the finest grid"
        f" {_f(finest[0.1])}/{_f(finest[0.5])} of sigma2, smallest eigenvalue"
        f" {_f(metrics['psd_margin_r0.1'])}/{_f(metrics['psd_margin_r0.5'])} (must exceed 0),"
        f" worst rung ratio {_f(metrics['gap_fall_r0.1'])}/{_f(metrics['gap_fall_r0.5'])}"
        f" (gate {_LADDER_FALL})"
    )
    return ok, detail, metrics


# ---------------------------------------------------------------------------
# 9. Running-minimum trend toward the iterated-logarithm constant
# ---------------------------------------------------------------------------

def _criterion_9(seed_seq, threads: int) -> tuple[bool, str, dict]:
    seed = int(seed_seq.generate_state(1, np.uint64)[0])
    cfg = LilConfig(make_context(0.75), r=0.5, i_max=40, n_paths=2000, seed=seed)
    report = lil_statistic(cfg, threads=threads)
    caps = report.trends["i_max_ladder"]
    medians = report.trends["median_min"]
    in_band = report.trends["median_in_band"]
    decreasing = report.trends["median_decreasing"]
    passed = all(in_band) and all(decreasing)
    detail = (
        "medians " + "/".join(_f(m) for m in medians)
        + f" at caps {'/'.join(str(c) for c in caps)}, band"
        f" [{_f(report.config['band_low'])}, {_f(report.config['band_high'])}],"
        f" strictly decreasing: {all(decreasing)}"
    )
    metrics = {f"median_imax_{c}": float(m) for c, m in zip(caps, medians)}
    return passed, detail, metrics


# ---------------------------------------------------------------------------
# 10. Excess-count event probability rate trend
# ---------------------------------------------------------------------------

def _criterion_10(seed_seq, threads: int) -> tuple[bool, str, dict]:
    seed = int(seed_seq.generate_state(1, np.uint64)[0])
    cfg = ArbitrageConfig(
        make_context(0.75), r=0.1, alpha=0.5, p=0.5, n=32,
        n_paths=1_000_000, seed=seed,
    )
    report = a_n_probability(cfg, threads=threads)
    ladder = report.trends["n_ladder"]
    rates = dict(zip(ladder, report.trends["log_p_over_n"]))
    strict = report.trends["rate_strictly_decreasing"]
    strictly_decreasing = bool(strict) and all(s is True for s in strict)

    est4, est32 = report.get("p_an_n_4"), report.get("p_an_n_32")
    ci4 = (math.log(est4.ci_low) / 4.0, math.log(est4.ci_high) / 4.0)
    ci32 = (math.log(est32.ci_low) / 32.0, math.log(est32.ci_high) / 32.0)
    separated = ci32[1] < ci4[0] or ci4[1] < ci32[0]

    est1 = report.get("p_an_n_1")
    sanity = est1.ci_low <= 0.5 <= est1.ci_high

    passed = strictly_decreasing and separated and sanity
    rate_txt = "/".join(
        "none" if rates[m] is None else _f(rates[m]) for m in (4, 8, 16, 32)
    )
    detail = (
        f"log p-hat / n at depths 4/8/16/32: {rate_txt};"
        f" strictly decreasing: {strictly_decreasing}"
        " (the 8 to 16 step moves up by ~+4e-3 nats, a real finite-size"
        " effect, so this subclause fails by design);"
        f" CI separation 4 vs 32: {separated}; depth-1 sanity 1/2 in CI: {sanity}"
        " (a 95% interval, so it misses 1/2 about one seed in twenty)"
    )
    metrics = {
        f"log_rate_n{m}": (None if rates[m] is None else float(rates[m]))
        for m in (4, 8, 16, 32)
    }
    metrics["p_n1"] = est1.value
    return passed, detail, metrics


_CRITERIA = {
    1: _criterion_1,
    2: _criterion_2,
    3: _criterion_3,
    4: _criterion_4,
    5: _criterion_5,
    6: _criterion_6,
    7: _criterion_7,
    8: _criterion_8,
    9: _criterion_9,
    10: _criterion_10,
}

# Wall-clock ceilings pinned by the acceptance configuration (seconds).
RUNTIME_LIMITS = {1: 60.0, 2: 300.0, 5: 60.0, 6: 30.0, 10: 600.0}


def run_criterion(number: int, seed: int = DEFAULT_SEED, threads: int = 1) -> CriterionResult:
    """Run one of criteria 1-10 in isolation (same seeds as ``run_all``).

    Criterion ``k`` draws from ``SeedSequence(seed).spawn(10)[k - 1]``, the
    same child on every call.  Criterion 11 compares two whole batteries, so
    only ``run_all`` runs it.  A criterion that raises an ``FbmkitError``
    is reported as failed, with ``raised <Type>: <message>`` as its detail,
    and never as an expected failure.
    """
    if number not in _CRITERIA:
        raise ValidationError(f"criterion number must be in 1..10, got {number}")
    seed_seq = np.random.SeedSequence(seed).spawn(10)[number - 1]
    expected = number in EXPECTED_FAILURES
    start = time.perf_counter()
    try:
        passed, detail, metrics = _CRITERIA[number](seed_seq, threads)
    except FbmkitError as exc:
        # A criterion that cannot finish fails, and not in the declared way.
        passed, detail, metrics = False, f"raised {type(exc).__name__}: {exc}", {}
        expected = False
    runtime = time.perf_counter() - start
    limit = RUNTIME_LIMITS.get(number)
    if limit is not None and runtime > limit:
        passed = False
        detail += f"; runtime {runtime:.1f}s exceeded the {limit:.0f}s ceiling"
    return CriterionResult(
        number=number,
        name=CRITERION_NAMES[number],
        passed=passed,
        detail=detail,
        runtime=runtime,
        expected_failure=expected,
        metrics=metrics,
    )


def _battery(seed: int, threads: int) -> list[CriterionResult]:
    return [run_criterion(number, seed, threads) for number in sorted(_CRITERIA)]


def _canonical_bytes(results: list[CriterionResult], seed: int) -> bytes:
    doc = {
        "kind": "acceptance",
        "seed": seed,
        "criteria": [r.as_dict(include_volatile=False) for r in results],
    }
    return canonical_json_dumps(doc).encode("utf-8")


def _determinism_result(first: list[CriterionResult], seed: int, threads: int) -> CriterionResult:
    start = time.perf_counter()
    other_threads = 4 if threads == 1 else 1
    second = _battery(seed, other_threads)
    bytes_a = _canonical_bytes(first, seed)
    bytes_b = _canonical_bytes(second, seed)
    digest_a = hashlib.sha256(bytes_a).hexdigest()
    digest_b = hashlib.sha256(bytes_b).hexdigest()
    passed = bytes_a == bytes_b
    detail = (
        f"reports at threads={threads} and threads={other_threads}"
        f" {'match' if passed else 'DIFFER'}: sha256 {digest_a[:16]}"
        f" vs {digest_b[:16]}"
    )
    return CriterionResult(
        number=11,
        name=CRITERION_NAMES[11],
        passed=passed,
        detail=detail,
        runtime=time.perf_counter() - start,
        metrics={"digest_a": digest_a, "digest_b": digest_b},
    )


def run_all(seed: int = DEFAULT_SEED, threads: int = 1) -> AcceptanceReport:
    """Run criteria 1-10, then re-run them at another thread count (criterion 11)."""
    results = _battery(seed, threads)
    results.append(_determinism_result(results, seed, threads))
    return AcceptanceReport(seed=seed, threads=threads, results=results)

"""The benchmark's workloads: fixed lists of ``fbmkit`` CLI calls and their output checks.

Each workload stresses one hot spot of the program and bypasses the others:

* ``predict`` builds the drift kernel for eta > 0 and eta < 0 (the two
  closed-form regimes) and runs the driver inversion; its outputs are a few
  lines, so the output layer barely shows.
* ``emit`` samples fBm by FFT (a small share of its time) and writes 16 x
  16385 floats as JSON and as CSV, so schema validation and float
  formatting dominate.
* ``mc`` builds an exact one-sided (Levy) covariance by quadrature, runs the
  threaded Monte Carlo reductions, and sweeps the Hurst index over
  ``gamma cov`` and ``drift obm``; no drift kernel, tiny outputs.  Four sweep
  calls fail today (exit 3 at H >= 0.9); they count as failed calls and are
  never filtered out, so a fix shows as fewer failures.

Every call gets the benchmark seed where the subcommand takes ``--seed`` and
``--threads 2`` where it takes ``--threads``.  Each call writes its artifact
under ``FBMKIT_OUT_DIR``; the checks read it back after the timed calls.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["Call", "CheckError", "WORKLOADS", "ORACLE_GATE"]

SWEEP_HURSTS = (0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.98)
THREADS = "2"
# Largest relative error against the mpmath table that still counts as correct.
# Today's worst is 4.5e-9 (one-sided covariance at H = 0.1).
ORACLE_GATE = 1.0e-6
# drift validate and invert compare two routes on a handful of random paths;
# their relative L2 gap ranged 0.02-0.11 over 22 seeds, so the CLI default
# tolerance of 0.05 would fail some seeds of a correct program.
ROUTE_TOL = "0.25"

EMIT_N, EMIT_DT, EMIT_PATHS, EMIT_HURST = 16384, 6.103515625e-05, 16, 0.75


class CheckError(Exception):
    """An artifact of a call is missing or wrong."""


@dataclass(frozen=True)
class Call:
    """One CLI invocation, the artifact it writes, and the check of that artifact."""

    argv: tuple[str, ...]
    out: str
    check: Callable[[str, dict], None]


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def read_json(path: str, kind: str) -> dict:
    # parse_int=float keeps "-0" as -0.0, so float fields compare bit for bit.
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh, parse_int=float)
    _require(doc.get("kind") == kind, f"{os.path.basename(path)}: kind {doc.get('kind')!r}, expected {kind!r}")
    return doc


def _finite(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    _require(arr.size > 0 and bool(np.all(np.isfinite(arr))), f"{name}: empty or non-finite values")
    return arr


# -- predict ------------------------------------------------------------------

def _check_route(kind: str):
    def check(path: str, ctx: dict) -> None:
        values = read_json(path, kind)["values"]
        gap = float(values["rel_l2"])
        _require(math.isfinite(gap), f"{kind}: rel_l2 is not finite")
        _require(values["ok"] is True, f"{kind}: ok is {values['ok']!r} (rel_l2 {gap:.4g})")
        ctx["route_gap"] = max(ctx.get("route_gap", 0.0), gap)
    return check


def predict_calls(seed: int) -> list[Call]:
    s = str(seed)
    return [
        Call(("drift", "validate", "--hurst", "0.75", "--paths", "4", "--tol", ROUTE_TOL,
              "--seed", s, "--out", "validate_h075.json"),
             "validate_h075.json", _check_route("drift_validate")),
        Call(("drift", "validate", "--hurst", "0.25", "--paths", "4", "--tol", ROUTE_TOL,
              "--seed", s, "--out", "validate_h025.json"),
             "validate_h025.json", _check_route("drift_validate")),
        Call(("invert", "--hurst", "0.25", "--paths", "16", "--tol", ROUTE_TOL,
              "--seed", s, "--out", "invert_h025.json"),
             "invert_h025.json", _check_route("invert_roundtrip")),
    ]


# -- emit ------------------------------------------------------------------------

def _emit_reference(ctx: dict) -> tuple[np.ndarray, np.ndarray]:
    """The paths and times the emit calls must write, recomputed in process."""
    if "emit_reference" not in ctx:
        from fbmkit.fbm import sample_fbm_paths
        from fbmkit.rng import make_rng

        paths = sample_fbm_paths(EMIT_HURST, EMIT_N, EMIT_DT, make_rng(ctx["seed"]), paths=EMIT_PATHS)
        ctx["emit_reference"] = (EMIT_DT * np.arange(EMIT_N + 1), paths)
    return ctx["emit_reference"]


def _same_bits(a: np.ndarray, b: np.ndarray, what: str) -> None:
    _require(a.shape == b.shape, f"{what}: shape {a.shape}, expected {b.shape}")
    _require(bool(np.array_equal(a.view(np.uint64), b.view(np.uint64))), f"{what}: values differ from the recomputation")


def _check_emit_json(path: str, ctx: dict) -> None:
    doc = read_json(path, "sample_fbm")
    times, paths = _emit_reference(ctx)
    _same_bits(np.asarray(doc["times"], dtype=float), times, "paths.json times")
    _same_bits(np.asarray(doc["paths"], dtype=float), paths, "paths.json paths")


def _check_emit_csv(path: str, ctx: dict) -> None:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    _require(rows[0] == ["t"] + [f"path{k}" for k in range(EMIT_PATHS)], "paths.csv: unexpected header")
    table = np.array(rows[1:], dtype=float)
    times, paths = _emit_reference(ctx)
    _same_bits(table[:, 0].copy(), times, "paths.csv times")
    _same_bits(np.ascontiguousarray(table[:, 1:].T), paths, "paths.csv paths")


def emit_calls(seed: int) -> list[Call]:
    base = ("sample", "fbm", "--hurst", str(EMIT_HURST), "--n", str(EMIT_N), "--dt", repr(EMIT_DT),
            "--paths", str(EMIT_PATHS), "--seed", str(seed))
    return [
        Call(base + ("--out", "paths.json"), "paths.json", _check_emit_json),
        Call(base + ("--out", "paths.csv"), "paths.csv", _check_emit_csv),
    ]


# -- mc --------------------------------------------------------------------------

def _check_levy(path: str, ctx: dict) -> None:
    paths = _finite(read_json(path, "sample_levy")["paths"], "sample levy")
    _require(paths.shape == (1, 1025) and paths[0, 0] == 0.0, f"sample levy: shape {paths.shape} or nonzero start")


def _check_decay(path: str, ctx: dict) -> None:
    values = read_json(path, "gamma_decay")["values"]
    _require(values["trend_ok"] is True, "gamma decay: trend_ok is not true")


def _check_an_prob(path: str, ctx: dict) -> None:
    est = {e["name"]: e for e in read_json(path, "a_n_probability")["estimates"]}["p_an_n_1"]
    se = math.sqrt(0.25 / est["n_samples"])
    _require(abs(est["value"] - 0.5) <= 4.0 * se, f"an-prob: P(A_1) = {est['value']} is not within 4 SE of 1/2")


def _check_lil(path: str, ctx: dict) -> None:
    doc = read_json(path, "lil_statistic")
    low, high = doc["config"]["band_low"], doc["config"]["band_high"]
    medians = doc["trends"]["median_min"]
    _require(all(low <= m <= high for m in medians), f"lil: medians {medians} leave the band [{low}, {high}]")


def _check_gamma_cov(path: str, ctx: dict) -> None:
    values = read_json(path, "gamma_cov")["values"]
    cov = _finite(values["cov"], "gamma cov")
    _require(cov.shape == (9,) and cov[0] == values["sigma2"] >= 0, "gamma cov: lag 0 is not sigma2 >= 0")
    _require(bool(np.all(np.abs(cov) <= cov[0])), "gamma cov: |cov(d)| exceeds cov(0)")


def _check_obm(path: str, ctx: dict) -> None:
    doc = read_json(path, "drift_obm")
    _require(_finite(doc["paths"], "drift obm").shape == (1, 16), "drift obm: expected one 16-point prediction")


def mc_calls(seed: int) -> list[Call]:
    s = str(seed)
    calls = [
        Call(("sample", "levy", "--hurst", "0.25", "--n", "1024", "--dt", "0.0009765625",
              "--seed", s, "--out", "levy.json"), "levy.json", _check_levy),
        Call(("gamma", "decay", "--hurst", "0.75", "--r", "0.5", "--n", "30",
              "--threads", THREADS, "--out", "decay.json"), "decay.json", _check_decay),
        Call(("arbitrage", "an-prob", "--hurst", "0.75", "--r", "0.1", "--alpha", "0.5", "--p", "0.5",
              "--n", "32", "--paths", "1000000", "--threads", THREADS, "--seed", s, "--out", "an_prob.json"),
             "an_prob.json", _check_an_prob),
        Call(("lil", "--hurst", "0.75", "--r", "0.5", "--paths", "200000", "--threads", THREADS,
              "--seed", s, "--out", "lil.json"), "lil.json", _check_lil),
    ]
    for h in SWEEP_HURSTS:
        calls.append(Call(("gamma", "cov", "--hurst", str(h), "--r", "0.1", "--n", "8",
                           "--out", f"gamma_cov_h{h}.json"), f"gamma_cov_h{h}.json", _check_gamma_cov))
        calls.append(Call(("drift", "obm", "--hurst", str(h), "--paths", "1", "--seed", s,
                           "--out", f"obm_h{h}.json"), f"obm_h{h}.json", _check_obm))
    return calls


# -- oracle --------------------------------------------------------------------------

def _rel(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


def predict_oracle(table: dict) -> tuple[float, list[str]]:
    """Largest relative error of ``drift_kernel_value`` at the pinned points."""
    from fbmkit.context import make_context
    from fbmkit.drift import DriftKernelSpec, drift_kernel_value

    worst = 0.0
    for e in table["drift_kernel"]:
        kspec = DriftKernelSpec(ctx=make_context(float(e["hurst"])))
        k = float(drift_kernel_value(kspec, float(e["u"]), float(e["v"]))[0])
        worst = max(worst, _rel(k, float(e["value"])))
    return worst, []


def mc_oracle(table: dict) -> tuple[float, list[str]]:
    """Largest relative error of ``c1`` and of the one-sided covariance at the pinned points.

    The covariance is checked through ``levy_cov_matrix`` (the route
    ``sample levy`` times) and through ``levy_cov``; a point where
    ``levy_cov`` refuses (``AccuracyError``) is returned as a note.
    """
    from fbmkit.context import make_context
    from fbmkit.errors import AccuracyError
    from fbmkit.fbm import levy_cov, levy_cov_matrix

    c1 = {e["hurst"]: float(e["value"]) for e in table["c1"]}
    worst = max(_rel(make_context(float(h)).c1, ref) for h, ref in c1.items())
    notes = []
    for e in table["levy_integral"]:
        ctx = make_context(float(e["hurst"]))
        s, t = float(e["s"]), float(e["t"])
        ref = c1[e["hurst"]] ** 2 * float(e["value"])
        worst = max(worst, _rel(float(levy_cov_matrix(np.array([s, t]), ctx)[0, 1]), ref))
        try:
            worst = max(worst, _rel(levy_cov(s, t, ctx), ref))
        except AccuracyError as exc:
            notes.append(f"levy_cov refused (s={e['s']}, t={e['t']}, H={e['hurst']}): {exc}")
    return worst, notes


@dataclass(frozen=True)
class Workload:
    calls: Callable[[int], list[Call]]
    oracle: Callable[[dict], tuple[float, list[str]]] | None


WORKLOADS = {
    "predict": Workload(predict_calls, predict_oracle),
    "emit": Workload(emit_calls, None),
    "mc": Workload(mc_calls, mc_oracle),
}


"""Command-line front end: every operation as a reproducible subcommand.

Subcommands mirror the library modules: ``sample`` (fbm | levy | obm),
``drift`` (kernel | obm | regression | validate), ``invert``, ``gamma``
(cov | decay | modulus | regbound), ``bounds`` (matrix | subgauss | thick |
hk-count), ``lil``, ``arbitrage`` (an-prob | ledger | threshold), and
``selftest`` (the full acceptance battery).

Conventions shared by all subcommands:

- exit code 0 on success, 2 on validation (bad input) errors, 3 on accuracy
  errors (a window-truncation, route-agreement or factorization tolerance
  that cannot be met, or a result that holds inf or nan, in which case
  nothing is written);
  ``selftest`` exits 0 when every criterion that fails is a declared
  expected failure, and 1 on any other failure or on a pass of a declared
  one;
- ``--config FILE`` loads ``key=value`` lines (flag names without the
  leading dashes) as if they had been typed before the explicit flags, so
  flags always win; unknown keys are rejected;
- ``--out PATH`` writes an artifact (JSON by default, CSV when the path ends
  in ``.csv`` or ``--format csv`` is given); without ``--out`` the artifact
  goes to stdout;
- the ``FBMKIT_OUT_DIR`` environment variable supplies the directory for
  relative ``--out`` paths (and nothing else);
- every float is serialized with 17 significant digits, and the same argv
  with the same seed reproduces byte-identical artifacts up to the volatile
  fields (``created_utc``, ``wall_time``, ``runtime``, ``threads``).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections.abc import Callable

import jsonschema
import numpy as np

from .acceptance import DEFAULT_SEED, _rel_l2, inversion_grid, run_all
from .almostdiag import (
    hk_entry_bound,
    matrix_batch_check,
    tuple_count_bound,
    valid_tuple_count,
)
from .context import make_context
from .drift import (
    DriftKernelSpec,
    drift_apply,
    drift_from_obm,
    drift_regression,
    pipiras_taqqu_invert,
)
from .errors import AccuracyError, FbmkitError, ValidationError
from .experiments import (
    ArbitrageConfig,
    LilConfig,
    a_n_probability,
    lil_statistic,
    n_threshold,
    union_bound_ledger,
)
from .fbm import fbm_cov_matrix, joint_wz_cov, sample_fbm_paths, sample_levy_paths, sample_obm
from .gamma import (
    GammaConfig,
    decay_bound_check,
    gamma_cov,
    gammahat_modulus,
    reg_bound_constants,
    reg_gamhat_bound,
    sigma2,
)
from .gaussian import CovMatrix
from .reports import ExperimentReport, validate_report
from .rng import make_rng
from .serialize import canonical_json_dumps, csv_cell, format_floats
from .subgauss import subgaussian_bound, subgaussian_constants
from .thick import ThickSet, harmonic_subsum, is_thick_estimate

__all__ = ["main", "build_parser", "PATH_SCHEMA", "TABLE_SCHEMA"]

# Commands whose argv path is two tokens long (command + subcommand).
_NESTED_COMMANDS = frozenset({"sample", "drift", "gamma", "bounds", "arbitrage"})

PATH_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["kind", "config", "seed", "times", "paths"],
    "additionalProperties": False,
    "properties": {
        "kind": {"type": "string"},
        "config": {"type": "object"},
        "seed": {"type": "integer"},
        "times": {"type": "array", "items": {"type": "number"}},
        "paths": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "number"}},
        },
    },
}

TABLE_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["kind", "config", "values"],
    "additionalProperties": False,
    "properties": {
        "kind": {"type": "string"},
        "config": {"type": "object"},
        "seed": {"type": "integer"},
        "values": {
            "type": "object",
            "additionalProperties": {
                "type": ["number", "string", "boolean", "null", "array"],
                "items": {"type": ["number", "string", "boolean", "null"]},
            },
        },
    },
}

# Rows of path CSV formatted per block: bounds the strings alive at once.
_CSV_BLOCK_ROWS = 2048

# Renders an artifact's text on demand, so only the requested format is built.
_Render = Callable[[], str]

V_GRID_DEFAULT = (
    "0.125,0.25,0.375,0.5,0.625,0.75,0.875,1.0,"
    "1.125,1.25,1.375,1.5,1.625,1.75,1.875,2.0"
)


# ---------------------------------------------------------------------------
# Parser construction
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fbmkit",
        description="Fractional Brownian motion prediction, inversion, and bound toolkit.",
        allow_abbrev=False,
    )
    # flag registry for config files: normalized key -> flag
    registry: dict[str, str] = {}
    parser.set_defaults(_registry=registry)

    def arg(p, *flags, **kwargs) -> None:
        p.add_argument(*flags, **kwargs)
        long = next((f for f in flags if f.startswith("--")), None)
        if long:
            registry[long[2:].replace("-", "_").lower()] = long

    def common(p, *, seed: bool = True, threads: bool = False) -> None:
        arg(p, "--config", help="key=value file merged under the flags (flags win)")
        arg(p, "--out", help="output path (relative paths resolve under FBMKIT_OUT_DIR)")
        arg(p, "--format", choices=("json", "csv"),
            help="artifact format; default json, or csv when --out ends in .csv")
        if seed:
            arg(p, "--seed", type=_seed, default=0, help="64-bit reproducibility seed")
        if threads:
            arg(p, "--threads", type=_threads, default=os.cpu_count() or 1,
                help="worker threads (results are thread-count independent)")

    sub = parser.add_subparsers(dest="command", required=True)

    # -- sample -------------------------------------------------------------
    p_sample = sub.add_parser("sample", help="draw process paths on a uniform grid")
    s_sub = p_sample.add_subparsers(dest="process", required=True)
    for proc in ("fbm", "levy", "obm"):
        sp = s_sub.add_parser(proc)
        if proc != "obm":
            arg(sp, "--hurst", type=_finite_float, required=True, help="Hurst parameter in (0, 1)")
        arg(sp, "--n", type=int, required=True, help="number of grid steps")
        arg(sp, "--dt", type=_finite_float, required=True, help="grid spacing")
        arg(sp, "--paths", type=int, default=1, help="number of independent paths")
        if proc == "obm":
            arg(sp, "--t0", type=_finite_float, default=0.0,
                help="grid start time (nonpositive multiple of dt)")
        common(sp)
        sp.set_defaults(handler=_cmd_sample, process=proc)

    # -- drift --------------------------------------------------------------
    p_drift = sub.add_parser("drift", help="conditional-mean prediction of the future")
    d_sub = p_drift.add_subparsers(dest="route", required=True)
    for route in ("kernel", "obm", "regression", "validate"):
        dp = d_sub.add_parser(route)
        arg(dp, "--hurst", type=_finite_float, required=True)
        arg(dp, "--paths", type=int, default=16 if route == "validate" else 4)
        arg(dp, "--umax", type=_finite_float, default=1.0e7,
            help="depth of the sampled past window")
        arg(dp, "--dt", type=_finite_float, default=1.0 / 128,
            help="uniform spacing of the recent past")
        arg(dp, "--v", default=V_GRID_DEFAULT,
            help="comma-separated future times to predict at")
        if route == "validate":
            arg(dp, "--tol", type=_finite_float, default=0.05,
                help="relative L2 gate between the two prediction routes")
        common(dp)
        dp.set_defaults(handler=_cmd_drift, route=route)

    # -- invert ---------------------------------------------------------------
    p_inv = sub.add_parser("invert", help="driver-recovery round trip")
    arg(p_inv, "--hurst", type=_finite_float, required=True)
    arg(p_inv, "--paths", type=int, default=16)
    arg(p_inv, "--dt", type=_finite_float, default=1.0 / 512)
    arg(p_inv, "--umax", type=_finite_float, default=600.0,
        help="depth of the observed past window")
    arg(p_inv, "--tol", type=_finite_float, default=0.05,
        help="relative L2 gate on the recovered driver")
    common(p_inv)
    p_inv.set_defaults(handler=_cmd_invert)

    # -- gamma ----------------------------------------------------------------
    p_gamma = sub.add_parser("gamma", help="normalized increment field diagnostics")
    g_sub = p_gamma.add_subparsers(dest="what", required=True)
    for what in ("cov", "decay", "modulus", "regbound"):
        gp = g_sub.add_parser(what)
        arg(gp, "--hurst", type=_finite_float, required=True)
        arg(gp, "--r", type=_finite_float, required=True, help="scale ratio in (0, 1)")
        if what in ("cov", "decay"):
            arg(gp, "--n", type=int, default=30, help="largest lag")
        if what == "modulus":
            arg(gp, "--t", default="0.015625,0.03125,0.0625,0.125,0.25,0.5,1.0",
                help="comma-separated window lengths")
        if what == "regbound":
            arg(gp, "--i", type=int, default=0, help="ladder index")
            arg(gp, "--tmax", type=_finite_float, default=1.0, help="window length")
        common(gp, seed=False, threads=(what == "decay"))
        gp.set_defaults(handler=_cmd_gamma, what=what)

    # -- bounds -----------------------------------------------------------
    p_bounds = sub.add_parser("bounds", help="deterministic bound verification")
    b_sub = p_bounds.add_subparsers(dest="what", required=True)

    bp = b_sub.add_parser("matrix")
    arg(bp, "--n", type=int, required=True, help="matrix dimension")
    arg(bp, "--eps", type=_finite_float, required=True, help="off-diagonal envelope")
    arg(bp, "--trials", type=int, default=1000, help="random instances")
    common(bp, threads=True)
    bp.set_defaults(handler=_cmd_bounds_matrix)

    bp = b_sub.add_parser("subgauss")
    arg(bp, "--theta", type=_finite_float, required=True, help="Holder exponent in (0, 1]")
    arg(bp, "--x", default="1.0,2.0,3.0", help="comma-separated tail levels")
    common(bp, seed=False)
    bp.set_defaults(handler=_cmd_bounds_subgauss)

    bp = b_sub.add_parser("thick")
    arg(bp, "--set", default="evens", dest="set_name",
        choices=("naturals", "evens", "multiples", "squares", "bernoulli"),
        help="index-set family")
    arg(bp, "--k", type=int, default=3, help="stride for --set multiples")
    arg(bp, "--density", type=_finite_float, default=0.5, help="density for --set bernoulli")
    arg(bp, "--n", type=int, default=4096, help="prefix horizon")
    common(bp)
    bp.set_defaults(handler=_cmd_bounds_thick)

    bp = b_sub.add_parser("hk-count")
    arg(bp, "--z", type=int, required=True, help="walk displacement")
    arg(bp, "--k", type=int, required=True, help="number of descents")
    arg(bp, "--n", type=int, required=True, help="walk length")
    arg(bp, "--eps", type=_finite_float, help="also evaluate the entry bound at this epsilon")
    common(bp, seed=False)
    bp.set_defaults(handler=_cmd_bounds_hk)

    # -- lil ---------------------------------------------------------------
    p_lil = sub.add_parser("lil", help="running-minimum trend experiment")
    arg(p_lil, "--hurst", type=_finite_float, required=True)
    arg(p_lil, "--r", type=_finite_float, required=True)
    arg(p_lil, "--imax", type=int, default=40, help="deepest ladder index")
    arg(p_lil, "--paths", type=int, default=2000)
    arg(p_lil, "--set", default=None, dest="set_name",
        choices=("naturals", "evens", "multiples", "squares", "bernoulli"),
        help="restrict the index ladder to a thick set")
    arg(p_lil, "--k", type=int, default=3, help="stride for --set multiples")
    arg(p_lil, "--density", type=_finite_float, default=0.5, help="density for --set bernoulli")
    common(p_lil, threads=True)
    p_lil.set_defaults(handler=_cmd_lil)

    # -- arbitrage ----------------------------------------------------------
    p_arb = sub.add_parser("arbitrage", help="excess-count event family experiments")
    a_sub = p_arb.add_subparsers(dest="what", required=True)

    ap = a_sub.add_parser("an-prob")
    arg(ap, "--hurst", type=_finite_float, required=True)
    arg(ap, "--r", type=_finite_float, required=True)
    arg(ap, "--alpha", type=_finite_float, required=True)
    arg(ap, "--p", type=_finite_float, required=True)
    arg(ap, "--n", type=int, required=True, help="deepest event depth")
    arg(ap, "--paths", type=int, default=100_000)
    common(ap, threads=True)
    ap.set_defaults(handler=_cmd_arbitrage_anprob)

    ap = a_sub.add_parser("ledger")
    arg(ap, "--hurst", type=_finite_float, required=True)
    arg(ap, "--r", type=_finite_float, required=True)
    arg(ap, "--alpha", type=_finite_float, required=True)
    arg(ap, "--p", type=_finite_float, required=True)
    arg(ap, "--n", type=int, required=True)
    arg(ap, "--rtilde", type=_finite_float, required=True, help="translation scale in (0, r)")
    arg(ap, "--alpha-prime", type=_finite_float, required=True)
    arg(ap, "--p-prime", type=_finite_float, required=True)
    arg(ap, "--pan", required=True,
        help="comma-separated n=P(A'_n) pairs, e.g. 4=0.44,8=0.0993")
    common(ap, seed=False)
    ap.set_defaults(handler=_cmd_arbitrage_ledger)

    ap = a_sub.add_parser("threshold")
    arg(ap, "--hurst", type=_finite_float, required=True)
    arg(ap, "--alpha", type=_finite_float, required=True)
    arg(ap, "--alpha-prime", type=_finite_float, required=True)
    arg(ap, "--p", type=_finite_float, required=True)
    arg(ap, "--p-prime", type=_finite_float, required=True)
    common(ap, seed=False)
    ap.set_defaults(handler=_cmd_arbitrage_threshold)

    # -- selftest -----------------------------------------------------------
    p_self = sub.add_parser("selftest", help="run the full acceptance battery")
    arg(p_self, "--seed", type=_seed, default=DEFAULT_SEED)
    arg(p_self, "--threads", type=_threads, default=os.cpu_count() or 1)
    arg(p_self, "--config", help="key=value file merged under the flags (flags win)")
    arg(p_self, "--out", help="write the report artifact here as well")
    arg(p_self, "--format", choices=("json", "csv"))
    p_self.set_defaults(handler=_cmd_selftest)

    return parser


# ---------------------------------------------------------------------------
# Config files and artifact emission
# ---------------------------------------------------------------------------

def _config_path(argv: list[str]) -> str | None:
    for i, tok in enumerate(argv):
        if tok == "--config":
            if i + 1 >= len(argv):
                raise ValidationError("--config requires a file path")
            return argv[i + 1]
        if tok.startswith("--config="):
            return tok.split("=", 1)[1]
    return None


def _load_config(path: str) -> list[tuple[str, str]]:
    entries: list[tuple[str, str]] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValidationError(
                        f"{path}:{lineno}: expected key=value, got {line!r}"
                    )
                key, val = line.split("=", 1)
                entries.append((key.strip().replace("-", "_").lower(), val.strip()))
    except OSError as exc:
        raise ValidationError(f"cannot read config file {path}: {exc}")
    return entries


def _merge_config(argv: list[str], registry: dict[str, str]) -> list[str]:
    """Splice config-file entries into argv just after the subcommand path.

    Later occurrences of a flag win in argparse, so values typed on the
    command line override the config file.
    """
    path = _config_path(argv)
    if path is None:
        return argv
    extra: list[str] = []
    for key, raw in _load_config(path):
        if key not in registry:
            raise ValidationError(f"{path}: unknown config key {key!r}")
        extra.extend([registry[key], raw])
    if not argv or argv[0].startswith("-"):
        return argv
    depth = 2 if argv[0] in _NESTED_COMMANDS else 1
    if len(argv) < depth or argv[depth - 1].startswith("-"):
        return argv
    return argv[:depth] + extra + argv[depth:]


def _resolve_out(out: str | None) -> str | None:
    if out is None:
        return None
    base = os.environ.get("FBMKIT_OUT_DIR")
    if base and not os.path.isabs(out):
        return os.path.join(base, out)
    return out


def _finite_float(text: str) -> float:
    """The argparse type of every float flag: a float that is neither inf nor nan."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a float, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite float, got {text!r}")
    return value


def _int_at_least(low: int, text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < low:
        raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
    return value


def _seed(text: str) -> int:
    """The argparse type of ``--seed``: an integer >= 0, as ``SeedSequence`` takes."""
    return _int_at_least(0, text)


def _threads(text: str) -> int:
    """The argparse type of ``--threads``: an integer >= 1."""
    return _int_at_least(1, text)


def _floats(text: str) -> np.ndarray:
    try:
        vals = np.array([_finite_float(tok) for tok in str(text).split(",") if tok.strip()])
    except argparse.ArgumentTypeError:
        raise ValidationError(f"expected comma-separated finite floats, got {text!r}")
    if vals.size == 0:
        raise ValidationError(f"expected at least one value in {text!r}")
    return vals


def _emit(args, render_json: _Render, render_csv: _Render | None) -> None:
    """Render the one format the arguments ask for, then write it.

    ``render_json`` and ``render_csv`` take no arguments and return the
    artifact text; ``render_csv`` is None for subcommands without a CSV form.
    """
    out = _resolve_out(getattr(args, "out", None))
    fmt = getattr(args, "format", None)
    if fmt is None:
        fmt = "csv" if (out or "").endswith(".csv") else "json"
    if fmt == "csv" and render_csv is None:
        raise ValidationError("this subcommand has no CSV representation")
    payload = render_csv() if fmt == "csv" else render_json()
    if out is None:
        sys.stdout.write(payload)
        if not payload.endswith("\n"):
            sys.stdout.write("\n")
    else:
        directory = os.path.dirname(out)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)


def _require_finite(kind: str, fields) -> None:
    """Raise AccuracyError if a result field holds inf or nan.

    ``fields`` yields ``(name, value)`` pairs; a value is a scalar, a list of
    scalars or a float array.  The doc builders call this before returning
    their renderers, so a non-finite result writes nothing.
    """
    for name, value in fields:
        if isinstance(value, np.ndarray):
            finite = bool(np.isfinite(value).all())
        else:
            entries = value if isinstance(value, list) else [value]
            finite = all(math.isfinite(e) for e in entries if isinstance(e, float))
        if not finite:
            raise AccuracyError(f"{kind}: {name} holds a non-finite value; nothing written")


def _path_doc(kind: str, config: dict, seed: int, times: np.ndarray,
              paths: np.ndarray) -> tuple[_Render, _Render]:
    """Check a path artifact and return its (JSON, CSV) renderers.

    The schema validates the document with empty arrays; the arrays are
    checked with numpy (float64, ``times`` 1-D, one ``paths`` row per path
    with one value per time, all finite).
    """
    times, paths = np.asarray(times), np.atleast_2d(paths)
    if times.dtype != np.float64 or paths.dtype != np.float64:
        raise TypeError(f"{kind}: times and paths must be float64, "
                        f"got {times.dtype} and {paths.dtype}")
    if times.ndim != 1 or paths.ndim != 2 or paths.shape[1] != times.size:
        raise ValueError(f"{kind}: paths of shape {paths.shape} do not match "
                         f"times of shape {times.shape}")
    doc = {"kind": kind, "config": config, "seed": int(seed), "times": [], "paths": []}
    jsonschema.validate(doc, PATH_SCHEMA)
    _require_finite(kind, [("times", times), ("paths", paths)])
    doc.update(times=times, paths=paths)
    return (lambda: canonical_json_dumps(doc)), (lambda: _path_csv(times, paths))


def _path_csv(times: np.ndarray, paths: np.ndarray) -> str:
    """``t`` then one column per path, formatted a block of rows at a time."""
    n_paths = paths.shape[0]
    header = "t,value" if n_paths == 1 else "t," + ",".join(
        f"path{k}" for k in range(n_paths)
    )
    lines = [header]
    width = n_paths + 1
    for lo in range(0, times.size, _CSV_BLOCK_ROWS):
        hi = lo + _CSV_BLOCK_ROWS
        cells = format_floats(np.column_stack([times[lo:hi], paths[:, lo:hi].T]))
        lines.extend(",".join(cells[i:i + width]) for i in range(0, len(cells), width))
    return "\n".join(lines) + "\n"


def _table_doc(kind: str, config: dict, values: dict,
               seed: int | None = None) -> tuple[_Render, _Render]:
    """Check a table artifact and return its (JSON, CSV) renderers."""
    doc = {"kind": kind, "config": config, "values": values}
    if seed is not None:
        doc["seed"] = int(seed)
    jsonschema.validate(doc, TABLE_SCHEMA)
    _require_finite(kind, values.items())

    def render_csv() -> str:
        lines = ["name,index,value"]
        for name in sorted(values):
            val = values[name]
            entries = val if isinstance(val, list) else [val]
            for idx, entry in enumerate(entries):
                lines.append(f"{name},{idx},{csv_cell(entry)}")
        return "\n".join(lines) + "\n"

    return (lambda: canonical_json_dumps(doc)), render_csv


def _report_doc(report: ExperimentReport) -> tuple[_Render, _Render]:
    """Check an experiment report and return its (JSON, CSV) renderers."""
    doc = report.as_dict()
    validate_report(doc)
    _require_finite(report.kind, [
        *((e["name"], [e["value"], e["ci_low"], e["ci_high"]]) for e in doc["estimates"]),
        *doc["trends"].items(),
    ])
    return (lambda: canonical_json_dumps(doc)), report.to_csv


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_sample(args) -> int:
    rng = make_rng(args.seed)
    if args.n < 1:
        raise ValidationError(f"--n must be >= 1, got {args.n}")
    if args.paths < 1:
        raise ValidationError(f"--paths must be >= 1, got {args.paths}")
    config = {"process": args.process, "n": args.n, "dt": args.dt, "paths": args.paths}
    if args.process == "fbm":
        config["hurst"] = args.hurst
        values = sample_fbm_paths(args.hurst, args.n, args.dt, rng, paths=args.paths)
        times = args.dt * np.arange(args.n + 1)
    elif args.process == "levy":
        config["hurst"] = args.hurst
        ctx = make_context(args.hurst)
        values = sample_levy_paths(ctx, args.n, args.dt, rng, paths=args.paths)
        times = args.dt * np.arange(args.n + 1)
    else:
        config["t0"] = args.t0
        rows = [sample_obm(args.n, args.dt, rng, t0=args.t0) for _ in range(args.paths)]
        values = np.stack(rows)
        times = args.t0 + args.dt * np.arange(args.n + 1)
    _emit(args, *_path_doc(f"sample_{args.process}", config, args.seed,
                           times, values))
    return 0


def _cmd_drift(args) -> int:
    ctx = make_context(args.hurst)
    kspec = DriftKernelSpec(ctx=ctx)
    v_grid = _floats(args.v)
    if np.any(v_grid <= 0):
        raise ValidationError("--v times must be positive")
    if args.paths < 1:
        raise ValidationError(f"--paths must be >= 1, got {args.paths}")
    # The graded tip near the origin resolves the prediction kernel's
    # singularity there; the geometric deep tail keeps the long memory cheap.
    times = inversion_grid(args.dt, u_deep=args.umax)
    rng = make_rng(args.seed)
    config = {
        "route": args.route, "hurst": args.hurst, "umax": args.umax,
        "dt": args.dt, "paths": args.paths, "v": [float(v) for v in v_grid],
    }

    if args.route == "validate":
        draw = CovMatrix(joint_wz_cov(ctx, times, times)).sample(rng, args.paths)
        pred_k = drift_apply(kspec, times, draw[:, times.size :], v_grid)
        pred_w = drift_from_obm(kspec, times, draw[:, : times.size], v_grid)
        rel = _rel_l2(pred_k, pred_w)
        scale = float(np.sqrt(np.mean(pred_w**2)))
        _emit(args, *_table_doc(
            "drift_validate", config,
            {"rel_l2": rel, "tol": args.tol, "ok": rel <= args.tol,
             "prediction_scale": scale},
            seed=args.seed,
        ))
        if rel > args.tol:
            raise AccuracyError(
                f"prediction routes disagree: rel L2 {rel:.4g} > tol {args.tol:.4g}",
                estimate=rel, budget=args.tol,
            )
        return 0

    if args.route == "obm":
        # Driver increments over the gaps up to the origin, summed backwards
        # from W_0 = 0.
        gaps = np.diff(times, append=0.0)
        incr = np.sqrt(gaps) * rng.standard_normal((args.paths, times.size))
        w_rows = -np.cumsum(incr[:, ::-1], axis=1)[:, ::-1]
        preds = drift_from_obm(kspec, times, w_rows, v_grid)
    else:
        z_rows = CovMatrix(fbm_cov_matrix(times, args.hurst)).sample(rng, args.paths)
        if args.route == "kernel":
            preds = drift_apply(kspec, times, z_rows, v_grid)
        else:
            preds = drift_regression(args.hurst, times, z_rows, v_grid)

    _emit(args, *_path_doc(f"drift_{args.route}", config, args.seed,
                           v_grid, preds))
    return 0


def _cmd_invert(args) -> int:
    ctx = make_context(args.hurst)
    kspec = DriftKernelSpec(ctx=ctx)
    if args.paths < 1:
        raise ValidationError(f"--paths must be >= 1, got {args.paths}")
    rng = make_rng(args.seed)
    times = inversion_grid(args.dt, u_deep=args.umax)
    t_inv = -np.linspace(1.0, 1.0 / 16, 16)
    t_inv = np.array([times[np.argmin(np.abs(times - t))] for t in t_inv])
    draw = CovMatrix(joint_wz_cov(ctx, t_inv, times)).sample(rng, args.paths)
    w_true, z_obs = draw[:, : t_inv.size], draw[:, t_inv.size :]
    w_rec = pipiras_taqqu_invert(kspec, times, z_obs, t_inv)
    rel = _rel_l2(w_rec, w_true)
    scale = float(np.sqrt(np.mean(w_true**2)))
    config = {
        "hurst": args.hurst, "dt": args.dt, "umax": args.umax,
        "paths": args.paths,
    }
    _emit(args, *_table_doc(
        "invert_roundtrip", config,
        {"rel_l2": rel, "tol": args.tol, "ok": rel <= args.tol,
         "recovery_times": [float(t) for t in t_inv], "driver_scale": scale},
        seed=args.seed,
    ))
    if rel > args.tol:
        raise AccuracyError(
            f"driver recovery too lossy: rel L2 {rel:.4g} > tol {args.tol:.4g}",
            estimate=rel, budget=args.tol,
        )
    return 0


def _cmd_gamma(args) -> int:
    ctx = make_context(args.hurst)
    cfg = GammaConfig(ctx, args.r)
    config = {"what": args.what, "hurst": args.hurst, "r": args.r}
    if args.what == "cov":
        if args.n < 0:
            raise ValidationError(f"--n must be >= 0, got {args.n}")
        lags = list(range(args.n + 1))
        values = {
            "lags": lags,
            "cov": [gamma_cov(cfg, 0, d) for d in lags],
            "sigma2": sigma2(cfg),
        }
        config["n"] = args.n
    elif args.what == "decay":
        profile = decay_bound_check(cfg, args.n, threads=args.threads)
        values = {
            "lags": list(range(args.n + 1)),
            "normalized_profile": [float(q) for q in profile.qs],
            "cf_fit": profile.cf_fit,
            "trend_slope": profile.trend_slope,
            "trend_ok": profile.trend_ok,
            "sigma2": profile.sigma2,
            "epsilon": profile.epsilon,
        }
        config["n"] = args.n
    elif args.what == "modulus":
        t_vals = _floats(args.t)
        if np.any(t_vals <= 0):
            raise ValidationError("--t window lengths must be positive")
        values = {
            "t": [float(t) for t in t_vals],
            "modulus": [gammahat_modulus(cfg, float(t)) for t in t_vals],
            "sigma2": sigma2(cfg),
        }
    else:
        c_a, c_b = reg_bound_constants(cfg)
        values = {
            "i": args.i,
            "tmax": args.tmax,
            "bound": reg_gamhat_bound(cfg, args.i, args.tmax, (c_a, c_b)),
            "c_a": c_a,
            "c_b": c_b,
        }
    _emit(args, *_table_doc(f"gamma_{args.what}", config, values))
    return 0


def _cmd_bounds_matrix(args) -> int:
    rng = make_rng(args.seed)
    report = matrix_batch_check(args.n, args.eps, args.trials, rng,
                                threads=args.threads)
    config = {"n": args.n, "eps": args.eps, "trials": args.trials}
    _emit(args, *_table_doc("bounds_matrix", config,
                            dict(report.to_dict()), seed=args.seed))
    return 0


def _cmd_bounds_subgauss(args) -> int:
    consts = subgaussian_constants(args.theta)
    x_vals = _floats(args.x)
    values = {
        "theta": args.theta,
        "c_c": consts.c_c,
        "c_o": consts.c_o,
        "c_d": consts.c_d,
        "x": [float(x) for x in x_vals],
        "bound": [float(subgaussian_bound(consts, float(x))) for x in x_vals],
    }
    _emit(args, *_table_doc("bounds_subgauss", {"theta": args.theta}, values))
    return 0


def _make_thick_set(name: str, n: int, k: int, density: float, seed: int) -> ThickSet:
    if name == "naturals":
        return ThickSet.naturals(n)
    if name == "evens":
        return ThickSet.evens(n)
    if name == "multiples":
        return ThickSet.multiples(k, n)
    if name == "squares":
        return ThickSet.squares(n)
    return ThickSet.bernoulli(density, n, make_rng(seed))


def _cmd_bounds_thick(args) -> int:
    if args.n < 2:
        raise ValidationError(f"--n must be >= 2, got {args.n}")
    ts = _make_thick_set(args.set_name, args.n, args.k, args.density, args.seed)
    trend = is_thick_estimate(ts)
    values = {
        "description": ts.description,
        "horizons": [int(h) for h in trend.horizons],
        "densities": [float(d) for d in trend.densities],
        "running_max": [float(d) for d in trend.running_max],
        "looks_vanishing": trend.looks_vanishing(),
        "harmonic_subsum": harmonic_subsum(ts, args.n),
    }
    config = {"set": args.set_name, "n": args.n, "k": args.k, "density": args.density}
    _emit(args, *_table_doc("bounds_thick", config, values, seed=args.seed))
    return 0


def _cmd_bounds_hk(args) -> int:
    count = valid_tuple_count(args.z, args.k, args.n)
    bound = tuple_count_bound(args.z, args.k, args.n)
    values = {"count": count, "bound": bound, "ok": count <= bound}
    config = {"z": args.z, "k": args.k, "n": args.n}
    if args.eps is not None:
        values["entry_bound"] = hk_entry_bound(args.z, args.k, args.eps)
        config["eps"] = args.eps
    _emit(args, *_table_doc("bounds_hk_count", config, values))
    return 0


def _cmd_lil(args) -> int:
    ctx = make_context(args.hurst)
    thick = None
    if args.set_name is not None:
        thick = _make_thick_set(args.set_name, args.imax + 1, args.k,
                                args.density, args.seed + 1)
    cfg = LilConfig(ctx, r=args.r, i_max=args.imax, n_paths=args.paths,
                    seed=args.seed, thick_set=thick)
    report = lil_statistic(cfg, threads=args.threads)
    _emit(args, *_report_doc(report))
    return 0


def _cmd_arbitrage_anprob(args) -> int:
    ctx = make_context(args.hurst)
    cfg = ArbitrageConfig(ctx, r=args.r, alpha=args.alpha, p=args.p, n=args.n,
                          n_paths=args.paths, seed=args.seed)
    report = a_n_probability(cfg, threads=args.threads)
    _emit(args, *_report_doc(report))
    return 0


def _parse_pan(text: str) -> dict[int, float]:
    mapping: dict[int, float] = {}
    for token in str(text).split(","):
        token = token.strip()
        if not token:
            continue
        if "=" not in token:
            raise ValidationError(
                f"--pan entries must look like n=value, got {token!r}"
            )
        left, right = token.split("=", 1)
        try:
            mapping[int(left)] = _finite_float(right)
        except (ValueError, argparse.ArgumentTypeError):
            raise ValidationError(f"cannot parse --pan entry {token!r}")
    if not mapping:
        raise ValidationError("--pan must contain at least one n=value pair")
    return mapping


def _cmd_arbitrage_ledger(args) -> int:
    ctx = make_context(args.hurst)
    cfg = ArbitrageConfig(
        ctx, r=args.r, alpha=args.alpha, p=args.p, n=args.n,
        n_paths=1, seed=0,
        alpha_prime=args.alpha_prime, p_prime=args.p_prime, r_tilde=args.rtilde,
    )
    report = union_bound_ledger(cfg, _parse_pan(args.pan))
    _emit(args, *_report_doc(report))
    return 0


def _cmd_arbitrage_threshold(args) -> int:
    value = n_threshold(args.hurst, args.alpha, args.alpha_prime, args.p,
                        args.p_prime)
    config = {
        "hurst": args.hurst, "alpha": args.alpha, "alpha_prime": args.alpha_prime,
        "p": args.p, "p_prime": args.p_prime,
    }
    _emit(args, *_table_doc("arbitrage_threshold", config,
                            {"n_threshold": value}))
    return 0


def _cmd_selftest(args) -> int:
    report = run_all(seed=args.seed, threads=args.threads)
    for line in report.lines():
        print(line)
    failed = [r for r in report.results if not r.passed]
    expected = [r for r in failed if r.expected_failure]
    # A declared failure that passes is a surprise too, as a strict xfail.
    surprises = [r for r in report.results if r.passed == r.expected_failure]
    print(
        f"{len(report.results) - len(failed)}/{len(report.results)} criteria passed"
        + (f" ({len(expected)} expected failure)" if expected else "")
        + (f"; unexpected: {', '.join(str(r.number) for r in surprises)}" if surprises else "")
    )
    if args.out is not None:
        def render_csv() -> str:
            lines = ["number,name,passed,expected_failure,detail"]
            for r in report.results:
                lines.append(
                    ",".join(csv_cell(v) for v in (
                        r.number, r.name, r.passed, r.expected_failure, r.detail))
                )
            return "\n".join(lines) + "\n"

        _emit(args, report.to_json, render_csv)
    return 1 if surprises else 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        merged = _merge_config(list(argv), parser.get_default("_registry"))
        args = parser.parse_args(merged)
        return args.handler(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AccuracyError as exc:
        print(f"accuracy error: {exc}", file=sys.stderr)
        return 3
    except FbmkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

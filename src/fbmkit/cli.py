"""Command-line front end: every operation as a reproducible subcommand.

Subcommands mirror the library modules: ``sample`` (fbm | levy | obm),
``drift`` (kernel | obm | regression | validate), ``invert``, ``gamma``
(cov | decay | modulus | regbound), ``bounds`` (matrix | subgauss | thick |
hk-count), ``lil``, ``arbitrage`` (an-prob | ledger | threshold), and
``selftest`` (the full acceptance battery).  The command tree is one table,
``_COMMANDS``: each command's help and leaves, and each leaf's handler and
flags; :func:`build_parser` is a loop over it.

The modules that ``perfbench --trace 1`` wraps are imported here, at start,
since it wraps only what is loaded then.  What no such module needs is
imported by the leaf that runs it: ``selftest`` imports
:mod:`fbmkit.acceptance`, ``bounds matrix`` and ``bounds hk-count``
:mod:`fbmkit.almostdiag`, ``bounds subgauss`` :mod:`fbmkit.subgauss`, and
``bounds thick`` and ``lil --set`` :mod:`fbmkit.thick`.  ``gamma regbound``
and ``arbitrage ledger`` load :mod:`fbmkit.subgauss` through
:func:`fbmkit.gamma.reg_bound_constants`.

Conventions shared by all subcommands:

- exit code 0 on success, 2 on validation (bad input) errors, 3 on accuracy
  errors (a window-truncation, route-agreement or factorization tolerance
  that cannot be met, or a result past the float range or holding inf or
  nan, in which case nothing is written);
  ``selftest`` exits 0 when every criterion that fails is a declared
  expected failure, and 1 on any other failure or on a pass of a declared
  one; a reader that closes stdout before the output ends (``| head``)
  ends the call with exit 0 and no traceback, having taken what it asked for;
- ``--config FILE`` loads ``key=value`` lines as if each were typed as
  ``--key=value`` before the explicit flags, so flags always win.  A key is
  a flag name without its leading dashes, in any case and with ``_`` or
  ``-`` between words (``alpha_prime``, ``alpha-prime`` and ``ALPHA_PRIME``
  all set ``--alpha-prime``); ``#`` starts a comment.  A key the subcommand
  does not take is rejected, as is any abbreviated flag;
- ``--out PATH`` writes an artifact (JSON by default, CSV when the path ends
  in ``.csv`` or ``--format csv`` is given); without ``--out`` the artifact
  goes to stdout, with the same bytes.  ``_emit`` is the one writer of
  artifact text: JSON is the checked document in canonical form, and CSV
  is its flat twin, a ``t`` column and a column per path for path
  documents, and for tables, reports and ``selftest`` one row per value,
  each cell through ``csv_cell``.  The artifact is written piece by piece
  as it is rendered, into a temporary file beside ``PATH`` that replaces
  ``PATH`` only once the last piece is written, so an error that stops the
  write leaves no temporary file and no new artifact (a file already at
  ``PATH`` stays as it was).  A ``PATH`` that is a symbolic link has its
  target replaced; one that names a device or FIFO (``/dev/null``,
  ``/dev/stdout``) is written in place;
- the ``FBMKIT_OUT_DIR`` environment variable supplies the directory for
  relative ``--out`` paths (and nothing else);
- every float is serialized with 17 significant digits, and the same argv
  with the same seed reproduces byte-identical artifacts up to the volatile
  fields (``created_utc``, ``wall_time``, ``runtime``, ``threads``), as long
  as the BLAS library runs on the same number of threads: a factorization or
  product on more BLAS threads may round differently (``selftest``'s
  criteria 2, 3 and 8 do).  ``drift validate`` and ``invert`` factor no
  more than a 32 x 32 covariance, and write the same bytes on one and on
  two OpenBLAS threads: at ``--seed 7``, ``drift validate --hurst 0.75``
  writes ``rel_l2`` 0.01679502145859892 and ``invert --hurst 0.25``
  0.037031139959805157.
"""

from __future__ import annotations

import argparse
import math
import os
import stat
import sys
from collections.abc import Callable
from functools import partial
from typing import NamedTuple, TextIO

import numpy as np

from . import reports
from .context import make_context
from .drift import (
    DriftKernelSpec,
    drift_apply,
    drift_from_obm,
    drift_regression,
    driver_roundtrip,
    inversion_grid,
    prediction_routes,
    rel_l2,
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
from .fbm import fbm_cov_matrix, sample_fbm_paths, sample_levy_paths, sample_obm
from .gamma import (
    GammaConfig,
    decay_bound_check,
    gamma_cov,
    gammahat_modulus,
    reg_bound_constants,
    reg_gamhat_bound,
    sigma2,
)
from .gaussian import MAX_ARRAY_VALUES, CovMatrix
from .reports import ExperimentReport
from .rng import CHUNK, DEFAULT_SEED, make_rng
from .serialize import _ROW_PIECE, _join_floats, canonical_json_dump, csv_cell

__all__ = ["main", "build_parser", "PATH_SCHEMA", "TABLE_SCHEMA"]

# perfbench --trace 1 wraps jsonschema.validate as seen from here (cli.schema_validate).
jsonschema = reports.jsonschema

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

# Writes a CSV artifact's text to an open text file on demand, so only the
# requested format is rendered, and a piece at a time where it is long.
_Render = Callable[[TextIO], None]

V_GRID_DEFAULT = (
    "0.125,0.25,0.375,0.5,0.625,0.75,0.875,1.0,"
    "1.125,1.25,1.375,1.5,1.625,1.75,1.875,2.0"
)


# ---------------------------------------------------------------------------
# Config files and artifact emission
# ---------------------------------------------------------------------------

def _with_config(argv: list[str]) -> list[str]:
    """Splice the ``--config`` file's ``key=value`` lines into argv as ``--key=value``.

    They go in just after the leading command words, so argparse checks each
    key against the subcommand's flags and any flag typed on the command
    line, coming later, wins.  The ``=`` form keeps a value from reading as
    a flag, and a flag that takes no value (``help``) from taking one.
    """
    if not any(a == "--config" or a.startswith("--config=") for a in argv):
        return argv
    pre = _Parser(prog="fbmkit", add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if path is None:
        return argv
    depth = len(_command_words(argv))
    extra: list[str] = []
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
                extra.append(f"--{key.strip().lower().replace('_', '-')}={val.strip()}")
    except OSError as exc:
        raise ValidationError(f"cannot read config file {path}: {exc}")
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


def _int_at_least(low: int) -> Callable[[str], int]:
    """The argparse type of an integer flag that is ``low`` or more.

    ``--seed`` takes 0 and up, as ``SeedSequence`` does, and so do
    ``gamma --n`` and ``bounds matrix --trials``; ``--threads``, ``--paths``
    and ``sample --n`` take 1 and up, and ``bounds thick --n`` and
    ``bounds matrix --n`` 2 and up.
    """
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value

    return parse


def _floats(text: str) -> np.ndarray:
    try:
        vals = np.array([_finite_float(tok) for tok in str(text).split(",") if tok.strip()])
    except argparse.ArgumentTypeError:
        raise ValidationError(f"expected comma-separated finite floats, got {text!r}")
    if vals.size == 0:
        raise ValidationError(f"expected at least one value in {text!r}")
    return vals


def _emit(args, doc: dict, render_csv: _Render) -> None:
    """Write the checked artifact in the one format the arguments ask for.

    JSON is ``doc`` through :func:`canonical_json_dump`; CSV is what
    ``render_csv`` writes to the text file it is given.  Either goes out
    piece by piece as it is rendered, to ``sys.stdout`` when there is no
    ``--out``, and ends in one newline.  A regular file at ``--out`` (or
    none yet) is written through a temporary sibling that replaces it only
    when complete, keeping an existing file's permission bits; on any error
    the temporary file is removed and ``--out`` is left as it was.  An
    ``OSError`` on the file (``--out`` a directory, or under a regular file)
    is a ``ValidationError``, ``cannot write --out ...``.
    """
    out = _resolve_out(args.out)
    fmt = args.format or ("csv" if (out or "").endswith(".csv") else "json")
    render = render_csv if fmt == "csv" else partial(canonical_json_dump, doc)
    if out is None:
        render(sys.stdout)
        return
    try:
        _write_file(out, render)
    except OSError as exc:
        raise ValidationError(f"cannot write --out {args.out}: {exc}") from exc


def _write_file(out: str, render: _Render) -> None:
    """Render to the file at ``out`` as :func:`_emit` describes."""
    directory = os.path.dirname(out)
    if directory:
        os.makedirs(directory, exist_ok=True)
    target = os.path.realpath(out)
    if os.path.exists(out) and not os.path.isfile(target):
        # A device or FIFO cannot be replaced by a rename; a directory
        # fails to open here, as it should.
        with open(out, "w", encoding="utf-8", newline="") as fh:
            render(fh)
        return
    # Mode "x" creates the file with the usual permissions, where mkstemp
    # would make the artifact readable by its owner only.
    tmp = f"{target}.{os.urandom(4).hex()}.tmp"
    fh = open(tmp, "x", encoding="utf-8", newline="")
    try:
        with fh:
            if os.path.exists(target):
                os.chmod(tmp, stat.S_IMODE(os.stat(target).st_mode))
            render(fh)
        os.replace(tmp, target)
    except BaseException:
        os.remove(tmp)
        raise


def _write_rows(fh: TextIO, header: str, rows) -> None:
    """The CSV of a table, report or ``selftest``: ``header``, then one line per row.

    A line is :func:`csv_cell` of each cell of the row, joined with commas.
    """
    fh.write(header + "\n")
    fh.writelines(",".join(map(csv_cell, row)) + "\n" for row in rows)


def _require_finite(kind: str, fields) -> None:
    """Raise AccuracyError if a result field holds inf or nan.

    ``fields`` yields ``(name, value)`` pairs; a value is a scalar, a list of
    scalars or a float array.  The doc builders call this before returning
    the document, so a non-finite result writes nothing.
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
              paths: np.ndarray) -> tuple[dict, _Render]:
    """Check a path artifact and return its document and CSV renderer.

    The arrays are checked with numpy: float64, ``times`` 1-D, one ``paths``
    row per path with one value per time, all finite.
    """
    times, paths = np.asarray(times), np.atleast_2d(paths)
    if times.dtype != np.float64 or paths.dtype != np.float64:
        raise TypeError(f"{kind}: times and paths must be float64, "
                        f"got {times.dtype} and {paths.dtype}")
    if times.ndim != 1 or paths.ndim != 2 or paths.shape[1] != times.size:
        raise ValueError(f"{kind}: paths of shape {paths.shape} do not match "
                         f"times of shape {times.shape}")
    _require_finite(kind, [("times", times), ("paths", paths)])
    doc = {"kind": kind, "config": config, "seed": int(seed), "times": times, "paths": paths}
    return doc, partial(_path_csv, times, paths)


def _path_csv(times: np.ndarray, paths: np.ndarray, fh: TextIO) -> None:
    """``t`` then one column per path: the header, then one piece per block of rows."""
    n_paths = paths.shape[0]
    header = "t,value" if n_paths == 1 else "t," + ",".join(
        f"path{k}" for k in range(n_paths)
    )
    fh.write(header + "\n")
    # A block of rows is one text piece, of about _ROW_PIECE cells.
    rows = max(1, _ROW_PIECE // (n_paths + 1))
    for lo in range(0, times.size, rows):
        hi = lo + rows
        fh.write(_join_floats(np.column_stack([times[lo:hi], paths[:, lo:hi].T]), end="\n"))


def _table_doc(kind: str, config: dict, values: dict,
               seed: int | None = None) -> tuple[dict, _Render]:
    """Check a table artifact and return its document and CSV renderer.

    The CSV has a ``name,index,value`` row per scalar value and per entry
    of a list value, names in sorted order.
    """
    doc = {"kind": kind, "config": config, "values": values}
    if seed is not None:
        doc["seed"] = int(seed)
    _require_finite(kind, values.items())
    rows = [
        (name, idx, entry)
        for name, val in sorted(values.items())
        for idx, entry in enumerate(val if isinstance(val, list) else [val])
    ]
    return doc, lambda fh: _write_rows(fh, "name,index,value", rows)


def _report_doc(report: ExperimentReport) -> tuple[dict, _Render]:
    """Check an experiment report and return its document and CSV renderer.

    The CSV, a flat twin for plotting, has a row per estimate (index 0) and
    one per entry of each trend, in sorted order, with blank interval cells.
    """
    doc = report.as_dict()
    _require_finite(report.kind, [
        *((e["name"], [e["value"], e["ci_low"], e["ci_high"]]) for e in doc["estimates"]),
        *doc["trends"].items(),
    ])
    rows = [
        *((e["name"], 0, e["value"], e["ci_low"], e["ci_high"], e["n_samples"])
          for e in doc["estimates"]),
        *((name, idx, value, None, None, None)
          for name, trend in sorted(doc["trends"].items())
          for idx, value in enumerate(trend)),
    ]
    return doc, lambda fh: _write_rows(fh, "series,index,value,ci_low,ci_high,n_samples", rows)


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _refuse_values(size: int, asked: str) -> None:
    """Refuse an array of more than ``MAX_ARRAY_VALUES`` floats before it is allocated.

    ``asked`` names the flags and the array: ``--n 8 asks for a covariance``.
    """
    if size > MAX_ARRAY_VALUES:
        raise ValidationError(
            f"{asked} of {size} float64 values, more than {MAX_ARRAY_VALUES} (256 MiB)")


def _cmd_sample(args) -> int:
    # The largest float64 array of the draw, refused before it is allocated:
    # the paths, the n x n covariance of a Levy draw, or the complex FFT of
    # the fGn draw's circulant embedding, 2n - 2 complex values.
    size, asked = args.paths * (args.n + 1), f"--n {args.n} and --paths {args.paths} ask for paths"
    if args.process == "levy" and args.n**2 > size:
        size, asked = args.n**2, f"--n {args.n} asks for a covariance"
    elif args.process == "fbm" and 4 * (args.n - 1) > size:
        size, asked = 4 * (args.n - 1), f"--n {args.n} asks for an fGn spectrum"
    _refuse_values(size, asked)
    rng = make_rng(args.seed)
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
        values = sample_obm(args.n, args.dt, rng, t0=args.t0, paths=args.paths)
        times = args.t0 + args.dt * np.arange(args.n + 1)
    _emit(args, *_path_doc(f"sample_{args.process}", config, args.seed,
                           times, values))
    return 0


def _cmd_drift(args) -> int:
    kspec = DriftKernelSpec(ctx=make_context(args.hurst))
    v_grid = _floats(args.v)
    if np.any(v_grid <= 0):
        raise ValidationError("--v times must be positive")
    # The graded tip near the origin resolves the prediction kernel's
    # singularity there; the geometric deep tail keeps the long memory cheap.
    times = inversion_grid(args.dt, u_deep=args.umax)
    rng = make_rng(args.seed)
    config = {
        "route": args.route, "hurst": args.hurst, "umax": args.umax,
        "dt": args.dt, "paths": args.paths, "v": [float(v) for v in v_grid],
    }

    if args.route == "validate":
        pred_k, pred_w = prediction_routes(kspec, times, v_grid, rng, args.paths)[0]
        rel = rel_l2(pred_k, pred_w)
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
    kspec = DriftKernelSpec(ctx=make_context(args.hurst))
    times = inversion_grid(args.dt, u_deep=args.umax)
    w_rec, w_true, t_inv = driver_roundtrip(kspec, times, make_rng(args.seed), args.paths)
    rel = rel_l2(w_rec, w_true)
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
        covs = gamma_cov(cfg, args.n + 1)
        values = {
            "lags": list(range(args.n + 1)),
            "cov": [float(c) for c in covs],
            "sigma2": float(covs[0]),
        }
        config["n"] = args.n
    elif args.what == "decay":
        profile = decay_bound_check(cfg, args.n)
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
    # At its peak the check holds seven n x n arrays: a matrix, its envelope
    # and inverse, and the margins' temporaries (tracemalloc, 1000 trials:
    # 5.08 MiB at n = 300 and 19.51 MiB at n = 600, a slope of 7.00 n^2).
    _refuse_values(7 * args.n**2, f"--n {args.n} asks for seven n x n working arrays")
    from dataclasses import asdict

    from .almostdiag import matrix_batch_check

    rng = make_rng(args.seed)
    report = matrix_batch_check(args.n, args.eps, args.trials, rng)
    config = {"n": args.n, "eps": args.eps, "trials": args.trials}
    _emit(args, *_table_doc("bounds_matrix", config, asdict(report), seed=args.seed))
    return 0


def _cmd_bounds_subgauss(args) -> int:
    from .subgauss import subgaussian_bound, subgaussian_constants

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


def _make_thick_set(name: str, n: int, k: int, density: float, seed: int):
    from .thick import ThickSet

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
    from .thick import harmonic_subsum, is_thick_estimate

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
    from .almostdiag import hk_entry_bound, tuple_count_bound, valid_tuple_count

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
    # The covariance of the imax + 1 ladder values, or the chunk buffer each
    # thread draws into, whichever is larger.
    rows = args.imax + 1
    size, asked = rows * min(args.paths, CHUNK), (
        f"--imax {args.imax} and --paths {args.paths} ask for a chunk buffer")
    if rows**2 > size:
        size, asked = rows**2, f"--imax {args.imax} asks for a covariance"
    _refuse_values(size, asked)
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
    report = union_bound_ledger(make_context(args.hurst), args.r, args.rtilde,
                                args.alpha, args.p, _parse_pan(args.pan))
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
    from .acceptance import run_all  # only selftest pays for the battery's import

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
        doc = report.as_dict()
        columns = ("number", "name", "passed", "expected_failure", "detail")
        rows = [[c[key] for key in columns] for c in doc["criteria"]]
        _emit(args, doc, lambda fh: _write_rows(fh, ",".join(columns), rows))
    return 1 if surprises else 0


# ---------------------------------------------------------------------------
# The command table and the parser built from it
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An argument parser that takes no abbreviated flag, and makes its subparsers alike.

    ``add_subparsers`` builds subparsers of the parser's own class, so the
    whole command tree refuses ``--hur`` for ``--hurst``, on the command
    line and as a ``--config`` key.
    """

    def __init__(self, **kwargs) -> None:
        super().__init__(allow_abbrev=False, **kwargs)


def _command_words(argv: list[str]) -> list[str]:
    """The leading command words of ``argv``: its tokens before the first that starts with ``-``."""
    depth = next((i for i, tok in enumerate(argv) if tok.startswith("-")), len(argv))
    return argv[:depth]


def _flag(name: str, **kwargs) -> tuple[str, dict]:
    """A flag spec: the flag and its ``add_argument`` keywords."""
    return name, kwargs


class _Leaf(NamedTuple):
    """A leaf: its handler, its own flags in help order, its ``--seed`` default
    (None for no ``--seed``) and whether it takes ``--threads``."""

    handler: Callable[[argparse.Namespace], int]
    flags: tuple[tuple[str, dict], ...] = ()
    seed: int | None = 0
    threads: bool = False


_POSITIVE = _int_at_least(1)
_SETS = ("naturals", "evens", "multiples", "squares", "bernoulli")

# Flag specs that several leaves share.
_HURST = _flag("--hurst", type=_finite_float, required=True)
_R = _flag("--r", type=_finite_float, required=True)
_ALPHA = _flag("--alpha", type=_finite_float, required=True)
_P = _flag("--p", type=_finite_float, required=True)
_STRIDE = _flag("--k", type=int, default=3, help="stride for --set multiples")
_DENSITY = _flag("--density", type=_finite_float, default=0.5, help="density for --set bernoulli")
_GRID = (
    _flag("--n", type=_POSITIVE, required=True, help="number of grid steps"),
    _flag("--dt", type=_finite_float, required=True, help="grid spacing"),
    _flag("--paths", type=_POSITIVE, default=1, help="number of independent paths"),
)
_SAMPLE = (_flag("--hurst", type=_finite_float, required=True, help="Hurst parameter in (0, 1)"),
           *_GRID)
_WINDOW = (
    _flag("--umax", type=_finite_float, default=1.0e7, help="depth of the sampled past window"),
    _flag("--dt", type=_finite_float, default=1.0 / 128, help="uniform spacing of the recent past"),
    _flag("--v", default=V_GRID_DEFAULT, help="comma-separated future times to predict at"),
)
_DRIFT = (_HURST, _flag("--paths", type=_POSITIVE, default=4), *_WINDOW)
_GAMMA = (_HURST, _flag("--r", type=_finite_float, required=True, help="scale ratio in (0, 1)"))

# Each command: its help, the dest of its leaf word, and its leaves.  A command
# that is its own leaf has dest None and its one leaf under the key None.
_COMMANDS: dict[str, tuple[str, str | None, dict[str | None, _Leaf]]] = {
    "sample": ("draw process paths on a uniform grid", "process", {
        "fbm": _Leaf(_cmd_sample, _SAMPLE),
        "levy": _Leaf(_cmd_sample, _SAMPLE),
        "obm": _Leaf(_cmd_sample, (*_GRID, _flag(
            "--t0", type=_finite_float, default=0.0,
            help="grid start time (nonpositive multiple of dt)"))),
    }),
    "drift": ("conditional-mean prediction of the future", "route", {
        "kernel": _Leaf(_cmd_drift, _DRIFT),
        "obm": _Leaf(_cmd_drift, _DRIFT),
        "regression": _Leaf(_cmd_drift, _DRIFT),
        "validate": _Leaf(_cmd_drift, (
            _HURST, _flag("--paths", type=_POSITIVE, default=16), *_WINDOW,
            _flag("--tol", type=_finite_float, default=0.05,
                  help="relative L2 gate between the two prediction routes"),
        )),
    }),
    "invert": ("driver-recovery round trip", None, {None: _Leaf(_cmd_invert, (
        _HURST,
        _flag("--paths", type=_POSITIVE, default=16),
        _flag("--dt", type=_finite_float, default=1.0 / 512),
        _flag("--umax", type=_finite_float, default=600.0,
              help="depth of the observed past window"),
        _flag("--tol", type=_finite_float, default=0.05,
              help="relative L2 gate on the recovered driver"),
    ))}),
    "gamma": ("normalized increment field diagnostics", "what", {
        "cov": _Leaf(_cmd_gamma, (
            *_GAMMA, _flag("--n", type=_int_at_least(0), default=30, help="largest lag"),
        ), seed=None),
        # decay fits its constant over lags 1..n, so it needs one.
        "decay": _Leaf(_cmd_gamma, (
            *_GAMMA,
            _flag("--n", type=_POSITIVE, default=30, help="largest lag"),
            _flag("--threads", type=_POSITIVE, default=1,
                  help="no effect: the lags are one serial pass; still accepted"),
        ), seed=None),
        "modulus": _Leaf(_cmd_gamma, (*_GAMMA, _flag(
            "--t", default="0.015625,0.03125,0.0625,0.125,0.25,0.5,1.0",
            help="comma-separated window lengths")), seed=None),
        "regbound": _Leaf(_cmd_gamma, (
            *_GAMMA,
            _flag("--i", type=int, default=0, help="ladder index"),
            _flag("--tmax", type=_finite_float, default=1.0, help="window length"),
        ), seed=None),
    }),
    "bounds": ("deterministic bound verification", "what", {
        "matrix": _Leaf(_cmd_bounds_matrix, (
            _flag("--n", type=_int_at_least(2), required=True, help="matrix dimension"),
            _flag("--eps", type=_finite_float, required=True, help="off-diagonal envelope"),
            _flag("--trials", type=_int_at_least(0), default=1000, help="random instances"),
        )),
        "subgauss": _Leaf(_cmd_bounds_subgauss, (
            _flag("--theta", type=_finite_float, required=True, help="Holder exponent in (0, 1]"),
            _flag("--x", default="1.0,2.0,3.0", help="comma-separated tail levels"),
        ), seed=None),
        "thick": _Leaf(_cmd_bounds_thick, (
            _flag("--set", default="evens", dest="set_name", choices=_SETS,
                  help="index-set family"),
            _STRIDE,
            _DENSITY,
            _flag("--n", type=_int_at_least(2), default=4096, help="prefix horizon"),
        )),
        "hk-count": _Leaf(_cmd_bounds_hk, (
            _flag("--z", type=int, required=True, help="walk displacement"),
            _flag("--k", type=int, required=True, help="number of descents"),
            _flag("--n", type=int, required=True, help="walk length"),
            _flag("--eps", type=_finite_float,
                  help="also evaluate the entry bound at this epsilon"),
        ), seed=None),
    }),
    "lil": ("running-minimum trend experiment", None, {None: _Leaf(_cmd_lil, (
        _HURST,
        _R,
        _flag("--imax", type=int, default=40, help="deepest ladder index"),
        _flag("--paths", type=_POSITIVE, default=2000),
        _flag("--set", default=None, dest="set_name", choices=_SETS,
              help="restrict the index ladder to a thick set"),
        _STRIDE,
        _DENSITY,
    ), threads=True)}),
    "arbitrage": ("excess-count event family experiments", "what", {
        "an-prob": _Leaf(_cmd_arbitrage_anprob, (
            _HURST, _R, _ALPHA, _P,
            _flag("--n", type=int, required=True, help="deepest event depth"),
            _flag("--paths", type=_POSITIVE, default=100_000),
        ), threads=True),
        "ledger": _Leaf(_cmd_arbitrage_ledger, (
            _HURST, _R, _ALPHA, _P,
            _flag("--rtilde", type=_finite_float, required=True,
                  help="translation scale in (0, r)"),
            _flag("--pan", required=True,
                  help="comma-separated n=P(A'_n) pairs, e.g. 4=0.44,8=0.0993"),
        ), seed=None),
        "threshold": _Leaf(_cmd_arbitrage_threshold, (
            _HURST, _ALPHA, _flag("--alpha-prime", type=_finite_float, required=True),
            _P, _flag("--p-prime", type=_finite_float, required=True),
        ), seed=None),
    }),
    "selftest": ("run the full acceptance battery", None, {
        None: _Leaf(_cmd_selftest, seed=DEFAULT_SEED, threads=True),
    }),
}


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The ``fbmkit`` parser: the whole command tree, or only the path ``argv`` names.

    Every command of ``_COMMANDS`` is registered with its help, and a named
    group with all its leaves, so usage lines, choices, ``--help`` and errors
    read the same either way.  Without ``argv`` every leaf gets its arguments;
    with it, only the leaf that its leading words (:func:`_command_words`)
    name does.  Words that stop short of a leaf build every leaf below them,
    so an option typed before the command or its leaf is parsed as by the
    whole tree.
    """
    words = _command_words(argv or [])
    parser = _Parser(
        prog="fbmkit",
        description="Fractional Brownian motion prediction, inversion, and bound toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, dest, leaves) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        if words[:1] not in ([], [name]):
            continue
        if dest is None:
            built = {None: command}
        else:
            group = command.add_subparsers(dest=dest, required=True)
            built = {leaf: group.add_parser(leaf) for leaf in leaves}
            built = {leaf: p for leaf, p in built.items() if words[1:2] in ([], [leaf])}
        for leaf, p in built.items():
            spec = leaves[leaf]
            for flag, kwargs in spec.flags:
                p.add_argument(flag, **kwargs)
            p.add_argument("--config", help="key=value file merged under the flags (flags win)")
            p.add_argument("--out",
                           help="output path (relative paths resolve under FBMKIT_OUT_DIR)")
            p.add_argument("--format", choices=("json", "csv"),
                           help="artifact format; default json, or csv when --out ends in .csv")
            if spec.seed is not None:
                p.add_argument("--seed", type=_int_at_least(0), default=spec.seed,
                               help="64-bit reproducibility seed")
            if spec.threads:
                p.add_argument("--threads", type=_POSITIVE, default=os.cpu_count() or 1,
                               help="worker threads (results are thread-count independent)")
            p.set_defaults(handler=spec.handler)
    return parser


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        argv = _with_config(list(argv))
        args = build_parser(argv).parse_args(argv)
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
    except BrokenPipeError:  # the reader closed stdout; the flush at exit must not raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2


if __name__ == "__main__":
    sys.exit(main())

"""fbmkit benchmark: time a workload of CLI calls end to end, or trace it per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {predict,emit,mc} --seed N --seconds S --trace {0,1}

The workloads are defined in ``workloads.py``.  A run repeats the workload
for ``--seconds`` seconds (always at least once); every repetition is a fresh
interpreter (``child.py``) with an empty ``FBMKIT_OUT_DIR``, so the
program's module caches start cold as they do for every CLI user.  BLAS is
pinned to one thread; the calls themselves use ``--threads 2``.

``--trace 0`` reports the end-to-end metrics (medians over the
repetitions): ``wall_s`` (the calls, after import), ``setup_s`` (``import
fbmkit.cli`` plus ``build_parser()``) and ``peak_rss_mb``; it also prints
``error_rate``, ``route_gap`` and ``oracle_err`` with their units.

``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics named in ``BENCHMARK.json``: call counts and self/total
times of the wrapped public functions (medians over traced repetitions),
counters, import times from ``python -X importtime``, the bytes written and
the tracing overhead (traced minus untraced ``wall_s``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything the run
writes goes under ``.bench_runs/`` in the working directory.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import ORACLE_GATE, WORKLOADS  # noqa: E402

SRC = "src"
RUNS_DIR = ".bench_runs"
DEADLINE_S = 170.0
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "error_rate": "fraction",
         "route_gap": "1", "oracle_err": "1"}
IMPORT_LINE = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\| ( *)(\S+)\s*$")


class BenchError(Exception):
    """The benchmark cannot produce a result."""


# -- children ---------------------------------------------------------------------

def run_child(workload: str, seed: int, rep: int, trace: bool, deadline: float) -> dict:
    """One fresh-interpreter repetition; returns its result dict (plus import times if traced)."""
    work = os.path.join(RUNS_DIR, "work")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    result_path = os.path.join(RUNS_DIR, f"child-{workload}-{rep}.json")
    env = dict(os.environ, **BLAS_ENV, FBMKIT_OUT_DIR=os.path.abspath(work))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.abspath(SRC), os.environ.get("PYTHONPATH")]))
    cmd = [sys.executable]
    if trace:
        cmd += ["-X", "importtime"]
    cmd += [os.path.join(HERE, "child.py"), workload, str(seed), result_path]
    if trace:
        cmd += ["--trace", os.path.join(RUNS_DIR, f"spans-{workload}.npz")]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before a repetition could start")
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"repetition {rep} of {workload} did not finish within the run's deadline")
    if proc.returncode != 0 or not os.path.exists(result_path):
        raise BenchError(f"repetition {rep} of {workload} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    os.remove(result_path)
    shutil.rmtree(work, ignore_errors=True)
    if trace:
        result["imports"] = parse_importtime(proc.stderr)
    return result


def parse_importtime(stderr: str) -> dict[str, float]:
    """Import time in seconds of every module in ``-X importtime`` output.

    A module's time is its cumulative column.  A package imported through
    ``importlib.import_module`` (as scipy loads its subpackages lazily) gets
    no line of its own; it is credited with the summed cumulative time of its
    outermost submodule lines.
    """
    lines = []
    for raw in stderr.splitlines():
        m = IMPORT_LINE.match(raw)
        if m:
            lines.append((len(m.group(3)), m.group(4), int(m.group(2)) * 1.0e-6))
    parent_of, waiting = {}, []
    for i, (depth, _, _) in enumerate(lines):
        while waiting and lines[waiting[-1]][0] > depth:
            parent_of[waiting.pop()] = i
        waiting.append(i)
    out = {name: cum for _, name, cum in lines}
    credited = {}
    for i, (_, name, cum) in enumerate(lines):
        parent = lines[parent_of[i]][1] if i in parent_of else ""
        parts = name.split(".")
        for k in range(1, len(parts)):
            package = ".".join(parts[:k])
            if package not in out and not parent.startswith(package + "."):
                credited[package] = credited.get(package, 0.0) + cum
    out.update(credited)
    return out


def repetitions(workload: str, seed: int, seconds: float, traced_pattern: tuple[bool, ...]):
    """Run children cycling through ``traced_pattern`` until ``seconds`` have passed."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    results, rep = [], 0
    while rep < len(traced_pattern) or time.monotonic() - start < seconds:
        trace = traced_pattern[rep % len(traced_pattern)]
        results.append((trace, run_child(workload, seed, rep, trace, deadline)))
        rep += 1
    return results


# -- metadata -----------------------------------------------------------------------

def _version(dist: str) -> str:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit() -> str:
    if not os.path.isdir(".git"):
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def _src_lines() -> int:
    total = 0
    for root, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(root, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def metadata(seed: int) -> dict:
    return {
        "git_commit": _git_commit(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "jsonschema": _version("jsonschema"),
        "blas_threads": ",".join(f"{k}={v}" for k, v in sorted(BLAS_ENV.items())),
        "seed": seed,
        "src_lines": _src_lines(),
    }


# -- aggregation --------------------------------------------------------------------

def _median(values):
    return statistics.median(values) if values else None


def end_to_end(results: list[dict]) -> dict:
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    gaps = [r["route_gap"] for r in results if r["route_gap"] is not None]
    errs = [r["oracle_err"] for r in results if r["oracle_err"] is not None]
    return {
        "wall_s": _median([r["wall_s"] for r in results]),
        "setup_s": _median([r["setup_s"] for r in results]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in results]),
        "error_rate": failed / attempted,
        "route_gap": max(gaps) if gaps else None,
        "oracle_err": max(errs) if errs else None,
    }


def per_layer(traced: list[dict], untraced: list[dict], names: list[str]) -> tuple[dict, list[str]]:
    """The per-layer metrics ``names`` from traced repetitions, and notes on them."""
    notes = []
    first = traced[0]["layers"]
    for r in traced[1:]:
        moved = [k for k, v in r["layers"].items() if not k.endswith("_s") and v != first[k]]
        if moved:
            notes.append(f"per-layer counts differ between traced repetitions: {sorted(moved)}")
    overhead = _median([r["wall_s"] for r in traced]) - _median([r["wall_s"] for r in untraced])
    out = {}
    for name in names:
        if name.startswith("import."):
            out[name] = _median([r["imports"].get(name[len("import."):-len("_s")], 0.0) for r in traced])
        elif name == "trace.overhead_s":
            out[name] = overhead
        elif name == "trace.spans":
            out[name] = traced[0]["spans"]
        elif name == "cli.out_bytes":
            out[name] = traced[0]["out_bytes"]
        elif name in first:
            values = [r["layers"][name] for r in traced]
            out[name] = _median(values) if name.endswith("_s") else values[0]
        else:
            raise BenchError(f"BENCHMARK.json names per-layer metric {name!r}, which no layer reports")
    return out, notes


def declared_metrics(kind: str) -> list[tuple[str, str]]:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return [(m["name"], m["unit"]) for m in spec[kind]]


# -- main -----------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fbmkit", "cli.py")):
        print(f"error: no fbmkit sources under ./{SRC}; run from the repository root", file=sys.stderr)
        return 2
    os.makedirs(RUNS_DIR, exist_ok=True)
    meta = metadata(args.seed)
    try:
        reps = repetitions(args.workload, args.seed, args.seconds, (False, True) if args.trace else (False,))
        results = [r for _, r in reps]
        e2e = end_to_end([r for t, r in reps if not t])
        if args.trace:
            declared = declared_metrics("per_layer")
            values, notes = per_layer([r for t, r in reps if t], [r for t, r in reps if not t],
                                      [name for name, _ in declared])
        else:
            declared = declared_metrics("end_to_end")
            values, notes = {name: e2e[name] for name, _ in declared}, []
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    oracle_ok = e2e["oracle_err"] is None or e2e["oracle_err"] <= ORACLE_GATE
    correct = oracle_ok and not any(r["crashed"] or r["check_failed"] for r in results)

    print(f"workload {args.workload}  seed {args.seed}  repetitions {len(results)}"
          f"  ({sum(t for t, _ in reps)} traced)")
    print("meta " + json.dumps(meta, sort_keys=True))
    for name in ("wall_s", "setup_s", "peak_rss_mb", "error_rate", "route_gap", "oracle_err"):
        value = e2e[name]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<12} {shown:>12} {UNITS[name]}")
    failures = sorted({f for r in results for f in r["failures"]})
    for line in failures + sorted({n for r in results for n in r["oracle_notes"]}) + notes:
        print(f"  note: {line}")
    if args.trace:
        for name, unit in declared:
            print(f"  {name:<48} {values[name]:>14.6g} {unit}")

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "meta": meta,
              "end_to_end": e2e, "metrics": values, "repetitions": [r for _, r in reps]}
    for r in record["repetitions"]:
        r.pop("layers", None)
        r.pop("imports", None)
    with open(os.path.join(RUNS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

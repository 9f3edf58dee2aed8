"""One repetition of a workload in a fresh interpreter (started by ``run.py``).

Usage: ``python3 perfbench/child.py WORKLOAD SEED RESULT_JSON [--trace SPANS_NPZ]``
with ``src`` on ``PYTHONPATH`` and ``FBMKIT_OUT_DIR`` naming an empty
directory.

Steps: time ``import fbmkit.cli`` plus ``build_parser()`` (set-up), then the
workload's CLI calls back to back (wall time), record peak RSS, then -- all
outside the timed region -- check every artifact and compare against the
mpmath oracle table.  With ``--trace`` the public functions of every
``fbmkit`` module are wrapped for the calls, per-layer statistics go into the
result and the spans are written to ``SPANS_NPZ``.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ORACLE_PATH = os.path.join(HERE, "oracle.json")


def make_tracer():
    """A :class:`tracer.Tracer` over every ``fbmkit`` module (imported by then).

    numpy, like everything else outside ``fbmkit``, is imported only after
    the set-up has been timed.
    """
    import numpy as np

    import fbmkit
    from fbmkit.errors import FbmkitError
    from tracer import Tracer

    def xi(tracer, result):
        tracer.count("context.xi.elems", int(np.size(result)))

    def cholesky(tracer, result):
        factor, jitter = result
        tracer.record_max("gaussian.cholesky_with_jitter.max_dim", int(factor.shape[0]))
        tracer.record_max("gaussian.cholesky_with_jitter.max_jitter", float(jitter))

    def parallel_map(tracer, result):
        tracer.count("rng.parallel_map.items", len(result))

    observers = {"context.xi": xi, "gaussian.cholesky_with_jitter": cholesky, "rng.parallel_map": parallel_map}
    values = ("context.xi.elems", "gaussian.cholesky_with_jitter.max_dim",
              "gaussian.cholesky_with_jitter.max_jitter", "rng.parallel_map.items")
    modules = [fbmkit] + sorted(
        (m for name, m in sys.modules.items() if name.startswith("fbmkit.") and m is not None),
        key=lambda m: m.__name__,
    )
    return Tracer(modules, prefix="fbmkit.", observers=observers, values=values,
                  error_types=(FbmkitError,))


def run(workload: str, seed: int, result_path: str, spans_path: str | None) -> None:
    t0 = time.perf_counter()
    import fbmkit.cli as cli

    cli.build_parser()
    setup_s = time.perf_counter() - t0

    from workloads import WORKLOADS, CheckError

    spec = WORKLOADS[workload]
    calls = spec.calls(seed)
    out_dir = os.environ["FBMKIT_OUT_DIR"]
    tracer = make_tracer() if spans_path else None
    if tracer is not None:
        tracer.install()

    codes = []
    t1 = time.perf_counter()
    for call in calls:
        try:
            codes.append(cli.main(list(call.argv)))
        except Exception:  # a crash is a failed call, not the end of the run
            traceback.print_exc()
            codes.append("crash")
    wall_s = time.perf_counter() - t1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.uninstall()

    ctx = {"seed": seed}
    failures = []
    check_failed = 0
    out_bytes = 0
    for call, code in zip(calls, codes):
        label = " ".join(call.argv)
        if code != 0:
            failures.append(f"exit {code}: {label}")
            continue
        path = os.path.join(out_dir, call.out)
        try:
            out_bytes += os.path.getsize(path)
            call.check(path, ctx)
        except (CheckError, OSError, KeyError, ValueError, TypeError) as exc:
            failures.append(f"check failed: {label}: {exc}")
            check_failed += 1

    oracle_err, notes = None, []
    if spec.oracle is not None:
        with open(ORACLE_PATH, encoding="utf-8") as fh:
            oracle_err, notes = spec.oracle(json.load(fh))

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(calls),
        "failed": len(failures),
        "failures": failures,
        "check_failed": check_failed,
        "crashed": sum(code == "crash" for code in codes),
        "route_gap": ctx.get("route_gap"),
        "oracle_err": oracle_err,
        "oracle_notes": notes,
        "out_bytes": out_bytes,
    }
    if tracer is not None:
        result["layers"] = tracer.stats()
        result["spans"] = tracer.span_count
        tracer.save(spans_path)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    argv = sys.argv[1:]
    spans = None
    if len(argv) == 5 and argv[3] == "--trace":
        spans = argv[4]
        argv = argv[:3]
    if len(argv) != 3:
        sys.exit(__doc__)
    run(argv[0], int(argv[1]), argv[2], spans)

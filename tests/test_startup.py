"""Start-up cost: the CLI imports without scipy or jsonschema, and no call loads them.

scipy's import costs about a quarter second, twice the work of a small CLI
call, and no library route needs it: the regression solve runs on the
Cholesky factor in numpy, and the normal log-tail comes from ``math.erfc``.
jsonschema's costs about 60 ms and 4 MB, and is needed only to report a
schema violation: ``reports.check_document`` decides validity with its own
walk, so the lazily bound module never runs on a good document.  Besides
the benchmarked calls, ``drift regression`` and ``arbitrage ledger`` leave
both unloaded too.  The numpy submodules the package uses are imported with
it, so the first call does not pay for them; ``numpy.ma`` (about 10 ms) is
not one of them, and no call loads it.  A fresh interpreter is
needed: the test session itself has scipy and jsonschema loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import fbmkit

SRC = str(Path(fbmkit.__file__).resolve().parents[1])

# One small call of each subcommand the perfbench workloads run.
LEAN_CALLS = [
    "sample fbm --hurst 0.75 --n 64 --dt 0.01",
    "sample levy --hurst 0.25 --n 64 --dt 0.01",
    "drift validate --hurst 0.75 --paths 4 --tol 0.25",
    "drift validate --hurst 0.25 --paths 4 --tol 0.25",
    "invert --hurst 0.25 --paths 4 --tol 0.25",
    "gamma decay --hurst 0.75 --r 0.5 --n 8 --threads 2",
    "gamma cov --hurst 0.75 --r 0.1 --n 8",
    "drift obm --hurst 0.75 --paths 1",
    "arbitrage an-prob --hurst 0.75 --r 0.1 --alpha 0.5 --p 0.5 --n 4 --paths 1000 --threads 2",
    "lil --hurst 0.75 --r 0.5 --paths 1000 --threads 2",
]
OTHER_CALLS = [
    "drift regression --hurst 0.75 --paths 1",
    "arbitrage ledger --hurst 0.75 --r 0.1 --alpha 0.5 --p 0.5 --rtilde 0.05"
    " --pan 4=0.44,8=0.0993",
]
WATCHED = ("numpy.random", "numpy.fft", "numpy.polynomial", "numpy.ma", "scipy",
           "jsonschema.validators")

SCRIPT = """
import json, sys
from fbmkit.cli import build_parser, main

def loaded():
    return [m for m in WATCHED if m in sys.modules]

def run(calls, tag):  # each call's exit code, and what is loaded after it
    codes, seen = [], []
    for k, argv in enumerate(calls):
        codes.append(main(argv.split() + ["--out", f"{tag}{k}.json"]))
        seen.append(loaded())
    return codes, seen

build_parser()
report = {"startup": loaded()}
report["lean"], report["after_lean"] = run(LEAN, "lean")
report["other"], report["after_other"] = run(OTHER, "other")
print(json.dumps(report))
"""


def test_cli_starts_and_runs_the_benchmarked_calls_without_scipy(tmp_path):
    env = dict(os.environ, FBMKIT_OUT_DIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    prelude = f"WATCHED = {WATCHED!r}\nLEAN = {LEAN_CALLS!r}\nOTHER = {OTHER_CALLS!r}\n"
    proc = subprocess.run(
        [sys.executable, "-c", prelude + SCRIPT],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["startup"] == ["numpy.random", "numpy.fft", "numpy.polynomial"]
    assert report["lean"] == [0] * len(LEAN_CALLS), proc.stderr
    assert report["other"] == [0] * len(OTHER_CALLS), proc.stderr
    for loaded in report["after_lean"] + report["after_other"]:
        assert "scipy" not in loaded
        assert "jsonschema.validators" not in loaded
        assert "numpy.ma" not in loaded

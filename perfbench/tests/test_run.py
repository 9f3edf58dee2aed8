"""Metric names, import-time parsing, and a real run of the cheapest workload."""

import json
import os
import re
import subprocess
import sys

import pytest

import run

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_metric_names_are_well_formed_and_unique():
    spec = _spec()
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in spec[kind]]
    assert all(NAME.match(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))


def test_importtime_credits_lazily_imported_packages():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |     pkg.sub.a",
        "import time:        20 |         30 |   pkg.sub.b",
        "import time:         5 |          5 |   pkg.sub.c",
        "import time:         1 |         36 | pkg",
    ])
    got = run.parse_importtime(text)
    assert got["pkg"] == pytest.approx(36e-6)
    assert got["pkg.sub"] == pytest.approx(35e-6)  # b (which contains a) plus c
    assert got["pkg.sub.a"] == pytest.approx(10e-6)


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_a_run_emits_every_declared_metric(trace, kind):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc", "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    declared = {m["name"]: m["unit"] for m in _spec()[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    # The Hurst sweep's four known failures per repetition, never filtered out.
    assert result["failed"] == 4 * result["attempted"] // 20


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "workloads.py", "child.py", "tracer.py", "oracle.json"):
        (bench / name).write_bytes(open(os.path.join(ROOT, "perfbench", name), "rb").read())
    (tmp_path / "BENCHMARK.json").write_bytes(open(os.path.join(ROOT, "BENCHMARK.json"), "rb").read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""

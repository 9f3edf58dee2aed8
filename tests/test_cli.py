"""Command-line behaviour: defaults, exit codes and reproducible artifacts.

Every subcommand runs with only its required flags.  ``selftest`` runs on
a stubbed battery (the real one takes tens of seconds) to pin its exit code:
0 when every failure is declared, 1 otherwise.
A result holding inf or nan exits 3 and writes no artifact.  Every
subcommand with ``--threads`` writes the same artifact at any thread count,
up to its volatile fields.
"""

import json
import math

import numpy as np
import pytest

from fbmkit import cli, gamma
from fbmkit.acceptance import (
    CRITERION_NAMES,
    EXPECTED_FAILURES,
    AcceptanceReport,
    CriterionResult,
)
from fbmkit.cli import main
from fbmkit.errors import AccuracyError
from fbmkit.reports import ExperimentReport

REQUIRED_ONLY = [
    "sample fbm --hurst 0.75 --n 64 --dt 0.01",
    "sample levy --hurst 0.25 --n 64 --dt 0.01",
    "sample obm --n 64 --dt 0.01",
    "drift kernel --hurst 0.75",
    "drift obm --hurst 0.75",
    "drift regression --hurst 0.75",
    "drift validate --hurst 0.75",
    "drift validate --hurst 0.25",
    "invert --hurst 0.75",
    "gamma cov --hurst 0.75 --r 0.1",
    "gamma decay --hurst 0.75 --r 0.1",
    "gamma modulus --hurst 0.75 --r 0.1",
    "gamma modulus --hurst 0.25 --r 0.1",
    "gamma regbound --hurst 0.75 --r 0.1",
    "bounds matrix --n 8 --eps 0.1",
    "bounds subgauss --theta 0.5",
    "bounds thick",
    "bounds hk-count --z 2 --k 1 --n 6",
    "lil --hurst 0.75 --r 0.1",
    "lil --hurst 0.05 --r 0.5",
    "lil --hurst 0.02 --r 0.1",
    "arbitrage an-prob --hurst 0.75 --r 0.1 --alpha 0.5 --p 0.5 --n 4",
    "arbitrage ledger --hurst 0.75 --r 0.1 --alpha 0.5 --p 0.5 --n 8 --rtilde 0.05"
    " --alpha-prime 0.4 --p-prime 0.4 --pan 4=0.44,8=0.0993",
    "arbitrage threshold --hurst 0.75 --alpha 0.5 --alpha-prime 0.4 --p 0.5 --p-prime 0.4",
]


@pytest.mark.parametrize("command", REQUIRED_ONLY)
def test_defaults_are_a_valid_invocation(command, capsys):
    code = main(command.split())
    err = capsys.readouterr().err
    assert code == 0, err


def stub_battery(failing):
    """A battery report shaped like ``run_all``'s, failing the given criteria."""
    results = [
        CriterionResult(number=k, name=CRITERION_NAMES[k], passed=k not in failing,
                        detail="stub", runtime=0.0, expected_failure=k in EXPECTED_FAILURES)
        for k in sorted(CRITERION_NAMES)
    ]
    return AcceptanceReport(seed=0, threads=1, results=results)


# The real outcome (only the declared criterion 10 fails), an undeclared
# failure beside it, and the declared failure passing (a strict xfail).
@pytest.mark.parametrize("failing,code", [({10}, 0), ({3, 10}, 1), (set(), 1)])
def test_selftest_exits_0_only_when_every_failure_is_declared(failing, code, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_all", lambda seed, threads: stub_battery(failing))
    assert main(["selftest", "--threads", "1"]) == code
    summary = capsys.readouterr().out.splitlines()[-1]
    assert summary.startswith(f"{11 - len(failing)}/11 criteria passed")
    assert ("unexpected" in summary) == (code == 1)


def test_validation_error_exits_2(capsys):
    assert main("drift kernel --hurst 1.5".split()) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_accuracy_error_exits_3(monkeypatch, capsys):
    def refuse(args):
        raise AccuracyError("budget not met", estimate=1.0, budget=0.5)

    monkeypatch.setattr(cli, "_cmd_bounds_thick", refuse)
    assert main(["bounds", "thick"]) == 3
    assert capsys.readouterr().err.startswith("accuracy error:")


# The zero field at H = 1/2 has c_e = 0, so the sup tail bound has no
# finite constants.
@pytest.mark.parametrize("command", [
    "gamma regbound --hurst 0.5 --r 0.5",
    "arbitrage ledger --hurst 0.5 --r 0.5 --alpha 0.5 --p 0.5 --n 4 --rtilde 0.25"
    " --alpha-prime 0.25 --p-prime 0.25 --pan 4=0.4",
])
def test_tail_bound_on_the_zero_field_exits_2(command, tmp_path, capsys):
    out = tmp_path / "artifact.json"
    assert main(command.split() + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_regbound_computes_c_e_once(monkeypatch, tmp_path):
    calls = []
    real = gamma.c_e
    monkeypatch.setattr(gamma, "c_e", lambda cfg: calls.append(cfg) or real(cfg))
    out = tmp_path / "bound.json"
    assert main(f"gamma regbound --hurst 0.75 --r 0.1 --out {out}".split()) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("hurst", [0.005, 0.02, 0.98, 0.995])
@pytest.mark.parametrize("what", ["cov --n 8", "decay", "modulus", "regbound"])
def test_gamma_runs_near_the_ends_of_hurst(what, hurst, tmp_path, capsys):
    out = tmp_path / "gamma.json"
    assert main(f"gamma {what} --hurst {hurst} --r 0.1 --out {out}".split()) == 0, (
        capsys.readouterr().err
    )


@pytest.mark.parametrize("hurst", [0.005, 0.75, 0.995])
def test_gamma_cov_reaches_the_scale_guard(hurst, tmp_path):
    # 0.1^300 is the last power of 0.1 above the 1e-300 scale guard.
    argv = f"gamma cov --hurst {hurst} --r 0.1 --out {tmp_path / 'cov.json'} --n".split()
    assert main(argv + ["300"]) == 0
    assert main(argv + ["301"]) == 2


def test_levy_artifact_is_byte_identical_across_runs(tmp_path):
    argv = "sample levy --hurst 0.25 --n 64 --dt 0.01 --seed 3 --out".split()
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert main(argv + [str(first)]) == 0
    assert main(argv + [str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


THREADED = [
    "gamma decay --hurst 0.75 --r 0.5 --n 12",
    "bounds matrix --n 8 --eps 0.1 --trials 200",
    # Three chunks of paths each: 2^15 per lil chunk, 200000 per an-prob chunk.
    "lil --hurst 0.75 --r 0.5 --paths 70000",
    "arbitrage an-prob --hurst 0.75 --r 0.1 --alpha 0.5 --p 0.5 --n 16 --paths 400001",
]
VOLATILE = ("created_utc", "wall_time", "runtime", "threads")


@pytest.mark.parametrize("command", THREADED)
def test_artifact_does_not_depend_on_threads(command, tmp_path):
    docs = []
    for threads in (1, 3):
        out = tmp_path / f"threads{threads}.json"
        assert main(command.split() + ["--threads", str(threads), "--out", str(out)]) == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        for key in VOLATILE:
            doc.pop(key, None)
        docs.append(doc)
    assert docs[0] == docs[1]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_non_finite_path_values_exit_3_and_write_nothing(bad, fmt, monkeypatch, tmp_path, capsys):
    def sample(hurst, n, dt, rng, paths=1):
        values = np.zeros((paths, n + 1))
        values[-1, -1] = bad
        return values

    monkeypatch.setattr(cli, "sample_fbm_paths", sample)
    out = tmp_path / f"paths.{fmt}"
    assert main(f"sample fbm --hurst 0.75 --n 8 --dt 0.1 --paths 2 --out {out}".split()) == 3
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_table_values_exit_3_and_write_nothing(bad, monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "gamma_cov", lambda cfg, i, d: bad if d == 2 else 1.0)
    out = tmp_path / "cov.json"
    assert main(f"gamma cov --hurst 0.75 --r 0.1 --n 3 --out {out}".split()) == 3
    assert not out.exists()


def test_non_finite_report_values_exit_3_and_write_nothing(monkeypatch, tmp_path):
    report = ExperimentReport(kind="union_bound_ledger", config={}, seed=0,
                              trends={"p_bound": [0.5, math.nan]})
    monkeypatch.setattr(cli, "union_bound_ledger", lambda cfg, pan: report)
    out = tmp_path / "ledger.json"
    ledger = next(c for c in REQUIRED_ONLY if c.startswith("arbitrage ledger"))
    assert main(ledger.split() + ["--out", str(out)]) == 3
    assert not out.exists()


@pytest.mark.parametrize("command", [
    "bounds subgauss --theta 0.5 --x inf",
    "sample fbm --hurst 0.75 --n 4 --dt inf",
    "sample obm --n 4 --dt 0.1 --t0 nan",
    "drift kernel --hurst 0.75 --v 0.5,nan",
    "arbitrage ledger --hurst 0.75 --r 0.1 --alpha 0.5 --p 0.5 --n 8 --rtilde 0.05"
    " --alpha-prime 0.4 --p-prime 0.4 --pan 4=nan",
])
def test_non_finite_float_input_exits_2(command, tmp_path):
    out = tmp_path / "artifact.json"
    assert main(command.split() + ["--out", str(out)]) == 2
    assert not out.exists()


def test_non_finite_config_value_exits_2(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("dt = nan\n", encoding="utf-8")
    out = tmp_path / "artifact.json"
    argv = f"sample fbm --hurst 0.75 --n 4 --config {config} --out {out}".split()
    assert main(argv) == 2
    assert not out.exists()

"""Command-line behaviour: defaults, exit codes and reproducible artifacts.

Every subcommand runs with only its required flags, in JSON and in CSV, and
every leaf of the command tree but ``selftest`` has such a call;
what it writes to stdout ends in one newline and is what ``--out`` writes,
up to the volatile ``wall_time`` and ``created_utc``, and its JSON artifact
is valid against the schema of its kind (path, table or report).
``selftest`` runs on a stubbed battery (the real one takes tens of seconds)
to pin its exit code: 0 when every failure is declared, 1 otherwise, and its
artifact in both formats, valid against ``ACCEPTANCE_SCHEMA``.
``arbitrage ledger`` refuses each of its inputs out of range.
A result holding inf or nan exits 3 and writes no artifact.  Every finite
input to ``arbitrage threshold``, ``arbitrage ledger``, ``gamma regbound``
and ``bounds subgauss``, subnormals included, exits 0, 2 or 3 without a
traceback, and an artifact it writes is valid against its schema, whether
a flag and its value are one token (``--x=-1e-05``) or two (``--x -1e-05``):
a negative value in any float spelling is a value, not a flag.  An input
whose result leaves the float range exits 2 (refused, naming its flag) or 3
(not representable), or 0 where the limit is exact.
A negative ``--seed``, a ``--threads`` or ``--paths`` below 1, or a count
below its floor exits 2 and writes nothing on every subcommand that takes
the flag.
A ``--config`` file sets flags under the typed ones, and a key that is not a
flag of the subcommand, a missing file or a missing path exits 2 and writes
nothing.  Every subcommand with ``--threads`` writes the same artifact at
any thread count, up to its volatile fields.  Artifacts are streamed: the
``sample`` artifacts keep the bytes they had when they were rendered whole,
an error partway through the stream leaves no file behind, and a path
document's stream holds one row's text at a time.  An ``--out`` that is a
symbolic link or a device keeps its type, and an existing artifact keeps its
permission bits.  A reader that closes stdout early ends the call with exit 0
and nothing on stderr.  ``drift kernel`` on a window 1e12 deep predicts at
the scale it has at the default depth.
The parser ``main`` builds from its argv parses like the whole tree: the
same exit code, output and namespace on every leaf, every help text and each
kind of bad argv; and it holds the arguments of its own leaf alone.  A past
window of more than ``WINDOW_MAX_POINTS`` times exits 2, naming ``--dt``,
before it is allocated; no required or benchmarked call reaches the cap.
So does a ``sample``, ``lil`` or ``bounds matrix`` call whose largest array
would pass ``MAX_ARRAY_VALUES``, naming its flags.  ``drift validate`` and
``invert`` never build a covariance over their window: on one just under
the cap they run in a few megabytes, and at their defaults under 4 MB.  At
H = 1/2 ``drift validate`` writes a gap of exactly 0, and ``invert``
recovers the process itself.
"""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fbmkit import acceptance, almostdiag, cli, gamma, thick
from fbmkit.acceptance import (
    ACCEPTANCE_SCHEMA,
    CRITERION_NAMES,
    EXPECTED_FAILURES,
    AcceptanceReport,
    CriterionResult,
)
from fbmkit.cli import PATH_SCHEMA, TABLE_SCHEMA, main
from fbmkit.context import make_context
from fbmkit.drift import (
    WINDOW_MAX_POINTS,
    DriftKernelSpec,
    driver_roundtrip,
    inversion_grid,
    rel_l2,
)
from fbmkit.errors import AccuracyError, ValidationError
from fbmkit.fbm import sample_fbm_paths
from fbmkit.gaussian import MAX_ARRAY_VALUES
from fbmkit.reports import REPORT_SCHEMA, ExperimentReport
from fbmkit.rng import make_rng

REQUIRED_ONLY = [
    "sample fbm --hurst 0.75 --n 64 --dt 0.01",
    "sample levy --hurst 0.25 --n 64 --dt 0.01",
    "sample obm --n 64 --dt 0.01",
    "drift kernel --hurst 0.75",
    "drift obm --hurst 0.75",
    "drift regression --hurst 0.75",
    "drift validate --hurst 0.75",
    "drift validate --hurst 0.25",
    "drift kernel --hurst 0.5",
    "drift obm --hurst 0.5",
    "drift regression --hurst 0.5",
    "drift validate --hurst 0.5",
    "invert --hurst 0.75",
    "invert --hurst 0.5",
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
    "arbitrage ledger --hurst 0.75 --r 0.1 --alpha 0.5 --p 0.5 --rtilde 0.05"
    " --pan 4=0.44,8=0.0993",
    "arbitrage threshold --hurst 0.75 --alpha 0.5 --alpha-prime 0.4 --p 0.5 --p-prime 0.4",
]


# The volatile values of a report document, blanked to compare two runs.
STAMPS = re.compile(r'("(?:wall_time|created_utc)": )[^,\n]*')

# The schema of each kind of artifact but selftest's, told by the key only
# that kind of document holds.
SCHEMA_BY_KEY = {"paths": PATH_SCHEMA, "values": TABLE_SCHEMA, "estimates": REPORT_SCHEMA}


def assert_schema_shaped(text: str) -> None:
    """Validate a JSON artifact against the schema of its kind: path, table or report."""
    doc = json.loads(text)
    (schema,) = (SCHEMA_BY_KEY[key] for key in SCHEMA_BY_KEY if key in doc)
    jsonschema.Draft202012Validator(schema).validate(doc)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("command", REQUIRED_ONLY)
def test_defaults_are_a_valid_invocation(command, fmt, tmp_path, capsys):
    argv = command.split() + ["--format", fmt]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out.endswith("\n") and not captured.out.endswith("\n\n")
    out = tmp_path / f"artifact.{fmt}"
    assert main(argv + ["--out", str(out)]) == 0
    written = out.read_text(encoding="utf-8")
    assert STAMPS.sub(r"\1", captured.out) == STAMPS.sub(r"\1", written)
    if fmt == "json":
        assert_schema_shaped(written)


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
    monkeypatch.setattr(acceptance, "run_all", lambda seed, threads: stub_battery(failing))
    assert main(["selftest", "--threads", "1"]) == code
    summary = capsys.readouterr().out.splitlines()[-1]
    assert summary.startswith(f"{11 - len(failing)}/11 criteria passed")
    assert ("unexpected" in summary) == (code == 1)


def test_selftest_artifact_in_both_formats(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(acceptance, "run_all", lambda seed, threads: stub_battery({10}))
    json_out, csv_out = tmp_path / "battery.json", tmp_path / "battery.csv"
    assert main(["selftest", "--threads", "1", "--out", str(json_out)]) == 0
    assert main(["selftest", "--threads", "1", "--out", str(csv_out)]) == 0
    doc = json.loads(json_out.read_text(encoding="utf-8"))
    jsonschema.Draft202012Validator(ACCEPTANCE_SCHEMA).validate(doc)
    assert doc["kind"] == "acceptance"
    assert [c["passed"] for c in doc["criteria"]] == [k != 10 for k in range(1, 12)]
    lines = csv_out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "number,name,passed,expected_failure,detail"
    assert lines[10] == f"10,{CRITERION_NAMES[10]},false,true,stub"
    assert len(lines) == 12


def leaf_parsers(parser, words=()):
    """(command words, parser) for every leaf subcommand under ``parser``."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield words, parser
        return
    for name, child in subs[0].choices.items():
        yield from leaf_parsers(child, words + (name,))


def test_every_leaf_but_selftest_has_a_required_only_call():
    # So test_defaults_are_a_valid_invocation checks every leaf's artifact;
    # selftest has its stub tests above.
    leaves = {words for words, _leaf in leaf_parsers(cli.build_parser())}
    called = {tuple(cli._command_words(c.split())) for c in REQUIRED_ONLY}
    assert called == leaves - {("selftest",)}


def invocations_taking(flag):
    """A valid invocation of every subcommand that takes ``flag``."""
    valid = [c.split() for c in REQUIRED_ONLY] + [["selftest"]]
    return [
        " ".join(next(argv for argv in valid if tuple(argv[: len(words)]) == words))
        for words, leaf in leaf_parsers(cli.build_parser())
        if flag in leaf._option_string_actions
    ]


# A bad value is refused while parsing, before selftest starts its battery.
@pytest.mark.parametrize("command", invocations_taking("--seed"))
def test_negative_seed_exits_2(command, capsys):
    assert main(command.split() + ["--seed", "-1"]) == 2
    assert "argument --seed: expected an integer >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-1"])
@pytest.mark.parametrize("command", invocations_taking("--threads"))
def test_threads_below_one_exit_2(command, threads, capsys):
    assert main(command.split() + ["--threads", threads]) == 2
    assert "argument --threads: expected an integer >= 1" in capsys.readouterr().err


# Every integer flag with a floor, on a valid invocation that takes it.
INTEGER_FLOORS = [
    *((command, "--paths", 1) for command in invocations_taking("--paths")),
    ("sample fbm --hurst 0.75 --dt 0.01", "--n", 1),
    ("sample levy --hurst 0.25 --dt 0.01", "--n", 1),
    ("sample obm --dt 0.01", "--n", 1),
    ("gamma cov --hurst 0.75 --r 0.1", "--n", 0),
    ("gamma decay --hurst 0.75 --r 0.1", "--n", 1),
    ("bounds thick", "--n", 2),
    # A 1 x 1 matrix has no off-diagonal entry to bound.
    ("bounds matrix --eps 0.1", "--n", 2),
    ("bounds matrix --n 8 --eps 0.1", "--trials", 0),
]


@pytest.mark.parametrize("below", [1, 3])
@pytest.mark.parametrize("command,flag,low", INTEGER_FLOORS)
def test_integer_below_its_floor_exits_2_and_writes_nothing(command, flag, low, below,
                                                             tmp_path, capsys):
    out = tmp_path / "artifact.json"
    argv = command.split() + [flag, str(low - below), "--out", str(out)]
    assert main(argv) == 2
    assert f"argument {flag}: expected an integer >= {low}" in capsys.readouterr().err
    assert not out.exists()


def test_validation_error_exits_2(capsys):
    assert main("drift kernel --hurst 1.5".split()) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_accuracy_error_exits_3(monkeypatch, capsys):
    def refuse(thick_set):
        raise AccuracyError("budget not met", estimate=1.0, budget=0.5)

    # The bounds thick handler imports is_thick_estimate from its module
    # when it runs, so the stub there is what it calls.
    monkeypatch.setattr(thick, "is_thick_estimate", refuse)
    assert main(["bounds", "thick"]) == 3
    assert capsys.readouterr().err.startswith("accuracy error:")


# The zero field at H = 1/2 has c_e = 0, so the sup tail bound has no
# finite constants.
@pytest.mark.parametrize("command", [
    "gamma regbound --hurst 0.5 --r 0.5",
    "arbitrage ledger --hurst 0.5 --r 0.5 --alpha 0.5 --p 0.5 --rtilde 0.25 --pan 4=0.4",
])
def test_tail_bound_on_the_zero_field_exits_2(command, tmp_path, capsys):
    out = tmp_path / "artifact.json"
    assert main(command.split() + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


LEDGER = "arbitrage ledger --hurst 0.75 --r 0.1 --alpha 0.5 --p 0.5 --rtilde 0.05 --pan 4=0.44"


@pytest.mark.parametrize("flag,value,message", [
    ("--r", "1.5", "r must lie in (0, 1)"),
    ("--alpha", "1.0", "alpha must lie in [0, 1)"),
    ("--p", "0", "p must lie in (0, 1)"),
    ("--rtilde", "0.1", "need 0 < r_tilde < r"),
    ("--pan", "0=0.5", "depths must be >= 1"),
    ("--pan", "4=1.5", "outside [0, 1]"),
])
def test_ledger_refuses_each_input_out_of_range(flag, value, message, tmp_path, capsys):
    out = tmp_path / "ledger.json"
    assert main(LEDGER.split() + [flag, value, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


# The past window needs 0 < --dt <= 2 < --umax; a bad one is refused before
# anything is drawn.
BAD_WINDOWS = ["--umax 0", "--umax -5", "--umax 1.5", "--dt 0", "--dt 3"]


@pytest.mark.parametrize("window", BAD_WINDOWS)
@pytest.mark.parametrize("command", [
    "drift kernel", "drift obm", "drift regression", "drift validate", "invert",
])
def test_bad_past_window_exits_2_and_writes_nothing(command, window, tmp_path, capsys):
    out = tmp_path / "artifact.json"
    argv = f"{command} --hurst 0.75 {window} --out {out}".split()
    assert main(argv) == 2
    assert "0 < dt <= 2.0 < u_deep" in capsys.readouterr().err
    assert not out.exists()


def test_route_gap_against_a_zero_prediction():
    # drift validate at H = 1/2 compares two exact zeros: no gap.  Any
    # nonzero result against a zero reference still fails every tolerance.
    zero = np.zeros((2, 3))
    assert rel_l2(zero, zero) == 0.0
    assert rel_l2(np.full((2, 3), 1e-300), zero) == math.inf


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


SAMPLED = {
    "fbm": "sample fbm --hurst 0.75 --n 2100 --dt 0.001 --paths 20",
    # Small enough that the bytes are the same at 1, 2 and 4 BLAS threads;
    # at 128 steps they already differ between 1 and 2.
    "levy": "sample levy --hurst 0.25 --n 96 --dt 0.002 --paths 5",
    "obm": "sample obm --n 1200 --dt 0.001 --t0 -0.25 --paths 3",
}
# sha256 of each artifact as written before artifacts were streamed, when
# the fGn sampler drew every path at once and each format was rendered whole.
SAMPLED_SHA256 = {
    ("fbm", 0, "json"): "dbd22e55585e425ad9849151601434d9222814f598df1c90c44b9f1246a72d2e",
    ("fbm", 0, "csv"): "7a3b792cfa7775eb1b4c6dd6ff9cef2bcd86296288bad277456c294a44ac04b6",
    ("fbm", 7, "json"): "a63ccde520384cfe909340bb79bad616a62fc2ff7fe28a9d25343b3adddc5c15",
    ("fbm", 7, "csv"): "d452a26ececfd39345ccd6b1deb46792fe7710a1da53385a6fd47d382923b771",
    ("fbm", 900, "json"): "ce467f8aafc14d6c8656201b3996c32305a37c844bbc84ee6c02272ed9c7cd5d",
    ("fbm", 900, "csv"): "ab3a31fe2ab5085f1952be55fdce8542cf61d824a265f78cdbe07957ca8fd053",
    ("levy", 0, "json"): "204c6cb8e4647e8b98e53842a93bc24cddc1d46c9cad961424d8ae1067c8fe9f",
    ("levy", 0, "csv"): "621313ff994679fac2f99b304bf3ebad3f309c7934527985163dab330291f33a",
    ("levy", 7, "json"): "10732b6229ca28e515398bfeca373e1687689f4bc3f83840c7c716a726a73b62",
    ("levy", 7, "csv"): "2bc20c3ec3e6c931cd3083a9924361822024c18363fbb4c72bfa1dfc8dcf4382",
    ("levy", 900, "json"): "bc147e1e445c52ac4cbc3ca98e1785e7c6697932897ebf7de556075f69bb605a",
    ("levy", 900, "csv"): "a6f67d16a99d5ee8e52664088d9855852eb3f5fcb8646f1867d4e1972aeac0b1",
    ("obm", 0, "json"): "f3a125240647400f42e79ea7a0cfdc8c0012f319d1c5ae4f132c1be174d6793a",
    ("obm", 0, "csv"): "d43a54a88dcb245ffd0a04fadfe40ef38adfe01f85ed8d7cbde667481674c662",
    ("obm", 7, "json"): "db3e4276d37001c4388fc22bd8051be2251d327dab9d75f8c64cee6d8d9da904",
    ("obm", 7, "csv"): "c86cfca471faec8fad2125819f4f2c7a340f73278d56cd1157a22d8f7ca0ed21",
    ("obm", 900, "json"): "12959e4e575354a5d6807dbe272a371d8a6277528088e0201cf83be1def88fd8",
    ("obm", 900, "csv"): "9f7e3c5127dbc603de442322d7087683a700d50e331d4775c14a859bc673efa3",
}


@pytest.mark.parametrize("process,seed,fmt", sorted(SAMPLED_SHA256))
def test_streamed_sample_artifacts_keep_their_bytes(process, seed, fmt, tmp_path, capsys):
    argv = SAMPLED[process].split() + ["--seed", str(seed), "--format", fmt]
    out = tmp_path / f"paths.{fmt}"
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert main(argv) == 0
    stdout = capsys.readouterr().out.encode("utf-8")
    want = SAMPLED_SHA256[process, seed, fmt]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == want
    assert hashlib.sha256(stdout).hexdigest() == want


# sha256 of the gamma table artifacts as written when each lag covariance
# re-derived sigma2 and ``gamma decay`` mapped its lags on a thread pool.
GAMMA_SHA256 = {
    "gamma cov --hurst 0.75 --r 0.1":
        "6e1e4aad09bd3836283120452da5954993ad40d1931f02271d4567a984220cef",
    "gamma decay --hurst 0.75 --r 0.1":
        "5528663a774c81b6c1346855d28854295d626a0ec805293f60c098b052c7c629",
    "gamma modulus --hurst 0.75 --r 0.1":
        "70738311670c728399317ba540d5eb10f62797d4c093f94b03aa252d0f57da5b",
    "gamma modulus --hurst 0.25 --r 0.1":
        "08647a9d1c9dbb7cc046e04a0dd48e8939dd4a90900bd89c2fade508cd2ebd12",
    "gamma regbound --hurst 0.75 --r 0.1":
        "57ead3bad31869cdf6dda47b60082762479adbdf7e2524a740d045fa25e6d48c",
}


@pytest.mark.parametrize("command", sorted(GAMMA_SHA256))
def test_gamma_artifacts_keep_their_bytes(command, tmp_path):
    assert command in REQUIRED_ONLY
    out = tmp_path / "gamma.json"
    assert main(command.split() + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GAMMA_SHA256[command]


@pytest.mark.parametrize("existing", [False, True])
def test_a_render_error_leaves_no_partial_artifact(existing, tmp_path):
    out = tmp_path / "doc.json"
    if existing:
        out.write_text("earlier artifact\n", encoding="utf-8")

    def render(fh):
        fh.write("{\n")
        raise RuntimeError("renderer failed")

    with pytest.raises(RuntimeError, match="renderer failed"):
        cli._emit(argparse.Namespace(out=str(out), format="csv"), {}, render)
    assert [p.name for p in tmp_path.iterdir()] == (["doc.json"] if existing else [])
    if existing:
        assert out.read_text(encoding="utf-8") == "earlier artifact\n"


def test_an_oserror_while_writing_removes_the_temporary_file(tmp_path):
    out = tmp_path / "doc.csv"

    def render(fh):
        fh.write("t,value\n")
        raise OSError(28, "No space left on device")

    with pytest.raises(ValidationError, match="cannot write --out .*No space left on device"):
        cli._emit(argparse.Namespace(out=str(out), format=None), {}, render)
    assert list(tmp_path.iterdir()) == []


def test_an_out_that_cannot_be_written_exits_2(tmp_path, capsys):
    argv = "gamma cov --hurst 0.75 --r 0.1 --n 4 --out".split()
    (tmp_path / "file").write_text("earlier\n", encoding="utf-8")
    for out in (tmp_path, tmp_path / "file" / "x.json"):
        assert main(argv + [str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write --out {out}: ") and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["file"]
    assert (tmp_path / "file").read_text(encoding="utf-8") == "earlier\n"


# Each asks for an array numpy itself refuses at once, so a missing check
# fails the test without allocating.
@pytest.mark.parametrize("argv,asked", [
    ("sample fbm --hurst 0.75 --n 10000000000000000000 --dt 0.001",
     "--n 10000000000000000000 asks for an fGn spectrum of 39999999999999999996"),
    ("sample obm --n 10000000000000000000 --dt 0.001",
     "--n 10000000000000000000 and --paths 1 ask for paths of 10000000000000000001"),
    ("sample obm --n 8 --paths 10000000000000000000 --dt 0.001",
     "--n 8 and --paths 10000000000000000000 ask for paths of 90000000000000000000"),
    ("sample levy --hurst 0.25 --n 100000000 --dt 0.001",
     "--n 100000000 asks for a covariance of 10000000000000000"),
])
def test_an_oversized_sample_exits_2_before_allocating(argv, asked, capsys):
    assert main(argv.split()) == 2
    err = capsys.readouterr().err
    assert err == f"error: {asked} float64 values, more than {MAX_ARRAY_VALUES} (256 MiB)\n"


# Unrefused, each would allocate 270-650 MB: a lil chunk buffer of 1301 x 2^15
# values, a lil covariance of 6001^2, or bounds matrix's seven working arrays
# of 3400^2.  The stubbed computations fail the test, rather than allocate, if
# the refusal is missing.
@pytest.mark.parametrize("argv,asked", [
    ("lil --hurst 0.75 --r 0.6 --imax 1300 --paths 100000",
     "--imax 1300 and --paths 100000 ask for a chunk buffer of 42631168"),
    ("lil --hurst 0.75 --r 0.999 --imax 6000", "--imax 6000 asks for a covariance of 36012001"),
    ("bounds matrix --n 3400 --eps 0.1", "--n 3400 asks for seven n x n working arrays of 80920000"),
    ("bounds matrix --n 2190 --eps 0.1", "--n 2190 asks for seven n x n working arrays of 33572700"),
])
def test_an_oversized_lil_or_matrix_check_exits_2_before_allocating(argv, asked, monkeypatch,
                                                                     capsys):
    def unrefused(*args, **kwargs):
        pytest.fail(f"{argv} was not refused")

    monkeypatch.setattr(cli, "lil_statistic", unrefused)
    monkeypatch.setattr(almostdiag, "matrix_batch_check", unrefused)
    tracemalloc.start()
    try:
        code = main(argv.split())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: {asked} float64 values, more than {MAX_ARRAY_VALUES} (256 MiB)\n"
    assert peak < 8 * 20_000


SMALL_SAMPLE = "sample fbm --hurst 0.75 --n 8 --dt 0.125 --seed 3".split()


def test_out_through_a_symlink_replaces_its_target(tmp_path, capsys):
    main(SMALL_SAMPLE)
    want = capsys.readouterr().out
    target = tmp_path / "store" / "paths.json"
    target.parent.mkdir()
    target.write_text("earlier artifact\n", encoding="utf-8")
    link = tmp_path / "latest.json"
    link.symlink_to(target)
    assert main(SMALL_SAMPLE + ["--out", str(link)]) == 0
    assert link.is_symlink() and link.resolve() == target
    assert target.read_text(encoding="utf-8") == want
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["latest.json", "paths.json", "store"]


def test_out_to_a_device_writes_in_place(tmp_path):
    # Were /dev/null replaced by a rename, it would become a regular file
    # (as root), or the temporary file could not be made in /dev.
    before = os.stat(os.devnull)
    assert main(SMALL_SAMPLE + ["--out", os.devnull]) == 0
    after = os.stat(os.devnull)
    assert stat.S_ISCHR(after.st_mode)
    assert (after.st_ino, after.st_rdev) == (before.st_ino, before.st_rdev)


def test_out_to_a_fifo_writes_into_it(tmp_path, capsys):
    main(SMALL_SAMPLE)
    want = capsys.readouterr().out
    fifo = tmp_path / "paths.json"
    os.mkfifo(fifo)
    # Opened for reading first, so the write does not wait; the artifact
    # fits in the pipe's buffer.
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert main(SMALL_SAMPLE + ["--out", str(fifo)]) == 0
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        got = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert got.decode("utf-8") == want
    assert [p.name for p in tmp_path.iterdir()] == ["paths.json"]


def test_a_reader_that_closes_stdout_early_ends_the_call_with_exit_0():
    # The artifact is megabytes, far past the pipe's buffer, so the write
    # meets the closed read end, as under "| head -c 50".
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = "sample fbm --hurst 0.75 --n 16384 --dt 6.103515625e-05 --paths 16".split()
    proc = subprocess.Popen([sys.executable, "-m", "fbmkit.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    head = proc.stdout.read(50)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert len(head) == 50 and head.startswith(b"{")
    assert err == b""


def test_an_existing_artifact_keeps_its_permission_bits(tmp_path):
    out = tmp_path / "paths.csv"
    out.write_text("earlier artifact\n", encoding="utf-8")
    out.chmod(0o640)
    assert main(SMALL_SAMPLE + ["--out", str(out)]) == 0
    assert stat.S_IMODE(out.stat().st_mode) == 0o640
    assert out.read_text(encoding="utf-8").startswith("t,value\n")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_streaming_a_path_document_holds_one_block_at_a_time(fmt, tmp_path):
    # A 64 x 4097 document is 7.3 MB of JSON or 5.4 MB of CSV; rendered
    # whole, the two peaked at 14.6 and 29.8 MB.
    paths = sample_fbm_paths(0.75, 4096, 1.0 / 4096, make_rng(7), 64)
    times = np.arange(4097) / 4096
    artifact = cli._path_doc("sample_fbm", {}, 7, times, paths)
    args = argparse.Namespace(out=str(tmp_path / f"paths.{fmt}"), format=None)
    tracemalloc.start()
    try:
        cli._emit(args, *artifact)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_streaming_one_long_path_holds_one_piece_at_a_time(tmp_path):
    # One path of 2^17 + 1 points is 6.3 MB of JSON; formatted a row at a
    # time, the row of values and the row of times peaked at 14 MB.
    times = np.arange(2**17 + 1) / 2**17
    paths = sample_fbm_paths(0.75, 2**17, 1.0 / 2**17, make_rng(7), 1)
    artifact = cli._path_doc("sample_fbm", {}, 7, times, paths)
    args = argparse.Namespace(out=str(tmp_path / "path.json"), format=None)
    tracemalloc.start()
    try:
        cli._emit(args, *artifact)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


THREADED = [
    "gamma decay --hurst 0.75 --r 0.5 --n 12",
    # Three chunks of 2^15 paths each, the last one partial.
    "lil --hurst 0.75 --r 0.5 --paths 70000",
    "arbitrage an-prob --hurst 0.75 --r 0.1 --alpha 0.5 --p 0.5 --n 16 --paths 70000",
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
    monkeypatch.setattr(cli, "gamma_cov",
                        lambda cfg, n_lags: np.array([bad if d == 2 else 1.0 for d in range(n_lags)]))
    out = tmp_path / "cov.json"
    assert main(f"gamma cov --hurst 0.75 --r 0.1 --n 3 --out {out}".split()) == 3
    assert not out.exists()


def test_non_finite_report_values_exit_3_and_write_nothing(monkeypatch, tmp_path):
    report = ExperimentReport(kind="union_bound_ledger", config={}, seed=0,
                              trends={"p_bound": [0.5, math.nan]})
    monkeypatch.setattr(cli, "union_bound_ledger", lambda *inputs: report)
    out = tmp_path / "ledger.json"
    ledger = next(c for c in REQUIRED_ONLY if c.startswith("arbitrage ledger"))
    assert main(ledger.split() + ["--out", str(out)]) == 3
    assert not out.exists()


@pytest.mark.parametrize("command", [
    "bounds subgauss --theta 0.5 --x inf",
    "sample fbm --hurst 0.75 --n 4 --dt inf",
    "sample obm --n 4 --dt 0.1 --t0 nan",
    "drift kernel --hurst 0.75 --v 0.5,nan",
    "arbitrage ledger --hurst 0.75 --r 0.1 --alpha 0.5 --p 0.5 --rtilde 0.05 --pan 4=nan",
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


# Inputs whose result leaves the float range.  A refused input exits 2 with a
# message naming its flag; a result that cannot be represented exits 3; both
# write nothing.
@pytest.mark.parametrize("command,code,message", [
    (LEDGER.replace("4=0.44", "1100=0.1"), 3, "at n = 1100 exceeds the float range"),
    (LEDGER.replace("0.05 --pan 4=0.44", "1e-300 --pan 4=0.1"), 3, "at n = 4 exceeds the float range"),
    (LEDGER.replace("4=0.44", "1023=0.1"), 3, "at n = 1023 exceeds the float range"),
    ("arbitrage threshold --hurst 0.75 --alpha 0.5 --alpha-prime 0.4999999 --p 0.5"
     " --p-prime 0.4", 3, "alpha - alpha_prime = 1e-07"),
    ("gamma regbound --hurst 0.5000001 --r 0.1", 3, "c_b = e^c_a exceeds the float range"),
    ("sample fbm --hurst 0.75 --n 64 --dt 1e300", 2, "--dt"),
    ("sample fbm --hurst 0.75 --n 4 --dt 1e-250", 2, "--dt"),
    ("sample levy --hurst 0.75 --n 3 --dt 1e-250", 2, "--dt"),
    ("gamma regbound --hurst 1e-300 --r 0.1", 2, "hurst"),
    ("drift kernel --hurst 0.75 --dt 1e-300", 2, "--dt"),
    ("invert --hurst 0.75 --dt 1e-300", 2, "--dt"),
    ("drift kernel --hurst 0.75 --v 1e300", 2, "--v 1e+300 is too large"),
    ("drift regression --hurst 0.9 --v 0.5,1e300", 2, "--v 1e+300 is too large"),
    ("drift validate --hurst 0.9 --v 1e300", 2, "--v 1e+300 is too large"),
    ("drift obm --hurst 0.75 --v 1e300", 2, "--v 1e+300 is too large"),
])
def test_past_the_float_range_exits_2_or_3_and_writes_nothing(command, code, message,
                                                               tmp_path, capsys):
    out = tmp_path / "artifact.json"
    assert main(command.split() + ["--out", str(out)]) == code
    assert message in capsys.readouterr().err
    assert not out.exists()


# Just inside the range, dt^(2H) = 1e-300 still scales the draws: no zeros.
@pytest.mark.parametrize("process", ["fbm", "levy"])
def test_a_tiny_dt_inside_the_float_range_draws_nonzero_values(process, tmp_path):
    out = tmp_path / "artifact.json"
    argv = f"sample {process} --hurst 0.75 --n 4 --dt 1e-200 --paths 3 --out {out}".split()
    assert main(argv) == 0
    values = np.array(json.loads(out.read_text(encoding="utf-8"))["paths"])
    assert values.shape == (3, 5) and np.all(values[:, 0] == 0.0)
    assert np.all(values[:, 1:] != 0.0) and np.all(np.abs(values) < 1e-140)


# A tail bound whose exponent leaves the float range is exactly 0, its limit.
@pytest.mark.parametrize("command,bound", [
    ("gamma regbound --hurst 0.75 --r 0.1 --tmax 1e-310", 0),
    ("bounds subgauss --theta 0.5 --x 1e200", [0]),
    ("bounds subgauss --theta 0.0028177639 --x 1e154,1e200", [0, 0]),
])
def test_a_tail_past_the_float_range_is_0(command, bound, tmp_path):
    out = tmp_path / "artifact.json"
    assert main(command.split() + ["--out", str(out)]) == 0
    assert json.loads(out.read_text(encoding="utf-8"))["values"]["bound"] == bound


FINITE = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)
# The unit interval, where most of these flags are in range, gets half the draws.
FLAG_VALUE = st.one_of(st.floats(0.0, 1.0, allow_subnormal=True), FINITE)
FLOAT_FLAGS = {
    "arbitrage threshold": ("--hurst", "--alpha", "--alpha-prime", "--p", "--p-prime"),
    "arbitrage ledger": ("--hurst", "--r", "--alpha", "--p", "--rtilde"),
    "gamma regbound": ("--hurst", "--r", "--tmax"),
    "bounds subgauss": ("--theta",),
}


def run_main(argv: list[str]) -> tuple[int, str, str]:
    """``main(argv)``'s exit code and what it wrote to stdout and to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", sorted(FLOAT_FLAGS))
@given(data=st.data())
def test_every_finite_input_exits_0_2_or_3(command, data):
    flags = [(flag, repr(data.draw(FLAG_VALUE, label=flag))) for flag in FLOAT_FLAGS[command]]
    if command == "arbitrage ledger":
        pairs = data.draw(st.lists(st.tuples(st.integers(1, 5000), FLAG_VALUE), min_size=1,
                                   max_size=3), label="--pan")
        flags.append(("--pan", ",".join(f"{n}={v!r}" for n, v in pairs)))
    elif command == "gamma regbound":
        flags.append(("--i", str(data.draw(st.integers(0, 3000), label="--i"))))
    elif command == "bounds subgauss":
        xs = data.draw(st.lists(FLAG_VALUE, min_size=1, max_size=3), label="--x")
        flags.append(("--x", ",".join(map(repr, xs))))
    joined = run_main(command.split() + [f"{flag}={value}" for flag, value in flags])
    code, out, _ = joined
    assert code in (0, 2, 3)
    if code == 0:
        assert_schema_shaped(out)
    # Bare, "--x -1e-05,0.5" is the value "--x=-1e-05,0.5" is: the same code,
    # output and messages.
    assert run_main(command.split() + [tok for flag in flags for tok in flag]) == joined


# argparse's own test reads "-2e-3" as a flag; every float spelling is a value.
@pytest.mark.parametrize("t0", ["-2e-3", "-2E-3", "-.2e-2", "-0.2e-2", "-0.002", "-2.e-3"])
def test_a_negative_value_in_any_float_spelling_is_a_value(t0):
    joined = run_main(["sample", "obm", "--n", "4", "--dt", "1e-3", "--t0=-0.002"])
    assert joined[0] == 0
    assert run_main(["sample", "obm", "--n", "4", "--dt", "1e-3", "--t0", t0]) == joined


THRESHOLD = "arbitrage threshold --hurst 0.75 --alpha 0.5 --p 0.5 --p-prime 0.4"


# A key is a flag of the subcommand without its dashes, in either case and
# with "_" or "-" between words; no other key is taken.
@pytest.mark.parametrize("text,code", [
    ("alpha_prime = 0.4\n", 0),
    ("alpha-prime=0.4\n", 0),
    ("# the second exponent\nALPHA_PRIME=0.4  # as typed\n", 0),
    ("bogus = 1\n", 2),
    ("alpha_pri = 0.4\n", 2),  # an abbreviation
    ("umax = 600\n", 2),  # a flag of another subcommand
    ("help = 1\n", 2),  # a flag that takes no value
    ("alpha_prime 0.4\n", 2),
])
def test_config_keys(text, code, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(text, encoding="utf-8")
    out, typed = tmp_path / "from_config.json", tmp_path / "typed.json"
    assert main(THRESHOLD.split() + ["--config", str(config), "--out", str(out)]) == code
    assert out.exists() == (code == 0)
    if code == 0:
        assert main(THRESHOLD.split() + ["--alpha-prime", "0.4", "--out", str(typed)]) == 0
        assert out.read_bytes() == typed.read_bytes()


def test_typed_flags_beat_the_config_file(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("n = 16\ndt = 0.5\npaths = 3\n", encoding="utf-8")
    argv = "sample fbm --hurst 0.75 --n 8 --dt 0.1 --seed 5 --out".split()
    merged, typed = tmp_path / "merged.json", tmp_path / "typed.json"
    assert main(argv[:2] + [f"--config={config}"] + argv[2:] + [str(merged)]) == 0
    assert main(argv + [str(typed), "--paths", "3"]) == 0
    assert merged.read_bytes() == typed.read_bytes()
    assert json.loads(merged.read_text(encoding="utf-8"))["config"]["paths"] == 3


@pytest.mark.parametrize("tail", [["--config", "missing.cfg"], ["--config"]])
def test_unreadable_config_exits_2_and_writes_nothing(tail, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "artifact.json"
    argv = f"sample fbm --hurst 0.75 --n 4 --dt 0.1 --out {out}".split() + tail
    assert main(argv) == 2
    assert not out.exists()


# Past windows 1e12 deep put a time near -1e-7 against one near -1e12: the
# covariance behind the draw cancelled there, and the prediction's rms came
# out 1.8e6 where the default depth gives 0.9.
@pytest.mark.parametrize("seed", [0, 1])
def test_a_deep_window_predicts_at_the_scale_of_the_default_one(seed, tmp_path):
    def rms(umax):
        out = tmp_path / f"kernel_{umax}.json"
        argv = f"drift kernel --hurst 0.9 --umax {umax} --paths 4 --seed {seed} --out {out}"
        assert main(argv.split()) == 0
        paths = json.loads(out.read_text(encoding="utf-8"))["paths"]
        return math.sqrt(np.mean(np.square(paths)))

    assert 0.5 <= rms("1e12") / rms("1e7") <= 2.0


def test_invert_writes_the_rel_l2_of_the_driver_roundtrip(tmp_path):
    out = tmp_path / "invert.json"
    assert main(f"invert --hurst 0.25 --paths 4 --seed 7 --out {out}".split()) == 0
    values = json.loads(out.read_text(encoding="utf-8"))["values"]
    kspec = DriftKernelSpec(ctx=make_context(0.25))
    w_rec, w_true, t = driver_roundtrip(kspec, inversion_grid(1.0 / 512), make_rng(7), 4)
    assert values["rel_l2"] == rel_l2(w_rec, w_true)
    assert values["recovery_times"] == t.tolist()


# -- the parser each call builds -------------------------------------------------

def parse_through_main(argv, lazy):
    """``main``'s exit code, stdout and stderr, and the namespaces it parsed.

    With ``lazy`` the call builds the parser as ``main`` does, from its argv;
    without, it builds the whole tree.  No handler runs: each parsed
    namespace is recorded and a no-op handler stands in.
    """
    parsed = []
    parse_args, build_parser = cli._Parser.parse_args, cli.build_parser

    def recording_parse(self, args=None, namespace=None):
        ns = parse_args(self, args, namespace)
        parsed.append(dict(vars(ns)))
        ns.handler = lambda _args: 0
        return ns

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli._Parser, "parse_args", recording_parse)
        if not lazy:
            mp.setattr(cli, "build_parser", lambda argv=None: build_parser())
        out, err = io.StringIO(), io.StringIO()
        mp.setattr("sys.stdout", out)
        mp.setattr("sys.stderr", err)
        code = main(argv)
    return code, out.getvalue(), err.getvalue(), parsed


def parser_corpus():
    """Argvs that exercise every leaf, every help text and each way a parse fails."""
    words = [w for w, _leaf in leaf_parsers(cli.build_parser())]
    groups = sorted({w[:1] for w in words if len(w) > 1})
    cov = ["gamma", "cov", "--hurst", "0.3", "--r", "0.1"]
    return [
        *(c.split() for c in REQUIRED_ONLY),
        ["--help"],
        *([*g, "--help"] for g in groups),
        *([*w, "--help"] for w in words),
        [],
        ["bogus"],
        ["gamma"],
        ["gamma", "bogus"],
        ["cov", "--hurst", "0.3"],
        ["--hurst", "0.3", "gamma", "cov"],
        ["--hurst=0.3", "gamma", "cov", "--r", "0.1"],
        ["gamma", "--hurst=0.3", "cov", "--r", "0.1"],
        ["bounds", "--n=4", "matrix", "--eps", "0.1"],
        cov + ["--bogus", "1"],
        ["gamma", "cov", "--hur", "0.3", "--r", "0.1"],
        ["gamma", "cov", "--r", "0.1"],
        ["gamma", "cov", "--hurst", "0.3", "--r", "x"],
        cov + ["--config", "good.cfg"],
        cov + ["--config", "bad.cfg"],
    ]


@pytest.mark.parametrize("argv", parser_corpus(), ids=" ".join)
def test_the_lazy_parser_parses_like_the_full_one(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "good.cfg").write_text("n = 4\n", encoding="utf-8")
    (tmp_path / "bad.cfg").write_text("umax = 600\n", encoding="utf-8")
    lazy = parse_through_main(argv, lazy=True)
    assert lazy == parse_through_main(argv, lazy=False)
    assert lazy[0] != 1 and (lazy[0] == 0 or lazy[2])


# The structural twin of the set-up time the lazy parser saves: a call's parser
# holds the arguments of its own leaf and of no other.
def test_a_call_builds_the_arguments_of_its_leaf_alone():
    parser = cli.build_parser(["gamma", "cov", "--hurst", "0.3"])
    built = [words for words, leaf in leaf_parsers(parser)
             if any(not isinstance(a, argparse._HelpAction) for a in leaf._actions)]
    assert built == [("gamma", "cov")]
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(commands.choices) == ["sample", "drift", "invert", "gamma", "bounds", "lil",
                                      "arbitrage", "selftest"]
    for name, command in commands.choices.items():
        groups = [a for a in command._actions if isinstance(a, argparse._SubParsersAction)]
        if name == "gamma":
            assert list(groups[0].choices) == ["cov", "decay", "modulus", "regbound"]
        else:
            assert groups == []


WINDOW_COMMANDS = ["drift kernel", "drift obm", "drift regression", "drift validate", "invert"]


# --dt 1e-4 asks for a window of about 20 000 times: a 3 GiB covariance.  It is
# refused before even the window's own times are allocated.
@pytest.mark.parametrize("command", [pytest.param(c, id=f"{c}-0.0001") for c in WINDOW_COMMANDS])
def test_a_window_past_the_point_cap_exits_2_before_allocating_it(command, tmp_path, capsys):
    out = tmp_path / "artifact.json"
    argv = f"{command} --hurst 0.75 --dt 1e-4 --out {out}".split()
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert f"more than {WINDOW_MAX_POINTS}: raise --dt" in err
    assert peak < 8 * 20_000
    assert not out.exists()


def traced_main(argv):
    """``main(argv)``'s exit code and its peak of traced memory in bytes."""
    tracemalloc.start()
    try:
        return main(argv), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# The route checks never build their window's covariance.  drift validate at
# --dt 2^-11 has 4346 times, whose joint (W, Z) covariance would be 604 MB and
# the window's own 151 MB; invert at --dt 0.000355 has 5779 times, 16 from the
# cap.  Measured peaks: 6.7 and 3.9 MB.
@pytest.mark.parametrize("command,dt", [("drift validate", 2.0**-11), ("invert", 0.000355)])
def test_a_fine_window_under_the_cap_runs_in_a_few_megabytes(command, dt, tmp_path):
    out = tmp_path / "artifact.json"
    code, peak = traced_main(f"{command} --hurst 0.75 --dt {dt} --out {out}".split())
    assert code in (0, 3)
    assert peak < 16 * 2**20


# Measured peaks 3.0 and 2.0 MB, where factoring the joint covariance took
# 11.7 and 13.2 MB.
@pytest.mark.parametrize("command", ["drift validate --hurst 0.75", "invert --hurst 0.25"])
def test_a_default_route_check_peaks_under_4_mb(command, tmp_path):
    code, peak = traced_main(f"{command} --out {tmp_path / 'artifact.json'}".split())
    assert code == 0
    assert peak < 4 * 2**20


def test_drift_validate_at_one_half_writes_an_exact_zero_gap(tmp_path):
    # Both routes are zero maps: the gap is 0, not jitter noise.
    out = tmp_path / "validate.json"
    assert main(f"drift validate --hurst 0.5 --seed 7 --out {out}".split()) == 0
    values = json.loads(out.read_text(encoding="utf-8"))["values"]
    assert values["rel_l2"] == 0.0 and values["prediction_scale"] == 0.0


def test_invert_at_one_half_recovers_the_process_itself(tmp_path):
    # The driver is the process, so the two images draw one value twice;
    # the factor's jitter on the singular 32 x 32 covariance is the gap.
    out = tmp_path / "invert.json"
    assert main(f"invert --hurst 0.5 --seed 7 --out {out}".split()) == 0
    assert json.loads(out.read_text(encoding="utf-8"))["values"]["rel_l2"] <= 1.0e-5


def window_argvs():
    """Every ``REQUIRED_ONLY`` call and every benchmarked call that builds a past window."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    argvs = [c.split() for c in REQUIRED_ONLY]
    for workload in workloads.WORKLOADS.values():
        argvs += [list(call.argv) for call in workload.calls(0)]
    return [a for a in argvs if a[0] in ("drift", "invert")]


@pytest.mark.parametrize("argv", window_argvs(), ids=" ".join)
def test_every_required_and_benchmarked_window_is_under_the_cap(argv):
    args = cli.build_parser(argv).parse_args(argv)
    assert inversion_grid(args.dt, u_deep=args.umax).size <= WINDOW_MAX_POINTS

"""Experiment reports: the document, its schema, and the CSV twin the CLI writes.

Every artifact schema is a valid 2020-12 schema, and ``check_document``
raises on a broken document the error ``jsonschema.validate`` raises.  The
95% Wilson interval's exact coverage, averaged over p, is within a point of
95% at n = 20, 100 and 1000.
"""

import csv
import io
import json

import jsonschema
import numpy as np
import pytest
from scipy import stats

from fbmkit.acceptance import ACCEPTANCE_SCHEMA
from fbmkit.cli import PATH_SCHEMA, TABLE_SCHEMA, _report_doc
from fbmkit.errors import ValidationError
from fbmkit.reports import (
    REPORT_SCHEMA,
    Estimate,
    ExperimentReport,
    check_document,
    validate_report,
    wilson_interval,
)
from fbmkit.serialize import canonical_json_dumps


def sample_report() -> ExperimentReport:
    report = ExperimentReport(
        kind="demo",
        config={"hurst": np.float64(0.75), "n": np.int64(8), "flag": np.True_,
                "grid": np.array([0.5, 1.0]), "label": "x", "none": None},
        seed=3,
        trends={"series": [1.5, None, True, False, 2]},
    )
    report.add("p, with comma", 0.25, 0.125, 0.375, 100)
    report.add('say "hi"', -1.0, -2.0, 0.0, 7)
    return report


def test_as_dict_round_trips_through_the_schema():
    doc = sample_report().as_dict()
    validate_report(doc)
    back = json.loads(canonical_json_dumps(doc))
    validate_report(back)
    assert back == doc
    assert doc["config"] == {"hurst": 0.75, "n": 8, "flag": True,
                             "grid": [0.5, 1.0], "label": "x", "none": None}
    assert type(doc["config"]["flag"]) is bool
    assert type(doc["config"]["n"]) is int


def test_plain_accepts_numpy_booleans():
    report = ExperimentReport(kind="demo", config={"ok": np.bool_(False)}, seed=0)
    assert report.as_dict()["config"] == {"ok": False}


def test_config_of_unknown_type_is_rejected():
    report = ExperimentReport(kind="demo", config={"what": object()}, seed=0)
    with pytest.raises(ValidationError, match="cannot echo"):
        report.as_dict()


def test_schema_rejects_a_malformed_document():
    doc = sample_report().as_dict()
    doc["estimates"][0]["n_samples"] = -1
    with pytest.raises(ValidationError, match="schema"):
        validate_report(doc)
    del doc["estimates"]
    with pytest.raises(ValidationError, match="schema"):
        validate_report(doc)


def test_csv_quotes_names_and_renders_blanks_and_booleans():
    _, render_csv = _report_doc(sample_report())
    buf = io.StringIO()
    render_csv(buf)
    text = buf.getvalue()
    lines = text.splitlines()
    assert lines[0] == "series,index,value,ci_low,ci_high,n_samples"
    assert lines[1].startswith('"p, with comma",0,')
    assert lines[2].startswith('"say ""hi""",0,')
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[1][0] == "p, with comma"
    assert rows[2][0] == 'say "hi"'
    trend = [row for row in rows[1:] if row[0] == "series"]
    assert [row[2] for row in trend] == ["1.5", "", "true", "false", "2"]
    assert all(row[3:] == ["", "", ""] for row in trend)


def test_estimate_with_inverted_interval_raises():
    with pytest.raises(ValidationError):
        Estimate("bad", 0.5, 0.6, 0.4, 10)
    report = ExperimentReport(kind="demo", config={}, seed=0)
    with pytest.raises(ValidationError):
        report.add("bad", 0.5, 0.6, 0.4, 10)


def test_get_finds_an_estimate_and_raises_key_error_when_missing():
    report = sample_report()
    assert report.get("p, with comma").value == 0.25
    with pytest.raises(KeyError):
        report.get("absent")


SCHEMAS = {
    "path": PATH_SCHEMA,
    "table": TABLE_SCHEMA,
    "report": REPORT_SCHEMA,
    "acceptance": ACCEPTANCE_SCHEMA,
}


# check_document skips the metaschema check that jsonschema.validate runs on
# every call, so each schema is checked here instead, with the validator
# validate would pick (REPORT_SCHEMA names no "$schema": the latest draft).
@pytest.mark.parametrize("name", SCHEMAS)
def test_each_artifact_schema_is_a_valid_2020_12_schema(name):
    schema = SCHEMAS[name]
    assert jsonschema.validators.validator_for(schema) is jsonschema.Draft202012Validator
    jsonschema.Draft202012Validator.check_schema(schema)


PATH_DOC = {"kind": "sample_fbm", "config": {}, "seed": 0, "times": [0.0], "paths": [[0.0]]}
TABLE_DOC = {"kind": "gamma_cov", "config": {}, "values": {"cov": [1.0, 0.5], "ok": True}}
CRITERION = {"number": 1, "name": "c", "passed": True, "expected_failure": False,
             "detail": "", "metrics": {}}
ACCEPTANCE_DOC = {"kind": "acceptance", "seed": 0, "threads": 1, "criteria": [CRITERION]}


def broken(doc, **changes):
    """``doc`` with ``changes`` applied; a value of None drops the key."""
    out = {**doc, **changes}
    return {k: v for k, v in out.items() if v is not None}


BROKEN = [
    ("path", broken(PATH_DOC, paths=None)),
    ("path", broken(PATH_DOC, extra=1)),
    ("path", broken(PATH_DOC, times=[0.0, "1"])),
    ("path", broken(PATH_DOC, seed=1.5, paths=[[0.0], 2.0])),
    ("table", broken(TABLE_DOC, kind=None)),
    ("table", broken(TABLE_DOC, values={"cov": {"a": 1}})),
    ("table", broken(TABLE_DOC, values={"cov": [1.0, [2.0]]}, kind=3)),
    ("report", broken(sample_report().as_dict(), kind="")),
    ("report", broken(sample_report().as_dict(), estimates=[{"name": "x"}])),
    ("report", broken(sample_report().as_dict(), trends={"t": [{}]}, wall_time=-1.0)),
    ("acceptance", broken(ACCEPTANCE_DOC, kind="other")),
    ("acceptance", broken(ACCEPTANCE_DOC, criteria=[])),
    ("acceptance", broken(ACCEPTANCE_DOC, criteria=[{**CRITERION, "number": 12}], threads=0)),
]


@pytest.mark.parametrize("name,doc", BROKEN)
def test_check_document_raises_what_validate_raises(name, doc):
    schema = SCHEMAS[name]
    with pytest.raises(jsonschema.ValidationError) as want:
        jsonschema.validate(doc, schema)
    with pytest.raises(jsonschema.ValidationError) as got:
        check_document(doc, jsonschema.Draft202012Validator(schema))
    assert got.value.message == want.value.message
    assert list(got.value.path) == list(want.value.path)


@pytest.mark.parametrize("name,doc", [("path", PATH_DOC), ("table", TABLE_DOC),
                                      ("report", sample_report().as_dict()),
                                      ("acceptance", ACCEPTANCE_DOC)])
def test_check_document_passes_a_good_document(name, doc):
    jsonschema.validate(doc, SCHEMAS[name])
    check_document(doc, jsonschema.Draft202012Validator(SCHEMAS[name]))


# Exact coverage of the 95% Wilson interval at p: the binomial mass of the
# hit counts whose interval holds p, a finite sum with no seed.  Averaged over
# p = 0.001, ..., 0.999 it reads 0.9532, 0.9510 and 0.9498 at n = 20, 100 and
# 1000; the minimum (0.85, 0.90, 0.92) is reported, not gated, as the Wilson
# interval's coverage dips below its level near p = 0 and 1.  With z = 1.5 in
# place of 1.96 the mean falls to about 0.87.
@pytest.mark.parametrize("n", [20, 100, 1000])
def test_wilson_interval_covers_95_percent_on_average(n, record_property):
    lo, hi = np.array([wilson_interval(k, n) for k in range(n + 1)]).T
    p = np.arange(1, 1000)[:, None] / 1000
    pmf = stats.binom.pmf(np.arange(n + 1), n, p)
    coverage = np.sum(pmf, axis=1, where=(lo <= p) & (p <= hi))
    record_property("min_coverage", float(coverage.min()))
    assert 0.94 <= coverage.mean() <= 0.96, (coverage.mean(), coverage.min())

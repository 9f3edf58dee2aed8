"""Experiment reports: the document, its schema, and the CSV twin the CLI writes.

Every artifact schema is a valid 2020-12 schema, and ``check_document``
raises on a broken document the error ``jsonschema.validate`` raises.  Its
walk decides validity as ``Draft202012Validator.is_valid`` does, over
mutated documents of each schema, and refuses a keyword it does not know;
the artifact schemas hold none.
The 95% Wilson interval's exact coverage, averaged over p, is within a point
of 95% at n = 20, 100 and 1000.
"""

import copy
import csv
import io
import json
import math

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from fbmkit import reports
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
        check_document(doc, schema)
    assert got.value.message == want.value.message
    assert list(got.value.path) == list(want.value.path)


# Good documents with every optional field and nested values: the bases
# the walk's oracle test mutates.
GOOD = {
    "path": {**PATH_DOC, "times": [0.0, 0.5], "paths": [[0.0, 1.0], [2.0, -1.0]]},
    "table": {**TABLE_DOC, "seed": 3, "values": {"cov": [1.0, 0.5], "n": 4, "ok": True,
                                                 "label": "x", "none": None}},
    "report": sample_report().stamp(0.0).as_dict(),
    "acceptance": {**ACCEPTANCE_DOC, "created_utc": "",
                   "criteria": [{**CRITERION, "runtime": 0.5, "metrics": {"z": 1.5, "ok": False}},
                                {**CRITERION, "number": 11}]},
}


@pytest.mark.parametrize("name,doc", [("path", PATH_DOC), ("table", TABLE_DOC),
                                      ("report", sample_report().as_dict()),
                                      ("acceptance", ACCEPTANCE_DOC), *GOOD.items()])
def test_check_document_passes_a_good_document(name, doc):
    jsonschema.validate(doc, SCHEMAS[name])
    check_document(doc, SCHEMAS[name])


# Stand-ins for any value: every JSON type, integral and fractional floats,
# non-finite floats, nested arrays, and numbers at and past the schemas'
# minimum and maximum (0 for counts and times, 1 and 11 for a criterion).
VALUES = [True, False, 0, 1, -1, 11, 12, 0.0, -0.0, 1.0, 11.0, 0.5, 11.5, -0.5,
          math.nan, math.inf, -math.inf, None, "", "x", "acceptance",
          [], [1.0], [[1.0]], [1.0, "a", None, True], [{}], {}, {"a": 1.0}, {"a": [2]}]
KEYS = sorted({"extra", *(key for doc in GOOD.values() for key in doc),
               *REPORT_SCHEMA["properties"]["estimates"]["items"]["properties"],
               *CRITERION, "runtime"})


def places(node):
    """Every ``(container, key)`` inside ``node``, at any depth."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        return []
    return [place for key, value in items for place in [(node, key), *places(value)]]


@st.composite
def mutated(draw, doc):
    """``doc`` with one to three keys dropped or added, or values swapped."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        spots = places(doc)
        value = copy.deepcopy(draw(st.sampled_from(VALUES)))
        action = draw(st.sampled_from(["swap", "drop", "add"] if spots else ["add"]))
        if action == "add":
            into = draw(st.sampled_from([doc, *(c[k] for c, k in spots
                                                if isinstance(c[k], (dict, list)))]))
            if isinstance(into, dict):
                into[draw(st.sampled_from(KEYS))] = value
            else:
                into.append(value)
            continue
        container, key = draw(st.sampled_from(spots))
        if action == "swap":
            container[key] = value
        else:
            del container[key]
    return doc


@pytest.mark.parametrize("name", SCHEMAS)
@settings(max_examples=200)
@given(data=st.data())
def test_the_walk_decides_validity_as_jsonschema_does(name, data):
    schema = SCHEMAS[name]
    doc = data.draw(mutated(GOOD[name]))
    assert reports._fits(doc, schema) == jsonschema.Draft202012Validator(schema).is_valid(doc)


# One keyword at a time, so each rule is met by every kind of value: a bool
# is no number, an integral float is an integer, nan passes a bound and inf
# does not, and a string ``const`` equals only that string.
KEYWORD_SCHEMAS = [
    *({"type": t} for t in ["object", "array", "string", "boolean", "null", "number", "integer"]),
    {"type": ["number", "string", "boolean", "null", "array"]},
    *({"const": value} for value in VALUES if isinstance(value, str)),
    {"minimum": 0}, {"minimum": 1}, {"maximum": 11}, {"minItems": 1}, {"minLength": 1},
    {"required": ["a"]}, {"properties": {"a": {"type": "number"}}},
    {"additionalProperties": False}, {"additionalProperties": {"type": "array"}},
    {"properties": {"a": True}, "additionalProperties": False},
    {"items": {"type": "number"}}, {"items": {"items": {"type": "integer"}}},
]


@pytest.mark.parametrize("schema", KEYWORD_SCHEMAS, ids=repr)
def test_each_keyword_decides_as_jsonschema_does(schema):
    validator = jsonschema.Draft202012Validator(schema)
    for doc in VALUES:
        assert reports._fits(doc, schema) == validator.is_valid(doc), doc


def subschemas(schema):
    """``schema`` and every schema the walk can reach inside it."""
    if isinstance(schema, bool):
        return []
    inner = [*schema.get("properties", {}).values(),
             *(schema[key] for key in ("additionalProperties", "items") if key in schema)]
    return [schema, *(sub for node in inner for sub in subschemas(node))]


# The walk meets only the keywords on a document's path, so a keyword it
# does not know must be kept out of every branch, reached or not.
@pytest.mark.parametrize("name", SCHEMAS)
def test_each_artifact_schema_holds_only_keywords_the_walk_knows(name):
    for schema in subschemas(SCHEMAS[name]):
        assert set(schema) <= set(reports._KEYWORDS), schema
        assert isinstance(schema.get("const", ""), str), schema


@pytest.mark.parametrize("schema,doc", [
    ({**TABLE_SCHEMA, "maxProperties": 3}, TABLE_DOC),
    ({"type": "object", "properties": {"a": {"type": "string", "pattern": "^x"}}}, {"a": "y"}),
    ({"type": "array", "items": {"type": "object", "additionalProperties": {"enum": [1]}}},
     [{"b": 2}]),
])
def test_the_walk_refuses_a_keyword_it_meets_and_does_not_know(schema, doc):
    with pytest.raises(KeyError):
        check_document(doc, schema)


def test_a_walk_that_rejects_a_valid_document_raises(monkeypatch):
    monkeypatch.setattr(reports, "_fits", lambda doc, schema: False)
    with pytest.raises(RuntimeError, match="jsonschema's Draft202012Validator accepts"):
        check_document(PATH_DOC, PATH_SCHEMA)


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

"""Experiment reports: the document, its schema, and the CSV twin the CLI writes."""

import csv
import io
import json

import numpy as np
import pytest

from fbmkit.cli import _report_doc
from fbmkit.errors import ValidationError
from fbmkit.reports import Estimate, ExperimentReport, validate_report
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

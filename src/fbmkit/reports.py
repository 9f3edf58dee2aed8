"""Experiment report containers: the document an experiment returns.

An :class:`ExperimentReport` bundles a config echo, the RNG seed, named
estimates with confidence intervals, and trend arrays.  Its document
(:meth:`ExperimentReport.as_dict`, checked against :data:`REPORT_SCHEMA`)
holds plain types only, so identical runs build identical documents up to
the volatile wall time and timestamp, which the experiment fills in with
:meth:`ExperimentReport.stamp`.  This module renders no text: the CLI
writes the document as canonical JSON, or as its flat CSV twin for
plotting, in ``cli._emit``.

Every artifact document, report or not, passes :func:`check_document`
against its schema.  A short walk over the keywords the artifact schemas
use decides validity, so a run that writes good documents never executes
jsonschema: the module-level ``jsonschema`` is bound lazily and runs on
first use, which is building the error of a violation.
"""

from __future__ import annotations

import importlib.util
import math
import numbers
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

__all__ = [
    "Estimate",
    "ExperimentReport",
    "REPORT_SCHEMA",
    "check_document",
    "utc_now",
    "validate_report",
    "wilson_interval",
]

# Standard normal quantile of the two-sided 95% intervals.
_Z95 = 1.96


def _lazy_module(name: str):
    """The module ``name``, whose code runs on its first attribute access."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


# About 60 ms of import and 4 MB of memory, paid only to report a violation.
jsonschema = _lazy_module("jsonschema")


def utc_now() -> str:
    """The current UTC time to the second, as every ``created_utc`` field holds it."""
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def wilson_interval(hits: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion (never collapses at 0)."""
    if n <= 0:
        raise ValidationError(f"sample count must be positive, got {n}")
    if not (0 <= hits <= n):
        raise ValidationError(f"hits must lie in [0, {n}], got {hits}")
    z = _Z95
    phat = hits / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2.0 * n)) / denom
    half = (z / denom) * math.sqrt(phat * (1.0 - phat) / n + z * z / (4.0 * n * n))
    # clamp to [0, 1] and guarantee phat inside despite roundoff
    return min(max(0.0, center - half), phat), max(min(1.0, center + half), phat)


@dataclass(frozen=True)
class Estimate:
    """A named scalar estimate with a confidence interval."""

    name: str
    value: float
    ci_low: float
    ci_high: float
    n_samples: int

    def __post_init__(self) -> None:
        if not (self.ci_low <= self.ci_high):
            raise ValidationError(
                f"estimate {self.name!r}: ci_low {self.ci_low} > ci_high {self.ci_high}"
            )

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "value": float(self.value),
            "ci_low": float(self.ci_low),
            "ci_high": float(self.ci_high),
            "n_samples": int(self.n_samples),
        }


@dataclass
class ExperimentReport:
    """Config echo + seed + estimates + trend arrays, as one plain document."""

    kind: str
    config: dict
    seed: int
    estimates: list[Estimate] = field(default_factory=list)
    trends: dict = field(default_factory=dict)
    wall_time: float = 0.0
    created_utc: str = ""

    def add(self, name: str, value: float, ci_low: float, ci_high: float,
            n_samples: int) -> None:
        self.estimates.append(Estimate(name, float(value), float(ci_low),
                                       float(ci_high), int(n_samples)))

    def stamp(self, start: float) -> "ExperimentReport":
        """Fill the volatile fields and return the report.

        ``wall_time`` is the seconds since ``start``, a ``time.perf_counter()``
        reading; ``created_utc`` is the current time.
        """
        self.wall_time = time.perf_counter() - start
        self.created_utc = utc_now()
        return self

    def get(self, name: str) -> Estimate:
        for est in self.estimates:
            if est.name == name:
                return est
        raise KeyError(name)

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "config": _plain(self.config),
            "seed": int(self.seed),
            "estimates": [e.as_dict() for e in self.estimates],
            "trends": _plain(self.trends),
            "wall_time": float(self.wall_time),
            "created_utc": self.created_utc,
        }


def _plain(obj):
    """Recursively convert to canonical-JSON-compatible plain types."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)) or isinstance(obj, np.ndarray):
        return [_plain(v) for v in list(obj)]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, str) or obj is None:
        return obj
    if isinstance(obj, (int,)) or hasattr(obj, "__index__"):
        return int(obj)
    if isinstance(obj, float) or isinstance(obj, np.floating):
        return float(obj)
    raise ValidationError(f"cannot echo config value of type {type(obj).__name__}")


def check_document(doc: dict, schema: dict) -> None:
    """Raise the error ``jsonschema.validate(doc, schema)`` would raise, if any.

    Validity is decided by a walk with jsonschema's Draft 2020-12 semantics
    for the keywords the artifact schemas use (:data:`_KEYWORDS`); a keyword
    the walk meets and does not know raises ``KeyError``, and the tests
    check that the artifact schemas hold no other keyword at any depth.
    Only on a violation is ``Draft202012Validator(schema)`` built, and its
    best-matching error raised, so the message and path are jsonschema's
    own; should jsonschema find no error, the two disagree and
    ``RuntimeError`` is raised.  ``validate`` also runs ``check_schema``;
    the schemas are constants, checked by the tests.
    """
    if _fits(doc, schema):
        return
    error = jsonschema.exceptions.best_match(
        jsonschema.Draft202012Validator(schema).iter_errors(doc))
    if error is None:
        raise RuntimeError("check_document: the walk rejects a document that "
                           "jsonschema's Draft202012Validator accepts")
    raise error


def _is_number(x) -> bool:
    return isinstance(x, numbers.Number) and not isinstance(x, bool)


# jsonschema's 2020-12 type checks: a bool is no number, an integral float
# is an integer, and only a dict is an object and only a list an array.
_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "boolean": lambda x: isinstance(x, bool),
    "null": lambda x: x is None,
    "number": _is_number,
    "integer": lambda x: ((isinstance(x, int) and not isinstance(x, bool))
                          or (isinstance(x, float) and x.is_integer())),
}


# Each keyword the walk knows, as ``holds(doc, value, schema)``.  As in
# jsonschema, a keyword about objects, arrays, strings or numbers holds for
# a document of any other type.
_KEYWORDS = {
    "$schema": lambda doc, value, schema: True,  # the check is always 2020-12's
    "type": lambda doc, value, schema: any(
        _TYPES[t](doc) for t in ([value] if isinstance(value, str) else value)),
    # jsonschema's ``equal`` is ``==`` when either side is a string, and the
    # artifact schemas' only ``const`` values are strings.
    "const": lambda doc, value, schema: doc == value,
    "required": lambda doc, value, schema: (
        not isinstance(doc, dict) or all(key in doc for key in value)),
    "properties": lambda doc, value, schema: not isinstance(doc, dict) or all(
        _fits(doc[key], sub) for key, sub in value.items() if key in doc),
    "additionalProperties": lambda doc, value, schema: not isinstance(doc, dict) or all(
        _fits(doc[key], value) for key in doc if key not in schema.get("properties", {})),
    "items": lambda doc, value, schema: (
        not isinstance(doc, list) or all(_fits(item, value) for item in doc)),
    "minItems": lambda doc, value, schema: not isinstance(doc, list) or len(doc) >= value,
    "minLength": lambda doc, value, schema: not isinstance(doc, str) or len(doc) >= value,
    "minimum": lambda doc, value, schema: not _is_number(doc) or not doc < value,
    "maximum": lambda doc, value, schema: not _is_number(doc) or not doc > value,
}


def _fits(doc, schema) -> bool:
    """Whether ``doc`` is valid against ``schema`` (a dict or a boolean schema)."""
    if isinstance(schema, bool):
        return schema
    return all(_KEYWORDS[key](doc, value, schema) for key, value in schema.items())


REPORT_SCHEMA = {
    "type": "object",
    "required": ["kind", "config", "seed", "estimates", "trends"],
    "properties": {
        "kind": {"type": "string", "minLength": 1},
        "config": {"type": "object"},
        "seed": {"type": "integer"},
        "estimates": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "value", "ci_low", "ci_high", "n_samples"],
                "properties": {
                    "name": {"type": "string", "minLength": 1},
                    "value": {"type": "number"},
                    "ci_low": {"type": "number"},
                    "ci_high": {"type": "number"},
                    "n_samples": {"type": "integer", "minimum": 0},
                },
                "additionalProperties": False,
            },
        },
        "trends": {
            "type": "object",
            "additionalProperties": {
                "type": "array",
                "items": {"type": ["number", "string", "boolean", "null"]},
            },
        },
        "wall_time": {"type": "number", "minimum": 0},
        "created_utc": {"type": "string"},
    },
    "additionalProperties": False,
}


def validate_report(doc: dict) -> None:
    """Raise ValidationError if the document violates the report schema."""
    try:
        check_document(doc, REPORT_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise ValidationError(f"report schema violation: {exc.message}") from exc

"""Experiment report containers with deterministic JSON/CSV emission.

An :class:`ExperimentReport` bundles a config echo, the RNG seed, named
estimates with confidence intervals, and trend arrays.  Its document
(:meth:`ExperimentReport.as_dict`, checked against :data:`REPORT_SCHEMA`) is
rendered canonically by :func:`fbmkit.serialize.canonical_json_dumps`
(sorted keys, 17-significant-digit floats), so identical runs emit
byte-identical documents up to the volatile wall time and timestamp, which
the experiment fills in with :meth:`ExperimentReport.stamp`.  A flat
CSV twin carries the same numbers for plotting.
"""

from __future__ import annotations

import io
import math
import time
from dataclasses import dataclass, field

import jsonschema
import numpy as np

from .errors import ValidationError
from .serialize import csv_cell, format_float

__all__ = [
    "Estimate",
    "ExperimentReport",
    "REPORT_SCHEMA",
    "utc_now",
    "validate_report",
    "wilson_interval",
]

# Standard normal quantile of the two-sided 95% intervals.
_Z95 = 1.96


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
    """Config echo + seed + estimates + trend arrays, rendered deterministically."""

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

    def to_csv(self) -> str:
        """Flat plotting twin: series,index,value,ci_low,ci_high,n_samples."""
        out = io.StringIO()
        out.write("series,index,value,ci_low,ci_high,n_samples\n")
        for est in self.estimates:
            out.write(
                f"{csv_cell(est.name)},0,{format_float(est.value)},"
                f"{format_float(est.ci_low)},{format_float(est.ci_high)},"
                f"{est.n_samples}\n"
            )
        for name in sorted(self.trends):
            for idx, value in enumerate(self.trends[name]):
                out.write(f"{csv_cell(name)},{idx},{csv_cell(value)},,,\n")
        return out.getvalue()


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
        jsonschema.validate(doc, REPORT_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise ValidationError(f"report schema violation: {exc.message}") from exc

"""Experiment report containers: the document an experiment returns.

An :class:`ExperimentReport` bundles a config echo, the RNG seed, named
estimates with confidence intervals, and trend arrays.  Its document
(:meth:`ExperimentReport.as_dict`) holds plain types only, so identical
runs build identical documents up to the volatile wall time and timestamp,
which the experiment fills in with :meth:`ExperimentReport.stamp`.  This
module renders no text: the CLI writes the document as canonical JSON, or
as its flat CSV twin for plotting, in ``cli._emit``.

Every artifact document is schema-shaped by construction: kinds are
literals, seeds and counts go through ``int``, config echoes and trends
through ``_plain``, which refuses any other type, and an :class:`Estimate`
refuses an inverted interval.  :data:`REPORT_SCHEMA` and the CLI's and the
battery's schemas are the published contract of those documents; the
tests validate real artifacts against them with jsonschema, which the
library itself never runs.
"""

from __future__ import annotations

import importlib.util
import math
import sys
import time

import numpy as np

from .errors import ValidationError

__all__ = [
    "Estimate",
    "ExperimentReport",
    "REPORT_SCHEMA",
    "utc_now",
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


# No library code reads it, so its ~60 ms import runs only under perfbench
# --trace 1, which wraps jsonschema.validate as seen from here
# (reports.schema_validate).
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


class Estimate:
    """A named scalar estimate with a confidence interval."""

    __slots__ = ("name", "value", "ci_low", "ci_high", "n_samples")

    def __init__(self, name: str, value: float, ci_low: float, ci_high: float,
                 n_samples: int) -> None:
        if not (ci_low <= ci_high):
            raise ValidationError(f"estimate {name!r}: ci_low {ci_low} > ci_high {ci_high}")
        self.name, self.value, self.ci_low, self.ci_high = name, value, ci_low, ci_high
        self.n_samples = n_samples

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "value": float(self.value),
            "ci_low": float(self.ci_low),
            "ci_high": float(self.ci_high),
            "n_samples": int(self.n_samples),
        }


class ExperimentReport:
    """Config echo + seed + estimates + trend arrays, as one plain document."""

    __slots__ = ("kind", "config", "seed", "estimates", "trends", "wall_time", "created_utc")

    def __init__(self, kind: str, config: dict, seed: int,
                 estimates: list[Estimate] | None = None, trends: dict | None = None,
                 wall_time: float = 0.0, created_utc: str = "") -> None:
        self.kind, self.config, self.seed = kind, config, seed
        self.estimates = [] if estimates is None else estimates
        self.trends = {} if trends is None else trends
        self.wall_time, self.created_utc = wall_time, created_utc

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


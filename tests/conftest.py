"""Shared fixtures and hypothesis settings for the test suite."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

import fbmkit
from fbmkit.context import make_context

SRC = str(Path(fbmkit.__file__).resolve().parents[1])

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def ctx25():
    return make_context(0.25)


@pytest.fixture(scope="session")
def ctx75():
    return make_context(0.75)


def _run_fresh(script: str, *, env=None, cwd=None, timeout: float = 300):
    """Run ``script`` in a fresh interpreter on this package's sources, one BLAS thread.

    The test session has scipy, jsonschema and its own heap state loaded, so
    start-up, import and allocation checks run here.  A ``RuntimeWarning``
    is an error there, as ``pyproject.toml``'s ``filterwarnings`` makes it in
    the session.  ``env`` adds to the session's environment; stdout and
    stderr are captured as text.
    """
    full = dict(os.environ, **(env or {}), OPENBLAS_NUM_THREADS="1",
                PYTHONWARNINGS="error::RuntimeWarning")
    full["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, full.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script], env=full, cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


@pytest.fixture
def run_fresh():
    """:func:`_run_fresh`: a script in a fresh interpreter on the package's sources."""
    return _run_fresh

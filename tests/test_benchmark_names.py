"""Package names that the benchmark under ``perfbench/`` looks up.

``perfbench/run.py --trace 1`` wraps each public function of every fbmkit
module (the names in the module's ``__all__`` that it defines itself) and
each module-level ``jsonschema`` binding, and stops with an error when a
per-layer metric that BENCHMARK.json names has no such span.  Its workloads
also import a few package names directly.  These checks put a rename or a
deletion of those names in front of the tier-1 suite, which does not run
``perfbench``'s own tests.

The tracer wraps only the modules loaded at set-up (``import fbmkit.cli``
and ``build_parser()``), so every module a per-layer name points to must
be loaded by then: a traced module the CLI came to import only inside a
function would fail the traced run with a ``BenchError``, and fails here
first.  The rule binds the traced modules only: ``almostdiag``, ``thick``
and ``subgauss``, which no per-layer name points to, are imported by the
leaves that use them, and their ``import.*_s`` metrics read 0.
"""

import ast
import importlib
import inspect
import json
import types
from pathlib import Path

import numpy as np
import pytest

from fbmkit.context import make_context
from fbmkit.drift import DriftKernelSpec, drift_kernel_value

ROOT = Path(__file__).resolve().parents[1]


def _traced_layers():
    """``(module, function)`` for each per-layer metric ``<module>.<function>.<stat>``.

    ``import.*`` and ``trace.*`` metrics and ``cli.out_bytes`` are measured by
    the harness itself, not by a span.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    layers = set()
    for metric in spec["per_layer"]:
        parts = metric["name"].split(".")
        if parts[0] not in ("import", "trace") and len(parts) == 3:
            layers.add((parts[0], parts[1]))
    return sorted(layers)


def _perfbench_imports():
    """``(module, name)`` for each ``from fbmkit... import name`` under ``perfbench/``."""
    found = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("fbmkit"):
                found.update((node.module, alias.name) for alias in node.names)
    return sorted(found)


@pytest.mark.parametrize("module,function", _traced_layers())
def test_traced_layer_exists(module, function):
    mod = importlib.import_module(f"fbmkit.{module}")
    if function == "schema_validate":
        assert isinstance(getattr(mod, "jsonschema", None), types.ModuleType)
        return
    assert function in mod.__all__
    obj = getattr(mod, function)
    assert inspect.isfunction(obj) and obj.__module__ == mod.__name__


def test_set_up_loads_every_traced_module(run_fresh):
    script = (
        "import sys, fbmkit.cli\n"
        "fbmkit.cli.build_parser()\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('fbmkit.'))))\n"
    )
    proc = run_fresh(script, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    wanted = {f"fbmkit.{module}" for module, _ in _traced_layers()}
    assert wanted <= loaded, sorted(wanted - loaded)


@pytest.mark.parametrize("module,name", _perfbench_imports())
def test_perfbench_import_resolves(module, name):
    assert hasattr(importlib.import_module(module), name)


def test_drift_kernel_spec_takes_a_context():
    kspec = DriftKernelSpec(ctx=make_context(0.75))
    assert np.isfinite(float(drift_kernel_value(kspec, -1.0, 0.5)[0]))

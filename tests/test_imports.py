"""Import hygiene: no unread imports, and numpy and jsonschema as the only runtime dependencies.

No module under ``src/`` or ``tests/`` imports a name it never reads.  A
name counts as read when it appears as a loaded ``ast.Name`` anywhere in
the module (an attribute chain ``np.linalg.norm`` reads ``np``) or is listed
in the module's ``__all__``.  Package ``__init__.py`` files are skipped:
their imports are re-exports.

No module under ``src/`` imports scipy, at module level or inside a
function, and ``pyproject.toml`` lists only numpy and jsonschema as runtime
dependencies; scipy stays in the ``test`` extra as an oracle.  No library
code runs jsonschema: artifacts are schema-shaped by construction and the
tests validate them against their schemas, but the lazy module-level
``jsonschema`` bindings of ``reports`` and ``cli`` stay, as the names that
``perfbench --trace 1`` wraps.  ``gamma.py`` sums its series in closed form
and takes its lags in one serial pass, so it imports nothing from
``quadrature`` or ``rng``; ``drift.py`` takes exact path
weights and imports only ``PATH_TOL`` from ``quadrature``, and no library
module but ``quadrature.py`` names the panel helpers.

``import fbmkit.cli`` does not load ``acceptance``: only ``_cmd_selftest``
imports from it, and only ``run_all`` (the battery's seed lives in ``rng``,
the past window and the driver round trip in ``drift``), and no library
module imports an underscore name from ``acceptance``.  No module
but ``rng`` imports ``parallel_map`` or ``spawn_streams``: Monte Carlo paths
are drawn and reduced by the one engine, ``rng.draw_reduce``, and the
almost-diagonal checks run on matrix stacks and the scale ladder's lags in
one pass, not on a thread pool.

``cli`` is the one writer of artifact text: ``reports`` imports nothing from
``serialize``, and no library module but ``cli`` imports the streaming JSON
writer ``canonical_json_dump`` or the CSV cell ``csv_cell``.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    path
    for folder in ("src", "tests")
    for path in (ROOT / folder).rglob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names that ``source`` imports but never reads or exports."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names if a.name != "*")
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return sorted(imported - read)


def test_the_scan_sees_an_unused_import():
    source = (
        "import math\nimport os.path\nfrom json import dumps as d, loads\n"
        "__all__ = ['loads']\nprint(os.path.sep)\n"
    )
    assert unused_imports(source) == ["d", "math"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def imported_modules(source: str) -> set[str]:
    """Top-level package of every import in ``source``, at any depth of the tree."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_the_scan_sees_an_import_inside_a_function():
    source = "def f():\n    from scipy.linalg import cho_solve\n    import json.decoder\n"
    assert imported_modules(source) == {"scipy", "json"}


@pytest.mark.parametrize(
    "path", sorted((ROOT / "src").rglob("*.py")), ids=lambda p: str(p.relative_to(ROOT))
)
def test_no_library_module_imports_scipy(path):
    assert "scipy" not in imported_modules(path.read_text(encoding="utf-8"))


def module_path_parts(source: str) -> set[str]:
    """Every dotted part of every module and name that ``source`` imports."""
    parts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            parts.update((node.module or "").split("."))
            parts.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            parts.update(part for a in node.names for part in a.name.split("."))
    return parts


def test_the_scan_sees_relative_imports():
    source = "from . import quadrature\nfrom .context import xi\n"
    assert {"quadrature", "context", "xi"} <= module_path_parts(source)


def test_gamma_imports_nothing_from_quadrature_or_rng():
    source = (ROOT / "src" / "fbmkit" / "gamma.py").read_text(encoding="utf-8")
    assert not {"quadrature", "rng"} & module_path_parts(source)


def names_imported_from(source: str, module: str) -> set[str]:
    """What ``source`` imports from ``module``, relative or absolute, at any depth.

    A whole-module import (``import pkg.module``, ``from . import module``)
    counts as importing ``*``.
    """
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == module:
                found.update(a.name for a in node.names)
            elif any(a.name == module for a in node.names):
                found.add("*")
        elif isinstance(node, ast.Import):
            if any(a.name.split(".")[-1] == module for a in node.names):
                found.add("*")
    return found


def identifiers(source: str) -> set[str]:
    """Every name that ``source`` defines, reads, imports or takes as an attribute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update(node.name.split("."))
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
    return found


def test_the_scans_see_module_imports_and_attributes():
    source = (
        "from .quadrature import PATH_TOL as tol\nfrom . import quadrature\n"
        "def f():\n    return quadrature.panel_nodes\n"
    )
    assert names_imported_from(source, "quadrature") == {"PATH_TOL", "*"}
    assert {"panel_nodes", "quadrature", "PATH_TOL", "f"} <= identifiers(source)


def test_drift_imports_only_path_tol_from_quadrature():
    source = (ROOT / "src" / "fbmkit" / "drift.py").read_text(encoding="utf-8")
    assert names_imported_from(source, "quadrature") == {"PATH_TOL"}


def test_only_selftest_imports_the_battery_and_only_run_all():
    source = (ROOT / "src" / "fbmkit" / "cli.py").read_text(encoding="utf-8")
    importers = {
        node.name: names
        for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef)
        and (names := names_imported_from(ast.unparse(node), "acceptance"))
    }
    assert importers == {"_cmd_selftest": {"run_all"}}
    assert names_imported_from(source, "acceptance") == {"run_all"}
    top_level = [node for node in ast.parse(source).body if not isinstance(node, ast.FunctionDef)]
    assert names_imported_from(ast.unparse(ast.Module(top_level, [])), "acceptance") == set()


@pytest.mark.parametrize(
    "path", sorted((ROOT / "src").rglob("*.py")), ids=lambda p: str(p.relative_to(ROOT))
)
def test_no_library_module_imports_a_private_acceptance_name(path):
    names = names_imported_from(path.read_text(encoding="utf-8"), "acceptance")
    assert not {name for name in names if name.startswith("_")}


@pytest.mark.parametrize(
    "path",
    sorted(p for p in (ROOT / "src").rglob("*.py") if p.name != "quadrature.py"),
    ids=lambda p: str(p.relative_to(ROOT)),
)
def test_no_library_module_but_quadrature_names_the_panel_helpers(path):
    names = identifiers(path.read_text(encoding="utf-8"))
    assert not names & {"aligned_breaks", "PATH_NODES", "panel_nodes"}


def test_runtime_dependencies_are_numpy_and_jsonschema():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    names = {re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower() for dep in project["dependencies"]}
    assert names == {"numpy", "jsonschema"}
    assert any(dep.startswith("scipy") for dep in project["optional-dependencies"]["test"])


@pytest.mark.parametrize(
    "path",
    sorted(p for p in (ROOT / "src").rglob("*.py") if p.name != "rng.py"),
    ids=lambda p: str(p.relative_to(ROOT)),
)
def test_no_module_but_rng_imports_the_pool_or_the_stream_spawner(path):
    names = names_imported_from(path.read_text(encoding="utf-8"), "rng")
    assert not names & {"parallel_map", "spawn_streams", "*"}


def test_reports_imports_nothing_from_serialize():
    source = (ROOT / "src" / "fbmkit" / "reports.py").read_text(encoding="utf-8")
    assert names_imported_from(source, "serialize") == set()


@pytest.mark.parametrize(
    "path",
    sorted(p for p in (ROOT / "src").rglob("*.py") if p.name != "cli.py"),
    ids=lambda p: str(p.relative_to(ROOT)),
)
def test_no_library_module_but_cli_imports_the_artifact_writers(path):
    names = names_imported_from(path.read_text(encoding="utf-8"), "serialize")
    assert not names & {"canonical_json_dump", "csv_cell", "*"}

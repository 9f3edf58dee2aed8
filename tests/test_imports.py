"""Import hygiene: no unread imports, and numpy and jsonschema as the only runtime dependencies.

No module under ``src/`` or ``tests/`` imports a name it never reads.  A
name counts as read when it appears as a loaded ``ast.Name`` anywhere in
the module (an attribute chain ``np.linalg.norm`` reads ``np``) or is listed
in the module's ``__all__``.  Package ``__init__.py`` files are skipped:
their imports are re-exports.

No module under ``src/`` imports scipy, at module level or inside a
function, and ``pyproject.toml`` lists only numpy and jsonschema as runtime
dependencies; scipy stays in the ``test`` extra as an oracle.  ``gamma.py``
sums its series in closed form and imports nothing from ``quadrature``;
``drift.py`` takes exact path weights and imports only ``PATH_TOL`` from it,
and no library module but ``quadrature.py`` names the panel helpers.
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


def test_gamma_imports_nothing_from_quadrature():
    source = (ROOT / "src" / "fbmkit" / "gamma.py").read_text(encoding="utf-8")
    assert "quadrature" not in module_path_parts(source)


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

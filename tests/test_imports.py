"""Import hygiene: no unread imports, and numpy and jsonschema as the only runtime dependencies.

No module under ``src/`` or ``tests/`` imports a name it never reads.  A
name counts as read when it appears as a loaded ``ast.Name`` anywhere in
the module (an attribute chain ``np.linalg.norm`` reads ``np``) or is listed
in the module's ``__all__``.  Package ``__init__.py`` files are skipped:
their imports are re-exports.

No module under ``src/`` imports scipy, at module level or inside a
function, and ``pyproject.toml`` lists only numpy and jsonschema as runtime
dependencies; scipy stays in the ``test`` extra as an oracle.
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


def test_runtime_dependencies_are_numpy_and_jsonschema():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    names = {re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower() for dep in project["dependencies"]}
    assert names == {"numpy", "jsonschema"}
    assert any(dep.startswith("scipy") for dep in project["optional-dependencies"]["test"])

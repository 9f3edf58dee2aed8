"""No module under ``src/`` or ``tests/`` imports a name it never reads.

A name counts as read when it appears as a loaded ``ast.Name`` anywhere in
the module (an attribute chain ``np.linalg.norm`` reads ``np``) or is listed
in the module's ``__all__``.  Package ``__init__.py`` files are skipped:
their imports are re-exports.
"""

import ast
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

"""Static reach: every function, class and method under ``src/`` has a caller.

A public name needs a CLI path, a criterion, a benchmark name or a test that
pins a paper statement; code that only its own tests call is a second route
to keep in step for nothing.  This check walks the package's call graph by
``ast`` alone, without running anything:

- a module-level ``def`` or ``class`` is reached when reached code loads its
  name, in its own module or through ``from .mod import name``;
- a method of a reached class is reached when its name appears as an
  attribute anywhere in reached code (``ThickSet.naturals``,
  ``report.as_dict()``), and a dunder method is reached with its class;
- names in type annotations do not count: a hint calls nothing.

The roots are the CLI (``cli.main`` and ``cli.build_parser``, which binds
every subcommand's handler), every module-level statement that is not a
``def`` or ``class`` (``acceptance._CRITERIA`` reaches the criteria), the
``(module, function)`` of each per-layer metric that BENCHMARK.json declares,
and each ``from fbmkit... import name`` under ``perfbench/``.  What no root
reaches must be deleted, wired to a root, or named in ``ALLOWLIST`` with its
reason.  Branches inside a reached function are out of scope.
"""

import ast
from pathlib import Path

from test_benchmark_names import _perfbench_imports, _traced_layers

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fbmkit"

CLI_ROOTS = {("cli", "main"), ("cli", "build_parser")}

ALLOWLIST = {
    # The proof's bound chain, waiting on a CLI path or its deletion (ROADMAP
    # Direction 8).  It reaches max_feasible_epsilon, _log_normal_tail and
    # PhiFunctions.all_finite.
    ("experiments", "product_tail_chain"),
}


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _walk(node):
    """``ast.walk`` in source order, leaving out annotations."""
    yield node
    for field, value in ast.iter_fields(node):
        if field in ("annotation", "returns"):
            continue
        for child in value if isinstance(value, list) else [value]:
            if isinstance(child, ast.AST):
                yield from _walk(child)


class _Module:
    """The module-level definitions, relative imports and other statements of one module."""

    def __init__(self, source: str):
        tree = ast.parse(source)
        kinds = _FUNCTIONS + (ast.ClassDef,)
        self.defs = {node.name: node for node in tree.body if isinstance(node, kinds)}
        self.statements = [node for node in tree.body if not isinstance(node, kinds)]
        self.imports = {
            alias.asname or alias.name: (node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
            for alias in node.names
        }


def unreached(sources: dict[str, str], roots) -> list[str]:
    """``module.name`` and ``module.Class.method`` that nothing in ``roots`` reaches.

    ``sources`` maps module names to their text; ``roots`` holds
    ``(module, name)`` pairs, of which those that name no definition are
    ignored.
    """
    modules = {name: _Module(text) for name, text in sources.items()}
    reached: set[tuple[str, str]] = set()
    methods: set[tuple[str, str, str]] = set()
    attrs: set[str] = set()
    todo: list[tuple[str, ast.AST]] = []

    def reach(module: str, name: str) -> None:
        mod = modules.get(module)
        if mod is None:
            return
        if name in mod.imports:
            reach(*mod.imports[name])
        elif name in mod.defs and (module, name) not in reached:
            reached.add((module, name))
            node = mod.defs[name]
            if isinstance(node, ast.ClassDef):
                kept = [n for n in node.body if not isinstance(n, _FUNCTIONS)]
                todo.extend((module, n) for n in node.decorator_list + node.bases + kept)
            else:
                todo.append((module, node))

    for module, name in roots:
        reach(module, name)
    for module, mod in modules.items():
        todo.extend((module, node) for node in mod.statements)
    while todo:
        while todo:
            module, node = todo.pop()
            for sub in _walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    reach(module, sub.id)
                elif isinstance(sub, ast.Attribute):
                    attrs.add(sub.attr)
        # Methods wait for the attributes of everything else that is reached.
        for module, name in sorted(reached):
            node = modules[module].defs[name]
            if not isinstance(node, ast.ClassDef):
                continue
            for method in node.body:
                if not isinstance(method, _FUNCTIONS) or (module, name, method.name) in methods:
                    continue
                dunder = method.name.startswith("__") and method.name.endswith("__")
                if dunder or method.name in attrs:
                    methods.add((module, name, method.name))
                    todo.append((module, method))

    missing = []
    for module, mod in sorted(modules.items()):
        for name, node in mod.defs.items():
            if (module, name) not in reached:
                missing.append(f"{module}.{name}")
            elif isinstance(node, ast.ClassDef):
                missing.extend(
                    f"{module}.{name}.{m.name}"
                    for m in node.body
                    if isinstance(m, _FUNCTIONS) and (module, name, m.name) not in methods
                )
    return sorted(missing)


def _package_sources() -> dict[str, str]:
    return {
        path.stem: path.read_text(encoding="utf-8")
        for path in sorted(PACKAGE.glob("*.py"))
    }


def _roots() -> set[tuple[str, str]]:
    roots = set(CLI_ROOTS) | set(_traced_layers())
    for module, name in _perfbench_imports():
        roots.add((module.removeprefix("fbmkit").lstrip(".") or "__init__", name))
    return roots


def test_every_definition_is_reached():
    assert unreached(_package_sources(), _roots() | ALLOWLIST) == []


def test_every_allowlisted_name_is_defined_and_unreached():
    # An entry that a root has come to reach, or whose code is gone, leaves.
    missing = unreached(_package_sources(), _roots())
    assert all(f"{module}.{name}" in missing for module, name in ALLOWLIST)


def test_the_scan_sees_dead_code():
    sources = {
        "cli": (
            "from .lib import Thing, helper as h\n"
            "TABLE = {'x': h}\n"
            "def main() -> Hinted:\n"
            "    return Thing().used()\n"
            "def dead():\n"
            "    return main()\n"
            "class Hinted:\n"
            "    pass\n"
        ),
        "lib": (
            "def helper():\n"
            "    return inner()\n"
            "def inner():\n"
            "    return 1\n"
            "def unused():\n"
            "    return inner()\n"
            "class Thing:\n"
            "    def __init__(self):\n"
            "        self.x = 1\n"
            "    def used(self):\n"
            "        return self.x\n"
            "    def unused_method(self):\n"
            "        return 0\n"
        ),
    }
    assert unreached(sources, {("cli", "main")}) == [
        "cli.Hinted", "cli.dead", "lib.Thing.unused_method", "lib.unused",
    ]

"""Every Sphinx cross-reference in ``src/`` names something that exists.

A ``:func:``, ``:class:``, ``:mod:``, ``:meth:``, ``:data:``, ``:attr:`` or
``:exc:`` reference resolves when its target, read as a dotted path, can be
reached from the longest importable module prefix by attribute lookup.  A
target that does not start with a module is looked up in the module whose
source holds the reference, so bare names must be defined (or imported)
there.  A leading ``~`` (display the last component only) is ignored.
"""

import importlib
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
ROLE = re.compile(r":(?:func|class|mod|meth|data|attr|exc):`~?([\w.]+)`")
MODULES = sorted(SRC.rglob("*.py"))


def module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def resolves(target: str, home: str) -> bool:
    """True if ``target`` names an object, relative to module ``home`` if not dotted from a module."""
    parts = target.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        rest = parts[cut:]
        break
    else:
        obj, rest = importlib.import_module(home), parts
    for name in rest:
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def test_the_resolver_sees_a_dangling_reference():
    assert resolves("fbmkit.fbm.levy_cov", "fbmkit.gamma")
    assert resolves("levy_cov", "fbmkit.fbm")
    assert resolves("ExperimentReport.as_dict", "fbmkit.reports")
    assert resolves("fbmkit.gamma", "fbmkit.fbm")
    assert not resolves("no_such_function", "fbmkit.fbm")
    assert not resolves("levy_cov", "fbmkit.gamma")
    assert not resolves("fbmkit.fbm.no_such_function", "fbmkit.gamma")
    assert not resolves("ExperimentReport.no_such_method", "fbmkit.reports")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_every_cross_reference_resolves(path):
    home = module_name(path)
    targets = ROLE.findall(path.read_text(encoding="utf-8"))
    assert [t for t in targets if not resolves(t, home)] == []

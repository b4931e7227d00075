"""No module of the package imports another module's private names, and
every public name has a use."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "deltaquant"


def private_imports(source: str) -> list[str]:
    """``module.name`` of every underscore name a ``from ... import`` brings in."""
    return [
        f"{'.' * node.level}{node.module or ''}.{alias.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_")
    ]


@pytest.mark.parametrize(
    "source",
    [
        "from .search import SearchConfig, _LossKernel\n",
        "from .signals import (\n    MappingConfig,\n    _importance_per_module,\n)\n",
        "def f():\n    from deltaquant.toy import _forward_activations as fwd\n",
    ],
    ids=["one-line", "parenthesized", "nested"],
)
def test_private_imports_are_found(source):
    assert len(private_imports(source)) == 1


def test_public_imports_pass():
    assert private_imports("from __future__ import annotations\nfrom .toy import forward\n") == []


def test_no_module_imports_private_names():
    found = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := private_imports(path.read_text()))
    }
    assert found == {}


def referenced_names(source: str) -> set[str]:
    """Every name ``source`` reads, bare or as an attribute; definitions do not count."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Name, ast.Attribute))
    }


INIT = PACKAGE / "__init__.py"


def exported_names() -> set[str]:
    """Every name the package's ``__init__`` imports from its modules."""
    return {
        alias.name
        for node in ast.walk(ast.parse(INIT.read_text()))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_every_export_is_used_or_documented():
    exported = exported_names()
    used = set().union(
        *(referenced_names(path.read_text()) for path in PACKAGE.glob("*.py") if path != INIT)
    )
    readme = (ROOT / "README.md").read_text()
    unused = sorted(
        name for name in exported - used if not re.search(rf"\b{name}\b", readme)
    )
    assert unused == []


def test_every_export_has_a_caller_outside_tests():
    # a README mention does not count: an export that only tests call belongs in tests/
    callers = [path for path in PACKAGE.glob("*.py") if path != INIT]
    callers += (ROOT / "bench").glob("*.py")
    used = set().union(*(referenced_names(path.read_text()) for path in callers))
    assert sorted(exported_names() - used) == []

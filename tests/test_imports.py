"""No module of the package imports another module's private names."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "deltaquant"


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

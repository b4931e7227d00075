"""No module of the package imports another module's private names, and
every public name and public attribute has a use."""

import ast
import re
from collections import Counter
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


# a function that hands an object to one of these writes all its fields
SERIALIZERS = {"asdict", "vars"}


def attribute_reads(tree: ast.AST) -> Counter:
    """How often ``tree`` reads each attribute name; stores do not count."""
    return Counter(
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    )


def serialized_names(tree: ast.AST) -> set[str]:
    """Every name a function calling a serializer mentions, annotations included,
    and the class of every method that calls one."""
    def serializes(func):
        return any(
            isinstance(node, ast.Call) and getattr(node.func, "id", None) in SERIALIZERS
            for node in ast.walk(func)
        )

    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and serializes(node):
            found |= {name.id for name in ast.walk(node) if isinstance(name, ast.Name)}
        if isinstance(node, ast.ClassDef) and any(
            isinstance(item, ast.FunctionDef) and serializes(item) for item in node.body
        ):
            found.add(node.name)
    return found


def public_members(cls: ast.ClassDef):
    """``(name, node)`` of each public property and, for a dataclass, each field."""
    dataclass = any(ast.unparse(d).startswith("dataclass") for d in cls.decorator_list)
    for node in cls.body:
        if dataclass and isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            name = node.target.id
        elif isinstance(node, ast.FunctionDef) and any(
            ast.unparse(d).endswith(("property", "cached_property")) for d in node.decorator_list
        ):
            name = node.name
        else:
            continue
        if not name.startswith("_"):
            yield name, node


def unread_members(package: list[str], others: list[str], exported: set[str]) -> list[str]:
    """``Class.member`` of each public property or dataclass field of an exported
    class that nothing reads: no ``package`` source outside the member's own
    definition and no ``others`` source. The fields of a class that a package
    serializer writes count as read."""
    trees = [ast.parse(source) for source in package]
    reads = sum((attribute_reads(ast.parse(source)) for source in others), Counter())
    reads += sum((attribute_reads(tree) for tree in trees), Counter())
    serialized = set().union(*(serialized_names(tree) for tree in trees))
    return [
        f"{cls.name}.{name}"
        for tree in trees
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and cls.name in exported
        for name, node in public_members(cls)
        if not (isinstance(node, ast.AnnAssign) and cls.name in serialized)
        and reads[name] == attribute_reads(node)[name]
    ]


@pytest.mark.parametrize(
    "source, unread",
    [
        ("@dataclass\nclass A:\n    x: int\n    y: int\n\ndef f(a):\n    return a.x\n", ["A.y"]),
        ("@dataclass(frozen=True)\nclass A:\n    x: int\n\ndef f(a):\n    a.x = 1\n", ["A.x"]),
        ("class A:\n    @property\n    def p(self):\n        return self.p\n", ["A.p"]),
        ("class A:\n    @property\n    def p(self):\n        return 1\n\nq = A().p\n", []),
        ("@dataclass\nclass A:\n    x: int\n\ndef dump(a: A):\n    return vars(a)\n", []),
        ("@dataclass\nclass A:\n    x: int\n\n    def f(self):\n        return asdict(self)\n", []),
        ("class A:\n    x: int\n", []),
    ],
    ids=["field", "store-only", "self-read", "property", "vars", "asdict", "not-a-dataclass"],
)
def test_unread_members_are_found(source, unread):
    assert unread_members([source], [], {"A"}) == unread


def test_every_public_member_is_read_outside_tests():
    # an attribute that only tests read belongs in tests/, computed from what is kept
    package = [path.read_text() for path in PACKAGE.glob("*.py") if path != INIT]
    bench = [path.read_text() for path in (ROOT / "bench").glob("*.py")]
    assert unread_members(package, bench, exported_names()) == []

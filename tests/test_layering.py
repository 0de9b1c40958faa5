"""The package's modules import each other in one direction only.

Each module may import only modules earlier in ``LAYERS``; the package
``__init__`` re-exports everything and is exempt, but every name it
exports must resolve and be listed once.  Every public function, class
and method is used by the package itself, not only by the tests, and
every exception class is caught by name somewhere in the package.
"""

import ast
import importlib
from pathlib import Path

import pytest

import ecqsim

LAYERS = ("grid", "events", "agents", "engine", "scenario", "metrics",
          "experiment", "cli")
PACKAGE = Path(ecqsim.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
# Public names the package need not use, each with its reason.
USED_OUTSIDE_THE_PACKAGE = {
    "EventLog.from_text": "perfbench/checks.py and the README's round trip "
                          "read a written log back",
}


def parse(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def relative_imports(module: str) -> set[str]:
    tree = parse(module)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def test_every_module_has_a_layer():
    assert set(MODULES) == set(LAYERS)


@pytest.mark.parametrize("module", MODULES)
def test_imports_point_down(module):
    allowed = set(LAYERS[:LAYERS.index(module)])
    assert relative_imports(module) <= allowed


def test_exports_resolve_once():
    names = ecqsim.__all__
    assert len(set(names)) == len(names), "repeated names in __all__"
    missing = [name for name in names if not hasattr(ecqsim, name)]
    assert missing == []


def test_every_public_name_is_used_by_the_package():
    """A definition or ``__init__``'s re-export is not a use.

    Uses are read from the syntax tree (names, attributes and imports),
    so docstrings and comments do not count.  A method ``Class.name``
    counts as used when any attribute of the package is called ``name``.
    """
    defined, used = set(), set()
    for module in MODULES:
        tree = parse(module)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_"):
                defined.add(node.name)
            if isinstance(node, ast.ClassDef):
                defined.update(f"{node.name}.{item.name}" for item in node.body
                               if isinstance(item, ast.FunctionDef)
                               and not item.name.startswith("_"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    unused = {name for name in defined if name.rpartition(".")[2] not in used}
    assert sorted(unused - set(USED_OUTSIDE_THE_PACKAGE)) == []
    assert set(USED_OUTSIDE_THE_PACKAGE) <= unused, "a stale exemption"


def test_every_exception_is_caught_by_name():
    """An error type that no handler names is one only the tests tell apart.

    Handlers are read from the syntax tree; a tuple handler counts each
    name in it.
    """
    defined, caught = set(), set()
    for module in MODULES:
        namespace = vars(importlib.import_module(f"ecqsim.{module}"))
        defined.update(name for name, obj in namespace.items()
                       if isinstance(obj, type) and issubclass(obj, BaseException)
                       and obj.__module__ == f"ecqsim.{module}")
        for node in ast.walk(parse(module)):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) \
                    else [node.type]
                caught.update(ast.unparse(t).rpartition(".")[2] for t in types)
    assert defined, "no exception classes found"
    assert sorted(defined - caught) == []

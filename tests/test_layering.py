"""The package's modules import each other in one direction only.

Each module may import only modules earlier in ``LAYERS``; the package
``__init__`` re-exports everything and is exempt, but every name it
exports must resolve and be listed once.
"""

import ast
from pathlib import Path

import pytest

import ecqsim

LAYERS = ("grid", "events", "agents", "engine", "scenario", "metrics",
          "experiment", "cli")
PACKAGE = Path(ecqsim.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def relative_imports(module: str) -> set[str]:
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
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

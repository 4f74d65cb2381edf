"""The demos and scripts import only names the package defines.

Nothing else runs them, so a renamed or removed library name would
otherwise only show when someone next runs one by hand.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted([*ROOT.glob("demos/*.py"), *ROOT.glob("scripts/*.py")])


def fdsic_imports(path):
    """(module, name) for every ``from fdsic... import name`` in ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module == "fdsic" or node.module.startswith("fdsic."):
                for alias in node.names:
                    yield node.module, alias.name


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_fdsic_imports_resolve(path):
    missing = [
        f"{module}.{name}"
        for module, name in fdsic_imports(path)
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing, f"{path.name} imports undefined names: {missing}"


def test_sources_found():
    assert SOURCES

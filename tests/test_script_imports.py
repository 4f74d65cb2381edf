"""The demos, scripts and README's code import only names the package
defines, and run; and every name the package exports has a caller.

Nothing else runs them, so a renamed or removed library name, or a
changed return value they unpack, would otherwise only show when someone
next runs one by hand.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted([*ROOT.glob("demos/*.py"), *ROOT.glob("scripts/*.py")])
README_PYTHON_BLOCKS = re.findall(
    r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S
)

# Every script that finishes in under two seconds. Demo 04 takes about
# 3 s on 2 vCPUs; CI's console smoke step runs it.
SMOKE_RUNS = [
    ("demos/01_suppression_budget.py",),
    ("demos/02_one_tone_impairment_signatures.py",),
    ("demos/03_oscillator_phase_noise.py",),
    ("demos/05_iq_capture_files.py",),
    ("scripts/calibrate.py",),
]


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


@pytest.mark.parametrize("command", SMOKE_RUNS, ids=" ".join)
def test_script_runs(command, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(tmp_path)}
    done = subprocess.run(
        [sys.executable, str(ROOT / command[0]), *command[1:]],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    # The scripts clean up after themselves: their temp folder stays empty.
    assert sorted(path.name for path in tmp_path.iterdir()) == []


def used_names(source: str, filename: str) -> set[str]:
    """Every name ``source`` imports, calls, or reads as the base of an
    attribute (``CancellerMethod`` in ``CancellerMethod.LINEAR``), so a local
    variable or a field of the same spelling is no caller."""
    names = set()
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, (ast.Call, ast.Attribute)):
            ref = node.func if isinstance(node, ast.Call) else node.value
            # A Name, or the last name of an Attribute; None for any other node.
            names.add(getattr(ref, "id", getattr(ref, "attr", None)))
    return names - {None}


def test_every_exported_name_has_a_caller():
    # A name the package exports is used by the library itself, a demo, a
    # script, README's code or CI; one that only the tests use belongs in
    # the tests.
    package = ROOT / "src" / "fdsic"
    used = set(re.findall(r"\w+", (ROOT / ".github" / "workflows" / "tests.yml").read_text()))
    for path in [*sorted(package.glob("*.py")), *SOURCES]:
        if path.name != "__init__.py":
            used |= used_names(path.read_text(), str(path))
    for block in README_PYTHON_BLOCKS:
        used |= used_names(block, "README.md")
    init = ast.parse((package / "__init__.py").read_text())
    exported = [
        alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert exported
    assert sorted(set(exported) - used) == []


def test_readme_python_blocks_run(capsys):
    # The quick start calls run_sweep by keyword and reads each report's
    # fit, so a changed signature or report field fails here.
    assert README_PYTHON_BLOCKS
    for block in README_PYTHON_BLOCKS:
        exec(compile(block, "README.md", "exec"), {})
    assert "rank" in capsys.readouterr().out

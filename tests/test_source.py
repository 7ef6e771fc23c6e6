"""Source hygiene: every name a library module imports is read somewhere in
that module, and every Python file parses as the oldest supported Python.
Standard library only, so it runs wherever the suite runs."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src" / "mcastsched"
# __init__.py imports to re-export, so it is not scanned.
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}  # bound name -> line
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_scanner_flags_only_unread_names():
    source = "import os, sys\nfrom a.b import c as d, e\nprint(sys.argv, d)\n"
    assert unused_imports(source) == ["e (line 2)", "os (line 1)"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


def python_floor() -> tuple[int, int]:
    """The (major, minor) of `requires-python = ">=X.Y"` in pyproject.toml,
    read with a regex: `tomllib` is not in the oldest supported Python."""
    text = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'^requires-python\s*=\s*">=(\d+)\.(\d+)"', text, re.M).groups()
    return int(major), int(minor)


def test_sources_parse_at_python_floor():
    floor = python_floor()
    assert floor == (3, 10)  # the oldest Python the CI matrix runs
    files = [p for d in (SRC, ROOT / "tests", ROOT / "perfbench") for p in sorted(d.rglob("*.py"))]
    assert len(files) > 20
    for path in files:
        ast.parse(path.read_text(), str(path), feature_version=floor)

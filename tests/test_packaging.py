"""Every third-party module the package imports is a declared dependency."""
from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


def canonical(name: str) -> str:
    return re.sub(r"[-_.]+", "-", name).lower()


def imported_top_levels(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_third_party_imports_are_declared_dependencies():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {
        canonical(re.match(r"[A-Za-z0-9_.-]+", dep).group()) for dep in project["dependencies"]
    }
    sources = sorted((ROOT / "src" / "hiertune").glob("*.py"))
    assert sources
    for path in sources:
        third_party = imported_top_levels(path) - set(sys.stdlib_module_names) - {"hiertune"}
        undeclared = {name for name in third_party if canonical(name) not in declared}
        assert not undeclared, f"{path.name} imports undeclared {sorted(undeclared)}"

"""Packaging checks: declared dependencies, and no public code nothing calls."""
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


# Public functions and methods that no module of the package calls, each
# with the reason it stays.
UNCALLED_ALLOWED = {
    "PromptParams.identity": "tests/test_acceptance.py imports it",
    "gradient_check": "tests/test_acceptance.py imports it",
    "enumerate_treecuts": "tests/test_acceptance.py imports it",
    "TaxonomyTree.target_in": "perfbench/traced.py resolves it for its trace table",
    "node_centric_loss": "perfbench/traced.py resolves it for its trace table",
    "treecut_loss": "perfbench/traced.py resolves it for its trace table",
}


def public_callables(tree: ast.Module) -> dict[str, str]:
    """Qualified name -> bare name of each public function and public method
    of a public class defined at module level."""
    found = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            found[node.name] = node.name
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    found[f"{node.name}.{item.name}"] = item.name
    return found


def used_names(tree: ast.Module) -> set[str]:
    """Every name read and every attribute looked up in a module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_public_callables_are_called_in_the_package():
    # Matched by name, so a same-named local or attribute elsewhere counts
    # as a use; the re-exports in __init__ do not.
    modules = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / "src" / "hiertune").glob("*.py"))
    }
    used = set().union(*(used_names(t) for name, t in modules.items() if name != "__init__.py"))
    uncalled = {
        qualified
        for tree in modules.values()
        for qualified, name in public_callables(tree).items()
        if name not in used
    }
    assert uncalled == set(UNCALLED_ALLOWED)

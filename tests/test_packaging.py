"""Packaging checks: declared dependencies, no public code nothing calls,
no private name shared between modules unlisted, a package namespace that
resolves on first use, and the modules each command imports."""
from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hiertune

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
    "gradient_check": "tests/test_acceptance.py imports it",
    "enumerate_treecuts": "tests/test_acceptance.py imports it",
    "leaf_accuracy": "tests/test_acceptance.py imports it",
    "hca": "tests/test_acceptance.py imports it; perfbench/traced.py resolves it",
    "mta": "tests/test_acceptance.py imports it; perfbench/traced.py resolves it",
    "TaxonomyTree.target_in": "perfbench/traced.py resolves it for its trace table",
    "node_centric_loss": "perfbench/traced.py resolves it for its trace table",
    "treecut_loss": "perfbench/traced.py resolves it for its trace table",
    "predict": "README's library example; perfbench/traced.py resolves it",
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


def loaded_names(tree: ast.Module) -> tuple[set[str], set[str]]:
    """Every name read in a module, and every attribute read in it."""
    names, attrs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attrs.add(node.attr)
    return names, attrs


def test_public_callables_are_called_in_the_package():
    # A function counts as used where its name is read, a method where an
    # attribute of its name is read; a same-named local read elsewhere
    # still counts, a stored name or a field declaration does not, and the
    # re-exports in __init__ do not.
    modules = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / "src" / "hiertune").glob("*.py"))
    }
    loaded = [loaded_names(t) for name, t in modules.items() if name != "__init__.py"]
    names = set().union(*(n for n, _ in loaded))
    attrs = set().union(*(a for _, a in loaded))
    uncalled = {
        qualified
        for tree in modules.values()
        for qualified, name in public_callables(tree).items()
        if name not in (attrs if "." in qualified else names)
    }
    assert uncalled == set(UNCALLED_ALLOWED)


# Underscore names one module of the package imports from another, as
# (importer, module.name), each with the reason it is shared.
PRIVATE_IMPORTS_ALLOWED = {
    ("fileio", "taxonomy._lines"): "every input file is split into lines by one reader",
    ("fileio", "taxonomy._records"): "every input file skips blank and comment lines alike",
    ("cli", "treecut._reachable"): "sample-cuts tells a rate out of cuts from a search that gave up",
    ("trainer", "objectives._forward"): "the end-of-run check needs the loss, not its gradient",
}


def private_imports(path: Path) -> set[tuple[str, str]]:
    """(importer, module.name) for each underscore name a module imports
    from another module of the package."""
    return {
        (path.stem, f"{node.module}.{alias.name}")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name.startswith("_")
    }


def test_cross_module_private_imports_are_listed():
    found = set().union(
        *(private_imports(path) for path in sorted((ROOT / "src" / "hiertune").glob("*.py")))
    )
    assert found == set(PRIVATE_IMPORTS_ALLOWED)


def called_names(tree: ast.Module) -> set[str]:
    """The name or attribute each call in a module is made through."""
    return {
        node.func.id if isinstance(node.func, ast.Name) else node.func.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))
    }


def test_only_cli_opens_files_and_no_module_splits_lines_itself():
    # Every input is opened by cli and split into lines by taxonomy's one
    # reader, so all of them break lines and report bad bytes alike.
    for path in sorted((ROOT / "src" / "hiertune").glob("*.py")):
        called = called_names(ast.parse(path.read_text(encoding="utf-8")))
        assert "open" not in called or path.name == "cli.py", f"{path.name} calls open"
        assert not called & {"read_text", "splitlines"}, f"{path.name} reads or splits text"


def test_every_public_name_is_its_defining_modules_object():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert len(hiertune.__all__) == 35 and hiertune.__version__ == project["version"]
    for name in hiertune.__all__:
        if name != "__version__":
            value = getattr(hiertune, name)
            assert value.__module__.startswith("hiertune.")
            assert getattr(sys.modules[value.__module__], name) is value, name


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from hiertune import *", namespace)
    for name in hiertune.__all__:
        assert namespace[name] is getattr(hiertune, name)
    assert set(hiertune.__all__) <= set(dir(hiertune))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        hiertune.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from hiertune import no_such_name", {})


def modules_after(code: str) -> set[str]:
    """The modules a child interpreter holds once it has run ``code``."""
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint(*sys.modules)"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


# The package modules each command imports besides the package, cli and
# the three every command needs: fileio, classifier and taxonomy.
COMMAND_MODULES = {
    "validate": set(),
    "sample-cuts": {"rng", "treecut"},
    "train": {"objectives", "rng", "trainer", "treecut"},
    "eval": {"metrics", "rng", "treecut"},
    "gen-synth": {"rng", "synth"},
}


def test_each_command_imports_only_the_modules_it_runs(tmp_path):
    loaded = modules_after("import hiertune")
    assert {m for m in loaded if m.startswith(("hiertune", "numpy"))} == {"hiertune"}
    assert "hiertune.fileio" in modules_after("import hiertune\nhiertune.fileio")
    data, run = tmp_path / "data", tmp_path / "run"
    inputs = ["--tree", str(data / "tree.txt"), "--emb", str(data / "embeddings.tsv"),
              "--samples", str(data / "samples.tsv")]
    argv = {
        "gen-synth": ["--out", str(data), "--leaves", "4", "--depth", "2", "--dim", "6",
                      "--per-leaf", "2"],
        "validate": ["--tree", str(data / "tree.txt")],
        "sample-cuts": ["--tree", str(data / "tree.txt"), "--count", "2"],
        "train": [*inputs, "--out", str(run), "--epochs", "1"],
        "eval": [*inputs, "--params", str(run / "params.txt"), "--out", str(run), "--T", "1"],
    }
    assert argv.keys() == COMMAND_MODULES.keys()
    for command, args in argv.items():  # in order: each reads what the one before wrote
        # main with no argv, as the console script and python -m call it,
        # which freezes the import heap
        modules = modules_after(
            f"import gc, sys\nfrom hiertune.cli import main\nsys.argv[1:] = {[command, *args]!r}\n"
            "if main() or not gc.get_freeze_count(): sys.exit(1)")
        expected = {"hiertune", "hiertune.cli", "hiertune.fileio", "hiertune.classifier",
                    "hiertune.taxonomy"}
        assert {m for m in modules if m.startswith("hiertune")} == expected | {
            f"hiertune.{m}" for m in COMMAND_MODULES[command]}, command
        # train digests its map; gen-synth's numpy.random imports hashlib
        assert "hashlib" not in modules or command in ("train", "gen-synth"), command

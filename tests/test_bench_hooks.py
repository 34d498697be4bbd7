"""The benchmark's hooks into the package must hold.

``perfbench/traced.py`` wraps package functions by module and attribute
path. A rename in the package would otherwise surface only as a crash of
a traced benchmark run, so every entry is resolved here. ``perfbench/run.py``
checks each ``train`` output with the package's own loader and digest, so
that check is run here on a real ``train`` output.
"""
from __future__ import annotations

import contextlib
import importlib
import importlib.util
import io
import sys
from pathlib import Path

from hiertune import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACED_PY = PERFBENCH / "traced.py"
RUN_PY = PERFBENCH / "run.py"


def load_by_path(name: str, path: Path, monkeypatch):
    """The module at ``path``, registered as ``name`` until the test ends."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # traced.py prepends to it
    traced = load_by_path("perfbench_traced", TRACED_PY, monkeypatch)
    assert traced.TRACED
    for span, (module, attr, _) in traced.TRACED.items():
        owner = importlib.import_module(module)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{span}: {module}.{attr} does not resolve"
            owner = getattr(owner, part)
        assert callable(owner), span
    for module in traced.CALLERS:
        importlib.import_module(module)


def test_benchmark_train_check_accepts_a_real_train_output(tmp_path, monkeypatch):
    # run.py sets the BLAS thread variables and imports its sibling
    # ``spans`` when it loads; both are undone after the test.
    monkeypatch.setattr(sys, "path", [str(PERFBENCH), *sys.path])
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(name, "1")
    run = load_by_path("perfbench_run", RUN_PY, monkeypatch)
    data, out = tmp_path / "data", tmp_path / "run"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([
            "gen-synth", "--out", str(data), "--leaves", "4", "--depth", "2",
            "--dim", "8", "--per-leaf", "6", "--noise", "0.4", "--seed", "0",
        ]) == 0
        assert cli.main([
            "train", "--tree", str(data / "tree.txt"), "--emb", str(data / "embeddings.tsv"),
            "--samples", str(data / "samples.tsv"), "--out", str(out), "--epochs", "2",
        ]) == 0
    assert run.check_train(out) is None

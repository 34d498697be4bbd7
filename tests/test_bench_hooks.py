"""The benchmark's trace table must name functions that exist.

``perfbench/traced.py`` wraps package functions by module and attribute
path. A rename in the package would otherwise surface only as a crash of
a traced benchmark run, so every entry is resolved here.
"""
from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

TRACED_PY = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"


def test_every_traced_function_resolves(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # traced.py prepends to it
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED_PY)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    assert traced.TRACED
    for span, (module, attr, _) in traced.TRACED.items():
        owner = importlib.import_module(module)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{span}: {module}.{attr} does not resolve"
            owner = getattr(owner, part)
        assert callable(owner), span
    for module in traced.CALLERS:
        importlib.import_module(module)

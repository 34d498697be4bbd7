"""Run one hiertune command with layer spans recorded, then save the spans.

Usage::

    python3 perfbench/traced.py SPANS.npz cli ARGS...       # hiertune CLI
    python3 perfbench/traced.py SPANS.npz genlarge ARGS...  # large-tree generator

The package binds names with ``from .x import y``, so wrapping a function in
its defining module alone would miss most callers. ``install`` therefore
replaces the function under every module-level name in hiertune that refers
to it; methods are wrapped on their class. The generator calls through
module attributes (``fileio.write_samples``), so it sees the wrappers too.
Nothing in the package itself changes.
"""
from __future__ import annotations

import importlib
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from spans import SpanRecorder  # noqa: E402


def _values_loaded(rec: SpanRecorder, result) -> None:
    """Count the numbers a loader produced, whatever its parsing strategy."""
    if hasattr(result, "features"):
        n = result.features.size
    elif hasattr(result, "vectors"):
        n = result.vectors.size - result.dim  # the root row is not in the file
    else:
        n = result.weight.size + result.bias.size + 1  # A, c and tau
    rec.count("fileio.values_parsed", n)


def _cuts_drawn(rec: SpanRecorder, result) -> None:
    rec.count("treecut.sample_distinct.cuts", len(result))


def _cuts_scored(rec: SpanRecorder, result) -> None:
    rec.count("metrics.cuts_scored", sum(len(group) for group in result[1]))


def _train_steps(rec: SpanRecorder, result) -> None:
    rec.count("trainer.steps", len(result[1].records))


# span name -> (defining module, attribute path, optional result counter)
TRACED = {
    "fileio.load_samples": ("hiertune.fileio", "load_samples", _values_loaded),
    "fileio.load_embeddings": ("hiertune.fileio", "load_embeddings", _values_loaded),
    "fileio.load_params": ("hiertune.fileio", "load_params", _values_loaded),
    "fileio.write_params": ("hiertune.fileio", "write_params", None),
    "fileio.write_samples": ("hiertune.fileio", "write_samples", None),
    "taxonomy.load_tree": ("hiertune.taxonomy", "load_tree", None),
    "taxonomy.target_in": ("hiertune.taxonomy", "TaxonomyTree.target_in", None),
    "taxonomy.treecut_label_set": (
        "hiertune.taxonomy", "TaxonomyTree.treecut_label_set", None),
    "treecut.build_matrices": ("hiertune.treecut", "build_matrices", None),
    "treecut.sample_treecut": ("hiertune.treecut", "sample_treecut", None),
    "treecut.sample_distinct": ("hiertune.treecut", "sample_distinct", _cuts_drawn),
    "rng.shuffle": ("hiertune.rng", "Rng64.shuffle", None),
    "classifier.predict": ("hiertune.classifier", "predict", None),
    "classifier.SampleSet.take": ("hiertune.classifier", "SampleSet.take", None),
    "objectives.total_loss": ("hiertune.objectives", "total_loss", None),
    "objectives.node_centric_loss": ("hiertune.objectives", "node_centric_loss", None),
    "objectives.treecut_loss": ("hiertune.objectives", "treecut_loss", None),
    "trainer.train": ("hiertune.trainer", "train", _train_steps),
    "metrics.leaf_accuracy": ("hiertune.metrics", "leaf_accuracy", None),
    "metrics.hca": ("hiertune.metrics", "hca", None),
    "metrics.mta": ("hiertune.metrics", "mta", _cuts_scored),
    "synth.gen_synth": ("hiertune.synth", "gen_synth", None),
}

# Every module whose globals may hold a traced function.
CALLERS = (
    "hiertune.cli", "hiertune.classifier", "hiertune.fileio", "hiertune.metrics",
    "hiertune.objectives", "hiertune.rng", "hiertune.synth", "hiertune.taxonomy",
    "hiertune.trainer", "hiertune.treecut",
)


def install(rec: SpanRecorder) -> None:
    """Wrap every traced callable at each place it is looked up."""
    callers = [importlib.import_module(m) for m in CALLERS]
    for span, (module, attr, on_result) in TRACED.items():
        owner = importlib.import_module(module)
        *cls_path, name = attr.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        original = getattr(owner, name)
        wrapped = rec.wrap(span, original, on_result)
        if cls_path:
            setattr(owner, name, wrapped)
            continue
        for mod in callers:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] not in ("cli", "genlarge"):
        print("usage: traced.py SPANS.npz {cli|genlarge} ARGS...", file=sys.stderr)
        return 2
    out, target, args = argv[0], argv[1], argv[2:]
    rec = SpanRecorder()
    install(rec)
    entry = importlib.import_module("hiertune.cli" if target == "cli" else "genlarge")
    try:
        return entry.main(args)
    finally:
        rec.save(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

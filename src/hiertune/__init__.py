"""Taxonomy-aware classifier tuning and evaluation.

The library turns a class hierarchy into training signal and evaluation
criteria for a cosine-similarity classifier: sample pruned-subtree label
sets, train a small affine map over frozen node embeddings against both
local (per-node) and global (per-cut) cross-entropies, and score models
on flat, path-consistent, and granularity-averaged accuracy. Every
random choice is seeded; equal inputs give byte-equal outputs.

Each public name is imported from its defining module on first use
(PEP 562), so ``import hiertune`` loads no submodule and no numpy, and a
CLI command compiles only the modules it runs.
"""
import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it, written grouped by module.
_EXPORTS = {
    name: module
    for module, names in {
        "classifier": ("EmbeddingTable", "PromptParams", "SampleSet", "predict"),
        "metrics": ("CutResult", "MetricsReport", "evaluate", "hca", "leaf_accuracy", "mta",
                    "score_blocks"),
        "objectives": ("LossValue", "gradient_check", "node_centric_loss", "total_loss",
                       "treecut_loss"),
        "rng": ("Rng64", "derive_seed"),
        "synth": ("gen_synth",),
        "taxonomy": ("LabelSet", "TaxonomyTree", "TreeFormatError", "load_tree"),
        "trainer": ("TrainConfig", "TrainLog", "cosine_lr", "train"),
        "treecut": ("blocked_mask", "build_matrices", "correct_flags", "cut_from_flags",
                    "enumerate_treecuts", "sample_distinct", "sample_treecut"),
    }.items()
    for name in names
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    """A public name from its module, or a submodule not yet imported."""
    module = _EXPORTS.get(name)
    if module is None:
        try:
            return importlib.import_module(f"{__name__}.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

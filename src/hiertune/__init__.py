"""Taxonomy-aware classifier tuning and evaluation.

The library turns a class hierarchy into training signal and evaluation
criteria for a cosine-similarity classifier: sample pruned-subtree label
sets, train a small affine map over frozen node embeddings against both
local (per-node) and global (per-cut) cross-entropies, and score models
on flat, path-consistent, and granularity-averaged accuracy. Every
random choice is seeded; equal inputs give byte-equal outputs.
"""
from .classifier import EmbeddingTable, PromptParams, SampleSet, predict
from .metrics import (
    CutResult,
    MetricsReport,
    evaluate,
    hca,
    leaf_accuracy,
    mta,
    score_blocks,
)
from .objectives import LossValue, gradient_check, node_centric_loss, total_loss, treecut_loss
from .rng import Rng64, derive_seed
from .synth import gen_synth
from .taxonomy import LabelSet, TaxonomyTree, TreeFormatError, load_tree
from .trainer import TrainConfig, TrainLog, cosine_lr, train
from .treecut import (
    blocked_mask,
    build_matrices,
    correct_flags,
    cut_from_flags,
    enumerate_treecuts,
    sample_distinct,
    sample_treecut,
)

__version__ = "0.1.0"

__all__ = [
    "EmbeddingTable",
    "PromptParams",
    "SampleSet",
    "predict",
    "CutResult",
    "MetricsReport",
    "evaluate",
    "hca",
    "leaf_accuracy",
    "mta",
    "score_blocks",
    "LossValue",
    "gradient_check",
    "node_centric_loss",
    "total_loss",
    "treecut_loss",
    "Rng64",
    "derive_seed",
    "gen_synth",
    "LabelSet",
    "TaxonomyTree",
    "TreeFormatError",
    "load_tree",
    "TrainConfig",
    "TrainLog",
    "cosine_lr",
    "train",
    "blocked_mask",
    "build_matrices",
    "correct_flags",
    "cut_from_flags",
    "enumerate_treecuts",
    "sample_distinct",
    "sample_treecut",
    "__version__",
]

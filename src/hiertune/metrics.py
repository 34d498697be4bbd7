"""Evaluation: flat leaf accuracy plus two hierarchy-aware scores.

Leaf accuracy ignores the tree. Consistent accuracy also requires every
decision along the true root path to stay on that path, so it penalizes
models that are right at the leaf for locally wrong reasons. Treecut
accuracy scores the model on randomly coarsened vocabularies and averages,
probing robustness to label granularity. All sampling is seeded, so a
report is a pure function of its inputs.

Every prediction is ``classifier.predict``: an argmax over a column
subset of one score matrix, the cosines of the samples against every
non-root node in the tree's column layout, which ``score_blocks`` builds
in blocks of ``EVAL_BLOCK`` samples. Ties go to the smallest node index.
A prediction is right exactly when it is the true leaf or one of its
ancestors, since every vocabulary scored is an antichain that covers the
leaf.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .classifier import (
    EmbeddingTable,
    PromptParams,
    SampleSet,
    predict,
    unit_rows,
    unit_weights,
)
from .rng import MASK64, Rng64, derive_seed
from .taxonomy import TaxonomyTree
from .treecut import build_matrices, sample_distinct

# Samples per score block. Eval holds one block's scores (and a few
# temporaries of the same shape) at a time, so its memory stays bounded
# by EVAL_BLOCK x (n_nodes - 1) floats whatever the sample count. At 256
# the eval peak on a 1,250-node tree stays below the training peak.
EVAL_BLOCK = 256


@dataclass(frozen=True)
class CutResult:
    """One evaluated treecut: its rate, fringe size, and accuracy."""

    beta: float
    size: int
    accuracy: float


@dataclass(frozen=True)
class MetricsReport:
    """All metrics of one evaluation run.

    ``cuts`` lists every treecut scored, grouped by rate in draw order;
    ``mta_per_beta`` and ``cuts_used`` align with ``betas``. ``mta`` is
    the unweighted mean over all cuts pooled, which differs from the mean
    of per-rate means only when some rate yields fewer distinct cuts.
    """

    leaf_acc: float
    hca: float
    mta: float
    betas: tuple[float, ...]
    mta_per_beta: tuple[float, ...]
    cuts_used: tuple[tuple[int, ...], ...]
    cuts: tuple[CutResult, ...]
    seed: int
    cuts_per_beta: int


def _require_data(data: SampleSet) -> None:
    if len(data) == 0:
        raise ValueError("evaluation data is empty")


def score_blocks(
    tree: TaxonomyTree, params: PromptParams, table: EmbeddingTable, data: SampleSet
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (leaf labels, scores) per ``EVAL_BLOCK`` samples.

    ``scores`` holds the cosines of the block's features against the
    mapped weights of every non-root node, one column per node in the
    tree's layout order; the weights are built once for all blocks.
    """
    _require_data(data)
    _, what, _ = unit_weights(params, table, tree.layout.nodes)
    for lo in range(0, len(data), EVAL_BLOCK):
        block = np.asarray(data.features[lo : lo + EVAL_BLOCK], dtype=np.float64)
        fhat, _ = unit_rows(block, "features")
        yield data.leaf_labels[lo : lo + EVAL_BLOCK], fhat @ what.T


def _on_path(tree: TaxonomyTree, leaves: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Whether each predicted node is its sample's leaf or one of its ancestors."""
    return tree.layout.ancestors[leaves, nodes]


def leaf_accuracy(
    tree: TaxonomyTree, params: PromptParams, table: EmbeddingTable, data: SampleSet
) -> float:
    """Fraction of samples whose leaf-vocabulary prediction is the true leaf."""
    leaves = np.asarray(tree.leaf_nodes, dtype=np.int64)
    right = 0
    for labels, scores in score_blocks(tree, params, table, data):
        right += int((predict(tree, scores, leaves) == labels).sum())
    return right / len(data)


def hca(
    tree: TaxonomyTree, params: PromptParams, table: EmbeddingTable, data: SampleSet
) -> float:
    """Fraction of samples correct at the leaf and at every ancestor.

    A sample succeeds when its leaf prediction is right and, for each
    ancestor of the true leaf, the prediction over that node's children
    picks the child on the true path. One-child ancestors are forced
    choices and always succeed, so only branching nodes are scored.
    Never exceeds leaf accuracy.
    """
    lay = tree.layout
    leaves = np.asarray(tree.leaf_nodes, dtype=np.int64)
    internal = np.asarray(tree.internal_nodes, dtype=np.int64)
    branching = lay.sizes >= 2
    right = 0
    for labels, scores in score_blocks(tree, params, table, data):
        ok = predict(tree, scores, leaves) == labels
        # Each internal node's decision: the first column of its group
        # that reaches the group maximum, i.e. its smallest best child.
        top = np.maximum.reduceat(scores, lay.starts, axis=1)
        first = np.where(scores == top[:, lay.group], np.arange(len(lay.nodes)), len(lay.nodes))
        decided = lay.nodes[np.minimum.reduceat(first, lay.starts, axis=1)]
        scored = lay.ancestors[np.ix_(labels, internal)] & branching
        wrong = scored & ~_on_path(tree, labels[:, None], decided)
        ok &= ~wrong.any(axis=1)
        right += int(ok.sum())
    return right / len(data)


def mta(
    tree: TaxonomyTree,
    params: PromptParams,
    table: EmbeddingTable,
    data: SampleSet,
    betas: tuple[float, ...],
    cuts_per_beta: int,
    seed: int,
) -> tuple[float, tuple[tuple[CutResult, ...], ...]]:
    """Mean accuracy over sampled treecut vocabularies.

    For each rate, up to ``cuts_per_beta`` distinct cuts come from a
    stream seeded by (seed XOR (rate index + 1)), so appending a rate
    never disturbs earlier draws. A sample is right under a cut when the
    prediction equals the cut member covering its true leaf. Returns the
    pooled mean over every cut drawn, plus per-rate groups.
    """
    _require_data(data)
    if not betas:
        raise ValueError("betas must be non-empty")
    if cuts_per_beta < 1:
        raise ValueError("cuts_per_beta must be at least 1")
    if not 0 <= seed <= MASK64:  # derive_seed would fold it into range
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    bundle = build_matrices(tree)
    drawn = [
        sample_distinct(tree, bundle, beta, cuts_per_beta, Rng64(derive_seed(seed, bi + 1)))
        for bi, beta in enumerate(betas)
    ]
    members = [np.asarray(cut.members, dtype=np.int64) for cuts in drawn for cut in cuts]
    right = np.zeros(len(members), dtype=np.int64)
    for labels, scores in score_blocks(tree, params, table, data):
        for k, cut in enumerate(members):
            right[k] += int(_on_path(tree, labels, predict(tree, scores, cut)).sum())
    accuracy = iter((right / len(data)).tolist())
    groups = tuple(
        tuple(CutResult(beta=float(beta), size=len(cut), accuracy=next(accuracy)) for cut in cuts)
        for beta, cuts in zip(betas, drawn)
    )
    pooled = float(np.mean([r.accuracy for group in groups for r in group]))
    return pooled, groups


def evaluate(
    tree: TaxonomyTree,
    params: PromptParams,
    table: EmbeddingTable,
    data: SampleSet,
    betas: tuple[float, ...],
    cuts_per_beta: int,
    seed: int,
) -> MetricsReport:
    """All three metrics in one report."""
    pooled, groups = mta(tree, params, table, data, betas, cuts_per_beta, seed)
    return MetricsReport(
        leaf_acc=leaf_accuracy(tree, params, table, data),
        hca=hca(tree, params, table, data),
        mta=pooled,
        betas=tuple(float(b) for b in betas),
        mta_per_beta=tuple(
            float(np.mean([r.accuracy for r in group])) for group in groups
        ),
        cuts_used=tuple(tuple(r.size for r in group) for group in groups),
        cuts=tuple(r for group in groups for r in group),
        seed=seed,
        cuts_per_beta=cuts_per_beta,
    )

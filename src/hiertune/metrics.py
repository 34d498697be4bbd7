"""Evaluation: flat leaf accuracy plus two hierarchy-aware scores.

Leaf accuracy ignores the tree. Consistent accuracy also requires every
decision along the true root path to stay on that path, so it penalizes
models that are right at the leaf for locally wrong reasons. Treecut
accuracy scores the model on randomly coarsened vocabularies and averages,
probing robustness to label granularity. All sampling is seeded, so a
report is a pure function of its inputs.

Every decision is an argmax over a column subset of one score matrix, the
cosines of the samples against every non-root node in the tree's column
layout, which ``score_blocks`` builds a block of samples at a time. Ties go
to the smallest node index. Every vocabulary, the leaf set (the β = 0 cut)
included, is one argmax compared with one target lookup, the member on the
leaf's root path that ``ColumnLayout.targets`` gives the treecut loss too;
hca decides only at the branching nodes on each sample's root path.
``classifier.predict`` is kept for library callers; eval does not call it.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .classifier import EmbeddingTable, PromptParams, SampleSet, unit_rows, unit_weights
from .rng import Rng64, check_seed, derive_seed
from .taxonomy import LabelSet, TaxonomyTree, _path_groups
from .treecut import build_matrices, sample_distinct

# At most EVAL_BLOCK samples, and EVAL_BYTES of scores, per score block.
# Eval holds one block's scores at a time and decides only on each sample's
# root-path groups or a cut's columns, so its memory is bounded at any tree
# width. Larger blocks on narrow trees raised resident memory, not speed.
EVAL_BLOCK = 256
EVAL_BYTES = 5 << 19  # 2.5 MiB


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


def _require_data(table: EmbeddingTable, data: SampleSet) -> None:
    if len(data) == 0:
        raise ValueError("evaluation data is empty")
    if data.features.shape[1] != table.dim:
        raise ValueError(f"sample dim {data.features.shape[1]} is not embedding dim {table.dim}")


def score_blocks(
    tree: TaxonomyTree, params: PromptParams, table: EmbeddingTable, data: SampleSet
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (leaf labels, scores) per block of samples.

    ``scores`` holds the cosines of the block's features against the
    mapped weights of every non-root node, one column per node in the
    tree's layout order; the weights are built once for all blocks. A
    row norm that overflows is a ValueError, not a numpy warning.
    """
    _require_data(table, data)
    with np.errstate(over="ignore"):
        what, _ = unit_weights(params, table.vectors[tree.layout.nodes])
    rows = max(1, min(EVAL_BLOCK, EVAL_BYTES // (8 * len(what))))
    for lo in range(0, len(data), rows):
        block = np.asarray(data.features[lo : lo + rows], dtype=np.float64)
        with np.errstate(over="ignore"):
            fhat, _ = unit_rows(block, "features")
        yield data.leaf_labels[lo : lo + rows], fhat @ what.T


def _accuracies(
    tree: TaxonomyTree, params: PromptParams, table: EmbeddingTable, data: SampleSet,
    cuts: tuple[LabelSet, ...] = (),
) -> tuple[float, float, list[float]]:
    """Leaf accuracy, hca and each cut's accuracy, from one pass over the score
    blocks. Vocabulary 0 is the leaf set, the β = 0 cut; each is right where its
    columns' argmax is the leaf's target position, and hca reuses row 0's hits."""
    lay, leaves = tree.layout, np.asarray(tree.leaf_nodes, dtype=np.int64)
    vocabularies = [leaves, *(np.asarray(cut.members, dtype=np.int64) for cut in cuts)]
    columns = [lay.column[members] for members in vocabularies]
    targets = np.zeros((len(columns), tree.n_nodes), dtype=np.int32)  # at each leaf
    for k, members in enumerate(vocabularies):
        targets[k, leaves] = lay.targets(members, leaves)
    picked = np.empty((len(columns), EVAL_BLOCK), dtype=np.intp)
    right, hca_right = np.zeros(len(columns), dtype=np.int64), 0
    for labels, scores in score_blocks(tree, params, table, data):
        for row, vocabulary in zip(picked, columns):
            np.argmax(np.take(scores, vocabulary, axis=1), axis=1, out=row[: len(labels)])
        hits = picked[:, : len(labels)] == targets[:, labels]
        right += hits.sum(axis=1)
        # A branching node on a true path picks its group's first maximal column.
        rows, _, sizes, seg, target, flat_rows, cols = _path_groups(tree, labels)
        v = scores[flat_rows, cols]
        top = np.repeat(np.maximum.reduceat(v, seg), sizes)
        first = np.minimum.reduceat(np.where(v == top, np.arange(len(v)), len(v)), seg)
        hits[0, rows[first != target]] = False  # row 0 is counted: now hca's leaf test
        hca_right += int(hits[0].sum())
    leaf_acc, *cut_acc = (right / len(data)).tolist()
    return leaf_acc, hca_right / len(data), cut_acc


def leaf_accuracy(
    tree: TaxonomyTree, params: PromptParams, table: EmbeddingTable, data: SampleSet
) -> float:
    """Fraction of samples whose leaf-vocabulary prediction is the true leaf."""
    return _accuracies(tree, params, table, data)[0]


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
    return _accuracies(tree, params, table, data)[1]


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
    report = evaluate(tree, params, table, data, betas, cuts_per_beta, seed)
    cuts = iter(report.cuts)
    return report.mta, tuple(tuple(next(cuts) for _ in sizes) for sizes in report.cuts_used)


def evaluate(
    tree: TaxonomyTree,
    params: PromptParams,
    table: EmbeddingTable,
    data: SampleSet,
    betas: tuple[float, ...],
    cuts_per_beta: int,
    seed: int,
) -> MetricsReport:
    """All three metrics in one report, from one pass over the score blocks.

    The treecuts are drawn first, as ``mta`` describes; the pass then
    decides the leaf set and each cut once per block.
    """
    _require_data(table, data)
    if not betas:
        raise ValueError("betas must be non-empty")
    repeated = [b for i, b in enumerate(betas) if b in betas[:i]]
    if repeated:  # the report names each rate's row by its value
        raise ValueError(f"betas must be distinct: {float(repeated[0])!r} is repeated")
    if cuts_per_beta < 1:
        raise ValueError("cuts_per_beta must be at least 1")
    check_seed(seed)  # derive_seed would fold it into range
    layout = build_matrices(tree)
    drawn = [
        sample_distinct(tree, layout, beta, cuts_per_beta, Rng64(derive_seed(seed, bi + 1)))
        for bi, beta in enumerate(betas)
    ]
    flat = tuple(cut for cuts in drawn for cut in cuts)
    leaf_acc, hca_acc, cut_acc = _accuracies(tree, params, table, data, flat)
    accuracy = iter(cut_acc)
    groups = tuple(
        tuple(CutResult(beta=float(beta), size=len(cut), accuracy=next(accuracy)) for cut in cuts)
        for beta, cuts in zip(betas, drawn)
    )
    return MetricsReport(
        leaf_acc=leaf_acc,
        hca=hca_acc,
        mta=float(np.mean(cut_acc)),
        betas=tuple(float(b) for b in betas),
        mta_per_beta=tuple(float(np.mean([r.accuracy for r in group])) for group in groups),
        cuts_used=tuple(tuple(r.size for r in group) for group in groups),
        cuts=tuple(r for group in groups for r in group),
        seed=seed,
        cuts_per_beta=cuts_per_beta,
    )

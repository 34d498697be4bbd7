"""Reference implementations the vectorised code is tested against.

These are the per-vocabulary, per-node and per-sample versions of the
losses, the metrics and the treecut check, kept as they were before the
library moved to one score matrix per batch. They are slow and simple on
purpose: each loops the way the definitions read. The treecut sampler is
kept as it was before its masks became boolean slices: an integer bundle
with a {-1, 0, 1} relation matrix, flags repaired by comparing kept
ancestor counts, and a flag type that records whether the repair ran.
Nothing in the package imports this module.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hiertune.classifier import (
    EmbeddingTable,
    PromptParams,
    SampleSet,
    predict,
    unit_rows,
)
from hiertune.metrics import CutResult
from hiertune.objectives import LossValue
from hiertune.rng import Rng64, derive_seed
from hiertune.taxonomy import KIND_TREECUT, LabelSet, TaxonomyTree


def treecut_label_set(tree: TaxonomyTree, members: tuple[int, ...] | list[int]) -> LabelSet:
    """Validate ``members`` as a treecut fringe by walking ancestor chains."""
    unique = sorted(set(members))
    if len(unique) != len(members):
        raise ValueError("treecut members must be distinct")
    member_set = set(unique)
    if tree.root in member_set:
        raise ValueError("treecut must not contain the root")
    for m in unique:
        tree._check_index(m)
        if member_set.intersection(tree.ancestors(m)):
            raise ValueError(f"treecut is not an antichain at {tree.names[m]!r}")
    for leaf in tree.leaf_nodes:
        covers = sum(1 for n in (leaf, *tree.ancestors(leaf)) if n in member_set)
        if covers != 1:
            raise ValueError(
                f"treecut does not cover leaf {tree.names[leaf]!r} exactly once"
            )
    return LabelSet(tuple(unique), KIND_TREECUT)


# ---------------------------------------------------------------- treecut

DISTINCT_DRAW_FACTOR = 100


@dataclass(frozen=True)
class MatrixBundle:
    """Dense integer relation matrices of one tree.

    dependency        K x K; 1 where the column node is an ancestor-or-self
                      of the row node, limited to internal nodes.
    dependency_counts row sums of ``dependency`` (ancestor chain lengths).
    relation          K x L in {-1, 0, 1}: 1 where the label is an
                      ancestor-or-self of the internal node, 0 where it is
                      a strict descendant, -1 where the two are unrelated.
    ancestor_mask     relation clamped to {0, 1}: the 1-entries only.
    descendant_mask   1 where relation is 0: the strict-descendant pairs.
    """

    internal_nodes: tuple[int, ...]
    labels: tuple[int, ...]
    dependency: np.ndarray
    dependency_counts: np.ndarray
    relation: np.ndarray
    ancestor_mask: np.ndarray
    descendant_mask: np.ndarray

    @property
    def n_internal(self) -> int:
        return len(self.internal_nodes)


@dataclass(frozen=True)
class KeepFlags:
    """Keep flags over the internal nodes; ``corrected`` once repaired."""

    kept: np.ndarray
    corrected: bool


def build_matrices(tree: TaxonomyTree) -> MatrixBundle:
    """The relation matrices, built from ancestor chains."""
    n = tree.n_nodes
    if len(tree.leaf_nodes) < 2:
        raise ValueError("tree must have at least two leaves")
    anc = np.zeros((n, n), dtype=bool)
    for v in range(n):
        anc[v, v] = True
        anc[v, list(tree.ancestors(v))] = True
    internal = np.asarray(tree.internal_nodes, dtype=np.int64)
    labels = np.arange(1, n, dtype=np.int64)
    dependency = anc[np.ix_(internal, internal)].astype(np.int64)
    up = anc[np.ix_(internal, labels)]
    down = anc[np.ix_(labels, internal)].T
    relation = np.where(up, 1, np.where(down, 0, -1)).astype(np.int64)
    return MatrixBundle(
        internal_nodes=tuple(int(i) for i in internal),
        labels=tuple(int(j) for j in labels),
        dependency=dependency,
        dependency_counts=dependency.sum(axis=1),
        relation=relation,
        ancestor_mask=np.maximum(relation, 0),
        descendant_mask=(1 - np.abs(relation)),
    )


def correct_flags(kept: np.ndarray, bundle: MatrixBundle) -> KeepFlags:
    """Zero flags whose kept-ancestor count falls short of the chain length."""
    kept = np.asarray(kept, dtype=np.int64)
    if kept.shape != (bundle.n_internal,):
        raise ValueError(f"expected {bundle.n_internal} flags, got shape {kept.shape}")
    if not np.isin(kept, (0, 1)).all():
        raise ValueError("flags must be 0 or 1")
    if kept[0] != 1:
        raise ValueError("root flag must be 1")
    repaired = kept * (bundle.dependency @ kept == bundle.dependency_counts)
    return KeepFlags(kept=repaired.astype(np.int64), corrected=True)


def blocked_mask(flags: KeepFlags, bundle: MatrixBundle) -> np.ndarray:
    """Per-label blocked count, as two integer mat-vecs."""
    if not flags.corrected:
        raise ValueError("flags must be chain-corrected first")
    kept = flags.kept
    return bundle.ancestor_mask.T @ kept + bundle.descendant_mask.T @ (1 - kept)


def cut_from_flags(tree: TaxonomyTree, bundle: MatrixBundle, flags: KeepFlags) -> LabelSet:
    blocked = blocked_mask(flags, bundle)
    members = tuple(int(bundle.labels[j]) for j in np.flatnonzero(blocked == 0))
    return treecut_label_set(tree, members)


def sample_treecut(
    tree: TaxonomyTree, bundle: MatrixBundle, beta: float, rng: Rng64
) -> LabelSet:
    """One cut: one uniform draw per non-root internal node, in row order."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must be in [0, 1], got {beta}")
    kept = np.ones(bundle.n_internal, dtype=np.int64)
    for i in range(1, bundle.n_internal):
        kept[i] = 1 if rng.next_unit() >= beta else 0
    return cut_from_flags(tree, bundle, correct_flags(kept, bundle))


def sample_distinct(
    tree: TaxonomyTree, bundle: MatrixBundle, beta: float, count: int, rng: Rng64
) -> tuple[LabelSet, ...]:
    """Distinct cuts in first-draw order; always up to ``100 * count`` draws."""
    if count <= 0:
        raise ValueError("count must be positive")
    seen: dict[tuple[int, ...], LabelSet] = {}
    for _ in range(DISTINCT_DRAW_FACTOR * count):
        cut = sample_treecut(tree, bundle, beta, rng)
        if cut.members not in seen:
            seen[cut.members] = cut
            if len(seen) == count:
                break
    return tuple(seen.values())


# ------------------------------------------------------------- objectives

def _ce_core(
    tree: TaxonomyTree,
    params: PromptParams,
    table: EmbeddingTable,
    labels: LabelSet,
    batch: SampleSet,
) -> tuple[LossValue, np.ndarray]:
    """Mean cross-entropy of ``batch`` against ``labels``, with gradients.

    Samples whose leaf has no label on its root path are skipped; the
    returned mask marks the contributors. The mean runs over contributors
    only.
    """
    if len(labels) < 2:
        raise ValueError("cross-entropy needs at least two labels")
    member_pos = {m: k for k, m in enumerate(labels.members)}
    targets = np.full(len(batch), -1, dtype=np.int64)
    for i, leaf in enumerate(batch.leaf_labels):
        t = tree.target_in(int(leaf), labels)
        if t is not None:
            targets[i] = member_pos[t]
    mask = targets >= 0
    n_contrib = int(mask.sum())
    if n_contrib == 0:
        return LossValue.zero(params.dim), mask

    emb = table.rows(labels.members)
    weights = emb @ params.weight.T + params.bias
    what, wnorm = unit_rows(weights, "label weights")
    vhat, _ = unit_rows(np.asarray(batch.features[mask], dtype=np.float64), "features")
    cos = vhat @ what.T
    z = cos / params.tau
    shift = z - z.max(axis=1, keepdims=True)
    ez = np.exp(shift)
    sez = ez.sum(axis=1, keepdims=True)
    rows = np.arange(n_contrib)
    t = targets[mask]
    value = float(-(shift[rows, t] - np.log(sez[:, 0])).mean())

    # Backprop: softmax-minus-onehot at the cosine logits, then through
    # the weight normalization, then through w = A e + b.
    c = ez / sez
    c[rows, t] -= 1.0
    c /= params.tau * n_contrib
    colsum = (c * cos).sum(axis=0)
    d_weights = (c.T @ vhat - colsum[:, None] * what) / wnorm[:, None]
    return (
        LossValue(value, d_weights.T @ emb, d_weights.sum(axis=0), n_contrib),
        mask,
    )


def cross_entropy_loss(
    tree: TaxonomyTree,
    params: PromptParams,
    table: EmbeddingTable,
    labels: LabelSet,
    batch: SampleSet,
) -> LossValue:
    """Mean cross-entropy of a batch against one label set."""
    if len(batch) == 0:
        raise ValueError("batch is empty")
    loss, _ = _ce_core(tree, params, table, labels, batch)
    return loss


def node_centric_loss(
    tree: TaxonomyTree,
    params: PromptParams,
    table: EmbeddingTable,
    batch: SampleSet,
) -> LossValue:
    """Average of the per-node child-set cross-entropies."""
    if len(batch) == 0:
        raise ValueError("batch is empty")
    n_internal = len(tree.internal_nodes)
    dim = params.dim
    value = 0.0
    grad_w = np.zeros((dim, dim))
    grad_b = np.zeros(dim)
    union = np.zeros(len(batch), dtype=bool)
    for node in tree.internal_nodes:
        if len(tree.children[node]) < 2:
            continue
        part, mask = _ce_core(tree, params, table, tree.node_label_set(node), batch)
        value += part.value
        grad_w += part.grad_weight
        grad_b += part.grad_bias
        union |= mask
    return LossValue(
        value / n_internal,
        grad_w / n_internal,
        grad_b / n_internal,
        int(union.sum()),
    )


def treecut_loss(
    tree: TaxonomyTree,
    params: PromptParams,
    table: EmbeddingTable,
    cut: LabelSet,
    batch: SampleSet,
) -> LossValue:
    """Cross-entropy of a batch against one treecut fringe."""
    if len(batch) == 0:
        raise ValueError("batch is empty")
    if cut.kind != KIND_TREECUT:
        raise ValueError(f"expected a treecut label set, got kind {cut.kind!r}")
    treecut_label_set(tree, cut.members)
    if len(cut) == 1:
        return LossValue.zero(params.dim, n_contributing=len(batch))
    loss, _ = _ce_core(tree, params, table, cut, batch)
    return loss


def total_loss(
    tree: TaxonomyTree,
    params: PromptParams,
    table: EmbeddingTable,
    cut: LabelSet,
    batch: SampleSet,
    lam: float,
) -> tuple[LossValue, LossValue, LossValue]:
    """Treecut loss plus ``lam`` times the node-centric loss."""
    if lam < 0:
        raise ValueError(f"lam must be non-negative, got {lam}")
    dtl = treecut_loss(tree, params, table, cut, batch)
    if lam == 0.0:
        return dtl, dtl, LossValue.zero(params.dim)
    ncl = node_centric_loss(tree, params, table, batch)
    total = LossValue(
        dtl.value + lam * ncl.value,
        dtl.grad_weight + lam * ncl.grad_weight,
        dtl.grad_bias + lam * ncl.grad_bias,
        dtl.n_contributing,
    )
    return total, dtl, ncl


# ---------------------------------------------------------------- metrics

def leaf_accuracy(
    tree: TaxonomyTree, params: PromptParams, table: EmbeddingTable, data: SampleSet
) -> float:
    """Fraction of samples whose leaf-vocabulary prediction is the true leaf."""
    pred = predict(params, table, tree.leaf_label_set(), data.features)
    return float((pred == data.leaf_labels).mean())


def hca(
    tree: TaxonomyTree, params: PromptParams, table: EmbeddingTable, data: SampleSet
) -> float:
    """Fraction of samples correct at the leaf and at every branching ancestor."""
    ok = predict(params, table, tree.leaf_label_set(), data.features) == data.leaf_labels
    node_pred: dict[int, np.ndarray] = {}
    for node in tree.internal_nodes:
        if len(tree.children[node]) >= 2:
            node_pred[node] = predict(
                params, table, tree.node_label_set(node), data.features
            )
    for i in range(len(data)):
        if not ok[i]:
            continue
        below = int(data.leaf_labels[i])
        for node in tree.ancestors(below):
            preds = node_pred.get(node)
            if preds is not None and int(preds[i]) != below:
                ok[i] = False
                break
            below = node
    return float(ok.mean())


def mta(
    tree: TaxonomyTree,
    params: PromptParams,
    table: EmbeddingTable,
    data: SampleSet,
    betas: tuple[float, ...],
    cuts_per_beta: int,
    seed: int,
) -> tuple[float, tuple[tuple[CutResult, ...], ...]]:
    """Mean accuracy over sampled treecut vocabularies, one target list per cut."""
    bundle = build_matrices(tree)
    groups = []
    for bi, beta in enumerate(betas):
        rng = Rng64(derive_seed(seed, bi + 1))
        group = []
        for cut in sample_distinct(tree, bundle, beta, cuts_per_beta, rng):
            targets = np.asarray(
                [tree.target_in(int(leaf), cut) for leaf in data.leaf_labels],
                dtype=np.int64,
            )
            pred = predict(params, table, cut, data.features)
            group.append(
                CutResult(
                    beta=float(beta),
                    size=len(cut),
                    accuracy=float((pred == targets).mean()),
                )
            )
        groups.append(tuple(group))
    pooled = float(np.mean([r.accuracy for group in groups for r in group]))
    return pooled, tuple(groups)

"""Training objectives: cross-entropy over tree-derived vocabularies.

Every vocabulary drawn from the tree is a column subset of one score
matrix: the cosines of a batch against the mapped weights of every
non-root node, in the tree's column layout (``TaxonomyTree.layout``). A
sample's target in a vocabulary is the member on its leaf's root path,
found for a whole batch by ``ColumnLayout.on_path``. The treecut loss is
a softmax over one sampled fringe's columns, teaching global consistency;
the node-centric loss, teaching each local decision, averages every
internal node's child-set cross-entropy, as softmaxes over only the groups
on each sample's root path. Gradients with respect to the affine map are
closed-form throughout and are checked against finite differences in the
test suite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classifier import EmbeddingTable, PromptParams, SampleSet, unit_rows, unit_weights
from .rng import Rng64
from .taxonomy import LabelSet, TaxonomyTree, _path_groups


@dataclass(frozen=True)
class LossValue:
    """A loss with its gradients."""

    value: float
    grad_weight: np.ndarray
    grad_bias: np.ndarray

    @classmethod
    def zero(cls, dim: int) -> LossValue:
        return cls(0.0, np.zeros((dim, dim)), np.zeros(dim))


@dataclass(frozen=True)
class _Scores:
    """Cosines of unit features against unit mapped weights, plus what
    the backward pass needs: embedding rows, unit weights and weight
    norms per column, and the unit features per row."""

    emb: np.ndarray
    what: np.ndarray
    wnorm: np.ndarray
    vhat: np.ndarray
    cos: np.ndarray

    def take(self, cols: np.ndarray) -> _Scores:
        return _Scores(self.emb[cols], self.what[cols], self.wnorm[cols], self.vhat, self.cos[:, cols])


def _score(
    params: PromptParams, table: EmbeddingTable, nodes, features: np.ndarray
) -> _Scores:
    emb, what, wnorm = unit_weights(params, table, nodes)
    vhat, _ = unit_rows(np.asarray(features, dtype=np.float64), "features")
    return _Scores(emb, what, wnorm, vhat, vhat @ what.T)


def _backward(g: np.ndarray, sc: _Scores) -> tuple[np.ndarray, np.ndarray]:
    """Map gradients from ``g``, the loss gradient at the cosines: through
    the weight normalization, then through w = A e + b. Overwrites ``g``. The
    radial part goes 64 rows at a time: one more (columns x dim) array at
    once raised a training step's memory peak."""
    d_weights = g.T @ sc.vhat
    g *= sc.cos
    colsum = g.sum(axis=0)
    for lo in range(0, len(colsum), 64):
        d_weights[lo : lo + 64] -= colsum[lo : lo + 64, None] * sc.what[lo : lo + 64]
    d_weights /= sc.wnorm[:, None]
    return d_weights.T @ sc.emb, d_weights.sum(axis=0)


def _node_centric(tree: TaxonomyTree, sc: _Scores, leaves: np.ndarray, tau: float) -> LossValue:
    """The node-centric loss from scores over every layout column.

    A sample enters the term of each branching internal node on its root
    path; its target there is the group column on that path. Each term is
    the mean over the samples that enter it, and the sum of terms is
    divided by the number of internal nodes, contributing or not. The pairs'
    gradient is scattered into zeros over every column for the backward pass.
    """
    n_groups = len(tree.layout.sizes)
    rows, group, sizes, seg, target, flat_rows, cols = _path_groups(tree, leaves)
    if rows.size == 0:
        # Only a one-leaf chain has no branching node; on any other tree
        # every leaf's root path crosses one, so every sample contributes.
        return LossValue.zero(sc.emb.shape[1])
    counts = np.bincount(group, minlength=n_groups)
    z = sc.cos[flat_rows, cols] / tau
    z -= np.repeat(np.maximum.reduceat(z, seg), sizes)
    picked = z[target]
    np.exp(z, out=z)
    sez = np.add.reduceat(z, seg)
    sums = np.bincount(group, weights=np.log(sez) - picked, minlength=n_groups)
    used = counts > 0
    value = float(np.sum(sums[used] / counts[used])) / n_groups
    # Per pair: softmax minus one-hot, scaled to the mean over its group's samples.
    z /= np.repeat(sez, sizes)
    z[target] -= 1.0
    z /= np.repeat(tau * counts[group], sizes)
    g = np.zeros_like(sc.cos)
    g[flat_rows, cols] = z
    grad_w, grad_b = _backward(g, sc)
    return LossValue(value, grad_w / n_groups, grad_b / n_groups)


def _treecut(tree: TaxonomyTree, sc: _Scores, cut: LabelSet, batch: SampleSet, tau: float) -> LossValue:
    """Mean softmax cross-entropy of the rows over the cut's columns, in member order."""
    n = len(batch)
    if len(cut) == 1:
        return LossValue.zero(sc.emb.shape[1])
    targets = np.argmax(tree.layout.on_path(batch.leaf_labels[:, None], cut.members), axis=1)
    rows = np.arange(n)
    z = sc.cos / tau
    z -= z.max(axis=1, keepdims=True)
    picked = z[rows, targets]
    np.exp(z, out=z)
    sez = z.sum(axis=1, keepdims=True)
    value = float(-(picked - np.log(sez[:, 0])).mean())
    # Softmax minus one-hot at the logits, scaled to the mean over rows.
    z /= sez
    z[rows, targets] -= 1.0
    z /= tau * n
    grad_w, grad_b = _backward(z, sc)
    return LossValue(value, grad_w, grad_b)


def node_centric_loss(
    tree: TaxonomyTree,
    params: PromptParams,
    table: EmbeddingTable,
    batch: SampleSet,
) -> LossValue:
    """Average of the per-node child-set cross-entropies.

    Every internal node counts in the denominator, including those that
    contribute nothing (a single child, or no batch sample passing
    through); their terms are zero.
    """
    if len(batch) == 0:
        raise ValueError("batch is empty")
    sc = _score(params, table, tree.layout.nodes, batch.features)
    return _node_centric(tree, sc, batch.leaf_labels, params.tau)


def treecut_loss(
    tree: TaxonomyTree,
    params: PromptParams,
    table: EmbeddingTable,
    cut: LabelSet,
    batch: SampleSet,
) -> LossValue:
    """Cross-entropy of a batch against one treecut fringe.

    The fringe covers every leaf, so every sample contributes. A
    one-label fringe forces the answer and carries no loss.
    """
    return total_loss(tree, params, table, cut, batch, 0.0)[1]


def total_loss(
    tree: TaxonomyTree,
    params: PromptParams,
    table: EmbeddingTable,
    cut: LabelSet,
    batch: SampleSet,
    lam: float,
) -> tuple[LossValue, LossValue, LossValue]:
    """Treecut loss plus ``lam`` times the node-centric loss.

    Returns (total, treecut part, node part). At ``lam`` 0 the node part
    is skipped entirely, only the cut's columns are scored, and the total
    is the treecut object itself, so a zero weight is exact, not
    approximate. Otherwise one score matrix over every column serves both
    parts; each part's gradient goes through the backward pass on its own
    columns, so the total is exactly the treecut part plus ``lam`` times
    the node part.

    The batch must be non-empty and the cut a valid treecut. This is
    where a hand-built cut enters, and the one check of a sampled one.
    """
    if not 0 <= lam < math.inf:
        raise ValueError(f"lam must be non-negative and finite, got {lam}")
    if len(batch) == 0:
        raise ValueError("batch is empty")
    tree.treecut_label_set(cut.members)
    if lam == 0.0:
        sc = _score(params, table, cut.members, batch.features)
        dtl = _treecut(tree, sc, cut, batch, params.tau)
        return dtl, dtl, LossValue.zero(params.dim)
    lay = tree.layout
    sc = _score(params, table, lay.nodes, batch.features)
    ncl = _node_centric(tree, sc, batch.leaf_labels, params.tau)
    cut_cols = lay.column[np.asarray(cut.members, dtype=np.int64)]
    dtl = _treecut(tree, sc.take(cut_cols), cut, batch, params.tau)
    total = LossValue(
        dtl.value + lam * ncl.value,
        dtl.grad_weight + lam * ncl.grad_weight,
        dtl.grad_bias + lam * ncl.grad_bias,
    )
    return total, dtl, ncl


# gradient_check's central-difference step, the most map coordinates it
# checks, and the seed of the shuffle that picks them past that.
_CHECK_STEP = 1e-5
_CHECK_COORDS = 128
_CHECK_SEED = 0


def gradient_check(
    tree: TaxonomyTree,
    params: PromptParams,
    table: EmbeddingTable,
    cut: LabelSet,
    batch: SampleSet,
    lam: float,
) -> float:
    """Worst relative error of the analytic gradient vs central differences.

    Checks every coordinate of the map up to ``_CHECK_COORDS``; past that,
    a shuffle seeded with ``_CHECK_SEED`` picks the subset. The error at one
    coordinate is |analytic - numeric| / max(1, |numeric|).
    """
    total, _, _ = total_loss(tree, params, table, cut, batch, lam)
    dim = params.dim
    coords = list(range(dim * dim + dim))
    if len(coords) > _CHECK_COORDS:
        Rng64(_CHECK_SEED).shuffle(coords)
        coords = coords[:_CHECK_COORDS]
    flat = np.concatenate([params.weight.ravel(), params.bias])
    analytic = np.concatenate([total.grad_weight.ravel(), total.grad_bias])

    def value_at(k: int, delta: float) -> float:
        moved = flat.copy()
        moved[k] += delta
        shifted = PromptParams(moved[:-dim].reshape(dim, dim), moved[-dim:], params.tau)
        return total_loss(tree, shifted, table, cut, batch, lam)[0].value

    worst = 0.0
    for k in coords:
        numeric = (value_at(k, _CHECK_STEP) - value_at(k, -_CHECK_STEP)) / (2 * _CHECK_STEP)
        worst = max(worst, abs(analytic[k] - numeric) / max(1.0, abs(numeric)))
    return worst

"""Training objectives: cross-entropy over tree-derived vocabularies.

Every vocabulary drawn from the tree is a column subset of one score
matrix: the cosines of a batch against the mapped weights of every
non-root node, in the tree's column layout (``TaxonomyTree.layout``). A
sample's target in a vocabulary is the member on its leaf's root path,
found for a whole batch by ``ColumnLayout.on_path``. The treecut loss is
a softmax over one sampled fringe's columns, teaching global consistency;
the node-centric loss is one segmented softmax over the layout's parent
groups, averaging every internal node's child-set cross-entropy to teach
each local decision. Gradients with respect to the affine map are
closed-form throughout and are checked against finite differences in the
test suite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classifier import EmbeddingTable, PromptParams, SampleSet, unit_rows, unit_weights
from .rng import Rng64
from .taxonomy import LabelSet, TaxonomyTree


@dataclass(frozen=True)
class LossValue:
    """A loss with its gradients and the sample count that shaped it."""

    value: float
    grad_weight: np.ndarray
    grad_bias: np.ndarray
    n_contributing: int

    @classmethod
    def zero(cls, dim: int, n_contributing: int = 0) -> LossValue:
        return cls(0.0, np.zeros((dim, dim)), np.zeros(dim), n_contributing)


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
    the weight normalization, then through w = A e + b. Overwrites ``g``."""
    d_weights = g.T @ sc.vhat
    g *= sc.cos
    d_weights -= g.sum(axis=0)[:, None] * sc.what
    d_weights /= sc.wnorm[:, None]
    return d_weights.T @ sc.emb, d_weights.sum(axis=0)


def _vocab_loss(sc: _Scores, targets: np.ndarray, tau: float) -> LossValue:
    """Mean softmax cross-entropy of every score row against its target column."""
    n = len(targets)
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
    return LossValue(value, grad_w, grad_b, n)


def _node_centric(tree: TaxonomyTree, sc: _Scores, leaves: np.ndarray, tau: float) -> LossValue:
    """The node-centric loss from scores over every layout column.

    A sample enters the term of each branching internal node on its root
    path; its target there is the group column on that path. Each term is
    the mean over the samples that enter it, and the sum of terms is
    divided by the number of internal nodes, contributing or not.
    """
    lay = tree.layout
    n_groups = len(lay.sizes)
    rows, cols = np.nonzero(lay.on_path(leaves[:, None], lay.nodes) & (lay.sizes >= 2)[lay.group])
    groups = lay.group[cols]
    if rows.size == 0:
        return LossValue.zero(sc.emb.shape[1])
    counts = np.bincount(groups, minlength=n_groups)
    enters = np.zeros((len(leaves), n_groups), dtype=bool)
    enters[rows, groups] = True

    z = sc.cos / tau
    z -= np.maximum.reduceat(z, lay.starts, axis=1)[:, lay.group]
    picked = z[rows, cols]
    np.exp(z, out=z)
    sez = np.add.reduceat(z, lay.starts, axis=1)
    sums = np.bincount(groups, weights=np.log(sez[rows, groups]) - picked, minlength=n_groups)
    used = counts > 0
    value = float(np.sum(sums[used] / counts[used])) / n_groups
    # Per group: softmax minus one-hot, scaled to the mean over the samples
    # that enter it; zero for the rest.
    z /= sez[:, lay.group]
    z[rows, cols] -= 1.0
    z /= tau * np.maximum(counts, 1)[lay.group]
    z *= enters[:, lay.group]
    grad_w, grad_b = _backward(z, sc)
    return LossValue(
        value, grad_w / n_groups, grad_b / n_groups, int(enters.any(axis=1).sum())
    )


def _treecut(tree: TaxonomyTree, sc: _Scores, cut: LabelSet, batch: SampleSet, tau: float) -> LossValue:
    """The treecut loss from scores over the cut's columns, in member order."""
    if len(cut) == 1:
        return LossValue.zero(sc.emb.shape[1], n_contributing=len(batch))
    targets = np.argmax(tree.layout.on_path(batch.leaf_labels[:, None], cut.members), axis=1)
    return _vocab_loss(sc, targets, tau)


def node_centric_loss(
    tree: TaxonomyTree,
    params: PromptParams,
    table: EmbeddingTable,
    batch: SampleSet,
) -> LossValue:
    """Average of the per-node child-set cross-entropies.

    Every internal node counts in the denominator, including those that
    contribute nothing (a single child, or no batch sample passing
    through); their terms are zero. ``n_contributing`` is the number of
    distinct samples that entered at least one node term.
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
        dtl.n_contributing,
    )
    return total, dtl, ncl


def gradient_check(
    tree: TaxonomyTree,
    params: PromptParams,
    table: EmbeddingTable,
    cut: LabelSet,
    batch: SampleSet,
    lam: float,
    step: float = 1e-5,
    max_coords: int = 128,
    seed: int = 0,
) -> float:
    """Worst relative error of the analytic gradient vs central differences.

    Checks every coordinate of the map up to ``max_coords``; past that, a
    seeded shuffle picks the subset. The error at one coordinate is
    |analytic - numeric| / max(1, |numeric|).
    """
    total, _, _ = total_loss(tree, params, table, cut, batch, lam)
    dim = params.dim
    n_coords = dim * dim + dim
    coords = list(range(n_coords))
    if n_coords > max_coords:
        Rng64(seed).shuffle(coords)
        coords = coords[:max_coords]

    def value_at(weight: np.ndarray, bias: np.ndarray) -> float:
        moved = PromptParams(weight=weight, bias=bias, tau=params.tau)
        return total_loss(tree, moved, table, cut, batch, lam)[0].value

    worst = 0.0
    for k in coords:
        w_plus, w_minus = params.weight.copy(), params.weight.copy()
        b_plus, b_minus = params.bias.copy(), params.bias.copy()
        if k < dim * dim:
            i, j = divmod(k, dim)
            w_plus[i, j] += step
            w_minus[i, j] -= step
            analytic = total.grad_weight[i, j]
        else:
            i = k - dim * dim
            b_plus[i] += step
            b_minus[i] -= step
            analytic = total.grad_bias[i]
        numeric = (value_at(w_plus, b_plus) - value_at(w_minus, b_minus)) / (2 * step)
        worst = max(worst, abs(analytic - numeric) / max(1.0, abs(numeric)))
    return worst

"""Training objectives: cross-entropy over tree-derived vocabularies.

Every vocabulary drawn from the tree is a column subset of one score
matrix: the cosines of a batch against the mapped weights of every
non-root node, in the tree's column layout (``TaxonomyTree.layout``),
whose label side ``classifier.unit_weights`` builds. A sample's target
in a vocabulary is the member on its leaf's root path: one lookup,
``ColumnLayout.targets``, for a treecut, in training and eval alike,
and ``ColumnLayout.on_path`` for the node-centric groups. The treecut loss is
a softmax over one sampled fringe's columns, teaching global consistency;
the node-centric loss, teaching each local decision, averages every
internal node's child-set cross-entropy, as softmaxes over only the groups
on each sample's root path. Each loss's gradient is first taken at the
cosines; ``total_loss`` sums the two parts' there, in one matrix over
every column, and maps that sum through the weight normalization and the
affine map in one backward pass. Gradients with respect to the affine map
are closed-form throughout and are checked against finite differences in
the test suite.
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


def _score(params: PromptParams, table: EmbeddingTable, nodes, features: np.ndarray) -> tuple:
    """Cosines of unit features against the unit mapped weights of ``nodes``, last
    in (emb, what, wnorm, vhat, cos), after what the backward pass needs: the
    embedding rows, unit weights and weight norms per column, the unit features."""
    emb = table.vectors[np.asarray(nodes, dtype=np.int64)]
    what, wnorm = unit_weights(params, emb)
    vhat, _ = unit_rows(np.asarray(features, dtype=np.float64), "features")
    return emb, what, wnorm, vhat, vhat @ what.T


def _backward(g: np.ndarray, sc: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Map gradients from ``g``, the loss gradient at the cosines ``_score``
    returned in ``sc``: through the weight normalization, then through
    w = A e + b. Overwrites ``sc``'s cosines, with ``g`` times them, and its
    unit weights, so the radial part makes no (batch x columns) or
    (columns x dim) temporary."""
    emb, what, wnorm, vhat, cos = sc
    d_weights = g.T @ vhat
    cos *= g
    d_weights -= np.multiply(what, cos.sum(axis=0)[:, None], out=what)
    d_weights /= wnorm[:, None]
    return d_weights.T @ emb, d_weights.sum(axis=0)


def _node_centric(
    tree: TaxonomyTree, cos: np.ndarray, leaves: np.ndarray, tau: float, g, scale=1.0
) -> float:
    """The node-centric loss from cosines over every layout column.

    A sample enters the term of each branching internal node on its root
    path; its target there is the group column on that path. Each term is
    the mean over the samples that enter it, and the sum of terms is
    divided by the number of internal nodes, contributing or not. To ``g``,
    a matrix shaped like ``cos``, ``scale`` times the gradient of that sum
    of terms at the cosines is added at the pairs' columns.
    """
    n_groups = len(tree.layout.sizes)
    rows, group, sizes, seg, target, flat_rows, cols = _path_groups(tree, leaves)
    counts = np.bincount(group, minlength=n_groups)
    z = cos[flat_rows, cols] / tau
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
    z *= scale
    g[flat_rows, cols] += z
    return value


def _treecut(
    tree: TaxonomyTree, z: np.ndarray, cut: LabelSet, leaves: np.ndarray, tau: float
) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy of the rows of ``z``, the logits (cosines
    over ``tau``) of the cut's columns in member order, and its gradient at
    the cosines, formed in ``z``'s own buffer. A one-member cut forces the
    answer: its loss and gradient are zero."""
    n = len(leaves)
    targets = tree.layout.targets(cut.members, leaves)
    rows = np.arange(n)
    z -= z.max(axis=1, keepdims=True)
    picked = z[rows, targets]
    np.exp(z, out=z)
    sez = z.sum(axis=1, keepdims=True)
    value = float(-(picked - np.log(sez[:, 0])).mean())
    # Softmax minus one-hot at the logits, scaled to the mean over rows.
    z /= sez
    z[rows, targets] -= 1.0
    z /= tau * n
    return value, z


def _forward(
    tree: TaxonomyTree, params: PromptParams, table: EmbeddingTable, cut: LabelSet,
    batch: SampleSet, lam: float,
) -> tuple[tuple, float, float, np.ndarray]:
    """The scores ``total_loss`` takes, its treecut and node-centric values,
    and the total's gradient at the cosines."""
    if not 0 <= lam < math.inf:
        raise ValueError(f"lam must be non-negative and finite, got {lam}")
    if len(batch) == 0:
        raise ValueError("batch is empty")
    tree.treecut_label_set(cut.members)
    leaves, tau = batch.leaf_labels, params.tau
    if lam == 0.0:
        sc = _score(params, table, cut.members, batch.features)
        dtl, g = _treecut(tree, sc[-1] / tau, cut, leaves, tau)
        return sc, dtl, 0.0, g
    lay = tree.layout
    sc = _score(params, table, lay.nodes, batch.features)
    cos = sc[-1]
    # Allocated ahead of the cut's temporaries: after them, the train child on
    # a 1,249-column tree took 2.6x the page faults.
    g = np.zeros_like(cos)
    cut_cols = lay.column[np.asarray(cut.members, dtype=np.int64)]
    z = cos[:, cut_cols]
    z /= tau
    dtl, g_cut = _treecut(tree, z, cut, leaves, tau)
    g[:, cut_cols] = g_cut
    ncl = _node_centric(tree, cos, leaves, tau, g, lam / len(lay.sizes))
    return sc, dtl, ncl, g


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
    g = np.zeros_like(sc[-1])
    value = _node_centric(tree, sc[-1], batch.leaf_labels, params.tau, g)
    grad_w, grad_b = _backward(g, sc)
    n_groups = len(tree.layout.sizes)
    return LossValue(value, grad_w / n_groups, grad_b / n_groups)


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
    return total_loss(tree, params, table, cut, batch, 0.0)[0]


def total_loss(
    tree: TaxonomyTree,
    params: PromptParams,
    table: EmbeddingTable,
    cut: LabelSet,
    batch: SampleSet,
    lam: float,
) -> tuple[LossValue, float, float]:
    """Treecut loss plus ``lam`` times the node-centric loss.

    Returns the total, with its gradients, and the treecut and node-centric
    values. At ``lam`` 0 the node part is skipped and only the cut's columns
    are scored. Otherwise one score matrix over every column serves both
    parts; ``lam`` times the node part's gradient at the cosines plus the
    treecut part's, at the cut's columns, goes through the backward pass
    once, so the total gradient is the parts' up to rounding.

    The batch must be non-empty and the cut a valid treecut. This is
    where a hand-built cut enters, and the one check of a sampled one.
    """
    sc, dtl, ncl, g = _forward(tree, params, table, cut, batch, lam)
    return LossValue(dtl + lam * ncl, *_backward(g, sc)), dtl, ncl


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
    total = total_loss(tree, params, table, cut, batch, lam)[0]
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
        _, dtl, ncl, _ = _forward(tree, shifted, table, cut, batch, lam)
        return dtl + lam * ncl

    worst = 0.0
    for k in coords:
        numeric = (value_at(k, _CHECK_STEP) - value_at(k, -_CHECK_STEP)) / (2 * _CHECK_STEP)
        worst = max(worst, abs(analytic[k] - numeric) / max(1.0, abs(numeric)))
    return worst

"""Synthetic desk-scale fixtures: a balanced tree with clustered samples.

The geometry mimics a fine-grained recognition domain. Class directions
nest along the tree: every node contributes its own axis, scaled down one
notch per level, to the directions of everything below it. Leaves in the
same family therefore share most of their direction and differ only in a
small private component, so isotropic sample noise blurs fine
distinctions long before it threatens coarse ones. Internal nodes get
the normalized mean of their descendant leaves tilted by a fixed
node-specific direction: superclass embeddings are imperfect proxies for
their members, so some leaves are misrouted at coarse vocabularies until
training repairs the map. The noise argument is the expected norm of a
sample's perturbation relative to its unit class direction (per
coordinate it is sigma over sqrt(dim)), so one sigma value means the
same corruption level at any dimension.

The tree and embeddings depend only on the shape arguments; the seed
moves the sample noise alone. Repeat calls are byte-identical.
"""
from __future__ import annotations

import math

import numpy as np

from .classifier import EmbeddingTable, SampleSet
from .fileio import write_embeddings, write_samples, write_tree
from .rng import check_seed
from .taxonomy import TaxonomyTree, load_tree


def _branching(leaves: int, depth: int) -> int:
    """The smallest b >= 2 with b ** depth >= leaves: an integer root, by bisection."""
    lo, hi = 2, 1 << -(-leaves.bit_length() // depth)  # hi ** depth > leaves
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (mid + 1, hi) if mid**depth < leaves else (lo, mid)
    return lo


def _plan_tree(leaves: int, depth: int) -> str:
    """Lay out a balanced tree document for the given leaf count.

    Uses the smallest branching factor whose full tree holds all leaves,
    splitting the leaf range by subtree capacity; a range of one attaches
    its leaf directly instead of growing a chain of single children. Nodes
    are numbered in preorder, from an explicit stack, so no shape is too
    deep to plan.
    """
    b = _branching(leaves, depth)
    lines = ["n0\t-\n"]
    stack = [(0, leaves, depth)]  # a parent, the leaves left to place under it, its levels
    while stack:
        parent, count, levels = stack.pop()
        size = min(b ** (levels - 1), count)
        if count > size:
            stack.append((parent, count - size, levels))
        lines.append(f"n{len(lines)}\tn{parent}\n")
        if size > 1:  # its subtree is laid out before its next sibling
            stack.append((len(lines) - 1, size, levels - 1))
    return "".join(lines)


def _planned_axes(leaves: int, depth: int) -> int:
    """The non-root node count of ``_plan_tree``'s layout, without it.

    A node whose subtrees hold more leaves than it places has one child,
    holding them all, and that child is split a level down. Below those
    levels a node's leaves fill full subtrees of p = b ** (levels - 1)
    leaves and n = (b ** levels - 1) / (b - 1) nodes, and the rest one more
    child, split the same way a level down. Every number stays below
    ``leaves * b``, so a deep chain costs no big-integer powers.
    """
    b = _branching(leaves, depth)
    p, levels = 1, 1
    while levels < depth and p * b <= leaves:
        p, levels = p * b, levels + 1
    axes, n = depth - levels, (b * p - 1) // (b - 1)
    while leaves > 1:
        full, leaves = divmod(leaves, p)
        axes += full * n + (leaves > 0)
        p, n = p // b, (n - 1) // b
    return axes


# Per-level shrink of the private component a node adds on top of its
# parent's direction. Smaller values make siblings more alike and their
# distinction more fragile under noise.
LEVEL_SCALE = 0.5

# Tilt applied to internal-node embeddings, relative to the exact mean of
# their descendant leaves. With no tilt the identity map is already the
# best possible classifier at every level (an internal weight is then
# always the mean of its leaf weights, whatever the map does), leaving
# nothing for hierarchy-aware training to improve. The tilt models the
# realistic gap between a superclass embedding and its members' cluster;
# tuning can close it. Directions come from a fixed stream so embeddings
# depend only on the tree shape and dimension.
INTERNAL_TILT = 0.8
_TILT_STREAM = 0x5EED


def _embedding_table(tree: TaxonomyTree, dim: int) -> EmbeddingTable:
    raw = np.zeros((tree.n_nodes, dim), dtype=np.float64)
    for node in range(1, tree.n_nodes):  # all but the root, node 0
        raw[node] = raw[tree.parents[node]]
        raw[node, node - 1] = LEVEL_SCALE ** (tree.depths[node] - 1)
    vectors = np.zeros((tree.n_nodes, dim), dtype=np.float64)
    for leaf in tree.leaf_nodes:
        vectors[leaf] = raw[leaf] / np.linalg.norm(raw[leaf])
    gen = np.random.Generator(np.random.PCG64(_TILT_STREAM))
    leaves = np.asarray(tree.leaf_nodes)
    for node in tree.internal_nodes[1:]:  # all but the root, node 0
        # Last leaf first, the order that fixes the sum's rounding and so
        # every fixture's bytes (the planned tree's node order is preorder).
        mean = vectors[leaves[tree.layout.on_path(leaves, node)][::-1]].mean(axis=0)
        away = gen.standard_normal(dim)
        mixed = mean / np.linalg.norm(mean) + INTERNAL_TILT * away / np.linalg.norm(away)
        vectors[node] = mixed / np.linalg.norm(mixed)
    return EmbeddingTable(dim=dim, vectors=vectors)


def gen_synth(
    leaves: int,
    depth: int,
    dim: int,
    per_leaf: int,
    noise: float,
    seed: int,
) -> tuple[str, str, str]:
    """Build a fixture and return (tree, embeddings, samples) documents.

    ``noise`` is the expected norm of the Gaussian perturbation added to
    each sample's unit leaf embedding (per-coordinate sigma is
    ``noise / sqrt(dim)``). ``dim`` must be at least the number of
    non-root nodes so every class can own a direction.
    """
    if leaves < 2:
        raise ValueError("leaves must be at least 2")
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if per_leaf < 1:
        raise ValueError("per_leaf must be at least 1")
    if not 0 <= noise < math.inf:
        raise ValueError(f"noise must be non-negative and finite, got {noise}")

    axes = _planned_axes(leaves, depth)  # one per non-root node, counted before the tree is planned
    if dim < axes:
        raise ValueError(f"dim must be at least {axes} (one axis per non-root node)")
    tree = load_tree(_plan_tree(leaves, depth))
    table = _embedding_table(tree, dim)

    gen = np.random.Generator(np.random.PCG64(check_seed(seed)))
    leaf_nodes = np.asarray(tree.leaf_nodes, dtype=np.int64)
    features = gen.standard_normal((len(leaf_nodes) * per_leaf, dim))
    features *= noise / math.sqrt(dim)
    by_leaf = features.reshape(len(leaf_nodes), per_leaf, dim)  # a view
    by_leaf += table.vectors[leaf_nodes, None]
    samples = SampleSet(
        ids=tuple(f"{tree.names[leaf]}.{j}" for leaf in tree.leaf_nodes for j in range(per_leaf)),
        leaf_labels=np.repeat(leaf_nodes, per_leaf),
        features=features,
    )

    sample_doc = write_samples(samples, tree, dim, comment=f"seed {seed}")
    return write_tree(tree), write_embeddings(table, tree), sample_doc

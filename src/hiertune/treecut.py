"""Pruned-subtree vocabularies (treecuts) and their flag-vector sampler.

A treecut keeps some internal nodes expanded and collapses the rest; its
label set is the fringe of the pruned tree. Sampling works on a vector of
independent keep flags over the internal nodes, repaired so that a node
only stays expanded when its whole ancestor chain is, then mapped to the
fringe through two boolean masks sliced from the tree's ancestor matrix,
so a cut costs a few dense array reductions and no tree walk.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .rng import Rng64
from .taxonomy import LabelSet, TaxonomyTree

# Exhaustive enumeration doubles per internal node in the worst case; keep
# it for tests and tiny trees only.
ENUMERATE_LIMIT = 20

# A rejection sampler for distinct cuts gives up after this many draws per
# requested cut (at rates near 0 or 1 some reachable cuts are very rare).
DISTINCT_DRAW_FACTOR = 100


@dataclass(frozen=True)
class MatrixBundle:
    """Boolean ancestry masks of one tree, fixed for its lifetime.

    ``internal_nodes`` (length K, ascending) index the rows; ``labels`` are
    all non-root nodes (length L, ascending) and index the columns. Each
    mask is a slice of the tree's ancestor-or-self matrix
    (``tree.layout.ancestors``).

    dependency       K x K; true where the column node is an ancestor-or-self
                     of the row node.
    ancestor_mask    K x L; true where the label is an ancestor-or-self of
                     the internal node.
    descendant_mask  K x L; true where the label is a strict descendant of
                     the internal node.
    """

    internal_nodes: tuple[int, ...]
    labels: tuple[int, ...]
    dependency: np.ndarray
    ancestor_mask: np.ndarray
    descendant_mask: np.ndarray


def build_matrices(tree: TaxonomyTree) -> MatrixBundle:
    """Slice the ancestry masks for ``tree`` out of its ancestor matrix."""
    if len(tree.leaf_nodes) < 2:
        raise ValueError("tree must have at least two leaves")
    anc = tree.layout.ancestors
    internal = np.asarray(tree.internal_nodes, dtype=np.int64)
    up = anc[internal, 1:]
    return MatrixBundle(
        internal_nodes=tree.internal_nodes,
        labels=tuple(range(1, tree.n_nodes)),
        dependency=anc[np.ix_(internal, internal)],
        ancestor_mask=up,
        # A non-root internal node is also a label; it counts as its own
        # ancestor-or-self, never as its own descendant.
        descendant_mask=anc[1:, internal].T & ~up,
    )


def correct_flags(kept: np.ndarray, bundle: MatrixBundle) -> np.ndarray:
    """Keep flags (0/1, in row order) with every broken chain dropped.

    A node stays expanded only when none of its internal ancestors-or-self
    is dropped. Returns a bool array; idempotent. The root flag must be 1.
    """
    kept = np.asarray(kept)
    k = len(bundle.internal_nodes)
    if kept.shape != (k,):
        raise ValueError(f"expected {k} flags, got shape {kept.shape}")
    keep = kept == 1
    if not (keep | (kept == 0)).all():
        raise ValueError("flags must be 0 or 1")
    if not keep[0]:
        raise ValueError("root flag must be 1")
    return keep & ~bundle.dependency[:, ~keep].any(axis=1)


def blocked_mask(kept: np.ndarray, bundle: MatrixBundle) -> np.ndarray:
    """Per-label count of reasons the label is off the cut fringe.

    The flags are repaired first (see ``correct_flags``). A label is then
    blocked once for each kept internal node it sits on or above (the cut
    descends past it) and once for each dropped internal node it sits
    strictly below (the cut stops above it). Labels with a zero count form
    the fringe.
    """
    keep = correct_flags(kept, bundle)
    return bundle.ancestor_mask[keep].sum(axis=0) + bundle.descendant_mask[~keep].sum(axis=0)


def cut_from_flags(tree: TaxonomyTree, bundle: MatrixBundle, kept: np.ndarray) -> LabelSet:
    """The fringe label set selected by the repaired ``kept`` flags, validated as a treecut."""
    blocked = blocked_mask(kept, bundle)
    return tree.treecut_label_set(tuple(bundle.labels[j] for j in np.flatnonzero(blocked == 0)))


def sample_treecut(
    tree: TaxonomyTree, bundle: MatrixBundle, beta: float, rng: Rng64
) -> LabelSet:
    """Draw one treecut at drop rate ``beta``.

    Each non-root internal node keeps its flag with probability 1 - beta
    (one uniform draw per node, in row order); the root is always kept.
    beta 0 yields the full leaf set, beta 1 the root's children.
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must be in [0, 1], got {beta}")
    kept = [True] + [rng.next_unit() >= beta for _ in bundle.internal_nodes[1:]]
    return cut_from_flags(tree, bundle, np.array(kept))


def _treecut_count(tree: TaxonomyTree) -> int:
    """Number of distinct treecuts, without enumerating them.

    A non-root internal node is either on the cut or expanded into a cut
    of each child subtree, so it has 1 + (product over its children)
    choices; a leaf has one, and the whole tree takes the product over
    the root's children.
    """
    ways = [1] * tree.n_nodes
    for v in reversed(range(tree.n_nodes)):  # children follow their parent
        if tree.children[v]:
            ways[v] = 1 + math.prod(ways[c] for c in tree.children[v])
    return math.prod(ways[c] for c in tree.children[tree.root])


def sample_distinct(
    tree: TaxonomyTree,
    bundle: MatrixBundle,
    beta: float,
    count: int,
    rng: Rng64,
) -> tuple[LabelSet, ...]:
    """Up to ``count`` distinct treecuts at rate ``beta``, by rejection.

    Cuts appear in first-draw order. Draws stop once every reachable cut
    has appeared: uniform draws lie in [0, 1), so rates 0 and 1 each reach
    exactly one cut, and any other rate can reach every treecut. Otherwise
    gives up after ``100 * count`` draws, returning however many distinct
    cuts surfaced.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    reachable = 1 if beta in (0.0, 1.0) else _treecut_count(tree)
    target = min(count, reachable)
    seen: dict[tuple[int, ...], LabelSet] = {}
    for _ in range(DISTINCT_DRAW_FACTOR * count):
        cut = sample_treecut(tree, bundle, beta, rng)
        if cut.members not in seen:
            seen[cut.members] = cut
            if len(seen) == target:
                break
    return tuple(seen.values())


def enumerate_treecuts(tree: TaxonomyTree) -> tuple[LabelSet, ...]:
    """All distinct treecuts of a small tree, sorted by member tuple.

    The count can double per internal node, so trees past
    ``ENUMERATE_LIMIT`` internal nodes are refused.
    """
    if len(tree.internal_nodes) > ENUMERATE_LIMIT:
        raise ValueError(
            f"tree has {len(tree.internal_nodes)} internal nodes; "
            f"enumeration is capped at {ENUMERATE_LIMIT}"
        )

    def subtree_choices(node: int) -> list[frozenset[int]]:
        # Vocabulary fragments for the subtree at node: the node itself,
        # or any expansion of its children.
        opts = [frozenset((node,))]
        if tree.children[node]:
            opts.extend(expansions(node))
        return opts

    def expansions(node: int) -> list[frozenset[int]]:
        combos = itertools.product(*(subtree_choices(c) for c in tree.children[node]))
        return [frozenset().union(*combo) for combo in combos]

    fringes = sorted({tuple(sorted(f)) for f in expansions(tree.root)})
    return tuple(tree.treecut_label_set(members) for members in fringes)

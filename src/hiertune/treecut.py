"""Pruned-subtree vocabularies (treecuts) and their flag-vector sampler.

A treecut keeps some internal nodes expanded and collapses the rest; its
label set is the fringe of the pruned tree. Sampling works on a vector of
independent keep flags over the internal nodes, repaired so that a node
only stays expanded when its whole ancestor chain is, then mapped to the
fringe. Both steps are prefix sums over the tree's preorder intervals, so
a cut costs a few O(n) array passes and no tree walk.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from .rng import Rng64
from .taxonomy import ColumnLayout, LabelSet, TaxonomyTree

# Exhaustive enumeration doubles per internal node in the worst case; keep
# it for tests and tiny trees only.
ENUMERATE_LIMIT = 20

# A rejection sampler for distinct cuts gives up after this many draws per
# requested cut (at rates near 0 or 1 some reachable cuts are very rare).
DISTINCT_DRAW_FACTOR = 100


def build_matrices(tree: TaxonomyTree) -> ColumnLayout:
    """The layout of ``tree``, which the flag algebra reads; two leaves needed.

    Its ``internal_nodes`` own the flags, in order; label j of a blocked
    mask is node j + 1, every node but the root.
    """
    if len(tree.leaf_nodes) < 2:
        raise ValueError("tree must have at least two leaves")
    return tree.layout


def _strictly_under(nodes: np.ndarray, layout: ColumnLayout) -> np.ndarray:
    """Per preorder position, how many of ``nodes`` it lies strictly below."""
    end = len(layout.tin) + 1
    return np.cumsum(
        np.bincount(layout.tin[nodes] + 1, minlength=end)
        - np.bincount(layout.tout[nodes], minlength=end)
    )


def correct_flags(kept: np.ndarray, layout: ColumnLayout) -> np.ndarray:
    """Keep flags (0/1, in row order) with every broken chain dropped.

    A node stays expanded only when none of its internal ancestors-or-self
    is dropped. Returns a bool array; idempotent. The root flag must be 1.
    """
    kept = np.asarray(kept)
    internal = layout.internal_nodes
    if kept.shape != internal.shape:
        raise ValueError(f"expected {len(internal)} flags, got shape {kept.shape}")
    keep = kept == 1
    if not (keep | (kept == 0)).all():
        raise ValueError("flags must be 0 or 1")
    if not keep[0]:
        raise ValueError("root flag must be 1")
    return keep & (_strictly_under(internal[~keep], layout)[layout.tin[internal]] == 0)


def blocked_mask(kept: np.ndarray, layout: ColumnLayout) -> np.ndarray:
    """Per-label count of reasons the label is off the cut fringe.

    The flags are repaired first (see ``correct_flags``). A label is then
    blocked once for each kept internal node it sits on or above (the cut
    descends past it) and once for each dropped internal node it sits
    strictly below (the cut stops above it). Labels with a zero count form
    the fringe.
    """
    keep = correct_flags(kept, layout)
    internal = layout.internal_nodes
    tin, tout = layout.tin[1:], layout.tout[1:]  # the labels: every node but the root, 0
    # Kept internal nodes before each preorder position; a label's subtree
    # holds those between its two ends.
    before = np.cumsum(np.bincount(layout.tin[internal[keep]] + 1, minlength=len(layout.tin) + 1))
    return before[tout] - before[tin] + _strictly_under(internal[~keep], layout)[tin]


def cut_from_flags(tree: TaxonomyTree, layout: ColumnLayout, kept: np.ndarray) -> LabelSet:
    """The fringe label set selected by the repaired ``kept`` flags.

    Repaired flags keep a node only with its whole ancestor chain, so the
    fringe is a treecut by construction and is not validated again.
    """
    blocked = blocked_mask(kept, layout)
    return LabelSet(tuple((np.flatnonzero(blocked == 0) + 1).tolist()))


def sample_treecut(
    tree: TaxonomyTree, layout: ColumnLayout, beta: float, rng: Rng64
) -> LabelSet:
    """Draw one treecut at drop rate ``beta``.

    Each non-root internal node keeps its flag with probability 1 - beta:
    one word per node, in row order, whose top 53 bits give a uniform draw
    in [0, 1). The root is always kept. beta 0 yields the full leaf set,
    beta 1 the root's children.
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must be in [0, 1], got {beta}")
    kept = np.ones(len(layout.internal_nodes), dtype=bool)
    kept[1:] = (rng.words(len(kept) - 1) >> 11) * 2.0**-53 >= beta
    return cut_from_flags(tree, layout, kept)


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


def _reachable(tree: TaxonomyTree, beta: float) -> int:
    """How many distinct treecuts rate ``beta`` can draw. Uniform draws lie
    in [0, 1), so rates 0 and 1 each reach exactly one cut, and any other
    rate can reach every treecut."""
    return 1 if beta in (0.0, 1.0) else _treecut_count(tree)


def sample_distinct(
    tree: TaxonomyTree,
    layout: ColumnLayout,
    beta: float,
    count: int,
    rng: Rng64,
) -> tuple[LabelSet, ...]:
    """Up to ``count`` distinct treecuts at rate ``beta``, by rejection.

    Cuts appear in first-draw order. Draws stop once every reachable cut
    has appeared (see ``_reachable``). Otherwise gives up after
    ``DISTINCT_DRAW_FACTOR * count`` draws, returning however many
    distinct cuts surfaced.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    target = min(count, _reachable(tree, beta))
    seen: dict[tuple[int, ...], LabelSet] = {}
    for _ in range(DISTINCT_DRAW_FACTOR * count):
        cut = sample_treecut(tree, layout, beta, rng)
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

    def expansions(node: int) -> list[frozenset[int]]:
        # Each child contributes itself or, if internal, any expansion of it.
        choices = (
            [frozenset((c,))] + (expansions(c) if tree.children[c] else [])
            for c in tree.children[node]
        )
        return [frozenset().union(*combo) for combo in itertools.product(*choices)]

    fringes = sorted({tuple(sorted(f)) for f in expansions(tree.root)})
    return tuple(tree.treecut_label_set(members) for members in fringes)

"""Pruned-subtree vocabularies (treecuts) and their flag-vector sampler.

A treecut keeps some internal nodes expanded and collapses the rest; its
label set is the fringe of the pruned tree. Sampling works on a vector of
independent keep flags over the internal nodes, repaired so that a node
only stays expanded when its whole ancestor chain is, then mapped to the
fringe through two precomputed relation masks. Everything here is dense
integer linear algebra so a cut costs two mat-vecs regardless of shape.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .rng import Rng64
from .taxonomy import LabelSet, TaxonomyTree

# Exhaustive enumeration doubles per internal node in the worst case; keep
# it for tests and tiny trees only.
ENUMERATE_LIMIT = 20

# A rejection sampler for distinct cuts gives up after this many draws per
# requested cut (small trees can have fewer distinct cuts than asked for).
DISTINCT_DRAW_FACTOR = 100


@dataclass(frozen=True)
class MatrixBundle:
    """Dense relation matrices of one tree, fixed for its lifetime.

    ``internal_nodes`` (length K, ascending) index the rows; ``labels`` are
    all non-root nodes (length L, ascending) and index the columns.

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
    """Keep flags over the internal nodes, in ``MatrixBundle`` row order.

    ``corrected`` records whether the chain repair has run; the blocked
    mask is only meaningful afterwards.
    """

    kept: np.ndarray
    corrected: bool


def build_matrices(tree: TaxonomyTree) -> MatrixBundle:
    """Precompute the relation matrices for ``tree``.

    The bundle fields are submatrices of the tree's ancestor-or-self
    incidence matrix (``tree.layout.ancestors``).
    """
    n = tree.n_nodes
    if len(tree.leaf_nodes) < 2:
        raise ValueError("tree must have at least two leaves")
    anc = tree.layout.ancestors

    internal = np.asarray(tree.internal_nodes, dtype=np.int64)
    labels = np.arange(1, n, dtype=np.int64)
    dependency = anc[np.ix_(internal, internal)].astype(np.int64)
    up = anc[np.ix_(internal, labels)]
    down = anc[np.ix_(labels, internal)].T
    # Self pairs satisfy both tests; the ancestor branch wins, so the
    # diagonal-like entries land at 1 as required.
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
    """Zero out flags whose ancestor chain is not fully kept.

    A node can only stay expanded when every internal ancestor is; the
    repair compares each row's kept-ancestor count against the full chain
    length. Idempotent. The root flag must already be 1.
    """
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
    """Per-label count of reasons the label is off the cut fringe.

    A label is blocked once for each kept internal node it sits on or
    above (the cut descends past it) and once for each dropped internal
    node it sits strictly below (the cut stops above it). Labels with a
    zero count form the fringe.
    """
    if not flags.corrected:
        raise ValueError("flags must be chain-corrected first")
    kept = flags.kept
    return bundle.ancestor_mask.T @ kept + bundle.descendant_mask.T @ (1 - kept)


def cut_from_flags(tree: TaxonomyTree, bundle: MatrixBundle, flags: KeepFlags) -> LabelSet:
    """The fringe label set selected by ``flags``, validated as a treecut."""
    blocked = blocked_mask(flags, bundle)
    members = tuple(int(bundle.labels[j]) for j in np.flatnonzero(blocked == 0))
    return tree.treecut_label_set(members)


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
    kept = np.ones(bundle.n_internal, dtype=np.int64)
    for i in range(1, bundle.n_internal):
        kept[i] = 1 if rng.next_unit() >= beta else 0
    return cut_from_flags(tree, bundle, correct_flags(kept, bundle))


def sample_distinct(
    tree: TaxonomyTree,
    bundle: MatrixBundle,
    beta: float,
    count: int,
    rng: Rng64,
) -> tuple[LabelSet, ...]:
    """Up to ``count`` distinct treecuts at rate ``beta``, by rejection.

    Cuts appear in first-draw order. Gives up after ``100 * count`` draws,
    returning however many distinct cuts surfaced; small trees simply do
    not have ``count`` distinct cuts at every rate.
    """
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

"""Rooted class-hierarchy trees and the label sets drawn from them.

A taxonomy tree organizes dataset classes (the leaves) under superclass
nodes. A classification decision always happens against a *label set*: the
full leaf set, the children of one node (one group of the column layout),
or the leaf fringe of a pruned subtree (a treecut). Trees are immutable
after load; every derived structure holds read-only references.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


class TreeFormatError(ValueError):
    """A tree document violates the file format or the tree invariants."""


def _split_lines(text: str) -> list[str]:
    """``text`` split only at the breaks universal-newline reading translates.

    ``str.splitlines`` also splits at form feeds, ``\x85``, ``\u2028`` and
    others, shifting the line number of every fault after one. A text that
    ends in a break gives a last, empty line, which every reader skips.
    """
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


@dataclass(frozen=True)
class LabelSet:
    """An ordered classification vocabulary of tree nodes.

    ``members`` holds node indices in ascending order (the canonical order
    used for matrix columns, softmax rows, and tie-breaking). Build
    instances through ``TaxonomyTree.treecut_label_set``, which validates;
    the raw constructor does not.
    """

    members: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class ColumnLayout:
    """Column order of the score matrix, and ancestry, fixed per tree.

    Every non-root node owns one column. Columns are grouped by parent,
    the groups follow ``internal_nodes`` order, and each group holds its
    children in ascending index order, so every internal node's child
    vocabulary is one contiguous slice.

    nodes      (L,) node of each column
    column     (n_nodes,) column of each node; -1 for the root
    starts     (K,) first column of each internal node's group
    sizes      (K,) child count of each internal node
    group      (L,) position in ``internal_nodes`` of each column's parent
    ancestors  (n_nodes, n_nodes) bool; [v, u] is true when u is v or an
               ancestor of v, so a leaf's row restricted to a vocabulary
               marks its target there
    """

    nodes: np.ndarray
    column: np.ndarray
    starts: np.ndarray
    sizes: np.ndarray
    group: np.ndarray
    ancestors: np.ndarray


@dataclass(frozen=True)
class TaxonomyTree:
    """Immutable rooted tree of named class nodes.

    Node order equals file order, which the loader requires to be
    topological (every parent precedes its children). The root therefore
    always has index 0.
    """

    names: tuple[str, ...]
    parents: tuple[int | None, ...]
    children: tuple[tuple[int, ...], ...]
    depths: tuple[int, ...]
    leaf_nodes: tuple[int, ...]
    internal_nodes: tuple[int, ...]
    name_index: dict[str, int] = field(repr=False)

    root: int = 0

    @property
    def n_nodes(self) -> int:
        return len(self.names)

    @cached_property
    def layout(self) -> ColumnLayout:
        """The score-matrix layout, built on first use and kept."""
        n = self.n_nodes
        anc = np.zeros((n, n), dtype=bool)
        for v, p in enumerate(self.parents):
            if p is not None:
                anc[v] = anc[p]
            anc[v, v] = True
        sizes = np.asarray([len(self.children[p]) for p in self.internal_nodes], dtype=np.int64)
        nodes = np.asarray(
            [c for p in self.internal_nodes for c in self.children[p]], dtype=np.int64
        )
        column = np.full(n, -1, dtype=np.int64)
        column[nodes] = np.arange(len(nodes))
        layout = ColumnLayout(
            nodes=nodes,
            column=column,
            starts=np.cumsum(sizes) - sizes,
            sizes=sizes,
            group=np.repeat(np.arange(len(sizes)), sizes),
            ancestors=anc,
        )
        for arr in vars(layout).values():
            arr.flags.writeable = False
        return layout

    def is_leaf(self, node: int) -> bool:
        self._check_index(node)
        return not self.children[node]

    def index(self, name: str) -> int:
        try:
            return self.name_index[name]
        except KeyError:
            raise ValueError(f"unknown node name {name!r}") from None

    def _check_index(self, node: int) -> None:
        if not 0 <= node < len(self.names):
            raise ValueError(f"node index {node} out of range")

    def ancestors(self, node: int) -> tuple[int, ...]:
        """Chain from the parent of ``node`` up to and including the root.

        Empty for the root; ``node`` itself is excluded.
        """
        self._check_index(node)
        chain = []
        p = self.parents[node]
        while p is not None:
            chain.append(p)
            p = self.parents[p]
        return tuple(chain)

    def target_in(self, leaf: int, labels: LabelSet) -> int | None:
        """The unique member of ``labels`` on the root-to-``leaf`` path.

        This is the ground truth for classifying a sample of class ``leaf``
        against an arbitrary vocabulary: the member equal to the leaf or to
        one of its ancestors. Returns None when no member qualifies (the
        sample cannot be scored against ``labels``); raises if more than
        one qualifies, which means ``labels`` is not an antichain.
        """
        if not self.is_leaf(leaf):
            raise ValueError(f"node {self.names[leaf]!r} is not a leaf")
        members = set(labels.members)
        hits = [n for n in (leaf, *self.ancestors(leaf)) if n in members]
        if len(hits) > 1:
            names = ", ".join(self.names[h] for h in hits)
            raise ValueError(f"label set is not an antichain: {names} share a path")
        return hits[0] if hits else None

    def treecut_label_set(self, members: tuple[int, ...] | list[int]) -> LabelSet:
        """Validate ``members`` as a treecut fringe and wrap it.

        A valid treecut vocabulary excludes the root, is an antichain (no
        member is an ancestor of another), and covers every leaf (each leaf
        has exactly one ancestor-or-self among the members). Exact cover
        implies the antichain property, because every member has a leaf
        below it; the antichain message names the first member that lies
        under another.
        """
        given = np.asarray(members, dtype=np.int64).reshape(-1)
        unique = np.unique(given)
        if unique.size != given.size:
            raise ValueError("treecut members must be distinct")
        if (unique == self.root).any():
            raise ValueError("treecut must not contain the root")
        outside = unique[(unique < 0) | (unique >= self.n_nodes)]
        if outside.size:
            raise ValueError(f"node index {outside[0]} out of range")
        anc = self.layout.ancestors
        # int32 sums run faster than the int64 default; a count cannot
        # exceed the tree's node count.
        cover = anc[list(self.leaf_nodes)][:, unique].sum(axis=1, dtype=np.int32)
        if (cover > 1).any():
            under = anc[np.ix_(unique, unique)].sum(axis=1) > 1
            name = self.names[int(unique[np.argmax(under)])]
            raise ValueError(f"treecut is not an antichain at {name!r}")
        if (cover == 0).any():
            leaf = self.leaf_nodes[int(np.argmin(cover))]
            raise ValueError(f"treecut does not cover leaf {self.names[leaf]!r} exactly once")
        return LabelSet(tuple(unique.tolist()))


def load_tree(document: str) -> TaxonomyTree:
    """Parse and validate a tree document.

    Format: one record per line, ``name<TAB>parent-name``; the root uses
    ``-`` as its parent; lines starting with ``#`` and blank lines are
    ignored. A parent must be declared on an earlier line, so file order is
    topological and a cycle surfaces as a forward reference.
    """
    names: list[str] = []
    parents: list[int | None] = []
    index: dict[str, int] = {}
    root_seen = False

    for lineno, line in enumerate(_split_lines(document), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise TreeFormatError(f"line {lineno}: expected 'name<TAB>parent', got {line!r}")
        name, parent_name = fields[0].strip(), fields[1].strip()
        if not name or name == "-":
            raise TreeFormatError(f"line {lineno}: invalid node name {name!r}")
        if name in index:
            raise TreeFormatError(f"line {lineno}: duplicate node name {name!r}")
        if parent_name == "-":
            if root_seen:
                raise TreeFormatError(f"line {lineno}: multiple roots ({name!r})")
            root_seen = True
            parent: int | None = None
        else:
            if parent_name not in index:
                raise TreeFormatError(
                    f"line {lineno}: parent {parent_name!r} of {name!r} not declared earlier"
                )
            parent = index[parent_name]
        index[name] = len(names)
        names.append(name)
        parents.append(parent)

    if not names:
        raise TreeFormatError("empty document")
    if not root_seen:
        raise TreeFormatError("no root record (parent '-')")
    if len(names) == 1:
        raise TreeFormatError("root-only tree: the root cannot also be a class")

    n = len(names)
    children: list[list[int]] = [[] for _ in range(n)]
    depths = [0] * n
    for i, p in enumerate(parents):
        if p is not None:
            children[p].append(i)
            depths[i] = depths[p] + 1

    leaf_nodes = tuple(i for i in range(n) if not children[i])
    internal_nodes = tuple(i for i in range(n) if children[i])
    return TaxonomyTree(
        names=tuple(names),
        parents=tuple(parents),
        children=tuple(tuple(c) for c in children),
        depths=tuple(depths),
        leaf_nodes=leaf_nodes,
        internal_nodes=internal_nodes,
        name_index=index,
    )

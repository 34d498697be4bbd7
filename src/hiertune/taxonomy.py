"""Rooted class-hierarchy trees, the label sets drawn from them, and lines.

A taxonomy tree organizes dataset classes (the leaves) under superclass
nodes. A classification decision always happens against a *label set*: the
full leaf set, the children of one node (one group of the column layout),
or the leaf fringe of a pruned subtree (a treecut). Trees are immutable
after load; every derived structure holds read-only references.

Every input document, the tree here and each file ``fileio`` loads, is
split into numbered lines by ``_lines``, through the standard library's
text stream, and rid of blank and comment lines by ``_records``.
"""
from __future__ import annotations

import io
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import BinaryIO

import numpy as np


class TreeFormatError(ValueError):
    """A tree document violates the file format or the tree invariants."""


def _lines(source: str | BinaryIO) -> Iterator[tuple[int, str]]:
    """Numbered lines of ``source``, text or a binary file open for reading,
    split at ``\\n``, ``\\r\\n`` and ``\\r``. A file is streamed through a text
    wrapper, detached at the end so that it stays open. A byte that is not
    UTF-8 raises UnicodeDecodeError at its file offset, after every earlier line.
    Text is read as the file of its UTF-8 bytes, a lone surrogate as a bad
    byte; ``io.StringIO`` would hold it at four bytes a character."""
    if isinstance(source, str):
        source = io.BytesIO(source.encode(errors="surrogatepass"))
    text = io.TextIOWrapper(source, encoding="utf-8", errors="surrogateescape", newline="\n")
    offset = 0  # file offset of the line
    try:
        for lineno, line in enumerate(_broken(text), start=1):
            if not line.isascii():  # a byte that is not UTF-8 arrives as a lone surrogate
                data = line.encode(errors="surrogateescape")
                try:
                    line = data.decode()  # with its break, as the whole file would be
                except UnicodeDecodeError as exc:  # moved to its offset in the file
                    exc.object = data[exc.start : exc.end]  # so str(exc) names no other byte
                    exc.start, exc.end = offset + exc.start, offset + exc.end
                    raise
                offset += len(data) - len(line)  # its bytes, not its characters
            offset += len(line)
            yield lineno, line.rstrip("\r\n")
    finally:
        if not source.closed:  # a failed load's file may close before this does
            text.detach()


def _broken(text: io.TextIOWrapper) -> Iterator[str]:
    """``text``'s lines with their breaks, read in pieces that end at ``\\n`` or
    hold ``io.DEFAULT_BUFFER_SIZE`` characters, and joined once they end."""
    head: list[str] = []  # the pieces of a line that no break has ended
    for piece in iter(partial(text.readline, io.DEFAULT_BUFFER_SIZE), ""):
        if head and (piece[-1] == "\n" or "\r" in piece or head[-1][-1] == "\r"):
            piece, head = "".join([*head, piece]), []
        start = 0  # past the last bare \r; one that ends the piece may yet take a \n
        while (at := piece.find("\r", start, len(piece) - 1)) >= 0 and piece[at + 1] != "\n":
            yield piece[start : at + 1]
            start = at + 1
        if piece[-1] == "\n":
            yield piece[start:]
        else:
            head.append(piece[start:])
    if head:
        yield "".join(head)


def _records(lines: Iterable[tuple[int, str]]) -> Iterator[tuple[int, str]]:
    """The numbered lines that hold a record: neither blank nor a ``#`` comment."""
    return ((i, ln) for i, ln in lines if ln.strip() and not ln.lstrip().startswith("#"))


@dataclass(frozen=True)
class LabelSet:
    """An ordered classification vocabulary of tree nodes.

    ``members`` holds node indices in ascending order (the canonical order
    used for matrix columns, softmax rows, and tie-breaking). Build
    instances through ``TaxonomyTree.treecut_label_set``, which validates,
    or ``treecut.cut_from_flags``, whose fringes are treecuts by
    construction; the raw constructor does not validate.
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

    nodes   (L,) node of each column
    column  (n_nodes,) column of each node; -1 for the root
    internal_nodes  (K,) node that owns each group; also the treecut flag order
    starts  (K,) first column of each internal node's group
    sizes   (K,) child count of each internal node
    tin     (n_nodes,) preorder position of each node, children in index order
    tout    (n_nodes,) first position past its subtree: u is v or an ancestor
            of v iff tin[u] <= tin[v] < tout[u] (Grust, SIGMOD 2002)
    """

    nodes: np.ndarray
    column: np.ndarray
    internal_nodes: np.ndarray
    starts: np.ndarray
    sizes: np.ndarray
    tin: np.ndarray
    tout: np.ndarray

    def on_path(self, nodes, above) -> np.ndarray:
        """Bool, broadcast over both: ``above`` is ``nodes`` or an ancestor of it."""
        at = np.take(self.tin, nodes)
        return (np.take(self.tin, above) <= at) & (at < np.take(self.tout, above))

    def targets(self, members, nodes) -> np.ndarray:
        """Each of ``nodes``' position in ``members``, a treecut: the member on its
        root path, whose preorder interval starts last at or before the node's."""
        starts = self.tin[np.asarray(members, dtype=np.int64)]
        order = np.argsort(starts)
        return order[np.searchsorted(starts[order], np.take(self.tin, nodes), side="right") - 1]

    def path_groups(self, leaves: np.ndarray) -> tuple[np.ndarray, ...]:
        """The (sample, group) pairs at the branching nodes on each leaf's root
        path, where hca judges a sample and it enters the node-centric loss. Per
        pair: sample (ascending, then group), group, size, and ``seg`` and
        ``target``, the positions of its first and on-path columns in the pairs'
        columns laid end to end (per position: sample and layout column)."""
        branching = np.flatnonzero(self.sizes >= 2)
        above = self.internal_nodes[branching]
        rows, k = np.nonzero(self.on_path(leaves[:, None], above))
        group = branching[k]
        sizes = self.sizes[group]
        seg = np.cumsum(sizes) - sizes
        flat_rows = np.repeat(rows, sizes)
        cols = np.arange(sizes.sum()) + np.repeat(self.starts[group] - seg, sizes)
        # Exactly one child of each such node holds the leaf: one per pair.
        target = np.flatnonzero(self.on_path(leaves[flat_rows], self.nodes[cols]))
        return rows, group, sizes, seg, target, flat_rows, cols


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
        span = [1] * n  # subtree sizes; children follow their parent
        for v in range(n - 1, 0, -1):
            span[self.parents[v]] += span[v]
        tin = [0] * n
        for p in self.internal_nodes:  # a parent's position is set first
            at = tin[p] + 1
            for c in self.children[p]:
                tin[c] = at
                at += span[c]
        sizes = np.asarray([len(self.children[p]) for p in self.internal_nodes], dtype=np.int64)
        nodes = np.asarray(
            [c for p in self.internal_nodes for c in self.children[p]], dtype=np.int64
        )
        column = np.full(n, -1, dtype=np.int64)
        column[nodes] = np.arange(len(nodes))
        layout = ColumnLayout(
            nodes=nodes,
            column=column,
            internal_nodes=np.asarray(self.internal_nodes, dtype=np.int64),
            starts=np.cumsum(sizes) - sizes,
            sizes=sizes,
            tin=np.asarray(tin, dtype=np.int64),
            tout=np.add(tin, span, dtype=np.int64),
        )
        for arr in vars(layout).values():
            arr.flags.writeable = False
        return layout

    def is_leaf(self, node: int) -> bool:
        self._check_index(node)
        return not self.children[node]

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
        unique = np.sort(np.asarray(members, dtype=np.int64).reshape(-1))
        if (unique[1:] == unique[:-1]).any():
            raise ValueError("treecut members must be distinct")
        if (unique == self.root).any():
            raise ValueError("treecut must not contain the root")
        outside = unique[(unique < 0) | (unique >= self.n_nodes)]
        if outside.size:
            raise ValueError(f"node index {outside[0]} out of range")
        tin, tout, end = self.layout.tin, self.layout.tout, self.n_nodes + 1
        # How many members' preorder intervals hold each position.
        edges = np.bincount(tin[unique], minlength=end) - np.bincount(tout[unique], minlength=end)
        held = np.cumsum(edges)
        under = held[tin[unique]] > 1
        if under.any():
            name = self.names[int(unique[np.argmax(under)])]
            raise ValueError(f"treecut is not an antichain at {name!r}")
        bare = (held[tin] == 0) & (tout - tin == 1)  # leaves no member holds
        if bare.any():
            leaf = int(np.argmax(bare))
            raise ValueError(f"treecut does not cover leaf {self.names[leaf]!r} exactly once")
        return LabelSet(tuple(unique.tolist()))


def load_tree(source: str | BinaryIO) -> TaxonomyTree:
    """Parse and validate a tree document: its text or a binary file open for reading.

    Format: one record per line, ``name<TAB>parent-name``; the root uses
    ``-`` as its parent; lines starting with ``#`` and blank lines are
    ignored. A parent must be declared on an earlier line, so file order is
    topological and a cycle surfaces as a forward reference.
    """
    names: list[str] = []
    parents: list[int | None] = []
    index: dict[str, int] = {}
    root_seen = False

    for lineno, line in _records(_lines(source)):
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

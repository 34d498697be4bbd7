"""Shared fixtures: the worked demo tree, random trees, simple tables."""
from __future__ import annotations

import numpy as np

import oracle
from hiertune import EmbeddingTable, PromptParams, Rng64, SampleSet, TaxonomyTree, load_tree

DEMO_DOC = "n0\t-\nn1\tn0\nn2\tn1\nn3\tn1\nn4\tn2\nn5\tn2\nn6\tn0\n"

# Characters str.splitlines breaks at that end no line in a document.
ODD_BREAKS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


def demo_tree() -> TaxonomyTree:
    """Seven-node tree used by the worked examples.

    n0 is the root with children n1 and n6; n1 has children n2 and n3;
    n2 has children n4 and n5. Leaves are n3, n4, n5, n6 and exactly
    three treecuts exist.
    """
    return load_tree(DEMO_DOC)


def nested_demo_table() -> tuple:
    """Demo tree with subtree-sum embeddings: every local decision is clean."""
    tree = demo_tree()
    leaf_axis = {leaf: k for k, leaf in enumerate(tree.leaf_nodes)}
    vectors = np.zeros((tree.n_nodes, len(leaf_axis)))
    for leaf, k in leaf_axis.items():
        vectors[leaf, k] = 1.0
    for node in reversed(tree.internal_nodes):
        if node == tree.root:
            continue
        for child in tree.children[node]:
            vectors[node] += vectors[child]
    return tree, EmbeddingTable(dim=len(leaf_axis), vectors=vectors)


def random_tree(rng: Rng64, max_internal: int = 12, max_nodes: int = 40) -> TaxonomyTree:
    """Random rooted tree with at least two leaves, parents before children.

    Grows an internal skeleton first, then guarantees every childless
    internal node a leaf and sprinkles extra leaves across the skeleton.
    """
    n_internal = 1 + oracle.next_below(rng, max_internal)
    parents: list[int | None] = [None]
    for i in range(1, n_internal):
        parents.append(oracle.next_below(rng, i))
    children_count = [0] * n_internal
    for i in range(1, n_internal):
        children_count[parents[i]] += 1
    leaf_parents = [i for i in range(n_internal) if children_count[i] == 0]
    budget = max_nodes - n_internal - len(leaf_parents)
    extra = 0 if budget <= 0 else oracle.next_below(rng, budget + 1)
    for _ in range(extra):
        leaf_parents.append(oracle.next_below(rng, n_internal))
    while n_internal + len(leaf_parents) < max(n_internal + 2, 3):
        leaf_parents.append(oracle.next_below(rng, n_internal))
    lines = ["v0\t-"]
    for i in range(1, n_internal):
        lines.append(f"v{i}\tv{parents[i]}")
    for j, p in enumerate(leaf_parents):
        lines.append(f"v{n_internal + j}\tv{p}")
    return load_tree("\n".join(lines) + "\n")


def wide_deep_document(rng: Rng64) -> str:
    """A 20,000-node tree document: each node hangs under one of the 50
    nodes before it, so the tree is both wide and deep (from Rng64(20_000),
    7,320 leaves and depth 791)."""
    lines = ["v0\t-"] + [
        f"v{v}\tv{v - 1 - oracle.next_below(rng, min(v, 50))}" for v in range(1, 20_000)
    ]
    return "\n".join(lines) + "\n"


def recursive_document(rng: Rng64, internal: int, leaves: int) -> str:
    """A random recursive tree document, the shape of the benchmark's
    ``large-unbalanced`` workload at (250, 1000): each internal node hangs
    under a uniform earlier one, every childless internal node gets a leaf
    and the other leaves go to uniform internal nodes."""
    parents = [oracle.next_below(rng, v) for v in range(1, internal)]
    childless = sorted(set(range(internal)) - set(parents))
    homes = childless + [oracle.next_below(rng, internal) for _ in range(leaves - len(childless))]
    lines = ["v0\t-"] + [f"v{v}\tv{p}" for v, p in enumerate(parents, 1)]
    lines += [f"v{internal + j}\tv{p}" for j, p in enumerate(homes)]
    return "\n".join(lines) + "\n"


def under_single_child_root(tree: TaxonomyTree) -> TaxonomyTree:
    """The same tree hung below a new root that has it as its only child."""
    lines = ["top\t-"] + [
        f"{name}\t{'top' if p is None else tree.names[p]}"
        for name, p in zip(tree.names, tree.parents)
    ]
    return load_tree("\n".join(lines) + "\n")


def basis_table(tree: TaxonomyTree, dim: int | None = None) -> EmbeddingTable:
    """One standard-basis axis per non-root node; root row stays zero."""
    d = dim if dim is not None else tree.n_nodes - 1
    vectors = np.zeros((tree.n_nodes, d), dtype=np.float64)
    axis = 0
    for node in range(tree.n_nodes):
        if node == tree.root:
            continue
        vectors[node, axis] = 1.0
        axis += 1
    return EmbeddingTable(dim=d, vectors=vectors)


def random_table(tree: TaxonomyTree, dim: int, seed: int) -> EmbeddingTable:
    gen = np.random.Generator(np.random.PCG64(seed))
    vectors = gen.standard_normal((tree.n_nodes, dim))
    vectors[tree.root] = 0.0
    return EmbeddingTable(dim=dim, vectors=vectors)


def samples_at_leaves(
    tree: TaxonomyTree, table: EmbeddingTable, leaves: list[int] | None = None
) -> SampleSet:
    """One sample per requested leaf whose feature is the leaf embedding."""
    chosen = list(tree.leaf_nodes) if leaves is None else leaves
    return SampleSet(
        ids=tuple(f"s{i}" for i in range(len(chosen))),
        leaf_labels=np.asarray(chosen, dtype=np.int64),
        features=table.vectors[np.asarray(chosen)],
    )


def noisy_samples(
    tree: TaxonomyTree,
    table: EmbeddingTable,
    per_leaf: int,
    sigma: float,
    seed: int,
) -> SampleSet:
    gen = np.random.Generator(np.random.PCG64(seed))
    ids, labels, rows = [], [], []
    for leaf in tree.leaf_nodes:
        for j in range(per_leaf):
            ids.append(f"{tree.names[leaf]}.{j}")
            labels.append(leaf)
            rows.append(table.vectors[leaf] + sigma * gen.standard_normal(table.dim))
    return SampleSet(
        ids=tuple(ids),
        leaf_labels=np.asarray(labels, dtype=np.int64),
        features=np.asarray(rows),
    )


def random_params(dim: int, tau: float, seed: int, spread: float = 0.3) -> PromptParams:
    gen = np.random.Generator(np.random.PCG64(seed))
    weight = np.eye(dim) + spread * gen.standard_normal((dim, dim))
    bias = spread * gen.standard_normal(dim)
    return PromptParams(weight=weight, bias=bias, tau=tau)


def names_of(tree: TaxonomyTree, members: tuple[int, ...]) -> tuple[str, ...]:
    return tuple(tree.names[m] for m in members)

"""Seeded inputs for the ``large-unbalanced`` workload.

``hiertune gen-synth`` builds balanced trees and gives every node its own
axis, so it needs ``dim >= n_nodes - 1``. This generator reaches the regime
it cannot: a random recursive tree (each internal node hangs under a
uniformly chosen earlier one, so depth varies from branch to branch) with
many more nodes than dimensions. Embeddings nest along the tree as in
``synth``, but each node adds a random direction instead of an axis.

As with ``synth``, the tree and embeddings are fixed by the shape constants
below and the workload seed moves only the sample noise: runs with
different seeds measure the same problem, so their spread is the
machine's, not the tree shape's.

Usage::

    python3 perfbench/genlarge.py --seed 0 --out DIR

writes ``tree.txt``, ``embeddings.tsv``, ``train.tsv`` and ``heldout.tsv``
through ``hiertune.fileio``'s writers. Equal seeds give equal bytes.
"""
from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hiertune import classifier, fileio, taxonomy  # noqa: E402

INTERNAL = 250
LEAVES = 1000
DIM = 128
TRAIN_PER_LEAF = 3
HELDOUT_PER_LEAF = 2
# Shrink of a node's own direction per level below the root's children;
# deep siblings stay apart without making coarse decisions trivial.
LEVEL_SCALE = 0.7
# Expected norm of a sample's perturbation relative to its unit leaf
# embedding, as in ``synth``. Keeps trained leaf accuracy near 0.44, off
# the ceiling.
NOISE = 1.2
# Seed of the tree and embedding streams.
SHAPE_SEED = 0

# Independent numpy streams per artifact.
_TREE, _EMB, _TRAIN, _HELDOUT = range(4)


def _stream(seed: int, which: int) -> np.random.Generator:
    return np.random.default_rng([seed, which])


def tree_document(seed: int) -> str:
    """A random recursive skeleton of ``INTERNAL`` nodes with ``LEAVES`` leaves.

    Every skeleton node without a child gets one leaf, so all internal
    nodes stay internal; the remaining leaves go to uniform random
    skeleton nodes. Internal nodes come first, so file order is topological.
    """
    gen = _stream(seed, _TREE)
    parents = [-1] + [int(gen.integers(i)) for i in range(1, INTERNAL)]
    childless = sorted(set(range(INTERNAL)) - set(parents[1:]))
    extra = gen.integers(INTERNAL, size=LEAVES - len(childless)).tolist()
    lines = [f"n{v}\t{'-' if p < 0 else f'n{p}'}" for v, p in enumerate(parents)]
    for j, p in enumerate(childless + extra):
        lines.append(f"n{INTERNAL + j}\tn{p}")
    return "\n".join(lines) + "\n"


def embedding_table(tree: taxonomy.TaxonomyTree, seed: int) -> classifier.EmbeddingTable:
    """Unit embeddings that share their ancestors' random directions."""
    gen = _stream(seed, _EMB)
    own = gen.standard_normal((tree.n_nodes, DIM))
    own /= np.linalg.norm(own, axis=1, keepdims=True)
    raw = np.zeros((tree.n_nodes, DIM))
    for v in range(1, tree.n_nodes):
        raw[v] = raw[tree.parents[v]] + LEVEL_SCALE ** (tree.depths[v] - 1) * own[v]
    raw[1:] /= np.linalg.norm(raw[1:], axis=1, keepdims=True)
    return classifier.EmbeddingTable(dim=DIM, vectors=raw)


def sample_set(
    tree: taxonomy.TaxonomyTree,
    table: classifier.EmbeddingTable,
    per_leaf: int,
    gen: np.random.Generator,
) -> classifier.SampleSet:
    leaves = np.repeat(np.asarray(tree.leaf_nodes, dtype=np.int64), per_leaf)
    noise = NOISE / math.sqrt(table.dim) * gen.standard_normal((len(leaves), table.dim))
    return classifier.SampleSet(
        ids=tuple(f"{tree.names[leaf]}.{j % per_leaf}" for j, leaf in enumerate(leaves)),
        leaf_labels=leaves,
        features=table.vectors[leaves] + noise,
    )


def generate(seed: int) -> dict[str, str]:
    """All four documents of one workload instance, keyed by file name.

    ``seed`` draws the training and held-out samples.
    """
    tree = taxonomy.load_tree(tree_document(SHAPE_SEED))
    table = embedding_table(tree, SHAPE_SEED)
    train = sample_set(tree, table, TRAIN_PER_LEAF, _stream(seed, _TRAIN))
    heldout = sample_set(tree, table, HELDOUT_PER_LEAF, _stream(seed, _HELDOUT))
    return {
        "tree.txt": fileio.write_tree(tree),
        "embeddings.tsv": fileio.write_embeddings(table, tree),
        "train.tsv": fileio.write_samples(train, tree, table.dim),
        "heldout.tsv": fileio.write_samples(heldout, tree, table.dim),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True, help="workload seed (>= 0)")
    parser.add_argument("--out", required=True, help="output directory")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in generate(args.seed).items():
        (out / name).write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

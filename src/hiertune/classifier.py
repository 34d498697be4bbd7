"""Cosine-similarity classifier over node embeddings, with a tunable map.

Every node carries a fixed text embedding. A classifier for a label set
scores a feature vector by cosine similarity against the *mapped* node
embeddings w = A e + c, softmaxed at temperature tau. With A = I, c = 0
the classifier is the zero-shot baseline; training moves only A and c, so
one parameter pair serves every label set drawn from the tree.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .taxonomy import LabelSet, TaxonomyTree


@dataclass(frozen=True)
class EmbeddingTable:
    """Per-node embedding rows, aligned with tree node indices.

    The root row is all zeros and never scored; every other row must be
    nonzero so cosines are defined.
    """

    dim: int
    vectors: np.ndarray

    @classmethod
    def from_names(
        cls, tree: TaxonomyTree, dim: int, mapping: dict[str, np.ndarray]
    ) -> EmbeddingTable:
        """Assemble a table from name-keyed vectors, one per non-root node."""
        wanted = {tree.names[i] for i in range(tree.n_nodes) if i != tree.root}
        missing = wanted - set(mapping)
        extra = set(mapping) - wanted
        if missing:
            raise ValueError(f"missing embeddings for: {', '.join(sorted(missing))}")
        if extra:
            raise ValueError(f"embeddings for unknown nodes: {', '.join(sorted(extra))}")
        vectors = np.zeros((tree.n_nodes, dim), dtype=np.float64)
        for name, vec in mapping.items():
            row = np.asarray(vec, dtype=np.float64)
            if row.shape != (dim,):
                raise ValueError(f"embedding for {name!r} has shape {row.shape}, want ({dim},)")
            if not np.isfinite(row).all():
                raise ValueError(f"embedding for {name!r} is not finite")
            if not row.any():
                raise ValueError(f"embedding for {name!r} is all zeros")
            vectors[tree.index(name)] = row
        return cls(dim=dim, vectors=vectors)

    def rows(self, nodes: tuple[int, ...] | np.ndarray) -> np.ndarray:
        return self.vectors[np.asarray(nodes, dtype=np.int64)]


@dataclass(frozen=True)
class SampleSet:
    """A batch of feature vectors with their ground-truth leaf nodes."""

    ids: tuple[str, ...]
    leaf_labels: np.ndarray
    features: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.ids)
        if self.leaf_labels.shape != (n,):
            raise ValueError("one leaf label per sample required")
        if self.features.ndim != 2 or self.features.shape[0] != n:
            raise ValueError("features must be a (n_samples, dim) matrix")

    def __len__(self) -> int:
        return len(self.ids)

    def take(self, indices: list[int] | np.ndarray) -> SampleSet:
        idx = np.asarray(indices, dtype=np.int64)
        return SampleSet(
            ids=tuple(self.ids[int(i)] for i in idx),
            leaf_labels=self.leaf_labels[idx],
            features=self.features[idx],
        )


@dataclass(frozen=True)
class PromptParams:
    """The trainable affine map applied to node embeddings, plus tau."""

    weight: np.ndarray
    bias: np.ndarray
    tau: float

    def __post_init__(self) -> None:
        d = self.bias.shape[0] if self.bias.ndim == 1 else -1
        if d <= 0 or self.weight.shape != (d, d):
            raise ValueError("weight must be (dim, dim) and bias (dim,)")
        if not (np.isfinite(self.weight).all() and np.isfinite(self.bias).all()):
            raise ValueError("parameters must be finite")
        if not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau}")

    @property
    def dim(self) -> int:
        return self.bias.shape[0]

    @classmethod
    def identity(cls, dim: int, tau: float) -> PromptParams:
        """The untrained map: embeddings pass through unchanged."""
        return cls(weight=np.eye(dim), bias=np.zeros(dim), tau=tau)


def unit_rows(x: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Row-normalize a matrix, returning (unit rows, norms).

    Zero rows have no direction and are an input error, not a numeric
    condition to patch around.
    """
    norms = np.linalg.norm(x, axis=1)
    if not np.isfinite(x).all():
        raise ValueError(f"{what} must be finite")
    if (norms == 0).any():
        raise ValueError(f"{what} contains a zero-norm row")
    return x / norms[:, None], norms


def node_weights(params: PromptParams, table: EmbeddingTable, labels: LabelSet) -> np.ndarray:
    """Mapped classifier weights for each label, one row per member."""
    if table.dim != params.dim:
        raise ValueError("embedding and parameter dimensions differ")
    return table.rows(labels.members) @ params.weight.T + params.bias


def unit_weights(
    params: PromptParams, table: EmbeddingTable, nodes: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The label side of a score matrix over ``nodes``, one row per node.

    Returns the embedding rows, the mapped weights scaled to unit rows,
    and the norms those weights had; backpropagation needs all three.
    """
    if table.dim != params.dim:
        raise ValueError("embedding and parameter dimensions differ")
    emb = table.rows(nodes)
    what, wnorm = unit_rows(emb @ params.weight.T + params.bias, "label weights")
    return emb, what, wnorm


def cosine_scores(
    params: PromptParams, table: EmbeddingTable, labels: LabelSet, features: np.ndarray
) -> np.ndarray:
    """Cosine similarity of each feature row against each label weight."""
    fhat, _ = unit_rows(np.asarray(features, dtype=np.float64), "features")
    what, _ = unit_rows(node_weights(params, table, labels), "label weights")
    return fhat @ what.T

def posterior(
    params: PromptParams, table: EmbeddingTable, labels: LabelSet, features: np.ndarray
) -> np.ndarray:
    """Softmax over cosine scores at temperature tau, one row per sample.

    At least two labels are required; a one-label softmax is vacuous and
    hides vocabulary bugs.
    """
    if len(labels) < 2:
        raise ValueError("posterior needs at least two labels")
    z = cosine_scores(params, table, labels, features) / params.tau
    z -= z.max(axis=1, keepdims=True)
    ez = np.exp(z)
    return ez / ez.sum(axis=1, keepdims=True)


def predict(
    params: PromptParams, table: EmbeddingTable, labels: LabelSet, features: np.ndarray
) -> np.ndarray:
    """Highest-cosine label per sample, as tree node indices.

    Ties resolve to the smallest node index (argmax keeps the first
    maximum and members are ascending). Single-label sets are allowed;
    the answer is forced but still well-defined.
    """
    if len(labels) < 1:
        raise ValueError("predict needs at least one label")
    scores = cosine_scores(params, table, labels, features)
    members = np.asarray(labels.members, dtype=np.int64)
    return members[np.argmax(scores, axis=1)]

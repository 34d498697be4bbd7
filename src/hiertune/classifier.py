"""Cosine-similarity classifier over node embeddings, with a tunable map.

Every node carries a fixed text embedding. A feature vector is scored by
cosine similarity against the *mapped* node embeddings w = A e + c, and a
classifier for a label set predicts the member with the highest cosine.
With A = I, c = 0 the classifier is the zero-shot baseline; training moves
only A and c, so one parameter pair serves every label set drawn from the
tree.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .taxonomy import TaxonomyTree


@dataclass(frozen=True)
class EmbeddingTable:
    """Per-node embedding rows, aligned with tree node indices.

    The root row is all zeros and never scored; every other row must be
    nonzero so cosines are defined.
    """

    dim: int
    vectors: np.ndarray

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
        if not 0 < self.tau < np.inf:
            raise ValueError(f"tau must be positive and finite, got {self.tau}")

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
    condition to patch around; so are finite rows whose norm overflows.
    """
    norms = np.linalg.norm(x, axis=1)
    if not np.isfinite(x).all():
        raise ValueError(f"{what} must be finite")
    if not np.isfinite(norms).all():
        raise ValueError(f"{what} contains a row whose norm overflows")
    if (norms == 0).any():
        raise ValueError(f"{what} contains a zero-norm row")
    return x / norms[:, None], norms


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


def predict(tree: TaxonomyTree, scores: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Highest-scoring member per row of a layout-column score matrix.

    ``scores`` holds one column per non-root node in ``tree.layout`` order,
    as ``metrics.score_blocks`` yields them; ``members`` is the vocabulary
    as ascending node indices, so a tie goes to the smallest one. A
    one-member vocabulary is allowed; the answer is forced.
    """
    return members[np.argmax(np.take(scores, tree.layout.column[members], axis=1), axis=1)]

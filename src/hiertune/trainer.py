"""Minibatch SGD over the affine map, fully seed-determined.

One run is a pure function of (tree, embeddings, samples, config): the
cut sampler, the per-epoch shuffles, and the learning-rate schedule all
derive from the config seed, and the update rule is plain SGD, so two runs
with equal inputs produce bit-identical parameters. The returned log
carries a digest of the final parameters to make that cheap to assert.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classifier import EmbeddingTable, PromptParams, SampleSet, unit_rows, unit_weights
from .objectives import _forward, total_loss
from .rng import Rng64, derive_seed
from .taxonomy import TaxonomyTree
from .treecut import build_matrices, sample_treecut


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one run.

    ``shots`` limits training to the first ``shots`` samples of each leaf
    in file order; None trains on everything.
    """

    epochs: int
    batch_size: int
    base_lr: float = 0.02
    lam: float = 0.5
    beta: float = 0.1
    seed: int = 0
    tau: float = 0.07
    shots: int | None = None

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if not 0 < self.base_lr < math.inf:
            raise ValueError(f"base_lr must be positive and finite, got {self.base_lr}")
        if not 0 <= self.lam < math.inf:
            raise ValueError(f"lam must be non-negative and finite, got {self.lam}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {self.beta}")
        if not 0 < self.tau < math.inf:
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        if self.shots is not None and self.shots < 1:
            raise ValueError("shots must be at least 1 when given")


@dataclass(frozen=True)
class IterationRecord:
    """One SGD step: schedule state, sampled cut size, loss parts."""

    iteration: int
    lr: float
    cut_size: int
    dtl: float
    ncl: float
    total: float


@dataclass(frozen=True)
class TrainLog:
    """The steps; ``warning`` is empty unless training may have diverged."""

    records: tuple[IterationRecord, ...]
    params_digest: str
    seed: int
    warning: str = ""


def cosine_lr(step: int, total_steps: int, base_lr: float) -> float:
    """Half-cosine decay from ``base_lr`` toward zero over the run."""
    if total_steps <= 0:
        raise ValueError("total_steps must be positive")
    if not 0 <= step < total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps})")
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * step / total_steps))


def k_shot_indices(samples: SampleSet, shots: int) -> np.ndarray:
    """Indices of the first ``shots`` samples of each leaf, in file order.

    Leaves with fewer samples keep all of theirs.
    """
    if shots < 1:
        raise ValueError("shots must be at least 1")
    order = np.argsort(samples.leaf_labels, kind="stable")
    leaves = samples.leaf_labels[order]
    # A sample's rank among its leaf's samples is its distance from the first.
    rank = np.arange(len(order)) - np.searchsorted(leaves, leaves)
    return np.sort(order[rank < shots])


def params_digest(params: PromptParams) -> str:
    """Stable hex digest of the parameter bytes, for determinism checks."""
    import hashlib  # loaded at the digest, after the loop: OpenSSL takes 3.6 MB
    h = hashlib.sha256()
    h.update(f"{params.dim},{params.tau!r}".encode())
    h.update(np.ascontiguousarray(params.weight).tobytes())
    h.update(np.ascontiguousarray(params.bias).tobytes())
    return h.hexdigest()


def train(
    config: TrainConfig,
    tree: TaxonomyTree,
    emb: EmbeddingTable,
    data: SampleSet,
) -> tuple[PromptParams, TrainLog]:
    """Run SGD from the identity map and return the tuned parameters.

    Per iteration: draw one treecut from the cut stream, take the total
    loss on the minibatch, step both parameter blocks by the scheduled
    rate. Epoch shuffles use their own derived streams so batch order
    never perturbs the cut sequence. Samples with a feature row whose norm
    overflows are a ValueError before the first step; a step whose map or
    mapped embedding norms overflow aborts the run with a RuntimeError
    naming the step. A final loss on step 0's batch and cut above step 0's
    sets the log's warning.
    """
    if len(data) == 0:
        raise ValueError("no training samples")
    if data.features.shape[1] != emb.dim:
        raise ValueError(f"sample dim {data.features.shape[1]} is not embedding dim {emb.dim}")
    work = data if config.shots is None else data.take(k_shot_indices(data, config.shots))

    # A feature row whose norm overflows is a fault in the samples, as eval
    # reports it, not divergence: check the squared norms once (einsum makes
    # no x*x copy), before overflow raises below, and let unit_rows name the
    # fault only when there is one.
    with np.errstate(over="ignore"):
        if not np.isfinite(np.einsum("ij,ij->i", work.features, work.features)).all():
            unit_rows(work.features, "features")

    layout = build_matrices(tree)
    n = len(work)
    batches_per_epoch = math.ceil(n / config.batch_size)
    total_steps = config.epochs * batches_per_epoch
    cut_rng = Rng64(config.seed)

    params = PromptParams.identity(emb.dim, config.tau)
    weight, bias = params.weight, params.bias  # stepped in place
    records = []
    # Cosine logits are bounded by 1 / tau, so a diverging run never shows
    # a non-finite loss: it shows as a climbing loss, or as overflow in the
    # map or in the norms of the node embeddings it maps, raised here. After
    # the loop, unit_weights checks the final map on every node, as eval maps them.
    try:
        with np.errstate(over="raise"):
            for epoch in range(config.epochs):
                order = list(range(n))
                Rng64(derive_seed(config.seed, epoch + 1)).shuffle(order)
                for b in range(batches_per_epoch):
                    iteration = epoch * batches_per_epoch + b
                    chunk = order[b * config.batch_size : (b + 1) * config.batch_size]
                    batch = work.take(chunk)
                    lr = cosine_lr(iteration, total_steps, config.base_lr)
                    cut = sample_treecut(tree, layout, config.beta, cut_rng)
                    total, dtl, ncl = total_loss(tree, params, emb, cut, batch, config.lam)
                    if iteration == 0:
                        first_cut, first_batch = cut, batch
                    weight -= lr * total.grad_weight
                    bias -= lr * total.grad_bias
                    records.append(IterationRecord(
                        iteration, lr, len(cut), dtl, ncl, total.value
                    ))
            unit_weights(params, emb.vectors[layout.nodes])
            _, dtl, ncl, _ = _forward(tree, params, emb, first_cut, first_batch, config.lam)
            after = dtl + config.lam * ncl  # total_loss's value, with no backward pass
    except FloatingPointError as exc:
        raise RuntimeError(f"training diverged at iteration {iteration}: {exc}") from None

    warning = "" if after <= records[0].total else (
        f"final params score loss {after!r} on step 0's batch and cut, above "
        f"step 0's {records[0].total!r}: training may have diverged"
    )
    log = TrainLog(tuple(records), params_digest(params), config.seed, warning)
    return params, log

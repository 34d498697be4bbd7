"""The score-matrix losses, metrics, cut check and sampler against references.

``oracle`` keeps the per-vocabulary, per-node and per-sample versions the
library used before it moved to one score matrix per batch. On random
trees, with one-child nodes, exact score ties and one-label cuts, losses
and gradients must agree to 1e-12 relative and every prediction and
accuracy must be exactly equal. It also keeps the integer-matrix treecut
sampler; the boolean-mask one must give the same flags, masks and cuts.
"""
from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracle
from hiertune import (
    EmbeddingTable,
    Rng64,
    TaxonomyTree,
    build_matrices,
    blocked_mask,
    correct_flags,
    cross_entropy_loss,
    cut_from_flags,
    hca,
    leaf_accuracy,
    load_tree,
    mta,
    node_centric_loss,
    predict,
    sample_distinct,
    sample_treecut,
    total_loss,
    treecut_loss,
)
from hiertune import metrics

from helpers import noisy_samples, random_params, random_table, random_tree

REL = 1e-12


def under_single_child_root(tree: TaxonomyTree) -> TaxonomyTree:
    """The same tree hung below a new root that has it as its only child."""
    lines = ["top\t-"] + [
        f"{name}\t{'top' if p is None else tree.names[p]}"
        for name, p in zip(tree.names, tree.parents)
    ]
    return load_tree("\n".join(lines) + "\n")


def with_duplicate_rows(tree: TaxonomyTree, table: EmbeddingTable, rng: Rng64) -> EmbeddingTable:
    """Copy some nodes' rows onto later nodes, so their scores tie exactly."""
    vectors = table.vectors.copy()
    for v in range(2, tree.n_nodes):
        if rng.next_below(3) == 0:
            vectors[v] = vectors[1 + rng.next_below(v - 1)]
    return EmbeddingTable(dim=table.dim, vectors=vectors)


@st.composite
def problems(draw):
    """A random tree, table, map, sample batch and sampled cut."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = Rng64(seed)
    tree = random_tree(rng, max_internal=draw(st.integers(1, 7)), max_nodes=24)
    if draw(st.booleans()):
        tree = under_single_child_root(tree)
    dim = draw(st.integers(2, 6))
    table = random_table(tree, dim, seed=seed)
    if draw(st.booleans()):
        table = with_duplicate_rows(tree, table, rng)
    params = random_params(dim, tau=draw(st.sampled_from((0.1, 0.5, 1.0))), seed=seed)
    batch = noisy_samples(tree, table, draw(st.integers(1, 3)), sigma=0.6, seed=seed)
    beta = draw(st.sampled_from((0.0, 0.1, 1.0)))
    cut = sample_treecut(tree, build_matrices(tree), beta, rng)
    return tree, table, params, batch, cut


def assert_close(new, old):
    assert new.n_contributing == old.n_contributing
    assert abs(new.value - old.value) <= REL * abs(old.value)
    for a, b in ((new.grad_weight, old.grad_weight), (new.grad_bias, old.grad_bias)):
        assert np.abs(a - b).max() <= REL * np.abs(b).max()


@given(problems(), st.sampled_from((0.0, 0.5)))
def test_losses_match_reference(problem, lam):
    tree, table, params, batch, cut = problem
    for new, old in zip(
        total_loss(tree, params, table, cut, batch, lam),
        oracle.total_loss(tree, params, table, cut, batch, lam),
    ):
        assert_close(new, old)
    assert_close(
        node_centric_loss(tree, params, table, batch),
        oracle.node_centric_loss(tree, params, table, batch),
    )
    assert_close(
        treecut_loss(tree, params, table, cut, batch),
        oracle.treecut_loss(tree, params, table, cut, batch),
    )
    vocabularies = [tree.node_label_set(n) for n in tree.internal_nodes]
    for labels in [tree.leaf_label_set(), *vocabularies]:
        if len(labels) >= 2:
            assert_close(
                cross_entropy_loss(tree, params, table, labels, batch),
                oracle.cross_entropy_loss(tree, params, table, labels, batch),
            )


@given(problems(), st.integers(1, 5))
def test_metrics_match_reference(problem, block):
    tree, table, params, data, cut = problem
    betas = (0.5, 1.0)
    with mock.patch.object(metrics, "EVAL_BLOCK", block):
        vocabularies = [tree.leaf_label_set(), cut]
        vocabularies += [tree.node_label_set(n) for n in tree.internal_nodes]
        for labels in vocabularies:
            members = np.asarray(labels.members)
            pred = np.concatenate([
                metrics._argmax_member(tree, scores, members)
                for _, scores in metrics._score_blocks(tree, params, table, data)
            ])
            np.testing.assert_array_equal(pred, predict(params, table, labels, data.features))
        assert leaf_accuracy(tree, params, table, data) == oracle.leaf_accuracy(
            tree, params, table, data
        )
        assert hca(tree, params, table, data) == oracle.hca(tree, params, table, data)
        assert mta(tree, params, table, data, betas, 2, seed=5) == oracle.mta(
            tree, params, table, data, betas, 2, seed=5
        )


def outcome(check, tree, members):
    try:
        return check(tree, members)
    except ValueError as exc:
        return str(exc)


@given(st.integers(0, 2**32 - 1), st.data())
def test_treecut_check_matches_reference(seed, data):
    tree = random_tree(Rng64(seed), max_internal=6, max_nodes=16)
    members = data.draw(st.lists(st.integers(0, tree.n_nodes - 1), max_size=tree.n_nodes))
    new = outcome(TaxonomyTree.treecut_label_set, tree, members)
    assert new == outcome(oracle.treecut_label_set, tree, members)


def test_treecut_check_accepts_sampled_cuts_and_rejects_out_of_range():
    rng = Rng64(8)
    for _ in range(20):
        tree = random_tree(rng)
        bundle = build_matrices(tree)
        for beta in (0.0, 0.3, 1.0):
            cut = sample_treecut(tree, bundle, beta, rng)
            assert oracle.treecut_label_set(tree, cut.members) == cut
    tree = random_tree(Rng64(3))
    for bad in (-1, tree.n_nodes):
        with pytest.raises(ValueError, match="out of range"):
            tree.treecut_label_set((*tree.leaf_nodes, bad))


def sampler_tree(seed: int, one_child_root: bool) -> TaxonomyTree:
    tree = random_tree(Rng64(seed), max_internal=8, max_nodes=24)
    return under_single_child_root(tree) if one_child_root else tree


@given(st.integers(0, 2**32 - 1), st.booleans(), st.data())
def test_flag_algebra_matches_reference(seed, one_child_root, data):
    tree = sampler_tree(seed, one_child_root)
    new, old = build_matrices(tree), oracle.build_matrices(tree)
    k = len(new.internal_nodes)
    flags = np.asarray(data.draw(st.lists(st.integers(0, 1), min_size=k, max_size=k)))
    if flags[0] == 0:
        with pytest.raises(ValueError, match="root flag"):
            correct_flags(flags, new)
        return
    repaired = oracle.correct_flags(flags, old)
    np.testing.assert_array_equal(correct_flags(flags, new), repaired.kept)
    np.testing.assert_array_equal(blocked_mask(flags, new), oracle.blocked_mask(repaired, old))
    assert cut_from_flags(tree, new, flags) == oracle.cut_from_flags(tree, old, repaired)


@given(
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.sampled_from((0.0, 0.1, 0.5, 0.9, 1.0)),
    st.integers(1, 12),
)
def test_sampler_matches_reference(seed, one_child_root, beta, count):
    tree = sampler_tree(seed, one_child_root)
    new, old = build_matrices(tree), oracle.build_matrices(tree)
    new_rng, old_rng = Rng64(seed), Rng64(seed)
    for _ in range(5):
        assert sample_treecut(tree, new, beta, new_rng) == oracle.sample_treecut(
            tree, old, beta, old_rng
        )
    assert sample_distinct(tree, new, beta, count, Rng64(seed)) == oracle.sample_distinct(
        tree, old, beta, count, Rng64(seed)
    )

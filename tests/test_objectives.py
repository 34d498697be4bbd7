"""Cross-entropy objectives over tree vocabularies, their gradients, the mix."""
from __future__ import annotations

import math

import numpy as np
import pytest

from hiertune import (
    EmbeddingTable,
    LabelSet,
    PromptParams,
    SampleSet,
    gradient_check,
    load_tree,
    node_centric_loss,
    total_loss,
    treecut_loss,
)

import oracle
from helpers import (
    basis_table,
    demo_tree,
    noisy_samples,
    random_params,
    random_table,
    random_tree,
    samples_at_leaves,
)
from hiertune import Rng64

LN2 = 0.6931471805599453


def star_fixture():
    tree = load_tree("r\t-\na\tr\nb\tr\n")
    table = EmbeddingTable(dim=3, vectors=np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]]))
    return tree, table


def chain_fixture():
    """A root with one leaf: no vocabulary has two labels."""
    chain = load_tree("r\t-\na\tr\n")
    return chain, EmbeddingTable(dim=2, vectors=np.array([[0.0, 0.0], [1.0, 0.0]]))


def leaf_cut(tree):
    return tree.treecut_label_set(tuple(tree.leaf_nodes))


def nll(tree, params, table, vocabulary, sample: SampleSet) -> float:
    """-log of the reference softmax share of one sample's target in ``vocabulary``."""
    labels = LabelSet(tuple(vocabulary))
    target = tree.target_in(int(sample.leaf_labels[0]), labels)
    p = oracle.posterior(params, table, labels, sample.features)
    return -math.log(p[0, labels.members.index(target)])


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


def one_sample(tree, table, leaf: int) -> SampleSet:
    return SampleSet(
        ids=(tree.names[leaf],),
        leaf_labels=np.array([leaf]),
        features=table.vectors[None, leaf].copy(),
    )


def test_cross_entropy_equidistant_is_ln2():
    tree, table = star_fixture()
    params = PromptParams.identity(3, 1.0)
    batch = SampleSet(
        ids=("s",),
        leaf_labels=np.array([tree.index("a")]),
        features=np.array([[1.0, 1.0, 0.0]]),
    )
    loss = treecut_loss(tree, params, table, leaf_cut(tree), batch)
    assert loss.value == LN2
    assert loss.n_contributing == 1


def test_cross_entropy_zero_at_cold_separation():
    tree, table = star_fixture()
    cold = PromptParams.identity(3, 1e-3)
    batch = one_sample(tree, table, tree.index("a"))
    loss = treecut_loss(tree, cold, table, leaf_cut(tree), batch)
    assert loss.value == 0.0
    np.testing.assert_array_equal(loss.grad_weight, np.zeros((3, 3)))
    np.testing.assert_array_equal(loss.grad_bias, np.zeros(3))


def test_cross_entropy_matches_posterior():
    tree = demo_tree()
    table = random_table(tree, 6, seed=14)
    params = random_params(6, tau=0.4, seed=3)
    batch = noisy_samples(tree, table, per_leaf=3, sigma=0.3, seed=8)
    labels = leaf_cut(tree)
    loss = treecut_loss(tree, params, table, labels, batch)
    p = oracle.posterior(params, table, labels, batch.features)
    member_pos = {m: k for k, m in enumerate(labels.members)}
    cols = [member_pos[int(leaf)] for leaf in batch.leaf_labels]
    expected = -np.log(p[np.arange(len(batch)), cols]).mean()
    np.testing.assert_allclose(loss.value, expected, atol=1e-12)
    assert loss.n_contributing == len(batch)


def test_cross_entropy_projects_targets_to_ancestors():
    # A lone n4 sample enters every node's term; its target among each
    # node's children is the child on its root path: n1, then n2, then n4.
    tree, table = nested_demo_table()
    params = PromptParams.identity(table.dim, 1.0)
    batch = one_sample(tree, table, tree.index("n4"))
    loss = node_centric_loss(tree, params, table, batch)
    terms = [nll(tree, params, table, tree.children[n], batch) for n in tree.internal_nodes]
    np.testing.assert_allclose(loss.value, sum(terms) / 3, rtol=1e-12)
    assert loss.n_contributing == 1


def test_cross_entropy_skips_samples_without_target():
    # An n6 sample has no target among the children of n1 or n2, so it
    # enters only the root's term, and the other two terms stay n4's.
    tree, table = nested_demo_table()
    params = random_params(table.dim, tau=0.5, seed=6)
    n4 = one_sample(tree, table, tree.index("n4"))
    n6 = one_sample(tree, table, tree.index("n6"))
    batch = SampleSet(
        ids=n4.ids + n6.ids,
        leaf_labels=np.append(n4.leaf_labels, n6.leaf_labels),
        features=np.vstack([n4.features, n6.features]),
    )
    loss = node_centric_loss(tree, params, table, batch)
    root, n1, n2 = (tree.children[n] for n in tree.internal_nodes)
    root_term = (nll(tree, params, table, root, n4) + nll(tree, params, table, root, n6)) / 2
    expected = (root_term + nll(tree, params, table, n1, n4) + nll(tree, params, table, n2, n4)) / 3
    np.testing.assert_allclose(loss.value, expected, rtol=1e-12)
    assert loss.n_contributing == 2


def test_cross_entropy_all_samples_outside_is_zero():
    # No node of a chain has two children, so no sample enters a term.
    chain, table = chain_fixture()
    batch = one_sample(chain, table, chain.index("a"))
    loss = node_centric_loss(chain, PromptParams.identity(2, 1.0), table, batch)
    assert loss.value == 0.0
    assert loss.n_contributing == 0
    np.testing.assert_array_equal(loss.grad_weight, np.zeros((2, 2)))


def test_cross_entropy_input_validation():
    tree, table = star_fixture()
    params = PromptParams.identity(3, 1.0)
    empty = SampleSet(ids=(), leaf_labels=np.zeros(0, np.int64), features=np.zeros((0, 3)))
    with pytest.raises(ValueError, match="empty"):
        treecut_loss(tree, params, table, leaf_cut(tree), empty)
    with pytest.raises(ValueError, match="empty"):
        node_centric_loss(tree, params, table, empty)
    with pytest.raises(ValueError, match="empty"):
        total_loss(tree, params, table, leaf_cut(tree), empty, lam=0.5)


def test_node_centric_zero_at_cold_separation():
    # The narrowest local margin is cos = 1/sqrt(3); tau must be small
    # enough that exp(-margin / tau) underflows to an exact zero.
    tree, table = nested_demo_table()
    cold = PromptParams.identity(table.dim, 1e-4)
    batch = samples_at_leaves(tree, table)
    loss = node_centric_loss(tree, cold, table, batch)
    assert loss.value == 0.0
    np.testing.assert_array_equal(loss.grad_bias, np.zeros(table.dim))
    assert loss.n_contributing == len(batch)


def test_node_centric_single_outside_sample():
    # A lone n6 sample reaches only the root decision; the other two
    # internal nodes contribute zero but still divide the average.
    tree, table = nested_demo_table()
    params = random_params(table.dim, tau=0.3, seed=12)
    batch = one_sample(tree, table, tree.index("n6"))
    ncl = node_centric_loss(tree, params, table, batch)
    root_cut = tree.treecut_label_set(tree.children[tree.root])  # {n1, n6}
    root_ce = treecut_loss(tree, params, table, root_cut, batch)
    assert ncl.value == root_ce.value / 3
    np.testing.assert_array_equal(ncl.grad_weight, root_ce.grad_weight / 3)
    np.testing.assert_array_equal(ncl.grad_bias, root_ce.grad_bias / 3)
    assert ncl.n_contributing == 1


def test_node_centric_depth_one_equals_leaf_ce():
    tree = load_tree("r\t-\na\tr\nb\tr\nc\tr\n")
    table = basis_table(tree)
    params = random_params(table.dim, tau=0.2, seed=5)
    batch = samples_at_leaves(tree, table)
    ncl = node_centric_loss(tree, params, table, batch)
    ce = treecut_loss(tree, params, table, leaf_cut(tree), batch)
    assert ncl.value == ce.value
    np.testing.assert_array_equal(ncl.grad_weight, ce.grad_weight)
    np.testing.assert_array_equal(ncl.grad_bias, ce.grad_bias)


def test_treecut_loss_on_leaf_cut_equals_plain_ce():
    tree, table = nested_demo_table()
    params = random_params(table.dim, tau=0.4, seed=7)
    batch = noisy_samples(tree, table, per_leaf=2, sigma=0.2, seed=1)
    cut = tree.treecut_label_set(tuple(tree.leaf_nodes))
    dtl = treecut_loss(tree, params, table, cut, batch)
    ce = oracle.cross_entropy_loss(tree, params, table, oracle.leaf_label_set(tree), batch)
    np.testing.assert_allclose(dtl.value, ce.value, rtol=1e-12)
    np.testing.assert_allclose(dtl.grad_weight, ce.grad_weight, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(dtl.grad_bias, ce.grad_bias, rtol=1e-12, atol=1e-15)
    assert dtl.n_contributing == len(batch)


def test_treecut_loss_projects_to_coarse_cut():
    tree, table = nested_demo_table()
    params = PromptParams.identity(table.dim, 1.0)
    cut = tree.treecut_label_set((tree.index("n1"), tree.index("n6")))
    batch = one_sample(tree, table, tree.index("n4"))
    loss = treecut_loss(tree, params, table, cut, batch)
    p = oracle.posterior(params, table, cut, batch.features)
    np.testing.assert_allclose(loss.value, -math.log(p[0, 0]), atol=1e-12)


def test_treecut_loss_singleton_cut_is_free():
    chain, table = chain_fixture()
    params = PromptParams.identity(2, 1.0)
    batch = one_sample(chain, table, chain.index("a"))
    loss = treecut_loss(chain, params, table, chain.treecut_label_set((chain.index("a"),)), batch)
    assert loss.value == 0.0
    assert loss.n_contributing == 1


def test_treecut_loss_enforces_validity():
    tree, table = nested_demo_table()
    params = PromptParams.identity(table.dim, 1.0)
    batch = one_sample(tree, table, tree.index("n4"))
    # An unvalidated label set is checked, not trusted: the leaves are the
    # rate-0 cut and pass, a lone n1 leaves n6 uncovered and fails.
    raw = treecut_loss(tree, params, table, LabelSet(members=tree.leaf_nodes), batch)
    checked = treecut_loss(tree, params, table, leaf_cut(tree), batch)
    assert raw.value == checked.value
    np.testing.assert_array_equal(raw.grad_weight, checked.grad_weight)
    bogus = LabelSet(members=(tree.index("n1"),))
    with pytest.raises(ValueError, match="does not cover leaf 'n6'"):
        treecut_loss(tree, params, table, bogus, batch)
    with pytest.raises(ValueError, match="not an antichain"):
        treecut_loss(tree, params, table, LabelSet(members=(1, 2, 6)), batch)


def test_total_loss_lambda_zero_is_pure_treecut():
    tree, table = nested_demo_table()
    params = random_params(table.dim, tau=0.3, seed=2)
    cut = tree.treecut_label_set(tuple(tree.leaf_nodes))
    batch = noisy_samples(tree, table, per_leaf=2, sigma=0.4, seed=3)
    total, dtl, ncl = total_loss(tree, params, table, cut, batch, lam=0.0)
    assert total is dtl
    assert ncl.value == 0.0
    assert ncl.n_contributing == 0


def test_total_loss_combines_linearly():
    tree, table = nested_demo_table()
    params = random_params(table.dim, tau=0.3, seed=2)
    cut = tree.treecut_label_set((tree.index("n1"), tree.index("n6")))
    batch = noisy_samples(tree, table, per_leaf=2, sigma=0.4, seed=3)
    for lam in (0.5, 1.0, 2.0):
        total, dtl, ncl = total_loss(tree, params, table, cut, batch, lam)
        assert total.value == dtl.value + lam * ncl.value
        np.testing.assert_array_equal(
            total.grad_weight, dtl.grad_weight + lam * ncl.grad_weight
        )
        np.testing.assert_array_equal(
            total.grad_bias, dtl.grad_bias + lam * ncl.grad_bias
        )
        assert total.n_contributing == len(batch)
    with pytest.raises(ValueError, match="non-negative"):
        total_loss(tree, params, table, cut, batch, lam=-0.1)


def test_loss_values_are_non_negative():
    rng = Rng64(71)
    for trial in range(8):
        tree = random_tree(rng, max_internal=5, max_nodes=14)
        table = random_table(tree, 5, seed=trial)
        params = random_params(5, tau=0.5, seed=trial + 50)
        batch = noisy_samples(tree, table, per_leaf=2, sigma=0.5, seed=trial)
        cut = tree.treecut_label_set(tuple(tree.leaf_nodes))
        total, dtl, ncl = total_loss(tree, params, table, cut, batch, lam=0.7)
        assert dtl.value >= 0.0
        assert ncl.value >= 0.0
        assert total.value >= 0.0


def test_gradient_check_tight_at_identity():
    tree, table = nested_demo_table()
    params = PromptParams.identity(table.dim, 0.5)
    cut = tree.treecut_label_set((tree.index("n1"), tree.index("n6")))
    batch = noisy_samples(tree, table, per_leaf=2, sigma=0.3, seed=4)
    for lam in (0.0, 0.5, 1.0):
        assert gradient_check(tree, params, table, cut, batch, lam) <= 1e-6


def test_gradient_check_randomized_maps():
    rng = Rng64(640)
    for trial in range(5):
        tree = random_tree(rng, max_internal=4, max_nodes=12)
        table = random_table(tree, 6, seed=trial + 10)
        params = random_params(6, tau=0.4, seed=trial)
        batch = noisy_samples(tree, table, per_leaf=2, sigma=0.5, seed=trial)
        cut = tree.treecut_label_set(tuple(tree.leaf_nodes))
        assert gradient_check(tree, params, table, cut, batch, lam=0.5) <= 1e-4


def test_gradient_check_flat_region_is_exact():
    tree, table = nested_demo_table()
    cold = PromptParams.identity(table.dim, 1e-4)
    cut = tree.treecut_label_set(tuple(tree.leaf_nodes))
    batch = samples_at_leaves(tree, table)
    assert gradient_check(tree, cold, table, cut, batch, lam=1.0) == 0.0

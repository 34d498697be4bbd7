"""Leaf accuracy, path-consistent accuracy, treecut-averaged accuracy."""
from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hiertune import (
    EmbeddingTable,
    PromptParams,
    Rng64,
    SampleSet,
    evaluate,
    hca,
    leaf_accuracy,
    load_tree,
    mta,
    predict,
)
from hiertune import classifier, metrics
from hiertune.taxonomy import ColumnLayout

import oracle
from helpers import (
    basis_table,
    demo_tree,
    noisy_samples,
    random_params,
    random_table,
    random_tree,
    recursive_document,
    samples_at_leaves,
    wide_deep_document,
)

THIRD = 0.3333333333333333


def crossed_sample(tree, table) -> SampleSet:
    """A sample of leaf n4 whose feature leans toward the foreign leaf n6.

    The leaf vocabulary still ranks n4 first (cosine 1 vs 0.9 on the
    basis table), but the root decision between n1 and n6 goes to n6, so
    the sample is leaf-accurate yet path-inconsistent.
    """
    f = table.vectors[tree.name_index["n4"]] + 0.9 * table.vectors[tree.name_index["n6"]]
    return SampleSet(
        ids=("crossed",),
        leaf_labels=np.array([tree.name_index["n4"]]),
        features=f[None, :],
    )


def test_leaf_accuracy_counts_exact_matches():
    tree = demo_tree()
    table = basis_table(tree)
    ident = PromptParams.identity(table.dim, 1.0)
    clean = samples_at_leaves(tree, table)
    assert leaf_accuracy(tree, ident, table, clean) == 1.0
    one_wrong = SampleSet(
        ids=clean.ids,
        leaf_labels=np.array([3, 4, 5, 3]),  # last sample mislabeled
        features=clean.features,
    )
    assert leaf_accuracy(tree, ident, table, one_wrong) == 0.75
    # Leaves n4 and n5 share one embedding row, so they tie on n5's sample:
    # the smaller index, n4, wins in the public predict and in the leaf
    # set's decision that leaf accuracy counts.
    vectors = table.vectors.copy()
    vectors[5] = vectors[4]
    tied = EmbeddingTable(dim=table.dim, vectors=vectors)
    data = samples_at_leaves(tree, tied)
    [(_, scores)] = metrics.score_blocks(tree, ident, tied, data)
    assert predict(tree, scores, np.asarray(tree.leaf_nodes)).tolist() == [3, 4, 4, 6]
    assert leaf_accuracy(tree, ident, tied, data) == 0.75


def test_hca_penalizes_inconsistent_path():
    tree = demo_tree()
    table = basis_table(tree)
    ident = PromptParams.identity(table.dim, 1.0)
    bad = crossed_sample(tree, table)
    assert leaf_accuracy(tree, ident, table, bad) == 1.0
    assert hca(tree, ident, table, bad) == 0.0
    clean = samples_at_leaves(tree, table)
    assert hca(tree, ident, table, clean) == 1.0


def test_hca_never_exceeds_leaf_accuracy():
    rng = Rng64(909)
    for trial in range(12):
        tree = random_tree(rng, max_internal=6, max_nodes=18)
        table = random_table(tree, 6, seed=trial)
        params = random_params(6, tau=0.4, seed=trial + 30)
        data = noisy_samples(tree, table, per_leaf=3, sigma=0.8, seed=trial)
        assert hca(tree, params, table, data) <= leaf_accuracy(tree, params, table, data)


def test_hca_skips_single_child_ancestors():
    tree = load_tree("r\t-\nu\tr\nc\tr\nm\tu\na\tm\nb\tm\n")
    leaf_axis = {tree.name_index[n]: k for k, n in enumerate(("a", "b", "c"))}
    vectors = np.zeros((tree.n_nodes, 3))
    for leaf, k in leaf_axis.items():
        vectors[leaf, k] = 1.0
    for name in ("m", "u"):
        vectors[tree.name_index[name]] = vectors[tree.name_index["a"]] + vectors[tree.name_index["b"]]
    table = EmbeddingTable(dim=3, vectors=vectors)
    ident = PromptParams.identity(3, 1.0)
    data = samples_at_leaves(tree, table)
    assert leaf_accuracy(tree, ident, table, data) == 1.0
    assert hca(tree, ident, table, data) == 1.0


def test_depth_one_tree_collapses_all_metrics():
    tree = load_tree("r\t-\na\tr\nb\tr\nc\tr\n")
    table = random_table(tree, 4, seed=6)
    params = random_params(4, tau=0.3, seed=2)
    data = noisy_samples(tree, table, per_leaf=5, sigma=1.0, seed=3)
    report = evaluate(tree, params, table, data, betas=(0.0, 0.5, 1.0), cuts_per_beta=3, seed=0)
    assert report.hca == report.leaf_acc
    assert report.mta == report.leaf_acc
    assert all(m == report.leaf_acc for m in report.mta_per_beta)
    assert report.cuts_used == ((3,), (3,), (3,))


def test_mta_at_rate_zero_equals_leaf_accuracy():
    rng = Rng64(515)
    for trial in range(6):
        tree = random_tree(rng, max_internal=5, max_nodes=15)
        table = random_table(tree, 6, seed=trial)
        params = random_params(6, tau=0.5, seed=trial + 7)
        data = noisy_samples(tree, table, per_leaf=2, sigma=0.7, seed=trial)
        pooled, groups = mta(tree, params, table, data, betas=(0.0,), cuts_per_beta=4, seed=trial)
        assert pooled == leaf_accuracy(tree, params, table, data)
        assert len(groups) == 1 and len(groups[0]) == 1  # only one cut exists at rate 0
        assert groups[0][0].size == len(tree.leaf_nodes)


def test_mta_demo_crossed_sample_scores_one_third():
    # The three demo cuts split 1 right, 2 wrong for the crossed sample:
    # right on the leaf fringe, wrong wherever n6 competes with n4's side.
    tree = demo_tree()
    table = basis_table(tree)
    ident = PromptParams.identity(table.dim, 1.0)
    bad = crossed_sample(tree, table)
    pooled, groups = mta(tree, ident, table, bad, betas=(0.5,), cuts_per_beta=5, seed=0)
    assert pooled == THIRD
    assert len(groups[0]) == 3
    by_size = {r.size: r.accuracy for r in groups[0]}
    assert by_size == {2: 0.0, 3: 0.0, 4: 1.0}


def test_mta_rate_groups_are_independent():
    tree = demo_tree()
    table = random_table(tree, 6, seed=40)
    params = random_params(6, tau=0.4, seed=41)
    data = noisy_samples(tree, table, per_leaf=3, sigma=0.5, seed=42)
    _, alone = mta(tree, params, table, data, betas=(0.3,), cuts_per_beta=3, seed=11)
    _, joined = mta(tree, params, table, data, betas=(0.3, 0.9), cuts_per_beta=3, seed=11)
    assert joined[0] == alone[0]


def test_evaluate_report_is_deterministic_and_coherent():
    tree = demo_tree()
    table = random_table(tree, 6, seed=50)
    params = random_params(6, tau=0.4, seed=51)
    data = noisy_samples(tree, table, per_leaf=4, sigma=0.6, seed=52)
    betas = (0.1, 0.5, 0.9)
    report = evaluate(tree, params, table, data, betas, cuts_per_beta=4, seed=13)
    again = evaluate(tree, params, table, data, betas, cuts_per_beta=4, seed=13)
    assert report == again
    assert report.betas == betas
    assert report.seed == 13 and report.cuts_per_beta == 4
    assert 0.0 <= report.hca <= report.leaf_acc <= 1.0
    assert report.mta == np.mean([r.accuracy for r in report.cuts])
    assert len(report.mta_per_beta) == len(betas)
    assert len(report.cuts) == sum(len(sizes) for sizes in report.cuts_used)
    start = 0
    for sizes, per_beta in zip(report.cuts_used, report.mta_per_beta):
        chunk = report.cuts[start : start + len(sizes)]
        assert tuple(r.size for r in chunk) == sizes
        assert per_beta == np.mean([r.accuracy for r in chunk])
        start += len(sizes)


def test_evaluate_refuses_a_repeated_rate():
    # The report names each rate's row by its value, so a repeated rate
    # would give two rows of one name and different values.
    tree = demo_tree()
    table = random_table(tree, 6, seed=50)
    params = random_params(6, tau=0.4, seed=51)
    data = noisy_samples(tree, table, per_leaf=4, sigma=0.6, seed=52)
    for betas, rate in (((0.1, 0.5, 0.1), "0.1"), ((0.3, 0, 0.0), "0.0"), ((0.0, -0.0), "-0.0")):
        with pytest.raises(ValueError, match=f"^betas must be distinct: {rate} is repeated$"):
            evaluate(tree, params, table, data, betas, cuts_per_beta=2, seed=0)
    with pytest.raises(ValueError, match="0.7 is repeated"):
        mta(tree, params, table, data, betas=(0.7, 0.7), cuts_per_beta=2, seed=0)


def test_evaluate_makes_one_pass_over_the_score_blocks():
    # One score_blocks iteration serves all three metrics, with no predict
    # call: every vocabulary, the leaf set first, has its targets looked up
    # once, before the pass.
    tree = demo_tree()
    table = random_table(tree, 6, seed=60)
    params = random_params(6, tau=0.4, seed=61)
    data = noisy_samples(tree, table, per_leaf=4, sigma=0.6, seed=62)
    passes, lookups = [], []
    blocks, targets = metrics.score_blocks, ColumnLayout.targets

    def counted_blocks(*args):
        passes.append(args)
        return blocks(*args)

    def counted_targets(self, members, nodes):
        lookups.append((len(passes), tuple(members)))
        return targets(self, members, nodes)

    with mock.patch.object(metrics, "EVAL_BLOCK", 5), \
            mock.patch.object(metrics, "score_blocks", counted_blocks), \
            mock.patch.object(classifier, "predict", side_effect=AssertionError("predict")), \
            mock.patch.object(ColumnLayout, "targets", counted_targets):
        report = evaluate(tree, params, table, data, (0.2, 0.8), cuts_per_beta=3, seed=4)
    assert len(passes) == 1
    assert not hasattr(metrics, "predict")
    assert [when for when, _ in lookups] == [0] * (1 + len(report.cuts))  # all before the pass
    assert lookups[0][1] == tree.leaf_nodes
    assert [len(members) for _, members in lookups[1:]] == [r.size for r in report.cuts]


def test_metrics_input_validation():
    tree = demo_tree()
    table = basis_table(tree)
    ident = PromptParams.identity(table.dim, 1.0)
    empty = SampleSet(ids=(), leaf_labels=np.zeros(0, np.int64), features=np.zeros((0, 6)))
    with pytest.raises(ValueError, match="empty"):
        leaf_accuracy(tree, ident, table, empty)
    with pytest.raises(ValueError, match="empty"):
        hca(tree, ident, table, empty)
    with pytest.raises(ValueError, match="empty"):
        mta(tree, ident, table, empty, betas=(0.5,), cuts_per_beta=1, seed=0)
    data = samples_at_leaves(tree, table)
    with pytest.raises(ValueError, match="betas"):
        mta(tree, ident, table, data, betas=(), cuts_per_beta=1, seed=0)
    with pytest.raises(ValueError, match="cuts_per_beta"):
        mta(tree, ident, table, data, betas=(0.5,), cuts_per_beta=0, seed=0)


@given(st.integers(0, 2**32 - 1), st.sampled_from((3, 9, 300)), st.integers(1, 16))
def test_reports_do_not_depend_on_block_rows(seed, dim, per_leaf):
    # Each sample's scores and decisions are its own, so a report is the
    # same whatever rows a score block holds: 1, 7, 256 (at dim 300, over
    # 256 samples) or the rule's, which is at most dim.
    tree = random_tree(Rng64(seed), max_internal=8, max_nodes=30)
    table = random_table(tree, dim, seed=seed)
    params = random_params(dim, tau=0.5, seed=seed)
    data = noisy_samples(tree, table, per_leaf, sigma=0.8, seed=seed)
    report = evaluate(tree, params, table, data, (0.3, 0.7), cuts_per_beta=3, seed=seed)
    for rows in (1, 7, 256):
        with mock.patch.object(metrics, "EVAL_BLOCK", rows):
            assert evaluate(tree, params, table, data, (0.3, 0.7), 3, seed) == report


def assert_eval_holds_the_label_side_and_two_blocks(tree, table, data, betas, cuts_per_beta):
    """``evaluate``'s tracemalloc peak above its inputs is at most the label
    side, its gathered rows and two score blocks, and no block is larger
    than the label side."""
    params = PromptParams.identity(table.dim, 0.07)
    label = 8 * len(tree.layout.nodes) * table.dim  # built once per tree, an input
    blocks, score_blocks = [], metrics.score_blocks

    def sized(*args):
        for labels, scores in score_blocks(*args):
            blocks.append(scores.nbytes)
            yield labels, scores

    with mock.patch.object(metrics, "score_blocks", sized):
        tracemalloc.start()
        try:
            report = evaluate(tree, params, table, data, betas, cuts_per_beta, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert 0.0 <= report.hca <= report.leaf_acc <= 1.0
    assert max(blocks) <= label
    assert peak <= 2 * label + 2 * min(label, metrics.EVAL_BYTES), f"peak {peak / 2**20:.2f} MB"


def test_eval_on_a_twenty_thousand_node_tree_stays_small():
    # hca decides only at each sample's root-path groups, and score blocks
    # shrink to fit EVAL_BYTES on a tree this wide (16 rows, not 256), so
    # eval holds no samples x columns temporaries beyond the block being
    # scored and the one before it (8.38 MB measured, against 9.77 MB).
    tree = load_tree(wide_deep_document(Rng64(20_000)))
    table = random_table(tree, 16, seed=3)
    rng = Rng64(4)
    leaves = np.asarray(
        [tree.leaf_nodes[oracle.next_below(rng, len(tree.leaf_nodes))] for _ in range(384)]
    )
    noise = np.random.Generator(np.random.PCG64(5)).standard_normal((len(leaves), 16))
    data = SampleSet(
        ids=tuple(map(str, range(len(leaves)))),
        leaf_labels=leaves,
        features=table.vectors[leaves] + 0.5 * noise,
    )
    assert_eval_holds_the_label_side_and_two_blocks(tree, table, data, (0.5,), 2)


def test_eval_blocks_are_no_larger_than_the_label_side():
    # The benchmark's large-unbalanced shape: 1,249 columns at dim 128 get
    # 128-row blocks, not EVAL_BLOCK's 256. Measured peak 4.49 MB, against
    # 7.25 MB with 256-row blocks and the norms' whole square.
    tree = load_tree(recursive_document(Rng64(0), 250, 1000))
    table = random_table(tree, 128, seed=1)
    data = noisy_samples(tree, table, per_leaf=2, sigma=1.0, seed=2)
    assert_eval_holds_the_label_side_and_two_blocks(tree, table, data, (0.1, 0.3, 0.5, 0.7, 0.9), 5)

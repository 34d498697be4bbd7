"""The sampler's view of the layout, flag correction, mask algebra, sampling, enumeration."""
from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hiertune import (
    Rng64,
    blocked_mask,
    build_matrices,
    correct_flags,
    cut_from_flags,
    enumerate_treecuts,
    load_tree,
    sample_distinct,
    sample_treecut,
)
from hiertune import treecut
from hiertune.treecut import DISTINCT_DRAW_FACTOR, ENUMERATE_LIMIT

import oracle
from helpers import demo_tree, names_of, random_tree, under_single_child_root, wide_deep_document


def demo_bundle():
    tree = demo_tree()
    return tree, build_matrices(tree)


def test_matrix_bundle_demo_values():
    tree, bundle = demo_bundle()
    assert bundle is tree.layout
    internal = bundle.internal_nodes
    assert internal.dtype == np.int64 and not internal.flags.writeable
    assert names_of(tree, internal) == ("n0", "n1", "n2")
    # Preorder n0 n1 n2 n4 n5 n3 n6: children in ascending index order.
    np.testing.assert_array_equal(bundle.tin, [0, 1, 2, 5, 3, 4, 6])
    np.testing.assert_array_equal(bundle.tout, [7, 6, 5, 6, 4, 5, 7])
    # Label j of a mask is node j + 1: every node but the root.
    mask = blocked_mask(np.ones(3, dtype=np.int64), bundle)
    assert len(mask) == tree.n_nodes - 1
    assert names_of(tree, np.flatnonzero(mask == 0) + 1) == ("n3", "n4", "n5", "n6")


def test_build_matrices_needs_two_leaves():
    with pytest.raises(ValueError, match="two leaves"):
        build_matrices(load_tree("r\t-\na\tr\n"))


def ancestry_trees():
    """Random trees, and each again under a one-child root; in both the
    internal nodes come first, so node order is not preorder."""
    rng = Rng64(31)
    for _ in range(20):
        tree = random_tree(rng)
        yield tree
        yield under_single_child_root(tree)


def test_on_path_encodes_ancestry():
    for tree in ancestry_trees():
        nodes = np.arange(tree.n_nodes)
        expected = np.zeros((tree.n_nodes, tree.n_nodes), dtype=bool)
        for v in nodes:
            expected[v, [v, *tree.ancestors(v)]] = True
        np.testing.assert_array_equal(tree.layout.on_path(nodes[:, None], nodes), expected)
        leaf = tree.leaf_nodes[-1]
        assert tree.layout.on_path(leaf, tree.root) and tree.layout.on_path(leaf, leaf)


def test_intervals_nest_in_preorder():
    for tree in ancestry_trees():
        tin, tout = tree.layout.tin, tree.layout.tout
        assert sorted(tin) == list(range(tree.n_nodes))
        assert (tin[tree.root], tout[tree.root]) == (0, tree.n_nodes)
        for p in tree.internal_nodes:
            # The children tile the parent's interval after its own position.
            ends = [tin[p] + 1] + [tout[c] for c in tree.children[p]]
            assert [tin[c] for c in tree.children[p]] == ends[:-1]
            assert ends[-1] == tout[p]
        for leaf in tree.leaf_nodes:
            assert tout[leaf] == tin[leaf] + 1


def test_correct_flags_demo_cases():
    _, bundle = demo_bundle()
    np.testing.assert_array_equal(correct_flags(np.array([1, 0, 1]), bundle), [1, 0, 0])
    np.testing.assert_array_equal(correct_flags(np.array([1, 1, 1]), bundle), [1, 1, 1])
    np.testing.assert_array_equal(correct_flags(np.array([1, 1, 0]), bundle), [1, 1, 0])


def test_correct_flags_validation():
    _, bundle = demo_bundle()
    with pytest.raises(ValueError):
        correct_flags(np.array([0, 1, 1]), bundle)  # root must stay kept
    with pytest.raises(ValueError):
        correct_flags(np.array([1, 1]), bundle)  # wrong length
    with pytest.raises(ValueError):
        correct_flags(np.array([1, 2, 0]), bundle)  # non-binary entry


def test_correct_flags_idempotent():
    rng = Rng64(77)
    for _ in range(15):
        tree = random_tree(rng)
        bundle = build_matrices(tree)
        k = len(bundle.internal_nodes)
        for _ in range(10):
            raw = np.array([1] + [oracle.next_below(rng, 2) for _ in range(k - 1)])
            once = correct_flags(raw, bundle)
            twice = correct_flags(once, bundle)
            np.testing.assert_array_equal(once, twice)


def test_blocked_mask_demo_patterns():
    tree, bundle = demo_bundle()
    cases = {
        (1, 0, 0): ([0, 1, 1, 2, 2, 0], ("n1", "n6")),
        (1, 1, 0): (None, ("n2", "n3", "n6")),
        (1, 1, 1): ([2, 1, 0, 0, 0, 0], ("n3", "n4", "n5", "n6")),
    }
    for pattern, (mask_expected, cut_expected) in cases.items():
        flags = correct_flags(np.array(pattern), bundle)
        np.testing.assert_array_equal(flags, pattern)
        mask = blocked_mask(flags, bundle)
        if mask_expected is not None:
            np.testing.assert_array_equal(mask, mask_expected)
        cut = cut_from_flags(tree, bundle, flags)
        assert names_of(tree, cut.members) == cut_expected
        zero_labels = tuple(
            label for label, blocked in enumerate(mask, start=1) if blocked == 0
        )
        assert zero_labels == cut.members


def test_blocked_mask_repairs_raw_flags():
    tree, bundle = demo_bundle()
    raw, repaired = np.array([1, 0, 1]), np.array([1, 0, 0])
    np.testing.assert_array_equal(blocked_mask(raw, bundle), blocked_mask(repaired, bundle))
    assert cut_from_flags(tree, bundle, raw) == cut_from_flags(tree, bundle, repaired)


def test_blocked_mask_extremes():
    rng = Rng64(4040)
    for _ in range(15):
        tree = random_tree(rng)
        bundle = build_matrices(tree)
        k = len(bundle.internal_nodes)
        keep_all = correct_flags(np.ones(k, dtype=np.int64), bundle)
        mask = blocked_mask(keep_all, bundle)
        zeros = {label for label, b in enumerate(mask, start=1) if b == 0}
        assert zeros == set(tree.leaf_nodes)
        root_only = correct_flags(
            np.array([1] + [0] * (k - 1), dtype=np.int64), bundle
        )
        mask = blocked_mask(root_only, bundle)
        zeros = {label for label, b in enumerate(mask, start=1) if b == 0}
        assert zeros == set(tree.children[tree.root])


def test_sample_degenerate_rates_demo():
    tree, bundle = demo_bundle()
    for seed in (0, 1, 42, 999):
        low = sample_treecut(tree, bundle, 0.0, Rng64(seed))
        assert names_of(tree, low.members) == ("n3", "n4", "n5", "n6")
        high = sample_treecut(tree, bundle, 1.0, Rng64(seed))
        assert names_of(tree, high.members) == ("n1", "n6")


def test_sample_rate_bounds_checked():
    tree, bundle = demo_bundle()
    for bad in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValueError):
            sample_treecut(tree, bundle, bad, Rng64(0))


def test_sample_mid_rate_valid_and_deterministic():
    tree, bundle = demo_bundle()
    valid = {cut.members for cut in enumerate_treecuts(tree)}
    first = sample_treecut(tree, bundle, 0.5, Rng64(42))
    second = sample_treecut(tree, bundle, 0.5, Rng64(42))
    assert first.members == second.members
    assert first.members in valid


def test_sampled_cuts_satisfy_invariants():
    rng = Rng64(606)
    for _ in range(10):
        tree = random_tree(rng)
        bundle = build_matrices(tree)
        for beta in (0.2, 0.5, 0.8):
            cut = sample_treecut(tree, bundle, beta, Rng64(oracle.next_below(rng, 10_000)))
            rebuilt = tree.treecut_label_set(cut.members)  # re-runs validation
            assert rebuilt.members == cut.members
            for leaf in tree.leaf_nodes:
                assert tree.target_in(leaf, cut) is not None


def test_kept_count_monotone_under_shared_draws():
    rng = Rng64(2525)
    for _ in range(10):
        tree = random_tree(rng)
        bundle = build_matrices(tree)
        k = len(bundle.internal_nodes)
        draws = [oracle.next_unit(Rng64(9)) for _ in range(k - 1)]
        counts = []
        for beta in (0.0, 0.25, 0.5, 0.75, 1.0):
            flags = np.array([1] + [1 if u >= beta else 0 for u in draws])
            counts.append(int(flags.sum()))
        assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_enumerate_demo_exactly_three():
    tree = demo_tree()
    cuts = {names_of(tree, cut.members) for cut in enumerate_treecuts(tree)}
    assert cuts == {
        ("n1", "n6"),
        ("n2", "n3", "n6"),
        ("n3", "n4", "n5", "n6"),
    }


def test_enumerate_chain_and_star():
    chain = load_tree("r\t-\na\tr\n")
    assert {names_of(chain, c.members) for c in enumerate_treecuts(chain)} == {("a",)}
    star = load_tree("r\t-\na\tr\nb\tr\nc\tr\n")
    assert {names_of(star, c.members) for c in enumerate_treecuts(star)} == {
        ("a", "b", "c")
    }


def test_enumerate_rejects_oversized_trees():
    lines = ["r\t-"]
    for i in range(ENUMERATE_LIMIT + 1):
        parent = "r" if i == 0 else f"i{i - 1}"
        lines.append(f"i{i}\t{parent}")
        lines.append(f"leaf{i}\t{parent}")
    lines.append(f"tail\ti{ENUMERATE_LIMIT}")
    big = load_tree("\n".join(lines) + "\n")
    assert len(big.internal_nodes) > ENUMERATE_LIMIT
    with pytest.raises(ValueError):
        enumerate_treecuts(big)


def test_sample_distinct_demo_cases():
    tree, bundle = demo_bundle()
    all_three = sample_distinct(tree, bundle, 0.5, 5, Rng64(0))
    assert len(all_three) == 3
    assert len({c.members for c in all_three}) == 3
    forced = sample_distinct(tree, bundle, 0.0, 1, Rng64(5))
    assert [names_of(tree, c.members) for c in forced] == [("n3", "n4", "n5", "n6")]
    pair_a = sample_distinct(tree, bundle, 0.3, 2, Rng64(7))
    pair_b = sample_distinct(tree, bundle, 0.3, 2, Rng64(7))
    assert [c.members for c in pair_a] == [c.members for c in pair_b]
    assert len(pair_a) == 2


def test_sample_distinct_first_appearance_order():
    tree, bundle = demo_bundle()
    probe = Rng64(0)
    replay: list[tuple[int, ...]] = []
    for _ in range(3 * DISTINCT_DRAW_FACTOR):
        cut = sample_treecut(tree, bundle, 0.5, probe)
        if cut.members not in replay:
            replay.append(cut.members)
        if len(replay) == 3:
            break
    drawn = sample_distinct(tree, bundle, 0.5, 3, Rng64(0))
    assert [c.members for c in drawn] == replay


def test_sample_distinct_stops_when_no_new_cut_can_appear(monkeypatch):
    tree, bundle = demo_bundle()
    draws = []

    def counted(*args):
        draws.append(args[2])
        return sample_treecut(*args)

    monkeypatch.setattr(treecut, "sample_treecut", counted)
    for beta in (0.0, 1.0):
        assert len(sample_distinct(tree, bundle, beta, 5, Rng64(3))) == 1
    assert draws == [0.0, 1.0]
    draws.clear()
    assert len(sample_distinct(tree, bundle, 0.5, 10, Rng64(0))) == 3
    assert len(draws) < 10 * DISTINCT_DRAW_FACTOR


@given(st.integers(0, 2**32 - 1))
def test_treecut_count_matches_enumeration(seed):
    tree = random_tree(Rng64(seed), max_internal=8, max_nodes=24)
    assert treecut._treecut_count(tree) == len(enumerate_treecuts(tree))


def test_sample_distinct_count_validation():
    tree, bundle = demo_bundle()
    with pytest.raises(ValueError):
        sample_distinct(tree, bundle, 0.5, 0, Rng64(0))


def test_pipeline_image_matches_enumeration_small():
    rng = Rng64(888)
    for _ in range(5):
        tree = random_tree(rng, max_internal=6, max_nodes=20)
        bundle = build_matrices(tree)
        k = len(bundle.internal_nodes)
        image = set()
        for tail in itertools.product((0, 1), repeat=k - 1):
            flags = correct_flags(np.array((1,) + tail), bundle)
            image.add(cut_from_flags(tree, bundle, flags).members)
        oracle = {cut.members for cut in enumerate_treecuts(tree)}
        assert image == oracle


def test_twenty_thousand_node_tree_fits_in_memory():
    # Ancestry is O(n): a dense n x n relation alone would hold 400 MB here.
    rng = Rng64(20_000)
    document = wide_deep_document(rng)
    tracemalloc.start()
    try:
        tree = load_tree(document)
        bundle = build_matrices(tree)
        for beta in (0.1, 0.5, 0.9):
            cut = sample_treecut(tree, bundle, beta, Rng64(oracle.next_u64(rng)))
            assert tree.treecut_label_set(cut.members) == cut
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tree.n_nodes == 20_000
    assert peak <= 50 * 2**20, f"peak {peak / 2**20:.1f} MB"

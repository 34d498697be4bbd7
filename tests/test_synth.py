"""Synthetic fixture generator: tree layout, geometry, seeded noise."""
from __future__ import annotations

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hiertune import PromptParams, gen_synth, hca, leaf_accuracy, load_tree, synth
from hiertune.fileio import load_embeddings, load_samples
from hiertune.synth import LEVEL_SCALE, _branching, _embedding_table, _plan_tree, _planned_axes

import oracle


def load_all(tree_txt: str, emb_txt: str, samples_txt: str):
    tree = load_tree(tree_txt)
    return tree, load_embeddings(emb_txt, tree), load_samples(samples_txt, tree)


def test_plan_full_ternary_tree():
    tree = load_tree(_plan_tree(27, 3))
    assert tree.n_nodes == 40
    assert len(tree.leaf_nodes) == 27
    assert len(tree.internal_nodes) == 13
    assert all(tree.depths[leaf] == 3 for leaf in tree.leaf_nodes)
    assert all(len(tree.children[n]) == 3 for n in tree.internal_nodes)


def test_plan_full_binary_tree():
    tree = load_tree(_plan_tree(4, 2))
    assert tree.n_nodes == 7
    assert len(tree.leaf_nodes) == 4
    assert all(tree.depths[leaf] == 2 for leaf in tree.leaf_nodes)


def test_plan_partial_capacity_split():
    # Five leaves at depth two force branching three: subtrees of three
    # and two leaves under the root.
    tree = load_tree(_plan_tree(5, 2))
    assert len(tree.leaf_nodes) == 5
    sizes = sorted(len(tree.children[c]) for c in tree.children[tree.root])
    assert sizes == [2, 3]


def test_plan_attaches_single_leaf_directly():
    # A leftover range of one leaf becomes a leaf child, not a chain of
    # single-child internals.
    tree = load_tree(_plan_tree(3, 3))
    assert len(tree.leaf_nodes) == 3
    for node in tree.internal_nodes:
        for child in tree.children[node]:
            if tree.is_leaf(child) and tree.depths[child] < 3:
                break
        else:
            continue
        break
    else:
        pytest.fail("expected a shallow directly-attached leaf")


def test_plan_matches_the_recursive_planner():
    # The explicit stack numbers nodes in the recursion's preorder, so every
    # document keeps its bytes, chains of single children included: (4, 3)
    # and (2, 40) grow one below the root.
    for leaves in (2, 3, 4, 5, 7, 8, 9, 27, 28, 100):
        for depth in (1, 2, 3, 4, 6, 40):
            assert _plan_tree(leaves, depth) == oracle.plan_tree(leaves, depth), (leaves, depth)


def test_embedding_geometry_orders_relatedness():
    tree = load_tree(_plan_tree(27, 3))
    table = _embedding_table(tree, 39)
    np.testing.assert_array_equal(table.vectors[tree.root], np.zeros(39))
    norms = np.linalg.norm(table.vectors[1:], axis=1)
    np.testing.assert_allclose(norms, np.ones(tree.n_nodes - 1), atol=1e-12)

    def leaf_cos(a: int, b: int) -> float:
        return float(table.vectors[a] @ table.vectors[b])

    by_parent: dict[int, list[int]] = {}
    for leaf in tree.leaf_nodes:
        by_parent.setdefault(tree.parents[leaf], []).append(leaf)
    families = sorted(by_parent)
    sib = leaf_cos(*by_parent[families[0]][:2])
    cousin_a = by_parent[families[0]][0]
    cousin_b = by_parent[families[1]][0]
    assert tree.parents[families[0]] == tree.parents[families[1]]
    cousin = leaf_cos(cousin_a, cousin_b)
    far_parent = families[-1]
    assert tree.parents[far_parent] != tree.parents[families[0]]
    far = leaf_cos(cousin_a, by_parent[far_parent][0])
    assert sib > cousin + 0.1 > far + 0.2
    # Nesting makes the exact sibling cosine a ratio of level scales.
    s2, s4 = LEVEL_SCALE**2, LEVEL_SCALE**4
    np.testing.assert_allclose(sib, (1 + s2) / (1 + s2 + s4), atol=1e-12)


def test_embedding_table_requires_room_for_every_node():
    shape = dict(leaves=27, depth=3, per_leaf=1, noise=0.5, seed=0)
    with pytest.raises(ValueError, match=re.escape("at least 39 (one axis per non-root node)")):
        gen_synth(dim=38, **shape)
    assert gen_synth(dim=39, **shape)[1].startswith("#dim 39\n")


def test_too_small_dim_is_refused_before_the_tree_is_built(monkeypatch):
    # The nodes are counted from the shape, so a 300,000-leaf shape is
    # refused without planning or building its tree.
    def no_tree(*args):
        raise AssertionError("tree planned or built")

    monkeypatch.setattr(synth, "_plan_tree", no_tree)
    monkeypatch.setattr(synth, "load_tree", no_tree)
    for leaves, depth, need in ((300_000, 1, 300_000), (27, 3, 39), (2, 3000, 3001)):
        with pytest.raises(ValueError, match=f"dim must be at least {need} "):
            gen_synth(leaves=leaves, depth=depth, dim=8, per_leaf=1, noise=0.5, seed=0)


@pytest.mark.parametrize("leaves, depth, need", [(300_000, 1, 300_000), (2, 10**5, 10**5 + 1)])
def test_too_small_dim_refusal_holds_no_tree(leaves, depth, need):
    # Rendering the 300,000-leaf tree document first peaked at 23.7 MB;
    # counting its nodes takes about 1 kB. A 100,000-level chain is counted
    # without a power of the branching factor as deep as the chain.
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"dim must be at least {need} "):
            gen_synth(leaves=leaves, depth=depth, dim=8, per_leaf=1, noise=0.5, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_planned_axes_count_the_planned_nodes():
    for leaves in (*range(2, 66), 100, 216, 1000, 4097):
        for depth in (1, 2, 3, 4, 5, 8, 13, 40):
            document = _plan_tree(leaves, depth)
            assert _planned_axes(leaves, depth) == document.count("\n") - 1, (leaves, depth)


def test_branching_is_the_smallest_factor_that_holds_every_leaf():
    # Perfect powers sit exactly on a bisection edge; depth 1 puts every
    # leaf under the root.
    powers = {b**d for b in range(2, 9) for d in range(1, 5)}
    for leaves in sorted(set(range(1, 300)) | powers | {p + 1 for p in powers}):
        for depth in (1, 2, 3, 4, 5, 8, 13, 40):
            assert _branching(leaves, depth) == oracle.branching(leaves, depth), (leaves, depth)
    assert _branching(300_000, 1) == 300_000


def test_gen_synth_validates_arguments():
    good = dict(leaves=4, depth=2, dim=8, per_leaf=2, noise=0.5, seed=0)
    for bad in (
        dict(good, leaves=1),
        dict(good, depth=0),
        dict(good, per_leaf=0),
        dict(good, noise=-0.1),
        dict(good, noise=float("nan")),
        dict(good, noise=float("inf")),
        dict(good, dim=5),
    ):
        with pytest.raises(ValueError):
            gen_synth(**bad)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match=re.escape(f"seed must be in [0, 2**64), got {seed}")):
            gen_synth(**dict(good, seed=seed))


def test_gen_synth_repeat_is_byte_identical():
    first = gen_synth(leaves=5, depth=2, dim=8, per_leaf=3, noise=0.4, seed=11)
    second = gen_synth(leaves=5, depth=2, dim=8, per_leaf=3, noise=0.4, seed=11)
    assert first == second


@given(
    st.integers(2, 30), st.integers(1, 5), st.integers(0, 6), st.integers(1, 4),
    st.sampled_from((0.0, 0.6, 2.5)), st.integers(0, 2**64 - 1),
)
def test_gen_synth_matches_the_per_leaf_draws(leaves, depth, extra_dim, per_leaf, noise, seed):
    dim = _planned_axes(leaves, depth) + extra_dim
    args = (leaves, depth, dim, per_leaf, noise, seed)
    assert gen_synth(*args) == oracle.gen_synth(*args)


def test_gen_synth_seed_moves_only_the_samples():
    a = gen_synth(leaves=5, depth=2, dim=8, per_leaf=3, noise=0.4, seed=0)
    b = gen_synth(leaves=5, depth=2, dim=8, per_leaf=3, noise=0.4, seed=1)
    assert a[0] == b[0]
    assert a[1] == b[1]
    assert a[2] != b[2]


def test_gen_synth_sample_doc_carries_seed_comment():
    _, _, samples_txt = gen_synth(leaves=4, depth=2, dim=8, per_leaf=2, noise=0.3, seed=42)
    lines = samples_txt.splitlines()
    assert lines[0].startswith("#dim ")
    assert lines[1] == "# seed 42"


def test_gen_synth_outputs_parse_consistently():
    tree, table, data = load_all(
        *gen_synth(leaves=9, depth=2, dim=16, per_leaf=4, noise=0.5, seed=3)
    )
    assert len(tree.leaf_nodes) == 9
    assert table.dim == 16
    assert len(data) == 36
    counts = {leaf: 0 for leaf in tree.leaf_nodes}
    for leaf in data.leaf_labels:
        counts[int(leaf)] += 1
    assert set(counts.values()) == {4}


def test_gen_synth_noiseless_fixture_is_perfectly_separable():
    tree, table, data = load_all(
        *gen_synth(leaves=4, depth=2, dim=8, per_leaf=2, noise=0.0, seed=0)
    )
    ident = PromptParams.identity(8, 0.07)
    assert leaf_accuracy(tree, ident, table, data) == 1.0
    assert hca(tree, ident, table, data) == 1.0


def test_gen_synth_extreme_noise_hits_chance_level():
    tree, table, data = load_all(
        *gen_synth(leaves=27, depth=3, dim=64, per_leaf=40, noise=100.0, seed=0)
    )
    assert len(data) == 1080
    acc = leaf_accuracy(tree, PromptParams.identity(64, 0.07), table, data)
    assert abs(acc - 1.0 / 27.0) <= 0.1


def test_gen_synth_noise_scale_matches_contract():
    # noise is the expected perturbation norm, so each coordinate gets
    # sigma / sqrt(dim).
    tree, table, data = load_all(
        *gen_synth(leaves=4, depth=2, dim=16, per_leaf=200, noise=0.6, seed=5)
    )
    deviations = data.features - table.vectors[data.leaf_labels]
    per_coord = deviations.std()
    assert abs(per_coord - 0.6 / 4.0) < 0.005
    norms = np.linalg.norm(deviations, axis=1)
    assert abs(norms.mean() - 0.6) < 0.02

"""Embedding tables, the affine map, layout-column scores, softmax, predict."""
from __future__ import annotations

import math

import numpy as np
import pytest

from hiertune import (
    EmbeddingTable,
    PromptParams,
    SampleSet,
    load_tree,
    predict,
    score_blocks,
    treecut_loss,
)
from hiertune.classifier import unit_rows, unit_weights
from hiertune.fileio import FormatError, load_embeddings

from helpers import basis_table, demo_tree, random_params, random_table

STAR_DOC = "r\t-\na\tr\nb\tr\n"


def star_fixture(vec_a, vec_b, dim=3):
    tree = load_tree(STAR_DOC)
    vectors = np.zeros((tree.n_nodes, dim))
    vectors[tree.name_index["a"]] = vec_a
    vectors[tree.name_index["b"]] = vec_b
    return tree, EmbeddingTable(dim=dim, vectors=vectors), np.asarray(tree.leaf_nodes)


def scores_of(tree, params, table, feats) -> np.ndarray:
    """The layout-column score matrix of ``feats``, blocks stacked."""
    data = SampleSet(
        ids=tuple(f"s{i}" for i in range(len(feats))),
        leaf_labels=np.full(len(feats), tree.leaf_nodes[0]),
        features=np.asarray(feats, dtype=float),
    )
    return np.concatenate([s for _, s in score_blocks(tree, params, table, data)])


def leaf_loss(tree, params, table, leaf: int, feature) -> float:
    """Treecut loss of one sample on the leaf vocabulary: -log of its softmax share."""
    batch = SampleSet(
        ids=("s",), leaf_labels=np.array([leaf]), features=np.asarray([feature], dtype=float)
    )
    cut = tree.treecut_label_set(tree.leaf_nodes)
    return treecut_loss(tree, params, table, cut, batch).value


def embedding_doc(mapping: dict[str, np.ndarray], dim: int = 3) -> str:
    rows = [f"{name}\t" + "\t".join(map(repr, map(float, vec))) for name, vec in mapping.items()]
    return "\n".join([f"#dim {dim}", *rows]) + "\n"


def test_from_names_assembles_aligned_rows():
    # The loader aligns name-keyed rows with node indices, in any file order.
    tree = load_tree(STAR_DOC)
    table = load_embeddings(
        embedding_doc({"b": np.array([0, 2, 0]), "a": np.array([1, 0, 0])}), tree
    )
    np.testing.assert_array_equal(table.vectors[tree.root], [0, 0, 0])
    np.testing.assert_array_equal(table.vectors[tree.name_index["a"]], [1, 0, 0])
    np.testing.assert_array_equal(table.vectors[tree.name_index["b"]], [0, 2, 0])
    np.testing.assert_array_equal(
        table.vectors[[tree.name_index["b"], tree.name_index["a"]]], [[0, 2, 0], [1, 0, 0]]
    )


@pytest.mark.parametrize("vectors", [np.zeros((3, 3)), np.zeros(2), np.zeros((1, 3, 2))])
def test_embedding_table_rejects_vectors_off_its_dim(vectors):
    # Unchecked, a (3, 3) table of dim 2 fails only inside evaluate's matmul.
    with pytest.raises(ValueError, match=r"vectors must be an \(n_nodes, 2\) matrix"):
        EmbeddingTable(dim=2, vectors=vectors)


@pytest.mark.parametrize(
    "mapping",
    [
        {"a": np.ones(3)},  # missing b
        {"a": np.ones(3), "b": np.ones(3), "ghost": np.ones(3)},  # unknown node
        {"a": np.ones(4), "b": np.ones(3)},  # wrong shape
        {"a": np.zeros(3), "b": np.ones(3)},  # zero vector
        {"a": np.array([1.0, np.nan, 0.0]), "b": np.ones(3)},  # non-finite
    ],
)
def test_from_names_rejects_bad_mappings(mapping):
    tree = load_tree(STAR_DOC)
    with pytest.raises(FormatError):
        load_embeddings(embedding_doc(mapping), tree)


def test_sample_set_validation_and_take():
    with pytest.raises(ValueError):
        SampleSet(ids=("x",), leaf_labels=np.array([1, 2]), features=np.ones((1, 3)))
    with pytest.raises(ValueError):
        SampleSet(ids=("x", "y"), leaf_labels=np.array([1, 2]), features=np.ones(2))
    data = SampleSet(
        ids=("x", "y", "z"),
        leaf_labels=np.array([1, 2, 1]),
        features=np.arange(9, dtype=float).reshape(3, 3),
    )
    assert len(data) == 3
    sub = data.take([2, 0])
    assert sub.ids == ("z", "x")
    np.testing.assert_array_equal(sub.leaf_labels, [1, 1])
    np.testing.assert_array_equal(sub.features, data.features[[2, 0]])


def test_prompt_params_validation():
    with pytest.raises(ValueError):
        PromptParams(weight=np.ones((2, 3)), bias=np.zeros(2), tau=1.0)
    with pytest.raises(ValueError):
        PromptParams(weight=np.eye(2), bias=np.zeros(3), tau=1.0)
    with pytest.raises(ValueError):
        PromptParams(weight=np.full((2, 2), np.inf), bias=np.zeros(2), tau=1.0)
    for bad_tau in (0.0, -0.5, math.inf, math.nan):
        with pytest.raises(ValueError, match=f"tau must be positive and finite, got {bad_tau}"):
            PromptParams(weight=np.eye(2), bias=np.zeros(2), tau=bad_tau)
    ident = PromptParams.identity(4, 0.07)
    np.testing.assert_array_equal(ident.weight, np.eye(4))
    np.testing.assert_array_equal(ident.bias, np.zeros(4))
    assert ident.dim == 4 and ident.tau == 0.07


def test_unit_rows_normalizes_and_rejects():
    x = np.array([[3.0, 4.0], [0.0, 2.0]])
    units, norms = unit_rows(x, "features")
    np.testing.assert_allclose(units, [[0.6, 0.8], [0.0, 1.0]], atol=1e-15)
    np.testing.assert_allclose(norms, [5.0, 2.0])
    with pytest.raises(ValueError, match="features contains a zero-norm row"):
        unit_rows(np.zeros((2, 2)), "features")
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="features must be finite"):
            unit_rows(np.array([[3.0, 4.0], [bad, 1.0]]), "features")
    # Finite entries whose sum of squares overflows: refused, or raised as
    # the overflow itself where training turns overflow into errors.
    huge = np.array([[1e200, 1e200], [3.0, 4.0]])
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="norm overflows"):
        unit_rows(huge, "label weights")
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        unit_rows(huge, "label weights")
    units, norms = unit_rows(huge / 1e60, "label weights")
    np.testing.assert_allclose(norms, [2**0.5 * 1e140, 5e-60])
    np.testing.assert_allclose(units, [[2**-0.5, 2**-0.5], [0.6, 0.8]])


def test_node_weights_identity_and_affine():
    tree, table, labels = star_fixture([1, 0, 0], [0, 2, 0])
    rows = table.vectors[labels]
    for weight, bias, mapped in (
        (np.eye(3), np.zeros(3), rows),
        (2 * np.eye(3), np.zeros(3), 2 * rows),
        (np.eye(3), np.array([0.0, 0.0, 7.0]), rows + np.array([0.0, 0.0, 7.0])),
    ):
        params = PromptParams(weight=weight, bias=bias, tau=1.0)
        what, wnorm = unit_weights(params, rows)
        np.testing.assert_array_equal(wnorm, np.linalg.norm(mapped, axis=1))
        np.testing.assert_array_equal(what, mapped / wnorm[:, None])


def test_node_weights_dimension_mismatch():
    tree, table, labels = star_fixture([1, 0, 0], [0, 2, 0])
    with pytest.raises(ValueError, match="dimensions differ"):
        unit_weights(PromptParams.identity(2, 1.0), table.vectors[labels])


def test_cosine_scores_orthonormal_oracle():
    tree, table, labels = star_fixture([1, 0, 0], [0, 1, 0])
    ident = PromptParams.identity(3, 1.0)
    scores = scores_of(tree, ident, table, [[1.0, 0.0, 0.0]])
    np.testing.assert_allclose(scores[:, tree.layout.column[labels]], [[1.0, 0.0]], atol=1e-15)


def test_posterior_two_label_oracle():
    # cosines (1, 0) at tau=1: softmax puts e/(e+1) on the first label.
    tree, table, labels = star_fixture([1, 0, 0], [0, 1, 0])
    ident = PromptParams.identity(3, 1.0)
    share = math.exp(-leaf_loss(tree, ident, table, labels[0], [2.0, 0.0, 0.0]))
    assert abs(share - math.e / (math.e + 1.0)) < 1e-12
    assert abs(share - 0.7310585786300049) < 1e-12


def test_posterior_identical_embeddings_split_evenly():
    tree, table, labels = star_fixture([1, 1, 0], [1, 1, 0])
    ident = PromptParams.identity(3, 1.0)
    for leaf in labels:
        loss = leaf_loss(tree, ident, table, leaf, [0.3, -0.4, 1.0])
        assert abs(loss - math.log(2.0)) < 1e-12


def test_posterior_high_temperature_flattens():
    tree, table, labels = star_fixture([1, 0, 0], [0, 1, 0])
    hot = PromptParams.identity(3, 1e6)
    loss = leaf_loss(tree, hot, table, labels[0], [1.0, 0.0, 0.0])
    assert abs(math.exp(-loss) - 0.5) < 1e-5


def test_posterior_rows_sum_to_one():
    # Each leaf's softmax share of one feature, read off the leaf-cut loss
    # of that feature labelled with the leaf, sums to one over the leaves.
    tree = demo_tree()
    table = random_table(tree, 6, seed=11)
    gen = np.random.Generator(np.random.PCG64(3))
    for seed in range(5):
        params = random_params(6, tau=0.25, seed=seed)
        for feature in gen.standard_normal((7, 6)):
            shares = [
                math.exp(-leaf_loss(tree, params, table, leaf, feature))
                for leaf in tree.leaf_nodes
            ]
            assert abs(sum(shares) - 1.0) < 1e-12
            assert min(shares) > 0


def test_posterior_scale_invariance():
    tree = demo_tree()
    table = random_table(tree, 6, seed=2)
    params = random_params(6, tau=0.5, seed=9)
    feats = np.random.Generator(np.random.PCG64(8)).standard_normal((5, 6))
    base = scores_of(tree, params, table, feats)
    np.testing.assert_allclose(scores_of(tree, params, table, 3.0 * feats), base, atol=1e-12)
    scaled_map = PromptParams(weight=5.0 * params.weight, bias=5.0 * params.bias, tau=params.tau)
    np.testing.assert_allclose(scores_of(tree, scaled_map, table, feats), base, atol=1e-12)


def test_predict_demo_leaf_axes():
    tree = demo_tree()
    table = basis_table(tree)
    ident = PromptParams.identity(table.dim, 1.0)
    leaves = np.asarray(tree.leaf_nodes)
    scores = scores_of(tree, ident, table, table.vectors[leaves])
    np.testing.assert_array_equal(predict(tree, scores, leaves), leaves)


def test_predict_tie_resolves_to_smaller_index():
    tree, table, labels = star_fixture([1, 1, 0], [1, 1, 0])
    scores = scores_of(tree, PromptParams.identity(3, 1.0), table, [[1.0, 1.0, 0.0]])
    assert scores[0, 0] == scores[0, 1]
    np.testing.assert_array_equal(predict(tree, scores, labels), [min(labels)])


def test_predict_single_label_forced():
    chain = load_tree("r\t-\na\tr\n")
    table = EmbeddingTable(dim=2, vectors=np.array([[0.0, 0.0], [1.0, 0.0]]))
    scores = scores_of(chain, PromptParams.identity(2, 1.0), table, [[0.0, 5.0]])
    out = predict(chain, scores, np.asarray(chain.leaf_nodes))
    np.testing.assert_array_equal(out, [chain.name_index["a"]])


def test_predict_restriction_consistency():
    tree = demo_tree()
    table = random_table(tree, 6, seed=21)
    params = random_params(6, tau=0.3, seed=4)
    feats = np.random.Generator(np.random.PCG64(99)).standard_normal((12, 6))
    scores = scores_of(tree, params, table, feats)
    fine = predict(tree, scores, np.asarray(tree.leaf_nodes))
    pair = np.asarray(tree.children[tree.name_index["n2"]])  # children of n2: {n4, n5}
    coarse = predict(tree, scores, pair)
    assert set(coarse) <= set(pair)
    for k, winner in enumerate(fine):
        if winner in pair:
            assert coarse[k] == winner

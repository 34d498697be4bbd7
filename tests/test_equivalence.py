"""The score-matrix losses, metrics, cut check and sampler against references.

``oracle`` keeps the per-vocabulary, per-node and per-sample versions the
library used before it moved to one score matrix per batch. On random
trees, with one-child nodes, exact score ties and one-label cuts, losses
and gradients must agree to 1e-12 relative (the fused total's gradient
with a 1e-14 absolute floor) and every prediction and accuracy must be
exactly equal, and the backward pass's gradients equal to its 64-row
form's bit for bit. It also keeps the integer-matrix treecut sampler; the
preorder-interval one must give the same flags, masks and cuts, and the
per-sample k-shot count the same selection. Its per-token file loaders
must agree with the row-at-a-time ones on written documents, embedding
rows in any order, with bad tokens, wrong field counts, bad records,
comments holding odd line breaks and misspelt dimension headers spliced
in, under each of the three line endings: the same arrays, byte for byte,
or the same error. Every loader, the tree's too, must also give that from
a binary file whose reads return at most a few bytes, or 64 KiB, and must
report a bad byte at its offset in the file unless an earlier line is at
fault. So must the loaders agree on any one number token made of digits,
``.``, ``e``, ``E``, ``+`` and ``-``, whose value must be float()'s, and
on wide rows holding one token that JSON reads as no float or as an
integer. Its universal-newline line reader must give the same numbered
lines and decoding error as the bounded ``\n`` one, wherever a read
piece ends. Its one-float.__repr__-per-value row writer must give the
same bytes as the block-at-a-time orjson one, on every kind of float and
at any share of values orjson lays out unlike repr. A treecut target found
by the interval lookup must be the one member on the leaf's root path,
eval's cut decisions by target position must be the ancestry decisions of
the prediction, ties included, and the sampler's batch draws must leave
the stream where the scalar loop does.
"""
from __future__ import annotations

import io
import math
import re
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracle
from hiertune import (
    EmbeddingTable,
    PromptParams,
    Rng64,
    SampleSet,
    TaxonomyTree,
    build_matrices,
    blocked_mask,
    correct_flags,
    cut_from_flags,
    enumerate_treecuts,
    evaluate,
    hca,
    leaf_accuracy,
    load_tree,
    mta,
    node_centric_loss,
    predict,
    sample_distinct,
    sample_treecut,
    score_blocks,
    total_loss,
    treecut_loss,
)
from hiertune import fileio, metrics, objectives, taxonomy
from hiertune.taxonomy import TreeFormatError
from hiertune.trainer import k_shot_indices

from helpers import (
    ODD_BREAKS,
    block_rows,
    noisy_samples,
    random_params,
    random_table,
    random_tree,
    under_single_child_root,
)

REL = 1e-12


def with_duplicate_rows(tree: TaxonomyTree, table: EmbeddingTable, rng: Rng64) -> EmbeddingTable:
    """Copy some nodes' rows onto later nodes, so their scores tie exactly."""
    vectors = table.vectors.copy()
    for v in range(2, tree.n_nodes):
        if oracle.next_below(rng, 3) == 0:
            vectors[v] = vectors[1 + oracle.next_below(rng, v - 1)]
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


def assert_backward_is_the_reference(problem, lam):
    tree, table, params, batch, cut = problem
    sc, _, _, g = objectives._forward(tree, params, table, cut, batch, lam)
    old = oracle.backward(g.copy(), sc)  # first: _backward overwrites sc's cosines and weights
    new = objectives._backward(g, sc)
    assert np.array_equal(new[0], old[0]) and np.array_equal(new[1], old[1])


@given(problems(), st.sampled_from((0.0, 0.5)))
def test_backward_matches_the_row_block_reference(problem, lam):
    assert_backward_is_the_reference(problem, lam)


@pytest.mark.parametrize("lam", (0.0, 0.5))
def test_backward_matches_the_row_block_reference_over_several_blocks(lam):
    tree = random_tree(Rng64(5), max_internal=60, max_nodes=300)  # 167 leaves
    table = random_table(tree, 6, seed=5)
    batch = noisy_samples(tree, table, 2, sigma=0.6, seed=5)
    cut = sample_treecut(tree, build_matrices(tree), 0.0, Rng64(5))  # every leaf
    params = random_params(6, tau=0.1, seed=5)
    assert_backward_is_the_reference((tree, table, params, batch, cut), lam)


def assert_close(new, old):
    assert abs(new.value - old.value) <= REL * abs(old.value)
    for a, b in ((new.grad_weight, old.grad_weight), (new.grad_bias, old.grad_bias)):
        assert np.abs(a - b).max() <= REL * np.abs(b).max()


@given(problems(), st.sampled_from((0.0, 0.5)))
def test_losses_match_reference(problem, lam):
    tree, table, params, batch, cut = problem
    total, dtl, ncl = total_loss(tree, params, table, cut, batch, lam)
    old, old_dtl, old_ncl = oracle.total_loss(tree, params, table, cut, batch, lam)
    # The fused gradient is summed in another order than the oracle's sum of
    # the parts, and with duplicate embedding rows the parts can cancel to
    # about 1e-15, so the bound has an absolute floor.
    for a, b in ((total.grad_weight, old.grad_weight), (total.grad_bias, old.grad_bias)):
        np.testing.assert_allclose(a, b, rtol=REL, atol=1e-14)
    np.testing.assert_allclose(
        (total.value, dtl, ncl), (old.value, old_dtl.value, old_ncl.value), rtol=REL
    )
    assert_close(
        node_centric_loss(tree, params, table, batch),
        oracle.node_centric_loss(tree, params, table, batch),
    )
    assert_close(
        treecut_loss(tree, params, table, cut, batch),
        oracle.treecut_loss(tree, params, table, cut, batch),
    )


@given(problems(), st.integers(1, 5))
def test_metrics_match_reference(problem, block):
    tree, table, params, data, cut = problem
    betas = (0.5, 1.0)
    with block_rows(tree, block):
        vocabularies = [oracle.leaf_label_set(tree), cut]
        vocabularies += [oracle.node_label_set(tree, n) for n in tree.internal_nodes]
        for labels in vocabularies:
            members = np.asarray(labels.members)
            pred = np.concatenate([
                predict(tree, scores, members)
                for _, scores in score_blocks(tree, params, table, data)
            ])
            np.testing.assert_array_equal(
                pred, oracle.predict(params, table, labels, data.features)
            )
        old_leaf = oracle.leaf_accuracy(tree, params, table, data)
        old_hca = oracle.hca(tree, params, table, data)
        old_mta = oracle.mta(tree, params, table, data, betas, 2, seed=5)
        assert leaf_accuracy(tree, params, table, data) == old_leaf
        assert hca(tree, params, table, data) == old_hca
        assert mta(tree, params, table, data, betas, 2, seed=5) == old_mta
        report = evaluate(tree, params, table, data, betas, 2, seed=5)
        assert (report.leaf_acc, report.hca, report.mta) == (old_leaf, old_hca, old_mta[0])
        assert report.cuts == tuple(r for group in old_mta[1] for r in group)


def star_problem(n_leaves: int, per_leaf: int):
    """A root with ``n_leaves`` leaf children, and ``per_leaf`` samples each:
    one group wider than numpy's 8-wide blocks of pairwise summation."""
    tree = load_tree("r\t-\n" + "".join(f"c{i}\tr\n" for i in range(n_leaves)))
    table = random_table(tree, 4, seed=n_leaves)
    batch = noisy_samples(tree, table, per_leaf, sigma=0.6, seed=per_leaf)
    return tree, table, random_params(4, tau=0.1, seed=n_leaves), batch


@given(problems(), st.integers(1, 5), st.data())
@example((*star_problem(20, 3), None), 7, None)
def test_path_pairs_match_dense_forms_bit_for_bit(problem, block, data):
    # The node-centric loss and hca, reduced over each sample's root-path
    # groups only, against the dense forms that reduce over every group:
    # the same floats, not close ones, and the same hca count.
    tree, table, params, batch, _ = problem
    if data is not None:  # samples in any order, not grouped by leaf
        batch = batch.take(data.draw(st.permutations(range(len(batch)))))
    leaves = batch.leaf_labels
    *_, cos = objectives._score(params, table, tree.layout.nodes, batch.features)
    grad = np.zeros_like(cos)
    value = objectives._node_centric(tree, cos, leaves, params.tau, grad)
    old_value, old_grad = oracle.dense_node_centric(tree, cos, leaves, params.tau)
    assert np.array_equal(value, old_value)
    assert np.array_equal(grad, old_grad)
    with block_rows(tree, block):
        dense_right = 0
        for labels, scores in score_blocks(tree, params, table, batch):
            ok = predict(tree, scores, np.asarray(tree.leaf_nodes)) == labels
            dense_right += oracle.dense_hca_right(tree, labels, scores, ok)
        assert hca(tree, params, table, batch) == dense_right / len(batch)


def test_one_leaf_chain_has_no_node_term():
    tree = load_tree("r\t-\na\tr\nb\ta\n")
    table = random_table(tree, 3, seed=1)
    batch = noisy_samples(tree, table, 4, sigma=0.6, seed=1)
    params = random_params(3, tau=0.5, seed=1)
    ncl = node_centric_loss(tree, params, table, batch)
    assert ncl.value == 0.0
    assert not ncl.grad_weight.any() and not ncl.grad_bias.any()
    assert hca(tree, params, table, batch) == leaf_accuracy(tree, params, table, batch) == 1.0


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


@given(st.lists(st.integers(0, 5), max_size=40), st.integers(1, 4))
def test_k_shot_selection_matches_reference(labels, shots):
    data = SampleSet(
        ids=tuple(map(str, range(len(labels)))),
        leaf_labels=np.asarray(labels, dtype=np.int64),
        features=np.ones((len(labels), 2)),
    )
    np.testing.assert_array_equal(
        k_shot_indices(data, shots), oracle.k_shot_indices(data, shots)
    )


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
    assert new_rng.state == old_rng.state
    assert sample_distinct(tree, new, beta, count, Rng64(seed)) == oracle.sample_distinct(
        tree, old, beta, count, Rng64(seed)
    )


@given(st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from((0.1, 0.5, 0.9)))
def test_cut_targets_are_the_members_on_each_root_path(seed, one_child_root, beta):
    # The interval lookup names, for each sample's leaf, the one member of a
    # treecut on its root path, in any sample order: on sampled cuts and on
    # every cut of the tree.
    tree = sampler_tree(seed, one_child_root)
    lay = build_matrices(tree)
    leaves = np.asarray(tree.leaf_nodes)
    leaves = np.concatenate([leaves[::-1], leaves])
    rng = Rng64(seed)
    cuts = [sample_treecut(tree, lay, beta, rng) for _ in range(5)] + list(
        enumerate_treecuts(tree)
    )
    for cut in cuts:
        expected = np.argmax(lay.on_path(leaves[:, None], cut.members), axis=1)
        got = lay.targets(cut.members, leaves)
        np.testing.assert_array_equal(got, expected)


@given(
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.sampled_from((0.1, 0.5, 0.9)),
    st.integers(1, 4),
    st.data(),
)
def test_cut_decisions_are_the_ancestry_decisions(seed, one_child_root, beta, block, data):
    # Eval decides a cut by comparing its columns' argmax with the target
    # position; the reference predicts a member and tests its ancestry. On
    # scores drawn from three values, ties are common and the smallest node
    # index must win them in both: with every score equal, a cut is right
    # exactly on the samples whose target is its smallest member.
    tree = sampler_tree(seed, one_child_root)
    lay = build_matrices(tree)
    rng = Rng64(seed)
    cuts = tuple(sample_treecut(tree, lay, beta, rng) for _ in range(4))
    n = data.draw(st.integers(1, 9))
    labels = np.asarray(data.draw(st.lists(st.sampled_from(tree.leaf_nodes), min_size=n,
                                           max_size=n)))
    samples = SampleSet(tuple(map(str, range(n))), labels, np.ones((n, 1)))
    three = st.sampled_from((0.0, 1.0, 2.0))
    drawn = data.draw(hnp.arrays(np.float64, (n, len(lay.nodes)), elements=three))
    for scores in (drawn, np.zeros_like(drawn)):
        blocks = [(labels[lo : lo + block], scores[lo : lo + block]) for lo in range(0, n, block)]
        with mock.patch.object(metrics, "score_blocks", lambda *_: iter(blocks)):
            # at most dim rows a block, as score_blocks yields them
            got = metrics._accuracies(tree, PromptParams.identity(block, 1.0), None, samples,
                                      cuts)[2]
        right = [oracle.cut_right(tree, labels, scores, cut.members) for cut in cuts]
        assert got == [int(ok.sum()) / n for ok in right]
    smallest = [lay.on_path(labels, min(cut.members)) for cut in cuts]
    assert [ok.tolist() for ok in right] == [ok.tolist() for ok in smallest]


# ------------------------------------------------------------ file loaders

BAD_TOKENS = ("", "nan", "inf", "1_0", "\u0661", "x", "+1", "1e3",
              "-0", "-00", "1e400", "18446744073709551617", "true", "null", '"1"',
              "[1]", "1,2", " 1", "1\x0c")


def loaded(loader, *args):
    """A loader's result as comparable bytes, or its error's type and message.

    A decoding error is compared by its reason and byte offsets.
    """
    try:
        result = loader(*args)
    except UnicodeDecodeError as exc:
        return type(exc), exc.reason, exc.start, exc.end
    except Exception as exc:  # the error itself is what is compared
        return type(exc), str(exc)
    if isinstance(result, TaxonomyTree):
        return result.names, result.parents
    if isinstance(result, EmbeddingTable):
        return result.dim, result.vectors.tobytes()
    if hasattr(result, "features"):
        return (result.ids, result.leaf_labels.tobytes(), result.features.shape,
                result.features.tobytes())
    return result.tau, result.weight.tobytes(), result.bias.tobytes()


def mutate(draw, lines: list[str], kind: str, tree: TaxonomyTree) -> None:
    """Splice one defect into a data line of a written document."""
    first = 0 if kind in ("params", "tree") else 1
    i = draw(st.integers(first, len(lines) - 1))
    fields = lines[i].split("\t")
    # Fields before the first number; a tree's name and parent both take defects.
    values = {"samples": 2, "tree": 0}.get(kind, 1)
    defect = draw(st.sampled_from(
        ("token", "token", "add", "remove", "duplicate", "zero", "unknown", "comment",
         "header")
    ))
    if defect == "header" and first:  # "#dims 2" is malformed; "# dim 2" is no header
        lines[0] = draw(st.sampled_from(("#dims", "#dimension", "#DIM", "# dim"))) + lines[0][4:]
        return
    if defect == "comment":  # a record after a break that ends no line
        lines.insert(i, "# note" + draw(st.sampled_from(ODD_BREAKS)) + lines[i])
        return
    if defect == "token" and len(fields) > values:
        for j in draw(st.lists(st.integers(values, len(fields) - 1), min_size=1, max_size=3)):
            fields[j] = draw(st.sampled_from((*BAD_TOKENS, "-", "\u540d")))
    elif defect == "add":
        fields.append(draw(st.sampled_from(("0.5", *BAD_TOKENS))))
    elif defect == "remove" and len(fields) > 1:
        fields.pop(draw(st.integers(1, len(fields) - 1)))
    elif defect == "duplicate":
        fields[0] = lines[draw(st.integers(first, len(lines) - 1))].split("\t")[0]
    elif defect == "zero":
        fields[values:] = ["0.0" if k % 2 else "-0.0" for k in range(len(fields) - values)]
    elif defect == "unknown":
        column = 1 if kind in ("samples", "tree") else 0
        fields[column] = draw(st.sampled_from(("ghost", tree.names[tree.root])))
    lines[i] = "\t".join(fields)


class Trickle(io.BytesIO):
    """A binary file whose every read returns at most ``k`` bytes, through
    ``read`` or ``read1`` (which a text wrapper calls), counted in ``reads``."""

    def __init__(self, data: bytes, k: int) -> None:
        super().__init__(data)
        self.k = k
        self.reads = 0

    def read(self, n: int | None = -1) -> bytes:
        self.reads += 1
        return super().read(self.k if n is None or n < 0 else min(n, self.k))

    def read1(self, n: int | None = -1) -> bytes:
        return self.read(n)


@settings(max_examples=300)  # cheap examples; many defect combinations
@given(st.integers(0, 2**32 - 1),
       st.sampled_from(("tree", "embeddings", "samples", "params")), st.data())
def test_loaders_match_reference(seed, kind, data):
    tree = random_tree(Rng64(seed), max_internal=4, max_nodes=10)
    dim = data.draw(st.integers(1, 4))
    table = random_table(tree, dim, seed=seed)
    if kind == "tree":  # its reference is its own load of the whole text
        text = fileio.write_tree(tree)
        new = old = load_tree
    elif kind == "embeddings":
        text = fileio.write_embeddings(table, tree)
        if data.draw(st.booleans()):  # rows in another order than the nodes'
            header, *rows = text.splitlines()
            text = "\n".join([header, *data.draw(st.permutations(rows))]) + "\n"
        new, old = fileio.load_embeddings, oracle.load_embeddings
    elif kind == "samples":
        text = fileio.write_samples(noisy_samples(tree, table, 1, 0.5, seed), tree, dim)
        new, old = fileio.load_samples, oracle.load_samples
    else:
        text = fileio.write_params(random_params(dim, tau=0.5, seed=seed))
        new, old = fileio.load_params, oracle.load_params
    lines = text.splitlines()
    for _ in range(data.draw(st.integers(0, 3))):
        mutate(data.draw, lines, kind, tree)
    breaks = st.sampled_from(("\n", "\r\n", "\r"))
    text = "".join(line + data.draw(breaks) for line in lines[:-1])
    text += lines[-1] + data.draw(st.sampled_from(("", "\n", "\r\n", "\r")))
    args = (text,) if kind in ("tree", "params") else (text, tree)
    expected = loaded(old, *args)
    assert loaded(new, *args) == expected
    # Read from a binary file whose reads return at most k bytes, so block
    # edges fall inside \r\n pairs, UTF-8 sequences and lines, the
    # document loads the same.
    k = data.draw(st.sampled_from((1, 2, 3, 4, 5, 6, 7, 65_536)))

    def from_bytes(doc: bytes):
        file = Trickle(doc, k)
        result = loaded(new, file, *args[1:])
        assert file.reads >= file.tell() // k  # every byte came in a capped read
        return result

    doc = text.encode()
    assert from_bytes(doc) == expected
    # A bad byte is reported at its offset in the file, as decoding the
    # whole file reports it, unless a line before its own is at fault.
    at = len(text[: data.draw(st.integers(0, len(text)))].encode())
    bad = doc[:at] + data.draw(st.sampled_from((b"\xff", b"\xc3", b"\xe2\x82"))) + doc[at:]
    with pytest.raises(UnicodeDecodeError) as whole:
        bad.decode()
    bad_line = len(oracle.split_lines(bad[: whole.value.start].decode()))
    if fault_line(expected) < bad_line:
        assert from_bytes(bad) == expected
    else:
        assert from_bytes(bad) == loaded(bad.decode)


def fault_line(result) -> float:
    """The line a loader's error names: 1 for the header, inf for none."""
    if result[0] not in (fileio.FormatError, TreeFormatError):
        return math.inf
    named = re.match(r"(?:[a-z ]+ )?line (\d+):", result[1])
    if named:
        return int(named.group(1))
    return 1 if "first line" in result[1] or "dimension header" in result[1] else math.inf


def read_lines(reader, doc: bytes, k: int):
    """Every numbered line ``reader`` gives for ``doc`` read ``k`` bytes at a
    time, then its decoding error's reason, offsets and named bytes, if any."""
    lines = []
    try:
        lines.extend(reader(Trickle(doc, k)))
    except UnicodeDecodeError as exc:
        lines.append((exc.reason, exc.start, exc.end, exc.object))
    return lines


PIECE = io.DEFAULT_BUFFER_SIZE  # the characters one read of the line reader may return
# Parts that put a break, a \r\n pair or a bad byte at each place a piece
# can end: on either side of the last character of a piece, and across it.
LINE_PARTS = (b"a", b"1.5\t-2", b"\r", b"\n", b"\r\n", b"\r\r", b"\xc3", b"\xff",
              b"\xc3\xa9", b"\xe2\x82", b"\xe2\x82\xac", b"x" * (PIECE - 2),
              b"x" * (PIECE - 1), b"x" * PIECE, b"y" * (PIECE + 3))


@settings(max_examples=150)
@given(st.lists(st.sampled_from(LINE_PARTS), max_size=10),
       st.sampled_from((1, 7, PIECE, 65_536)))
@example([b"x" * (PIECE - 1), b"\r\n", b"a"], 1)  # \r ends a piece, its \n opens the next
@example([b"x" * (PIECE - 1), b"\r", b"a"], 65_536)  # ... and no \n, nor any break, follows
@example([b"x" * (PIECE - 2), b"\r", b"a", b"\xff"], PIECE)  # a lone \r one before the end
@example([b"x" * (PIECE - 2), b"\r", b"\xc3", b"\n"], 7)
@example([b"a", b"\r", b"\xff", b"\n", b"\r", b"b\xc3", b"\r\n"], 1)
@example([b"a\rb\rc", b"\xc3", b"\r"], 65_536)  # a bare \r ends the file
def test_line_reader_matches_the_text_stream_reference(parts, k):
    # The bounded \n reader gives the universal-newline stream's numbered
    # lines, split at \r, \r\n and \n alike, and its decoding error, reason
    # and offsets included, after every line before the bad byte.
    doc = b"".join(parts)
    assert read_lines(taxonomy._lines, doc, k) == read_lines(oracle.stream_lines, doc, k)


# Tokens that orjson reads as no float, or as an integer, which float() reads
# alike only as long as the integer is rounded as float() rounds it.
WIDE_TOKENS = ("-0", "0", "-0.0", "true", "false", "null", "1", "1E5", "9007199254740993",
               "18446744073709551617", '"1"', "[1]")


@settings(max_examples=120)
@given(st.integers(0, 2**32 - 1), st.sampled_from(("embeddings", "samples", "params")),
       st.integers(64, 300), st.sampled_from((*WIDE_TOKENS, ",")),
       st.sampled_from((0, 0.5, 1)), st.data())
def test_wide_rows_load_as_the_reference_does(seed, kind, dim, token, where, data):
    # One token in the first, a middle or the last column of one row of a
    # wide document: the load gives the per-token reference's bits or error.
    # "," joins the column to the next one instead: a TAB too few, as many
    # JSON values as columns.
    tree = random_tree(Rng64(seed), max_internal=3, max_nodes=8)
    table = random_table(tree, dim, seed=seed)
    if kind == "embeddings":
        text = fileio.write_embeddings(table, tree)
        new, old = fileio.load_embeddings, oracle.load_embeddings
    elif kind == "samples":
        text = fileio.write_samples(noisy_samples(tree, table, 1, 0.5, seed), tree, dim)
        new, old = fileio.load_samples, oracle.load_samples
    else:
        text = fileio.write_params(random_params(dim, tau=0.5, seed=seed))
        new, old = fileio.load_params, oracle.load_params
    lines = text.splitlines()
    i = data.draw(st.integers(2 if kind == "params" else 1, len(lines) - 1))  # a row of dim
    fields = lines[i].split("\t")
    head = len(fields) - dim  # the name, id and leaf, or tag, before the numbers
    at = head + round(where * (dim - 1))
    if token == ",":
        at = min(at, len(fields) - 2)
        fields[at : at + 2] = [",".join(fields[at : at + 2])]
    else:
        fields[at] = token
    lines[i] = "\t".join(fields)
    text = "\n".join(lines) + "\n"
    args = (text,) if kind == "params" else (text, tree)
    assert loaded(new, *args) == loaded(old, *args)


NUMBER_CHARS = "0123456789.eE+-"


@settings(max_examples=500)
@given(st.one_of(
    st.text(NUMBER_CHARS, max_size=40),
    st.from_regex(r"[+-]?[0-9]*\.?[0-9]*([eE][+-]?[0-9]*)?", fullmatch=True).filter(
        lambda t: len(t) <= 40),
))
@example("-0")
@example("-0.0e5")
@example("-1e-400")
@example("1e400")
@example("2.2250738585072011e-308")
@example("2.4703282292062328e-324")
@example("18446744073709551617")
@example("9007199254740993")
@example("9007199254740993.00000000000000000000000000000000000000000001")
@example("1.00000000000000011102230246251565404236316680908203125")
def test_number_tokens_parse_as_float_does(token):
    # Read through orjson or the per-token parser, one value gives
    # float(token)'s bits, the sign of zero included, or the reference's
    # error. The bias row of a one-dimensional params file may be zero.
    text = f"dim\t1\ntau\t0.5\nA\t1.0\nc\t{token}\n"
    new = loaded(fileio.load_params, text)
    assert new == loaded(oracle.load_params, text)
    try:
        value = float(token)
    except ValueError:
        value = math.nan
    if math.isfinite(value):
        assert new[2] == np.float64(value).tobytes()
    else:
        assert new[0] is fileio.FormatError


finite = st.floats(allow_nan=False, allow_infinity=False)


def row_texts(matrix: np.ndarray) -> list[str]:
    """The library's rows of ``matrix``, as text, across its blocks."""
    return [bytes(row).decode() for rows in fileio._row_blocks(matrix) for row in rows]


def assert_shortest(text: str, skip_lines: int, skip_fields: int) -> None:
    """Every number in ``text`` is written as ``format_float`` writes it."""
    for line in text.splitlines()[skip_lines:]:
        for token in line.split("\t")[skip_fields:]:
            assert fileio.format_float(float(token)) == token


@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.data())
def test_write_load_write_is_a_fixpoint(seed, dim, data):
    tree = random_tree(Rng64(seed), max_internal=4, max_nodes=10)

    def matrix(rows: int) -> np.ndarray:
        flat = data.draw(st.lists(finite, min_size=rows * dim, max_size=rows * dim))
        out = np.asarray(flat, dtype=np.float64).reshape(rows, dim)
        out[~out.any(axis=1), 0] = 1.0  # all-zero rows are refused on load
        return out

    vectors = matrix(tree.n_nodes)
    vectors[tree.root] = 0.0
    table = EmbeddingTable(dim=dim, vectors=vectors)
    text = fileio.write_embeddings(table, tree)
    assert_shortest(text, 1, 1)
    again = fileio.load_embeddings(text, tree)
    assert again.vectors.tobytes() == vectors.tobytes()
    assert fileio.write_embeddings(again, tree) == text

    leaves = np.asarray(tree.leaf_nodes, dtype=np.int64)
    samples = SampleSet(ids=tuple(f"s{i}" for i in range(len(leaves))),
                        leaf_labels=leaves, features=matrix(len(leaves)))
    text = fileio.write_samples(samples, tree, dim)
    assert_shortest(text, 1, 2)
    again = fileio.load_samples(text, tree)
    assert again.features.tobytes() == samples.features.tobytes()
    assert fileio.write_samples(again, tree, dim) == text

    params = PromptParams(weight=matrix(dim), bias=matrix(1)[0],
                          tau=data.draw(st.floats(min_value=1e-300, max_value=1e300)))
    text = fileio.write_params(params)
    assert_shortest(text, 1, 1)
    again = fileio.load_params(text)
    assert (again.weight.tobytes(), again.bias.tobytes(), again.tau) == (
        params.weight.tobytes(), params.bias.tobytes(), params.tau)
    assert fileio.write_params(again) == text


# Both sides of each edge where orjson's layout of a float, or how far it
# is from repr's, changes: repr's alike for 1e-4 <= |x| < 1e16; 0.0000ddd
# from 1e-5; a one-digit exponent from 1e-9; a three-digit one from 1e100;
# subnormals below the smallest normal. Then the values orjson cannot write
# as repr does.
EDGES = tuple(
    v
    for edge in (1e-10, 1e-9, 1e-5, 1e-4, 1e16, 1e100, sys.float_info.min)
    for sign in (1.0, -1.0)
    for v in (sign * math.nextafter(edge, 0.0), sign * edge,
              sign * math.nextafter(edge, math.inf))
)
SPECIALS = (0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, math.nan, math.inf, -math.inf)


@settings(max_examples=200)
@given(st.tuples(st.integers(0, 300), st.integers(1, 8)).flatmap(
    lambda shape: hnp.arrays(np.float64, shape, elements=st.one_of(
        st.floats(), st.sampled_from(EDGES + SPECIALS)))))
def test_row_writer_matches_reference(matrix):
    # Rows past fileio.WRITE_BLOCK cross a block boundary.
    assert row_texts(matrix) == oracle.row_texts(matrix)


@given(st.integers(0, 2**32 - 1), st.sampled_from((0.0, 0.001, 0.02, 0.05, 0.3, 1.0)))
def test_row_writer_matches_reference_at_any_share_respelt(seed, share):
    # A block where few values are laid out unlike repr renders them one by
    # one; where many are, as in a trained map, they are respelt in orjson's
    # bytes. Either way every exponent, sign and special value comes out as
    # repr writes it.
    gen = np.random.default_rng(seed)
    shape = (int(gen.integers(1, 150)), int(gen.integers(1, 40)))
    respelt = 10.0 ** gen.uniform(-323.0, 308.0, shape)
    special = gen.random(shape) < 0.1
    respelt[special] = gen.choice(EDGES + SPECIALS, int(special.sum()))
    matrix = np.where(gen.random(shape) < share, respelt, 10.0 ** gen.uniform(-4.0, 16.0, shape))
    matrix *= gen.choice((-1.0, 1.0), shape)
    assert row_texts(matrix) == oracle.row_texts(matrix)


def test_row_writer_sweep_matches_reference():
    gen = np.random.default_rng(0)
    powers = np.ldexp(1.0, np.arange(-14, 54))
    neighbours = np.concatenate(
        [powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    mantissas = 10.0 ** gen.uniform(-4.0, 16.0, 90_000)
    mantissas = mantissas[mantissas < 1e16]
    integers = np.arange(5_000, dtype=np.float64)
    decimals = gen.integers(1, 10**6, 5_000) / 10.0 ** gen.integers(1, 6, 5_000)
    values = np.concatenate([neighbours, mantissas, integers, decimals])
    values *= np.where(gen.random(len(values)) < 0.5, -1.0, 1.0)
    matrix = np.resize(values, (len(values) // 7 + 1, 7))
    assert row_texts(matrix) == oracle.row_texts(matrix)

"""The score-matrix losses, metrics, cut check and sampler against references.

``oracle`` keeps the per-vocabulary, per-node and per-sample versions the
library used before it moved to one score matrix per batch. On random
trees, with one-child nodes, exact score ties and one-label cuts, losses
and gradients must agree to 1e-12 relative and every prediction and
accuracy must be exactly equal. It also keeps the integer-matrix treecut
sampler; the boolean-mask one must give the same flags, masks and cuts.
Its per-token file loaders must agree with the row-at-a-time ones on
written documents with bad tokens, wrong field counts, bad records and
comments holding odd line breaks spliced in, under each of the three line
endings: the same arrays, byte for byte, or the same error; and so must
they on any one number token made of digits, ``.``, ``e``, ``E``, ``+``
and ``-``, whose value must be float()'s. Its
one-float.__repr__-per-value row writer must give the same bytes as the
block-at-a-time orjson one, on every kind of float.
"""
from __future__ import annotations

import io
import math
import re
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
from hiertune import fileio, metrics
from hiertune.taxonomy import _split_lines

from helpers import ODD_BREAKS, noisy_samples, random_params, random_table, random_tree

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


@given(problems(), st.integers(1, 5))
def test_metrics_match_reference(problem, block):
    tree, table, params, data, cut = problem
    betas = (0.5, 1.0)
    with mock.patch.object(metrics, "EVAL_BLOCK", block):
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
    if isinstance(result, EmbeddingTable):
        return result.dim, result.vectors.tobytes()
    if hasattr(result, "features"):
        return (result.ids, result.leaf_labels.tobytes(), result.features.shape,
                result.features.tobytes())
    return result.tau, result.weight.tobytes(), result.bias.tobytes()


def mutate(draw, lines: list[str], kind: str, tree: TaxonomyTree) -> None:
    """Splice one defect into a data line of a written document."""
    first = 0 if kind == "params" else 1
    i = draw(st.integers(first, len(lines) - 1))
    fields = lines[i].split("\t")
    values = 2 if kind == "samples" else 1  # fields before the first number
    defect = draw(st.sampled_from(
        ("token", "token", "add", "remove", "duplicate", "zero", "unknown", "comment")
    ))
    if defect == "comment":  # a record after a break that ends no line
        lines.insert(i, "# note" + draw(st.sampled_from(ODD_BREAKS)) + lines[i])
        return
    if defect == "token" and len(fields) > values:
        for j in draw(st.lists(st.integers(values, len(fields) - 1), min_size=1, max_size=3)):
            fields[j] = draw(st.sampled_from(BAD_TOKENS))
    elif defect == "add":
        fields.append(draw(st.sampled_from(("0.5", *BAD_TOKENS))))
    elif defect == "remove" and len(fields) > 1:
        fields.pop(draw(st.integers(1, len(fields) - 1)))
    elif defect == "duplicate":
        fields[0] = lines[draw(st.integers(first, len(lines) - 1))].split("\t")[0]
    elif defect == "zero":
        fields[values:] = ["0.0" if k % 2 else "-0.0" for k in range(len(fields) - values)]
    elif defect == "unknown":
        column = 1 if kind == "samples" else 0
        fields[column] = draw(st.sampled_from(("ghost", tree.names[tree.root])))
    lines[i] = "\t".join(fields)


@settings(max_examples=300)  # cheap examples; many defect combinations
@given(st.integers(0, 2**32 - 1), st.sampled_from(("embeddings", "samples", "params")),
       st.data())
def test_loaders_match_reference(seed, kind, data):
    tree = random_tree(Rng64(seed), max_internal=4, max_nodes=10)
    dim = data.draw(st.integers(1, 4))
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
    for _ in range(data.draw(st.integers(0, 3))):
        mutate(data.draw, lines, kind, tree)
    breaks = st.sampled_from(("\n", "\r\n", "\r"))
    text = "".join(line + data.draw(breaks) for line in lines[:-1])
    text += lines[-1] + data.draw(st.sampled_from(("", "\n", "\r\n", "\r")))
    args = (text,) if kind == "params" else (text, tree)
    expected = loaded(old, *args)
    assert loaded(new, *args) == expected
    if kind == "params":
        return
    # Read from a binary file a line at a time, the document loads the same.
    doc = text.encode()
    assert loaded(new, io.BytesIO(doc), tree) == expected
    # A bad byte is reported at its offset in the file, as decoding the
    # whole file reports it, unless a line before its own is at fault.
    at = len(text[: data.draw(st.integers(0, len(text)))].encode())
    bad = doc[:at] + data.draw(st.sampled_from((b"\xff", b"\xc3", b"\xe2\x82"))) + doc[at:]
    with pytest.raises(UnicodeDecodeError) as whole:
        bad.decode()
    bad_line = len(_split_lines(bad[: whole.value.start].decode()))
    if fault_line(expected) < bad_line:
        assert loaded(new, io.BytesIO(bad), tree) == expected
    else:
        assert loaded(new, io.BytesIO(bad), tree) == loaded(bad.decode)


def fault_line(result) -> float:
    """The line a loader's error names: 1 for the header, inf for none."""
    if result[0] is not fileio.FormatError:
        return math.inf
    named = re.search(r" line (\d+):", result[1])
    if named:
        return int(named.group(1))
    return 1 if "first line" in result[1] or "dimension header" in result[1] else math.inf


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


# Both sides of each edge of the range where orjson and repr lay a float
# out alike (0, and 1e-4 <= |x| < 1e16), and the values orjson cannot
# write as repr does.
EDGES = tuple(
    v
    for edge in (1e-4, 1e16)
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
    assert list(fileio._row_texts(matrix)) == oracle.row_texts(matrix)


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
    assert list(fileio._row_texts(matrix)) == oracle.row_texts(matrix)

"""Text artifact formats: round-trips are byte-exact, loaders validate."""
from __future__ import annotations

import gc
import io
import re
import tracemalloc

import numpy as np
import pytest

from hiertune import (
    EmbeddingTable,
    PromptParams,
    Rng64,
    SampleSet,
    TrainLog,
    load_tree,
)
from hiertune import fileio
from hiertune.fileio import (
    FormatError,
    format_float,
    load_embeddings,
    load_params,
    load_samples,
    write_cut_details,
    write_embeddings,
    write_params,
    write_report,
    write_samples,
    write_train_log,
    write_tree,
)
from hiertune.metrics import CutResult, MetricsReport
from hiertune.trainer import IterationRecord

import oracle
from helpers import DEMO_DOC, ODD_BREAKS, demo_tree, random_table, random_tree

AWKWARD = (0.1, 1.0 / 3.0, 1e-17, -0.0, 2.0**-52, 123456.78901234567)


def test_format_float_round_trips_awkward_values():
    for x in AWKWARD:
        s = format_float(x)
        assert float(s) == x
    assert format_float(0.1) == "0.1"
    assert format_float(1.0 / 3.0) == "0.3333333333333333"
    assert format_float(-0.0) == "-0.0"


def test_write_tree_is_inverse_of_load():
    tree = demo_tree()
    assert write_tree(tree) == DEMO_DOC
    rng = Rng64(123)
    for _ in range(5):
        t = random_tree(rng)
        from hiertune import load_tree

        again = load_tree(write_tree(t))
        assert again == t


def embeddings_fixture():
    tree = demo_tree()
    vals = np.zeros((tree.n_nodes, 3))
    for i, base in enumerate(AWKWARD[:3]):
        for node in range(1, tree.n_nodes):
            vals[node, i] = base * node
    table = EmbeddingTable(dim=3, vectors=vals)
    return tree, table


def test_embeddings_round_trip_is_byte_exact():
    tree, table = embeddings_fixture()
    text = write_embeddings(table, tree)
    loaded = load_embeddings(text, tree)
    np.testing.assert_array_equal(loaded.vectors, table.vectors)
    assert write_embeddings(loaded, tree) == text


def test_embeddings_loader_validation():
    tree = demo_tree()
    good_rows = "\n".join(f"n{i}\t1.0\t0.0" for i in range(1, 7))
    with pytest.raises(FormatError, match="#dim"):
        load_embeddings(good_rows + "\n", tree)
    with pytest.raises(FormatError, match="dimension header"):
        load_embeddings("#dim x\n" + good_rows + "\n", tree)
    with pytest.raises(FormatError, match="expected name plus 2"):
        load_embeddings("#dim 2\nn1\t1.0\n" + good_rows + "\n", tree)
    with pytest.raises(FormatError, match="duplicate"):
        load_embeddings("#dim 2\n" + good_rows + "\nn1\t1.0\t0.0\n", tree)
    with pytest.raises(FormatError, match="bad number"):
        load_embeddings("#dim 2\nn1\tx\t0.0\n", tree)
    with pytest.raises(FormatError, match="non-finite"):
        load_embeddings("#dim 2\nn1\tinf\t0.0\n", tree)
    with pytest.raises(ValueError, match="missing embeddings"):
        load_embeddings("#dim 2\nn1\t1.0\t0.0\n", tree)
    with pytest.raises(ValueError, match="unknown nodes"):
        load_embeddings("#dim 2\n" + good_rows + "\nghost\t1.0\t0.0\n", tree)
    zeroed = good_rows.replace("n1\t1.0\t0.0", "n1\t0.0\t0.0", 1)
    with pytest.raises(ValueError, match="all zeros"):
        load_embeddings("#dim 2\n" + zeroed + "\n", tree)


def test_samples_round_trip_and_comment_tolerance():
    tree = demo_tree()
    data = SampleSet(
        ids=("s0", "s1"),
        leaf_labels=np.array([tree.name_index["n4"], tree.name_index["n6"]]),
        features=np.array([[0.1, -0.0], [1e-17, 2.0]]),
    )
    text = write_samples(data, tree, dim=2)
    with_comment = text.replace("#dim 2\n", "#dim 2\n# seed 0\n", 1)
    loaded = load_samples(with_comment, tree)
    assert loaded.ids == data.ids
    np.testing.assert_array_equal(loaded.leaf_labels, data.leaf_labels)
    np.testing.assert_array_equal(loaded.features, data.features)
    assert write_samples(loaded, tree, dim=2) == text
    empty = load_samples("#dim 2\n", tree)
    assert len(empty) == 0


def test_samples_loader_validation():
    tree = demo_tree()
    with pytest.raises(FormatError, match="expected id, leaf, and 2"):
        load_samples("#dim 2\ns0\tn4\t1.0\n", tree)
    with pytest.raises(FormatError, match="unknown leaf"):
        load_samples("#dim 2\ns0\tnope\t1.0\t0.0\n", tree)
    with pytest.raises(FormatError, match="is not a leaf"):
        load_samples("#dim 2\ns0\tn1\t1.0\t0.0\n", tree)
    with pytest.raises(FormatError, match="all-zero"):
        load_samples("#dim 2\ns0\tn4\t0.0\t-0.0\n", tree)


@pytest.mark.parametrize("header", ["#dims 2", "#dimension 2"])
def test_dimension_header_must_be_exactly_dim(header):
    # Only a first field of exactly `#dim` names the dimension.
    tree = demo_tree()
    embeddings = "".join(f"n{i}\t1.0\t0.0\n" for i in range(1, 7))
    with pytest.raises(FormatError, match=f"malformed dimension header {header!r}"):
        load_samples(f"{header}\ns0\tn4\t1.0\t0.0\n", tree)
    with pytest.raises(FormatError, match=f"malformed dimension header {header!r}"):
        load_embeddings(f"{header}\n{embeddings}", tree)
    assert load_samples("#dim\t2\ns0\tn4\t1.0\t0.0\n", tree).features.shape == (1, 2)


@pytest.mark.parametrize("sid", ["#x", " y", "y ", "", "a\tb", "a\rb", "a\nb", "z"])
def test_write_samples_refuses_ids_that_load_back_differently(sid):
    # "#x" reads back as a comment, " y" as "y", "a\tb" as a bad row; the
    # second "z" repeats the first. Nothing is rendered.
    tree = demo_tree()
    ids = ("z", sid) if sid == "z" else ("ok", sid, "z")
    samples = SampleSet(
        ids=ids,
        leaf_labels=np.full(len(ids), tree.name_index["n4"]),
        features=np.ones((len(ids), 2)),
    )
    with pytest.raises(ValueError, match=re.escape(f"sample id {sid!r} would not load back")):
        write_samples(samples, tree, 2)


def test_write_samples_keeps_ids_that_load_back():
    tree = demo_tree()
    ids = ("n3.0", "a b", "x#1", "\u540d", "a\x0cb")
    samples = SampleSet(
        ids=ids,
        leaf_labels=np.full(len(ids), tree.name_index["n4"]),
        features=np.ones((len(ids), 2)),
    )
    assert load_samples(write_samples(samples, tree, 2), tree).ids == ids


def test_write_samples_puts_a_comment_after_the_dim_line():
    tree = demo_tree()
    samples = SampleSet(
        ids=("a", "b", "c"),
        leaf_labels=np.array([tree.name_index[n] for n in ("n3", "n4", "n3")]),
        features=np.array([[1.0, 0.5], [-2.0, 1e-5], [0.25, 3.0]]),
    )
    document = write_samples(samples, tree, 2, comment="seed 3")
    # The line gen_synth used to splice into the rendered document.
    assert document == write_samples(samples, tree, 2).replace("\n", "\n# seed 3\n", 1)
    loaded = load_samples(document, tree)
    assert loaded.ids == samples.ids
    np.testing.assert_array_equal(loaded.leaf_labels, samples.leaf_labels)
    np.testing.assert_array_equal(loaded.features, samples.features)


@pytest.mark.parametrize("comment", ["seed 3\n", "a\rb", "\r\n", "x\ny"])
def test_write_samples_refuses_a_comment_that_breaks_its_line(comment, monkeypatch):
    def rendered(*args):
        raise AssertionError("a row was rendered")

    monkeypatch.setattr(fileio, "_row_lines", rendered)
    tree = demo_tree()
    samples = SampleSet(ids=("a",), leaf_labels=np.array([tree.name_index["n3"]]),
                        features=np.ones((1, 2)))
    with pytest.raises(ValueError, match=re.escape(f"comment {comment!r} would not load back")):
        write_samples(samples, tree, 2, comment=comment)


def test_samples_loader_rejects_duplicate_ids():
    tree = demo_tree()
    with pytest.raises(FormatError, match=r"line 3: duplicate sample id 'x'"):
        load_samples("#dim 2\nx\tn4\t1.0\t0.0\nx\tn6\t0.0\t1.0\n", tree)


def test_loaders_reject_digit_separators():
    # float() reads "1_0" as 10.0; no writer emits it, so every loader
    # refuses it and names the line.
    tree = demo_tree()
    good_rows = "\n".join(f"n{i}\t1.0\t0.0" for i in range(1, 7))
    with pytest.raises(FormatError, match=r"embedding table line 3: bad number '1_0'"):
        load_embeddings("#dim 2\n" + good_rows.replace("n2\t1.0", "n2\t1_0") + "\n", tree)
    with pytest.raises(FormatError, match=r"sample file line 2: bad number '0_5'"):
        load_samples("#dim 2\ns_0\tn4\t1.0\t0_5\n", tree)
    good = write_params(PromptParams.identity(2, 0.5))
    with pytest.raises(FormatError, match=r"params file line 3: bad number '1_0'"):
        load_params(good.replace("A\t1.0\t0.0", "A\t1_0\t0.0", 1))
    with pytest.raises(FormatError, match=r"params file line 2: bad number '0_5'"):
        load_params(good.replace("tau\t0.5", "tau\t0_5"))
    # Underscores in names and ids stay legal.
    assert load_samples("#dim 2\ns_0\tn4\t1.0\t0.5\n", tree).ids == ("s_0",)


def test_loaders_reject_non_ascii_numbers():
    # float() reads other scripts' digits and spaces ("\u0662" is 2.0), which
    # no writer emits. The once-per-row screen names the row's first
    # underscore or non-ASCII token, ahead of any other bad token.
    tree = demo_tree()
    good_rows = "\n".join(f"n{i}\t1.0\t0.0" for i in range(1, 7))
    with pytest.raises(FormatError, match="embedding table line 4: bad number '\u0661.\u0665'"):
        load_embeddings("#dim 2\n" + good_rows.replace("n3\t1.0", "n3\t\u0661.\u0665") + "\n", tree)
    with pytest.raises(FormatError, match="sample file line 2: bad number '\u0662'"):
        load_samples("#dim 3\ns0\tn4\tx\t\u0662\t1_0\n", tree)
    nbsp = "1.0\u00a0"
    with pytest.raises(FormatError, match=re.escape(f"line 2: bad number {nbsp!r}")):
        load_samples(f"#dim 1\ns0\tn4\t{nbsp}\n", tree)
    good = write_params(PromptParams.identity(2, 0.5))
    with pytest.raises(FormatError, match="params file line 5: bad number '\u0660.\u0665'"):
        load_params(good.replace("c\t0.0\t0.0", "c\t0.0\t\u0660.\u0665"))
    # Non-ASCII names and ids stay legal.
    assert load_samples("#dim 1\n\u00e9\tn4\t1.0\n", tree).ids == ("\u00e9",)


@pytest.mark.parametrize("pad", [" ", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f"])
def test_loaders_reject_whitespace_in_numbers(pad):
    # float() strips spaces, \x0b and \x0c, and orjson skips spaces, but no
    # writer pads a number; every loader refuses the padded token by name.
    tree = demo_tree()
    for token in (pad + "1.0", "1.0" + pad, "1" + pad + "0"):
        bad = re.escape(f"bad number {token!r}")
        with pytest.raises(FormatError, match=f"sample file line 2: {bad}"):
            load_samples(f"#dim 2\ns1\tn4\t{token}\t2.0\n", tree)
        with pytest.raises(FormatError, match=f"sample file line 2: {bad}"):
            load_samples(f"#dim 2\ns1\tn4\tx\t{token}\n", tree)
        rows = "".join(f"n{i}\t1.0\t0.0\n" for i in range(1, 7))
        with pytest.raises(FormatError, match=f"embedding table line 3: {bad}"):
            load_embeddings("#dim 2\n" + rows.replace("n2\t1.0", f"n2\t{token}"), tree)
        good = write_params(PromptParams.identity(2, 0.5))
        with pytest.raises(FormatError, match=f"params file line 2: {bad}"):
            load_params(good.replace("tau\t0.5", f"tau\t{token}"))
        with pytest.raises(FormatError, match=f"params file line 5: {bad}"):
            load_params(good.replace("c\t0.0\t0.0", f"c\t0.0\t{token}"))
    # Spaces around ids and names stay legal.
    assert load_samples("#dim 1\n s1 \t n4 \t1.0\n", tree).ids == ("s1",)


def test_overstated_dimension_is_a_format_error():
    # Loaders grow their matrices a validated row at a time, not from the
    # declared dimension, so a corrupt header fails on its first row instead
    # of asking for rows x dim floats up front, from text or from a file.
    tree = demo_tree()
    samples = "".join(f"s{i}\tn4\t1.0\t0.0\n" for i in range(3000))
    embeddings = "".join(f"n{i}\t1.0\t0.0\n" for i in range(1, 7))
    for dim in (20_000, 10**7, 10**12, 2**64):
        for wrap in (str, lambda doc: io.BytesIO(doc.encode())):
            with pytest.raises(
                FormatError, match=f"line 2: expected id, leaf, and {dim} values"
            ):
                load_samples(wrap(f"#dim {dim}\n" + samples), tree)
            with pytest.raises(FormatError, match=f"line 2: expected name plus {dim} values"):
                load_embeddings(wrap(f"#dim {dim}\n" + embeddings), tree)
        with pytest.raises(FormatError, match=f"line 3: expected {dim} values"):
            load_params(f"dim\t{dim}\ntau\t0.5\n" + "A\t1.0\t0.0\n" * 3000)


def traced_peak(load, path):
    """``load`` of the open file at ``path``, and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        with open(path, "rb") as file:
            loaded = load(file)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return loaded, peak


def test_loading_a_file_holds_about_the_matrix(tmp_path):
    # A file is streamed a line at a time, and its rows grow one buffer that
    # becomes the matrix with no copy, so the load's peak is about the
    # features plus the buffer's spare room and the text stream's chunk
    # (1.15x measured), whatever its line breaks: a file broken only by bare
    # \r is streamed too. A second copy of the rows, as joining row blocks
    # makes (2.16x), or the document's bytes, text and line list exceed it.
    tree = demo_tree()
    rng = np.random.default_rng(7)
    n, dim = 2500, 128
    data = SampleSet(
        ids=tuple(f"s{i}" for i in range(n)),
        leaf_labels=np.asarray([tree.name_index["n4"], tree.name_index["n6"]] * (n // 2)),
        features=rng.standard_normal((n, dim)),
    )
    path = tmp_path / "samples.tsv"
    text = write_samples(data, tree, dim)
    for document in (text, text.replace("\n", "\r")):
        path.write_text(document, encoding="utf-8", newline="")
        assert path.stat().st_size > 5 * 2**20
        loaded, peak = traced_peak(lambda file: load_samples(file, tree), path)
        np.testing.assert_array_equal(loaded.features, data.features)
        assert peak <= 1.5 * loaded.features.nbytes + 2**20


def test_loading_embeddings_holds_about_the_table(tmp_path):
    # The table is allocated at the first row and each row is written at its
    # node's index, in any order, so the peak is about the table (1.07x
    # measured for both orders). A second copy, as scattering a buffer of
    # the rows into a zeroed table makes (2.08x), exceeds the bound.
    nodes, dim = 2000, 256
    star = load_tree("r\t-\n" + "".join(f"c{i}\tr\n" for i in range(1, nodes)))
    vectors = np.random.default_rng(7).standard_normal((nodes, dim))
    vectors[star.root] = 0.0
    header, *rows = write_embeddings(EmbeddingTable(dim, vectors), star).splitlines()
    shuffled = [rows[i] for i in np.random.default_rng(8).permutation(len(rows))]
    path = tmp_path / "embeddings.tsv"
    for order in (rows, shuffled):
        path.write_text("\n".join([header, *order]) + "\n", encoding="utf-8")
        loaded, peak = traced_peak(lambda file: load_embeddings(file, star), path)
        np.testing.assert_array_equal(loaded.vectors, vectors)
        assert peak <= 1.5 * loaded.vectors.nbytes + 2**20


def test_loading_params_holds_about_the_map(tmp_path):
    # The weight is its rows' buffer, so the peak is about the weight
    # (1.16x measured). A second copy, as joining row blocks makes (2.04x),
    # exceeds the bound.
    dim = 768
    rng = np.random.default_rng(7)
    params = PromptParams(
        weight=rng.standard_normal((dim, dim)), bias=rng.standard_normal(dim), tau=0.5
    )
    path = tmp_path / "params.txt"
    path.write_text(write_params(params), encoding="utf-8")
    loaded, peak = traced_peak(load_params, path)
    np.testing.assert_array_equal(loaded.weight, params.weight)
    np.testing.assert_array_equal(loaded.bias, params.bias)
    assert peak <= 1.5 * loaded.weight.nbytes + 2**20


def test_valid_rows_never_reach_the_per_token_parser(monkeypatch):
    # The per-token parser only names the bad token of a failing row; a
    # valid document is parsed a row at a time without it.
    def per_token(token, lineno, what):
        raise AssertionError(f"per-token parse of line {lineno}")

    monkeypatch.setattr(fileio, "_parse_float", per_token)
    tree = demo_tree()
    leaves = np.asarray([tree.name_index["n4"], tree.name_index["n6"]] * 250)
    data = SampleSet(
        ids=tuple(f"s{i}" for i in range(500)),
        leaf_labels=leaves,
        features=np.random.default_rng(0).standard_normal((500, 8)),
    )
    loaded = load_samples(write_samples(data, tree, dim=8), tree)
    np.testing.assert_array_equal(loaded.features, data.features)
    tree, table = embeddings_fixture()
    np.testing.assert_array_equal(
        load_embeddings(write_embeddings(table, tree), tree).vectors, table.vectors
    )
    params = PromptParams.identity(3, 0.07)
    assert write_params(load_params(write_params(params))) == write_params(params)


def test_written_numbers_never_reach_the_fallback_tier(monkeypatch):
    # orjson takes every row a writer emits, whatever its values: exponent
    # forms, subnormals, both zeros, the float64 extremes and both sides of
    # the edges where orjson and repr lay floats out differently.
    def fallback(tokens, lineno, what):
        raise AssertionError(f"per-token parse of line {lineno}: {tokens}")

    monkeypatch.setattr(fileio, "_parse_tokens", fallback)
    kinds = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1.7976931348623157e308, 1e22,
             1e16, 9999999999999998.0, 1e-4, 9.999999999999999e-05, 0.1, 1.0, 123456.78901234567]
    kinds += [-x for x in kinds]
    gen = np.random.default_rng(1)
    values = np.resize(np.asarray(kinds), 12 * 8).reshape(12, 8)
    values[:, 0] = 10.0 ** gen.uniform(-320, 308, 12)  # no all-zero rows
    tree = demo_tree()
    data = SampleSet(
        ids=tuple(f"s{i}" for i in range(12)),
        leaf_labels=np.asarray([tree.name_index["n4"]] * 12),
        features=values,
    )
    loaded = load_samples(write_samples(data, tree, dim=8), tree)
    assert loaded.features.tobytes() == values.tobytes()
    vectors = np.zeros((tree.n_nodes, 8))
    vectors[1:] = values[: tree.n_nodes - 1]
    table = EmbeddingTable(dim=8, vectors=vectors)
    again = load_embeddings(write_embeddings(table, tree), tree)
    assert again.vectors.tobytes() == vectors.tobytes()
    params = PromptParams(weight=values[:8], bias=values[8], tau=5e-324)
    again = load_params(write_params(params))
    assert (again.weight.tobytes(), again.bias.tobytes(), again.tau) == (
        params.weight.tobytes(), params.bias.tobytes(), params.tau)


def test_in_range_rows_never_reach_the_scalar_formatter(monkeypatch):
    # format_float renders only the values orjson lays out differently
    # from repr; rows of zeros and of 1e-4 <= |x| < 1e16 are written by
    # orjson alone.
    def per_value(x):
        raise AssertionError(f"per-value format of {x!r}")

    values = np.random.default_rng(0).standard_normal((500, 8))
    values[np.abs(values) < 1e-4] = 0.0
    tree = demo_tree()
    data = SampleSet(
        ids=tuple(f"s{i}" for i in range(500)),
        leaf_labels=np.asarray([tree.name_index["n4"], tree.name_index["n6"]] * 250),
        features=values,
    )
    params = PromptParams(weight=values[:8], bias=values[8], tau=0.07)
    with monkeypatch.context() as patch:
        patch.setattr(fileio, "format_float", per_value)
        samples_text = write_samples(data, tree, dim=8)
        params_text = write_params(params)
    assert samples_text.splitlines()[1:] == [
        f"{sid}\t{tree.names[leaf]}\t{row}"
        for sid, leaf, row in zip(data.ids, data.leaf_labels, oracle.row_texts(values))
    ]
    assert params_text.splitlines()[1:] == [
        "tau\t0.07",
        *("A\t" + row for row in oracle.row_texts(values[:8])),
        "c\t" + oracle.row_texts(values[8:9])[0],
    ]


def test_params_round_trip_is_byte_exact():
    params = PromptParams(
        weight=np.array([[0.1, 1e-17], [-0.0, 1.0 / 3.0]]),
        bias=np.array([2.0**-52, -1.5]),
        tau=0.07,
    )
    text = write_params(params)
    assert text == (
        "dim\t2\n"
        "tau\t0.07\n"
        "A\t0.1\t1e-17\n"
        "A\t-0.0\t0.3333333333333333\n"
        "c\t2.220446049250313e-16\t-1.5\n"
    )
    loaded = load_params(text)
    np.testing.assert_array_equal(loaded.weight, params.weight)
    np.testing.assert_array_equal(loaded.bias, params.bias)
    assert loaded.tau == params.tau
    assert write_params(loaded) == text


def test_params_loader_validation():
    good = write_params(PromptParams.identity(2, 0.5))
    with pytest.raises(FormatError, match="missing 'dim'"):
        load_params("")
    with pytest.raises(FormatError, match="bad dimension"):
        load_params(good.replace("dim\t2", "dim\t0"))
    with pytest.raises(FormatError, match="expected 'tau'"):
        load_params(good.replace("tau\t0.5\n", ""))
    with pytest.raises(FormatError, match="expected 2 values"):
        load_params(good.replace("A\t1.0\t0.0", "A\t1.0", 1))
    with pytest.raises(FormatError, match="trailing"):
        load_params(good + "c\t0.0\t0.0\n")
    with pytest.raises(FormatError, match="missing 'c'"):
        load_params(good.replace("c\t0.0\t0.0\n", ""))
    with pytest.raises(FormatError, match="tau must be positive"):
        load_params(good.replace("tau\t0.5", "tau\t-1.0"))
    with pytest.raises(FormatError, match="non-finite"):
        load_params(good.replace("tau\t0.5", "tau\tnan"))


@pytest.mark.parametrize("brk", ODD_BREAKS)
def test_loaders_name_the_physical_line_after_an_odd_break(brk):
    # Only \n, \r\n and \r end a record: the comment on line 2 stays one
    # line, and the fault on line 4 is reported as line 4.
    tree = demo_tree()
    rows = ["n1\t1.0", "n2\t1.0", "n3\tx", "n4\t1.0", "n5\t1.0", "n6\t1.0"]
    emb = "\n".join(["#dim 1", f"# note{brk}n9\t1.0", *rows]) + "\n"
    with pytest.raises(FormatError, match="embedding table line 5: bad number 'x'"):
        load_embeddings(emb, tree)
    samples = "#dim 1\n" + f"# note{brk}s9\tn3\t1.0\n" + "s1\tn3\t1.0\ns2\tn3\tx\n"
    with pytest.raises(FormatError, match="sample file line 4: bad number 'x'"):
        load_samples(samples, tree)
    params = f"dim\t1\n# note{brk}c\t1.0\ntau\t0.5\nA\tx\nc\t0.0\n"
    with pytest.raises(FormatError, match="params file line 4: bad number 'x'"):
        load_params(params)


def load_and_collect(load, doc: bytes) -> tuple[object, bool]:
    """``load``'s result on a binary file of ``doc``, or its error's message,
    and whether the file was closed once the load's frames were collected."""
    file = io.BytesIO(doc)
    try:
        result = load(file)
    except ValueError as exc:
        result = str(exc)
    gc.collect()
    return result, file.closed


def test_loaders_leave_the_callers_file_open():
    # The line reader wraps the file in a text stream, which would close the
    # file when collected; it is detached whether the load reads to the end
    # or stops at a fault on a middle line.
    tree = demo_tree()
    samples = SampleSet(
        ids=("s0", "s1", "s2"),
        leaf_labels=np.array([tree.name_index[n] for n in ("n4", "n5", "n6")]),
        features=np.ones((3, 2)),
    )
    table = random_table(tree, 2, seed=0)
    cases = (
        (load_tree, DEMO_DOC),
        (lambda file: load_embeddings(file, tree), write_embeddings(table, tree)),
        (lambda file: load_samples(file, tree), write_samples(samples, tree, 2)),
        (load_params, write_params(PromptParams.identity(2, 0.5))),
    )
    for load, text in cases:
        result, closed = load_and_collect(load, text.encode())
        assert not isinstance(result, str) and not closed
        lines = text.splitlines()
        lines[2] = "x"
        result, closed = load_and_collect(load, "\n".join(lines).encode() + b"\n")
        assert "line 3: " in result and not closed


def report_fixture() -> MetricsReport:
    cuts = (
        CutResult(beta=0.1, size=4, accuracy=0.8),
        CutResult(beta=0.1, size=3, accuracy=0.6),
        CutResult(beta=0.5, size=2, accuracy=0.55),
    )
    return MetricsReport(
        leaf_acc=0.75,
        hca=0.5,
        mta=0.65,
        betas=(0.1, 0.5),
        mta_per_beta=(0.7, 0.55),
        cuts_used=((4, 3), (2,)),
        cuts=cuts,
        seed=3,
        cuts_per_beta=2,
    )


def test_write_report_layout():
    assert write_report(report_fixture()) == (
        "# seed 3\n"
        "leaf_acc\t0.75\n"
        "hca\t0.5\n"
        "mta\t0.65\n"
        "mta@0.1\t0.7\n"
        "mta@0.5\t0.55\n"
        "T\t2\n"
        "seed\t3\n"
    )


def test_write_cut_details_layout():
    assert write_cut_details(report_fixture()) == (
        "# seed 3\n"
        "# beta\tsize\taccuracy\n"
        "0.1\t4\t0.8\n"
        "0.1\t3\t0.6\n"
        "0.5\t2\t0.55\n"
    )


def test_write_train_log_layout():
    log = TrainLog(
        records=(
            IterationRecord(iteration=0, lr=0.02, cut_size=4, dtl=0.5, ncl=0.25, total=0.625),
            IterationRecord(iteration=1, lr=0.01, cut_size=2, dtl=0.4, ncl=0.2, total=0.5),
        ),
        params_digest="abc123",
        seed=7,
    )
    assert write_train_log(log) == (
        "# seed 7\n"
        "# params_digest abc123\n"
        "# iteration\tlr\tcut_size\tdtl\tncl\ttotal\n"
        "0\t0.02\t4\t0.5\t0.25\t0.625\n"
        "1\t0.01\t2\t0.4\t0.2\t0.5\n"
    )
    warned = write_train_log(TrainLog(log.records, log.params_digest, log.seed, "loss rose"))
    assert warned.splitlines()[:4] == [
        "# seed 7", "# params_digest abc123", "# warning loss rose",
        "# iteration\tlr\tcut_size\tdtl\tncl\ttotal",
    ]

"""Tree parsing, ancestor walks, vocabularies and treecut validation."""
from __future__ import annotations

import io
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiertune import LabelSet, Rng64, TreeFormatError, load_tree
from hiertune.fileio import write_tree

from helpers import DEMO_DOC, ODD_BREAKS, demo_tree, names_of, random_tree


def test_demo_tree_structure():
    tree = demo_tree()
    assert tree.n_nodes == 7
    assert tree.names == ("n0", "n1", "n2", "n3", "n4", "n5", "n6")
    assert tree.root == 0
    assert names_of(tree, tree.leaf_nodes) == ("n3", "n4", "n5", "n6")
    assert names_of(tree, tree.internal_nodes) == ("n0", "n1", "n2")
    assert names_of(tree, tree.children[0]) == ("n1", "n6")
    assert names_of(tree, tree.children[1]) == ("n2", "n3")
    assert names_of(tree, tree.children[2]) == ("n4", "n5")
    assert tree.depths == (0, 1, 2, 2, 3, 3, 1)


def test_leaves_and_internal_partition_nodes():
    tree = demo_tree()
    assert set(tree.leaf_nodes) | set(tree.internal_nodes) == set(range(7))
    assert set(tree.leaf_nodes) & set(tree.internal_nodes) == set()
    for node in range(tree.n_nodes):
        assert tree.is_leaf(node) == (len(tree.children[node]) == 0)


def test_two_node_chain():
    tree = load_tree("root\t-\na\troot\n")
    assert names_of(tree, tree.leaf_nodes) == ("a",)
    assert names_of(tree, tree.internal_nodes) == ("root",)


def test_index_lookup():
    tree = demo_tree()
    assert tree.name_index["n4"] == 4
    assert "nope" not in tree.name_index


def test_comments_and_blank_lines_skipped():
    doc = "# taxonomy\n\nn0\t-\n# inner\nn1\tn0\n\n"
    tree = load_tree(doc)
    assert tree.n_nodes == 2


def test_bad_byte_is_named_at_its_byte_offset():
    # Offsets count bytes, not characters: each CJK character before the bad
    # byte takes three, on an earlier line or on the bad byte's own. The
    # message names the offset, and no byte of the file but the bad one.
    name = "\u540d\u5b57".encode()
    for head, bad, tail, reason in (
        (b"n0\t-\n" + name + b"\tn0\nn2\tn0", b"\xff", b"\n", "invalid start byte"),
        (b"n0\t-\n" + name + b"\tn0\n" + name + b"2\tn0", b"\xe2\x82", b"\n",
         "invalid continuation byte"),
        (b"#\n", b"\xff", b"abcdef\tn0\n", "invalid start byte"),
    ):
        with pytest.raises(UnicodeDecodeError) as info:
            load_tree(io.BytesIO(head + bad + tail))
        at = len(head)
        assert (info.value.reason, info.value.start, info.value.end) == (reason, at, at + len(bad))
        assert str(info.value).endswith(f"bytes in position {at}-{at + len(bad) - 1}: {reason}")
    # Text is read as the file of its UTF-8 bytes: a lone surrogate is a bad byte.
    with pytest.raises(UnicodeDecodeError) as info:
        load_tree("n0\t-\n" + "\u540d\udcff\tn0\n")
    assert (info.value.reason, info.value.start) == ("invalid continuation byte", 8)


@pytest.mark.parametrize(
    "doc",
    [
        "root\t-\n",  # root-only tree has no leaves
        "",  # empty document
        "a\tb\n",  # no root marker
        "n0\t-\nn1\t-\n",  # second root
        "n0\t-\nn0\tn0\n",  # duplicate name
        "n0\t-\nn1\tn2\nn2\tn0\n",  # parent declared after child
        "n1\tn0\nn0\t-\n",  # root not first
        "n0\t-\nn1 n0\n",  # missing tab separator
        "n0\t-\nn1\tn0\textra\n",  # too many fields
    ],
)
def test_malformed_documents_rejected(doc):
    with pytest.raises(TreeFormatError):
        load_tree(doc)


@pytest.mark.parametrize("brk", ODD_BREAKS)
def test_fault_after_an_odd_break_names_its_physical_line(brk):
    # Only \n, \r\n and \r end a record: "more" stays part of the comment.
    doc = f"n0\t-\n# note{brk}more\nn1\tn0\nn2 n0\n"
    with pytest.raises(TreeFormatError, match=r"^line 4: expected 'name<TAB>parent'"):
        load_tree(doc)


def splice(draw, lines: list[str]) -> None:
    """Splice one defect into the records of a tree document."""
    names = [ln.split("\t")[0] for ln in lines if "\t" in ln]
    i = draw(st.integers(0, len(lines) - 1))
    name, _, parent = lines[i].partition("\t")
    defect = draw(st.sampled_from(
        ("tab", "dash", "duplicate", "empty", "forward", "root", "comment", "break")
    ))
    if defect == "tab":
        lines[i] = draw(st.sampled_from((f"{name}\t\t{parent}", f"{lines[i]}\t", name)))
    elif defect == "dash":
        lines[i] = f"-\t{parent}"
    elif defect == "duplicate":
        lines[i] = f"{draw(st.sampled_from(names))}\t{parent}"
    elif defect == "empty":
        lines[i] = f"{draw(st.sampled_from(('', ' ')))}\t{parent}"
    elif defect == "forward":
        lines[i] = f"{name}\t{draw(st.sampled_from(names[i:] + ['ghost']))}"
    elif defect == "root":
        lines.insert(i, f"top{i}\t-")
    elif defect == "comment":
        lines.insert(i, draw(st.sampled_from(("# c", "  # c", "", "  "))))
    else:
        at = draw(st.integers(0, len(lines[i])))
        lines[i] = lines[i][:at] + draw(st.sampled_from(ODD_BREAKS)) + lines[i][at:]


@settings(max_examples=300)
@given(st.integers(0, 2**32 - 1), st.data())
def test_spliced_tree_documents_load_or_raise_tree_format_error(seed, data):
    lines = write_tree(random_tree(Rng64(seed), max_internal=4, max_nodes=10)).splitlines()
    for _ in range(data.draw(st.integers(1, 4))):
        splice(data.draw, lines)
    end = data.draw(st.sampled_from(("\n", "\r\n", "\r")))
    try:
        tree = load_tree(end.join(lines) + end)
    except TreeFormatError as exc:
        numbered = re.match(r"line (\d+): ", str(exc))
        assert numbered is None or 1 <= int(numbered.group(1)) <= len(lines)
    else:
        assert tree.parents[tree.root] is None
        assert all(p is None or p < v for v, p in enumerate(tree.parents))


def test_ancestors_demo_paths():
    tree = demo_tree()
    assert names_of(tree, tree.ancestors(4)) == ("n2", "n1", "n0")
    assert tree.ancestors(0) == ()
    assert names_of(tree, tree.ancestors(6)) == ("n0",)


def test_node_index_outside_the_tree_is_refused():
    tree = demo_tree()
    with pytest.raises(ValueError, match=f"node index {tree.n_nodes} out of range"):
        tree.ancestors(tree.n_nodes)
    with pytest.raises(ValueError, match="node index -1 out of range"):
        tree.is_leaf(-1)


def test_ancestors_walk_decreasing_depth():
    rng = Rng64(2024)
    for _ in range(25):
        tree = random_tree(rng)
        for node in range(tree.n_nodes):
            chain = tree.ancestors(node)
            assert len(chain) == tree.depths[node]
            walk = (node,) + chain
            for above, below in zip(walk[1:], walk[:-1]):
                assert tree.parents[below] == above
            assert walk[-1] == tree.root or node == tree.root


def test_target_in_demo_cases():
    tree = demo_tree()
    cut = tree.treecut_label_set((1, 6))
    assert tree.target_in(4, cut) == 1
    children_of_n1 = LabelSet(tree.children[1])
    assert tree.target_in(4, children_of_n1) == 2
    assert tree.target_in(6, children_of_n1) is None


def test_target_in_rejects_a_non_leaf():
    tree = demo_tree()
    with pytest.raises(ValueError, match="node 'n2' is not a leaf"):
        tree.target_in(tree.name_index["n2"], tree.treecut_label_set((1, 6)))


def test_target_in_rejects_overlapping_members():
    tree = demo_tree()
    with pytest.raises(ValueError, match="not an antichain"):
        tree.target_in(4, LabelSet((1, 2)))


def test_leaf_label_set():
    # The leaf vocabulary is the rate-0 treecut.
    tree = demo_tree()
    labels = tree.treecut_label_set(tree.leaf_nodes)
    assert names_of(tree, labels.members) == ("n3", "n4", "n5", "n6")
    assert len(labels) == 4


def test_node_label_set():
    # Each internal node's child vocabulary is one slice of layout columns.
    tree = demo_tree()
    lay = tree.layout
    groups = [
        names_of(tree, tuple(lay.nodes[start : start + size]))
        for start, size in zip(lay.starts, lay.sizes)
    ]
    assert groups == [("n1", "n6"), ("n2", "n3"), ("n4", "n5")]
    assert names_of(tree, tree.internal_nodes) == ("n0", "n1", "n2")
    assert list(lay.column[lay.nodes]) == list(range(6))
    assert lay.column[tree.root] == -1


def test_treecut_label_set_validation():
    tree = demo_tree()
    cut = tree.treecut_label_set((6, 1))
    assert isinstance(cut, LabelSet)
    assert cut.members == (1, 6)  # canonical ascending order
    with pytest.raises(ValueError):
        tree.treecut_label_set((0, 6))  # root forbidden
    with pytest.raises(ValueError):
        tree.treecut_label_set((1, 2, 6))  # n2 under n1: not an antichain
    with pytest.raises(ValueError):
        tree.treecut_label_set((1,))  # n6 uncovered
    with pytest.raises(ValueError):
        tree.treecut_label_set((1, 1, 6))  # duplicate member


def test_node_label_set_targets_stay_in_children():
    rng = Rng64(99)
    for _ in range(25):
        tree = random_tree(rng)
        for node in tree.internal_nodes:
            labels = LabelSet(tree.children[node])
            subtree_leaves = [
                leaf
                for leaf in tree.leaf_nodes
                if node in tree.ancestors(leaf) or leaf == node
            ]
            for leaf in subtree_leaves:
                target = tree.target_in(leaf, labels)
                assert target in labels.members
                assert target == leaf or target in tree.ancestors(leaf)
            for leaf in tree.leaf_nodes:
                if leaf not in subtree_leaves:
                    assert tree.target_in(leaf, labels) is None


def test_loaded_tree_is_immutable():
    tree = demo_tree()
    with pytest.raises(AttributeError):
        tree.root = 1
    assert isinstance(tree.names, tuple)
    assert isinstance(tree.children[0], tuple)

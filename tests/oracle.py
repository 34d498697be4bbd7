"""Reference implementations the vectorised code is tested against.

These are the per-vocabulary, per-node and per-sample versions of the
losses, the metrics and the treecut check, kept as they were before the
library moved to one score matrix per batch. They are slow and simple on
purpose: each loops the way the definitions read. The treecut sampler is
kept as it was before its masks became boolean slices: an integer bundle
with a {-1, 0, 1} relation matrix, flags repaired by comparing kept
ancestor counts, and a flag type that records whether the repair ran. The
file loaders are kept as they were before rows of numbers were parsed in
one call per row: every token goes through its own float() and
finiteness check. The row writer is kept as it was before orjson wrote
rows a block at a time: one float.__repr__ per value. The per-vocabulary
classifier (cosine scores, posterior and predict over one label set), the
name-keyed table assembly and the leaf and children-of-node label sets are
kept as they were before the library scored every vocabulary as columns
of one matrix. Nothing in the package imports this module.
"""
from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from hiertune.classifier import EmbeddingTable, PromptParams, SampleSet, unit_rows
from hiertune.fileio import FormatError
from hiertune.metrics import CutResult
from hiertune.objectives import LossValue
from hiertune.rng import Rng64, derive_seed
from hiertune.taxonomy import LabelSet, TaxonomyTree


# -------------------------------------------------------------- label sets
#
# The leaf and children-of-node vocabularies were LabelSet factories on
# the tree, and each LabelSet carried a kind tag. The tags are gone: a
# vocabulary is its ascending members, and only a treecut is validated.

def leaf_label_set(tree: TaxonomyTree) -> LabelSet:
    return LabelSet(tree.leaf_nodes)


def node_label_set(tree: TaxonomyTree, node: int) -> LabelSet:
    """The children of ``node`` as a vocabulary."""
    tree._check_index(node)
    if not tree.children[node]:
        raise ValueError(f"node {tree.names[node]!r} is a leaf and has no label set")
    return LabelSet(tuple(sorted(tree.children[node])))


def treecut_label_set(tree: TaxonomyTree, members: tuple[int, ...] | list[int]) -> LabelSet:
    """Validate ``members`` as a treecut fringe by walking ancestor chains."""
    unique = sorted(set(members))
    if len(unique) != len(members):
        raise ValueError("treecut members must be distinct")
    member_set = set(unique)
    if tree.root in member_set:
        raise ValueError("treecut must not contain the root")
    for m in unique:
        tree._check_index(m)
        if member_set.intersection(tree.ancestors(m)):
            raise ValueError(f"treecut is not an antichain at {tree.names[m]!r}")
    for leaf in tree.leaf_nodes:
        covers = sum(1 for n in (leaf, *tree.ancestors(leaf)) if n in member_set)
        if covers != 1:
            raise ValueError(
                f"treecut does not cover leaf {tree.names[leaf]!r} exactly once"
            )
    return LabelSet(tuple(unique))


# ---------------------------------------------------------------- treecut

DISTINCT_DRAW_FACTOR = 100


@dataclass(frozen=True)
class MatrixBundle:
    """Dense integer relation matrices of one tree.

    dependency        K x K; 1 where the column node is an ancestor-or-self
                      of the row node, limited to internal nodes.
    dependency_counts row sums of ``dependency`` (ancestor chain lengths).
    relation          K x L in {-1, 0, 1}: 1 where the label is an
                      ancestor-or-self of the internal node, 0 where it is
                      a strict descendant, -1 where the two are unrelated.
    ancestor_mask     relation clamped to {0, 1}: the 1-entries only.
    descendant_mask   1 where relation is 0: the strict-descendant pairs.
    """

    internal_nodes: tuple[int, ...]
    labels: tuple[int, ...]
    dependency: np.ndarray
    dependency_counts: np.ndarray
    relation: np.ndarray
    ancestor_mask: np.ndarray
    descendant_mask: np.ndarray

    @property
    def n_internal(self) -> int:
        return len(self.internal_nodes)


@dataclass(frozen=True)
class KeepFlags:
    """Keep flags over the internal nodes; ``corrected`` once repaired."""

    kept: np.ndarray
    corrected: bool


def build_matrices(tree: TaxonomyTree) -> MatrixBundle:
    """The relation matrices, built from ancestor chains."""
    n = tree.n_nodes
    if len(tree.leaf_nodes) < 2:
        raise ValueError("tree must have at least two leaves")
    anc = np.zeros((n, n), dtype=bool)
    for v in range(n):
        anc[v, v] = True
        anc[v, list(tree.ancestors(v))] = True
    internal = np.asarray(tree.internal_nodes, dtype=np.int64)
    labels = np.arange(1, n, dtype=np.int64)
    dependency = anc[np.ix_(internal, internal)].astype(np.int64)
    up = anc[np.ix_(internal, labels)]
    down = anc[np.ix_(labels, internal)].T
    relation = np.where(up, 1, np.where(down, 0, -1)).astype(np.int64)
    return MatrixBundle(
        internal_nodes=tuple(int(i) for i in internal),
        labels=tuple(int(j) for j in labels),
        dependency=dependency,
        dependency_counts=dependency.sum(axis=1),
        relation=relation,
        ancestor_mask=np.maximum(relation, 0),
        descendant_mask=(1 - np.abs(relation)),
    )


def correct_flags(kept: np.ndarray, bundle: MatrixBundle) -> KeepFlags:
    """Zero flags whose kept-ancestor count falls short of the chain length."""
    kept = np.asarray(kept, dtype=np.int64)
    if kept.shape != (bundle.n_internal,):
        raise ValueError(f"expected {bundle.n_internal} flags, got shape {kept.shape}")
    if not np.isin(kept, (0, 1)).all():
        raise ValueError("flags must be 0 or 1")
    if kept[0] != 1:
        raise ValueError("root flag must be 1")
    repaired = kept * (bundle.dependency @ kept == bundle.dependency_counts)
    return KeepFlags(kept=repaired.astype(np.int64), corrected=True)


def blocked_mask(flags: KeepFlags, bundle: MatrixBundle) -> np.ndarray:
    """Per-label blocked count, as two integer mat-vecs."""
    if not flags.corrected:
        raise ValueError("flags must be chain-corrected first")
    kept = flags.kept
    return bundle.ancestor_mask.T @ kept + bundle.descendant_mask.T @ (1 - kept)


def cut_from_flags(tree: TaxonomyTree, bundle: MatrixBundle, flags: KeepFlags) -> LabelSet:
    blocked = blocked_mask(flags, bundle)
    members = tuple(int(bundle.labels[j]) for j in np.flatnonzero(blocked == 0))
    return treecut_label_set(tree, members)


def sample_treecut(
    tree: TaxonomyTree, bundle: MatrixBundle, beta: float, rng: Rng64
) -> LabelSet:
    """One cut: one uniform draw per non-root internal node, in row order."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must be in [0, 1], got {beta}")
    kept = np.ones(bundle.n_internal, dtype=np.int64)
    for i in range(1, bundle.n_internal):
        kept[i] = 1 if rng.next_unit() >= beta else 0
    return cut_from_flags(tree, bundle, correct_flags(kept, bundle))


def sample_distinct(
    tree: TaxonomyTree, bundle: MatrixBundle, beta: float, count: int, rng: Rng64
) -> tuple[LabelSet, ...]:
    """Distinct cuts in first-draw order; always up to ``100 * count`` draws."""
    if count <= 0:
        raise ValueError("count must be positive")
    seen: dict[tuple[int, ...], LabelSet] = {}
    for _ in range(DISTINCT_DRAW_FACTOR * count):
        cut = sample_treecut(tree, bundle, beta, rng)
        if cut.members not in seen:
            seen[cut.members] = cut
            if len(seen) == count:
                break
    return tuple(seen.values())


# ------------------------------------------------------------- classifier

def from_names(tree: TaxonomyTree, dim: int, mapping: dict[str, np.ndarray]) -> EmbeddingTable:
    """Assemble a table from name-keyed vectors, one per non-root node."""
    wanted = {tree.names[i] for i in range(tree.n_nodes) if i != tree.root}
    missing = wanted - set(mapping)
    extra = set(mapping) - wanted
    if missing:
        raise ValueError(f"missing embeddings for: {', '.join(sorted(missing))}")
    if extra:
        raise ValueError(f"embeddings for unknown nodes: {', '.join(sorted(extra))}")
    vectors = np.zeros((tree.n_nodes, dim), dtype=np.float64)
    for name, vec in mapping.items():
        row = np.asarray(vec, dtype=np.float64)
        if row.shape != (dim,):
            raise ValueError(f"embedding for {name!r} has shape {row.shape}, want ({dim},)")
        if not np.isfinite(row).all():
            raise ValueError(f"embedding for {name!r} is not finite")
        if not row.any():
            raise ValueError(f"embedding for {name!r} is all zeros")
        vectors[tree.index(name)] = row
    return EmbeddingTable(dim=dim, vectors=vectors)


def cosine_scores(
    params: PromptParams, table: EmbeddingTable, labels: LabelSet, features: np.ndarray
) -> np.ndarray:
    """Cosine similarity of each feature row against each label weight."""
    if table.dim != params.dim:
        raise ValueError("embedding and parameter dimensions differ")
    weights = table.rows(labels.members) @ params.weight.T + params.bias
    fhat, _ = unit_rows(np.asarray(features, dtype=np.float64), "features")
    what, _ = unit_rows(weights, "label weights")
    return fhat @ what.T


def posterior(
    params: PromptParams, table: EmbeddingTable, labels: LabelSet, features: np.ndarray
) -> np.ndarray:
    """Softmax over cosine scores at temperature tau, one row per sample."""
    if len(labels) < 2:
        raise ValueError("posterior needs at least two labels")
    z = cosine_scores(params, table, labels, features) / params.tau
    z -= z.max(axis=1, keepdims=True)
    ez = np.exp(z)
    return ez / ez.sum(axis=1, keepdims=True)


def predict(
    params: PromptParams, table: EmbeddingTable, labels: LabelSet, features: np.ndarray
) -> np.ndarray:
    """Highest-cosine label per sample; members ascend, so ties go to the smallest."""
    if len(labels) < 1:
        raise ValueError("predict needs at least one label")
    scores = cosine_scores(params, table, labels, features)
    return np.asarray(labels.members, dtype=np.int64)[np.argmax(scores, axis=1)]


# ------------------------------------------------------------- objectives

def _ce_core(
    tree: TaxonomyTree,
    params: PromptParams,
    table: EmbeddingTable,
    labels: LabelSet,
    batch: SampleSet,
) -> tuple[LossValue, np.ndarray]:
    """Mean cross-entropy of ``batch`` against ``labels``, with gradients.

    Samples whose leaf has no label on its root path are skipped; the
    returned mask marks the contributors. The mean runs over contributors
    only.
    """
    if len(labels) < 2:
        raise ValueError("cross-entropy needs at least two labels")
    member_pos = {m: k for k, m in enumerate(labels.members)}
    targets = np.full(len(batch), -1, dtype=np.int64)
    for i, leaf in enumerate(batch.leaf_labels):
        t = tree.target_in(int(leaf), labels)
        if t is not None:
            targets[i] = member_pos[t]
    mask = targets >= 0
    n_contrib = int(mask.sum())
    if n_contrib == 0:
        return LossValue.zero(params.dim), mask

    emb = table.rows(labels.members)
    weights = emb @ params.weight.T + params.bias
    what, wnorm = unit_rows(weights, "label weights")
    vhat, _ = unit_rows(np.asarray(batch.features[mask], dtype=np.float64), "features")
    cos = vhat @ what.T
    z = cos / params.tau
    shift = z - z.max(axis=1, keepdims=True)
    ez = np.exp(shift)
    sez = ez.sum(axis=1, keepdims=True)
    rows = np.arange(n_contrib)
    t = targets[mask]
    value = float(-(shift[rows, t] - np.log(sez[:, 0])).mean())

    # Backprop: softmax-minus-onehot at the cosine logits, then through
    # the weight normalization, then through w = A e + b.
    c = ez / sez
    c[rows, t] -= 1.0
    c /= params.tau * n_contrib
    colsum = (c * cos).sum(axis=0)
    d_weights = (c.T @ vhat - colsum[:, None] * what) / wnorm[:, None]
    return (
        LossValue(value, d_weights.T @ emb, d_weights.sum(axis=0), n_contrib),
        mask,
    )


def cross_entropy_loss(
    tree: TaxonomyTree,
    params: PromptParams,
    table: EmbeddingTable,
    labels: LabelSet,
    batch: SampleSet,
) -> LossValue:
    """Mean cross-entropy of a batch against one label set."""
    if len(batch) == 0:
        raise ValueError("batch is empty")
    loss, _ = _ce_core(tree, params, table, labels, batch)
    return loss


def node_centric_loss(
    tree: TaxonomyTree,
    params: PromptParams,
    table: EmbeddingTable,
    batch: SampleSet,
) -> LossValue:
    """Average of the per-node child-set cross-entropies."""
    if len(batch) == 0:
        raise ValueError("batch is empty")
    n_internal = len(tree.internal_nodes)
    dim = params.dim
    value = 0.0
    grad_w = np.zeros((dim, dim))
    grad_b = np.zeros(dim)
    union = np.zeros(len(batch), dtype=bool)
    for node in tree.internal_nodes:
        if len(tree.children[node]) < 2:
            continue
        part, mask = _ce_core(tree, params, table, node_label_set(tree, node), batch)
        value += part.value
        grad_w += part.grad_weight
        grad_b += part.grad_bias
        union |= mask
    return LossValue(
        value / n_internal,
        grad_w / n_internal,
        grad_b / n_internal,
        int(union.sum()),
    )


def treecut_loss(
    tree: TaxonomyTree,
    params: PromptParams,
    table: EmbeddingTable,
    cut: LabelSet,
    batch: SampleSet,
) -> LossValue:
    """Cross-entropy of a batch against one treecut fringe."""
    if len(batch) == 0:
        raise ValueError("batch is empty")
    treecut_label_set(tree, cut.members)
    if len(cut) == 1:
        return LossValue.zero(params.dim, n_contributing=len(batch))
    loss, _ = _ce_core(tree, params, table, cut, batch)
    return loss


def total_loss(
    tree: TaxonomyTree,
    params: PromptParams,
    table: EmbeddingTable,
    cut: LabelSet,
    batch: SampleSet,
    lam: float,
) -> tuple[LossValue, LossValue, LossValue]:
    """Treecut loss plus ``lam`` times the node-centric loss."""
    if lam < 0:
        raise ValueError(f"lam must be non-negative, got {lam}")
    dtl = treecut_loss(tree, params, table, cut, batch)
    if lam == 0.0:
        return dtl, dtl, LossValue.zero(params.dim)
    ncl = node_centric_loss(tree, params, table, batch)
    total = LossValue(
        dtl.value + lam * ncl.value,
        dtl.grad_weight + lam * ncl.grad_weight,
        dtl.grad_bias + lam * ncl.grad_bias,
        dtl.n_contributing,
    )
    return total, dtl, ncl


# ---------------------------------------------------------------- metrics

def leaf_accuracy(
    tree: TaxonomyTree, params: PromptParams, table: EmbeddingTable, data: SampleSet
) -> float:
    """Fraction of samples whose leaf-vocabulary prediction is the true leaf."""
    pred = predict(params, table, leaf_label_set(tree), data.features)
    return float((pred == data.leaf_labels).mean())


def hca(
    tree: TaxonomyTree, params: PromptParams, table: EmbeddingTable, data: SampleSet
) -> float:
    """Fraction of samples correct at the leaf and at every branching ancestor."""
    ok = predict(params, table, leaf_label_set(tree), data.features) == data.leaf_labels
    node_pred: dict[int, np.ndarray] = {}
    for node in tree.internal_nodes:
        if len(tree.children[node]) >= 2:
            node_pred[node] = predict(
                params, table, node_label_set(tree, node), data.features
            )
    for i in range(len(data)):
        if not ok[i]:
            continue
        below = int(data.leaf_labels[i])
        for node in tree.ancestors(below):
            preds = node_pred.get(node)
            if preds is not None and int(preds[i]) != below:
                ok[i] = False
                break
            below = node
    return float(ok.mean())


def mta(
    tree: TaxonomyTree,
    params: PromptParams,
    table: EmbeddingTable,
    data: SampleSet,
    betas: tuple[float, ...],
    cuts_per_beta: int,
    seed: int,
) -> tuple[float, tuple[tuple[CutResult, ...], ...]]:
    """Mean accuracy over sampled treecut vocabularies, one target list per cut."""
    bundle = build_matrices(tree)
    groups = []
    for bi, beta in enumerate(betas):
        rng = Rng64(derive_seed(seed, bi + 1))
        group = []
        for cut in sample_distinct(tree, bundle, beta, cuts_per_beta, rng):
            targets = np.asarray(
                [tree.target_in(int(leaf), cut) for leaf in data.leaf_labels],
                dtype=np.int64,
            )
            pred = predict(params, table, cut, data.features)
            group.append(
                CutResult(
                    beta=float(beta),
                    size=len(cut),
                    accuracy=float((pred == targets).mean()),
                )
            )
        groups.append(tuple(group))
    pooled = float(np.mean([r.accuracy for group in groups for r in group]))
    return pooled, tuple(groups)


# ------------------------------------------------------------ file loaders
#
# Per-token loaders. The only change from the package's earlier code is
# the number syntax fixed together with the row parser: a value token must
# be ASCII (float() also reads other scripts' digits and spaces) and hold
# no whitespace (float() strips it), and is refused like a digit separator,
# ahead of any other bad token of its row, and a dimension must be ASCII
# digits (str.isdigit also takes superscripts).
# The embedding loader also names the line of an unknown name or an
# all-zero row, and raises FormatError for missing names, where it once
# left all three to EmbeddingTable.from_names and its plain ValueError.
# Records end only at the breaks universal-newline reading translates,
# where they once also ended at form feeds, \x85, \u2028 and the like.

def _lines(text: str) -> list[str]:
    return [ln[:-1] if ln.endswith("\n") else ln for ln in io.StringIO(text, newline=None)]


def _parse_float(token: str, lineno: int, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise FormatError(f"{what} line {lineno}: bad number {token!r}") from None
    if not np.isfinite(value):
        raise FormatError(f"{what} line {lineno}: non-finite number {token!r}")
    return value


def _floats(tokens: list[str], lineno: int, what: str) -> np.ndarray:
    for t in tokens:
        if "_" in t or not t.isascii() or any(c.isspace() for c in t):
            raise FormatError(f"{what} line {lineno}: bad number {t!r}")
    return np.asarray([_parse_float(t, lineno, what) for t in tokens], dtype=np.float64)


def _is_count(token: str) -> bool:
    return token.isascii() and token.isdigit()


def _split_dim_doc(text: str, what: str) -> tuple[int, list[tuple[int, str]]]:
    lines = _lines(text)
    if not lines or not lines[0].startswith("#dim"):
        raise FormatError(f"{what}: first line must be '#dim <d>'")
    parts = lines[0].split()
    if len(parts) != 2 or not _is_count(parts[1]) or int(parts[1]) < 1:
        raise FormatError(f"{what}: malformed dimension header {lines[0]!r}")
    dim = int(parts[1])
    rows = [
        (i, ln)
        for i, ln in enumerate(lines[1:], start=2)
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
    return dim, rows


def load_embeddings(text: str, tree: TaxonomyTree) -> EmbeddingTable:
    dim, rows = _split_dim_doc(text, "embedding table")
    mapping: dict[str, np.ndarray] = {}
    for lineno, line in rows:
        fields = line.split("\t")
        if len(fields) != dim + 1:
            raise FormatError(
                f"embedding table line {lineno}: expected name plus {dim} values"
            )
        name = fields[0].strip()
        if name in mapping:
            raise FormatError(f"embedding table line {lineno}: duplicate name {name!r}")
        if name not in tree.name_index or tree.index(name) == tree.root:
            raise FormatError(
                f"embedding table line {lineno}: embeddings for unknown nodes: {name}"
            )
        vec = _floats(fields[1:], lineno, "embedding table")
        if not vec.any():
            raise FormatError(
                f"embedding table line {lineno}: embedding for {name!r} is all zeros"
            )
        mapping[name] = vec
    missing = [
        tree.names[i] for i in range(tree.n_nodes)
        if i != tree.root and tree.names[i] not in mapping
    ]
    if missing:
        raise FormatError(f"embedding table: missing embeddings for: {', '.join(sorted(missing))}")
    return from_names(tree, dim, mapping)


def load_samples(text: str, tree: TaxonomyTree) -> SampleSet:
    dim, rows = _split_dim_doc(text, "sample file")
    ids: list[str] = []
    labels: list[int] = []
    feats: list[np.ndarray] = []
    seen: set[str] = set()
    for lineno, line in rows:
        fields = line.split("\t")
        if len(fields) != dim + 2:
            raise FormatError(
                f"sample file line {lineno}: expected id, leaf, and {dim} values"
            )
        sid, leaf_name = fields[0].strip(), fields[1].strip()
        if sid in seen:
            raise FormatError(f"sample file line {lineno}: duplicate sample id {sid!r}")
        seen.add(sid)
        if leaf_name not in tree.name_index:
            raise FormatError(f"sample file line {lineno}: unknown leaf {leaf_name!r}")
        leaf = tree.name_index[leaf_name]
        if not tree.is_leaf(leaf):
            raise FormatError(f"sample file line {lineno}: {leaf_name!r} is not a leaf")
        vec = _floats(fields[2:], lineno, "sample file")
        if not vec.any():
            raise FormatError(f"sample file line {lineno}: all-zero feature")
        ids.append(sid)
        labels.append(leaf)
        feats.append(vec)
    features = (
        np.stack(feats) if feats else np.zeros((0, dim), dtype=np.float64)
    )
    return SampleSet(
        ids=tuple(ids),
        leaf_labels=np.asarray(labels, dtype=np.int64),
        features=features,
    )


def load_params(text: str) -> PromptParams:
    rows = [
        (i, ln)
        for i, ln in enumerate(_lines(text), start=1)
        if ln.strip() and not ln.lstrip().startswith("#")
    ]

    def take(expected: str) -> tuple[int, list[str]]:
        if not rows:
            raise FormatError(f"params file: missing {expected!r} record")
        lineno, line = rows.pop(0)
        fields = line.split("\t")
        if fields[0] != expected:
            raise FormatError(
                f"params file line {lineno}: expected {expected!r}, got {fields[0]!r}"
            )
        return lineno, fields[1:]

    lineno, rest = take("dim")
    if len(rest) != 1 or not _is_count(rest[0]) or int(rest[0]) < 1:
        raise FormatError(f"params file line {lineno}: bad dimension")
    dim = int(rest[0])
    lineno, rest = take("tau")
    if len(rest) != 1:
        raise FormatError(f"params file line {lineno}: bad tau record")
    tau = float(_floats(rest, lineno, "params file")[0])
    weight = []  # one row per record read, so a huge dim fails on its first row
    for _ in range(dim):
        lineno, rest = take("A")
        if len(rest) != dim:
            raise FormatError(f"params file line {lineno}: expected {dim} values")
        weight.append(_floats(rest, lineno, "params file"))
    lineno, rest = take("c")
    if len(rest) != dim:
        raise FormatError(f"params file line {lineno}: expected {dim} values")
    bias = _floats(rest, lineno, "params file")
    if rows:
        raise FormatError(f"params file line {rows[0][0]}: unexpected trailing record")
    try:
        return PromptParams(weight=np.array(weight), bias=bias, tau=tau)
    except ValueError as exc:
        raise FormatError(f"params file: {exc}") from None


# ------------------------------------------------------------- row writer
#
# One row at a time, one float.__repr__ per value, as the writers formatted
# rows of numbers before orjson formatted them a block at a time.

def row_texts(matrix: np.ndarray) -> list[str]:
    rows = np.asarray(matrix, dtype=np.float64).tolist()
    return ["\t".join(map(float.__repr__, row)) for row in rows]

"""Text formats for every artifact the tool reads or writes.

All files are UTF-8, tab-separated, with `#` comment lines. Floats are
serialized with repr, the shortest digits that parse back to the same
binary64 value, so write-load-write is a fixpoint and equal values always
produce equal bytes. Loaders validate eagerly and raise FormatError with
the offending line number.

Rows of numbers are parsed one row at a time: one ``map(float, ...)`` call
per row, written straight into a preallocated matrix. Only a row that
fails goes through the per-token parser, which names the first bad token.
They are written a block of rows at a time by orjson, whose digits are
repr's; only the few values whose layout differs are rendered one by one.
"""
from __future__ import annotations

from collections.abc import Iterator

import numpy as np
import orjson

from .classifier import EmbeddingTable, PromptParams, SampleSet
from .metrics import MetricsReport
from .taxonomy import TaxonomyTree, _split_lines
from .trainer import TrainLog


class FormatError(ValueError):
    """A document does not match its declared format."""


def format_float(x: float) -> str:
    """Shortest decimal string that round-trips to the same float64."""
    return repr(float(x))


# Rows formatted per orjson call. A block's numbers are held a few times
# over while it is formatted (as Python floats, orjson's bytes, text and
# row strings), so this, not the matrix size, sets the writers' extra
# memory. At dim 260, gen-synth's peak resident memory was about 1.5 MB
# above the per-value writer's with 64 rows and 6.5 MB with 256, at the
# same speed.
WRITE_BLOCK = 64


def _row_texts(matrix: np.ndarray) -> Iterator[str]:
    """Each row of ``matrix`` as TAB-separated ``format_float`` strings.

    orjson writes a float with Ryu's shortest round-trip digits, the digits
    repr gives, and lays them out as repr does for 0 and for 1e-4 <= |x| <
    1e16. Every other value (exponent form, subnormals, and nan / inf,
    which orjson writes as ``null``) is rendered again by ``format_float``,
    so each token is byte for byte ``format_float``'s.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    for start in range(0, len(matrix), WRITE_BLOCK):
        block = matrix[start : start + WRITE_BLOCK]
        rows = orjson.dumps(block.tolist()).decode()[2:-2].replace(",", "\t").split("]\t[")
        size = np.abs(block)
        with np.errstate(invalid="ignore"):
            other = ~((size >= 1e-4) & (size < 1e16)) & (block != 0)
        for r in np.flatnonzero(other.any(axis=1)).tolist():
            tokens = rows[r].split("\t")
            for c in np.flatnonzero(other[r]).tolist():
                tokens[c] = format_float(block[r, c])
            rows[r] = "\t".join(tokens)
        yield from rows


def _parse_float(token: str, lineno: int, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise FormatError(f"{what} line {lineno}: bad number {token!r}") from None
    if not np.isfinite(value):
        raise FormatError(f"{what} line {lineno}: non-finite number {token!r}")
    return value


def _parse_row(out: np.ndarray, tokens: list[str], lineno: int, what: str) -> None:
    """Parse one row of numbers into ``out``, a float64 vector of its length.

    Python's float() also reads digit separators (``1_0`` is 10.0) and
    non-ASCII digits and spaces (``١`` is 1.0), which no writer emits, so a
    row holding either is refused, naming its first such token; the check
    runs once per row. A row that does not parse, or parses to a
    non-finite value, is parsed again token by token to name the first bad
    token.
    """
    joined = "".join(tokens)
    if "_" in joined or not joined.isascii():
        bad = next(t for t in tokens if "_" in t or not t.isascii())
        raise FormatError(f"{what} line {lineno}: bad number {bad!r}")
    try:
        out[:] = list(map(float, tokens))
    except ValueError:
        pass
    else:
        if np.isfinite(out).all():
            return
    out[:] = [_parse_float(t, lineno, what) for t in tokens]


def _matrix_for(text: str, n_rows: int, dim: int) -> np.ndarray:
    """An uninitialised float64 matrix for up to ``n_rows`` rows of ``text``.

    The declared ``dim`` is not trusted with the allocation. Every row a
    loader accepts spans at least ``2 * dim`` characters (``dim`` tabs and
    ``dim`` digits), so a loader writes at most ``len(text) // (2 * dim) +
    1`` rows before it refuses a document whose ``dim`` overstates its
    rows, and no row can hold ``dim + 1`` fields when ``dim >= len(text)``.
    A valid document always gets all of its rows; a corrupt ``dim`` gets an
    error naming its line, not a request for more memory than the text
    could fill.
    """
    if dim >= len(text):
        return np.empty((0, dim), dtype=np.float64)
    return np.empty((min(n_rows, len(text) // (2 * dim) + 1), dim), dtype=np.float64)


def _is_count(token: str) -> bool:
    """True for a plain ASCII decimal integer (str.isdigit also takes ² and ٣)."""
    return token.isascii() and token.isdigit()


def _split_dim_doc(text: str, what: str) -> tuple[int, list[tuple[int, str]]]:
    """Parse the mandatory `#dim <d>` first line; return dim and data lines."""
    lines = _split_lines(text)
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


# ---------------------------------------------------------------- trees

def write_tree(tree: TaxonomyTree) -> str:
    lines = []
    for i, name in enumerate(tree.names):
        parent = tree.parents[i]
        lines.append(f"{name}\t{'-' if parent is None else tree.names[parent]}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------- embeddings

def load_embeddings(text: str, tree: TaxonomyTree) -> EmbeddingTable:
    dim, rows = _split_dim_doc(text, "embedding table")
    values = _matrix_for(text, len(rows), dim)
    nodes: dict[str, int] = {}
    for r, (lineno, line) in enumerate(rows):
        fields = line.split("\t")
        if len(fields) != dim + 1:
            raise FormatError(
                f"embedding table line {lineno}: expected name plus {dim} values"
            )
        name = fields[0].strip()
        if name in nodes:
            raise FormatError(f"embedding table line {lineno}: duplicate name {name!r}")
        node = tree.name_index.get(name, tree.root)
        if node == tree.root:
            raise FormatError(
                f"embedding table line {lineno}: embeddings for unknown nodes: {name}"
            )
        _parse_row(values[r], fields[1:], lineno, "embedding table")
        if not values[r].any():
            raise FormatError(
                f"embedding table line {lineno}: embedding for {name!r} is all zeros"
            )
        nodes[name] = node
    if len(nodes) < tree.n_nodes - 1:
        missing = sorted(set(tree.names) - set(nodes) - {tree.names[tree.root]})
        raise FormatError(f"embedding table: missing embeddings for: {', '.join(missing)}")
    vectors = np.zeros((tree.n_nodes, dim), dtype=np.float64)
    vectors[list(nodes.values())] = values[: len(nodes)]
    return EmbeddingTable(dim=dim, vectors=vectors)


def write_embeddings(table: EmbeddingTable, tree: TaxonomyTree) -> str:
    lines = [f"#dim {table.dim}"]
    for i, (name, row) in enumerate(zip(tree.names, _row_texts(table.vectors))):
        if i != tree.root:
            lines.append(f"{name}\t{row}")
    return "\n".join(lines) + "\n"


# -------------------------------------------------------------- samples

def load_samples(text: str, tree: TaxonomyTree) -> SampleSet:
    dim, rows = _split_dim_doc(text, "sample file")
    ids: list[str] = []
    labels: list[int] = []
    features = _matrix_for(text, len(rows), dim)
    seen: set[str] = set()
    for r, (lineno, line) in enumerate(rows):
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
        _parse_row(features[r], fields[2:], lineno, "sample file")
        if not features[r].any():
            raise FormatError(f"sample file line {lineno}: all-zero feature")
        ids.append(sid)
        labels.append(leaf)
    return SampleSet(
        ids=tuple(ids),
        leaf_labels=np.asarray(labels, dtype=np.int64),
        features=features,
    )


def write_samples(samples: SampleSet, tree: TaxonomyTree, dim: int) -> str:
    lines = [f"#dim {dim}"]
    lines.extend(
        f"{sid}\t{tree.names[leaf]}\t{row}"
        for sid, leaf, row in zip(
            samples.ids, samples.leaf_labels.tolist(), _row_texts(samples.features)
        )
    )
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------- params

def load_params(text: str) -> PromptParams:
    rows = [
        (i, ln)
        for i, ln in enumerate(_split_lines(text), start=1)
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
    tau = np.empty(1)
    _parse_row(tau, rest, lineno, "params file")
    weight = _matrix_for(text, dim, dim)
    for r in range(dim):
        lineno, rest = take("A")
        if len(rest) != dim:
            raise FormatError(f"params file line {lineno}: expected {dim} values")
        _parse_row(weight[r], rest, lineno, "params file")
    lineno, rest = take("c")
    if len(rest) != dim:
        raise FormatError(f"params file line {lineno}: expected {dim} values")
    bias = np.empty(dim)
    _parse_row(bias, rest, lineno, "params file")
    if rows:
        raise FormatError(f"params file line {rows[0][0]}: unexpected trailing record")
    try:
        return PromptParams(weight=weight, bias=bias, tau=float(tau[0]))
    except ValueError as exc:
        raise FormatError(f"params file: {exc}") from None


def write_params(params: PromptParams) -> str:
    (tau,) = _row_texts(np.array([[params.tau]]))
    (bias,) = _row_texts(params.bias[None, :])
    lines = [f"dim\t{params.dim}", f"tau\t{tau}"]
    lines.extend("A\t" + row for row in _row_texts(params.weight))
    lines.append("c\t" + bias)
    return "\n".join(lines) + "\n"


# -------------------------------------------------------------- reports

def write_report(report: MetricsReport) -> str:
    lines = [f"# seed {report.seed}"]
    lines.append(f"leaf_acc\t{format_float(report.leaf_acc)}")
    lines.append(f"hca\t{format_float(report.hca)}")
    lines.append(f"mta\t{format_float(report.mta)}")
    for beta, value in zip(report.betas, report.mta_per_beta):
        lines.append(f"mta@{format_float(beta)}\t{format_float(value)}")
    lines.append(f"T\t{report.cuts_per_beta}")
    lines.append(f"seed\t{report.seed}")
    return "\n".join(lines) + "\n"


def write_cut_details(report: MetricsReport) -> str:
    lines = [f"# seed {report.seed}", "# beta\tsize\taccuracy"]
    for cut in report.cuts:
        lines.append(
            f"{format_float(cut.beta)}\t{cut.size}\t{format_float(cut.accuracy)}"
        )
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------ train log

def write_train_log(log: TrainLog) -> str:
    lines = [
        f"# seed {log.seed}",
        f"# params_digest {log.params_digest}",
        "# iteration\tlr\tcut_size\tdtl\tncl\ttotal",
    ]
    for rec in log.records:
        lines.append(
            "\t".join(
                (
                    str(rec.iteration),
                    format_float(rec.lr),
                    str(rec.cut_size),
                    format_float(rec.dtl),
                    format_float(rec.ncl),
                    format_float(rec.total),
                )
            )
        )
    return "\n".join(lines) + "\n"

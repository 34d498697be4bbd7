"""Text formats for every artifact the tool reads or writes.

All files are UTF-8, tab-separated, with `#` comment lines. Floats are
serialized with repr, the shortest digits that parse back to the same
binary64 value, so write-load-write is a fixpoint and equal values always
produce equal bytes. Loaders validate eagerly and raise FormatError with
the offending line number.

``load_samples`` and ``load_embeddings`` take the document's text or a
binary file open for reading. A file is read, decoded and checked one line
at a time, straight into a matrix that grows only as validated rows
arrive, so a load holds about the matrix plus one line, peaking near twice
the matrix while its blocks are joined. The exception is a file broken
only by bare ``\r``: it is one ``\n``-terminated chunk, so it is held
whole while it is split. A byte that is not UTF-8 raises
UnicodeDecodeError with its offset from the start of the file, once every
line before it has been checked: a fault on an earlier line is the one
reported.

Rows of numbers are parsed one row at a time by orjson: the row's values,
TABs turned to commas, are read as one JSON array and written straight
into the matrix's next row. Any row that orjson refuses or reads as
anything but ``dim`` floats (``-0``, which JSON reads as the integer 0,
``1e400``, ``.5``, ``+1``, ``nan``, a token holding a space, ...) goes
through the per-token parser, which refuses digit separators, non-ASCII
and ASCII whitespace in a token, reads the rest with float(), and names
the first bad token. They are written a block of rows at a time by orjson,
whose digits are repr's; only the few values whose layout differs are
rendered one by one.
"""
from __future__ import annotations

import math
import re
from collections.abc import Iterator
from typing import BinaryIO

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
    if not math.isfinite(value):
        raise FormatError(f"{what} line {lineno}: non-finite number {token!r}")
    return value


# What float() reads but no writer emits: digit separators (``1_0`` is
# 10.0), non-ASCII digits and spaces (``\u0661`` is 1.0) and ASCII
# whitespace around the digits (``"1.0\x0c"`` is 1.0).
_NOT_A_TOKEN = re.compile(r"[_\s]|[^\x00-\x7f]")


def _parse_row(out: np.ndarray, text: str, lineno: int, what: str) -> None:
    """Parse one row of TAB-separated numbers into ``out``, a float64 vector.

    orjson reads the row as one JSON array. It is taken only when it holds
    exactly ``len(out)`` floats and the row holds no space: then each
    comma-separated element, and so each token, is one JSON number, whose
    grammar float() also reads, and orjson rounds it as float() does. JSON
    has no nan or inf, and orjson refuses a number that overflows. Any
    other row goes to ``_parse_tokens``.
    """
    if " " not in text:
        try:
            values = orjson.loads("[" + text.replace("\t", ",") + "]")
        except orjson.JSONDecodeError:
            pass
        else:
            if len(values) == len(out) and {*map(type, values)} == {float}:
                out[:] = values
                return
    _parse_tokens(out, text.split("\t"), lineno, what)


def _parse_tokens(out: np.ndarray, tokens: list[str], lineno: int, what: str) -> None:
    """Parse a row that orjson did not take, token by token, into ``out``.

    The row is refused at its first token holding a digit separator,
    non-ASCII or whitespace, or else at its first token that float() does
    not read or reads as nan or inf.
    """
    bad = next((t for t in tokens if _NOT_A_TOKEN.search(t)), None)
    if bad is not None:
        raise FormatError(f"{what} line {lineno}: bad number {bad!r}")
    out[:] = [_parse_float(t, lineno, what) for t in tokens]


# Bytes per block of a matrix being loaded. The last block's unused rows
# are the load's only memory beyond the matrix and, while the blocks are
# joined, its copy; at 256 KiB they stay small and the blocks few.
_LOAD_BLOCK_BYTES = 1 << 18


class _RowBlocks:
    """A float64 matrix of ``dim`` columns, filled one validated row at a time.

    Rows go into blocks of about ``_LOAD_BLOCK_BYTES`` (at least one row),
    allocated when their first row is asked for, and ``matrix`` joins them
    into one. The declared ``dim`` is not trusted with the allocation: a
    loader asks for a row only after its line has held ``dim`` values' worth
    of fields, so a corrupt ``dim`` gets an error naming its line, not a
    request for more memory than the lines read could fill.
    """

    def __init__(self, dim: int) -> None:
        self.dim = dim
        self.per_block = max(1, _LOAD_BLOCK_BYTES // (8 * dim))
        self.blocks: list[np.ndarray] = []
        self.n = 0

    def new_row(self) -> np.ndarray:
        """The next row, uninitialised, as a writable view."""
        r = self.n % self.per_block
        if r == 0:
            self.blocks.append(np.empty((self.per_block, self.dim), dtype=np.float64))
        self.n += 1
        return self.blocks[-1][r]

    def matrix(self) -> np.ndarray:
        """The rows so far as one ``(n, dim)`` matrix; the blocks are let go."""
        blocks, self.blocks = self.blocks, []
        if not blocks:
            return np.empty((0, self.dim), dtype=np.float64)
        blocks[-1] = blocks[-1][: self.n - self.per_block * (len(blocks) - 1)]
        return np.concatenate(blocks)


def _is_count(token: str) -> bool:
    """True for a plain ASCII decimal integer (str.isdigit also takes ² and ٣)."""
    return token.isascii() and token.isdigit()


def _lines(source: str | BinaryIO) -> Iterator[tuple[int, str]]:
    """Each line of ``source`` with its number, split where ``_split_lines`` splits.

    ``source`` is a document's text or a binary file open for reading. A
    file is read one ``\\n``-terminated chunk at a time and decoded as
    UTF-8; a chunk holds bare ``\\r`` breaks only in a file that uses them.
    A byte that is not UTF-8 raises UnicodeDecodeError, with ``start`` and
    ``end`` counted from the start of the file, after every line that ends
    before it has been yielded.
    """
    if isinstance(source, str):
        yield from enumerate(_split_lines(source), start=1)
        return
    lineno = offset = 0
    for chunk in source:
        try:
            text, bad = chunk.decode(), None
        except UnicodeDecodeError as exc:
            text, bad = chunk[: exc.start].decode(), exc
        # The last piece follows the chunk's last break: empty, the end of a
        # file without a final break, or cut short by a bad byte.
        *lines, last = _split_lines(text)
        if last and bad is None:
            lines.append(last)
        for line in lines:
            lineno += 1
            yield lineno, line
        if bad is not None:
            raise UnicodeDecodeError(
                bad.encoding, chunk, offset + bad.start, offset + bad.end, bad.reason
            )
        offset += len(chunk)


def _split_dim_doc(
    source: str | BinaryIO, what: str
) -> tuple[int, Iterator[tuple[int, str]]]:
    """Parse the mandatory `#dim <d>` first line; return dim and the data lines.

    The data lines, blank and comment lines skipped, are read as they are
    iterated.
    """
    lines = _lines(source)
    _, first = next(lines, (1, ""))
    if not first.startswith("#dim"):
        raise FormatError(f"{what}: first line must be '#dim <d>'")
    parts = first.split()
    if len(parts) != 2 or not _is_count(parts[1]) or int(parts[1]) < 1:
        raise FormatError(f"{what}: malformed dimension header {first!r}")
    rows = (
        (i, ln) for i, ln in lines if ln.strip() and not ln.lstrip().startswith("#")
    )
    return int(parts[1]), rows


# ---------------------------------------------------------------- trees

def write_tree(tree: TaxonomyTree) -> str:
    lines = []
    for i, name in enumerate(tree.names):
        parent = tree.parents[i]
        lines.append(f"{name}\t{'-' if parent is None else tree.names[parent]}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------- embeddings

def load_embeddings(source: str | BinaryIO, tree: TaxonomyTree) -> EmbeddingTable:
    """The table in ``source``, a document's text or a binary file open for reading."""
    dim, rows = _split_dim_doc(source, "embedding table")
    values = _RowBlocks(dim)
    nodes: dict[str, int] = {}
    for lineno, line in rows:
        if line.count("\t") != dim:
            raise FormatError(
                f"embedding table line {lineno}: expected name plus {dim} values"
            )
        name, numbers = line.split("\t", 1)
        name = name.strip()
        if name in nodes:
            raise FormatError(f"embedding table line {lineno}: duplicate name {name!r}")
        node = tree.name_index.get(name, tree.root)
        if node == tree.root:
            raise FormatError(
                f"embedding table line {lineno}: embeddings for unknown nodes: {name}"
            )
        row = values.new_row()
        _parse_row(row, numbers, lineno, "embedding table")
        if not row.any():
            raise FormatError(
                f"embedding table line {lineno}: embedding for {name!r} is all zeros"
            )
        nodes[name] = node
    if len(nodes) < tree.n_nodes - 1:
        missing = sorted(set(tree.names) - set(nodes) - {tree.names[tree.root]})
        raise FormatError(f"embedding table: missing embeddings for: {', '.join(missing)}")
    vectors = np.zeros((tree.n_nodes, dim), dtype=np.float64)
    vectors[list(nodes.values())] = values.matrix()
    return EmbeddingTable(dim=dim, vectors=vectors)


def write_embeddings(table: EmbeddingTable, tree: TaxonomyTree) -> str:
    lines = [f"#dim {table.dim}"]
    for i, (name, row) in enumerate(zip(tree.names, _row_texts(table.vectors))):
        if i != tree.root:
            lines.append(f"{name}\t{row}")
    return "\n".join(lines) + "\n"


# -------------------------------------------------------------- samples

def load_samples(source: str | BinaryIO, tree: TaxonomyTree) -> SampleSet:
    """The samples in ``source``, a document's text or a binary file open for reading."""
    dim, rows = _split_dim_doc(source, "sample file")
    ids: list[str] = []
    labels: list[int] = []
    features = _RowBlocks(dim)
    seen: set[str] = set()
    for lineno, line in rows:
        if line.count("\t") != dim + 1:
            raise FormatError(
                f"sample file line {lineno}: expected id, leaf, and {dim} values"
            )
        sid, leaf_name, numbers = line.split("\t", 2)
        sid, leaf_name = sid.strip(), leaf_name.strip()
        if sid in seen:
            raise FormatError(f"sample file line {lineno}: duplicate sample id {sid!r}")
        seen.add(sid)
        if leaf_name not in tree.name_index:
            raise FormatError(f"sample file line {lineno}: unknown leaf {leaf_name!r}")
        leaf = tree.name_index[leaf_name]
        if not tree.is_leaf(leaf):
            raise FormatError(f"sample file line {lineno}: {leaf_name!r} is not a leaf")
        row = features.new_row()
        _parse_row(row, numbers, lineno, "sample file")
        if not row.any():
            raise FormatError(f"sample file line {lineno}: all-zero feature")
        ids.append(sid)
        labels.append(leaf)
    return SampleSet(
        ids=tuple(ids),
        leaf_labels=np.asarray(labels, dtype=np.int64),
        features=features.matrix(),
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

    def take(expected: str) -> tuple[int, str, int]:
        """The next record's line number, text after its tag, and field count."""
        if not rows:
            raise FormatError(f"params file: missing {expected!r} record")
        lineno, line = rows.pop(0)
        tag, _, rest = line.partition("\t")
        if tag != expected:
            raise FormatError(
                f"params file line {lineno}: expected {expected!r}, got {tag!r}"
            )
        return lineno, rest, line.count("\t")

    lineno, rest, n = take("dim")
    if n != 1 or not _is_count(rest) or int(rest) < 1:
        raise FormatError(f"params file line {lineno}: bad dimension")
    dim = int(rest)
    lineno, rest, n = take("tau")
    if n != 1:
        raise FormatError(f"params file line {lineno}: bad tau record")
    tau = np.empty(1)
    _parse_row(tau, rest, lineno, "params file")
    weight = _RowBlocks(dim)
    for _ in range(dim):
        lineno, rest, n = take("A")
        if n != dim:
            raise FormatError(f"params file line {lineno}: expected {dim} values")
        _parse_row(weight.new_row(), rest, lineno, "params file")
    lineno, rest, n = take("c")
    if n != dim:
        raise FormatError(f"params file line {lineno}: expected {dim} values")
    bias = np.empty(dim)
    _parse_row(bias, rest, lineno, "params file")
    if rows:
        raise FormatError(f"params file line {rows[0][0]}: unexpected trailing record")
    try:
        return PromptParams(weight=weight.matrix(), bias=bias, tau=float(tau[0]))
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

"""Text formats for every artifact the tool reads or writes.

All files are UTF-8, tab-separated, with `#` comment lines. Floats are
serialized with repr, the shortest digits that parse back to the same
binary64 value, so write-load-write is a fixpoint and equal values always
produce equal bytes. Loaders validate eagerly and raise FormatError with
the offending line number.

Every loader takes the document's text or a binary file open for reading.
A file is streamed and checked one line at a time by the line reader
``taxonomy.load_tree`` also uses, whatever its line breaks. A row joins
the matrix a loader returns only once its line has passed every check.
The embedding table, whose shape the tree fixes, is allocated whole at its
first such row, and each row is written at its node's index; every other
matrix is one growable ``array("d")``, viewed as a matrix by
``np.frombuffer`` with no copy. So a load holds about the matrix and one
chunk of text, and a corrupt dimension allocates nothing before its first
row fails. A byte that is not UTF-8 raises UnicodeDecodeError with its
offset from the start of the file, once every line before it has been
checked: a fault on an earlier line is the one reported.

Rows of numbers are parsed a row at a time by orjson and appended with
``array.fromlist``; a row that orjson may read otherwise than float() has
its TABs counted and goes through the per-token parser (``_parse_row``).
Rows are written a block at a time by orjson, straight from the array and
as bytes; its digits are repr's, and the values it lays out otherwise are
respelt, in orjson's bytes where a block holds many of them. A block's
bytes are decoded as it is made, and a document's texts joined once.
"""
from __future__ import annotations

import math
import re
from array import array
from collections.abc import Iterator
from typing import TYPE_CHECKING, BinaryIO

import numpy as np
import orjson

from .classifier import EmbeddingTable, PromptParams, SampleSet
from .taxonomy import TaxonomyTree, _lines, _records

if TYPE_CHECKING:  # annotations only: a loader need not import the trainer or metrics
    from .metrics import MetricsReport
    from .trainer import TrainLog


class FormatError(ValueError):
    """A document does not match its declared format."""


def format_float(x: float) -> str:
    """Shortest decimal string that round-trips to the same float64."""
    return repr(float(x))


# Rows formatted per orjson call. A writer holds its document about twice
# at its peak (the chunks' texts, then their join); this sets only the few
# block-sized temporaries beside them.
WRITE_BLOCK = 64


def _row_blocks(matrix: np.ndarray) -> Iterator[list[bytes | memoryview]]:
    """The rows of ``matrix``, ``WRITE_BLOCK`` at a time, each as its
    TAB-separated ``format_float`` strings in ASCII bytes, most of them as
    views of their block's one buffer.

    orjson writes a float with Ryu's shortest round-trip digits, the digits
    repr gives, and lays them out as repr does for 0 and for 1e-4 <= |x| <
    1e16. Where more than one value in 32 of a block is laid out otherwise,
    as in a trained map, ``_respelt`` edits orjson's bytes. The rest (nan
    and inf, which orjson writes as ``null``, subnormals and |x| >= 1e16, or
    every such value of a block with fewer) are rendered by ``format_float``.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    for start in range(0, len(matrix), WRITE_BLOCK):
        block = np.ascontiguousarray(matrix[start : start + WRITE_BLOCK])  # as orjson needs
        text = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)
        size = np.abs(block)
        with np.errstate(invalid="ignore"):
            other = ~((size >= 1e-4) & (size < 1e16)) & (block != 0)
            if other.sum() * 32 > block.size:  # a format_float costs ~32 values' edits
                text = _respelt(text, block)
                other = ~((size >= np.finfo(np.float64).tiny) & (size < 1e16)) & (block != 0)
        text = text.replace(b",", b"\t")
        ends = np.flatnonzero(np.frombuffer(text, dtype=np.uint8) == ord("]"))[:-1]
        view = memoryview(text)  # a row follows "[[" or "]\t["; the block ends "]]"
        rows = [view[a:b] for a, b in zip(np.append(2, ends[:-1] + 3).tolist(), ends.tolist())]
        for r in np.flatnonzero(other.any(axis=1)).tolist():
            tokens = bytes(rows[r]).split(b"\t")
            for c in np.flatnonzero(other[r]).tolist():
                tokens[c] = format_float(block[r, c]).encode()
            rows[r] = b"\t".join(tokens)
        yield rows


def _row_lines(heads: list[bytes], matrix: np.ndarray) -> Iterator[bytes]:
    """The lines ``heads[i] + row i of matrix``, each ended by LF, a block
    of them per chunk."""
    for start, rows in zip(range(0, len(heads), WRITE_BLOCK), _row_blocks(matrix)):
        parts = [b"\n"] * (3 * len(rows))
        parts[0::3], parts[1::3] = heads[start : start + len(rows)], rows
        yield b"".join(parts)


def _document(head: bytes, rows: Iterator[bytes], tail: bytes = b"") -> str:
    """``head``, ``rows``' chunks and ``tail`` as one text, each chunk decoded as it is made."""
    return "".join([head.decode(), *(chunk.decode() for chunk in rows), tail.decode()])


def _respelt(text: bytes, block: np.ndarray) -> bytes:
    """orjson's ``text`` of ``block`` with 1e-5 <= |x| < 1e-4 and one-digit
    negative exponents spelt as repr spells them: 0.0000ddd as d.dde-05,
    1e-7 as 1e-07."""
    raw = np.frombuffer(text, dtype=np.uint8).copy()
    seps = np.flatnonzero(raw == ord(","))  # one after each number but a row's last
    e = np.flatnonzero(raw == ord("e"))
    pad = e[(raw[e + 1] == ord("-")) & (raw[e + 3] - ord("0") > 9)] + 2  # 1 digit; uint8 wraps
    flat = block.ravel()
    band = np.flatnonzero((np.abs(flat) >= 1e-5) & (np.abs(flat) < 1e-4))
    col = band % block.shape[1]  # a row's first number follows "[", its last precedes "]"
    lead = np.append(1, seps + 1)[band] + (col == 0) + np.signbit(flat[band])  # 0 of 0.0000
    stop = np.append(seps, len(raw) - 1)[band] - (col == block.shape[1] - 1)
    raw[lead] = raw[lead + 6]  # "0.0000ddd" to "d.ddd", less its bytes 2 to 6 ...
    keep = np.ones(len(raw), dtype=bool)
    keep[(lead[:, None] + np.arange(2, 7)).ravel()] = False
    keep[lead[stop == lead + 7] + 1] = False  # ... and a lone digit's point
    at = np.concatenate([np.repeat(stop, 4), pad])
    put = np.frombuffer(b"e-05" * len(band) + b"0" * len(pad), dtype=np.uint8)
    return np.insert(raw, at, put)[np.insert(keep, at, True)].tobytes()


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


def _parse_row(text: str, dim: int) -> array:
    """The ``dim`` floats of ``text``, a row of TAB-separated numbers, that
    orjson reads as one JSON array, TABs turned to commas; none where float()
    may read it otherwise, and the caller then counts TABs and parses tokens.
    With no space or comma, an element is a token, and ``fromlist`` takes
    only numbers, read as float() reads them (JSON has no nan or inf; orjson
    refuses overflows and rounds as float() does), and ``true``, ``false``
    and the integer ``-0``, read as 1.0, 0.0 and 0.0. So a row with a t, or
    with a zero and an f or a -0 token, is not taken."""
    row = array("d")
    try:
        values = orjson.loads("[" + text.replace("\t", ",") + "]")
        if len(values) == dim and not (" " in text or "," in text or "t" in text) and (
                all(values) or not ("f" in text or "-0\t" in text or text.endswith("-0"))):
            row.fromlist(values)
    except (orjson.JSONDecodeError, TypeError):
        pass
    return row


def _parse_tokens(tokens: list[str], lineno: int, what: str) -> array:
    """The floats of a row that orjson did not take, refused at its first
    token holding a digit separator, non-ASCII or whitespace, or else at its
    first token that float() does not read or reads as nan or inf."""
    bad = next((t for t in tokens if _NOT_A_TOKEN.search(t)), None)
    if bad is not None:
        raise FormatError(f"{what} line {lineno}: bad number {bad!r}")
    return array("d", [_parse_float(t, lineno, what) for t in tokens])


def _is_count(token: str) -> bool:
    """True for a plain ASCII decimal integer (str.isdigit also takes ² and ٣)."""
    return token.isascii() and token.isdigit()


def _split_dim_doc(source: str | BinaryIO, what: str) -> tuple[int, Iterator[tuple[int, str]]]:
    """The dim of the mandatory `#dim <d>` first line, and the data lines,
    blank and comment lines skipped, read as they are iterated."""
    lines = _lines(source)
    _, first = next(lines, (1, ""))
    if not first.startswith("#dim"):
        raise FormatError(f"{what}: first line must be '#dim <d>'")
    parts = first.split()
    if len(parts) != 2 or parts[0] != "#dim" or not _is_count(parts[1]) or int(parts[1]) < 1:
        raise FormatError(f"{what}: malformed dimension header {first!r}")
    return int(parts[1]), _records(lines)


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
    vectors = None
    seen: set[str] = set()
    for lineno, line in rows:
        name, _, numbers = line.partition("\t")
        row = _parse_row(numbers, dim)
        if not row and line.count("\t") != dim:
            raise FormatError(f"embedding table line {lineno}: expected name plus {dim} values")
        name = name.strip()
        if name in seen:
            raise FormatError(f"embedding table line {lineno}: duplicate name {name!r}")
        node = tree.name_index.get(name, tree.root)
        if node == tree.root:
            raise FormatError(
                f"embedding table line {lineno}: embeddings for unknown nodes: {name}"
            )
        row = row or _parse_tokens(numbers.split("\t"), lineno, "embedding table")
        if not any(row):
            raise FormatError(
                f"embedding table line {lineno}: embedding for {name!r} is all zeros"
            )
        if vectors is None:  # once a row has borne out ``dim``
            vectors = np.zeros((tree.n_nodes, dim), dtype=np.float64)
        vectors[node] = row
        seen.add(name)
    if len(seen) < tree.n_nodes - 1:
        missing = sorted(set(tree.names) - seen - {tree.names[tree.root]})
        raise FormatError(f"embedding table: missing embeddings for: {', '.join(missing)}")
    return EmbeddingTable(dim=dim, vectors=vectors)


def write_embeddings(table: EmbeddingTable, tree: TaxonomyTree) -> str:
    heads = [f"{name}\t".encode() for i, name in enumerate(tree.names) if i != tree.root]
    rows = _row_lines(heads, np.delete(table.vectors, tree.root, axis=0))
    return _document(b"#dim %d\n" % table.dim, rows)


# -------------------------------------------------------------- samples

def load_samples(source: str | BinaryIO, tree: TaxonomyTree) -> SampleSet:
    """The samples in ``source``, a document's text or a binary file open for reading."""
    dim, rows = _split_dim_doc(source, "sample file")
    ids: list[str] = []
    labels: list[int] = []
    features = array("d")
    seen: set[str] = set()
    for lineno, line in rows:
        fields = line.split("\t", 2)
        row = _parse_row(fields[2], dim) if len(fields) == 3 else None
        if not row and line.count("\t") != dim + 1:
            raise FormatError(f"sample file line {lineno}: expected id, leaf, and {dim} values")
        sid, leaf_name, numbers = fields
        sid, leaf_name = sid.strip(), leaf_name.strip()
        if sid in seen:
            raise FormatError(f"sample file line {lineno}: duplicate sample id {sid!r}")
        seen.add(sid)
        if leaf_name not in tree.name_index:
            raise FormatError(f"sample file line {lineno}: unknown leaf {leaf_name!r}")
        leaf = tree.name_index[leaf_name]
        if not tree.is_leaf(leaf):
            raise FormatError(f"sample file line {lineno}: {leaf_name!r} is not a leaf")
        row = row or _parse_tokens(numbers.split("\t"), lineno, "sample file")
        if not any(row):
            raise FormatError(f"sample file line {lineno}: all-zero feature")
        features += row
        ids.append(sid)
        labels.append(leaf)
    return SampleSet(
        ids=tuple(ids),
        leaf_labels=np.asarray(labels, dtype=np.int64),
        features=np.frombuffer(features).reshape(-1, dim),
    )


def write_samples(
    samples: SampleSet, tree: TaxonomyTree, dim: int, *, comment: str | None = None
) -> str:
    """The sample document, with the line ``# <comment>`` after ``#dim`` if
    ``comment`` is given; ``load_samples`` reads it back as ``samples``.

    An id that would load as another id or as no sample is refused before
    anything is rendered: one that is empty, padded with whitespace, starts
    with ``#`` (a comment), holds a TAB, CR or LF, or repeats an earlier id.
    So is a comment holding CR or LF, which would load as a data row.
    """
    if comment is not None and ("\r" in comment or "\n" in comment):
        raise ValueError(f"comment {comment!r} would not load back as one line")
    seen: set[str] = set()
    for sid in samples.ids:
        if (sid in seen or sid != sid.strip() or sid[:1] in ("", "#")
                or "\t" in sid or "\r" in sid or "\n" in sid):
            raise ValueError(f"sample id {sid!r} would not load back as written")
        seen.add(sid)
    leaves = [f"\t{name}\t" for name in tree.names]
    heads = [(sid + leaves[leaf]).encode()
             for sid, leaf in zip(samples.ids, samples.leaf_labels.tolist())]
    head = f"#dim {dim}\n" + ("" if comment is None else f"# {comment}\n")
    return _document(head.encode(), _row_lines(heads, samples.features))


# --------------------------------------------------------------- params

def load_params(source: str | BinaryIO) -> PromptParams:
    """The params in ``source``, a document's text or a binary file open for reading.

    Rows are parsed one at a time, holding no block of them: the benchmark
    (``perfbench/run.py``) loads each trained map in its own process, whose
    peak resident memory every command it starts after inherits.
    """
    rows = _records(_lines(source))

    def take(expected: str, fields: int, fault: str) -> tuple[str, int, array]:
        """The next record's text after its tag, its line number, and its
        numbers where orjson reads them. It must be an ``expected`` record
        with ``fields`` fields after the tag; a wrong count raises ``fault``."""
        lineno, line = next(rows, (0, None))
        if line is None:
            raise FormatError(f"params file: missing {expected!r} record")
        tag, _, rest = line.partition("\t")
        if tag != expected:
            raise FormatError(f"params file line {lineno}: expected {expected!r}, got {tag!r}")
        row = _parse_row(rest, fields)
        if not row and line.count("\t") != fields:
            raise FormatError(f"params file line {lineno}: {fault}")
        return rest, lineno, row

    def floats(expected: str, fields: int, fault: str) -> array:
        rest, lineno, row = take(expected, fields, fault)
        return row or _parse_tokens(rest.split("\t"), lineno, "params file")

    rest, lineno, _ = take("dim", 1, "bad dimension")
    if not _is_count(rest) or int(rest) < 1:
        raise FormatError(f"params file line {lineno}: bad dimension")
    dim = int(rest)
    (tau,) = floats("tau", 1, "bad tau record")
    weight = array("d")
    for _ in range(dim):
        weight += floats("A", dim, f"expected {dim} values")
    bias = floats("c", dim, f"expected {dim} values")
    extra = next(rows, None)
    if extra:
        raise FormatError(f"params file line {extra[0]}: unexpected trailing record")
    try:
        return PromptParams(
            weight=np.frombuffer(weight).reshape(dim, dim), bias=np.array(bias), tau=tau
        )
    except ValueError as exc:
        raise FormatError(f"params file: {exc}") from None


def write_params(params: PromptParams) -> str:
    ((tau,),) = _row_blocks(np.array([[params.tau]]))
    ((bias,),) = _row_blocks(params.bias[None, :])
    rows = _row_lines([b"A\t"] * params.dim, params.weight)
    return _document(b"dim\t%d\ntau\t%s\n" % (params.dim, tau), rows, b"c\t%s\n" % bias)


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
        *([f"# warning {log.warning}"] if log.warning else []),
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

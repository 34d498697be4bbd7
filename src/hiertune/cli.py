"""Command-line front end: validate, sample-cuts, train, eval, gen-synth.

Every failure surfaces as one machine-parsable stderr line
``E:<code>:<detail>`` with exit status 1. Codes: ``tree`` (tree document
invalid), ``format`` (embedding/sample/params file invalid), ``io`` (file
system), ``train`` (run aborted), ``invalid`` (bad flag value or
inconsistent inputs).
"""
from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Callable
from pathlib import Path
from typing import BinaryIO, TypeVar

from .fileio import (
    FormatError,
    format_float,
    load_embeddings,
    load_params,
    load_samples,
    write_cut_details,
    write_params,
    write_report,
    write_train_log,
)
from .metrics import evaluate
from .rng import Rng64
from .synth import gen_synth
from .taxonomy import TaxonomyTree, TreeFormatError, load_tree
from .trainer import TrainConfig, train
from .treecut import build_matrices, sample_distinct

_T = TypeVar("_T")


def _not_utf8(path: str, exc: UnicodeDecodeError, error: type[ValueError]) -> ValueError:
    return error(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})")


def _read(path: str, error: type[ValueError] = FormatError) -> str:
    """The file's text; bytes that are not UTF-8 raise ``error``.

    Only tree and params files, both small, are read whole; sample files and
    embedding tables are streamed by ``_load``.
    """
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc, error) from None


def _load(loader: Callable[[BinaryIO, TaxonomyTree], _T], path: str, tree: TaxonomyTree) -> _T:
    """``loader``'s result on the file at ``path``, read a line at a time.

    A byte that is not UTF-8 raises FormatError naming its offset in the
    file, unless a fault on an earlier line was reported first.
    """
    with open(path, "rb") as file:
        try:
            return loader(file, tree)
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc, FormatError) from None


def _write_outputs(path: str, texts: dict[str, str]) -> Path:
    """Write already rendered outputs into directory ``path`` as one set.

    Each text goes to a temporary file in that directory; only when all of
    them are written are they renamed into place with ``os.replace``, so a
    failure part-way leaves the earlier files, not a mix of old and new.
    """
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    staged: list[Path] = []
    try:
        for name, text in texts.items():
            tmp = out / f".{name}.{os.getpid()}.tmp"
            staged.append(tmp)
            tmp.write_text(text, encoding="utf-8")
        for tmp, name in zip(staged, texts):
            os.replace(tmp, out / name)
    finally:
        for tmp in staged:
            tmp.unlink(missing_ok=True)
    return out


def _parse_betas(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(t) for t in text.split(",") if t.strip())
    except ValueError:
        raise ValueError(f"bad betas list {text!r}") from None
    if not values:
        raise ValueError("betas list is empty")
    return values


def cmd_validate(args: argparse.Namespace) -> int:
    tree = load_tree(_read(args.tree, TreeFormatError))
    print(
        f"{tree.n_nodes} nodes, {len(tree.leaf_nodes)} leaves, "
        f"{len(tree.internal_nodes)} internal"
    )
    return 0


def cmd_sample_cuts(args: argparse.Namespace) -> int:
    tree = load_tree(_read(args.tree, TreeFormatError))
    bundle = build_matrices(tree)
    cuts = sample_distinct(tree, bundle, args.beta, args.count, Rng64(args.seed))
    print(f"# beta={format_float(args.beta)} seed={args.seed}")
    for cut in cuts:
        print("\t".join(tree.names[m] for m in cut.members))
    if len(cuts) < args.count:
        print(f"# shortfall: only {len(cuts)} of {args.count} distinct cuts exist at this rate")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    tree = load_tree(_read(args.tree, TreeFormatError))
    table = _load(load_embeddings, args.emb, tree)
    samples = _load(load_samples, args.samples, tree)
    config = TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        base_lr=args.lr,
        lam=args.lam,
        beta=args.beta,
        seed=args.seed,
        tau=args.tau,
        shots=args.shots,
    )
    params, log = train(config, tree, table, samples)
    out = _write_outputs(args.out, {
        "params.txt": write_params(params),
        "train_log.tsv": write_train_log(log),
    })
    print(
        f"seed {config.seed}: {len(log.records)} iterations, "
        f"final total loss {format_float(log.records[-1].total)}"
    )
    print(f"params digest {log.params_digest}")
    print(f"wrote {out / 'params.txt'}")
    print(f"wrote {out / 'train_log.tsv'}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    tree = load_tree(_read(args.tree, TreeFormatError))
    table = _load(load_embeddings, args.emb, tree)
    samples = _load(load_samples, args.samples, tree)
    params = load_params(_read(args.params))
    report = evaluate(
        tree, params, table, samples, _parse_betas(args.betas), args.T, args.seed
    )
    out = _write_outputs(args.out, {
        "report.tsv": write_report(report),
        "report_cuts.tsv": write_cut_details(report),
    })
    print(
        f"seed {args.seed}: leaf_acc {format_float(report.leaf_acc)}, "
        f"hca {format_float(report.hca)}, mta {format_float(report.mta)}"
    )
    print(f"wrote {out / 'report.tsv'}")
    print(f"wrote {out / 'report_cuts.tsv'}")
    return 0


def cmd_gen_synth(args: argparse.Namespace) -> int:
    tree_text, emb_text, samples_text = gen_synth(
        args.leaves, args.depth, args.dim, args.per_leaf, args.noise, args.seed
    )
    out = _write_outputs(args.out, {
        "tree.txt": tree_text,
        "embeddings.tsv": emb_text,
        "samples.tsv": samples_text,
    })
    print(f"seed {args.seed}: wrote tree.txt, embeddings.tsv, samples.tsv in {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hiertune",
        description="Hierarchy-aware classifier tuning and evaluation over taxonomy trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a tree document and print its shape")
    p.add_argument("--tree", required=True, help="tree document path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("sample-cuts", help="draw distinct treecuts and list their members")
    p.add_argument("--tree", required=True, help="tree document path")
    p.add_argument("--beta", type=float, default=0.1, help="subtree drop rate in [0,1]")
    p.add_argument("--count", type=int, default=5, help="distinct cuts to draw")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.set_defaults(func=cmd_sample_cuts)

    p = sub.add_parser("train", help="tune the affine map on a sample file")
    p.add_argument("--tree", required=True, help="tree document path")
    p.add_argument("--emb", required=True, help="embedding table path")
    p.add_argument("--samples", required=True, help="training sample path")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--lambda", dest="lam", type=float, default=0.5,
                   help="weight of the node-centric loss term")
    p.add_argument("--beta", type=float, default=0.1, help="subtree drop rate in [0,1]")
    p.add_argument("--epochs", type=int, default=200, help="training epochs")
    p.add_argument("--batch-size", type=int, default=128, help="minibatch size")
    p.add_argument("--lr", type=float, default=0.02, help="base learning rate")
    p.add_argument("--tau", type=float, default=0.07, help="softmax temperature")
    p.add_argument("--shots", type=int, default=None,
                   help="keep only the first N samples per leaf")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a params file on a sample file")
    p.add_argument("--tree", required=True, help="tree document path")
    p.add_argument("--emb", required=True, help="embedding table path")
    p.add_argument("--samples", required=True, help="evaluation sample path")
    p.add_argument("--params", required=True, help="params file path")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--betas", default="0.1,0.3,0.5,0.7,0.9",
                   help="comma-separated drop rates for treecut accuracy")
    p.add_argument("--T", type=int, default=5, help="distinct cuts per rate")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gen-synth", help="generate a synthetic tree/embedding/sample fixture")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--leaves", type=int, default=27, help="leaf class count")
    p.add_argument("--depth", type=int, default=3, help="tree depth")
    p.add_argument("--dim", type=int, default=64, help="embedding dimension")
    p.add_argument("--per-leaf", dest="per_leaf", type=int, default=30,
                   help="samples per leaf")
    p.add_argument("--noise", type=float, default=0.6, help="expected sample-noise norm relative to the unit class embedding")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.set_defaults(func=cmd_gen_synth)
    return parser


def _fail(code: str, exc: Exception) -> int:
    detail = " ".join(str(exc).split())
    print(f"E:{code}:{detail}", file=sys.stderr)
    return 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TreeFormatError as exc:
        return _fail("tree", exc)
    except FormatError as exc:
        return _fail("format", exc)
    except OSError as exc:
        return _fail("io", exc)
    except RuntimeError as exc:
        return _fail("train", exc)
    except ValueError as exc:
        return _fail("invalid", exc)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: validate, sample-cuts, train, eval, gen-synth.

Every failure surfaces as one machine-parsable stderr line
``E:<code>:<detail>`` with exit status 1. Codes: ``tree`` (tree document
invalid), ``format`` (embedding/sample/params file invalid), ``io`` (file
system), ``train`` (run aborted), ``invalid`` (bad flag value or
inconsistent inputs), ``memory`` (an allocation failed).

A product's bits depend on how many threads BLAS splits it over, so the
module pins BLAS to one thread before numpy loads, over any value the
caller's environment sets: a command's bytes depend on its inputs and seed,
not on the host's core count. The pin acts only when this module is imported
before numpy: ``main([...])`` called in a process that has already loaded
numpy runs at that process's BLAS thread count.

Every input file is opened by ``_load``; a byte that is not UTF-8 is a
``tree`` error in the tree and a ``format`` error in any other file.
"""
from __future__ import annotations

import argparse
import errno
import gc
import os
import sys
from collections.abc import Callable
from pathlib import Path
from typing import TypeVar

# One BLAS thread whatever the environment says, set before numpy loads.
os.environ.update(
    dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
)

# Only what every command needs; each command imports the rest itself, so a
# process loads and compiles just the modules its command runs.
from .fileio import FormatError, format_float
from .taxonomy import TreeFormatError, load_tree

_T = TypeVar("_T")

# Characters of an output encoded and written per call: no whole document is
# encoded, and below glibc's 128 KiB mmap threshold a slice reuses heap memory.
_WRITE_SLICE = 1 << 16


def _load(
    path: str, loader: Callable[..., _T], *args, error: type[ValueError] = FormatError
) -> _T:
    """``loader``'s result on the file at ``path``, read and checked a line at
    a time: a byte that is not UTF-8 raises ``error`` naming its offset in
    the file, unless a fault on an earlier line was reported first."""
    with open(path, "rb") as file:
        try:
            return loader(file, *args)
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _write_outputs(path: str, texts: dict[str, str]) -> Path:
    """Write already rendered outputs into directory ``path`` as one set.

    Each text goes to a temporary file in that directory, a slice at a time;
    once all are written they are renamed into place with ``os.replace``, so
    a failure part-way leaves the earlier files, not a mix of old and new.
    """
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    for name in texts:  # os.replace fails on a directory in a target's place
        if (out / name).is_dir() and not (out / name).is_symlink():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(out / name))
    staged: list[Path] = []
    try:
        for name, text in texts.items():
            tmp = out / f".{name}.{os.getpid()}.tmp"
            staged.append(tmp)
            with open(tmp, "w", encoding="utf-8") as file:  # as Path.write_text opens it
                for start in range(0, len(text), _WRITE_SLICE):
                    file.write(text[start : start + _WRITE_SLICE])
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
    tree = _load(args.tree, load_tree, error=TreeFormatError)
    print(
        f"{tree.n_nodes} nodes, {len(tree.leaf_nodes)} leaves, "
        f"{len(tree.internal_nodes)} internal"
    )
    return 0


def cmd_sample_cuts(args: argparse.Namespace) -> int:
    from .rng import Rng64
    from .treecut import DISTINCT_DRAW_FACTOR, _reachable, build_matrices, sample_distinct

    tree = _load(args.tree, load_tree, error=TreeFormatError)
    cuts = sample_distinct(tree, build_matrices(tree), args.beta, args.count, Rng64(args.seed))
    print(f"# beta={format_float(args.beta)} seed={args.seed}")
    for cut in cuts:
        print("\t".join(tree.names[m] for m in cut.members))
    if len(cuts) < args.count:
        found = f"{len(cuts)} of {args.count} distinct cuts"
        if len(cuts) == _reachable(tree, args.beta):
            print(f"# shortfall: only {found} exist at this rate")
        else:
            print(f"# gave up: found {found} in {DISTINCT_DRAW_FACTOR * args.count} draws")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    from .fileio import load_embeddings, load_samples, write_params, write_train_log
    from .trainer import TrainConfig, train

    tree = _load(args.tree, load_tree, error=TreeFormatError)
    table = _load(args.emb, load_embeddings, tree)
    samples = _load(args.samples, load_samples, tree)
    fields = TrainConfig.__dataclass_fields__
    config = TrainConfig(**{k: v for k, v in vars(args).items() if k in fields})
    params, log = train(config, tree, table, samples)
    if log.warning:
        print(f"W:train:{log.warning}", file=sys.stderr)
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
    from .fileio import load_embeddings, load_params, load_samples, write_cut_details, write_report
    from .metrics import evaluate

    tree = _load(args.tree, load_tree, error=TreeFormatError)
    table = _load(args.emb, load_embeddings, tree)
    samples = _load(args.samples, load_samples, tree)
    params = _load(args.params, load_params)
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
    from .synth import gen_synth

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
    # A flag left out takes TrainConfig's default; only epochs and batch size have none.
    unset = argparse.SUPPRESS
    p.add_argument("--lambda", dest="lam", type=float, default=unset,
                   help="weight of the node-centric loss term")
    p.add_argument("--beta", type=float, default=unset, help="subtree drop rate in [0,1]")
    p.add_argument("--epochs", type=int, default=200, help="training epochs")
    p.add_argument("--batch-size", type=int, default=128, help="minibatch size")
    p.add_argument("--lr", dest="base_lr", type=float, default=unset, help="base learning rate")
    p.add_argument("--tau", type=float, default=unset, help="softmax temperature")
    p.add_argument("--shots", type=int, default=unset,
                   help="keep only the first N samples per leaf")
    p.add_argument("--seed", type=int, default=unset, help="random seed")
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
    detail = " ".join(str(exc).split()) or type(exc).__name__  # a bare MemoryError says nothing
    print(f"E:{code}:{detail}", file=sys.stderr)
    return 1


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        # The process's own entry; every in-process caller passes a list.
        # The import heap lives until exit, so take it out of the collector's
        # reach: the collections run during the command and at exit skip it.
        gc.freeze()
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
    except MemoryError as exc:
        return _fail("memory", exc)


if __name__ == "__main__":
    sys.exit(main())

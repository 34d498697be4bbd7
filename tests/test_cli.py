"""Command-line behavior: outputs, written artifacts, error codes."""
from __future__ import annotations

import contextlib
import errno
import gc
import hashlib
import io
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiertune import PromptParams, Rng64, SampleSet, cli, fileio, load_tree
from hiertune.fileio import load_params, load_samples, write_params, write_samples

from helpers import DEMO_DOC, noisy_samples, random_table, random_tree


def run_cli(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def run_module(*argv: str) -> tuple[int, str, str]:
    """``python -m hiertune.cli``: the process entry, which freezes the heap."""
    proc = subprocess.run([sys.executable, "-m", "hiertune.cli", *argv],
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture()
def demo_path(tmp_path):
    path = tmp_path / "tree.txt"
    path.write_text(DEMO_DOC, encoding="utf-8")
    return path


@pytest.fixture()
def synth_dir(tmp_path):
    out = tmp_path / "data"
    rc, _, _ = run_cli(
        "gen-synth", "--out", str(out),
        "--leaves", "4", "--depth", "2", "--dim", "8",
        "--per-leaf", "6", "--noise", "0.4", "--seed", "0",
    )
    assert rc == 0
    return out


def data_args(synth_dir) -> list[str]:
    return [
        "--tree", str(synth_dir / "tree.txt"),
        "--emb", str(synth_dir / "embeddings.tsv"),
        "--samples", str(synth_dir / "samples.tsv"),
    ]


def test_validate_prints_shape(demo_path):
    rc, out, err = run_cli("validate", "--tree", str(demo_path))
    assert rc == 0
    assert out == "7 nodes, 4 leaves, 3 internal\n"
    assert err == ""


def test_validate_rejects_malformed_tree(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("n0\t-\nn1\tmissing\n", encoding="utf-8")
    rc, out, err = run_cli("validate", "--tree", str(bad))
    assert rc == 1
    assert out == ""
    assert err.startswith("E:tree:")


def test_missing_file_is_an_io_error(tmp_path):
    rc, _, err = run_cli("validate", "--tree", str(tmp_path / "absent.txt"))
    assert rc == 1
    assert err.startswith("E:io:")


def test_non_utf8_input_is_a_tree_or_format_error(synth_dir, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"n0\t-\nn1\tn0\xff\n")
    rc, _, err = run_cli("validate", "--tree", str(bad))
    assert rc == 1
    assert err.startswith("E:tree:") and "UTF-8" in err
    assert err == f"E:tree:{bad}: not UTF-8 text (invalid start byte at byte 10)\n"
    # Every input is read a line at a time, so a fault on a line before the
    # bad byte is the one reported.
    bad.write_bytes(b"n0\t-\nn1\n\xff\n")
    rc, _, err = run_cli("validate", "--tree", str(bad))
    assert (rc, err) == (1, "E:tree:line 2: expected 'name<TAB>parent', got 'n1'\n")
    params = [*data_args(synth_dir), "--params", str(bad), "--out", str(tmp_path / "eval")]
    for doc, message in (
        (b"dim\t8\xff\n", f"{bad}: not UTF-8 text (invalid start byte at byte 5)"),
        (b"dim\t8\ntau\n\xff\n", "params file line 2: bad tau record"),
    ):
        bad.write_bytes(doc)
        rc, _, err = run_cli("eval", *params)
        assert (rc, err) == (1, f"E:format:{message}\n")
    for flag, what in (("--samples", "sample file"), ("--emb", "embedding table")):
        args = data_args(synth_dir)
        args[args.index(flag) + 1] = str(bad)
        for doc, message in (
            (b"#dim 8\xff\n", f"{bad}: not UTF-8 text (invalid start byte at byte 6)"),
            (b"n0\t-\nn1\tn0\xff\n", f"{what}: first line must be '#dim <d>'"),
        ):
            bad.write_bytes(doc)
            rc, _, err = run_cli("train", *args, "--out", str(tmp_path / "run"))
            assert (rc, err) == (1, f"E:format:{message}\n")


def test_bad_byte_deep_in_a_samples_file_names_its_offset(synth_dir, tmp_path):
    header, *rows = (synth_dir / "samples.tsv").read_bytes().splitlines(keepends=True)
    body = b"".join(b"c%d-" % k + row for k in range(100) for row in rows if row[:1] != b"#")
    at = body.index(b"\t", 70_000) + 1
    assert len(header) + at > 64 * 1024
    path = tmp_path / "samples.tsv"
    path.write_bytes(header + body[:at] + b"\xff" + body[at:])
    args = data_args(synth_dir)
    args[args.index("--samples") + 1] = str(path)
    rc, _, err = run_cli("train", *args, "--out", str(tmp_path / "run"))
    assert rc == 1
    assert err == (
        f"E:format:{path}: not UTF-8 text (invalid start byte at byte {len(header) + at})\n"
    )


def test_a_format_error_is_the_only_thing_on_stderr(synth_dir, tmp_path):
    # The failed load's line reader is collected after _load has closed the
    # file. Its text stream must then not report an error of its own
    # ("Exception ignored ...") after the E: line; in a child process, as a
    # user sees it, not through the test runner's own hooks.
    lines = (synth_dir / "embeddings.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
    bad = tmp_path / "embeddings.tsv"
    bad.write_text("".join([*lines[:2], "n2\tx\n", *lines[3:]]), encoding="utf-8")
    args = data_args(synth_dir)
    args[args.index("--emb") + 1] = str(bad)
    rc, _, err = run_module("train", *args, "--out", str(tmp_path / "run"))
    assert rc == 1
    assert err == "E:format:embedding table line 3: expected name plus 8 values\n"


# str.isdigit() takes the superscript two and the Arabic-Indic three;
# int() refuses the first and reads the second as 3.
@pytest.mark.parametrize("digit", ["\u00b2", "\u0663"])
def test_non_ascii_dimension_is_a_format_error(synth_dir, tmp_path, digit):
    params_path = tmp_path / "params.txt"
    params_path.write_text(write_params(PromptParams.identity(8, 0.07)), encoding="utf-8")
    files = {
        "--emb": ("#dim 8", f"#dim {digit}", "embedding table: malformed dimension header"),
        "--samples": ("#dim 8", f"#dim {digit}", "sample file: malformed dimension header"),
        "--params": ("dim\t8", f"dim\t{digit}", "params file line 1: bad dimension"),
    }
    for flag, (good, bad, message) in files.items():
        args = [*data_args(synth_dir), "--params", str(params_path),
                "--out", str(tmp_path / "eval")]
        i = args.index(flag) + 1
        edited = tmp_path / f"edited{flag}"
        edited.write_text(
            Path(args[i]).read_text(encoding="utf-8").replace(good, bad, 1), encoding="utf-8"
        )
        args[i] = str(edited)
        rc, _, err = run_cli("eval", *args)
        assert rc == 1
        assert err.startswith(f"E:format:{message}"), err


def test_embedding_table_faults_are_format_errors(synth_dir, tmp_path):
    # Line 3 of the generated table is n2's row.
    good = (synth_dir / "embeddings.tsv").read_text(encoding="utf-8")
    lines = good.splitlines(keepends=True)
    assert lines[2].startswith("n2\t")
    zeroed = "n2" + "\t0.0" * 8 + "\n"
    renamed = lines[2].replace("n2", "ghost", 1)
    cases = {
        "zero": (zeroed, "embedding table line 3: embedding for 'n2' is all zeros"),
        "unknown": (renamed, "embedding table line 3: embeddings for unknown nodes: ghost"),
        "missing": ("", "embedding table: missing embeddings for: n2"),
    }
    for name, (row, message) in cases.items():
        edited = tmp_path / f"{name}.tsv"
        edited.write_text("".join(lines[:2] + [row] + lines[3:]), encoding="utf-8")
        args = data_args(synth_dir)
        args[args.index("--emb") + 1] = str(edited)
        rc, _, err = run_cli("train", *args, "--out", str(tmp_path / "run"))
        assert (rc, err) == (1, f"E:format:{message}\n")


def test_failed_train_leaves_earlier_outputs_alone(synth_dir, tmp_path, monkeypatch):
    run = tmp_path / "run"
    args = ["train", *data_args(synth_dir), "--out", str(run), "--epochs", "1", "--batch-size", "8"]

    def render_fails(log):
        raise RuntimeError("render failed")

    with monkeypatch.context() as patch:
        patch.setattr(fileio, "write_train_log", render_fails)  # cmd_train imports it per call
        rc, _, err = run_cli(*args)
    assert (rc, err) == (1, "E:train:render failed\n")
    assert not (run / "params.txt").exists()

    run.mkdir()
    (run / "params.txt").write_text("earlier", encoding="utf-8")

    class DiskFull(io.TextIOWrapper):
        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def open_staged(path, *rest, **kw):  # cli's open: the train log's staged file is refused
        file = open(path, *rest, **kw)
        return DiskFull(file.detach(), encoding="utf-8") if "train_log" in Path(path).name else file

    with monkeypatch.context() as patch:
        patch.setattr(cli, "open", open_staged, raising=False)
        rc, _, err = run_cli(*args)
    assert rc == 1 and err.startswith("E:io:")
    assert [p.name for p in run.iterdir()] == ["params.txt"]
    assert (run / "params.txt").read_text(encoding="utf-8") == "earlier"

    rc, _, _ = run_cli(*args)
    assert rc == 0
    assert sorted(p.name for p in run.iterdir()) == ["params.txt", "train_log.tsv"]


@pytest.mark.parametrize("message", ["Unable to allocate 8.00 GiB for an array", ""])
def test_an_allocation_failure_is_one_memory_line(synth_dir, tmp_path, monkeypatch, message):
    # Injected, never provoked: a MemoryError from the sample loader is one
    # E:memory line, numpy's message or the bare type, and --out stays as it was.
    run = tmp_path / "run"
    run.mkdir()
    (run / "params.txt").write_text("earlier", encoding="utf-8")
    params = tmp_path / "params.txt"
    params.write_text(write_params(PromptParams.identity(8, 0.07)), encoding="utf-8")

    def out_of_memory(*_):
        raise MemoryError(message)

    monkeypatch.setattr(fileio, "load_samples", out_of_memory)  # imported per call
    for command in (("train", "--epochs", "1"), ("eval", "--params", str(params))):
        rc, out, err = run_cli(command[0], *data_args(synth_dir), "--out", str(run),
                               *command[1:])
        assert (rc, out, err) == (1, "", f"E:memory:{message or 'MemoryError'}\n")
        assert [p.name for p in run.iterdir()] == ["params.txt"]
        assert (run / "params.txt").read_text(encoding="utf-8") == "earlier"


SLICE = cli._WRITE_SLICE


# Each slice of the first text starts with "€" and ends with "é", so every
# slice boundary lies between two multi-byte characters.
@pytest.mark.parametrize("text", [
    "€" + "".join("x" * (SLICE - 2) + "é€" for _ in range(7)) + "x" * 100 + "é\n",
    "line\n" * (2 * SLICE),
    "y" * (SLICE - 1) + "\n",
    "",
], ids=["boundaries", "ascii-lines", "one-slice", "empty"])
def test_outputs_are_written_a_slice_at_a_time(tmp_path, text):
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cli._write_outputs(str(tmp_path), {"out.txt": text})
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert (tmp_path / "out.txt").read_bytes() == text.encode("utf-8")
    slice_bytes = 3 * SLICE  # no character of these texts takes more than 3 bytes
    assert peak < 2 * slice_bytes  # not a copy of the whole text


def test_a_gen_synth_that_fails_part_way_leaves_the_outputs_alone(tmp_path, monkeypatch):
    # gen-synth renders its documents a block of rows at a time before it
    # stages any of them. Rendering that fails after its first block, here
    # in the samples' second, leaves every earlier output as it was and no
    # temporary file behind.
    out = tmp_path / "out"
    out.mkdir()
    earlier = {name: f"earlier {name}".encode() for name in ("tree.txt", "embeddings.tsv",
                                                             "samples.tsv")}
    for name, data in earlier.items():
        (out / name).write_bytes(data)
    row_blocks = fileio._row_blocks

    def fails_after_one_block(matrix):
        blocks = row_blocks(matrix)
        yield next(blocks)
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(fileio, "_row_blocks", fails_after_one_block)
    rc, _, err = run_cli(
        "gen-synth", "--out", str(out), "--leaves", "4", "--depth", "2", "--dim", "8",
        "--per-leaf", "20", "--seed", "1",
    )
    assert (rc, err) == (1, "E:io:[Errno 28] No space left on device\n")
    assert {p.name: p.read_bytes() for p in out.iterdir()} == earlier


def test_a_directory_in_an_outputs_place_is_refused_before_any_replace(synth_dir, tmp_path):
    # os.replace cannot put a file over a directory. Every target is checked
    # before the first is replaced, so the earlier params.txt keeps its bytes.
    run = tmp_path / "run"
    (run / "train_log.tsv").mkdir(parents=True)
    (run / "params.txt").write_bytes(b"earlier")
    rc, _, err = run_cli("train", *data_args(synth_dir), "--out", str(run), "--epochs", "1")
    refusal = f"[Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: '{run / 'train_log.tsv'}'"
    assert (rc, err) == (1, f"E:io:{refusal}\n")
    assert (run / "params.txt").read_bytes() == b"earlier"
    assert sorted(p.name for p in run.iterdir()) == ["params.txt", "train_log.tsv"]


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_seed_outside_64_bits_is_refused(synth_dir, demo_path, tmp_path, seed):
    params_path = tmp_path / "params.txt"
    params_path.write_text(write_params(PromptParams.identity(8, 0.07)), encoding="utf-8")
    commands = [
        ["sample-cuts", "--tree", str(demo_path)],
        ["train", *data_args(synth_dir), "--out", str(tmp_path / "run"), "--epochs", "1"],
        ["eval", *data_args(synth_dir), "--params", str(params_path),
         "--out", str(tmp_path / "eval")],
        ["gen-synth", "--out", str(tmp_path / "gen")],
    ]
    for command in commands:
        rc, out, err = run_cli(*command, "--seed", seed)
        assert rc == 1
        assert err == f"E:invalid:seed must be in [0, 2**64), got {seed}\n"
    for name in ("run", "eval", "gen"):
        assert not (tmp_path / name).exists()


def test_sample_cuts_rate_zero_lists_leaf_fringe(demo_path):
    rc, out, _ = run_cli(
        "sample-cuts", "--tree", str(demo_path), "--beta", "0", "--count", "1"
    )
    assert rc == 0
    assert out == "# beta=0.0 seed=0\nn3\tn4\tn5\tn6\n"


def test_sample_cuts_reports_shortfall(demo_path):
    rc, out, _ = run_cli(
        "sample-cuts", "--tree", str(demo_path), "--beta", "1", "--count", "2"
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "# beta=1.0 seed=0"
    assert lines[1] == "n1\tn6"
    assert lines[2] == "# shortfall: only 1 of 2 distinct cuts exist at this rate"


def test_sample_cuts_tells_a_give_up_from_a_shortfall(demo_path):
    # Every rate in (0, 1) reaches all 3 demo cuts; at 0.999 the sampler
    # gives up first, which is not a shortfall of cuts.
    rc, out, _ = run_cli(
        "sample-cuts", "--tree", str(demo_path), "--beta", "0.999", "--count", "3"
    )
    assert rc == 0
    assert out.splitlines() == [
        "# beta=0.999 seed=0",
        "n1\tn6",
        "# gave up: found 1 of 3 distinct cuts in 300 draws",
    ]


def test_sample_cuts_rejects_bad_rate(demo_path):
    rc, _, err = run_cli("sample-cuts", "--tree", str(demo_path), "--beta", "1.5")
    assert rc == 1
    assert err.startswith("E:invalid:")


def unbalanced_fixture(out: Path) -> None:
    """A random tree of 16 nodes with leaves at depths 2 to 4, its
    16-dimensional table, and noisy train and held-out samples."""
    tree = random_tree(Rng64(3), max_internal=12, max_nodes=40)
    table = random_table(tree, 16, seed=3)
    out.mkdir()
    texts = {
        "tree.txt": fileio.write_tree(tree),
        "embeddings.tsv": fileio.write_embeddings(table, tree),
        "samples.tsv": write_samples(noisy_samples(tree, table, 3, 0.6, seed=3), tree, 16),
        "heldout.tsv": write_samples(noisy_samples(tree, table, 2, 0.6, seed=4), tree, 16),
    }
    for name, text in texts.items():
        (out / name).write_text(text, encoding="utf-8")


def balanced_fixture(out: Path) -> None:
    """A 27-leaf gen-synth fixture at dim 40, and held-out samples."""
    shape = ("--leaves", "27", "--depth", "3", "--dim", "40", "--noise", "0.8")
    rc, _, _ = run_cli("gen-synth", "--out", str(out), *shape, "--per-leaf", "4", "--seed", "0")
    assert rc == 0
    rc, _, _ = run_cli("gen-synth", "--out", str(out / "held"), *shape, "--per-leaf", "2",
                       "--seed", "1")
    assert rc == 0
    (out / "held" / "samples.tsv").rename(out / "heldout.tsv")


# Frozen outputs. Training, cut sampling and evaluation are pure functions
# of the seed, so a change to the random stream, the sampler, the training
# step, a loader, the metrics or a writer that moves one byte of a map, a
# log or a report shows here. The balanced map's values span the float
# layouts the writer respells (12% and 6% of them lie in 1e-5..1e-4).
# Digests: the map's as train prints it, then params.txt, train_log.tsv,
# report.tsv and report_cuts.tsv.
FROZEN_RUNS = pytest.mark.parametrize(("fixture", "lam", "beta", "digest", "sha256s"), [
    (balanced_fixture, "0", "0",
     "218127193c9c1cf9d46952ef09a22926579f299648cdee285cfa1571b131e18f", (
         "38aa4d3d2d08f3aba0a0dabb2b9fe709f862f8f437a3d909d35d9e9e328368fe",
         "f81e506edd164270b393bf7a71b7151d41daa53c8f3809e1e4fcd23ff50b1ecb",
         "89f68c2039b2370d6a1c7eb883de47ed98ac199d11d404b7e01915348bc6451e",
         "16dc00575efb8891303e561d4370faae1845b7408c609c8702e4239aa171c05f")),
    (balanced_fixture, "0.5", "0.1",
     "33008422790f0180d7b439f2fa61f44fa5c1ff72f293c790e1f0fa8f70ec1f36", (
         "c98bc74a8af1685602aae2b39a1b048e33b775e138602ced1eca160127f5ce29",
         "b279c9a186ff49b99dbe4dce3a25e5a3456a4905d89cf3b9b1cdd11c50ef7d29",
         "c62991ae43ce98e508489cc9bbe37dc095d9bb4fe3ab6d4d6294d8204044ee50",
         "e17496a8788511427a4e5a867914fb1fcc3144e3764ebbc941e54a217e19d86c")),
    (unbalanced_fixture, "0.5", "0.1",
     "2cc45d528a53c3d13db3754a4690f544510e445b5eb2d25f94f90cba5f6c027d", (
         "e2a359977da1b7f81c9336237ed0b424859d98ac7da0400e7ee135f82f796257",
         "1de7b5f3ac10f73a7f9a179055c4ed060ce4bd42da27349d846247bd7458516d",
         "df321485c938239bea418a533a586649b5f6d677b01005154db93d682db084b2",
         "be9afcaa9bc0c6b1c85b2556dddc8783e3234c7457166268afb62da5c8aa3d85")),
], ids=("treecut-only", "with-node-centric", "unbalanced"))


def check_frozen_run(run, tmp_path, fixture, lam, beta, digest, sha256s):
    """Train and evaluate through ``run`` and compare the outputs' digests."""
    data, out, report = tmp_path / "data", tmp_path / "run", tmp_path / "report"
    fixture(data)
    inputs = ("--tree", str(data / "tree.txt"), "--emb", str(data / "embeddings.tsv"))
    rc, stdout, _ = run(
        "train", *inputs, "--samples", str(data / "samples.tsv"), "--out", str(out),
        "--lambda", lam, "--beta", beta, "--epochs", "2", "--batch-size", "16", "--seed", "0",
    )
    assert rc == 0 and f"params digest {digest}\n" in stdout
    rc, _, _ = run(
        "eval", *inputs, "--samples", str(data / "heldout.tsv"), "--params",
        str(out / "params.txt"), "--out", str(report), "--betas", "0.1,0.5,0.9", "--T", "3",
        "--seed", "0",
    )
    assert rc == 0
    paths = (out / "params.txt", out / "train_log.tsv", report / "report.tsv",
             report / "report_cuts.tsv")
    assert tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in paths) == sha256s


@FROZEN_RUNS
def test_train_bytes_are_frozen(tmp_path, fixture, lam, beta, digest, sha256s):
    check_frozen_run(run_cli, tmp_path, fixture, lam, beta, digest, sha256s)


@FROZEN_RUNS
def test_module_entry_point_writes_the_frozen_bytes(tmp_path, fixture, lam, beta, digest,
                                                    sha256s):
    check_frozen_run(run_module, tmp_path, fixture, lam, beta, digest, sha256s)


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_train_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # At this shape OpenBLAS splits the step's products over every thread it
    # may use, and the split moves their bits; the CLI pins one thread, so
    # train writes the same bytes at 1 thread, at 2 and with the variables unset.
    data = tmp_path / "data"
    rc, _, _ = run_cli("gen-synth", "--out", str(data), "--leaves", "125", "--depth", "3",
                       "--dim", "160", "--per-leaf", "2", "--seed", "0")
    assert rc == 0
    written = []
    for threads in ("1", "2", None):
        env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
        if threads is not None:
            env.update(dict.fromkeys(BLAS_THREADS, threads))
        out = tmp_path / f"run-{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "hiertune.cli", "train", *data_args(data), "--out", str(out),
             "--epochs", "1", "--seed", "0"],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        written.append([(out / name).read_bytes() for name in ("params.txt", "train_log.tsv")])
    assert written[0] == written[1] == written[2]


def test_in_process_main_leaves_the_heap_unfrozen(demo_path):
    # Only the process entry (main with no argv) freezes the collector's
    # heap; a caller that passes a list keeps its own.
    rc, _, _ = run_cli("validate", "--tree", str(demo_path))
    assert rc == 0 and gc.get_freeze_count() == 0


def test_sample_cuts_bytes_are_frozen(tmp_path):
    # A complete ternary tree of 121 nodes, 40 of them internal.
    path = tmp_path / "tree.txt"
    lines = ["n0\t-"] + [f"n{v}\tn{(v - 1) // 3}" for v in range(1, 121)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rc, out, _ = run_cli(
        "sample-cuts", "--tree", str(path), "--beta", "0.3", "--count", "3", "--seed", "0"
    )
    assert rc == 0 and out.startswith("# beta=0.3 seed=0\nn3\tn5\tn7\tn9\tn19\t")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "23d3d3a455cc5eb9bfb5d8df30532be2af64f183fa1bdb2e9fe62db5e36a6257"
    )


def test_gen_synth_writes_reproducible_fixture(tmp_path):
    args = ["--leaves", "4", "--depth", "2", "--dim", "8", "--per-leaf", "3", "--noise", "0.5"]
    rc, out, _ = run_cli("gen-synth", "--out", str(tmp_path / "one"), *args)
    assert rc == 0
    assert "wrote tree.txt, embeddings.tsv, samples.tsv" in out
    rc, _, _ = run_cli("gen-synth", "--out", str(tmp_path / "two"), *args)
    assert rc == 0
    for name in ("tree.txt", "embeddings.tsv", "samples.tsv"):
        first = (tmp_path / "one" / name).read_bytes()
        second = (tmp_path / "two" / name).read_bytes()
        assert first == second


@pytest.mark.parametrize(("noise", "samples_sha256"), [
    # 0.8 is test_train_bytes_are_frozen's shape: two of its values are
    # written by format_float. At 0.01 most values are below 1e-4, and
    # every block is respelt.
    ("0.8", "9f6974de22864e1d14443cea65b7fc4872712b03921b98b6d51c21394322a9d0"),
    ("0.01", "2c5857be0966f62f051b4d72b7dc44ae70a32394f03001284feca314a46f3f56"),
], ids=["noise-0.8", "noise-0.01"])
def test_gen_synth_bytes_are_frozen(tmp_path, noise, samples_sha256):
    rc, _, _ = run_cli(
        "gen-synth", "--out", str(tmp_path), "--leaves", "27", "--depth", "3", "--dim", "40",
        "--per-leaf", "4", "--noise", noise, "--seed", "0",
    )
    assert rc == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("tree.txt", "embeddings.tsv", "samples.tsv")
    }
    assert digests == {
        "tree.txt": "cadba218d43eaa70608131a72d87b7afaec952f89c8323ad7d25ec888787d855",
        "embeddings.tsv": "1c01e86c4c74d0a8cc9df0108a9b45de02932ef1fee0d26d4b9cb558345b051b",
        "samples.tsv": samples_sha256,
    }


def test_deep_gen_synth_shape_is_an_invalid_dim(tmp_path):
    # A 3,000-level chain is planned without recursion, so the too-small
    # dim is what is reported, not a RecursionError read as a train fault.
    rc, _, err = run_cli(
        "gen-synth", "--out", str(tmp_path / "deep"),
        "--leaves", "2", "--depth", "3000", "--dim", "8",
    )
    assert (rc, err) == (1, "E:invalid:dim must be at least 3001 (one axis per non-root node)\n")
    assert not (tmp_path / "deep").exists()


def test_train_writes_params_and_log(synth_dir, tmp_path):
    run = tmp_path / "run"
    rc, out, _ = run_cli(
        "train", *data_args(synth_dir), "--out", str(run),
        "--epochs", "3", "--batch-size", "8",
    )
    assert rc == 0
    params = load_params((run / "params.txt").read_text(encoding="utf-8"))
    assert params.dim == 8
    log_text = (run / "train_log.tsv").read_text(encoding="utf-8")
    digest = log_text.splitlines()[1].split()[-1]
    assert f"params digest {digest}" in out
    assert "final total loss" in out


def test_train_twice_is_byte_identical(synth_dir, tmp_path):
    for name in ("a", "b"):
        rc, _, _ = run_cli(
            "train", *data_args(synth_dir), "--out", str(tmp_path / name),
            "--epochs", "2", "--batch-size", "8",
        )
        assert rc == 0
    for artifact in ("params.txt", "train_log.tsv"):
        assert (tmp_path / "a" / artifact).read_bytes() == (tmp_path / "b" / artifact).read_bytes()


def test_eval_rate_zero_report_equates_mta_and_leaf(synth_dir, tmp_path):
    params_path = tmp_path / "params.txt"
    params_path.write_text(write_params(PromptParams.identity(8, 0.07)), encoding="utf-8")
    out_dir = tmp_path / "eval"
    rc, out, _ = run_cli(
        "eval", *data_args(synth_dir), "--params", str(params_path),
        "--out", str(out_dir), "--betas", "0", "--T", "1",
    )
    assert rc == 0
    report = dict(
        line.split("\t")
        for line in (out_dir / "report.tsv").read_text(encoding="utf-8").splitlines()
        if not line.startswith("#")
    )
    assert report["mta"] == report["leaf_acc"]
    assert report["mta@0.0"] == report["leaf_acc"]
    assert report["T"] == "1"
    assert "leaf_acc" in out
    cuts_text = (out_dir / "report_cuts.tsv").read_text(encoding="utf-8")
    assert cuts_text.splitlines()[1] == "# beta\tsize\taccuracy"


def test_eval_rejects_corrupt_params(synth_dir, tmp_path):
    bad = tmp_path / "params.txt"
    bad.write_text("dim\t8\n", encoding="utf-8")
    rc, _, err = run_cli(
        "eval", *data_args(synth_dir), "--params", str(bad),
        "--out", str(tmp_path / "eval"),
    )
    assert rc == 1
    assert err.startswith("E:format:")


def test_eval_rejects_empty_betas(synth_dir, tmp_path):
    params_path = tmp_path / "params.txt"
    params_path.write_text(write_params(PromptParams.identity(8, 0.07)), encoding="utf-8")
    rc, _, err = run_cli(
        "eval", *data_args(synth_dir), "--params", str(params_path),
        "--out", str(tmp_path / "eval"), "--betas", ",",
    )
    assert rc == 1
    assert err.startswith("E:invalid:")


def test_eval_rejects_a_bad_betas_token(synth_dir, tmp_path):
    params_path = tmp_path / "params.txt"
    params_path.write_text(write_params(PromptParams.identity(8, 0.07)), encoding="utf-8")
    rc, _, err = run_cli(
        "eval", *data_args(synth_dir), "--params", str(params_path),
        "--out", str(tmp_path / "eval"), "--betas", "0.1,abc",
    )
    assert (rc, err) == (1, "E:invalid:bad betas list '0.1,abc'\n")
    assert not (tmp_path / "eval").exists()


def test_eval_refuses_a_repeated_rate(synth_dir, tmp_path):
    # Two mta@0.1 rows would leave a reader keyed by name with one of them.
    params_path = tmp_path / "params.txt"
    params_path.write_text(write_params(PromptParams.identity(8, 0.07)), encoding="utf-8")
    rc, _, err = run_cli(
        "eval", *data_args(synth_dir), "--params", str(params_path),
        "--out", str(tmp_path / "eval"), "--betas", "0.1,0.3,0.1",
    )
    assert (rc, err) == (1, "E:invalid:betas must be distinct: 0.1 is repeated\n")
    assert not (tmp_path / "eval").exists()


def test_eval_with_overflowing_map_is_invalid(synth_dir, tmp_path):
    # A = 1e200 I is finite, but every mapped weight's norm overflows; eval
    # must refuse it rather than score every cosine as 0.
    huge = PromptParams(weight=1e200 * np.eye(8), bias=np.zeros(8), tau=0.07)
    params_path = tmp_path / "params.txt"
    params_path.write_text(write_params(huge), encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, err = run_cli(
            "eval", *data_args(synth_dir), "--params", str(params_path),
            "--out", str(tmp_path / "eval"),
        )
    assert rc == 1 and out == ""
    assert err == "E:invalid:label weights contains a row whose norm overflows\n"
    assert caught == []
    assert not (tmp_path / "eval").exists()


def test_train_rejects_bad_lambda(synth_dir, tmp_path):
    rc, _, err = run_cli(
        "train", *data_args(synth_dir), "--out", str(tmp_path / "run"),
        "--epochs", "1", "--batch-size", "8", "--lambda", "-1",
    )
    assert rc == 1
    assert err.startswith("E:invalid:")


@pytest.mark.parametrize(
    "flag, value, field",
    [
        ("--lambda", "nan", "lam"),
        ("--lambda", "inf", "lam"),
        ("--lr", "inf", "base_lr"),
        ("--tau", "inf", "tau"),
    ],
)
def test_train_rejects_non_finite_flags(synth_dir, tmp_path, flag, value, field):
    rc, _, err = run_cli(
        "train", *data_args(synth_dir), "--out", str(tmp_path / "run"),
        "--epochs", "1", "--batch-size", "8", flag, value,
    )
    assert rc == 1
    assert err.startswith(f"E:invalid:{field} must be ")
    assert err.rstrip().endswith(f"finite, got {value}")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("value", ["nan", "1.5", "-0.1"])
def test_train_rejects_beta_outside_the_unit_interval(synth_dir, tmp_path, value):
    rc, _, err = run_cli(
        "train", *data_args(synth_dir), "--out", str(tmp_path / "run"),
        "--epochs", "1", "--batch-size", "8", "--beta", value,
    )
    assert (rc, err) == (1, f"E:invalid:beta must be in [0, 1], got {float(value)}\n")
    assert not (tmp_path / "run").exists()


def test_diverging_train_is_a_train_error(synth_dir, tmp_path):
    # Cosine logits stay within 1/tau, so the loss stays finite while the
    # map blows up; the overflow itself stops the run, without a numpy
    # warning and without outputs.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, _, err = run_cli(
            "train", *data_args(synth_dir), "--out", str(tmp_path / "run"),
            "--epochs", "2", "--batch-size", "8", "--lr", "1e305",
        )
    assert rc == 1
    assert re.fullmatch(r"E:train:training diverged at iteration \d+: overflow .*\n", err)
    assert caught == []
    assert not (tmp_path / "run").exists()


def test_train_whose_loss_climbs_warns(synth_dir, tmp_path):
    # Too large a rate for overflow to stop it: the run finishes and writes
    # its outputs, but its final map scores worse on step 0's batch and cut
    # than the identity did, which one stderr line and the log say.
    def train_at(lr: str, out: str) -> tuple[str, str]:
        rc, _, err = run_cli(
            "train", *data_args(synth_dir), "--out", str(tmp_path / out),
            "--epochs", "20", "--batch-size", "8", "--lr", lr,
        )
        assert rc == 0
        return err, (tmp_path / out / "train_log.tsv").read_text(encoding="utf-8")

    err, log = train_at("1e8", "climbs")
    assert re.fullmatch(r"W:train:final params score loss \S+ on step 0's batch and cut, "
                        r"above step 0's \S+: training may have diverged\n", err)
    assert log.splitlines()[2] == "# warning " + err[len("W:train:"):-1]
    err, log = train_at("0.02", "settles")
    assert err == ""
    assert "# warning" not in log


def test_overflowing_features_are_invalid_for_train_and_eval(synth_dir, tmp_path):
    # Finite features whose row norms overflow are a fault in the samples:
    # train says so as eval does, instead of blaming the run.
    tree = load_tree((synth_dir / "tree.txt").read_text(encoding="utf-8"))
    data = load_samples((synth_dir / "samples.tsv").read_text(encoding="utf-8"), tree)
    huge = SampleSet(ids=data.ids, leaf_labels=data.leaf_labels, features=1e200 * data.features)
    samples = tmp_path / "huge.tsv"
    samples.write_text(write_samples(huge, tree, 8), encoding="utf-8")
    args = data_args(synth_dir)
    args[args.index("--samples") + 1] = str(samples)
    params = tmp_path / "params.txt"
    params.write_text(write_params(PromptParams.identity(8, 0.07)), encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for command in (
            ("train", *args, "--out", str(tmp_path / "run"), "--epochs", "1"),
            ("eval", *args, "--params", str(params), "--out", str(tmp_path / "eval")),
        ):
            rc, _, err = run_cli(*command)
            assert (rc, err) == (
                1, "E:invalid:features contains a row whose norm overflows\n"
            )
    assert caught == []
    assert not (tmp_path / "run").exists() and not (tmp_path / "eval").exists()


def test_sample_dim_other_than_embedding_dim_is_invalid(synth_dir, tmp_path):
    # The same tree's samples at dim 12 against its dim-8 embedding table.
    wide = tmp_path / "wide"
    rc, _, _ = run_cli(
        "gen-synth", "--out", str(wide), "--leaves", "4", "--depth", "2", "--dim", "12",
        "--per-leaf", "2",
    )
    assert rc == 0
    args = data_args(synth_dir)
    args[args.index("--samples") + 1] = str(wide / "samples.tsv")
    params = tmp_path / "params.txt"
    params.write_text(write_params(PromptParams.identity(8, 0.07)), encoding="utf-8")
    for command in (
        ("train", *args, "--out", str(tmp_path / "run"), "--epochs", "1"),
        ("eval", *args, "--params", str(params), "--out", str(tmp_path / "eval")),
    ):
        rc, _, err = run_cli(*command)
        assert (rc, err) == (1, "E:invalid:sample dim 12 is not embedding dim 8\n")
    assert not (tmp_path / "run").exists() and not (tmp_path / "eval").exists()


def test_subcommand_is_required():
    with pytest.raises(SystemExit) as excinfo:
        run_cli()
    assert excinfo.value.code == 2


def test_module_entry_point(demo_path):
    rc, out, _ = run_module("validate", "--tree", str(demo_path))
    assert rc == 0
    assert out == "7 nodes, 4 leaves, 3 internal\n"


# The failure contract, on one mutated input. Each command's input files
# by flag, the files it writes into --out, and flags that keep it short.
CONTRACT = {
    "validate": ({"--tree": "tree.txt"}, (), ()),
    "train": ({"--tree": "tree.txt", "--emb": "embeddings.tsv", "--samples": "samples.tsv"},
              ("params.txt", "train_log.tsv"), ("--epochs", "1", "--batch-size", "8")),
    "eval": ({"--tree": "tree.txt", "--emb": "embeddings.tsv", "--samples": "samples.tsv",
              "--params": "params.txt"},
             ("report.tsv", "report_cuts.tsv"), ("--betas", "0.1,0.5", "--T", "2")),
}


@pytest.fixture(scope="module")
def contract_dir(tmp_path_factory):
    """An 8-leaf gen-synth fixture and a map trained on it."""
    data = tmp_path_factory.mktemp("contract")
    rc, _, _ = run_cli("gen-synth", "--out", str(data), "--leaves", "8", "--depth", "2",
                       "--dim", "12", "--per-leaf", "3", "--seed", "0")
    assert rc == 0
    rc, _, _ = run_cli("train", *data_args(data), "--out", str(data), *CONTRACT["train"][2])
    assert rc == 0
    return data


# Tokens a mutation inserts or puts in a field's place.
TOKENS = (b"", b"nan", b"1e999", b"-0", b"x", b"n1", b"\x00", b"\r", b"\t", b"\n", b"#", b" ",
          b"\xc3", b"\xff")


@st.composite
def mutated(draw, text: bytes) -> bytes:
    """``text`` with one fault: a byte replaced, a span deleted, a cut-off
    end, a token inserted or put in one of a line's first three fields (the
    names and the first number), or a line repeated or moved. Each lands
    at or on the line of a byte offset, so long lines draw more of them."""
    kind = draw(st.sampled_from(("replace", "delete", "truncate", "insert", "field", "repeat",
                                 "swap")))
    at = draw(st.integers(0, len(text) - 1))
    if kind == "replace":
        return text[:at] + bytes([draw(st.integers(0, 255))]) + text[at + 1:]
    if kind == "delete":
        return text[:at] + text[draw(st.integers(at + 1, min(len(text), at + 40))):]
    if kind == "truncate":
        return text[:at]
    if kind == "insert":
        return text[:at] + draw(st.sampled_from(TOKENS)) + text[at:]
    lines = text.splitlines(keepends=True)
    first, second = text.count(b"\n", 0, at), draw(st.integers(0, len(lines) - 1))
    if kind == "field":
        fields = lines[first].rstrip(b"\n").split(b"\t")
        fields[draw(st.integers(0, min(len(fields), 3) - 1))] = draw(st.sampled_from(TOKENS))
        lines[first] = b"\t".join(fields) + b"\n"
    elif kind == "repeat":
        lines.insert(second, lines[first])
    else:
        lines[first], lines[second] = lines[second], lines[first]
    return b"".join(lines)


@settings(max_examples=300)
@given(data=st.data())
def test_a_mutated_input_fails_with_one_line_or_writes_every_output(contract_dir, data):
    # Every run either succeeds and writes its whole output set, or exits 1
    # with one E:<code>: line and leaves --out as it was: no exception
    # escapes main and no output is half replaced.
    target = data.draw(st.sampled_from(sorted(CONTRACT["eval"][0].values())), label="file")
    command = data.draw(st.sampled_from(
        [c for c, spec in sorted(CONTRACT.items()) if target in spec[0].values()]),
        label="command")
    inputs, outputs, flags = CONTRACT[command]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        argv = [command, *flags]
        for flag, name in inputs.items():
            text = (contract_dir / name).read_bytes()
            (root / name).write_bytes(data.draw(mutated(text)) if name == target else text)
            argv += [flag, str(root / name)]
        out = root / "out"
        out.mkdir()
        earlier = {name: b"earlier " + name.encode() for name in outputs}
        for name, text in earlier.items():
            (out / name).write_bytes(text)
        if earlier:
            argv += ["--out", str(out)]
        rc, _, err = run_cli(*argv)
        written = {p.name: p.read_bytes() for p in out.iterdir()}
    if rc == 0:
        assert "E:" not in err
        assert written.keys() == earlier.keys()
        assert all(written[name] != text for name, text in earlier.items())
    else:
        assert rc == 1 and re.fullmatch(r"E:(tree|format|io|train|invalid):[^\n]*\n", err), err
        assert written == earlier

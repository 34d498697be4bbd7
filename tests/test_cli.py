"""Command-line behavior: outputs, written artifacts, error codes."""
from __future__ import annotations

import contextlib
import io
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from hiertune import PromptParams, SampleSet, cli, load_tree
from hiertune.fileio import load_params, load_samples, write_params, write_samples

from helpers import DEMO_DOC


def run_cli(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue()


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
    # Sample files and embedding tables are read a line at a time, so a
    # fault on a line before the bad byte is the one reported.
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
        patch.setattr(cli, "write_train_log", render_fails)
        rc, _, err = run_cli(*args)
    assert (rc, err) == (1, "E:train:render failed\n")
    assert not (run / "params.txt").exists()

    run.mkdir()
    (run / "params.txt").write_text("earlier", encoding="utf-8")
    write_text = Path.write_text

    def disk_full(path, text, *rest, **kw):
        if "train_log" in path.name:
            raise OSError(28, "No space left on device")
        return write_text(path, text, *rest, **kw)

    with monkeypatch.context() as patch:
        patch.setattr(Path, "write_text", disk_full)
        rc, _, err = run_cli(*args)
    assert rc == 1 and err.startswith("E:io:")
    assert [p.name for p in run.iterdir()] == ["params.txt"]
    assert (run / "params.txt").read_text(encoding="utf-8") == "earlier"

    rc, _, _ = run_cli(*args)
    assert rc == 0
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
    ]
    for command in commands:
        rc, out, err = run_cli(*command, "--seed", seed)
        assert rc == 1
        assert err.startswith("E:invalid:seed must be in [0, 2**64)")
    assert not (tmp_path / "run").exists() and not (tmp_path / "eval").exists()


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


def test_sample_cuts_rejects_bad_rate(demo_path):
    rc, _, err = run_cli("sample-cuts", "--tree", str(demo_path), "--beta", "1.5")
    assert rc == 1
    assert err.startswith("E:invalid:")


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


def test_subcommand_is_required():
    with pytest.raises(SystemExit) as excinfo:
        run_cli()
    assert excinfo.value.code == 2


def test_module_entry_point(demo_path):
    proc = subprocess.run(
        [sys.executable, "-m", "hiertune.cli", "validate", "--tree", str(demo_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "7 nodes, 4 leaves, 3 internal\n"

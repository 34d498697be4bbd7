"""Tests of the benchmark's own parts: span arithmetic, patching, generator."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
SRC = BENCH.parent / "src"
sys.path[:0] = [str(BENCH), str(SRC)]

import genlarge  # noqa: E402
import run  # noqa: E402
from hiertune import fileio, load_tree  # noqa: E402
from spans import SpanRecorder, SpanTable  # noqa: E402


def table(rows, counters=()):
    """Spans from (name, start, end, parent) rows."""
    names = sorted({r[0] for r in rows})
    return SpanTable(
        names,
        [names.index(r[0]) for r in rows],
        [r[1] for r in rows],
        [r[2] for r in rows],
        [r[3] for r in rows],
        [False] * len(rows),
        counters,
    )


def test_self_time_subtracts_direct_children_only():
    spans = table([
        ("root", 0, 100, -1),
        ("a", 10, 30, 0),
        ("b", 40, 90, 0),
        ("a", 50, 60, 2),
    ])
    assert spans.self_ns().tolist() == [30, 20, 40, 10]
    # Self times of a tree of spans add up to the top span's duration.
    assert spans.self_ns().sum() == 100
    assert spans.calls("a") == 2
    assert spans.self_s("a") == pytest.approx(30e-9)
    assert spans.calls_under("a", "b") == 1
    assert spans.calls_under("a", "root") == 1
    assert spans.calls("missing") == 0 and spans.self_s("missing") == 0.0
    assert spans.first_start_ns() == 0


def test_recorder_nests_marks_raises_and_round_trips(tmp_path):
    rec = SpanRecorder()

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x

    inner_w = rec.wrap("inner", inner)

    def outer(xs):
        total = 0
        for x in xs:
            try:
                total += inner_w(x)
            except ValueError:
                pass
        return total

    outer_w = rec.wrap("outer", outer, lambda r, result: r.count("sum", result))
    assert outer_w([1, -2, 3]) == 4
    assert outer_w([5]) == 5

    path = tmp_path / "spans.npz"
    rec.save(path)
    spans = SpanTable.load(path)
    names = [spans.names[i] for i in spans.name_id]
    assert names == ["outer", "inner", "inner", "inner", "outer", "inner"]
    assert spans.parent.tolist() == [-1, 0, 0, 0, -1, 4]
    assert spans.raised.tolist() == [False, False, True, False, False, False]
    assert spans.counters == {"sum": 9}
    assert (spans.end >= spans.start).all()
    self_ns = spans.self_ns()
    assert (self_ns >= 0).all()
    assert self_ns[:4].sum() == spans.end[0] - spans.start[0]


def test_traced_command_wraps_every_lookup_site(tmp_path):
    out = tmp_path / "spans.npz"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "traced.py"), str(out), "cli", "gen-synth",
         "--leaves", "4", "--depth", "2", "--dim", "6", "--per-leaf", "2",
         "--seed", "0", "--out", str(tmp_path / "data")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    spans = SpanTable.load(out)
    # cli looks up gen_synth; synth looks up load_tree and write_samples.
    assert spans.calls("synth.gen_synth") == 1
    assert spans.calls_under("taxonomy.load_tree", "synth.gen_synth") == 1
    assert spans.calls_under("fileio.write_samples", "synth.gen_synth") == 1
    assert not spans.any_raised()


def test_genlarge_is_seed_deterministic_and_loads():
    first = genlarge.generate(3)
    assert first == genlarge.generate(3)
    other = genlarge.generate(4)
    # The seed moves the samples only; the shape stays put.
    assert other["tree.txt"] == first["tree.txt"]
    assert other["embeddings.tsv"] == first["embeddings.tsv"]
    assert other["train.tsv"] != first["train.tsv"]
    assert other["heldout.tsv"] != first["heldout.tsv"]

    tree = load_tree(first["tree.txt"])
    assert tree.n_nodes == genlarge.INTERNAL + genlarge.LEAVES
    assert len(tree.leaf_nodes) == genlarge.LEAVES
    assert len(tree.internal_nodes) == genlarge.INTERNAL
    table = fileio.load_embeddings(first["embeddings.tsv"], tree)
    assert table.dim == genlarge.DIM
    train = fileio.load_samples(first["train.tsv"], tree)
    heldout = fileio.load_samples(first["heldout.tsv"], tree)
    assert len(train) == genlarge.TRAIN_PER_LEAF * genlarge.LEAVES
    assert len(heldout) == genlarge.HELDOUT_PER_LEAF * genlarge.LEAVES
    # Loading and writing back reproduces the generated bytes.
    assert fileio.write_samples(heldout, tree, table.dim) == first["heldout.tsv"]


def test_genlarge_cli_writes_the_generated_documents(tmp_path):
    assert genlarge.main(["--seed", "5", "--out", str(tmp_path)]) == 0
    docs = genlarge.generate(5)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(docs)
    for name, text in docs.items():
        assert (tmp_path / name).read_text(encoding="utf-8") == text


def test_probe_runs_silently():
    proc = subprocess.run([sys.executable, str(BENCH / "probe.py")],
                          capture_output=True, timeout=120)
    assert proc.returncode == 0 and proc.stdout == proc.stderr == b""


def test_end_to_end_times_are_scaled_by_the_mean_probe():
    report = {"leaf_acc": 0.9, "hca": 0.8, "mta": 0.85}
    probes = [run.PROBE_REFERENCE_S * k for k in (1.0, 2.0, 3.0)]
    its = [run.Iteration(setup_s=1.0 * k, train_s=2.0 * k, eval_s=4.0 * k, peak_rss_mb=10.0,
                         probe_s=probes, report=report) for k in (1, 2, 3)]
    metrics = run.end_to_end(its, attempted=9, failed=0)
    # Mean wall times 2, 4 and 8 s on a machine that runs the probe at half speed.
    assert metrics["setup_s"]["value"] == pytest.approx(1.0)
    assert metrics["train_s"]["value"] == pytest.approx(2.0)
    assert metrics["eval_s"]["value"] == pytest.approx(4.0)
    assert metrics["peak_rss_mb"]["value"] == 10.0
    assert metrics["ok_ops"]["value"] == 1.0

"""End-to-end acceptance gate.

Each test prints one ``ACCEPTANCE <n> <name>: PASS`` or ``... FAIL`` line
so the run transcript shows the verdict per criterion. The desk-scale
fixture (two trainings plus three evaluations) is built once per module
and shared by the criteria that interrogate it.
"""
from __future__ import annotations

import contextlib
import itertools
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np
import pytest

from hiertune import (
    MetricsReport,
    PromptParams,
    Rng64,
    TrainConfig,
    build_matrices,
    correct_flags,
    blocked_mask,
    cut_from_flags,
    enumerate_treecuts,
    evaluate,
    gen_synth,
    gradient_check,
    hca,
    leaf_accuracy,
    load_tree,
    mta,
    sample_treecut,
    train,
)
from hiertune.fileio import load_embeddings, load_samples

import oracle
from helpers import (
    demo_tree,
    names_of,
    noisy_samples,
    random_params,
    random_table,
    random_tree,
)


@contextlib.contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS")


def assert_valid_cut(tree, members) -> None:
    """Independent antichain + exactly-once cover check."""
    assert list(members) == sorted(members)
    mset = set(members)
    assert tree.root not in mset
    for m in members:
        assert not (set(tree.ancestors(m)) & mset)
    for leaf in tree.leaf_nodes:
        assert len(({leaf} | set(tree.ancestors(leaf))) & mset) == 1


# --------------------------------------------------------------- fixture


@dataclass(frozen=True)
class DeskRuns:
    zero_shot: MetricsReport
    baseline: MetricsReport
    hierarchy: MetricsReport
    elapsed: float


@pytest.fixture(scope="module")
def desk_runs() -> DeskRuns:
    start = time.perf_counter()
    tree_txt, emb_txt, samples_txt = gen_synth(
        leaves=27, depth=3, dim=64, per_leaf=60, noise=0.6, seed=0
    )
    tree = load_tree(tree_txt)
    table = load_embeddings(emb_txt, tree)
    pool = load_samples(samples_txt, tree)
    train_set = pool.take([i for i in range(len(pool)) if i % 60 < 30])
    test_set = pool.take([i for i in range(len(pool)) if i % 60 >= 30])
    assert len(train_set) == len(test_set) == 27 * 30

    betas = (0.1, 0.3, 0.5, 0.7, 0.9)
    shared = dict(epochs=200, batch_size=128, base_lr=0.02, seed=0, tau=0.07)
    params_a, _ = train(
        TrainConfig(lam=0.0, beta=0.0, **shared), tree, table, train_set
    )
    params_b, _ = train(
        TrainConfig(lam=0.5, beta=0.1, **shared), tree, table, train_set
    )
    reports = tuple(
        evaluate(tree, p, table, test_set, betas, cuts_per_beta=5, seed=0)
        for p in (PromptParams.identity(64, 0.07), params_a, params_b)
    )
    return DeskRuns(
        zero_shot=reports[0],
        baseline=reports[1],
        hierarchy=reports[2],
        elapsed=time.perf_counter() - start,
    )


# --------------------------------------------------------------- criteria


def test_worked_example_fidelity():
    with criterion(1, "worked-example-fidelity"):
        start = time.perf_counter()
        tree = demo_tree()
        bundle = build_matrices(tree)
        flags = correct_flags(np.array([1, 0, 0]), bundle)
        np.testing.assert_array_equal(blocked_mask(flags, bundle), [0, 1, 1, 2, 2, 0])
        cut = cut_from_flags(tree, bundle, flags)
        assert names_of(tree, cut.members) == ("n1", "n6")
        cuts = {names_of(tree, c.members) for c in enumerate_treecuts(tree)}
        assert cuts == {
            ("n1", "n6"),
            ("n2", "n3", "n6"),
            ("n3", "n4", "n5", "n6"),
        }
        assert time.perf_counter() - start < 1.0


def test_sampler_oracle_equivalence():
    with criterion(2, "sampler-oracle-equivalence"):
        start = time.perf_counter()
        rng = Rng64(20_24)
        for _ in range(200):
            tree = random_tree(rng, max_internal=12, max_nodes=40)
            assert len(tree.internal_nodes) <= 12 and tree.n_nodes <= 40
            bundle = build_matrices(tree)
            k = len(bundle.internal_nodes)
            image = set()
            for tail in itertools.product((0, 1), repeat=k - 1):
                flags = correct_flags(np.array((1,) + tail, dtype=np.int64), bundle)
                image.add(cut_from_flags(tree, bundle, flags).members)
            oracle = {c.members for c in enumerate_treecuts(tree)}
            assert image == oracle
            for members in image:
                assert_valid_cut(tree, members)
        assert time.perf_counter() - start < 30.0


def test_degenerate_rate_guarantees():
    with criterion(3, "degenerate-rate-guarantees"):
        rng = Rng64(33)
        for _ in range(50):
            tree = random_tree(rng)
            bundle = build_matrices(tree)
            for seed in range(10):
                low = sample_treecut(tree, bundle, 0.0, Rng64(seed))
                assert low.members == tree.leaf_nodes
                high = sample_treecut(tree, bundle, 1.0, Rng64(seed))
                assert high.members == tree.children[tree.root]


def test_gradient_correctness():
    with criterion(4, "gradient-correctness"):
        start = time.perf_counter()
        rng = Rng64(4004)
        for instance in range(20):
            dim = 4 + oracle.next_below(rng, 29)  # 4..32
            batch_n = 1 + oracle.next_below(rng, 16)  # 1..16
            lam = (0.0, 0.5, 1.0)[instance % 3]
            tree = random_tree(rng, max_internal=5, max_nodes=16)
            table = random_table(tree, dim, seed=instance)
            pool = noisy_samples(tree, table, per_leaf=3, sigma=0.5, seed=instance)
            batch = pool.take(list(range(min(batch_n, len(pool)))))
            bundle = build_matrices(tree)
            cut = sample_treecut(tree, bundle, 0.5, Rng64(instance))
            randomized = random_params(dim, tau=0.4, seed=instance + 100)
            assert gradient_check(tree, randomized, table, cut, batch, lam) <= 1e-4
            identity = PromptParams.identity(dim, 0.4)
            assert gradient_check(tree, identity, table, cut, batch, lam) <= 1e-6
        assert time.perf_counter() - start < 60.0


def test_metric_invariants(desk_runs: DeskRuns):
    with criterion(5, "metric-invariants"):
        rng = Rng64(55)
        for trial in range(10):
            tree = random_tree(rng, max_internal=6, max_nodes=20)
            table = random_table(tree, 8, seed=trial)
            params = random_params(8, tau=0.4, seed=trial + 60)
            data = noisy_samples(tree, table, per_leaf=3, sigma=0.7, seed=trial)
            leaf = leaf_accuracy(tree, params, table, data)
            assert hca(tree, params, table, data) <= leaf
            pooled, _ = mta(
                tree, params, table, data, betas=(0.0,), cuts_per_beta=3, seed=trial
            )
            assert pooled == leaf

        flat = load_tree("r\t-\na\tr\nb\tr\nc\tr\nd\tr\n")
        table = random_table(flat, 6, seed=5)
        params = random_params(6, tau=0.3, seed=6)
        data = noisy_samples(flat, table, per_leaf=6, sigma=1.0, seed=7)
        report = evaluate(
            flat, params, table, data, betas=(0.0, 0.5, 1.0), cuts_per_beta=3, seed=1
        )
        assert report.hca == report.leaf_acc == report.mta

        for run in (desk_runs.zero_shot, desk_runs.baseline, desk_runs.hierarchy):
            assert run.hca <= run.leaf_acc


def test_desk_scale_gains(desk_runs: DeskRuns):
    with criterion(6, "desk-scale-gains"):
        a, b = desk_runs.baseline, desk_runs.hierarchy
        assert b.hca >= a.hca + 0.05
        assert b.mta >= a.mta
        assert b.leaf_acc >= a.leaf_acc - 0.02
        # Anchor the regime so the directional claims cannot pass
        # vacuously (e.g. with every score saturated at 1.0).
        assert abs(a.hca - 0.479) < 0.05
        assert abs(b.hca - 0.944) < 0.05
        assert abs(b.leaf_acc - 0.959) < 0.05
        assert desk_runs.elapsed < 300.0


def test_post_training_ordering(desk_runs: DeskRuns):
    with criterion(7, "post-training-ordering"):
        b = desk_runs.hierarchy
        assert b.mta >= b.leaf_acc


def test_determinism_of_cli_artifacts(tmp_path):
    with criterion(8, "determinism"):
        def cli(*argv: str) -> None:
            proc = subprocess.run(
                [sys.executable, "-m", "hiertune.cli", *argv],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr

        data = tmp_path / "data"
        cli(
            "gen-synth", "--out", str(data), "--leaves", "4", "--depth", "2",
            "--dim", "8", "--per-leaf", "6", "--noise", "0.4", "--seed", "0",
        )
        inputs = (
            "--tree", str(data / "tree.txt"),
            "--emb", str(data / "embeddings.tsv"),
            "--samples", str(data / "samples.tsv"),
        )
        for run in ("run_a", "run_b"):
            cli(
                "train", *inputs, "--out", str(tmp_path / run),
                "--epochs", "5", "--batch-size", "8", "--seed", "3",
            )
        for artifact in ("params.txt", "train_log.tsv"):
            assert (tmp_path / "run_a" / artifact).read_bytes() == (
                tmp_path / "run_b" / artifact
            ).read_bytes()

        for run in ("eval_a", "eval_b"):
            cli(
                "eval", *inputs, "--params", str(tmp_path / "run_a" / "params.txt"),
                "--out", str(tmp_path / run), "--seed", "9",
            )
        for artifact in ("report.tsv", "report_cuts.tsv"):
            assert (tmp_path / "eval_a" / artifact).read_bytes() == (
                tmp_path / "eval_b" / artifact
            ).read_bytes()

"""SGD loop mechanics: schedule, shot filtering, determinism, descent."""
from __future__ import annotations

import math

import numpy as np
import pytest

from hiertune import (
    LossValue,
    PromptParams,
    Rng64,
    SampleSet,
    TrainConfig,
    build_matrices,
    cosine_lr,
    derive_seed,
    train,
    treecut_loss,
)
from hiertune.trainer import k_shot_indices, params_digest

from helpers import demo_tree, noisy_samples, random_table

FINAL_STEP_LR = 4.934798141786878e-08  # frozen: 0.02 * 0.5 * (1 + cos(0.999 pi))


def demo_task(per_leaf: int = 10, sigma: float = 0.4, seed: int = 0):
    tree = demo_tree()
    table = random_table(tree, 6, seed=17)
    data = noisy_samples(tree, table, per_leaf=per_leaf, sigma=sigma, seed=seed)
    return tree, table, data


def test_cosine_lr_endpoints_and_frozen_value():
    assert cosine_lr(0, 1000, 0.02) == 0.02
    assert cosine_lr(500, 1000, 0.02) == 0.01
    assert cosine_lr(999, 1000, 0.02) == FINAL_STEP_LR
    assert cosine_lr(0, 1, 0.5) == 0.5


def test_cosine_lr_is_decreasing():
    rates = [cosine_lr(s, 50, 0.1) for s in range(50)]
    assert all(a > b for a, b in zip(rates, rates[1:]))


def test_cosine_lr_range_validation():
    with pytest.raises(ValueError):
        cosine_lr(0, 0, 0.02)
    with pytest.raises(ValueError):
        cosine_lr(10, 10, 0.02)
    with pytest.raises(ValueError):
        cosine_lr(-1, 10, 0.02)


def test_k_shot_keeps_first_per_leaf_in_file_order():
    data = SampleSet(
        ids=tuple("abcdefg"),
        leaf_labels=np.array([3, 4, 3, 3, 4, 6, 3]),
        features=np.arange(14, dtype=float).reshape(7, 2),
    )
    np.testing.assert_array_equal(k_shot_indices(data, 2), [0, 1, 2, 4, 5])
    np.testing.assert_array_equal(k_shot_indices(data, 1), [0, 1, 5])
    np.testing.assert_array_equal(k_shot_indices(data, 99), np.arange(7))
    with pytest.raises(ValueError):
        k_shot_indices(data, 0)


def test_train_config_validation():
    good = dict(epochs=1, batch_size=1)
    TrainConfig(**good)
    for bad in (
        dict(good, epochs=0),
        dict(good, batch_size=0),
        dict(good, base_lr=0.0),
        dict(good, lam=-0.5),
        dict(good, beta=1.5),
        dict(good, tau=0.0),
        dict(good, shots=0),
    ):
        with pytest.raises(ValueError):
            TrainConfig(**bad)
    for field in ("base_lr", "lam", "tau"):
        for value in (math.inf, math.nan):
            with pytest.raises(ValueError, match=rf"^{field} must be .* finite, got {value}$"):
                TrainConfig(**dict(good, **{field: value}))


def test_params_digest_sensitivity():
    a = PromptParams.identity(3, 0.07)
    assert params_digest(a) == params_digest(PromptParams.identity(3, 0.07))
    nudged_w = PromptParams(
        weight=a.weight + np.eye(3) * 1e-15, bias=a.bias, tau=a.tau
    )
    nudged_b = PromptParams(weight=a.weight, bias=a.bias + 1e-15, tau=a.tau)
    other_tau = PromptParams(weight=a.weight, bias=a.bias, tau=0.08)
    digests = {params_digest(p) for p in (a, nudged_w, nudged_b, other_tau)}
    assert len(digests) == 4


def test_plain_baseline_equals_handrolled_sgd():
    # With lam=0 and beta=0 every iteration must reduce to leaf-level
    # cross-entropy SGD: same shuffles, same schedule, same updates.
    tree, table, data = demo_task(per_leaf=6)
    config = TrainConfig(
        epochs=4, batch_size=8, base_lr=0.05, lam=0.0, beta=0.0, seed=9, tau=0.1
    )
    got, log = train(config, tree, table, data)

    bundle = build_matrices(tree)
    n = len(data)
    per_epoch = math.ceil(n / config.batch_size)
    total_steps = config.epochs * per_epoch
    cut_rng = Rng64(config.seed)
    leaf_cut = tree.treecut_label_set(tree.leaf_nodes)
    weight, bias = np.eye(table.dim), np.zeros(table.dim)
    step = 0
    for epoch in range(config.epochs):
        order = list(range(n))
        Rng64(derive_seed(config.seed, epoch + 1)).shuffle(order)
        for b in range(per_epoch):
            chunk = order[b * config.batch_size : (b + 1) * config.batch_size]
            lr = cosine_lr(step, total_steps, config.base_lr)
            for _ in range(len(bundle.internal_nodes) - 1):
                cut_rng.next_unit()  # the cut stream still advances at beta=0
            params = PromptParams(weight=weight, bias=bias, tau=config.tau)
            loss = treecut_loss(tree, params, table, leaf_cut, data.take(chunk))
            weight = weight - lr * loss.grad_weight
            bias = bias - lr * loss.grad_bias
            step += 1

    np.testing.assert_array_equal(got.weight, weight)
    np.testing.assert_array_equal(got.bias, bias)
    assert log.params_digest == params_digest(
        PromptParams(weight=weight, bias=bias, tau=config.tau)
    )
    assert all(rec.ncl == 0.0 for rec in log.records)
    assert all(rec.cut_size == 4 for rec in log.records)


def test_training_descends_on_noisy_task():
    tree, table, data = demo_task(per_leaf=10)
    config = TrainConfig(epochs=30, batch_size=16, base_lr=0.02, lam=0.5, beta=0.1)
    params, log = train(config, tree, table, data)
    assert len(log.records) == 30 * math.ceil(len(data) / 16)
    assert log.records[-1].total < log.records[0].total
    assert all(math.isfinite(rec.total) for rec in log.records)
    assert [rec.iteration for rec in log.records] == list(range(len(log.records)))


def test_log_records_schedule_and_cut_sizes():
    tree, table, data = demo_task(per_leaf=4)
    config = TrainConfig(epochs=3, batch_size=8, base_lr=0.02, lam=0.5, beta=0.5, seed=1)
    _, log = train(config, tree, table, data)
    total_steps = len(log.records)
    for rec in log.records:
        assert rec.lr == cosine_lr(rec.iteration, total_steps, config.base_lr)
        assert 2 <= rec.cut_size <= len(tree.leaf_nodes)
        assert rec.total == rec.dtl + config.lam * rec.ncl


def test_training_is_deterministic_and_seed_sensitive():
    tree, table, data = demo_task(per_leaf=5)
    config = TrainConfig(epochs=5, batch_size=8, seed=3)
    first, log_a = train(config, tree, table, data)
    second, log_b = train(config, tree, table, data)
    np.testing.assert_array_equal(first.weight, second.weight)
    np.testing.assert_array_equal(first.bias, second.bias)
    assert log_a.params_digest == log_b.params_digest
    assert log_a.records == log_b.records

    reseeded = TrainConfig(epochs=5, batch_size=8, seed=4)
    third, log_c = train(reseeded, tree, table, data)
    assert log_c.params_digest != log_a.params_digest


def test_embeddings_are_frozen_by_training():
    tree, table, data = demo_task(per_leaf=5)
    before = table.vectors.tobytes()
    train(TrainConfig(epochs=3, batch_size=8), tree, table, data)
    assert table.vectors.tobytes() == before


def test_shot_limit_matches_manual_subset():
    tree, table, data = demo_task(per_leaf=6)
    limited = TrainConfig(epochs=4, batch_size=4, shots=2, seed=5)
    unlimited = TrainConfig(epochs=4, batch_size=4, seed=5)
    _, log_shots = train(limited, tree, table, data)
    subset = data.take(k_shot_indices(data, 2))
    _, log_manual = train(unlimited, tree, table, subset)
    assert log_shots.params_digest == log_manual.params_digest


def test_train_input_validation():
    tree, table, data = demo_task(per_leaf=3)
    empty = SampleSet(ids=(), leaf_labels=np.zeros(0, np.int64), features=np.zeros((0, 6)))
    with pytest.raises(ValueError, match="no training samples"):
        train(TrainConfig(epochs=1, batch_size=1), tree, table, empty)
    short = random_table(tree, 4, seed=0)  # table dim 4 vs feature dim 6
    with pytest.raises(ValueError):
        train(TrainConfig(epochs=1, batch_size=4), tree, short, data)


def test_non_finite_loss_aborts(monkeypatch):
    from hiertune import trainer as trainer_mod

    tree, table, data = demo_task(per_leaf=3)
    blown = LossValue(float("inf"), np.zeros((6, 6)), np.zeros(6), len(data))
    monkeypatch.setattr(trainer_mod, "total_loss", lambda *a, **k: (blown, blown, blown))
    with pytest.raises(RuntimeError, match="non-finite"):
        train(TrainConfig(epochs=1, batch_size=4), tree, table, data)


@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_each_step_checks_its_cut_once(monkeypatch, lam):
    # The sampler checks every cut it builds; the loss does not check the
    # trainer's cuts again.
    from hiertune.taxonomy import TaxonomyTree

    checks = []
    check = TaxonomyTree.treecut_label_set

    def counted(self, members):
        checks.append(members)
        return check(self, members)

    monkeypatch.setattr(TaxonomyTree, "treecut_label_set", counted)
    tree, table, data = demo_task(per_leaf=4)
    config = TrainConfig(epochs=2, batch_size=8, lam=lam, beta=0.5, seed=1)
    _, log = train(config, tree, table, data)
    assert len(checks) == len(log.records)

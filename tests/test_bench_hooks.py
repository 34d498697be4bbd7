"""The benchmark's hooks into the package must hold.

``perfbench/traced.py`` wraps package functions by module and attribute
path. A rename in the package would otherwise surface only as a crash of
a traced benchmark run, so every entry is resolved here. ``perfbench/run.py``
checks each ``train`` output with the package's own loader and digest, so
that check is run here on a real ``train`` output. The traced ``gen-synth``
must meet the spans it records, ``train`` must call the traced
``objectives.total_loss`` once per step, and ``perfbench/genlarge.py``,
which calls the package's writers, must keep its bytes.
"""
from __future__ import annotations

import contextlib
import hashlib
import importlib
import importlib.util
import io
import sys
from pathlib import Path

from hiertune import cli, trainer

from helpers import demo_tree, noisy_samples, random_table

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACED_PY = PERFBENCH / "traced.py"
RUN_PY = PERFBENCH / "run.py"
GENLARGE_PY = PERFBENCH / "genlarge.py"


def load_by_path(name: str, path: Path, monkeypatch):
    """The module at ``path``, registered as ``name`` until the test ends."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # traced.py prepends to it
    traced = load_by_path("perfbench_traced", TRACED_PY, monkeypatch)
    assert traced.TRACED
    for span, (module, attr, _) in traced.TRACED.items():
        owner = importlib.import_module(module)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{span}: {module}.{attr} does not resolve"
            owner = getattr(owner, part)
        assert callable(owner), span
    for module in traced.CALLERS:
        importlib.import_module(module)


def test_benchmark_train_check_accepts_a_real_train_output(tmp_path, monkeypatch):
    # run.py sets the BLAS thread variables and imports its sibling
    # ``spans`` when it loads; both are undone after the test.
    monkeypatch.setattr(sys, "path", [str(PERFBENCH), *sys.path])
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(name, "1")
    run = load_by_path("perfbench_run", RUN_PY, monkeypatch)
    data, out = tmp_path / "data", tmp_path / "run"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([
            "gen-synth", "--out", str(data), "--leaves", "4", "--depth", "2",
            "--dim", "8", "--per-leaf", "6", "--noise", "0.4", "--seed", "0",
        ]) == 0
        assert cli.main([
            "train", "--tree", str(data / "tree.txt"), "--emb", str(data / "embeddings.tsv"),
            "--samples", str(data / "samples.tsv"), "--out", str(out), "--epochs", "2",
        ]) == 0
    assert run.check_train(out) is None


def test_gen_synth_runs_through_the_traced_functions(tmp_path, monkeypatch):
    # traced.py wraps each function under every module attribute that holds
    # it, and times gen-synth as gen_synth with load_tree and write_samples
    # inside it; a gen-synth that skips one of them fails the traced run.
    monkeypatch.setattr(sys, "path", list(sys.path))
    traced = load_by_path("perfbench_traced", TRACED_PY, monkeypatch)
    callers = [importlib.import_module(m) for m in traced.CALLERS]
    calls: list[tuple[str, tuple[str, ...]]] = []  # a span, and the spans it ran inside
    running: list[str] = []

    def counted(span, function):
        def wrapper(*args, **kwargs):
            calls.append((span, tuple(running)))
            running.append(span)
            try:
                return function(*args, **kwargs)
            finally:
                running.pop()
        return wrapper

    for span in ("synth.gen_synth", "taxonomy.load_tree", "fileio.write_samples"):
        module, attr, _ = traced.TRACED[span]
        original = getattr(importlib.import_module(module), attr)
        wrapped = counted(span, original)
        for mod in callers:
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, wrapped)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([
            "gen-synth", "--out", str(tmp_path), "--leaves", "4", "--depth", "2",
            "--dim", "6", "--per-leaf", "2", "--seed", "0",
        ]) == 0
    assert calls == [
        ("synth.gen_synth", ()),
        ("taxonomy.load_tree", ("synth.gen_synth",)),
        ("fileio.write_samples", ("synth.gen_synth",)),
    ]


def test_train_calls_the_traced_total_loss_once_per_step(monkeypatch):
    # run.py takes the median of a traced run's objectives.total_loss spans,
    # which raises on none, so a train that skips total_loss fails every
    # traced run. Wrapped where traced.py wraps it, it runs once per record.
    monkeypatch.setattr(sys, "path", list(sys.path))
    traced = load_by_path("perfbench_traced", TRACED_PY, monkeypatch)
    callers = [importlib.import_module(m) for m in traced.CALLERS]
    module, attr, _ = traced.TRACED["objectives.total_loss"]
    original = getattr(importlib.import_module(module), attr)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    holders = [(mod, key) for mod in callers for key, value in vars(mod).items()
               if value is original]
    assert ("hiertune.trainer", "total_loss") in {(mod.__name__, key) for mod, key in holders}
    for mod, key in holders:
        monkeypatch.setattr(mod, key, counted)
    tree = demo_tree()  # four leaves
    table = random_table(tree, 6, seed=70)
    data = noisy_samples(tree, table, per_leaf=3, sigma=0.6, seed=71)
    for lam in (0.0, 0.5):  # the treecut alone, and both losses
        calls.clear()
        config = trainer.TrainConfig(epochs=2, batch_size=5, lam=lam)
        _, log = trainer.train(config, tree, table, data)
        assert len(log.records) == 6 and len(calls) == len(log.records)


def test_genlarge_bytes_are_frozen(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # genlarge.py prepends to it
    genlarge = load_by_path("perfbench_genlarge", GENLARGE_PY, monkeypatch)
    digests = {name: hashlib.sha256(text.encode()).hexdigest()
               for name, text in genlarge.generate(0).items()}
    assert digests == {
        "tree.txt": "aed785637712ffc52ef547fb74fda18053313c4a530b60a97c2b9f8882230336",
        "embeddings.tsv": "3ad34ec46f23aa00aec9175dad13be5ac9a9d459ae2784929fe2a0670ced6802",
        "train.tsv": "fe55c15f71bb526cff9cb9af6678f844734b707739c299ee1b57dddd443912b4",
        "heldout.tsv": "308f83f2fcdd1eac95e26eeb3367c3b2ccac59f5b7ab8b783a383460b9ef0914",
    }

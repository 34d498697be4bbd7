"""hiertune benchmark: closed-loop CLI workloads with output checks.

Usage::

    python3 perfbench/run.py --workload mid-train --seed 0 --seconds 40 --trace 0

One client runs a loop of iterations. Each iteration is the real command
line in sequence: the set-up commands that write the inputs, then
``hiertune train``, then ``hiertune eval``. Every command is its own child
process, and the next starts only after the previous one has exited. The
loop keeps starting iterations while the next one should end within
``--seconds``, with at least ``MIN_ITERATIONS``. Timings are scaled by the
machine-speed probe (``probe.py``) that runs before each role's commands:
each reported time is its mean wall time over the iterations times
``PROBE_REFERENCE_S / mean probe wall time`` over the same iterations.

With ``--trace 0`` the last line holds the end-to-end metrics. With
``--trace 1`` traced and untraced iterations alternate, and the last line
holds the per-layer metrics from the spans that ``traced.py`` records.

Every command's output is checked; see ``check_*`` below. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

# One BLAS thread in this process and in every child (they inherit the
# environment): with the library default, one per core, the idle worker
# spins against the Python thread on a 2-core machine. Set before numpy
# loads, so that ``environment()`` reports what the children use.
SINGLE_THREADED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(SINGLE_THREADED, "1"))

from spans import SpanTable  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MIN_ITERATIONS = 3
# Median wall time of one ``probe.py`` child on the 2-core KVM guest the
# benchmark was tuned on (Python 3.11, numpy 2.4, one OpenBLAS thread).
# Reported times are seconds at that machine speed.
PROBE_REFERENCE_S = 0.55
# A command that runs longer than this is killed and counted as failed, so
# one run always ends well inside its time limit.
COMMAND_TIMEOUT_S = 120.0

MID_SHAPE = ("--leaves", "216", "--depth", "3", "--dim", "260", "--noise", "1.2")
ALL_RATES = "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9"


@dataclass(frozen=True)
class Step:
    """One command of an iteration.

    ``target`` is ``cli`` (``python3 -m hiertune.cli``) or ``genlarge``;
    ``out`` is the directory, relative to the iteration directory, that
    holds everything the command writes.
    """

    role: str
    target: str
    args: tuple[str, ...]
    out: str


def _train_eval(d: Path, seed: int, data: str, train: str, heldout: str,
                train_flags: tuple[str, ...], rates: str, cuts: int) -> list[Step]:
    inputs = ("--tree", f"{d}/{data}/tree.txt", "--emb", f"{d}/{data}/embeddings.tsv")
    return [
        Step("train", "cli", (
            "train", *inputs, "--samples", f"{d}/{train}", "--out", f"{d}/run",
            *train_flags, "--seed", str(seed)), "run"),
        Step("eval", "cli", (
            "eval", *inputs, "--samples", f"{d}/{heldout}",
            "--params", f"{d}/run/params.txt", "--out", f"{d}/report",
            "--betas", rates, "--T", str(cuts), "--seed", str(seed)), "report"),
    ]


def _gen_synth(d: Path, out: str, per_leaf: int, seed: int) -> Step:
    return Step("setup", "cli", (
        "gen-synth", *MID_SHAPE, "--per-leaf", str(per_leaf), "--seed", str(seed),
        "--out", f"{d}/{out}"), out)


def mid_train(d: Path, seed: int) -> list[Step]:
    return [
        _gen_synth(d, "train", 10, seed),
        _gen_synth(d, "heldout", 5, seed + 1),
        *_train_eval(d, seed, "train", "train/samples.tsv", "heldout/samples.tsv",
                     ("--epochs", "3"), "0.1,0.3,0.5,0.7,0.9", 5),
    ]


def mid_eval_wide(d: Path, seed: int) -> list[Step]:
    return [
        _gen_synth(d, "train", 5, seed),
        _gen_synth(d, "heldout", 10, seed + 1),
        *_train_eval(d, seed, "train", "train/samples.tsv", "heldout/samples.tsv",
                     ("--epochs", "10", "--lambda", "0", "--beta", "0"), ALL_RATES, 10),
    ]


def large_unbalanced(d: Path, seed: int) -> list[Step]:
    return [
        Step("setup", "genlarge", ("--seed", str(seed), "--out", f"{d}/data"), "data"),
        *_train_eval(d, seed, "data", "data/train.tsv", "data/heldout.tsv",
                     ("--epochs", "1"), "0.1,0.3,0.5,0.7,0.9", 5),
    ]


WORKLOADS = {
    "mid-train": mid_train,
    "mid-eval-wide": mid_eval_wide,
    "large-unbalanced": large_unbalanced,
}


# ------------------------------------------------------------- processes

@dataclass
class Outcome:
    rc: int
    wall_s: float
    maxrss_mb: float
    spawn_ns: int


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def command(step: Step, spans: Path | None) -> list[str]:
    if spans is not None:
        return [sys.executable, str(HERE / "traced.py"), str(spans), step.target, *step.args]
    if step.target == "cli":
        return [sys.executable, "-m", "hiertune.cli", *step.args]
    return [sys.executable, str(HERE / "genlarge.py"), *step.args]


def spawn(argv: list[str], log: Path, env: dict[str, str]) -> Outcome:
    """Run one child to completion; time it from spawn to exit.

    ``os.wait4`` reaps the child, which gives its own peak resident set.
    """
    with open(log, "wb") as sink:
        spawn_ns = time.monotonic_ns()
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=sink, stderr=subprocess.STDOUT, env=env,
                                cwd=ROOT)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(proc.returncode, wall, usage.ru_maxrss / 1024.0, spawn_ns)


# ---------------------------------------------------------------- checks

def sha256_tree(directory: Path) -> dict[str, str]:
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*")) if p.is_file()
    }


def check_train(run_dir: Path) -> str | None:
    """The logged digest must be the digest of the written parameters."""
    from hiertune.fileio import load_params
    from hiertune.trainer import params_digest

    log = (run_dir / "train_log.tsv").read_text(encoding="utf-8")
    logged = [ln.split()[-1] for ln in log.splitlines() if ln.startswith("# params_digest")]
    params = load_params((run_dir / "params.txt").read_text(encoding="utf-8"))
    if logged != [params_digest(params)]:
        return f"params_digest {logged} does not match params.txt"
    return None


def read_report(report_dir: Path) -> dict[str, float]:
    rows = (report_dir / "report.tsv").read_text(encoding="utf-8").splitlines()
    fields = (ln.split("\t") for ln in rows if ln and not ln.startswith("#"))
    return {k: float(v) for k, v in fields}


def check_report(report: dict[str, float]) -> str | None:
    """hca <= leaf_acc <= 1, and every treecut accuracy lies in [0, 1]."""
    if not 0.0 <= report["hca"] <= report["leaf_acc"] <= 1.0:
        return f"expected 0 <= hca <= leaf_acc <= 1, got {report}"
    rates = {k: v for k, v in report.items() if k == "mta" or k.startswith("mta@")}
    if len(rates) < 2 or not all(0.0 <= v <= 1.0 for v in rates.values()):
        return f"treecut accuracies outside [0, 1]: {rates}"
    return None


# ------------------------------------------------------------ iterations

@dataclass
class Iteration:
    setup_s: float = 0.0
    train_s: float = 0.0
    eval_s: float = 0.0
    peak_rss_mb: float = 0.0
    probe_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    report: dict[str, float] = field(default_factory=dict)
    traced: bool = False
    layers: tuple[dict[str, float], dict[str, int], str] | None = None

    @property
    def command_s(self) -> float:
        return self.setup_s + self.train_s + self.eval_s


class Runner:
    """Runs iterations of one workload and checks every command's output."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.plan = WORKLOADS[workload]
        self.seed = seed
        self.work = work
        self.env = child_env()
        self.reference: dict[int, dict[str, str]] = {}
        self.errors: list[str] = []
        self.count = 0

    def fail(self, it: Iteration, message: str) -> None:
        it.failed += 1
        self.errors.append(message)
        print(f"check failed: {message}", file=sys.stderr)

    def iterate(self, traced: bool) -> Iteration:
        """One pass over the workload's commands.

        Untraced iterations also time the probe before each role's commands.
        """
        d = self.work / f"iter-{self.count}"
        logs = self.work / f"logs-{self.count}"
        self.count += 1
        logs.mkdir(parents=True)
        it = Iteration(traced=traced)
        spans_of: list[tuple[Outcome, Step, SpanTable]] = []
        steps = self.plan(d, self.seed)
        for i, step in enumerate(steps):
            first_of_role = i == 0 or steps[i - 1].role != step.role
            if not traced and first_of_role and not self.probe(it, logs / f"probe-{i}.log"):
                break
            spans = logs / f"spans-{i}.npz" if traced else None
            it.attempted += 1
            out = spawn(command(step, spans), logs / f"step-{i}.log", self.env)
            if out.rc != 0:
                tail = (logs / f"step-{i}.log").read_text(errors="replace")[-400:]
                self.fail(it, f"{step.role} {step.args[0]} exited {out.rc}: {tail}")
                break
            if not self.step_ok(it, i, step, d / step.out):
                break
            if step.role == "setup":
                it.setup_s += out.wall_s
            else:
                setattr(it, f"{step.role}_s", out.wall_s)
                it.peak_rss_mb = max(it.peak_rss_mb, out.maxrss_mb)
            if traced:
                spans_of.append((out, step, SpanTable.load(spans)))
        if traced and not it.failed:
            it.layers = layer_values(spans_of)
        shutil.rmtree(d, ignore_errors=True)
        shutil.rmtree(logs, ignore_errors=True)
        return it

    def probe(self, it: Iteration, log: Path) -> bool:
        """Time one machine-speed probe; it must exit 0 silently."""
        out = spawn([sys.executable, str(HERE / "probe.py")], log, self.env)
        if out.rc != 0 or log.stat().st_size:
            self.errors.append(f"probe exited {out.rc}: {log.read_text(errors='replace')[-400:]}")
            return False
        it.probe_s.append(out.wall_s)
        return True

    def step_ok(self, it: Iteration, i: int, step: Step, out_dir: Path) -> bool:
        """Output checks of one command; a failed check fails the command."""
        problem = None
        try:
            if step.role == "train":
                problem = check_train(out_dir)
            elif step.role == "eval":
                it.report = read_report(out_dir)
                problem = check_report(it.report)
        except (OSError, ValueError, KeyError) as exc:
            problem = f"{step.role} output missing or malformed: {exc}"
        digests = sha256_tree(out_dir)
        expected = self.reference.setdefault(i, digests)
        if problem is None and digests != expected:
            problem = f"{step.out}: artifacts differ from the first iteration's bytes"
        if problem is not None:
            self.fail(it, problem)
        return problem is None

    def warm_up(self) -> tuple[int, int]:
        """Compile the package's bytecode once, outside any timing."""
        tree = self.work / "warm-tree.txt"
        tree.write_text("r\t-\na\tr\nb\tr\n", encoding="utf-8")
        log = self.work / "warm.log"
        out = spawn([sys.executable, "-m", "hiertune.cli", "validate", "--tree", str(tree)],
                    log, self.env)
        ok = out.rc == 0 and log.read_text().strip() == "3 nodes, 2 leaves, 1 internal"
        if not ok:
            self.errors.append(f"warm-up validate failed: {log.read_text()[-400:]}")
        return 1, 0 if ok else 1


def run_loop(runner: Runner, seconds: float, trace: bool) -> list[Iteration]:
    """Iterate while the next iteration should end within ``seconds``.

    Traced runs alternate untraced and traced iterations, at least one each.
    """
    done: list[Iteration] = []
    least = 2 if trace else MIN_ITERATIONS
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        it = runner.iterate(trace and len(done) % 2 == 1)
        it.wall_s = time.perf_counter() - t0
        done.append(it)
        if it.failed or runner.errors:
            return done
        elapsed = time.perf_counter() - start
        typical = statistics.median(x.wall_s for x in done)
        if len(done) >= least and elapsed + typical > seconds:
            return done


# --------------------------------------------------------------- metrics

def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def machine_slowdown(its: list[Iteration]) -> float:
    """Mean probe time of these iterations relative to the reference machine's.

    Means, not medians: the commands and the probes then cover the same
    stretch of the run, so a slowdown that starts mid-run scales both.
    """
    return statistics.fmean(p for it in its for p in it.probe_s) / PROBE_REFERENCE_S


def end_to_end(its: list[Iteration], attempted: int, failed: int) -> dict[str, dict]:
    slowdown = machine_slowdown(its)
    scaled = lambda attr: statistics.fmean(getattr(it, attr) for it in its) / slowdown  # noqa: E731
    report = its[-1].report
    return {
        "setup_s": metric(scaled("setup_s"), "s"),
        "train_s": metric(scaled("train_s"), "s"),
        "eval_s": metric(scaled("eval_s"), "s"),
        "peak_rss_mb": metric(statistics.median(it.peak_rss_mb for it in its), "MB"),
        "leaf_acc": metric(report["leaf_acc"], "fraction"),
        "hca": metric(report["hca"], "fraction"),
        "mta": metric(report["mta"], "fraction"),
        "ok_ops": metric(1.0 - failed / attempted, "fraction"),
    }


SELF_TIMES = (
    "fileio.load_samples", "fileio.load_embeddings", "fileio.load_params",
    "fileio.write_params", "fileio.write_samples", "taxonomy.load_tree",
    "taxonomy.target_in", "taxonomy.treecut_label_set", "treecut.build_matrices",
    "treecut.sample_treecut", "rng.shuffle", "classifier.predict",
    "classifier.SampleSet.take", "objectives.node_centric_loss",
    "objectives.treecut_loss", "trainer.train", "metrics.leaf_accuracy",
    "metrics.hca", "metrics.mta", "synth.gen_synth",
)
CALLS = (
    "taxonomy.target_in", "taxonomy.treecut_label_set", "treecut.sample_treecut",
    "classifier.predict", "objectives.total_loss",
)
COUNTERS = ("fileio.values_parsed", "trainer.steps", "metrics.cuts_scored")


def layer_values(spans_of: list[tuple[Outcome, Step, SpanTable]]
                 ) -> tuple[dict[str, float], dict[str, int], str]:
    """Self times and exact counts of one traced iteration, over all its commands."""
    tables = [t for _, _, t in spans_of]
    startup = [
        (t.first_start_ns() - out.spawn_ns) / 1e9
        for out, step, t in spans_of
        if step.target == "cli" and len(t)
    ]
    times = {f"{n}.s": sum(t.self_s(n) for t in tables) for n in SELF_TIMES}
    times["cli.startup_s"] = statistics.median(startup)
    counts = {f"{n}.calls": sum(t.calls(n) for t in tables) for n in CALLS}
    for name in COUNTERS:
        counts[name] = sum(t.counters.get(name, 0) for t in tables)
    counts["treecut.sample_distinct.draws"] = sum(
        t.calls_under("treecut.sample_treecut", "treecut.sample_distinct") for t in tables)
    counts["treecut.sample_distinct.cuts"] = sum(
        t.counters.get("treecut.sample_distinct.cuts", 0) for t in tables)

    loss_ms = sorted(x * 1e3 for t in tables for x in t.durations_s("objectives.total_loss"))
    k = max(len(loss_ms) - 11, 0)  # the highest percentile with ten values beyond it
    times["objectives.total_loss.p50_ms"] = statistics.median(loss_ms)
    times["objectives.total_loss.tail_ms"] = loss_ms[k]
    pct = 100.0 * k / max(len(loss_ms) - 1, 1)
    return times, counts, f"tail is p{pct:.0f} of {len(loss_ms)} total_loss calls"


def per_layer(runner: Runner, its: list[Iteration]) -> dict[str, dict]:
    traced = [it for it in its if it.traced]
    plain = [it for it in its if not it.traced]
    values = [it.layers for it in traced]
    counts = values[0][1]
    for _, other, _ in values[1:]:
        if other != counts:
            runner.errors.append(f"traced counts differ between iterations: {other} != {counts}")
    print(values[0][2])

    out = {
        name: metric(statistics.median(v[0][name] for v in values),
                     "ms" if name.endswith("_ms") else "s")
        for name in sorted(values[0][0])
    }
    for name, value in sorted(counts.items()):
        if name != "treecut.sample_distinct.cuts":
            out[name] = metric(value, "count")
    draws = counts["treecut.sample_distinct.draws"]
    out["treecut.sample_distinct.yield"] = metric(
        counts["treecut.sample_distinct.cuts"] / draws if draws else 0.0, "fraction")
    out["trace.overhead_s"] = metric(
        statistics.median(it.command_s for it in traced)
        - statistics.median(it.command_s for it in plain), "s")
    return out


# ----------------------------------------------------------- environment

def openblas_threads() -> int | None:
    """Threads numpy's bundled OpenBLAS will use, as the library reports it."""
    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas_threads": openblas_threads(),
        "child_threads": {k: os.environ.get(k) for k in SINGLE_THREADED},
    }


# ------------------------------------------------------------------ main

def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="hiertune CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # Unwind on SIGTERM too, so the running child is killed and reaped and
    # the scratch directory removed.
    signal.signal(signal.SIGTERM, _terminate)
    if not (SRC / "hiertune" / "cli.py").is_file():
        print(f"error: no hiertune sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(args.workload, args.seed, work)
    try:
        attempted, failed = runner.warm_up()
        its = run_loop(runner, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    complete = [it for it in its if not it.failed]
    if args.trace and all(it.traced == complete[0].traced for it in complete):
        complete = []  # per-layer metrics need a traced and an untraced iteration
    attempted += sum(it.attempted for it in its)
    failed += sum(it.failed for it in its)
    metrics = {}
    if complete:
        metrics = (per_layer(runner, complete) if args.trace
                   else end_to_end(complete, attempted, failed))

    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {len(its)} iterations, "
          f"{attempted} commands, {failed} failed")
    for attr in ("setup_s", "train_s", "eval_s", "peak_rss_mb", "wall_s"):
        samples = ", ".join(f"{getattr(it, attr):.3f}" for it in complete if not it.traced)
        print(f"  per iteration {attr}: {samples}")
    if complete and not args.trace:
        probes = ", ".join(f"{p:.3f}" for it in complete for p in it.probe_s)
        print(f"  probe wall s: {probes}")
        print(f"  machine slowdown (mean probe / {PROBE_REFERENCE_S} s): "
              f"{machine_slowdown(complete):.4f}")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    for message in runner.errors:
        print(f"error: {message}")
    print(json.dumps({
        "correct": failed == 0 and not runner.errors and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

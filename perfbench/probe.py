"""Fixed machine-speed probe, run between the timed commands.

The host this benchmark was tuned on slows every process down by up to 2x
for minutes at a time, so wall times of the same command drift with the
host's load rather than with the code. ``run.py`` times this probe next to
each role's commands (set-up, train, eval) and scales the run's median
times by ``PROBE_REFERENCE_S / median probe time``; see the README.

The probe is a child process like the commands it calibrates: interpreter
start-up and the numpy import, dense numpy work on arrays of the
workloads' size (score matrix, softmax), then a per-node Python walk over
a tree of the ``large-unbalanced`` size (ancestor lists, dict lookups).
The numpy part alone tracked the slowdowns of ``hiertune train`` and
``eval`` on the ``mid-*`` workloads better than a pure-Python loop or
start-up alone, but not those of the Python-bound ``large-unbalanced``
training. It does not import ``hiertune``, so a change to the package
never changes the probe.

Usage::

    python3 perfbench/probe.py
"""
from __future__ import annotations

import numpy as np

DENSE_ROUNDS = 3
WALK_ROUNDS = 160
NODES = 1250


def dense() -> None:
    """Score matrix and row softmax, as in ``classifier`` and ``objectives``."""
    rng = np.random.default_rng(0)
    features = rng.standard_normal((4000, 260))
    labels = rng.standard_normal((260, 400))
    for _ in range(DENSE_ROUNDS):
        scores = np.exp(features @ labels / 10.0)
        scores /= scores.sum(axis=1, keepdims=True)
        features = features + scores[:, :260]


def walk() -> int:
    """Ancestor lists and dict lookups over a fixed random recursive tree."""
    parent = [-1] + [(v * 2654435761 >> 7) % v for v in range(1, NODES)]
    hits = 0
    for _ in range(WALK_ROUNDS):
        ancestors: dict[int, list[int]] = {0: [0]}
        for v in range(1, NODES):
            ancestors[v] = ancestors[parent[v]] + [v]
        for v in range(0, NODES, 5):
            hits += sum(1 for a in ancestors[v] if a in ancestors)
    return hits


def main() -> None:
    dense()
    walk()


if __name__ == "__main__":
    main()

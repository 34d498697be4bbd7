"""In-memory span recorder and the arithmetic that turns spans into layer times.

A span is one call of a wrapped function: its name, start and end on the
system-wide monotonic clock (so a parent process can compare them with its
own spawn times), the index of the enclosing span (-1 at top level) and
whether the call raised. Spans are appended to flat typed arrays while the
program runs and written to one ``.npz`` file when it ends.

Self time is a span's duration minus the part of it that its child spans
cover. Calls on one thread nest strictly and siblings never overlap, so the
covered part is the sum of the direct children's durations.
"""
from __future__ import annotations

import functools
import time
from array import array
from pathlib import Path
from typing import Callable

import numpy as np

clock_ns = time.monotonic_ns


class SpanRecorder:
    """Collects spans from wrapped callables and event counters by name."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.raised = array("b")
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + int(amount)

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_result: Callable[[SpanRecorder, object], None] | None = None,
    ) -> Callable:
        """``fn`` recording one span named ``name`` per call.

        ``on_result`` sees each successful call's return value, for counters
        that depend on what a call produced rather than on how it ran.
        """
        nid = self._name_id(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.raised.append(0)
            self.start.append(0)
            self.end.append(0)
            stack.append(idx)
            t0 = clock_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[idx] = 1
                raise
            finally:
                self.end[idx] = clock_ns()
                self.start[idx] = t0
                stack.pop()
            if on_result is not None:
                on_result(self, result)
            return result

        return wrapper

    def save(self, path: str | Path) -> None:
        np.savez(
            path,
            names=np.asarray(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            raised=np.frombuffer(self.raised, dtype=np.int8),
            counter_names=np.asarray(list(self.counters), dtype=str),
            counter_values=np.asarray(list(self.counters.values()), dtype=np.int64),
        )


class SpanTable:
    """Spans loaded back from a recorder file, with per-name reductions."""

    def __init__(self, names, name_id, start, end, parent, raised, counters):
        self.names = [str(n) for n in names]
        self.name_id = np.asarray(name_id, dtype=np.int64)
        self.start = np.asarray(start, dtype=np.int64)
        self.end = np.asarray(end, dtype=np.int64)
        self.parent = np.asarray(parent, dtype=np.int64)
        self.raised = np.asarray(raised, dtype=bool)
        self.counters = dict(counters)

    @classmethod
    def load(cls, path: str | Path) -> SpanTable:
        with np.load(path) as z:
            counters = zip(z["counter_names"].tolist(), z["counter_values"].tolist())
            return cls(
                z["names"], z["name_id"], z["start"], z["end"], z["parent"],
                z["raised"], counters,
            )

    def __len__(self) -> int:
        return len(self.start)

    def durations_ns(self) -> np.ndarray:
        return self.end - self.start

    def self_ns(self) -> np.ndarray:
        """Duration of each span minus the durations of its direct children."""
        dur = self.durations_ns()
        has_parent = self.parent >= 0
        covered = np.bincount(
            self.parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        return dur - covered.astype(np.int64)

    def _mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self), dtype=bool)
        return self.name_id == self.names.index(name)

    def calls(self, name: str) -> int:
        return int(self._mask(name).sum())

    def self_s(self, name: str) -> float:
        return float(self.self_ns()[self._mask(name)].sum()) / 1e9

    def durations_s(self, name: str) -> np.ndarray:
        return self.durations_ns()[self._mask(name)] / 1e9

    def calls_under(self, name: str, parent_name: str) -> int:
        """Spans named ``name`` whose direct parent is named ``parent_name``."""
        mask = self._mask(name) & (self.parent >= 0)
        return int(self._mask(parent_name)[self.parent[mask]].sum())

    def first_start_ns(self) -> int | None:
        return int(self.start.min()) if len(self) else None

    def any_raised(self) -> bool:
        return bool(self.raised.any())

"""Spans around calls into cvrsim's public functions, recorded from outside.

A :class:`Tracer` replaces a function at the name its caller looks it up
(``cvrsim.sim.all_pairs_shortest``, ``cvrsim.rebalance.graph_centroid``, a
method on its class) with a wrapper that records a span: a name, a start, an
end and the span that was open when it began. Hot leaf functions are
aggregated per parent span, as a call count and a total time, so a traced
run's memory does not grow with their millions of calls.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

ROOT = -1  # parent index of a span opened while no other span was open


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.leaves: dict[tuple[int, str], list] = {}  # (parent, name) -> [calls, seconds]
        self.errors: dict[str, int] = defaultdict(int)  # span name -> calls that raised
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else ROOT)
        self.ends.append(float("nan"))
        self._stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.names[idx]!r} closed out of order")

    def span(self, name: str):
        return _Span(self, name)

    def wrap(self, name: str, fn, observe=None):
        """``fn`` recording one span per call; ``observe(tracer, args, result)`` after it."""
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[name] += 1
                raise
            finally:
                self.close(idx)
            if observe is not None:
                observe(self, args, result)
            return result
        return wrapper

    def wrap_leaf(self, name: str, fn):
        """``fn`` adding its calls and time to the open span instead of its own span."""
        clock, stack, leaves = self.clock, self._stack, self.leaves

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                key = (stack[-1] if stack else ROOT, name)
                entry = leaves.get(key)
                if entry is None:
                    leaves[key] = [1, dt]
                else:
                    entry[0] += 1
                    entry[1] += dt
        return wrapper

    def patch(self, owner, attr: str, name: str, leaf: bool = False, observe=None) -> None:
        original = getattr(owner, attr)
        wrapper = self.wrap_leaf(name, original) if leaf else self.wrap(name, original, observe)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading ------------------------------------------------------------

    def durations(self, name: str) -> np.ndarray:
        return np.array([e - s for n, s, e in zip(self.names, self.starts, self.ends)
                         if n == name])

    def leaf_totals(self) -> dict[str, list]:
        totals: dict[str, list] = {}
        for (_, name), (calls, seconds) in self.leaves.items():
            entry = totals.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += seconds
        return totals

    def self_times(self) -> dict[str, float]:
        return self_times(self.names, self.starts, self.ends, self.parents, self.leaves)


class _Span:
    __slots__ = ("tracer", "name", "idx")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.idx = self.tracer.open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.idx)
        return False


def _covered(starts, ends, parents, leaves) -> list[float]:
    """Per span, the time its direct child spans and aggregated leaf calls take."""
    covered = [0.0] * len(starts)
    for idx, parent in enumerate(parents):
        if parent != ROOT:
            covered[parent] += ends[idx] - starts[idx]
    for (parent, _), (_, seconds) in leaves.items():
        if parent != ROOT:
            covered[parent] += seconds
    return covered


def self_times(names, starts, ends, parents, leaves) -> dict[str, float]:
    """Self time summed per span name, plus each leaf name's total time.

    A span's self time is its duration minus the durations of its direct
    child spans and of the leaf calls aggregated into it.
    """
    covered = _covered(starts, ends, parents, leaves)
    out: dict[str, float] = defaultdict(float)
    for idx, name in enumerate(names):
        out[name] += ends[idx] - starts[idx] - covered[idx]
    for (_, name), (_, seconds) in leaves.items():
        out[name] += seconds
    return dict(out)


def account(names, starts, ends, parents, leaves, wall_s: float) -> dict:
    """Split a traced interval of ``wall_s`` seconds into self times and gaps.

    The benchmark's own gaps are the time that no root span or root-level
    leaf call covers. ``residual_s`` is what the self times plus the gaps
    leave unexplained of the wall time; a consistent span tree leaves only
    rounding. ``worst_self_s`` is the smallest self time of any one span,
    negative when child spans overlap or outlive their parent.
    """
    root_s = sum(e - s for s, e, p in zip(starts, ends, parents) if p == ROOT)
    root_s += sum(sec for (p, _), (_, sec) in leaves.items() if p == ROOT)
    gap_s = wall_s - root_s
    covered = _covered(starts, ends, parents, leaves)
    span_self = [e - s - c for s, e, c in zip(starts, ends, covered)]
    self_sum_s = sum(span_self) + sum(sec for _, sec in leaves.values())
    return {
        "gap_s": gap_s,
        "self_sum_s": self_sum_s,
        "residual_s": wall_s - gap_s - self_sum_s,
        "worst_self_s": min(span_self, default=0.0),
    }

"""In-memory span recorder that times a function by replacing the attribute
through which the program looks it up.

A span is ``(name, start_ns, end_ns, parent, trial)``: ``parent`` is the
index of the enclosing span of the same recorder, or -1. A recorder's
wrappers are installed and removed as a group, so one run can alternate
traced and untraced trials, and two recorders can be stacked (the one
installed last is the outer one).
"""
from __future__ import annotations

import gzip
from collections import Counter
from time import perf_counter_ns


class Recorder:
    """Spans and per-trial counts for a fixed set of patch points.

    ``points`` holds ``(owner, attribute, span name, hook)`` tuples; the
    owner is a module or a class. ``hook(counts, args, result)``, when
    given, runs after a call that returned and adds to the current trial's
    ``counts``.
    """

    def __init__(self, points):
        self.points = tuple(points)
        self.spans: list = []
        self.counts: Counter = Counter()
        self.trial = -1
        self._stack: list = []
        self._saved: list = []

    def begin(self, trial: int) -> int:
        """Start a trial's counts; returns the index of its first span."""
        self.trial = trial
        self.counts = Counter()
        return len(self.spans)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("recorder is already installed")
        for owner, attr, name, hook in self.points:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, hook))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, hook):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, self.trial)
            if hook is not None:
                hook(self.counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def totals(self, first: int) -> Counter:
        """Nanoseconds per span name over the spans from index ``first``."""
        out: Counter = Counter()
        for name, start, end, _, _ in self.spans[first:]:
            out[name] += end - start
        return out

    def write(self, path) -> None:
        """All spans as gzip-compressed CSV, one span per line."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index,name,start_ns,end_ns,parent,trial\n")
            for index, (name, start, end, parent, trial) in enumerate(self.spans):
                fh.write(f"{index},{name},{start},{end},{parent},{trial}\n")


def layer_times(spans: list, first: int):
    """Inclusive and self nanoseconds per span name for ``spans[first:]``.

    Self time is a span's duration minus that of its direct children.
    Also returns the time of direct children per (parent name, child
    name) pair, from which a layer's time outside one child is read.
    """
    inclusive: Counter = Counter()
    own: Counter = Counter()
    pair: Counter = Counter()
    for index in range(first, len(spans)):
        name, start, end, parent, _ = spans[index]
        duration = end - start
        inclusive[name] += duration
        own[name] += duration
        if parent >= first:
            parent_name = spans[parent][0]
            own[parent_name] -= duration
            pair[(parent_name, name)] += duration
    return inclusive, own, pair

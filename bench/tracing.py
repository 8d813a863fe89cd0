"""Spans recorded around the benchmark's own calls into the package.

Every span is taken from outside, at the call boundary: the workloads call
``rec.call(name, fn, *args)`` instead of ``fn(*args)``.  The untraced
recorder forwards the call and records nothing; the tracer keeps
``(name, start, end, parent, op)`` tuples in memory and writes them out
once, when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# The span that wraps one whole operation; its self time is the benchmark's
# own glue between the calls into the package.
OP_SPAN = "bench.op"


class NullRecorder:
    """Forwards calls untouched: the recorder of untimed and untraced runs."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def start_op(self, op_id):
        pass

    def end_op(self):
        pass


class Tracer:
    """Keeps spans in memory; nesting is tracked with an explicit stack."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op id]
        self._stack = []
        self._op = -1

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._op])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def call(self, name, fn, *args, **kwargs):
        self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close()

    def start_op(self, op_id):
        self._op = op_id
        self._open(OP_SPAN)

    def end_op(self):
        self._close()
        self._op = -1

    def layer_totals(self):
        """name -> [calls, total seconds, self seconds].

        Self time is a span's duration minus the time its child spans
        cover; children of one span never overlap (one thread, one stack).
        """
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            t = totals[name]
            t[0] += 1
            t[1] += end - start
            t[2] += end - start - child_time[i]
        return dict(totals)

    def durations(self, name):
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def write(self, path):
        """One JSON object per span, written in a single pass at the end."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")

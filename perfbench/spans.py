"""In-memory span recorder for the traced run.

A span is (name, start, end, parent span, op id).  ``install`` replaces every
reference to a layer's functions in the library's modules with a wrapper that
records a span around each call, so calls the library makes internally are
timed too.  Nothing here runs unless a traced run creates a ``Tracer``.
"""

from __future__ import annotations

import functools
import gzip
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.names, self.starts, self.ends, self.parents, self.ops = [], [], [], [], []
        self.op_id = -1
        self.enabled = True
        self._stack = [-1]
        self._patches = []

    def _open(self, name):
        index = len(self.starts)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ops.append(self.op_id)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index):
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    def install(self, modules, layers):
        """Wrap each layer's functions wherever ``modules`` refer to them."""
        for name, (home, attrs) in layers.items():
            for attr in attrs:
                original = getattr(home, attr)
                wrapped = self.wrap(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, key, original))
                            setattr(module, key, wrapped)

    def uninstall(self):
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    def durations(self):
        return [end - start for start, end in zip(self.starts, self.ends)]

    def self_times(self) -> dict:
        """Summed self time per span name: duration minus direct children."""
        durations = self.durations()
        own = list(durations)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= durations[index]
        totals = {}
        for name, value in zip(self.names, own):
            totals[name] = totals.get(name, 0.0) + value
        return totals

    def inclusive_by_op(self) -> dict:
        """(op id, name) -> summed duration of spans not nested in a same-name span."""
        durations = self.durations()
        totals = {}
        for index, name in enumerate(self.names):
            parent = self.parents[index]
            if parent >= 0 and self.names[parent] == name:
                continue
            key = (self.ops[index], name)
            totals[key] = totals.get(key, 0.0) + durations[index]
        return totals

    def write(self, path):
        """Spans as gzipped TSV: name, start, end (seconds), parent index, op id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("name\tstart\tend\tparent\top\n")
            for row in zip(self.names, self.starts, self.ends, self.parents, self.ops):
                handle.write("%s\t%.9f\t%.9f\t%d\t%d\n" % row)

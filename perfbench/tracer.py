"""Span tracing of intpow from outside the package.

While installed, every public function bound in an intpow module namespace
is replaced by a wrapper that records a span: name, start, end, parent span
and invocation id.  Names re-exported or imported into other modules share
one wrapper, so `extension.graph_power` and the `bfs_distances` global that
`graph_power` calls are traced too.  Spans stay in memory until the caller
writes them out.  Two counts are taken at the same boundaries: the items
drained from each `enumerate_interleavings` generator and the match count
returned by `search_representation`.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

NAME, START, END, PARENT, INVOCATION, COUNT = range(6)


class Tracer:
    """Context manager: wraps on entry, restores every binding on exit.
    The caller sets `invocation` before each top-level call."""

    def __init__(self):
        self.spans = []
        self.invocation = None
        self._stack = []
        self._restore = []

    def __enter__(self):
        wrappers = {}
        modules = [
            module for name, module in sorted(sys.modules.items())
            if name == "intpow" or name.startswith("intpow.")
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if not value.__module__.startswith("intpow"):
                    continue
                if value not in wrappers:
                    wrappers[value] = self._wrap(value)
                self._restore.append((module, attr, value))
                setattr(module, attr, wrappers[value])
        return self

    def __exit__(self, *exc):
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def _wrap(self, fn):
        name = f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        generator = name == "trapezoids.enumerate_interleavings"
        search = name == "trapezoids.search_representation"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, None, stack[-1] if stack else None, self.invocation, None]
            stack.append(len(spans))
            spans.append(record)
            record[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            if generator:
                record[COUNT] = 0
                return _drain_counting(result, record)
            if search:
                record[COUNT] = result[1]
            return result

        return traced

    def self_times(self):
        """Per span, its duration minus the union of its children's."""
        children = [[] for _ in self.spans]
        for index, span in enumerate(self.spans):
            if span[PARENT] is not None:
                children[span[PARENT]].append(index)
        result = []
        for index, span in enumerate(self.spans):
            covered, reach = 0.0, span[START]
            for child in sorted(children[index], key=lambda c: self.spans[c][START]):
                start, end = max(self.spans[child][START], reach), self.spans[child][END]
                if end > start:
                    covered += end - start
                    reach = end
            result.append(span[END] - span[START] - covered)
        return result, children

    def problems(self):
        """Spans left open or outside their parent: a broken tracer."""
        problems = []
        for span in self.spans:
            if span[END] is None:
                problems.append(f"span {span[NAME]} never closed")
            elif span[PARENT] is not None and self.spans[span[PARENT]][END] is not None:
                parent = self.spans[span[PARENT]]
                if span[START] < parent[START] or span[END] > parent[END]:
                    problems.append(f"span {span[NAME]} escapes its parent {parent[NAME]}")
        return problems

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                row = dict(zip(("name", "start", "end", "parent", "invocation", "count"), span))
                handle.write(json.dumps({"id": index, **row}) + "\n")


def _drain_counting(iterator, record):
    for item in iterator:
        record[COUNT] += 1
        yield item

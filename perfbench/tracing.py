"""Spans recorded by the benchmark around calls into the package.

A span has a name, a start, an end, a parent span and an item id.  Spans
live in flat arrays while the benchmark runs and are written out once at
the end.  Calls made once per quadrature node (the benchmark's own
evaluators) are counted rather than spanned, so tracing them stays cheap.
"""

from __future__ import annotations

import contextlib
import gzip
import time
from array import array
from collections import defaultdict

OK, TYPED_ERROR, RAW_ERROR = 0, 1, 2


class Tracer:
    def __init__(self, typed_error: type):
        self.typed_error = typed_error
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("q")
        self.end = array("q")
        self.outcome = array("b")
        self.tags: list[str] = []     # item id -> tag (degree, command, ...)
        self.nodes: dict[int, int] = {}   # item id -> quadrature nodes
        self.errors: dict[int, str] = {}  # span id -> exception class raised
        self.counts = defaultdict(lambda: [0, 0])   # (name, item) -> [calls, ns]
        self.values = defaultdict(list)   # name -> values measured outside spans
        self.enabled = True               # off while the benchmark checks results
        self._stack: list[int] = []
        self._item = -1
        self._by_name: dict = {}
        self._indexed = 0

    def __len__(self) -> int:
        return len(self.start)

    def begin_item(self, tag: str = "") -> int:
        self.tags.append(tag)
        self._item = len(self.tags) - 1
        return self._item

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """fn with a span around every call."""
        nid = self._name_id(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.item.append(self._item)
            self.start.append(0)
            self.end.append(0)
            self.outcome.append(OK)
            self._stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                self.outcome[idx] = TYPED_ERROR if isinstance(exc, self.typed_error) else RAW_ERROR
                self.errors[idx] = type(exc).__name__
                raise
            finally:
                self.end[idx] = clock()
                self.start[idx] = t0
                self._stack.pop()

        return traced

    def counted(self, name: str, fn):
        """fn with its calls and time added to a per-item counter."""
        clock = time.perf_counter_ns
        counts = self.counts

        def counted_fn(*args):
            if not self.enabled:
                return fn(*args)
            t0 = clock()
            try:
                return fn(*args)
            finally:
                slot = counts[(name, self._item)]
                slot[0] += 1
                slot[1] += clock() - t0

        return counted_fn

    @contextlib.contextmanager
    def patched(self, targets):
        """Replace module attributes by traced wrappers for the duration.

        `targets` holds (module, attribute, span name); the package's own
        calls through those module globals then record spans too.
        """
        saved = []
        try:
            for module, attr, name in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    # -- analysis ----------------------------------------------------------

    def self_ns(self) -> array:
        """Duration of each span minus the time its child spans cover."""
        own = array("q", (e - s for s, e in zip(self.start, self.end)))
        for idx, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[idx] - self.start[idx]
        return own

    def spans(self, name: str, tag: str | None = None) -> list[int]:
        """Ids of the spans called `name`, optionally only in items tagged `tag`."""
        if self._indexed != len(self.start):
            self._by_name = defaultdict(list)
            for i, nid in enumerate(self.name):
                self._by_name[nid].append(i)
            self._indexed = len(self.start)
        ids = self._by_name.get(self._ids.get(name), [])
        if tag is None:
            return ids
        return [i for i in ids if self.item[i] >= 0 and self.tags[self.item[i]] == tag]

    def durations(self, name: str, tag: str | None = None) -> list[int]:
        """Inclusive durations (ns) of the spans called `name`."""
        return [self.end[i] - self.start[i] for i in self.spans(name, tag)]

    def write(self, path) -> None:
        """All spans as gzipped CSV: id, parent, item, tag, name, start_ns, end_ns, outcome."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,parent,item,tag,name,start_ns,end_ns,outcome\n")
            for i in range(len(self.start)):
                item = self.item[i]
                tag = self.tags[item] if item >= 0 else ""
                fh.write(f"{i},{self.parent[i]},{item},{tag},{self.names[self.name[i]]},"
                         f"{self.start[i]},{self.end[i]},{self.outcome[i]}\n")

"""Spans around the library's public functions, recorded from outside.

Modules import each other's functions by name, so a function is wrapped at
the attribute its caller looks up (``ftbtrace.kernels.trace`` is what the
kernels call, ``ftbtrace.render.run_kernel`` what the renderer calls).
``Patches`` swaps such attributes and always puts the originals back.

A span is (id, parent, name, start, end).  Its self time is its duration
minus the durations of its direct children and the tracer's own
bookkeeping for them, before and after each child, which is kept as
``tracer.overhead``.  The self times of all spans under a root, with that
overhead, add up exactly to the root's duration.  Aggregates are kept for
every span; raw spans are kept up to a cap and written out at the end.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


OVERHEAD = "tracer.overhead"


class Tracer:
    """Nested spans with per-name self time, counts and durations."""

    def __init__(self, cap: int):
        self.clock = time.perf_counter_ns
        self.cap = cap
        self.names = []
        self._name_ids = {}
        self._stack = []  # frames: [span id, name id, start ns, child ns]
        self._next_id = 0
        self.self_ns = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.count = defaultdict(int)
        self.durations = defaultdict(lambda: array("q"))  # names in keep_durations
        self.keep_durations = set()
        self.dropped = 0
        self._ids = array("q")
        self._parents = array("q")
        self._name_col = array("i")
        self._starts = array("q")
        self._ends = array("q")

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int) -> None:
        """Open a span inside the innermost one.

        The bookkeeping before the span's start time is charged to the
        ``tracer.overhead`` span name inside the parent, as in ``end``."""
        enter = self.clock()
        stack = self._stack
        frame = [self._next_id, nid, 0, 0]
        self._next_id += 1
        stack.append(frame)
        start = frame[2] = self.clock()
        if len(stack) > 1:
            overhead = start - enter
            stack[-2][3] += overhead
            self.self_ns[OVERHEAD] += overhead

    def end(self) -> int:
        """Close the innermost span; returns its duration in ns.

        The bookkeeping after the span's end time is charged to the
        ``tracer.overhead`` span name inside the parent, not to the
        parent's self time."""
        stop = self.clock()
        sid, nid, start, child = self._stack.pop()
        dur = stop - start
        name = self.names[nid]
        self.self_ns[name] += dur - child
        self.total_ns[name] += dur
        self.count[name] += 1
        if name in self.keep_durations:
            self.durations[name].append(dur)
        parent = -1
        if self._stack:
            parent = self._stack[-1][0]
        if len(self._ids) < self.cap:
            self._ids.append(sid)
            self._parents.append(parent)
            self._name_col.append(nid)
            self._starts.append(start)
            self._ends.append(stop)
        else:
            self.dropped += 1
        if self._stack:
            overhead = self.clock() - stop
            self._stack[-1][3] += dur + overhead
            self.self_ns[OVERHEAD] += overhead
        return dur

    @property
    def depth(self) -> int:
        return len(self._stack)

    def wrap(self, fn, name: str):
        """fn wrapped in a span called ``name``."""
        nid = self.name_id(name)
        begin = self.begin
        end = self.end

        def spanned(*args, **kwargs):
            begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                end()

        return spanned

    def layer_self_ns(self) -> dict:
        """Self time summed by layer, the part of a span name before the dot."""
        out = defaultdict(int)
        for name, ns in self.self_ns.items():
            out[name.split(".", 1)[0]] += ns
        return dict(out)

    def write_tsv(self, path: str) -> None:
        """Raw spans, one per line: id, parent, name, start ns, end ns."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            names = self.names
            for i in range(len(self._ids)):
                fh.write(
                    f"{self._ids[i]}\t{self._parents[i]}\t{names[self._name_col[i]]}"
                    f"\t{self._starts[i]}\t{self._ends[i]}\n"
                )
            if self.dropped:
                fh.write(f"# {self.dropped} later spans not kept (cap {self.cap})\n")


class Reservoir:
    """Seeded uniform sample of at most ``size`` items from a stream."""

    __slots__ = ("items", "size", "seen", "_rand")

    def __init__(self, size: int, rng):
        self.items = []
        self.size = size
        self.seen = 0
        self._rand = rng.random

    def add(self, item) -> None:
        self.seen += 1
        if len(self.items) < self.size:
            self.items.append(item)
        else:
            j = int(self._rand() * self.seen)
            if j < self.size:
                self.items[j] = item

"""Spans recorded from outside the program, and the self-time table.

The traced pass of a workload patches the public functions it crosses
(module attributes and class methods) with wrappers that open a span
around each call, runs a fixed amount of work, then restores every
original.  Spans live in memory until the pass ends and are written out
once, each with its parent.

One stack is shared by all threads, so spans nest by time, not by
thread.  That is exact only when the traced work runs one step at a
time, which is how every traced pass is built: Monte Carlo runs serially
in-process, and the served pass keeps a single request in flight, so its
parse (event-loop thread) and execute (shard thread) spans fall inside
the client's request span.
"""

from __future__ import annotations

import collections
import functools
import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Name of the span that covers a whole traced pass.  Its self time is
#: the part of the pass no wrapped layer accounts for.
ROOT = "untraced"


class Tracer:
    """Span recorder plus the patch/restore bookkeeping for wrappers."""

    def __init__(self) -> None:
        self.enabled = False
        self.counts: collections.Counter = collections.Counter()
        self._spans: List[List[Any]] = []  # [id, parent, name, start, end]
        self._stack: List[int] = []
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- spans ------------------------------------------------------------

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record ``name`` around the block.

        A no-op when disabled, and outside a :data:`ROOT` span (warm-up
        calls a pass makes before its measured part are not recorded).
        """
        if not self.enabled or (name != ROOT and not self._stack):
            yield
            return
        with self._lock:
            sid = len(self._spans)
            parent = self._stack[-1] if self._stack else None
            self._spans.append([sid, parent, name, time.perf_counter(), None])
            self._stack.append(sid)
        try:
            yield
        finally:
            end = time.perf_counter()
            with self._lock:
                self._spans[sid][4] = end
                if self._stack and self._stack[-1] == sid:
                    self._stack.pop()
                elif sid in self._stack:
                    self._stack.remove(sid)

    # -- wrappers ---------------------------------------------------------

    def wrap(self, owner: Any, attr: str, name: str,
             on_result: Optional[Callable[[Any], None]] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``owner`` is a module or a class; the original is restored by
        :meth:`restore`.  ``on_result`` sees each return value (for
        counters such as the backend a call was routed to).
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped attribute back (newest first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def spans(self) -> List[Dict[str, Any]]:
        """Closed spans, times relative to the first span's start."""
        if not self._spans:
            return []
        origin = self._spans[0][3]
        return [
            {"id": sid, "parent": parent, "name": name,
             "start_s": start - origin, "dur_s": end - start}
            for sid, parent, name, start, end in self._spans
            if end is not None
        ]

    def self_times(self) -> Dict[str, Tuple[float, float, int]]:
        """``{layer: (self_s, inclusive_s, calls)}``.

        A span's self time is its duration minus its children's; because
        children are recorded strictly inside their parent, the self times
        of all spans add up to the root span's duration.
        """
        spans = self.spans()
        child_s: Dict[int, float] = collections.defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                child_s[s["parent"]] += s["dur_s"]
        table: Dict[str, List[float]] = {}
        for s in spans:
            row = table.setdefault(s["name"], [0.0, 0.0, 0])
            row[0] += s["dur_s"] - child_s[s["id"]]
            row[1] += s["dur_s"]
            row[2] += 1
        return {name: (row[0], row[1], int(row[2])) for name, row in table.items()}

    def durations(self, name: str) -> List[Tuple[int, Optional[int], float]]:
        """``(id, parent, dur_s)`` of every span named ``name``."""
        return [(s["id"], s["parent"], s["dur_s"]) for s in self.spans()
                if s["name"] == name]

    def write(self, path: str) -> None:
        """Export the spans (with parents) as one JSON document."""
        with open(path, "w") as handle:
            json.dump({"spans": self.spans()}, handle)


@contextmanager
def measured_pass(tracer: Tracer, out: Dict[str, float]) -> Iterator[None]:
    """Time the block into ``out["trace.wall_s"]`` under the root span.

    Workloads open it around exactly the work both the untraced and the
    traced pass repeat, leaving server start-up and warm-up outside.
    """
    start = time.perf_counter()
    with tracer.span(ROOT):
        yield
    out["trace.wall_s"] = time.perf_counter() - start


def print_self_time_table(workload: str, tracer: Tracer) -> float:
    """Print per-layer self times; returns the traced wall time.

    The ``untraced`` row is the root span's own time: the part of the pass
    that no wrapped layer covers.  The rows add up to the wall time, which
    the last line shows.
    """
    table = tracer.self_times()
    wall = table[ROOT][1]
    print(f"== self time per layer, traced pass of {workload}")
    print(f"  {'layer':<32} {'self_s':>10} {'share':>7} {'incl_s':>10} {'calls':>8}")
    rows = sorted(table.items(), key=lambda item: -item[1][0])
    total = 0.0
    for name, (self_s, incl_s, calls) in rows:
        total += self_s
        print(f"  {name:<32} {self_s:>10.4f} {self_s / wall:>7.1%} "
              f"{incl_s:>10.4f} {calls:>8}")
    print(f"  {'sum of self times':<32} {total:>10.4f}   traced wall {wall:.4f} s")
    return wall

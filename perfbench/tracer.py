"""Span recorder for the traced replay, and the per-layer metrics it yields.

The recorder wraps names that one module of the package imports from the
next (for example ``eca_emulation.hierarchy.emulated_rule_map``), so every
span is taken from outside the program, around a call into a layer.

Two kinds of wrapper exist:

* ``span``: one record per call, ``[id, name, parent, start, end, leaf_s,
  value]``.  ``leaf_s`` is the time spent in leaf calls made inside the
  span and ``value`` an optional per-call number (entries returned, a hit
  or found flag).  The slowest call of each span name is kept with its
  positional arguments, so that it can be run again on its own (for its
  memory).
* ``leaf``: the packed kernels are called up to millions of times at about
  a microsecond each, so a record per call would cost more memory and time
  than the call itself.  A leaf call adds its count and work to a per-name
  total, and its duration to that total and to the enclosing span's
  ``leaf_s``.  With ``every=n`` only one call in n is timed and its
  duration counted n times, which keeps the clock's own cost out of the
  scalar kernel's time.

Spans stay in memory and are written out once, at the end of the replay.
A span's self time is its duration minus the time its child spans and
leaf calls cover; the replay is serial, so children never overlap.

This file imports nothing from the package, so the harness can compute the
metrics without loading the code under test.
"""

from __future__ import annotations

import functools
import time
import tracemalloc

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.leaves: dict[str, list] = {}  # name -> [calls, seconds, work]
        self.slowest: dict[str, tuple] = {}  # name -> (seconds, fn, args)
        self._stack: list[list] = []

    def span(self, name, fn, value=None):
        """Wrap ``fn`` so each call records one span; ``value(result, args)``
        gives the span's number."""
        spans, stack, slowest = self.spans, self._stack, self.slowest

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            rec = [len(spans), name, parent, 0.0, 0.0, 0.0, None]
            spans.append(rec)
            stack.append(rec)
            rec[3] = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = _clock()
                stack.pop()
            if value is not None:
                rec[6] = value(result, args)
            if rec[4] - rec[3] > slowest.get(name, (0.0,))[0]:
                slowest[name] = (rec[4] - rec[3], fn, args)
            return result

        return wrapper

    def leaf(self, name, fn, work=None, every=1):
        """Wrap ``fn`` so calls are totalled per name; ``work(args)`` counts
        the work items of one call, and one call in ``every`` is timed."""
        total = self.leaves.setdefault(name, [0, 0.0, 0])
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args):
            total[0] += 1
            if work is not None:
                total[2] += work(args)
            if total[0] % every:
                return fn(*args)
            t0 = _clock()
            result = fn(*args)
            dt = (_clock() - t0) * every
            total[1] += dt
            if stack:
                stack[-1][5] += dt
            return result

        return wrapper

    def peak_bytes(self, name) -> int:
        """Run the slowest call of span ``name`` again under tracemalloc and
        return the peak of the memory it allocated, in bytes (0 if none)."""
        if name not in self.slowest:
            return 0
        _, fn, args = self.slowest[name]
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def dump(self) -> dict:
        return {"spans": self.spans, "leaves": self.leaves}


def self_times(spans: list[list]) -> dict[int, float]:
    """Span id -> duration minus the time its children and leaves cover."""
    covered = {s[0]: s[5] for s in spans}
    for s in spans:
        if s[2] >= 0:
            covered[s[2]] += s[4] - s[3]
    return {s[0]: (s[4] - s[3]) - covered[s[0]] for s in spans}


def _quantile_ms(durations: list[float], q: float) -> float:
    """Nearest-rank quantile of span durations, in milliseconds."""
    if not durations:
        return 0.0
    ordered = sorted(durations)
    return 1000.0 * ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced replay (see README.md for each)."""
    spans = trace["spans"]
    selfs = self_times(spans)
    by_name: dict[str, list[list]] = {}
    for s in spans:
        by_name.setdefault(s[1], []).append(s)

    def durations(name):
        return [s[4] - s[3] for s in by_name.get(name, ())]

    def values(name):
        return [s[6] for s in by_name.get(name, ()) if s[6] is not None]

    def total_self(name):
        return sum(selfs[s[0]] for s in by_name.get(name, ()))

    def ratio(a, b):
        return a / b if b else 0.0

    out: dict[str, float] = {}
    calls, secs, words = trace["leaves"].get("supercell.batch", (0, 0.0, 0))
    out["supercell.batch_calls"] = calls
    out["supercell.batch_words"] = words
    out["supercell.batch_s"] = secs
    out["supercell.batch_words_per_s"] = ratio(words, secs)
    calls, secs, _ = trace["leaves"].get("supercell.scalar", (0, 0.0, 0))
    out["supercell.scalar_calls"] = calls
    out["supercell.scalar_s"] = secs
    calls, secs, _ = trace["leaves"].get("supercell.table", (0, 0.0, 0))
    out["supercell.table_calls"] = calls
    out["supercell.table_s"] = secs

    d = durations("emulation.enum")
    out["emulation.enum_calls"] = len(d)
    out["emulation.enum_s"] = sum(d)
    out["emulation.enum_p50_ms"] = _quantile_ms(d, 0.50)
    out["emulation.enum_p99_ms"] = _quantile_ms(d, 0.99)
    out["emulation.enum_max_ms"] = _quantile_ms(d, 1.0)
    out["emulation.enum_entries"] = sum(values("emulation.enum"))
    out["emulation.enum_peak_mb"] = trace["enum_peak_bytes"] / 2**20

    d = durations("emulation.closure")
    out["emulation.closure_calls"] = len(d)
    out["emulation.closure_s"] = sum(d)
    out["emulation.closure_p50_ms"] = _quantile_ms(d, 0.50)
    out["emulation.closure_max_ms"] = _quantile_ms(d, 1.0)
    out["emulation.closure_found_ratio"] = ratio(sum(values("emulation.closure")), len(d))

    d = durations("emulation.verify")
    out["emulation.verify_calls"] = len(d)
    out["emulation.verify_s"] = sum(d)
    out["emulation.verify_p50_ms"] = _quantile_ms(d, 0.50)
    out["emulation.verify_p99_ms"] = _quantile_ms(d, 0.99)
    out["emulation.verify_failed"] = len(d) - sum(values("emulation.verify"))
    d = durations("emulation.naive")
    out["emulation.naive_calls"] = len(d)
    out["emulation.naive_s"] = sum(d)
    out["emulation.naive_hit_ratio"] = ratio(sum(values("emulation.naive")), len(d))

    out["hierarchy.self_s"] = total_self("hierarchy.compute")
    out["hierarchy.shards_read"] = sum(values("hierarchy.shard_read"))
    out["hierarchy.shards_written"] = len(by_name.get("hierarchy.shard_write", ()))
    out["hierarchy.shard_bytes"] = trace["shard_bytes"]
    out["hierarchy.shard_read_s"] = sum(durations("hierarchy.shard_read"))
    out["hierarchy.shard_write_s"] = sum(durations("hierarchy.shard_write"))
    out["hierarchy.export_s"] = sum(durations("hierarchy.export"))
    out["hierarchy.classify_self_s"] = total_self("hierarchy.classify")
    return out

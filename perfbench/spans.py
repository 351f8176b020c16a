"""In-memory span tracer and the self-time arithmetic over its spans.

A span is one call into a layer's public entry point: its layer, start
and end (``time.monotonic_ns``, i.e. ``CLOCK_MONOTONIC``, which a forked
peer shares), the span that was open when it began (its parent), the
burst or call id the benchmark loop was working on, a work count (frames
or records the call handled) and, for transport spans, the thread CPU
time it used.  Spans go into flat ``array`` columns so a ten-second run
costs tens of bytes per span, and are read out only after the run.

Wrapping happens from the benchmark's own files, on the instances the
benchmark builds: an object with a ``__dict__`` gets a traced bound
method as an instance attribute; an object with ``__slots__`` (the
decode pipeline) is moved onto a traced subclass.  Module-level entry
points (the message encoder) are patched on their module.  Wrapping is
only ever done inside the forked process of a traced run.
"""

from __future__ import annotations

import functools
import time
from array import array

#: The layers a span can belong to.  Names are this repository's module
#: paths; ``bench.app`` spans are the benchmark's own application work
#: (checking records, the echo servant) and belong to no layer.
LAYERS: tuple[str, ...] = (
    "abi.encoding.encode",
    "abi.encoding.materialize",
    "core.encoder.encode",
    "core.runtime.pipeline.decode",
    "core.connection.send",
    "core.connection.recv",
    "core.negotiation.announce",
    "core.rpc.client",
    "core.rpc.server",
    "net.transport.send",
    "net.transport.recv",
    "net.channel.publish",
    "net.relay.forward",
    "net.durable.publish",
    "net.durable.wal_append",
    "net.durable.ack",
    "net.durable.subscribe",
    "bench.app",
)
LAYER_INDEX = {name: i for i, name in enumerate(LAYERS)}


class Tracer:
    """Records spans for one process (single-threaded callers only)."""

    def __init__(self) -> None:
        self.layer = array("b")
        self.parent = array("q")
        self.unit = array("q")
        self.start = array("q")
        self.end = array("q")
        self.count = array("q")
        self.cpu = array("q")
        self._stack: list[int] = []
        #: burst or call id stamped on every span (set by the workload loop)
        self.unit_id = 0

    def begin(self, layer_idx: int) -> int:
        idx = len(self.start)
        stack = self._stack
        self.layer.append(layer_idx)
        self.parent.append(stack[-1] if stack else -1)
        self.unit.append(self.unit_id)
        self.count.append(0)
        self.cpu.append(-1)
        self.end.append(0)
        stack.append(idx)
        self.start.append(time.monotonic_ns())
        return idx

    def finish(self, idx: int, count: int) -> None:
        self.end[idx] = time.monotonic_ns()
        self.count[idx] = count
        self._stack.pop()

    def inside(self, layer_idx: int) -> bool:
        """True when the innermost open span belongs to ``layer_idx``."""
        stack = self._stack
        return bool(stack) and self.layer[stack[-1]] == layer_idx

    def traced(self, layer: str, fn, count=None, cpu: bool = False):
        """``fn`` wrapped in a span of ``layer``.

        ``count(args, result)`` gives the span's work count (default 1).
        A call made while a span of the same layer is open (a layer
        calling its own entry points) joins that span instead of opening
        a nested one.  ``cpu=True`` also records thread CPU time, so a
        blocking call's busy and waiting time can be told apart.
        """
        li = LAYER_INDEX[layer]
        thread_ns = time.thread_time_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.inside(li):
                return fn(*args, **kwargs)
            idx = self.begin(li)
            c0 = thread_ns() if cpu else 0
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                if cpu:
                    self.cpu[idx] = thread_ns() - c0
                self.finish(idx, 1 if count is None else count(args, result))

        return wrapper

    def columns(self) -> dict[str, bytes]:
        """The span columns as raw bytes (for shipping between processes)."""
        return {
            name: getattr(self, name).tobytes()
            for name in ("layer", "parent", "unit", "start", "end", "count", "cpu")
        }


_TRACED_CLASSES: dict[tuple[type, tuple[str, ...]], type] = {}


def wrap_methods(tracer: Tracer, obj, layer: str, names, *, count=None, cpu=False) -> None:
    """Trace the bound methods ``names`` of one instance as ``layer`` spans."""
    names = tuple(n for n in names if hasattr(obj, n))
    if hasattr(obj, "__dict__"):
        for name in names:
            setattr(obj, name, tracer.traced(layer, getattr(obj, name), count, cpu))
        return
    # __slots__ instance: move it onto a subclass whose methods open spans
    # and then call the class's own implementation.
    cls = type(obj)
    key = (cls, names)
    sub = _TRACED_CLASSES.get(key)
    if sub is None:
        attrs: dict = {"__slots__": ()}
        for name in names:
            attrs[name] = tracer.traced(layer, getattr(cls, name), count, cpu)
        sub = type(f"Traced{cls.__name__}", (cls,), attrs)
        _TRACED_CLASSES[key] = sub
    obj.__class__ = sub


def wrap_function(tracer: Tracer, module, name: str, layer: str, *, count=None) -> None:
    """Trace a module-level function for every caller that looks it up
    on the module at call time."""
    setattr(module, name, tracer.traced(layer, getattr(module, name), count))


def self_times(start, end, parent) -> list[int]:
    """Each span's duration minus the time its child spans cover.

    Children are clipped to their parent's interval and overlapping
    children are counted once (union of intervals), so the result never
    goes negative and never double-counts.  Inputs are parallel
    sequences; ``parent[i]`` is the index of span ``i``'s parent or -1.
    """
    n = len(start)
    children: dict[int, list[int]] = {}
    for i in range(n):
        p = parent[i]
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = [end[i] - start[i] for i in range(n)]
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        intervals = sorted(
            (max(start[k], lo), min(end[k], hi)) for k in kids if end[k] > lo and start[k] < hi
        )
        covered = 0
        cur_s = cur_e = None
        for s, e in intervals:
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            elif e > cur_e:
                cur_e = e
        if cur_e is not None:
            covered += cur_e - cur_s
        out[p] -= covered
    return out


class SpanSet:
    """Spans from one process, rebuilt from :meth:`Tracer.columns`."""

    def __init__(self, columns: dict[str, bytes]) -> None:
        typecodes = {"layer": "b"}
        for name, raw in columns.items():
            col = array(typecodes.get(name, "q"))
            col.frombytes(raw)
            setattr(self, name, col)
        self.self_ns = self_times(self.start, self.end, self.parent)

    def layer_totals(self, t0: int, t1: int) -> dict[str, dict[str, float]]:
        """Per-layer sums over the spans that started inside ``[t0, t1)``:
        self time, wall time, CPU time, work count and span count."""
        out: dict[str, dict[str, float]] = {}
        for i in range(len(self.start)):
            if not t0 <= self.start[i] < t1:
                continue
            row = out.setdefault(
                LAYERS[self.layer[i]],
                {"self_ns": 0, "wall_ns": 0, "cpu_ns": 0, "count": 0, "spans": 0},
            )
            row["self_ns"] += self.self_ns[i]
            row["wall_ns"] += self.end[i] - self.start[i]
            if self.cpu[i] >= 0:
                row["cpu_ns"] += self.cpu[i]
            row["count"] += self.count[i]
            row["spans"] += 1
        return out

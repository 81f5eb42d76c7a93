"""Spans and counters recorded around calls into markerswarm, from outside it.

A span is one call of a wrapped function: its name, its start and end on
the wall clock and on the calling thread's CPU clock, and the span that
was open on the same thread when it began (its parent). A call made on a
thread with no open span (a worker thread in threaded mode) gets the root
span as its parent, so every span of a run hangs off ``runner.run_scenario``.

Spans stay in memory; :func:`summarize` turns them into per-name and
per-layer totals once the run has ended. A name's layer is the text before
its first dot (``nodes.GroundStation.flush`` belongs to ``nodes``).
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict


class Span:
    __slots__ = ("name", "parent", "thread", "start", "end", "cpu_start", "cpu_end")

    def __init__(self, name, parent, thread, start, cpu_start):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = start
        self.cpu_start = cpu_start
        self.end = start
        self.cpu_end = cpu_start


class Tracer:
    """Collects spans and named counters; patches functions to feed them."""

    def __init__(self, root: str = "runner.run_scenario") -> None:
        self.root_name = root
        self.root: Span | None = None
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name, hook=None) -> None:
        """Replace ``owner.attr`` with a version that records a span per call.

        ``name`` is the span name, or a function of (args, kwargs) giving it.
        ``hook(tracer, args, kwargs, result)`` runs after each call that
        returns, to update counters.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_name = name(args, kwargs) if callable(name) else name
            parent = stack[-1] if stack else tracer.root
            span = Span(
                span_name, parent, threading.get_ident(), time.perf_counter(), time.thread_time()
            )
            if span_name == tracer.root_name:
                tracer.root = span
            stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.cpu_end = time.thread_time()
                stack.pop()
                tracer.spans.append(span)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def count(self, owner, attr: str, hook) -> None:
        """Replace ``owner.attr`` with a version that only runs ``hook``."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            hook(tracer, args, kwargs, result)
            return result

        setattr(owner, attr, counted)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack


def covered_length(intervals) -> float:
    """Length of the union of (start, end) intervals; empty ones count 0."""
    total = 0.0
    run_start = run_end = None
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: list[Span]) -> dict[int, tuple[float, float]]:
    """Per span (keyed by id): (self wall seconds, self CPU seconds).

    Self wall time is the span's duration minus the part of it that the
    union of its children covers; children on other threads may overlap,
    so the union, not the sum, is subtracted. Self CPU time subtracts only
    the CPU time of children on the span's own thread.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append(span)
    out = {}
    for span in spans:
        kids = children.get(id(span), [])
        covered = covered_length(
            (max(k.start, span.start), min(k.end, span.end)) for k in kids
        )
        child_cpu = sum(k.cpu_end - k.cpu_start for k in kids if k.thread == span.thread)
        out[id(span)] = (
            (span.end - span.start) - covered,
            (span.cpu_end - span.cpu_start) - child_cpu,
        )
    return out


def summarize(spans: list[Span]) -> dict[str, float]:
    """Totals per span name and per layer.

    For each name: ``<name>.s`` (inclusive wall seconds), ``<name>.self_s``
    and ``<name>.calls``. For each layer: ``<layer>.self_s`` and
    ``<layer>.wait_s``, the self wall time not spent on the thread's CPU
    (waiting for the interpreter lock, the scheduler or a blocking call).
    """
    own = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for span in spans:
        self_wall, self_cpu = own[id(span)]
        layer = span.name.split(".", 1)[0]
        out[f"{span.name}.s"] += span.end - span.start
        out[f"{span.name}.self_s"] += self_wall
        out[f"{span.name}.calls"] += 1
        out[f"{layer}.self_s"] += self_wall
        out[f"{layer}.wait_s"] += max(self_wall - self_cpu, 0.0)
    return dict(out)

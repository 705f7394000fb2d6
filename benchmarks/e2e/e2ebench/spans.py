"""Spans recorded from outside the program.

A :class:`SpanRecorder` replaces public functions of ``repro`` with thin
timing wrappers — in the namespace where the caller looks the name up —
and puts the originals back on :meth:`SpanRecorder.restore`.  A wrapper
appends one tuple per call; nothing is computed while the workload runs.
:meth:`SpanRecorder.pause` takes the wrappers out for a while, so that
traced and bare steps of one run can alternate (``trace.overhead``).
Parents are assigned afterwards: calls on one thread nest like the call
stack, so sorting a thread's spans by start time rebuilds the tree, and a
span's self time is its duration minus the time its children cover.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from functools import wraps

#: Root span of one timed step (one epoch, one round, one request).
STEP = "bench.step"
#: Root span of a client-side probe run outside the timed steps, and the
#: prefix of the ctx every span it causes carries.
PROBE = "bench.probe"
PROBE_CTX = "probe:"


class SpanRecorder:
    def __init__(self) -> None:
        #: (name, start, end, thread id, ctx) — ctx is the step's id
        #: ("epoch:7", "W:1234"), shared by every span the step caused.
        self.spans: list[tuple[str, float, float, int, str | None]] = []
        self.ctx: str | None = None
        #: False between pause() and resume(): no wrapper is in place.
        self.active = True
        #: (owner, attr, original, wrapper) for every name this recorder patched.
        self._patches: list[tuple[object, str, object, object]] = []

    # -- recording -------------------------------------------------------

    @contextmanager
    def span(self, name: str, ctx: str | None = None):
        if ctx is not None:
            self.ctx = ctx
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append(
                (name, start, time.perf_counter(), threading.get_ident(), self.ctx)
            )

    def add(self, name: str, start: float, end: float) -> None:
        """Import a span timed elsewhere (the lifecycle engine's Tracer)."""
        self.spans.append((name, start, end, threading.get_ident(), self.ctx))

    # -- wrappers --------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``owner`` is the class or module whose namespace holds the name the
        caller resolves.  ``observe(result)`` sees each return value.
        """
        original = vars(owner)[attr]
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"{owner.__name__}.{attr}: wrap plain functions only")
        spans, clock, ident = self.spans, time.perf_counter, threading.get_ident

        @wraps(original)
        def traced(*args, **kwargs):
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                spans.append((name, start, clock(), ident(), self.ctx))
            if observe is not None:
                observe(result)
            return result

        self._patches.append((owner, attr, original, traced))
        if self.active:
            setattr(owner, attr, traced)

    def pause(self) -> None:
        """Put every original back, keeping the wrappers for resume()."""
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        self.active = False

    def resume(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self.active = True

    def restore(self) -> None:
        """Put every original back for good."""
        self.pause()
        self._patches.clear()

    def patched(self) -> list[tuple[object, str, object]]:
        """(owner, attr, original) for every name this recorder patched."""
        return [(owner, attr, original) for owner, attr, original, _ in self._patches]

    # -- analysis --------------------------------------------------------

    def tree(self) -> list[int]:
        """Parent index of every span (-1 for a root), by per-thread nesting."""
        parents = [-1] * len(self.spans)
        by_thread: dict[int, list[int]] = {}
        for index, span in enumerate(self.spans):
            by_thread.setdefault(span[3], []).append(index)
        for indices in by_thread.values():
            indices.sort(key=lambda i: (self.spans[i][1], -self.spans[i][2]))
            stack: list[int] = []
            for index in indices:
                start = self.spans[index][1]
                while stack and self.spans[stack[-1]][2] <= start:
                    stack.pop()
                if stack:
                    parents[index] = stack[-1]
                stack.append(index)
        return parents

    def self_times(self, parents: list[int]) -> list[float]:
        own = [end - start for _, start, end, _, _ in self.spans]
        for index, parent in enumerate(parents):
            if parent >= 0:
                _, start, end, _, _ = self.spans[index]
                own[parent] -= end - start
        return own

    def write_jsonl(self, path) -> int:
        parents = self.tree()
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, thread, ctx) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parents[index],
                            "ctx": ctx,
                            "thread": thread,
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )
        return len(self.spans)

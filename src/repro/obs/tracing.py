"""Hierarchical span tracing over the epoch pipeline.

A :class:`Tracer` records a tree of named spans per root operation
(typically one lifecycle epoch): challenge → prove → verify →
checkpoint build → post → mine → settle.  Two clocks run side by side:

- **wall clock** (``perf_counter``), always recorded in memory, so a
  span tree can decompose real epoch wall-time into named phases; and
- **logical clock** — a monotonic counter ticked once per span
  start/finish — used for the *exported* timestamps when the tracer is
  in deterministic mode, so two traced runs of the same seed export
  byte-identical JSONL (wall-clock never reaches the export).

Tracing writes nothing into chain state, RNG streams, or the lifecycle
``EventTrail``; a traced deterministic run therefore produces the same
``state_hash`` and trail digest as an untraced one (enforced by
``tests/obs/test_traced_lifecycle.py``).

A disabled tracer (``Tracer(enabled=False)`` or the module-level
``NULL_TRACER``) reuses one no-op context manager, so instrumented code
may call ``tracer.span(...)`` unconditionally.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Iterator


class Span:
    """One named region; children nest strictly inside the parent."""

    __slots__ = (
        "name",
        "attrs",
        "logical_start",
        "logical_end",
        "wall_start",
        "wall_end",
        "children",
    )

    def __init__(self, name: str, attrs: dict | None = None):
        self.name = name
        self.attrs = attrs or {}
        self.logical_start = 0
        self.logical_end = 0
        self.wall_start = 0.0
        self.wall_end = 0.0
        self.children: list[Span] = []

    @property
    def wall_seconds(self) -> float:
        return self.wall_end - self.wall_start

    def child_wall_seconds(self) -> float:
        return sum(c.wall_seconds for c in self.children)

    def to_dict(self, deterministic: bool) -> dict:
        """JSON-safe span record.

        In deterministic mode only logical timestamps are exported; in
        wall mode both wall timestamps and duration are included.
        """
        record: dict = {"name": self.name}
        if self.attrs:
            record["attrs"] = {k: self.attrs[k] for k in sorted(self.attrs)}
        record["t0"] = self.logical_start
        record["t1"] = self.logical_end
        if not deterministic:
            record["wall0"] = self.wall_start
            record["wall1"] = self.wall_end
            record["seconds"] = self.wall_seconds
        if self.children:
            record["children"] = [c.to_dict(deterministic) for c in self.children]
        return record


class _NullSpanContext:
    """Shared no-op context manager for disabled tracers."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_CONTEXT = _NullSpanContext()


class _SpanContext:
    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._enter(self._span)
        return self._span

    def __exit__(self, *exc):
        self._tracer._exit(self._span)
        return False


class Tracer:
    """Collects span trees; one root span per top-level operation.

    ``deterministic=True`` switches the *exported* timestamps to the
    logical clock.  ``max_roots`` bounds memory on long-lived services:
    the oldest root trees are dropped once the limit is exceeded (the
    running totals in ``span_count`` are unaffected).

    Not thread-safe by design: one tracer belongs to one driving thread
    (the lifecycle/engine loop).  Concurrent lanes record their own
    timings through the metrics registry instead.
    """

    def __init__(
        self,
        deterministic: bool = False,
        enabled: bool = True,
        max_roots: int = 256,
    ):
        self.deterministic = deterministic
        self.enabled = enabled
        self.max_roots = max_roots
        self.roots: list[Span] = []
        self.span_count = 0
        self._stack: list[Span] = []
        self._clock = 0

    # -- recording -------------------------------------------------------
    def span(self, name: str, **attrs):
        """Context manager opening a span under the current innermost one."""
        if not self.enabled:
            return _NULL_CONTEXT
        return _SpanContext(self, Span(name, attrs))

    def _tick(self) -> int:
        self._clock += 1
        return self._clock

    def _enter(self, span: Span) -> None:
        span.logical_start = self._tick()
        span.wall_start = time.perf_counter()
        if self._stack:
            self._stack[-1].children.append(span)
        self._stack.append(span)

    def _exit(self, span: Span) -> None:
        span.wall_end = time.perf_counter()
        span.logical_end = self._tick()
        popped = self._stack.pop()
        if popped is not span:  # pragma: no cover - misuse guard
            raise RuntimeError(f"span stack corrupted: closed {span.name!r} out of order")
        if not self._stack:
            self.roots.append(span)
            self.span_count += 1
            if len(self.roots) > self.max_roots:
                del self.roots[: len(self.roots) - self.max_roots]
        else:
            self.span_count += 1

    # -- export ----------------------------------------------------------
    def export_lines(self) -> Iterator[str]:
        """One JSON line per root span tree, stable key order."""
        for root in self.roots:
            yield json.dumps(
                root.to_dict(self.deterministic), sort_keys=True, separators=(",", ":")
            )

    def export_jsonl(self) -> str:
        lines = list(self.export_lines())
        return "\n".join(lines) + ("\n" if lines else "")

    def write_jsonl(self, path) -> int:
        """Write the trail next to the lifecycle EventTrail; returns roots written."""
        text = self.export_jsonl()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return len(self.roots)

    def digest(self) -> str:
        """SHA-256 over the exported JSONL — the replayable-trail anchor."""
        return hashlib.sha256(self.export_jsonl().encode("utf-8")).hexdigest()

    def tree_dicts(self, last: int | None = None) -> list[dict]:
        start = 0 if last is None else max(0, len(self.roots) - last)
        return [r.to_dict(self.deterministic) for r in self.roots[start:]]

    def reset(self) -> None:
        self.roots.clear()
        self._stack.clear()
        self._clock = 0
        self.span_count = 0


NULL_TRACER = Tracer(enabled=False)

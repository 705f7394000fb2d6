"""Tracer contract: hierarchical spans, deterministic export, no-op mode.

The tracer runs *inside* the deterministic lifecycle domain, so its
deterministic export mode must be a pure function of the span sequence —
logical-counter timestamps only, byte-identical JSONL across identical
runs — while wall-clock durations stay available in memory for the
decomposition checks.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.obs import Tracer
from repro.obs.tracing import NULL_TRACER


class TestSpans:
    def test_nesting_builds_a_tree(self):
        tracer = Tracer()
        with tracer.span("epoch", epoch=3):
            with tracer.span("audit"):
                with tracer.span("prove"):
                    pass
                with tracer.span("verify"):
                    pass
            with tracer.span("settle"):
                pass
        (root,) = tracer.roots
        assert root.name == "epoch"
        assert root.attrs == {"epoch": 3}
        assert [c.name for c in root.children] == ["audit", "settle"]
        assert [c.name for c in root.children[0].children] == ["prove", "verify"]
        assert tracer.span_count == 5

    def test_wall_durations_nest(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                time.sleep(0.01)
        (root,) = tracer.roots
        assert root.wall_seconds >= root.child_wall_seconds() > 0.0

    def test_exception_still_closes_the_span(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        (root,) = tracer.roots
        assert root.wall_end is not None

    def test_roots_trimmed_to_max(self):
        tracer = Tracer(max_roots=3)
        for i in range(10):
            with tracer.span("epoch", epoch=i):
                pass
        assert [r.attrs["epoch"] for r in tracer.roots] == [7, 8, 9]
        assert tracer.span_count == 10  # the counter survives the trim


class TestDeterministicExport:
    def _run(self):
        tracer = Tracer(deterministic=True)
        for epoch in range(3):
            with tracer.span("epoch", epoch=epoch):
                with tracer.span("audit"):
                    time.sleep(0.001 * (epoch + 1))  # wall noise
        return tracer

    def test_byte_identical_across_runs(self):
        assert self._run().export_jsonl() == self._run().export_jsonl()
        assert self._run().digest() == self._run().digest()

    def test_logical_timestamps_not_wall(self):
        lines = self._run().export_lines()
        for line in lines:
            record = json.loads(line)
            assert "wall0" not in record and "seconds" not in record
            assert isinstance(record["t0"], int)

    def test_wall_mode_exports_durations(self):
        tracer = Tracer(deterministic=False)
        with tracer.span("epoch"):
            pass
        record = json.loads(next(iter(tracer.export_lines())))
        assert "seconds" in record and record["seconds"] >= 0.0

    def test_write_jsonl(self, tmp_path):
        tracer = self._run()
        path = tmp_path / "spans.jsonl"
        tracer.write_jsonl(path)
        assert path.read_text() == tracer.export_jsonl()


class TestDisabled:
    def test_null_tracer_records_nothing(self):
        with NULL_TRACER.span("epoch", epoch=1):
            with NULL_TRACER.span("audit"):
                pass
        assert NULL_TRACER.roots == []
        assert NULL_TRACER.span_count == 0

    def test_disabled_tracer_context_is_reused(self):
        tracer = Tracer(enabled=False)
        a = tracer.span("x")
        b = tracer.span("y")
        assert a is b  # one shared null context: no per-span allocation

    def test_tree_dicts_renders_last_n(self):
        tracer = Tracer()
        for i in range(5):
            with tracer.span("epoch", epoch=i):
                pass
        trees = tracer.tree_dicts(last=2)
        assert [t["attrs"]["epoch"] for t in trees] == [3, 4]
        assert tracer.tree_dicts(last=0) == []
        assert len(tracer.tree_dicts(last=9)) == 5

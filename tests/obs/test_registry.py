"""MetricsRegistry semantics: typed instruments, labels, exporters.

The registry is the process-wide aggregation point every layer records
into, so its contract has to be airtight: idempotent creation, type and
label-arity mismatches refused, thread-safe increments, and exposition
that Prometheus (text 0.0.4) and the JSON-lines reader both accept.
"""

from __future__ import annotations

import ast
import json
import math
import threading
from pathlib import Path

import pytest

import repro
from repro.chain.fabric import ShardedChainFabric
from repro.chain.mempool import MempoolConfig
from repro.da.sampling import DaSampler
from repro.obs import MetricsRegistry, register_core_instruments
from repro.obs import registry as registry_module
from repro.obs.registry import CORE_INSTRUMENTS, DEFAULT_BUCKETS
from repro.rpc import RpcDispatcher


@pytest.fixture()
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_counts_up_and_only_up(self, registry):
        c = registry.counter("jobs_total", "jobs")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_labelled_children_are_independent(self, registry):
        c = registry.counter("errs_total", "errors", ("code",))
        c.labels("busy").inc()
        c.labels("busy").inc()
        c.labels("full").inc(3)
        values = {
            key[0]: child.value for key, child in registry.get("errs_total").children()
        }
        assert values == {"busy": 2, "full": 3}

    def test_label_arity_enforced(self, registry):
        c = registry.counter("multi_total", "m", ("a", "b"))
        with pytest.raises(ValueError):
            c.labels("only-one")


class TestGauge:
    def test_set_and_add(self, registry):
        g = registry.gauge("depth", "queue depth")
        g.set(7)
        assert g.value == 7
        g.set(3)
        assert g.value == 3


class TestHistogram:
    def test_cumulative_buckets_end_at_inf(self, registry):
        h = registry.histogram("lat", "latency", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            h.observe(v)
        cumulative = h.cumulative()
        assert cumulative[-1][1] == 3
        assert math.isinf(cumulative[-1][0])
        assert [n for _le, n in cumulative] == [1, 2, 3]
        assert h.sum == pytest.approx(5.55)

    def test_quantiles_interpolate_and_clamp(self, registry):
        h = registry.histogram("q", "latency", buckets=(1.0, 2.0, 4.0))
        for v in (0.5,) * 50 + (1.5,) * 50:
            h.observe(v)
        assert 0.0 < h.quantile(0.50) <= 1.0
        assert 1.0 < h.quantile(0.99) <= 2.0
        h.observe(100.0)  # overflows every finite bound
        assert h.quantile(0.999) == 4.0  # clamped to last finite bucket

    def test_empty_histogram_quantile_is_zero(self, registry):
        h = registry.histogram("e", "latency")
        assert h.quantile(0.5) == 0.0


class TestRegistry:
    def test_same_name_returns_same_family(self, registry):
        a = registry.counter("x_total", "x")
        b = registry.counter("x_total", "x")
        a.inc()
        assert b.value == 1

    def test_kind_mismatch_refused(self, registry):
        registry.counter("x_total", "x")
        with pytest.raises(ValueError):
            registry.gauge("x_total", "x")

    def test_label_mismatch_refused(self, registry):
        registry.counter("x_total", "x", ("a",))
        with pytest.raises(ValueError):
            registry.counter("x_total", "x", ("b",))

    def test_bucket_mismatch_refused(self, registry):
        registry.histogram("h", "h", buckets=(1.0, 2.0))
        with pytest.raises(ValueError):
            registry.histogram("h", "h", buckets=(1.0, 3.0))

    def test_thread_safe_increments(self, registry):
        c = registry.counter("race_total", "contended")
        h = registry.histogram("race_lat", "contended")

        def work():
            for _ in range(1000):
                c.inc()
                h.observe(0.01)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 8000
        assert h.count == 8000

    def test_collect_hooks_refresh_and_detach(self, registry):
        g = registry.gauge("hooked", "refreshed")
        state = {"v": 0}

        def refresh():
            state["v"] += 1
            g.set(state["v"])

        registry.add_collect_hook(refresh)
        registry.snapshot()
        registry.snapshot()
        assert g.value == 2
        registry.remove_collect_hook(refresh)
        registry.snapshot()
        assert g.value == 2

    def test_failing_hook_never_breaks_exposition(self, registry):
        registry.counter("ok_total", "fine").inc()

        def bad_hook():
            raise RuntimeError("collector died")

        registry.add_collect_hook(bad_hook)
        assert "ok_total" in registry.snapshot()
        assert "ok_total" in registry.to_prometheus()

    def test_failing_hook_is_counted(self, registry):
        calls = []

        def bad_hook():
            calls.append(None)
            raise RuntimeError("collector died")

        registry.add_collect_hook(bad_hook)
        registry.add_collect_hook(lambda: None)
        registry.snapshot()
        registry.to_prometheus()
        errors = registry.snapshot()["metrics_collect_hook_errors_total"]
        assert len(calls) == 3 and errors["series"][0]["value"] == 3


class TestExporters:
    def test_prometheus_text_format(self, registry):
        registry.counter("req_total", "requests", ("method",)).labels(
            "mine"
        ).inc(2)
        registry.gauge("depth", "pool depth").set(5)
        h = registry.histogram("lat_seconds", "latency", buckets=(0.1, 1.0))
        h.observe(0.05)
        text = registry.to_prometheus()
        assert "# TYPE req_total counter" in text
        assert 'req_total{method="mine"} 2' in text
        assert "# TYPE depth gauge" in text
        assert "depth 5" in text
        assert 'lat_seconds_bucket{le="0.1"} 1' in text
        assert 'lat_seconds_bucket{le="+Inf"} 1' in text
        assert "lat_seconds_count 1" in text

    def test_label_values_escaped(self, registry):
        registry.counter("esc_total", "e", ("why",)).labels('a"b\\c\n').inc()
        text = registry.to_prometheus()
        assert 'why="a\\"b\\\\c\\n"' in text

    def test_snapshot_includes_quantiles(self, registry):
        h = registry.histogram("lat", "latency")
        for v in (0.01, 0.02, 0.03):
            h.observe(v)
        point = registry.snapshot()["lat"]["series"][0]
        assert point["count"] == 3
        assert point["p50"] <= point["p95"] <= point["p99"]

    def test_json_lines_round_trip(self, registry):
        registry.counter("a_total", "a").inc()
        registry.histogram("b", "b").observe(0.5)
        lines = registry.to_json_lines().strip().splitlines()
        parsed = [json.loads(line) for line in lines]
        assert {p["name"] for p in parsed} == {"a_total", "b"}


class TestCoreInstruments:
    def test_registers_every_layer(self, registry):
        register_core_instruments(registry)
        names = set(registry.snapshot())
        layers = {name.split("_")[0] for name in names}
        assert {"rpc", "mempool", "fabric", "engine", "crypto",
                "lifecycle"} <= layers
        assert len(names) == len(CORE_INSTRUMENTS)

    def test_idempotent(self, registry):
        register_core_instruments(registry)
        register_core_instruments(registry)  # same types/labels: no raise

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)

    def test_help_text_does_not_depend_on_who_registers_first(self, monkeypatch):
        """The layers and the catalog declare nothing twice, so the same
        ``# HELP`` lines come out whichever side creates a family first."""

        def help_lines(catalog_first: bool) -> list[str]:
            registry = MetricsRegistry()
            # The fabric and its mempools record into the process registry.
            monkeypatch.setattr(registry_module, "_default_registry", registry)
            if catalog_first:
                register_core_instruments(registry)
            fabric = ShardedChainFabric(num_lanes=1, mempool=MempoolConfig())
            try:
                fabric.attach_gauges()
                RpcDispatcher(registry=registry)
                DaSampler(lambda commitment, indices: {}, registry=registry)
            finally:
                fabric.close()
            register_core_instruments(registry)
            text = registry.to_prometheus()
            return [line for line in text.splitlines() if line.startswith("# HELP")]

        assert help_lines(catalog_first=True) == help_lines(catalog_first=False)

    def test_only_the_catalog_declares_instruments(self):
        """Outside ``obs/registry.py`` no module of the package creates an
        instrument with its own help text or labels: every layer fetches
        its family from the catalog with ``instrument(name)``."""
        src = Path(repro.__file__).parent
        declaring = []
        for path in sorted(src.rglob("*.py")):
            relative = path.relative_to(src).as_posix()
            if relative == "obs/registry.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("counter", "gauge", "histogram")
                ):
                    declaring.append(f"{relative}:{node.lineno}")
        assert declaring == []

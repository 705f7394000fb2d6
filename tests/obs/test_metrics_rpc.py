"""Observability over the wire: metrics_get, trace_get, rpc_metrics, HTTP.

The dispatcher's registry instruments, the tracer's span trees, and the
Prometheus endpoint are all read back through real sockets — the same
surfaces ``repro serve`` and ``repro top`` use.
"""

from __future__ import annotations

from urllib.request import urlopen

import pytest

from repro.chain import Blockchain
from repro.chain.mempool import MempoolConfig
from repro.obs import (
    MetricsHttpServer,
    MetricsRegistry,
    Tracer,
    get_registry,
    register_core_instruments,
)
from repro.obs.httpd import PROMETHEUS_CONTENT_TYPE
from repro.rpc import (
    RpcClient,
    RpcClientError,
    RpcDispatcher,
    RpcTcpServer,
    ServiceNode,
)


@pytest.fixture()
def stack():
    """A pooled chain behind a live server with a shared registry+tracer."""
    registry = MetricsRegistry()
    register_core_instruments(registry)
    tracer = Tracer(deterministic=True)
    chain = Blockchain(mempool=MempoolConfig())
    node = ServiceNode(chain)
    dispatcher = RpcDispatcher(registry=registry, tracer=tracer)
    node.register_on(dispatcher)
    server = RpcTcpServer(dispatcher)
    server.serve_in_thread()
    client = RpcClient(*server.address)
    yield client, registry, tracer
    client.close()
    server.close()


class TestMetricsGet:
    def test_snapshot_covers_every_layer(self, stack):
        client, _registry, _tracer = stack
        client.call("node_status")
        snapshot = client.call("metrics_get")
        layers = {name.split("_")[0] for name in snapshot}
        assert {"rpc", "mempool", "fabric", "engine", "crypto",
                "lifecycle"} <= layers

    def test_rpc_counters_advance_per_call(self, stack):
        client, _registry, _tracer = stack
        client.call("node_status")
        client.call("node_status")
        snapshot = client.call("metrics_get")
        series = snapshot["rpc_requests_total"]["series"]
        by_method = {
            point["labels"]["method"]: point["value"] for point in series
        }
        assert by_method["node_status"] == 2

    def test_json_safe(self, stack):
        client, _registry, _tracer = stack
        snapshot = client.call("metrics_get")  # survived json round-trip
        assert isinstance(snapshot, dict) and snapshot


class TestRpcMetricsMethod:
    def test_old_keys_kept_and_quantiles_added(self, stack):
        client, _registry, _tracer = stack
        for _ in range(3):
            client.call("node_status")
        metrics = client.call("rpc_metrics")
        entry = metrics["node_status"]
        # Pre-registry dashboard keys survive the migration ...
        assert entry["calls"] == 3
        assert entry["errors"] == 0
        assert entry["seconds"] >= 0.0
        assert entry["mean"] == pytest.approx(entry["seconds"] / 3)
        # ... and the registry histogram adds the latency quantiles.
        assert 0.0 <= entry["p50"] <= entry["p95"] <= entry["p99"]

    def test_errors_counted(self, stack):
        client, _registry, _tracer = stack
        with pytest.raises(Exception):
            client.call("state_get", {"address": 42})
        metrics = client.call("rpc_metrics")
        assert metrics["state_get"]["errors"] == 1


class TestTraceGet:
    def test_without_tracer_reports_disabled(self):
        dispatcher = RpcDispatcher()
        assert dispatcher._trace_get() == {
            "enabled": False,
            "spans": 0,
            "roots": [],
        }

    def test_span_trees_over_the_wire(self, stack):
        client, _registry, tracer = stack
        for epoch in range(3):
            with tracer.span("epoch", epoch=epoch):
                with tracer.span("audit"):
                    pass
        trace = client.call("trace_get", {"last": 2})
        assert trace["enabled"] and trace["deterministic"]
        assert trace["spans"] == 6
        assert [root["attrs"]["epoch"] for root in trace["roots"]] == [1, 2]
        assert trace["roots"][0]["children"][0]["name"] == "audit"
        assert trace["digest"] == tracer.digest()
        # A malformed ``last`` is the caller's fault (-32602), like every
        # other RPC parameter, never an internal error.
        for last in ("x", None, [1], float("inf"), -1, True):
            with pytest.raises(RpcClientError) as excinfo:
                client.call("trace_get", {"last": last})
            assert excinfo.value.code == -32602, last


class TestPrometheusEndpoint:
    def test_serves_text_exposition(self, stack):
        client, registry, _tracer = stack
        client.call("node_status")
        with MetricsHttpServer(registry) as http:
            url = f"http://{http.host}:{http.port}/metrics"
            with urlopen(url) as response:
                assert response.headers["Content-Type"] == (
                    PROMETHEUS_CONTENT_TYPE
                )
                text = response.read().decode("utf-8")
        assert 'rpc_requests_total{method="node_status"} 1' in text
        assert "# TYPE mempool_depth gauge" in text

    def test_serves_json_lines_and_404(self, stack):
        _client, registry, _tracer = stack
        with MetricsHttpServer(registry) as http:
            base = f"http://{http.host}:{http.port}"
            with urlopen(f"{base}/metrics.jsonl") as response:
                assert b'"name"' in response.read()
            with pytest.raises(Exception):
                urlopen(f"{base}/nope")

    def test_default_registry_is_process_wide(self):
        with MetricsHttpServer() as http:
            assert http.registry is get_registry()

"""Method dispatcher: named handlers, error mapping, per-method metrics.

The dispatcher is the transport-independent core of the RPC service: the
TCP server (:mod:`repro.rpc.server`) hands it raw frame bytes, it returns
encoded response bytes (or ``None`` for notifications).  Handlers are
plain callables taking keyword arguments; positional (array) params are
bound left-to-right against the handler's signature.

Error contract — *every* failure becomes a structured JSON-RPC error:

* :class:`~repro.rpc.codec.RpcError` raised by a handler passes through,
* a :class:`~repro.chain.mempool.MempoolRejection` maps onto the
  application code taxonomy (:func:`~repro.rpc.codec.rejection_error`),
* ``TypeError`` from binding bad arguments maps to ``INVALID_PARAMS``,
* anything else maps to ``INTERNAL_ERROR`` carrying only the exception
  class name — tracebacks never cross the wire.

Metrics: every method is metered through :mod:`repro.obs` registry
instruments — ``rpc_requests_total`` / ``rpc_errors_total`` counters and
an ``rpc_request_seconds`` histogram, all labelled by method.  The
built-in ``rpc_metrics`` method keeps its historical per-method
``{calls, errors, seconds}`` keys (computed from those instruments) and
now adds ``mean`` / ``p50`` / ``p95`` / ``p99`` estimated from the fixed
histogram buckets.  ``metrics_get`` exposes the whole registry snapshot
and ``trace_get`` the span trees of an attached tracer.

By default each dispatcher meters into its own private
:class:`~repro.obs.registry.MetricsRegistry` (so concurrent dispatchers
and test fixtures stay isolated); ``repro serve`` passes the process-wide
registry so RPC metrics land beside the mempool/fabric/engine/lifecycle
instruments in one Prometheus exposition.
"""

from __future__ import annotations

import inspect
import time
from typing import Any, Callable

from ..obs.registry import MetricsRegistry
from ..obs.tracing import Tracer
from .codec import (
    INTERNAL_ERROR,
    INVALID_PARAMS,
    MAX_BATCH_ITEMS,
    METHOD_NOT_FOUND,
    RpcError,
    decode_frame,
    encode_error,
    encode_frame,
    encode_result,
    rejection_error,
    validate_request,
)


class RpcDispatcher:
    """Routes validated requests to registered handlers and meters them."""

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ):
        self._methods: dict[str, Callable] = {}
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer
        self._requests = self.registry.instrument("rpc_requests_total")
        self._errors = self.registry.instrument("rpc_errors_total")
        self._latency = self.registry.instrument("rpc_request_seconds")
        self.register("rpc_methods", self._rpc_methods)
        self.register("rpc_metrics", self._rpc_metrics)
        self.register("metrics_get", self._metrics_get)
        self.register("trace_get", self._trace_get)

    # -- registry ------------------------------------------------------------

    def register(self, name: str, handler: Callable) -> None:
        if name in self._methods:
            raise ValueError(f"method {name!r} already registered")
        self._methods[name] = handler

    def register_namespace(self, obj: Any, names: "list[str]") -> None:
        """Register ``obj.<name>`` for every name (the ServiceNode hookup)."""
        for name in names:
            self.register(name, getattr(obj, name))

    def methods(self) -> list[str]:
        return sorted(self._methods)

    # -- built-ins -----------------------------------------------------------

    def _rpc_methods(self) -> list[str]:
        return self.methods()

    def _rpc_metrics(self) -> dict:
        """Per-method metrics: historical keys plus histogram quantiles.

        ``calls``/``errors``/``seconds`` keep their pre-registry meaning;
        ``mean``/``p50``/``p95``/``p99`` come from the latency histogram.
        """
        out: dict[str, dict[str, float]] = {}
        for (key, child) in self._latency.children():
            if not child.count:
                continue
            method = key[0]
            out[method] = {
                "calls": int(self._requests.labels(method).value),
                "errors": int(self._errors.labels(method).value),
                "seconds": child.sum,
                "mean": child.sum / child.count,
                "p50": child.quantile(0.50),
                "p95": child.quantile(0.95),
                "p99": child.quantile(0.99),
            }
        return dict(sorted(out.items()))

    def _metrics_get(self) -> dict:
        """The full registry snapshot (all layers when serve shares one)."""
        return self.registry.snapshot()

    def _trace_get(self, last: int = 8) -> dict:
        """Span trees from the attached tracer (empty when none attached)."""
        if not (isinstance(last, int) and not isinstance(last, bool) and last >= 0):
            raise RpcError(INVALID_PARAMS, "last must be a non-negative integer")
        if self.tracer is None:
            return {"enabled": False, "spans": 0, "roots": []}
        return {
            "enabled": self.tracer.enabled,
            "deterministic": self.tracer.deterministic,
            "spans": self.tracer.span_count,
            "digest": self.tracer.digest(),
            "roots": self.tracer.tree_dicts(last=last),
        }

    # -- dispatch ------------------------------------------------------------

    def _record(self, method: str, seconds: float, failed: bool) -> None:
        if method not in self._methods:
            return
        self._requests.labels(method).inc()
        self._latency.labels(method).observe(seconds)
        if failed:
            self._errors.labels(method).inc()

    def _invoke(self, method: str, params: Any) -> Any:
        handler = self._methods.get(method)
        if handler is None:
            raise RpcError(METHOD_NOT_FOUND, f"unknown method {method!r}")
        try:
            if isinstance(params, dict):
                return handler(**params)
            return handler(*params)
        except RpcError:
            raise
        except TypeError as exc:
            # Distinguish a bad binding (caller's fault) from a TypeError
            # raised deeper in the handler body (the service's fault).
            try:
                if isinstance(params, dict):
                    inspect.signature(handler).bind(**params)
                else:
                    inspect.signature(handler).bind(*params)
            except TypeError:
                raise RpcError(INVALID_PARAMS, str(exc)) from exc
            raise

    def handle_request(self, obj: Any) -> "dict | None":
        """One request object -> one response object (None = notification)."""
        method = "?"
        request_id: Any = None
        t0 = time.perf_counter()
        try:
            method, params, request_id, is_notification = validate_request(obj)
            result = self._invoke(method, params)
            response = (
                None if is_notification else encode_result(request_id, result)
            )
            self._record(method, time.perf_counter() - t0, failed=False)
            return response
        except RpcError as exc:
            self._record(method, time.perf_counter() - t0, failed=True)
            return encode_error(request_id, exc)
        except Exception as exc:  # noqa: BLE001 — the wire must never see a traceback
            if _is_rejection(exc):
                error = rejection_error(exc)
            else:
                error = RpcError(
                    INTERNAL_ERROR,
                    "internal error",
                    data={"exception": type(exc).__name__},
                )
            self._record(method, time.perf_counter() - t0, failed=True)
            return encode_error(request_id, error)

    def handle_raw(self, raw: bytes) -> "bytes | None":
        """One wire frame in, one wire frame out (None: all notifications)."""
        try:
            parsed = decode_frame(raw)
        except RpcError as exc:
            return encode_frame(encode_error(None, exc))
        if isinstance(parsed, list):
            if not parsed:
                return encode_frame(
                    encode_error(None, RpcError(-32600, "empty batch"))
                )
            if len(parsed) > MAX_BATCH_ITEMS:
                return encode_frame(
                    encode_error(
                        None,
                        RpcError(
                            -32600,
                            f"batch exceeds {MAX_BATCH_ITEMS} requests",
                            data={"batch_items": len(parsed)},
                        ),
                    )
                )
            responses = [
                response
                for response in (self.handle_request(item) for item in parsed)
                if response is not None
            ]
            return encode_frame(responses) if responses else None
        response = self.handle_request(parsed)
        return None if response is None else encode_frame(response)


def _is_rejection(exc: Exception) -> bool:
    # Imported lazily so the dispatcher stays usable without the chain
    # package on the import path (e.g. codec-only fuzz harnesses).
    try:
        from ..chain.mempool import MempoolRejection
    except ImportError:  # pragma: no cover
        return False
    return isinstance(exc, MempoolRejection)

"""Process-wide metrics registry with typed instruments.

Three instrument kinds, modelled on the Prometheus data model but
implemented from scratch on the standard library:

- :class:`Counter` — monotonically increasing float (``_total`` names).
- :class:`Gauge` — point-in-time float; supports ``set``/``inc``/``dec``.
- :class:`Histogram` — fixed cumulative bucket boundaries plus sum and
  count, with quantile estimation by linear interpolation inside the
  owning bucket.

Instruments are created through a :class:`MetricsRegistry` and identified
by ``(name)``; creation is idempotent — asking for an existing name with
the same type/labels/buckets returns the existing family.  Every
instrument the program records into is declared once, in
:data:`CORE_INSTRUMENTS`, and fetched by name with
:meth:`MetricsRegistry.instrument`, so its kind, help text and labels
never depend on which layer asked first.  Label values select a *child*
series via :meth:`~_Family.labels`.

Everything is thread-safe: each family guards its children and their
values with one lock, and the registry guards the family table.  Live
values that are pulled rather than pushed (fabric depth and base fees,
precompute-cache sizes) are refreshed by *collect hooks*, run before
every snapshot/export.
"""

from __future__ import annotations

import json
import math
import threading
from typing import Callable, Sequence

# Default latency buckets (seconds): sub-millisecond codec work up to
# multi-second settlement phases.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

_LABEL_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n"}


def _escape_label(value: str) -> str:
    return "".join(_LABEL_ESCAPES.get(ch, ch) for ch in str(value))


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(float(value))


class _Family:
    """One named instrument family; children keyed by label values."""

    kind = "untyped"

    def __init__(self, name: str, help: str, label_names: Sequence[str]):
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], object] = {}
        if not self.label_names:
            # Unlabelled instruments act as their own single child.
            self._children[()] = self._new_child()

    def _new_child(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def labels(self, *values, **kwargs):
        if kwargs:
            if values:
                raise ValueError("pass label values positionally or by name, not both")
            values = tuple(kwargs[name] for name in self.label_names)
        key = tuple(str(v) for v in values)
        if len(key) != len(self.label_names):
            raise ValueError(
                f"{self.name}: expected labels {self.label_names}, got {key!r}"
            )
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._new_child()
                self._children[key] = child
            return child

    def children(self) -> list[tuple[tuple[str, ...], object]]:
        with self._lock:
            return sorted(self._children.items())

    # -- delegate the single-child API on unlabelled families ----------
    def _only(self):
        if self.label_names:
            raise ValueError(f"{self.name} has labels {self.label_names}; use .labels()")
        return self._children[()]


class Counter(_Family):
    kind = "counter"

    def _new_child(self):
        return _CounterChild(self._lock)

    def inc(self, amount: float = 1.0) -> None:
        self._only().inc(amount)

    @property
    def value(self) -> float:
        return self._only().value


class _CounterChild:
    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.Lock):
        self._lock = lock
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge(_Family):
    kind = "gauge"

    def _new_child(self):
        return _GaugeChild(self._lock)

    def set(self, value: float) -> None:
        self._only().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._only().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._only().inc(-amount)

    @property
    def value(self) -> float:
        return self._only().value


class _GaugeChild:
    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.Lock):
        self._lock = lock
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Histogram(_Family):
    kind = "histogram"

    def __init__(self, name, help, label_names, buckets: Sequence[float] = DEFAULT_BUCKETS):
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket boundary")
        self.buckets = bounds
        super().__init__(name, help, label_names)

    def _new_child(self):
        return _HistogramChild(self._lock, self.buckets)

    def observe(self, value: float) -> None:
        self._only().observe(value)

    def quantile(self, q: float) -> float:
        return self._only().quantile(q)

    def cumulative(self) -> "list[tuple[float, int]]":
        return self._only().cumulative()

    @property
    def count(self) -> int:
        return self._only().count

    @property
    def sum(self) -> float:
        return self._only().sum


class _HistogramChild:
    __slots__ = ("_lock", "buckets", "_counts", "_overflow", "sum", "count")

    def __init__(self, lock: threading.Lock, buckets: tuple[float, ...]):
        self._lock = lock
        self.buckets = buckets
        self._counts = [0] * len(buckets)
        self._overflow = 0
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.sum += value
            self.count += 1
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    self._counts[i] += 1
                    return
            self._overflow += 1

    def cumulative(self) -> list[tuple[float, int]]:
        """``(le, cumulative_count)`` pairs ending with ``(+Inf, count)``."""
        with self._lock:
            out, running = [], 0
            for bound, n in zip(self.buckets, self._counts):
                running += n
                out.append((bound, running))
            out.append((math.inf, running + self._overflow))
            return out

    def quantile(self, q: float) -> float:
        """Estimate quantile ``q`` in [0, 1] by bucket interpolation.

        Values beyond the last finite boundary clamp to that boundary —
        the standard Prometheus ``histogram_quantile`` behaviour.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be within [0, 1]")
        cum = self.cumulative()
        total = cum[-1][1]
        if total == 0:
            return 0.0
        target = q * total
        prev_bound, prev_count = 0.0, 0
        for bound, count in cum:
            if count >= target:
                if bound == math.inf:
                    return prev_bound
                if count == prev_count:
                    return bound
                frac = (target - prev_count) / (count - prev_count)
                return prev_bound + frac * (bound - prev_bound)
            prev_bound, prev_count = bound, count
        return prev_bound  # pragma: no cover - loop always returns


class MetricsRegistry:
    """Table of instrument families plus exporters.

    ``counter``/``gauge``/``histogram`` are idempotent: re-requesting an
    existing name returns the existing family (type and shape must
    match).  ``instrument(name)`` is how the program's layers fetch a
    :data:`CORE_INSTRUMENTS` family.  ``snapshot()`` renders everything to plain dicts;
    ``to_prometheus()`` and ``to_json_lines()`` render the two wire
    formats.  ``add_collect_hook`` registers a callable run before every
    snapshot/export so pull-style layers can refresh their gauges.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}
        self._hooks: list[Callable[[], None]] = []

    # -- instrument creation -------------------------------------------
    def _get_or_create(self, cls, name, help, label_names, **kwargs):
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if not isinstance(family, cls):
                    raise ValueError(
                        f"{name} already registered as {family.kind}, not {cls.kind}"
                    )
                if family.label_names != tuple(label_names):
                    raise ValueError(
                        f"{name} already registered with labels {family.label_names}"
                    )
                return family
            family = cls(name, help, tuple(label_names), **kwargs)
            self._families[name] = family
            return family

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        family = self._get_or_create(Histogram, name, help, labels, buckets=buckets)
        if family.buckets != tuple(sorted(float(b) for b in buckets)):
            raise ValueError(f"{name} already registered with buckets {family.buckets}")
        return family

    def instrument(self, name: str) -> _Family:
        """The catalog family ``name``, built from :data:`CORE_INSTRUMENTS`."""
        kind, help, labels = _CATALOG[name]
        return getattr(self, kind)(name, help, labels)

    def get(self, name: str) -> _Family | None:
        with self._lock:
            return self._families.get(name)

    def families(self) -> list[_Family]:
        with self._lock:
            return [self._families[k] for k in sorted(self._families)]

    # -- collect hooks --------------------------------------------------
    def add_collect_hook(self, hook: Callable[[], None]) -> None:
        with self._lock:
            self._hooks.append(hook)

    def remove_collect_hook(self, hook: Callable[[], None]) -> None:
        with self._lock:
            if hook in self._hooks:
                self._hooks.remove(hook)

    def collect(self) -> None:
        with self._lock:
            hooks = list(self._hooks)
        for hook in hooks:
            try:
                hook()
            except Exception:
                # A dead hook must never break exposition, but it is counted.
                self.instrument("metrics_collect_hook_errors_total").inc()

    # -- exporters -------------------------------------------------------
    def snapshot(self) -> dict:
        """Everything as plain dicts (JSON-safe), for ``metrics_get``."""
        self.collect()
        out: dict[str, dict] = {}
        for family in self.families():
            series = []
            for key, child in family.children():
                labels = dict(zip(family.label_names, key))
                if family.kind == "histogram":
                    series.append(
                        {
                            "labels": labels,
                            "count": child.count,
                            "sum": child.sum,
                            "buckets": [
                                ["+Inf" if math.isinf(le) else le, n]
                                for le, n in child.cumulative()
                            ],
                            "p50": child.quantile(0.50),
                            "p95": child.quantile(0.95),
                            "p99": child.quantile(0.99),
                        }
                    )
                else:
                    series.append({"labels": labels, "value": child.value})
            out[family.name] = {
                "type": family.kind,
                "help": family.help,
                "series": series,
            }
        return out

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        self.collect()
        lines: list[str] = []
        for family in self.families():
            lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for key, child in family.children():
                pairs = [
                    f'{ln}="{_escape_label(lv)}"'
                    for ln, lv in zip(family.label_names, key)
                ]
                base = "{" + ",".join(pairs) + "}" if pairs else ""
                if family.kind == "histogram":
                    for le, n in child.cumulative():
                        le_pairs = pairs + [f'le="{_format_value(le)}"']
                        lines.append(
                            f"{family.name}_bucket{{{','.join(le_pairs)}}} {n}"
                        )
                    lines.append(f"{family.name}_sum{base} {_format_value(child.sum)}")
                    lines.append(f"{family.name}_count{base} {child.count}")
                else:
                    lines.append(f"{family.name}{base} {_format_value(child.value)}")
        return "\n".join(lines) + "\n"

    def to_json_lines(self) -> str:
        """One JSON object per series, newline-delimited."""
        snap = self.snapshot()
        lines = []
        for name in sorted(snap):
            entry = snap[name]
            for series in entry["series"]:
                record = {"name": name, "type": entry["type"], **series}
                lines.append(json.dumps(record, sort_keys=True))
        return "\n".join(lines) + ("\n" if lines else "")


_default_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _default_registry


# Every instrument the program records into, declared once: the layers
# fetch them by name (``MetricsRegistry.instrument``), and pre-registering
# them all lets one ``repro serve`` exposition cover rpc/mempool/fabric/
# engine/lifecycle even before traffic arrives.
CORE_INSTRUMENTS: tuple[tuple[str, str, str, tuple[str, ...]], ...] = (
    # (kind, name, help, labels)
    ("counter", "rpc_requests_total", "JSON-RPC requests handled", ("method",)),
    ("counter", "rpc_errors_total", "JSON-RPC requests that returned an error", ("method",)),
    ("histogram", "rpc_request_seconds", "JSON-RPC per-request handler latency", ("method",)),
    ("counter", "mempool_submitted_total", "transactions admitted to the pool", ()),
    ("counter", "mempool_drained_total", "transactions drained into blocks", ()),
    ("counter", "mempool_replaced_total", "transactions replaced via RBF", ()),
    ("counter", "mempool_evicted_total", "transactions evicted by backpressure", ()),
    ("counter", "mempool_expired_total", "transactions expired by TTL", ()),
    ("counter", "mempool_rejections_total", "admission rejections by taxonomy reason", ("reason",)),
    ("counter", "mempool_priority_inversions_total", "lower-tip tx mined before higher-tip", ()),
    ("counter", "mempool_tips_paid_total", "priority fees paid to miners (wei)", ()),
    ("gauge", "mempool_depth", "pending transactions across all lanes", ()),
    ("counter", "fabric_blocks_mined_total", "blocks mined across all lanes", ()),
    ("counter", "fabric_txs_settled_total", "transactions settled across all lanes", ()),
    ("gauge", "fabric_lane_base_fee_wei", "current base fee per lane", ("lane",)),
    ("gauge", "fabric_settlement_chain_seconds", "slowest lane's occupied block slots x slot time", ()),
    ("counter", "contract_verify_batches_total", "block-scoped grouped checks, by result", ("result",)),
    ("histogram", "contract_verify_batch_size", "statements per block-scoped grouped check", ()),
    ("counter", "engine_epochs_total", "audit epochs executed", ()),
    ("counter", "engine_audits_total", "audits judged, by verdict", ("verdict",)),
    ("histogram", "engine_prove_seconds", "per-epoch prove phase latency", ()),
    ("histogram", "engine_verify_seconds", "per-epoch verify phase latency (batch check + failure localization)", ()),
    ("gauge", "crypto_precompute_entries", "entries in the process precompute cache, by map", ("kind",)),
    ("counter", "lifecycle_epochs_total", "lifecycle epochs completed", ()),
    ("counter", "lifecycle_events_total", "lifecycle trail events by kind", ("kind",)),
    ("histogram", "lifecycle_epoch_seconds", "wall-clock per lifecycle epoch", ()),
    ("counter", "da_samples_total", "DA chunks sampled, by outcome", ("outcome",)),
    ("counter", "da_withholding_detected_total", "sampling runs that flagged withholding", ()),
    ("counter", "da_reconstructions_total", "k-of-n leaf-set reconstructions, by outcome", ("outcome",)),
    ("histogram", "da_sample_run_seconds", "wall-clock per sampling run", ()),
    ("counter", "metrics_collect_hook_errors_total", "collect hooks that raised", ()),
)
_CATALOG = {name: (kind, help, labels) for kind, name, help, labels in CORE_INSTRUMENTS}


def register_core_instruments(registry: MetricsRegistry | None = None) -> MetricsRegistry:
    """Pre-register the canonical instrument catalog (idempotent)."""
    registry = registry or get_registry()
    hooked = registry.get("crypto_precompute_entries") is not None
    for name in _CATALOG:
        registry.instrument(name)
    if not hooked:
        entries = registry.get("crypto_precompute_entries")

        def refresh() -> None:
            # Imported here: crypto.bn254 itself imports obs (hotpath).
            from ..crypto.bn254 import PROCESS_CACHE as cache

            maps = (cache._gt, cache._digests, cache._prepared, cache._wnaf)
            for kind, table in zip(("gt", "digest", "g2lines", "wnaf"), maps):
                entries.labels(kind).set(len(table))

        registry.add_collect_hook(refresh)
    return registry

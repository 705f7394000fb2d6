"""Zero-overhead-when-disabled profiling of the crypto hot path.

The BN254 prove/verify legs and the GF(256) erasure codec carry gated
timers: every MSM entry point goes through ``crypto/bn254/msm._timed_msm``,
and ``crypto/bn254/pairing.py`` and ``storage/erasure.py`` spell the same
gate at their public functions.  It is a single attribute read::

    def _timed_msm(impl, *args):
        if HOTPATH.enabled:
            t0 = perf_counter()
            result = impl(*args)
            HOTPATH.add("bn254.msm", perf_counter() - t0)
            return result
        return impl(*args)

Disabled cost is one boolean check per call against operations that take
hundreds of microseconds to milliseconds — unmeasurable, which the
overhead-guard test (``tests/obs/test_overhead.py``) enforces.

Canonical leg names::

    bn254.msm          multi-scalar multiplication (wNAF chain / fixed-base)
    bn254.miller_loop  one Miller loop evaluation
    bn254.final_exp    one final exponentiation
    gf256.encode       Reed-Solomon encode over GF(256)
    gf256.decode       Reed-Solomon decode/repair over GF(256)

``breakdown()`` renders a fig8-style prove/verify decomposition from
whatever traffic ran while the profiler was enabled.  ``publish`` copies
deltas into a :class:`~repro.obs.registry.MetricsRegistry`'s
``crypto_leg_seconds_total`` / ``crypto_leg_calls_total`` counters.

Scope is the process: the engine's prover threads and concurrent lane
threads all add to the one profiler, so an epoch's call counts are the same
at any worker count.
"""

from __future__ import annotations

import threading

LEGS = (
    "bn254.msm",
    "bn254.miller_loop",
    "bn254.final_exp",
    "gf256.encode",
    "gf256.decode",
)


class HotPathProfiler:
    """Per-leg call counts and accumulated seconds, behind one flag."""

    def __init__(self):
        self.enabled = False
        self._lock = threading.Lock()
        self._calls: dict[str, int] = {}
        self._seconds: dict[str, float] = {}
        self._published: dict[str, float] = {}

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        with self._lock:
            self._calls.clear()
            self._seconds.clear()
            self._published.clear()

    def add(self, leg: str, seconds: float) -> None:
        if leg not in LEGS:
            raise KeyError(f"unknown hot-path leg {leg!r}; known: {LEGS}")
        with self._lock:
            self._calls[leg] = self._calls.get(leg, 0) + 1
            self._seconds[leg] = self._seconds.get(leg, 0.0) + seconds

    def snapshot(self) -> dict[str, dict[str, float]]:
        with self._lock:
            return {
                leg: {"calls": self._calls[leg], "seconds": self._seconds[leg]}
                for leg in sorted(self._calls)
            }

    def total_seconds(self) -> float:
        with self._lock:
            return sum(self._seconds.values())

    def breakdown(self) -> dict[str, float]:
        """Fraction of profiled hot-path time per leg (fig8-style)."""
        with self._lock:
            total = sum(self._seconds.values())
            if total == 0:
                return {}
            return {leg: self._seconds[leg] / total for leg in sorted(self._seconds)}

    def publish(self, registry) -> None:
        """Push deltas since the last publish into registry counters."""
        seconds = registry.counter(
            "crypto_leg_seconds_total", "hot-path time by crypto leg", ("leg",)
        )
        calls = registry.counter(
            "crypto_leg_calls_total", "hot-path calls by crypto leg", ("leg",)
        )
        with self._lock:
            for leg, secs in self._seconds.items():
                delta = secs - self._published.get(leg, 0.0)
                if delta > 0:
                    seconds.labels(leg).inc(delta)
                call_delta = self._calls[leg] - self._published.get(f"{leg}#calls", 0)
                if call_delta > 0:
                    calls.labels(leg).inc(call_delta)
                self._published[leg] = secs
                self._published[f"{leg}#calls"] = self._calls[leg]


HOTPATH = HotPathProfiler()

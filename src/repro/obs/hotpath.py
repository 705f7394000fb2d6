"""Zero-overhead-when-disabled profiling of the crypto hot path.

The BN254 prove/verify legs and the GF(256) erasure codec carry one gated
timer each, written once as the :func:`profiled` decorator and applied to
``multi_scalar_mul``, ``FixedBaseMul.mul``, ``miller_loop_product``,
``final_exponentiation`` and ``ReedSolomonCode.encode`` / ``decode``::

    @profiled("bn254.final_exp")
    def final_exponentiation(f): ...

When profiling is off a call costs one attribute read (``HOTPATH.enabled``)
against operations that take hundreds of microseconds to milliseconds —
unmeasurable, which the overhead-guard test (``tests/obs/test_overhead.py``)
enforces by timing each entry point against its ``__wrapped__`` body.

Canonical leg names::

    bn254.msm          multi-scalar multiplication (wNAF chain / fixed-base)
    bn254.miller_loop  one (shared-chain) Miller loop evaluation
    bn254.final_exp    one final exponentiation
    gf256.encode       Reed-Solomon encode over GF(256)
    gf256.decode       Reed-Solomon decode/repair over GF(256)

``HOTPATH.snapshot()`` is the one place the per-leg calls and seconds are
read: the end-to-end benchmark turns it into its ``crypto.*`` layers.

Scope is the process: the engine's prover threads and concurrent lane
threads all add to the one profiler, so an epoch's call counts are the same
at any worker count.
"""

from __future__ import annotations

import threading
from functools import wraps
from time import perf_counter

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

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        with self._lock:
            self._calls.clear()
            self._seconds.clear()

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


HOTPATH = HotPathProfiler()


def profiled(leg: str):
    """Decorator: time every call of the function as one ``leg`` call.

    The one hot-path profiling gate; the undecorated body stays reachable
    as ``__wrapped__``.
    """

    def decorate(function):
        @wraps(function)
        def gate(*args, **kwargs):
            if HOTPATH.enabled:
                t0 = perf_counter()
                result = function(*args, **kwargs)
                HOTPATH.add(leg, perf_counter() - t0)
                return result
            return function(*args, **kwargs)

        return gate

    return decorate

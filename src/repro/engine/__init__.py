"""Parallel audit engine: multi-tenant auditing as fast as the hardware allows.

The per-proof library in :mod:`repro.core` answers one challenge at a time;
this package turns it into an auditing *service*:

* :mod:`repro.engine.tasks` — encodings of audit state and work,
* :mod:`repro.engine.executor` — a thread-pool executor fanning
  independent audit instances across cores over the GIL-free pairing
  kernel, every thread sharing the one
  :data:`~repro.crypto.bn254.PROCESS_CACHE` of fixed-base tables,
* :mod:`repro.engine.scheduler` — beacon-driven epochs whose proofs land in
  the one-final-exponentiation grouped batch verifier.

See ``docs/ARCHITECTURE.md`` for where this layer sits; its throughput is
the ``settle_checkpoint`` workload of ``benchmarks/e2e``.
"""

from .executor import AuditExecutor
from .scheduler import EpochResult, EpochScheduler
from .tasks import AuditInstance, ProveOutcome, ProveTask

__all__ = [
    "AuditExecutor",
    "AuditInstance",
    "EpochResult",
    "EpochScheduler",
    "ProveOutcome",
    "ProveTask",
]

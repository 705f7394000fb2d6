"""Thread-pool prover executor.

Fans independent audit instances out across CPU cores.  Every proof's
pairing-group work runs in the native BN254 kernel, which ``ctypes`` calls
with the GIL released, so threads of one process prove in parallel and
share its one :data:`~repro.crypto.bn254.PROCESS_CACHE`: fixed-base tables
— the powers-of-alpha MSM windows, the per-owner GT contexts, the per-file
digest points — are built once and reused by every audit.
:meth:`AuditExecutor.unregister` evicts a retired instance's tables.

With ``workers == 1`` the executor proves inline on the calling thread.
Either way each task builds its own :class:`~repro.core.prover.Prover`
with the task's nonce RNG, so results are byte-for-byte the same.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Iterable, Sequence

# Not called here: benchmarks/e2e/e2ebench/layers.py wraps this module name.
from ..core.batch import verify_batch_grouped  # noqa: F401
from ..core.prover import ProveReport, Prover
from ..crypto.bn254 import PROCESS_CACHE
from .tasks import AuditInstance, ProveOutcome, ProveTask


class AuditExecutor:
    """Executes prove tasks for a registered fleet of audits.

    ``workers=0`` (the default) resolves to the host's CPU count.  One
    executor may be shared by concurrent lane threads: ``prove`` only reads
    ``instances``, and the thread pool takes work from any caller.
    """

    def __init__(self, instances: Iterable[AuditInstance], workers: int = 0):
        self.instances: dict[int, AuditInstance] = {}
        for instance in instances:
            if instance.name in self.instances:
                raise ValueError(f"duplicate audit instance {instance.name}")
            self.instances[instance.name] = instance
        if workers < 0:
            raise ValueError("workers must be >= 0 (0 = one per CPU core)")
        self.workers = workers or os.cpu_count() or 1
        self._pool = ThreadPoolExecutor(self.workers) if self.workers > 1 else None

    # -- lifecycle ----------------------------------------------------------

    def __enter__(self) -> "AuditExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)

    # -- dynamic fleets (lifecycle engine: repair swaps instances) -----------

    def register(self, instance: AuditInstance) -> None:
        """Add one audit instance to a live executor."""
        if instance.name in self.instances:
            raise ValueError(f"duplicate audit instance {instance.name}")
        self.instances[instance.name] = instance

    def unregister(self, name: int) -> None:
        """Drop one audit instance (e.g. its shard migrated to a new key)."""
        if name not in self.instances:
            raise KeyError(f"no audit instance registered for file {name}")
        retired = self.instances.pop(name)
        # The file's own tables go; the owner's only when no registered
        # instance shares the key.  powers[0] is g1, which every key shares.
        public = retired.public
        if any(instance.public == public for instance in self.instances.values()):
            PROCESS_CACHE.forget(name, retired.authenticators)
        else:
            PROCESS_CACHE.forget(
                name,
                retired.authenticators + public.powers[1:],
                (public.epsilon, public.delta),
                (public.pairing_base,),
            )

    # -- execution ----------------------------------------------------------

    def _prove(self, task: ProveTask) -> ProveOutcome:
        instance = self.instances.get(task.name)
        if instance is None:
            raise KeyError(f"no audit instance registered for file {task.name}")
        prover = Prover(
            instance.chunked, instance.public, instance.authenticators, rng=task.rng()
        )
        report = ProveReport()
        proof = prover.respond_private(task.challenge(), report)
        return ProveOutcome(
            name=task.name,
            proof_bytes=proof.to_bytes(),
            zp_seconds=report.zp_seconds,
            ecc_seconds=report.ecc_seconds,
            privacy_seconds=report.privacy_seconds,
        )

    def prove(self, tasks: Sequence[ProveTask]) -> list[ProveOutcome]:
        """Run every prove task, order-preserving."""
        if self._pool is None:
            return [self._prove(task) for task in tasks]
        return list(self._pool.map(self._prove, tasks))

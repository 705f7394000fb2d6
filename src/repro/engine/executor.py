"""Process-pool prover/verifier executor.

Fans independent audit instances out across CPU cores.  The pool is primed
once with every registered :class:`~repro.engine.tasks.AuditInstance`
(worker initializer), after which each round ships only 48-byte challenges
out and 288-byte proofs back.  Every process — the parent and each worker —
has one :data:`~repro.crypto.bn254.PROCESS_CACHE`, so fixed-base tables —
the powers-of-alpha MSM windows, the per-owner GT contexts, the per-file
digest points — are built once per process and reused for every audit it
executes.  The executor only attaches the persistent store (``cache_dir``)
to it, and :meth:`AuditExecutor.unregister` evicts a retired instance.

With ``workers == 1`` (or on a single-core host) the executor runs inline
in the calling process with the identical code path: results are
byte-for-byte the same, only the transport differs.  A batch check — here
or in a worker — returns the finished
:class:`~repro.core.batch.BatchVerifyOutcome`, failures localized.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ProcessPoolExecutor
from typing import Iterable, Sequence

from ..core.batch import BatchItem, BatchVerifyOutcome, verify_batch_grouped
from ..core.prover import Prover
from ..crypto.bn254 import PROCESS_CACHE, PrecomputeStore
from .tasks import AuditInstance, BatchVerifyTask, ProveOutcome, ProveTask


class _AuditRuntime:
    """Provers for the registered instances.

    Built once per worker process (and once in the parent for inline mode).
    """

    def __init__(self, instances: Sequence[AuditInstance]):
        self.instances: dict[int, AuditInstance] = {}
        self.provers: dict[int, Prover] = {}
        for instance in instances:
            self.add(instance)

    def add(self, instance: AuditInstance) -> None:
        """Register one instance's prover."""
        self.instances[instance.name] = instance
        self.provers[instance.name] = Prover(
            instance.chunked, instance.public, list(instance.authenticators)
        )

    def prove(self, task: ProveTask) -> ProveOutcome:
        from ..core.prover import ProveReport

        prover = self.provers.get(task.name)
        if prover is None:
            raise KeyError(f"no audit instance registered for file {task.name}")
        prover._rng = task.rng()  # pin the Sigma nonce to the task's seed
        report = ProveReport()
        proof = prover.respond_private(task.challenge(), report)
        return ProveOutcome(
            name=task.name,
            proof_bytes=proof.to_bytes(),
            zp_seconds=report.zp_seconds,
            ecc_seconds=report.ecc_seconds,
            privacy_seconds=report.privacy_seconds,
        )

    def verify_batch(self, task: BatchVerifyTask) -> BatchVerifyOutcome:
        """Run one whole-batch check over this process's cache."""
        from ..core.proof import PrivateProof

        items = []
        for name, challenge_bytes, proof_bytes in task.entries:
            instance = self.instances.get(name)
            if instance is None:
                raise KeyError(f"no audit instance registered for file {name}")
            items.append(
                BatchItem(
                    public=instance.public,
                    name=name,
                    num_chunks=instance.num_chunks,
                    challenge=task.challenge_for(challenge_bytes),
                    proof=PrivateProof.from_bytes(proof_bytes),
                )
            )
        return verify_batch_grouped(items, rng=task.rng())


# Worker-process globals (set by the pool initializer).
_RUNTIME: _AuditRuntime | None = None


def _init_worker(instances: list[AuditInstance], cache_dir: str | None) -> None:
    global _RUNTIME
    if cache_dir:
        PROCESS_CACHE.store = PrecomputeStore(cache_dir)
    _RUNTIME = _AuditRuntime(instances)


def _prove_in_worker(task: ProveTask) -> ProveOutcome:
    assert _RUNTIME is not None, "worker initializer did not run"
    return _RUNTIME.prove(task)


def _verify_batch_in_worker(task: BatchVerifyTask) -> BatchVerifyOutcome:
    assert _RUNTIME is not None, "worker initializer did not run"
    return _RUNTIME.verify_batch(task)


class AuditExecutor:
    """Executes prove/verify tasks for a registered fleet of audits.

    ``workers=0`` (the default) resolves to the host's CPU count.  The
    process pool is created lazily on the first multi-worker call, so an
    executor used inline never forks.
    """

    def __init__(
        self,
        instances: Iterable[AuditInstance],
        workers: int = 0,
        cache_dir: str | None = None,
    ):
        self.instances: dict[int, AuditInstance] = {}
        for instance in instances:
            if instance.name in self.instances:
                raise ValueError(f"duplicate audit instance {instance.name}")
            self.instances[instance.name] = instance
        if workers < 0:
            raise ValueError("workers must be >= 0 (0 = one per CPU core)")
        self.workers = workers or os.cpu_count() or 1
        # Optional persistent precompute directory: every process cache
        # (the parent's and each pool worker's) loads tables from — and
        # writes fresh builds to — the same store, so table work is shared
        # across processes and survives restarts.
        self.cache_dir = cache_dir
        self._store = PrecomputeStore(cache_dir) if cache_dir else None
        if self._store is not None:
            PROCESS_CACHE.store = self._store
        self._pool: ProcessPoolExecutor | None = None
        self._inline: _AuditRuntime | None = None
        # Concurrent lane workers share one executor: pool creation and
        # teardown must be atomic (ProcessPoolExecutor itself is
        # thread-safe once built).
        self._pool_lock = threading.Lock()

    # -- lifecycle ----------------------------------------------------------

    def __enter__(self) -> "AuditExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        self._invalidate_pool()
        if self._store is not None and PROCESS_CACHE.store is self._store:
            PROCESS_CACHE.store = None

    # -- dynamic fleets (lifecycle engine: repair swaps instances) -----------

    def register(self, instance: AuditInstance) -> None:
        """Add one audit instance to a live executor.

        The inline runtime gains its prover immediately; a warm
        process pool is torn down so the next fan-out call re-primes the
        workers with the updated fleet.
        """
        if instance.name in self.instances:
            raise ValueError(f"duplicate audit instance {instance.name}")
        self.instances[instance.name] = instance
        if self._inline is not None:
            self._inline.add(instance)
        self._invalidate_pool()

    def unregister(self, name: int) -> None:
        """Drop one audit instance (e.g. its shard migrated to a new key)."""
        if name not in self.instances:
            raise KeyError(f"no audit instance registered for file {name}")
        retired = self.instances.pop(name)
        if self._inline is not None:
            self._inline.instances.pop(name, None)
            self._inline.provers.pop(name, None)
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
        self._invalidate_pool()

    def _invalidate_pool(self) -> None:
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None

    @property
    def runtime(self) -> _AuditRuntime:
        """The parent-process runtime (inline mode's state, lazily built)."""
        if self._inline is None:
            self._inline = _AuditRuntime(list(self.instances.values()))
        return self._inline

    def _ensure_pool(self) -> ProcessPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers,
                    initializer=_init_worker,
                    initargs=(list(self.instances.values()), self.cache_dir),
                )
            return self._pool

    def _chunksize(self, count: int) -> int:
        return max(1, count // (4 * self.workers))

    # -- execution ----------------------------------------------------------

    def prove(self, tasks: Sequence[ProveTask]) -> list[ProveOutcome]:
        """Run every prove task, order-preserving."""
        if self.workers == 1:
            return [self.runtime.prove(task) for task in tasks]
        pool = self._ensure_pool()
        return list(
            pool.map(_prove_in_worker, tasks, chunksize=self._chunksize(len(tasks)))
        )

    def verify_batch(self, task: BatchVerifyTask) -> BatchVerifyOutcome:
        """Run one whole-batch check, off-loaded to a worker process.

        One :class:`~repro.engine.tasks.BatchVerifyTask` is one lane-epoch:
        concurrent lane threads each submit theirs and the pool runs them
        on separate cores — the step that was previously always inline in
        the parent.  ``workers == 1`` verifies inline, bit-identically.
        """
        if self.workers == 1:
            return self.runtime.verify_batch(task)
        pool = self._ensure_pool()
        return pool.submit(_verify_batch_in_worker, task).result()

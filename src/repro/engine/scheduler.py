"""Epoch scheduler: thousands of concurrent audits per beacon round.

Production framing (ROADMAP north star): one storage provider holds files
for many owners, and every beacon round ("epoch") all of those contracts
fire a challenge at once.  The scheduler

1. derives one challenge per registered audit instance from the epoch's
   beacon output (:func:`~repro.core.challenge.epoch_challenge` — per-file
   challenged sets, shared evaluation point),
2. fans proof generation out through the
   :class:`~repro.engine.executor.AuditExecutor` (prover threads or inline),
3. feeds every proof into the one-final-exponentiation grouped batch
   verifier (:func:`~repro.core.batch.verify_batch_grouped`) on the calling
   thread — a lane thread when lanes settle concurrently — which returns
   the finished verdict, failures localized — and
4. records wall-clock throughput for the capacity models in
   :mod:`repro.sim.throughput` (``verify_seconds`` covers the batch check
   *and*, on a failed batch, the per-proof localization).

Determinism: with ``deterministic=True`` every Sigma nonce is derived from
(salt, epoch, file name), so an epoch's proofs are a pure function of the
fleet and the beacon — sequential and parallel execution agree
byte-for-byte (``tests/engine/test_parallel_engine.py``).  Those
inputs are *public*, so an observer could recompute the nonce and strip
the privacy mask: deterministic mode is strictly for tests and benchmarks
and is **off by default** — production epochs draw each nonce from the
OS CSPRNG.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from ..core.batch import BatchVerifyOutcome, BatchItem, verify_batch_grouped
from ..core.challenge import Challenge, epoch_challenge
from ..core.params import ProtocolParams
from ..core.proof import PrivateProof
from ..core.prover import ResponseWithheld
from ..obs.registry import get_registry
from ..obs.tracing import NULL_TRACER, Tracer
from ..randomness.beacon import RandomnessBeacon
from .executor import AuditExecutor
from .tasks import ProveOutcome, ProveTask

#: A proof override: called with (challenge, epoch) in place of the engine's
#: honest prover for one registered file.  Returning ``None`` or raising
#: :class:`~repro.core.prover.ResponseWithheld` models a silent provider.
ProofOverride = Callable[[Challenge, int], "PrivateProof | None"]

#: Domain separator of the deterministic-mode Sigma-nonce derivation.
NONCE_SALT = b"engine-epoch"


@dataclass
class EpochResult:
    """Everything one epoch produced, plus its timing breakdown."""

    epoch: int
    num_audits: int
    batch_ok: BatchVerifyOutcome
    prove_seconds: float
    verify_seconds: float
    outcomes: list[ProveOutcome] = field(repr=False)
    challenges: dict[int, Challenge] = field(repr=False)
    withheld: tuple[int, ...] = ()  # files whose response never arrived

    @property
    def total_seconds(self) -> float:
        return self.prove_seconds + self.verify_seconds

    @property
    def audits_per_second(self) -> float:
        return self.num_audits / self.total_seconds if self.total_seconds else 0.0

    def proof_bytes(self) -> dict[int, bytes]:
        """name -> canonical proof encoding (the bit-for-bit test surface)."""
        return {outcome.name: outcome.proof_bytes for outcome in self.outcomes}

    def rejected_names(self) -> tuple[int, ...]:
        """Files whose proofs failed this epoch (withheld ones included)."""
        return self.withheld + self.batch_ok.rejected_names()


class EpochScheduler:
    """Drives audit epochs for a fleet of registered instances."""

    def __init__(
        self,
        executor: AuditExecutor,
        params: ProtocolParams,
        beacon: RandomnessBeacon,
        deterministic: bool = False,
        rng=None,
        names=None,
        tracer: Tracer | None = None,
    ):
        self.executor = executor
        # Observability: spans around the challenge/prove/verify phases
        # (no-op through NULL_TRACER when untraced) and epoch-level
        # registry instruments.  Neither touches challenges, nonces or
        # verdicts, so deterministic runs are unaffected.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        registry = get_registry()
        self._m_epochs = registry.instrument("engine_epochs_total")
        self._m_audits = registry.instrument("engine_audits_total")
        self._m_prove = registry.instrument("engine_prove_seconds")
        self._m_verify = registry.instrument("engine_verify_seconds")
        self.params = params
        self.beacon = beacon
        self.deterministic = deterministic
        # Instance filter: a scheduler can drive a *subset* of the executor's
        # fleet (the aggregator's register / retire change it between epochs).
        # This is how the sharded fabric runs one scheduler per lane while
        # every lane's proof generation fans out through the same executor.
        if names is not None:
            names = frozenset(names)
            unknown = names - set(executor.instances)
            if unknown:
                raise KeyError(
                    f"names not registered with the executor: {sorted(unknown)[:4]}"
                )
        self.names: "frozenset[int] | None" = names
        self._rng = rng  # blinds the batch-verification exponents
        # Adversary harness hook: files whose proofs come from a strategy
        # callable instead of the engine's honest prover (the batch verifier
        # treats both identically — that is the point of the exercise).
        self.overrides: dict[int, ProofOverride] = {}

    def set_override(self, name: int, override: ProofOverride) -> None:
        """Route one registered file's proofs through ``override``."""
        if name not in self.executor.instances:
            raise KeyError(f"file {name} not registered with the executor")
        if self.names is not None and name not in self.names:
            raise KeyError(f"file {name} outside this scheduler's instance subset")
        self.overrides[name] = override

    def run_epoch(self, epoch: int) -> EpochResult:
        """Challenge every instance, prove in parallel, batch-verify."""
        instances = [
            instance
            for instance in self.executor.instances.values()
            if self.names is None or instance.name in self.names
        ]
        if not instances:
            raise ValueError("no audit instances registered with the executor")
        with self.tracer.span("challenge", epoch=epoch, audits=len(instances)):
            beacon_output = self.beacon.output(epoch)
            challenges: dict[int, Challenge] = {}
            tasks: list[ProveTask] = []
            for instance in instances:
                challenge = epoch_challenge(beacon_output, self.params, instance.name)
                challenges[instance.name] = challenge
                if instance.name in self.overrides:
                    continue
                tasks.append(
                    ProveTask.for_round(
                        instance,
                        challenge,
                        epoch=epoch if self.deterministic else None,
                        salt=NONCE_SALT,
                    )
                )
        t0 = time.perf_counter()
        with self.tracer.span("prove", epoch=epoch):
            engine_outcomes = {
                outcome.name: outcome for outcome in self.executor.prove(tasks)
            }
            # Overridden files prove inline through their strategy callable;
            # a None / ResponseWithheld response never reaches the batch.
            withheld: list[int] = []
            outcomes: list[ProveOutcome] = []
            for instance in instances:
                override = self.overrides.get(instance.name)
                if override is None:
                    outcomes.append(engine_outcomes[instance.name])
                    continue
                try:
                    proof = override(challenges[instance.name], epoch)
                except ResponseWithheld:
                    proof = None
                if proof is None:
                    withheld.append(instance.name)
                    continue
                outcomes.append(
                    ProveOutcome(
                        name=instance.name,
                        proof_bytes=proof.to_bytes(),
                        zp_seconds=0.0,
                        ecc_seconds=0.0,
                        privacy_seconds=0.0,
                    )
                )
        t1 = time.perf_counter()
        with self.tracer.span("verify", epoch=epoch, proofs=len(outcomes)):
            by_name = {instance.name: instance for instance in instances}
            items = [
                BatchItem(
                    public=by_name[outcome.name].public,
                    name=outcome.name,
                    num_chunks=by_name[outcome.name].num_chunks,
                    challenge=challenges[outcome.name],
                    proof=outcome.proof(),
                )
                for outcome in outcomes
            ]
            batch_ok = verify_batch_grouped(items, rng=self._rng)
        t2 = time.perf_counter()
        result = EpochResult(
            epoch=epoch,
            num_audits=len(instances),
            batch_ok=batch_ok,
            prove_seconds=t1 - t0,
            verify_seconds=t2 - t1,
            outcomes=outcomes,
            challenges=challenges,
            withheld=tuple(withheld),
        )
        rejected = len(result.withheld) + len(batch_ok.failures)
        self._m_epochs.inc()
        self._m_audits.labels("accepted").inc(result.num_audits - rejected)
        if rejected:
            self._m_audits.labels("rejected").inc(rejected)
        self._m_prove.observe(result.prove_seconds)
        self._m_verify.observe(result.verify_seconds)
        return result

"""settle_per_round: the paper's Fig. 2 protocol as written.

Why: the same core/crypto layers as settle_checkpoint used differently —
one unbatched on-chain ``verify_private`` per audit inside contract
execution, 288-byte proofs through the mempool, scheduled calls — so a
batching change that helps one path and costs the other is caught.
"""

from __future__ import annotations

import random

from . import harness as H
from . import sizes as S

#: Contracts outlive the run: a round, not a contract, is the timed step.
ROUNDS_PER_CONTRACT = 1000


class SettlePerRound(H.Workload):
    name = "settle_per_round"

    def __init__(self, sizes: S.Sizes, seed: int, seconds: float, host: H.Host):
        super().__init__(sizes, seed, seconds, host)
        self.total_rounds = H.scaled(self.z.rounds, seconds)
        self.deployments = []
        self.contracts = []
        self.traced_reports: list = []
        self.live = None
        self.proofs_ok = True
        self.trail_bytes = 0

    def setup(self) -> None:
        from repro.chain import ContractTerms, ShardedChainFabric
        from repro.chain.agents import deploy_audit_contract
        from repro.chain.mempool import MempoolConfig
        from repro.core import ProtocolParams, StorageProvider
        from repro.randomness import HashChainBeacon

        z = self.z
        self.params = ProtocolParams(s=z.s, k=z.k)
        # A lane's WAL frame carries all of its scheduled calls, so what one
        # transaction costs depends on how many contracts share its lane.
        packages = H.prepare_fleet(
            self.params, self.seed, z.contracts, z.file_bytes, "round", z.lanes
        )
        self.directory = H.fresh_dir()
        self.fabric = self.own(ShardedChainFabric(
            num_lanes=z.lanes, persist_dir=self.directory, mempool=MempoolConfig()
        ))
        block = self.fabric.block_time
        # One block to challenge, one to verify: a round is two blocks.
        terms = ContractTerms(
            num_audits=ROUNDS_PER_CONTRACT,
            audit_interval=block,
            response_window=block,
            payment_per_round_wei=10**13,
            penalty_per_round_wei=10**13,
            gas_fund_wei=2 * 10**19,
        )
        for serial, package in enumerate(packages):
            deployment = deploy_audit_contract(
                self.fabric,
                package,
                StorageProvider(rng=random.Random(self.seed * 1000 + serial)),
                terms,
                HashChainBeacon(b"e2e-round-%d-%d" % (self.seed, serial)),
                self.params,
                owner_funds_eth=100.0,
                validate=False,
            )
            agent = deployment.provider_agent
            agent.use_pool = True
            if serial < z.droppers:
                agent.misbehave_after_round = z.drop_after_round
            self.deployments.append(deployment)
            self.contracts.append(self.fabric.contract_at(deployment.contract_address))
        self.probe_accounts = [
            self.fabric.lanes[0].create_account(100.0, label=f"probe-{i}")
            for i in range(2)
        ]
        self.rounds_done = 0
        for _ in range(z.warmup_rounds):
            self._round()

    def _round(self) -> None:
        """Drive every contract through one challenge -> prove -> verify.

        The same loop as ``run_contracts_to_completion``, stopped at a round
        boundary instead of at contract expiry.
        """
        target = self.rounds_done + 1
        for _ in range(8):
            if all(contract.cnt >= target for contract in self.contracts):
                self.rounds_done = target
                return
            self.fabric.mine_block()
            for deployment in self.deployments:
                deployment.provider_agent.on_block()
        raise RuntimeError("a round did not resolve within eight blocks")

    def _expected(self, serial: int) -> tuple[int, int]:
        """(passes, fails) the drop schedule dictates after rounds_done rounds."""
        if serial < self.z.droppers:
            passes = min(self.rounds_done, self.z.drop_after_round)
        else:
            passes = self.rounds_done
        return passes, self.rounds_done - passes

    def measure(self, rec) -> H.Measurement:
        z = self.z
        rounds = range(z.warmup_rounds, z.warmup_rounds + self.total_rounds)
        m = H.Measurement.for_run(rec)

        agents = [deployment.provider_agent for deployment in self.deployments]

        def step(_: int, m: H.Measurement) -> None:
            for agent in agents:
                agent.prove_reports.clear()
            self._round()
            if rec is not None and rec.active:
                # Only the reports of traced rounds belong next to the spans.
                for agent in agents:
                    self.traced_reports.extend(agent.prove_reports)
            m.audits += len(self.contracts)
            m.attempted += len(self.contracts)
            for serial, contract in enumerate(self.contracts):
                if (contract.passes, contract.fails) != self._expected(serial):
                    m.failed += 1

        self.live = H.LiveProbes(
            self._read_one, self._light_client,
            H.DurabilityProbe(
                self.host, rec, self.sizes.probes, len(rounds), self.directory,
                lambda directory: H.reopen_fabric(directory, z.lanes, pooled=True),
                self.fabric.state_hash, self.probe_accounts,
            ),
        )
        H.run_steps(
            m, rounds, step, self.host, rec, "round", self.budget,
            meter=H.ChainMeter(self.fabric), between=self.live,
        )
        return m

    def _read_one(self, index: int) -> None:
        contract = self.deployments[index % len(self.deployments)].contract_address
        self.fabric.call(contract, "status")

    def _light_client(self) -> int:
        """There is no sampling on this path: a light client downloads every
        round's challenge and proof.  Check what it would read."""
        from repro.chain.light_client import export_trail
        from repro.core.proof import PRIVATE_PROOF_BYTES, PrivateProof

        leaves = downloaded = 0
        for contract in self.contracts:
            for record in export_trail(contract):
                leaves += 1
                downloaded += len(record.challenge_bytes)
                if record.proof_bytes is None:
                    continue
                downloaded += len(record.proof_bytes)
                self.proofs_ok = (
                    self.proofs_ok and len(record.proof_bytes) == PRIVATE_PROOF_BYTES
                )
                PrivateProof.from_bytes(record.proof_bytes)
        self.trail_bytes = downloaded
        return leaves

    def probes(self) -> dict:
        durability = self.live.durability
        pools = [lane.pool for lane in self.fabric.lanes]
        rejected = sum(pool.rejection_total() for pool in pools)
        tallies = [(c.passes, c.fails) for c in self.contracts]
        return {
            **self.live.results(),
            # The whole trail, as of the last round, per round run.
            "sample_bytes_per_epoch": self.trail_bytes / self.rounds_done,
            "failed": rejected,
            "gates": {
                "reopened state_hash equals the live one": durability.same,
                "every posted proof is 288 bytes": self.proofs_ok,
                "passes/fails match the drop schedule": all(
                    (contract.passes, contract.fails) == self._expected(serial)
                    for serial, contract in enumerate(self.contracts)
                ),
            },
            "prove_reports": self.traced_reports,
            "digests": {"state_hash": self.fabric.state_hash(), "tallies": H.digest(*tallies)},
            "layers": {
                **durability.wal_layers(self.fabric),
                "mempool.admitted": sum(pool.stats["submitted"] for pool in pools),
                "mempool.rejected": rejected,
            },
        }

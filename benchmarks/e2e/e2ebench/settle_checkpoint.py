"""settle_checkpoint: the rollup path, one commitment per lane per epoch.

Why: engine prove + grouped batch-verify do nearly all the work and chain,
WAL and DA almost none, so crypto and batching gains show here and
persistence gains must not.
"""

from __future__ import annotations

import random
import statistics

from . import harness as H
from . import sizes as S


class SettleCheckpoint(H.Workload):
    name = "settle_checkpoint"

    def __init__(self, sizes: S.Sizes, seed: int, seconds: float, host: H.Host):
        super().__init__(sizes, seed, seconds, host)
        self.total_epochs = H.scaled(self.z.epochs, seconds, self.z.cheat_period)
        self.cheaters: frozenset[int] = frozenset()
        self.verdicts: list[tuple[int, tuple, tuple]] = []
        self.live = None
        self.rebuilt_ok = True
        self.sample_bytes: list[int] = []

    # -- set-up ------------------------------------------------------------

    def setup(self) -> None:
        from repro.adversary import make_prover
        from repro.chain import ShardedChainFabric
        from repro.core import ProtocolParams
        from repro.da import DaParams
        from repro.engine import AuditExecutor, AuditInstance
        from repro.obs import MetricsRegistry
        from repro.randomness import HashChainBeacon
        from repro.rollup import CrossShardAggregator

        z = self.z
        self.params = ProtocolParams(s=z.s, k=z.k)
        packages = H.prepare_fleet(
            self.params, self.seed, z.instances, z.file_bytes, "settle", z.lanes,
        )
        self.names = [package.name for package in packages]
        self.directory = H.fresh_dir()
        self.fabric = self.own(
            ShardedChainFabric(num_lanes=z.lanes, persist_dir=self.directory)
        )
        self.executor = self.own(AuditExecutor(
            [AuditInstance.from_package(p, owner_id="e2e") for p in packages], workers=1
        ))
        self.aggregator = self.own(CrossShardAggregator(
            self.fabric,
            self.executor,
            self.params,
            HashChainBeacon(b"e2e-settle-%d" % self.seed),
            rng=random.Random(self.seed ^ 0x5E771E),
            deterministic=True,
            da_params=DaParams(n=z.da_n, k=z.da_k),
        ))
        self.cheaters = frozenset(p.name for p in packages[: z.replay_provers])
        for serial, package in enumerate(packages[: z.replay_provers]):
            honest = make_prover("honest", package, rng=random.Random(serial))
            replay = make_prover("replay", package, rng=random.Random(serial))
            self.aggregator.set_override(
                package.name, self._override(honest, replay)
            )
        self.probe_accounts = [
            self.fabric.lanes[0].create_account(100.0, label=f"probe-{i}")
            for i in range(2)
        ]
        self.rec = None
        self.probe_registry = MetricsRegistry()
        # Warm-up fills the precompute caches and gives every replay prover
        # the honest answer it will replay; it is set-up, not measurement.
        self.next_epoch = 0
        for _ in range(z.warmup_epochs):
            self._epoch(self.next_epoch)

    def _cheats(self, epoch: int) -> bool:
        period = self.z.cheat_period
        return epoch > 0 and epoch % period == period - 1

    def _override(self, honest, replay):
        def respond(challenge, epoch):
            # Epoch 0 is the honest answer the replay prover records.
            prover = replay if epoch == 0 or self._cheats(epoch) else honest
            with H.span(self.rec, "engine.prove"):
                return prover.respond_private(challenge)

        return respond

    # -- timed section -------------------------------------------------------

    def _epoch(self, epoch: int):
        settlement = self.aggregator.settle_epoch(epoch)
        self.fabric.mine_block()
        self.next_epoch = epoch + 1
        return settlement

    def measure(self, rec) -> H.Measurement:
        z = self.z
        epochs = range(z.warmup_epochs, z.warmup_epochs + self.total_epochs)
        m = H.Measurement.for_run(rec)
        self.rec = rec
        self.live = H.LiveProbes(
            self._read_one, self._light_client,
            H.DurabilityProbe(
                self.host, rec, self.sizes.probes, len(epochs), self.directory,
                lambda directory: H.reopen_fabric(directory, z.lanes),
                self.fabric.state_hash, self.probe_accounts,
            ),
        )

        def step(epoch: int, m: H.Measurement) -> None:
            settlement = self._epoch(epoch)
            rejected = tuple(sorted(settlement.rejected_names()))
            accepted = tuple(sorted(settlement.accepted_names()))
            self.verdicts.append((epoch, accepted, rejected))
            expected = self.cheaters if self._cheats(epoch) else frozenset()
            m.audits += len(accepted) + len(rejected)
            m.attempted += len(self.names)
            # A wrong verdict, either way, is a failed operation.
            m.failed += len(set(rejected) ^ expected)
            m.failed += len(self.names) - len(accepted) - len(rejected)

        try:
            # Bare and traced units are whole cheat periods: the same mix.
            H.run_steps(
                m, epochs, step, self.host, rec, "epoch", self.budget, unit=z.cheat_period,
                meter=H.ChainMeter(self.fabric), between=self.live,
            )
        finally:
            self.rec = None
        return m

    # -- probes ----------------------------------------------------------------

    def _read_one(self, index: int) -> None:
        """A data owner checking that its audit is in the last settled epoch."""
        fabric = self.aggregator.settled[-1].fabric
        proof = fabric.prove(self.names[index % len(self.names)])
        if not fabric.verify_inclusion(proof):
            raise RuntimeError("inclusion proof did not verify")

    def _light_client(self) -> int:
        """Sample every lane of the last settled epoch, then rebuild each
        lane's leaf set from k of n chunks."""
        from repro.da import DaSampler, bundle_fetch

        last = self.aggregator.settled[-1]
        bundles = {(lane, last.epoch): s.da for lane, s in last.lanes.items()}
        sampler = DaSampler(bundle_fetch(bundles), registry=self.probe_registry)
        seed = self.seed.to_bytes(8, "big", signed=True)
        downloaded = leaves = 0
        for (lane, _), bundle in sorted(bundles.items()):
            report = sampler.sample(bundle.commitment, seed, budget=18)
            rebuilt = sampler.reconstruct(bundle.commitment, seed)
            self.rebuilt_ok = (
                self.rebuilt_ok
                and report.available
                and rebuilt.records == last.lanes[lane].bundle.records
            )
            downloaded += report.downloaded_bytes
            leaves += len(rebuilt.records)
        self.sample_bytes.append(downloaded)
        return leaves

    def probes(self) -> dict:
        durability = self.live.durability
        chunks = sum(
            child.value for _, child in self.probe_registry.get("da_samples_total").children()
        )
        cheat_epochs = [v for v in self.verdicts if self._cheats(v[0])]
        return {
            **self.live.results(),
            "sample_bytes_per_epoch": statistics.median(self.sample_bytes),
            "gates": {
                "reopened state_hash equals the live one": durability.same,
                "light client rebuilt the leaf set": self.rebuilt_ok,
                "every measured cheat epoch rejected exactly the replay provers": all(
                    frozenset(v[2]) == self.cheaters for v in cheat_epochs
                )
                and bool(cheat_epochs),
            },
            "digests": {
                "state_hash": self.fabric.state_hash(),
                "verdicts": H.digest(*self.verdicts),
            },
            "layers": {
                **durability.wal_layers(self.fabric),
                "da.chunks_fetched": chunks,
            },
        }

"""lifecycle_year: every layer in small pieces, persisted every epoch.

Why: four-to-eight-audit batches where batch amortisation vanishes, repair
through storage.erasure and a fresh ``prepare``, a ``checkpoint_state``
plus WAL cut point per epoch — the composite behind the roadmap's
15 audits/s figure and the guard for any change to the epoch pipeline.
"""

from __future__ import annotations

import shutil
import statistics

from . import harness as H
from . import sizes as S
from .layers import LIFECYCLE_PHASES

#: The last epoch's leaf sets are a few records: one block of the
#: light-client probe walks them this many times.
LIGHT_CLIENT_PASSES = 20


class LifecycleYear(H.Workload):
    name = "lifecycle_year"

    def __init__(self, sizes: S.Sizes, seed: int, seconds: float, host: H.Host):
        super().__init__(sizes, seed, seconds, host)
        self.total_epochs = H.scaled(self.z.epochs, seconds)
        self.tracer = None
        self.live = None
        self.roots_ok = True
        self.leaf_bytes: list[int] = []

    def setup(self) -> None:
        from repro.lifecycle import LifecycleConfig, LifecycleEngine
        from repro.obs.tracing import Tracer

        z = self.z
        self.directory = H.fresh_dir()
        shutil.rmtree(self.directory)   # the engine wants to create it itself
        config = LifecycleConfig(
            years=z.years,
            epochs_per_year=z.epochs_per_year,
            files=z.files,
            file_bytes=z.file_bytes + self.seed % z.file_bytes_spread,
            erasure_n=z.erasure_n,
            erasure_k=z.erasure_k,
            providers=z.providers,
            churn=z.churn,
            flake_rate=z.flake_rate,
            lanes=z.lanes,
            seed=z.world_seed,
            s=z.s,
            k=z.k,
            persist_dir=self.directory,
        )
        if z.warmup_epochs + self.total_epochs > config.total_epochs:
            raise ValueError("lifecycle horizon shorter than the epochs to run")
        # The engine takes its tracer at construction; it stays disabled
        # (the shared no-op path) until a traced measurement turns it on.
        self.tracer = Tracer(enabled=False, max_roots=10**6)
        self.engine = self.own(LifecycleEngine(config, tracer=self.tracer))
        self.provider_names = sorted(self.engine.providers)
        self.probe_accounts = [
            self.engine.fabric.lanes[0].create_account(100.0, label=f"probe-{i}")
            for i in range(2)
        ]
        for _ in range(z.warmup_epochs):
            self.engine.run_epoch()

    def measure(self, rec) -> H.Measurement:
        z = self.z
        epochs = range(z.warmup_epochs, z.warmup_epochs + self.total_epochs)
        m = H.Measurement.for_run(rec)
        tracer = self.tracer

        def step(_: int, m: H.Measurement) -> None:
            tracer.enabled = rec is not None and rec.active
            seen_roots = len(tracer.roots)
            summary = self.engine.run_epoch()
            # The engine's own phase spans, on the clock the wrappers use.
            for root in tracer.roots[seen_roots:]:
                for child in root.children:
                    if child.name in LIFECYCLE_PHASES:
                        rec.add(f"lifecycle.{child.name}", child.wall_start, child.wall_end)
            m.audits += summary.audits
            m.attempted += summary.audits
            m.failed += summary.audits - summary.accepted - summary.rejected

        self.live = H.LiveProbes(
            self._read_one, self._light_client,
            H.DurabilityProbe(
                self.host, rec, self.sizes.probes, len(epochs), self.directory,
                self._reopen, self._fingerprint, self.probe_accounts,
            ),
        )
        try:
            H.run_steps(
                m, epochs, step, self.host, rec, "epoch", self.budget,
                meter=H.ChainMeter(self.engine.fabric), between=self.live,
            )
        finally:
            tracer.enabled = False
        return m

    def _read_one(self, index: int) -> None:
        """What placement reads before trusting a provider with a shard."""
        engine = self.engine
        provider = self.provider_names[index % len(self.provider_names)]
        engine.fabric.call(engine.registry_address, "score_of", provider)

    def _light_client(self) -> int:
        """No DA on this path: a light client downloads the last epoch's whole
        leaf set and rebuilds each lane's committed root from it."""
        from repro.crypto.merkle import MerkleTree

        leaves = downloaded = 0
        for _ in range(LIGHT_CLIENT_PASSES):
            for _, bundle in self.engine.last_fabric_bundle.lanes:
                encoded = [record.to_bytes() for record in bundle.records]
                self.roots_ok = (
                    self.roots_ok and MerkleTree(encoded).root == bundle.checkpoint.root
                )
                leaves += len(encoded)
                downloaded += sum(len(leaf) for leaf in encoded)
        self.leaf_bytes.append(downloaded // LIGHT_CLIENT_PASSES)
        return leaves

    def _fingerprint(self) -> tuple[str, str]:
        return self.engine.fabric.state_hash(), self.engine.trail.digest()

    @staticmethod
    def _reopen(directory: str) -> H.Reopened:
        from repro.lifecycle import LifecycleEngine

        reopened = LifecycleEngine.open(directory)
        return H.Reopened(
            (reopened.fabric.state_hash(), reopened.trail.digest()),
            sum(lane.store.replayed_records for lane in reopened.fabric.lanes),
            reopened.fabric.lanes[0],
            reopened.close,
        )

    def probes(self) -> dict:
        engine = self.engine
        durability = self.live.durability
        state_hash, trail_digest = self._fingerprint()
        outcome = engine.outcome()
        floor = min(s.min_healthy_shards for s in outcome.summaries)
        evicted = {e.subject for e in outcome.trail.of_kind("evicted")}
        slashed = {e.subject for e in outcome.trail.of_kind("slashed")}
        return {
            **self.live.results(),
            "sample_bytes_per_epoch": statistics.median(self.leaf_bytes),
            "gates": {
                "reopened state_hash and trail equal the epoch boundary": durability.same,
                "files intact": outcome.files_intact,
                "healthy-shard floor >= k": floor >= self.z.erasure_k,
                "evicted providers were slashed": evicted <= slashed,
                "leaf sets rebuild the committed roots": self.roots_ok,
            },
            "digests": {"state_hash": state_hash, "trail_digest": trail_digest},
            "layers": {
                **durability.wal_layers(engine.fabric),
                "lifecycle.repairs": outcome.total_repairs,
                "lifecycle.evictions": outcome.total_evictions,
            },
        }

"""da_light_client: commit, sample and rebuild an epoch without one pairing.

Why: GF(256) Reed-Solomon, NMT build/verify and sampling do all the work,
so an erasure or NMT gain shows here and must read "no change" on the
other four workloads.  Each epoch: ``build_checkpoint`` ->
``build_da_bundle`` -> both commitments posted on a persisted chain ->
``sample_runs`` sampling clients -> on odd epochs a quarter of the chunks
is withheld and one more client must flag it -> ``reconstruct``.
"""

from __future__ import annotations

import random
import statistics
import time

from . import harness as H
from . import sizes as S


class DaLightClient(H.Workload):
    name = "da_light_client"

    def __init__(self, sizes: S.Sizes, seed: int, seconds: float, host: H.Host):
        super().__init__(sizes, seed, seconds, host)
        self.total_epochs = H.scaled(self.z.epochs, seconds, 2)
        self.rec = None
        self.roots: list[bytes] = []
        #: Per measured epoch: wall seconds the sampling clients took, wall
        #: seconds of everything a light client waits for (commit, sample,
        #: rebuild), and the host's speed around the epoch.
        self.sample_seconds: list[float] = []
        self.light_seconds: list[float] = []
        self.epoch_speeds: list[float] = []
        self.happy_bytes: list[int] = []
        self.flags_ok = self.rebuilt_ok = True

    def setup(self) -> None:
        from repro.chain import Blockchain, CheckpointContract
        from repro.core import ProtocolParams
        from repro.da import DaParams, DaSampler, bundle_fetch
        from repro.obs import MetricsRegistry
        from repro.randomness import HashChainBeacon
        from repro.storage import ReedSolomonCode

        z = self.z
        self.da_params = DaParams(n=z.da_n, k=z.da_k)
        # The code's generator matrix is cached per process after the first
        # epoch; building it is what a fresh light client pays at start-up.
        ReedSolomonCode(z.da_n, z.da_k)
        self.directory = H.fresh_dir()
        self.chain = self.own(Blockchain.open(self.directory))
        self.aggregator = self.chain.create_account(1000.0, label="aggregator")
        self.probe_accounts = [
            self.chain.create_account(100.0, label=f"probe-{i}") for i in range(2)
        ]
        self.contract = CheckpointContract(
            HashChainBeacon(b"e2e-da"), ProtocolParams(s=6, k=4), fraud_window=10.0**9
        )
        self.address = self.chain.deploy(self.contract, deployer=self.aggregator)
        self.bundles: dict = {}
        self.registry = MetricsRegistry()
        self.sampler = DaSampler(bundle_fetch(self.bundles), registry=self.registry)
        self.input_rng = random.Random(self.seed)
        self.next_epoch = 0
        for _ in range(z.warmup_epochs):
            self._epoch(self.next_epoch)

    def _records(self, epoch: int):
        """Paper-shaped round records: 48-byte challenge, 288-byte proof."""
        from repro.rollup import RoundRecord

        rng = self.input_rng
        return tuple(
            RoundRecord(
                name=10_000 + index,
                epoch=epoch,
                challenge_bytes=rng.randbytes(48),
                proof_bytes=rng.randbytes(288),
                verdict=True,
            )
            for index in range(self.z.records)
        )

    def _post(self, method: str, args: tuple, payload: bytes, value: int = 0):
        from repro.chain import Transaction

        receipt = self.chain.transact(
            Transaction(sender=self.aggregator, to=self.address, method=method,
                        args=args, value=value),
            payload_bytes=len(payload),
        )
        if not receipt.success:
            raise RuntimeError(f"{method} failed: {receipt.error}")
        return receipt.return_value

    def _epoch(self, epoch: int) -> int:
        """One epoch end to end; returns how many client checks went wrong."""
        # Looked up on the module at call time, where the traced run's
        # wrapper sits.
        import repro.da.commit as da_commit
        from repro.rollup import build_checkpoint

        z = self.z
        records = self._records(epoch)
        start = time.perf_counter()
        with H.span(self.rec, "rollup.checkpoint_build"):
            checkpoint = build_checkpoint(epoch, records)
        bundle = da_commit.build_da_bundle(0, epoch, checkpoint, self.da_params)
        light = time.perf_counter() - start
        commitment = checkpoint.checkpoint.to_bytes()
        checkpoint_id = self._post(
            "post_checkpoint", (commitment,), commitment,
            value=self.contract.posting_bond_wei,
        )
        da_bytes = bundle.commitment.to_bytes()
        self._post("post_da_root", (checkpoint_id, da_bytes), da_bytes)
        self.chain.mine_block()

        self.bundles.clear()
        self.bundles[(0, epoch)] = bundle
        wrong = 0
        start = time.perf_counter()
        for run in range(z.sample_runs):
            report = self.sampler.sample(
                bundle.commitment, b"client-%d-%d" % (self.seed, run),
                budget=z.sample_budget,
            )
            wrong += 0 if report.available else 1
            if run == 0:
                self.happy_bytes.append(report.downloaded_bytes)
        sampling = time.perf_counter() - start
        self.sample_seconds.append(sampling)

        start = time.perf_counter()
        seed = b"escalate-%d" % self.seed
        if epoch % 2 == 1:
            withheld = random.Random(self.seed * 1000 + epoch).sample(
                range(z.da_n), round(z.withheld_share * z.da_n)
            )
            bundle.withhold(withheld)
            # One client misses a quarter withheld with probability 0.75**18;
            # three independent clients all missing it is a 2e-7 event.
            reports = [
                self.sampler.sample(
                    bundle.commitment, seed + b"-%d" % client, budget=z.sample_budget
                )
                for client in range(3)
            ]
            flagged = any(not report.available for report in reports)
            self.flags_ok = self.flags_ok and flagged
            wrong += 0 if flagged else 1
        rebuilt = self.sampler.reconstruct(bundle.commitment, seed)
        same = rebuilt.verified and rebuilt.records == checkpoint.records
        self.rebuilt_ok = self.rebuilt_ok and same
        wrong += 0 if same else 1
        self.light_seconds.append(light + sampling + (time.perf_counter() - start))
        self.roots.append(bundle.commitment.root.to_bytes())
        self.next_epoch = epoch + 1
        return wrong

    def measure(self, rec) -> H.Measurement:
        z = self.z
        epochs = range(z.warmup_epochs, z.warmup_epochs + self.total_epochs)
        m = H.Measurement.for_run(rec)
        self.rec = rec
        self.sample_seconds.clear()
        self.light_seconds.clear()

        def step(epoch: int, m: H.Measurement) -> None:
            m.failed += self._epoch(epoch)
            m.audits += z.records
            m.attempted += z.sample_runs + 2

        self.durability = H.DurabilityProbe(
            self.host, rec, self.sizes.probes, len(epochs), self.directory,
            self._reopen, self.chain.state_hash, self.probe_accounts,
        )
        try:
            # Even and odd epochs differ (withholding): a unit is a pair.
            H.run_steps(
                m, epochs, step, self.host, rec, "epoch", self.budget,
                unit=2, meter=H.ChainMeter(self.chain), between=self._after_epoch,
            )
        finally:
            self.rec = None
        return m

    def _after_epoch(self) -> None:
        self.epoch_speeds.append(self.host.regions[-1][1])
        self.durability()

    @staticmethod
    def _reopen(directory: str) -> H.Reopened:
        from repro.chain import Blockchain

        chain = Blockchain.open(directory)
        return H.Reopened(chain.state_hash(), chain.store.replayed_records, chain, chain.close)

    def probes(self) -> dict:
        z = self.z
        durability = self.durability
        chunks = sum(c.value for _, c in self.registry.get("da_samples_total").children())
        speeds = self.epoch_speeds
        light = [wall / speed for wall, speed in zip(self.light_seconds, speeds)]
        return {
            # On this workload a read is one sampled chunk fetched and
            # checked against the committed root.
            "reads_per_s": statistics.median(
                z.sample_runs * z.sample_budget * speed / wall
                for wall, speed in zip(self.sample_seconds, speeds)
            ),
            "submit_ms": durability.submit_ms,
            # Median over pairs of epochs, one without and one with withholding.
            "leaves_per_s": statistics.median(
                2 * z.records / (even + odd) for even, odd in zip(light[0::2], light[1::2])
            ),
            "sample_bytes_per_epoch": statistics.median(self.happy_bytes),
            "recover_s": durability.recover_s,
            "attempted": durability.attempted,
            "gates": {
                "reopened state_hash equals the live one": durability.same,
                "withholding flagged on every odd epoch": self.flags_ok,
                "reconstructed records byte-identical": self.rebuilt_ok,
            },
            "digests": {
                "state_hash": self.chain.state_hash(),
                "da_roots": H.digest(*self.roots),
            },
            "detail": {"submit_ms": H.latency_summary(durability.submit_ms)},
            "layers": {
                **durability.wal_layers(self.chain),
                "da.chunks_fetched": chunks,
            },
        }

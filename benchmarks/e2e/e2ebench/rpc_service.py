"""rpc_service: a live socket in front of a persisted two-lane fabric.

Why: crypto does nothing here; codec, dispatch, mempool admit, WAL
begin/commit and mine do everything, so the per-transaction WAL cost and
any server rewrite show here and nowhere else; reads run beside writes to
catch a write-path gain paid for by readers.

Four kinds of traffic on one client connection, in rounds (see ``measure``):

* W — closed loop: ``submit_tx`` back to back, ``mine`` every ``mine_every``;
  ``tx_per_s`` is the median over those blocks.
* R — closed loop: the seven read methods in turn, in blocks likewise.
* S — an epoch of the small aggregator settled behind the live server.
* O — open loop at each fixed rate: 80 % writes, 20 % reads, every request
  timed from when it was *due*, generator lateness reported.
"""

from __future__ import annotations

import random
import statistics
import time
from contextlib import nullcontext

from . import harness as H
from . import sizes as S
from .spans import STEP


class RpcService(H.Workload):
    name = "rpc_service"

    def __init__(self, sizes: S.Sizes, seed: int, seconds: float, host: H.Host):
        super().__init__(sizes, seed, seconds, host)
        self.rng = random.Random(seed)
        self.requests = self.traced_requests = self.errors = 0
        self.read_block_seconds: list[float] = []
        #: Per open-loop rate: latencies from due time, generator lateness.
        self.open_loop: dict[int, dict] = {}
        self.phase_w_crypto_calls = 0
        self.measured = self.durability = None
        self.rebuilt_ok = True
        self.leaf_rates: list[float] = []
        self.sample_bytes: list[int] = []

    def setup(self) -> None:
        from repro.chain import ShardedChainFabric
        from repro.chain.mempool import MempoolConfig
        from repro.core import ProtocolParams
        from repro.da import DaParams
        from repro.engine import AuditExecutor, AuditInstance
        from repro.obs import MetricsRegistry
        from repro.randomness import HashChainBeacon
        from repro.rollup import CrossShardAggregator
        from repro.rpc import RpcClient, RpcDispatcher, RpcTcpServer, ServiceNode

        z = self.z
        self.params = ProtocolParams(s=z.s, k=z.k)
        self.directory = H.fresh_dir()
        self.fabric = self.own(ShardedChainFabric(
            num_lanes=z.lanes, persist_dir=self.directory, mempool=MempoolConfig()
        ))
        # Transfers settle on the recipient's lane: keep each sender's
        # traffic inside its own lane.
        self.accounts = [
            [
                lane.create_account(100.0, label=f"acct-{lane_id}-{i}")
                for i in range(z.accounts // z.lanes)
            ]
            for lane_id, lane in enumerate(self.fabric.lanes)
        ]
        packages = H.prepare_fleet(
            self.params, self.seed, z.instances, z.file_bytes, "rpc", z.lanes,
        )
        self.names = [package.name for package in packages]
        self.executor = self.own(AuditExecutor(
            [AuditInstance.from_package(p, owner_id="e2e") for p in packages], workers=1
        ))
        self.aggregator = self.own(CrossShardAggregator(
            self.fabric,
            self.executor,
            self.params,
            HashChainBeacon(b"e2e-rpc-%d" % self.seed),
            rng=random.Random(self.seed ^ 0x59C),
            deterministic=True,
            da_params=DaParams(n=z.da_n, k=z.da_k),
        ))
        self.next_epoch = 0
        for _ in range(z.presettled_epochs):
            self.aggregator.settle_epoch(self.next_epoch)
            self.fabric.mine_block()
            self.next_epoch += 1
        node = ServiceNode(self.fabric, aggregator=self.aggregator)
        self.probe_registry = MetricsRegistry()
        dispatcher = RpcDispatcher(registry=MetricsRegistry())
        node.register_on(dispatcher)
        self.server = self.own(RpcTcpServer(dispatcher))
        host, port = self.server.serve_in_thread()
        self.client = self.own(RpcClient(host, port))

    # -- requests ----------------------------------------------------------------

    def _call(self, rec, method: str, params: dict | None = None, inside: str | None = None):
        """One request on the one connection; an error reply is a failure.

        A request is a timed step of its own unless it is made ``inside`` a
        ``"step"`` span the caller has open, or inside a ``"probe"``.
        """
        from repro.rpc import RpcClientError

        self.requests += 1
        try:
            if rec is None or not rec.active:
                return self.client.call(method, params)
            if inside != "probe":
                self.traced_requests += 1
            step = (
                rec.span(STEP, ctx=f"request:{self.requests}:{method}")
                if inside is None
                else nullcontext()
            )
            with step, rec.span("rpc.request"):
                return self.client.call(method, params)
        except RpcClientError:
            self.errors += 1
            return None

    def _submit_params(self) -> dict:
        home = self.accounts[self.rng.randrange(len(self.accounts))]
        return {
            "sender": home[self.rng.randrange(len(home))],
            "to": home[self.rng.randrange(len(home))],
            "value": 10**12,
            "gas_limit": 30_000,
            "max_fee_gwei": 8.0,
            "priority_fee_gwei": round(self.rng.uniform(0.1, 1.0), 2),
        }

    def _read(self, rec, index: int) -> None:
        epoch = index % self.next_epoch
        which = index % 7
        if which == 0:
            self._call(rec, "audit_status")
        elif which == 1:
            self._call(rec, "checkpoint_get", {"epoch": epoch})
        elif which == 2:
            name = self.names[index % len(self.names)]
            self._call(rec, "fabric_proof_get", {"name": str(name), "epoch": epoch})
        elif which == 3:
            lane = sorted(self.aggregator.pipelines)[index % len(self.aggregator.pipelines)]
            self._call(
                rec, "da_sample_get",
                {"epoch": epoch, "lane": lane, "indices": [index % self.z.da_n]},
            )
        elif which == 4:
            self._call(rec, "pending_pool")
        elif which == 5:
            self._call(rec, "fee_suggest", {"tip_gwei": 1.0, "lane": index % self.z.lanes})
        else:
            home = self.accounts[index % len(self.accounts)]
            self._call(rec, "state_get", {"address": home[index % len(home)]})

    # -- phases --------------------------------------------------------------------

    def _write_block(self, rec, m: H.Measurement) -> None:
        """Closed loop: ``mine_every`` submits and the ``mine`` that clears
        them.  In a traced run every third block runs bare."""
        from repro.obs import HOTPATH

        crypto_before = sum(leg["calls"] for leg in HOTPATH.snapshot().values())
        done = len(m.pace_seconds) + (len(m.bare.pace_seconds) if m.bare else 0)
        with H.maybe_bare(rec, done) as bare:
            with self.host.timed() as timed:
                for _ in range(self.z.mine_every):
                    self._call(rec, "submit_tx", self._submit_params())
                self._call(rec, "mine", {"blocks": 1})
            m.side(not bare).pace_seconds.append(timed.seconds)
        self.phase_w_crypto_calls += (
            sum(leg["calls"] for leg in HOTPATH.snapshot().values()) - crypto_before
        )

    def _read_block(self, rec) -> None:
        """Closed loop: ``read_block`` reads, the seven methods in turn."""
        first = len(self.read_block_seconds) * self.z.read_block
        with self.host.timed() as timed:
            for index in range(first, first + self.z.read_block):
                self._read(rec, index)
        self.read_block_seconds.append(timed.seconds)

    def _open_loop(self, rec, rate: int, seconds: float) -> None:
        """Open loop: request ``i`` is due at ``t0 + i / rate`` whatever happened before."""
        count = max(20, round(rate * seconds))
        result = self.open_loop.setdefault(
            rate, {"latency_ms": [], "write_latency_ms": [], "lag_ms": [], "closing_lag_ms": []}
        )
        latency, lag, is_write = [], [], []
        writes = 0
        start = time.perf_counter()
        for index in range(count):
            due = start + index / rate
            while True:
                wait = due - time.perf_counter()
                if wait <= 0:
                    break
                time.sleep(wait if wait > 0.0005 else 0)
            sent = time.perf_counter()
            is_write.append(self.rng.random() < self.z.open_write_share)
            if is_write[-1]:
                self._call(rec, "submit_tx", self._submit_params())
                writes += 1
                if writes % self.z.open_mine_every == 0:
                    self._call(rec, "mine", {"blocks": 1})
            else:
                self._read(rec, index)
            lag.append(sent - due)
            latency.append(time.perf_counter() - due)
        self._call(rec, "mine", {"blocks": 1})
        # Wall milliseconds here; ``_open_loop_results`` scales them.
        result["lag_ms"].extend(seconds * 1000.0 for seconds in lag)
        result["latency_ms"].extend(seconds * 1000.0 for seconds in latency)
        result["write_latency_ms"].extend(
            seconds * 1000.0 for seconds, write in zip(latency, is_write) if write
        )
        # A backlog that grows shows as lateness that keeps rising: the
        # generator's lag over the last tenth of the pass.
        result["closing_lag_ms"].append(
            statistics.fmean(lag[-max(1, count // 10):]) * 1000.0
        )

    def _open_loop_results(self) -> dict[int, dict]:
        """Every open-loop time divided by the run's median host speed.

        Not by the speed around each pass, as everywhere else: the generator
        sleeps between requests, and the kernel run that follows a pass on an
        idle core read 1.2 to 1.6 in passes whose raw latencies agreed to 3 %.
        """
        speed = statistics.median(self.host.speeds)
        return {
            rate: {key: [value / speed for value in values] for key, values in result.items()}
            for rate, result in self.open_loop.items()
        }

    def _within_limit(self, result: dict) -> bool:
        _, tail_ms = H.tail(result["latency_ms"])
        limit = self.z.latency_limit_ms
        return tail_ms <= limit and max(result["closing_lag_ms"]) <= limit

    def measure(self, rec) -> H.Measurement:
        """Rounds of every kind of traffic, so that each metric's samples are
        spread over the whole run: closed-loop write blocks, closed-loop read
        blocks, one epoch settled behind the live server and an open-loop
        pass at every rate."""
        z = self.z
        m = H.Measurement.for_run(rec)
        meter = H.ChainMeter(self.fabric)

        def step(epoch: int, m: H.Measurement) -> None:
            settlement = self.aggregator.settle_epoch(epoch)
            self._call(rec, "mine", {"blocks": 1}, inside="step")
            self.next_epoch = epoch + 1
            m.audits += len(self.names)
            m.attempted += len(self.names)
            m.failed += len(settlement.rejected_names())   # every prover is honest

        rounds = H.scaled(z.rounds, self.budget)
        self.durability = H.DurabilityProbe(
            self.host, rec, self.sizes.probes, rounds, self.directory,
            lambda directory: H.reopen_fabric(directory, z.lanes, pooled=True),
            self.fabric.state_hash,
        )
        for _ in range(rounds):
            for _ in range(z.write_blocks):
                self._write_block(rec, m)
            for _ in range(z.read_blocks):
                self._read_block(rec)
            meter.skip()   # transfers are not part of the per-audit cost
            H.run_steps(
                m, range(self.next_epoch, self.next_epoch + 1), step, self.host, rec,
                "epoch", self.budget, meter=meter,
            )
            self._light_client(rec)
            self.durability()
            for rate in z.open_rates:
                self._open_loop(rec, rate, z.open_pass_seconds)
        self.measured = m
        return m

    # -- probes ----------------------------------------------------------------------

    def _light_client(self, rec) -> None:
        """A light client over the wire: sample, then rebuild, every lane of
        the last settled epoch.  One pass per round."""
        from repro.da import DaCommitment, DaSampler, NmtProof

        def fetch(lane_id, epoch, indices):
            reply = self._call(
                rec, "da_sample_get",
                {"epoch": epoch, "lane": lane_id, "indices": list(indices)}, inside="probe",
            )
            return {
                row["index"]: (
                    (bytes.fromhex(row["data"]), NmtProof.from_object(row["proof"]))
                    if row["available"]
                    else None
                )
                for row in reply["chunks"]
            }

        last = self.aggregator.settled[-1]
        sampler = DaSampler(fetch, registry=self.probe_registry)
        seed = self.seed.to_bytes(8, "big", signed=True)
        downloaded = leaves = 0
        with H.probe_span(rec, "light-client"), self.host.timed() as timed:
            listing = self._call(rec, "da_commitment_get", {"epoch": last.epoch}, inside="probe")
            for row in listing["lanes"]:
                commitment = DaCommitment.from_bytes(bytes.fromhex(row["commitment"]))
                report = sampler.sample(commitment, seed, budget=18)
                rebuilt = sampler.reconstruct(commitment, seed)
                self.rebuilt_ok = (
                    self.rebuilt_ok
                    and report.available
                    and rebuilt.records == last.lanes[row["lane"]].bundle.records
                )
                downloaded += report.downloaded_bytes
                leaves += len(rebuilt.records)
        self.leaf_rates.append(leaves / timed.seconds)
        self.sample_bytes.append(downloaded)

    def probes(self) -> dict:
        z = self.z
        open_loop = self._open_loop_results()
        headline = open_loop[z.headline_rate]
        passing = [r for r, result in open_loop.items() if self._within_limit(result)]
        write_blocks = self.measured.pace_seconds + (
            self.measured.bare.pace_seconds if self.measured.bare else []
        )
        chunks = sum(
            c.value for _, c in self.probe_registry.get("da_samples_total").children()
        )

        pools = [lane.pool for lane in self.fabric.lanes]
        rejected = sum(pool.rejection_total() for pool in pools)
        durability = self.durability
        _, lag_tail = H.tail(headline["lag_ms"])
        _, submit_tail = H.tail(headline["write_latency_ms"])
        return {
            # Closed-loop rates: the median over the blocks.
            "tx_per_s": z.mine_every / statistics.median(write_blocks),
            "reads_per_s": z.read_block / statistics.median(self.read_block_seconds),
            "submit_ms": headline["write_latency_ms"],
            "leaves_per_s": statistics.median(self.leaf_rates),
            "sample_bytes_per_epoch": statistics.median(self.sample_bytes),
            "recover_s": durability.recover_s,
            "attempted": self.requests + durability.attempted,
            "failed": self.errors,
            "gates": {
                "reopened state_hash equals the live one": durability.same,
                "light client rebuilt the leaf set over the wire": self.rebuilt_ok,
                "no crypto call during phase W": self.phase_w_crypto_calls == 0,
            },
            "digests": {"state_hash": self.fabric.state_hash()},
            "detail": {
                f"open_loop_{rate}": {
                    "latency_ms": H.latency_summary(result["latency_ms"]),
                    "submit_ms": H.latency_summary(result["write_latency_ms"]),
                    "generator_lag_ms": H.latency_summary(result["lag_ms"]),
                    "within_limit": self._within_limit(result),
                }
                for rate, result in open_loop.items()
            },
            "layers": {
                "rpc.requests": self.traced_requests,
                "rpc.errors": self.errors,
                "rpc.submit_p99_ms": submit_tail,
                "rpc.generator_lag_p99_ms": lag_tail,
                "rpc.max_rate_ok": max(passing, default=0),
                "mempool.admitted": sum(pool.stats["submitted"] for pool in pools),
                "mempool.rejected": rejected,
                **durability.wal_layers(self.fabric),
                "da.chunks_fetched": chunks,
            },
        }

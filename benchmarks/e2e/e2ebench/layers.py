"""Which public functions get a wrapper, and how spans become layer metrics.

A layer is a module of ``repro``; a span is named ``<layer>.<what>`` and
the per-layer metric ``<layer>.<what>_s`` is the sum of that span's *self*
time, so the ``_s`` metrics of one run add up to the attributed wall time
and nothing is counted twice.  Three groups are inclusive zoom-ins instead
and are documented as such in README.md: ``crypto.*`` (the program's own
``HOTPATH`` profiler), ``core.prove_{zp,ecc,privacy}_s`` (the prover's own
report) and ``rollup.post_s`` (commitment posting, WAL included).
"""

from __future__ import annotations

from .spans import PROBE_CTX, STEP, SpanRecorder


def install(rec: SpanRecorder, prove_reports: list) -> None:
    """Put a wrapper around every layer boundary the benchmark attributes.

    Imports sit here so an untraced run never touches these modules through
    the benchmark.  ``prove_reports`` collects every ``ProveOutcome`` the
    engine returns (the prover's zp / ecc / privacy split).
    """
    import repro.chain.blockchain as blockchain
    import repro.chain.mempool.pool as pool
    import repro.chain.state as state
    import repro.core.protocol as protocol
    import repro.core.verifier as verifier
    import repro.da.commit as da_commit
    import repro.da.sampling as da_sampling
    import repro.engine.executor as executor
    import repro.engine.scheduler as scheduler
    import repro.lifecycle.engine as lifecycle
    import repro.rollup.checkpoint as checkpoint
    import repro.rollup.fabric as rollup_fabric
    import repro.rollup.pipeline as pipeline
    import repro.rpc.service as service
    import repro.storage.erasure as erasure

    for name in (
        "decode_frame", "validate_request", "encode_result", "encode_error",
        "encode_frame",
    ):
        rec.wrap(service, name, "rpc.codec")
    rec.wrap(service.RpcDispatcher, "handle_raw", "rpc.dispatch")

    rec.wrap(pool.Mempool, "submit", "mempool.admit")
    rec.wrap(pool.Mempool, "drain_into_block", "mempool.drain")
    rec.wrap(pool.Mempool, "expire", "mempool.expire")

    rec.wrap(state.StateStore, "begin", "wal.begin")
    rec.wrap(state.StateStore, "commit", "wal.commit")

    rec.wrap(blockchain.Blockchain, "transact", "chain.execute")
    rec.wrap(blockchain.Blockchain, "mine_block", "chain.mine")

    # On chain (under chain.execute) this is the contract's verdict; anywhere
    # else it is the batch verifier pinpointing a failed batch one by one.
    rec.wrap(verifier.Verifier, "verify_private", "core.verify_private")
    rec.wrap(protocol.StorageProvider, "respond", "core.prove")

    rec.wrap(scheduler, "epoch_challenge", "engine.challenge")
    rec.wrap(executor.AuditExecutor, "prove", "engine.prove", prove_reports.extend)
    rec.wrap(scheduler, "verify_batch_grouped", "engine.verify")
    rec.wrap(executor, "verify_batch_grouped", "engine.verify")
    rec.wrap(scheduler.EpochScheduler, "run_epoch", "engine.schedule")

    rec.wrap(checkpoint, "build_epoch_checkpoint", "rollup.checkpoint_build")
    rec.wrap(lifecycle, "build_checkpoint", "rollup.checkpoint_build")
    rec.wrap(lifecycle, "records_from_epoch", "rollup.checkpoint_build")
    rec.wrap(rollup_fabric, "build_fabric_checkpoint", "rollup.fabric_roll")
    rec.wrap(lifecycle, "build_fabric_checkpoint", "rollup.fabric_roll")
    rec.wrap(pipeline.CheckpointPipeline, "settle_epoch", "rollup.settle")

    rec.wrap(da_commit, "build_da_bundle", "da.encode")
    rec.wrap(da_sampling.DaSampler, "sample", "da.sample")
    rec.wrap(da_sampling.DaSampler, "reconstruct", "da.reconstruct")
    rec.wrap(da_sampling, "verify_nmt_proof", "da.nmt_verify")
    rec.wrap(erasure.ReedSolomonCode, "encode", "storage.gf256_encode")
    rec.wrap(erasure.ReedSolomonCode, "decode", "storage.gf256_decode")

    rec.wrap(lifecycle.LifecycleEngine, "checkpoint_state", "lifecycle.persist")


#: ``<span name>_s`` metrics that are plain sums of self time.
SELF_TIME_SPANS = (
    "rpc.codec", "rpc.dispatch",
    "mempool.admit", "mempool.drain", "mempool.expire",
    "wal.begin", "wal.commit",
    "chain.execute", "chain.mine",
    "core.prove",
    "engine.challenge", "engine.prove", "engine.verify", "engine.schedule",
    "rollup.checkpoint_build", "rollup.fabric_roll", "rollup.settle",
    "da.encode", "da.sample", "da.reconstruct", "da.nmt_verify",
    "storage.gf256_encode", "storage.gf256_decode",
    "lifecycle.churn", "lifecycle.audit", "lifecycle.settle", "lifecycle.report",
    "lifecycle.repair", "lifecycle.evict", "lifecycle.finalize", "lifecycle.mine",
    "lifecycle.persist",
)

#: The lifecycle engine's own Tracer phases, imported as ``lifecycle.<phase>``.
LIFECYCLE_PHASES = (
    "churn", "audit", "settle", "report", "repair", "evict", "finalize", "mine",
)

#: Counts the workloads read from the program's public state; zero where a
#: workload never touches the layer.
PROGRAM_COUNTS = (
    "rpc.requests", "rpc.errors", "rpc.submit_p99_ms", "rpc.generator_lag_p99_ms",
    "rpc.max_rate_ok", "mempool.admitted", "mempool.rejected",
    "wal.frames", "wal.bytes_per_tx", "wal.recover_s",
    "chain.txs", "chain.blocks", "engine.audits", "da.chunks_fetched",
    "lifecycle.repairs", "lifecycle.evictions", "trace.overhead",
)

_POST_PARENTS = ("rollup.settle", "lifecycle.settle")

_HOTPATH_LEGS = {
    "crypto.msm": "bn254.msm",
    "crypto.miller": "bn254.miller_loop",
    "crypto.final_exp": "bn254.final_exp",
}


def layer_metrics(
    rec: SpanRecorder,
    host,
    audits: int,
    hotpath: dict,
    prove_reports: list,
    extras: dict[str, float],
) -> dict[str, float]:
    """Every span-derived per-layer metric of one traced run.

    ``audits`` is the number of audits settled while ``hotpath`` (a
    ``HOTPATH.snapshot()``) was collected; ``extras`` carries the counts a
    workload reads from the program's public state and wins on a clash.
    Like every time the benchmark reports, a span's seconds are divided by
    the speed ``host`` (a ``harness.Host``) measured around it.
    """
    parents = rec.tree()
    quick = [1.0 / host.speed_at(span[1]) for span in rec.spans]
    own = [seconds * k for seconds, k in zip(rec.self_times(parents), quick)]
    names = [span[0] for span in rec.spans]
    # Only what a timed step caused is attributed: the probes between the
    # steps are traced too, but they are not the workload.
    timed = [
        index
        for index, span in enumerate(rec.spans)
        if span[4] is not None and not span[4].startswith(PROBE_CTX)
    ]

    self_time: dict[str, float] = {}
    for index in timed:
        self_time[names[index]] = self_time.get(names[index], 0.0) + own[index]
    metrics = dict.fromkeys(PROGRAM_COUNTS, 0.0)
    metrics.update((f"{name}_s", self_time.get(name, 0.0)) for name in SELF_TIME_SPANS)

    def under(index: int, ancestor: str) -> bool:
        while parents[index] >= 0:
            index = parents[index]
            if names[index] == ancestor:
                return True
        return False

    verify_s = pinpoint_s = post_s = round_trips = handled = step_seconds = step_wall = 0.0
    verifies = 0
    for index in timed:
        name, start, end, _, _ = rec.spans[index]
        seconds = (end - start) * quick[index]
        if name == "core.verify_private":
            if under(index, "chain.execute"):
                verify_s += own[index]
                verifies += 1
            else:
                pinpoint_s += own[index]
        elif name == "chain.execute":
            if parents[index] >= 0 and names[parents[index]] in _POST_PARENTS:
                post_s += seconds
        elif name == "rpc.request":
            round_trips += seconds
        elif name == "rpc.dispatch":
            handled += seconds
        elif name == STEP and parents[index] < 0:
            step_seconds += seconds
            step_wall += end - start
    metrics["contract.verify_s"] = verify_s
    metrics["contract.verifies"] = verifies
    metrics["core.pinpoint_s"] = pinpoint_s
    metrics["rollup.post_s"] = post_s
    # The client's round trip minus the server's handling of it: both ends
    # of the socket, the kernel, and the handler thread's wake-up.
    metrics["rpc.socket_s"] = max(0.0, round_trips - handled)

    # The program's own totals carry no timestamps: scale them by the
    # traced steps' overall speed.
    overall = step_seconds / step_wall if step_wall else 1.0
    for prefix, leg in _HOTPATH_LEGS.items():
        entry = hotpath.get(leg, {"calls": 0, "seconds": 0.0})
        metrics[f"{prefix}_s"] = entry["seconds"] * overall
        metrics[f"{prefix}_calls"] = entry["calls"] / audits if audits else 0.0

    metrics["core.prove_zp_s"] = sum(r.zp_seconds for r in prove_reports) * overall
    metrics["core.prove_ecc_s"] = sum(r.ecc_seconds for r in prove_reports) * overall
    metrics["core.prove_privacy_s"] = sum(r.privacy_seconds for r in prove_reports) * overall

    # Coverage: the share of the timed steps' wall time that landed in a
    # named layer.  What is left is the steps' own self time: glue in
    # unwrapped code plus the harness loop itself.  (A client round trip,
    # rpc.request, is all named: rpc.dispatch and below on the handler
    # thread, rpc.socket_s for the rest.)
    metrics["trace.coverage"] = (
        1.0 - self_time.get(STEP, 0.0) / step_seconds if step_seconds else 0.0
    )

    metrics.update(extras)
    return metrics

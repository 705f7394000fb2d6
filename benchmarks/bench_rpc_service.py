"""RPC audit service — audits per chain-second vs concurrent lane workers.

The service-hosted settlement stack end to end: a ``ShardedChainFabric``
with one worker thread per lane (``repro.scenarios.audit_service`` over a
concurrent fabric) behind the JSON-RPC service, settling an adversarial audit fleet while a
live client reads checkpoints and proofs over the wire.

Metric: **audits settled per chain-second** — each lane's recorded
settlement gas translated into occupied 10M-gas block slots, slowest lane
taken (:meth:`~repro.chain.fabric.ShardedChainFabric.settlement_chain_seconds`).
That metric is gas-derived and deterministic, so the scaling claim holds
on any host; wall-clock is reported too, but on a single-core runner the
lane workers time-slice one CPU and wall time stays flat (the lanes buy
*block space* and *cores when present*, not magic).

Acceptance (ISSUE 7): >= 2x audits/chain-second at 4 lane workers vs 1,
with bit-identical accept/reject sets across every lane count.

A second section measures raw wire throughput: one client pushing
``submit_tx`` bursts through a live socket, report-only.

BENCH_QUICK=1 shrinks the fleet and the sweep for the CI smoke job.
"""

from __future__ import annotations

import os
import random
import time

from repro.adversary import make_prover
from repro.chain import ShardedChainFabric
from repro.chain.mempool import MempoolConfig
from repro.randomness import HashChainBeacon
from repro.rpc import RpcClient, RpcClientError, RpcDispatcher, RpcTcpServer, ServiceNode
from repro.scenarios import audit_service, build_fleet

QUICK = os.environ.get("BENCH_QUICK", "") == "1"

FLEET = 24 if QUICK else 48  # quick still needs >1 block slot on one lane
EPOCHS = 1 if QUICK else 2
LANES = (1, 2) if QUICK else (1, 2, 4)
MISBEHAVING = max(1, FLEET // 8)  # replay provers -> a real reject set
FILE_BYTES = 700
SUBMIT_BURST = 60 if QUICK else 240


def _prepare_fleet(params):
    """Audit instances; the first MISBEHAVING get replay provers."""
    return build_fleet(
        params, random.Random(0x59C), size=FILE_BYTES, files=FLEET,
        tag="rpc-bench-{file}", owner_id="bench",
    )


def _overrides(instances):
    overrides = {}
    for serial, instance in enumerate(instances[:MISBEHAVING]):
        prover = make_prover("replay", instance, rng=random.Random(0xBAD + serial))
        overrides[instance.name] = (
            lambda challenge, epoch, prover=prover: prover.respond_private(challenge)
        )
    return overrides


def _settle_behind_service(params, instances, lanes):
    """Run EPOCHS of settlement with a live RPC client reading alongside.

    Returns (verdict_trace, chain_seconds, wall_seconds, read_calls_per_s).
    """
    with audit_service(
        instances, params, HashChainBeacon(b"bench-rpc-service"),
        random.Random(7), lanes=lanes, concurrent=lanes > 1, deterministic=True,
    ) as service:
        aggregator = service.aggregator
        for name, override in _overrides(instances).items():
            aggregator.set_override(name, override)
        t0 = time.perf_counter()
        settlements = aggregator.run(EPOCHS)
        wall = time.perf_counter() - t0

        # Read the settlement back through the wire: status, every
        # checkpoint, one membership proof — the audit-read family.
        with RpcClient(service.host, service.port) as client:
            r0 = time.perf_counter()
            status = client.call("audit_status")
            assert status["epochs_settled"] == EPOCHS
            for epoch in range(EPOCHS):
                checkpoint = client.call("checkpoint_get", {"epoch": epoch})
                assert checkpoint["num_lanes"] == lanes
            proof = client.call(
                "fabric_proof_get", {"name": str(instances[-1].name)}
            )
            assert proof["verified"] is True
            reads = 2 + EPOCHS
            read_rate = reads / (time.perf_counter() - r0)

        trace = [
            (
                settlement.epoch,
                frozenset(settlement.accepted_names()),
                frozenset(settlement.rejected_names()),
            )
            for settlement in settlements
        ]
        return trace, service.fabric.settlement_chain_seconds(), wall, read_rate


def _wire_burst(lanes):
    """Raw ingress: one client, SUBMIT_BURST submit_tx calls, then drain."""
    fabric = ShardedChainFabric(
        num_lanes=lanes,
        mempool=MempoolConfig(
            high_watermark=SUBMIT_BURST * 2, low_watermark=SUBMIT_BURST * 3 // 2
        ),
    )
    try:
        # Transfers settle on the recipient's lane, so keep each sender's
        # traffic intra-lane: group the funded accounts by home lane.
        by_lane = [
            [lane.create_account(100.0, label=f"burst-{lane_id}-{i}") for i in range(4)]
            for lane_id, lane in enumerate(fabric.lanes)
        ]
        node = ServiceNode(fabric)
        dispatcher = RpcDispatcher()
        node.register_on(dispatcher)
        server = RpcTcpServer(dispatcher)
        host, port = server.serve_in_thread()
        try:
            rng = random.Random(0xF10)
            accepted = rejected = 0
            with RpcClient(host, port) as client:
                t0 = time.perf_counter()
                for index in range(SUBMIT_BURST):
                    home = by_lane[index % len(by_lane)]
                    sender = home[index % len(home)]
                    try:
                        client.call(
                            "submit_tx",
                            {
                                "sender": sender,
                                "to": home[rng.randrange(len(home))],
                                "value": 10**12,
                                "gas_limit": 30_000,
                                "max_fee_gwei": round(rng.uniform(2.0, 8.0), 2),
                                "priority_fee_gwei": round(rng.uniform(0.1, 1.0), 2),
                            },
                        )
                        accepted += 1
                    except RpcClientError:
                        rejected += 1
                    if index % 16 == 15:
                        client.call("mine", {"blocks": 1})
                elapsed = time.perf_counter() - t0
            fabric.mine_until_pools_drain()
            return SUBMIT_BURST / elapsed, accepted, rejected
        finally:
            server.close()
    finally:
        fabric.close()


def test_rpc_service_scaling(benchmark, report, params):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # report-only entry
    instances = _prepare_fleet(params)
    lines = [
        f"RPC audit service: {FLEET} audit instances x {EPOCHS} epoch(s) "
        f"(s={params.s}, k={params.k}, {MISBEHAVING} replay provers), "
        "settled behind a live JSON-RPC server.",
        "Chain-time = slowest lane's occupied 10M-gas block slots x 15 s.",
        "",
        f"{'lane workers':>12} {'wall s':>8} {'chain-time s':>13} "
        f"{'audits/chain-s':>15} {'speedup':>8} {'wire reads/s':>13}",
    ]
    traces, throughput = {}, {}
    for lanes in LANES:
        trace, chain_seconds, wall, read_rate = _settle_behind_service(
            params, instances, lanes
        )
        traces[lanes] = trace
        throughput[lanes] = FLEET * EPOCHS / chain_seconds
        lines.append(
            f"{lanes:>12} {wall:>8.1f} {chain_seconds:>13.0f} "
            f"{throughput[lanes]:>15.2f} "
            f"{throughput[lanes] / throughput[LANES[0]]:>7.1f}x "
            f"{read_rate:>13.0f}"
        )

    # Accept/reject sets are bit-identical across every worker count.  A
    # replay prover answers its first challenge honestly (nothing recorded
    # to replay yet), so the reject set is asserted on the final epoch.
    for lanes in LANES[1:]:
        assert traces[lanes] == traces[1], f"verdicts diverged at {lanes} lanes"
    replay_names = frozenset(instance.name for instance in instances[:MISBEHAVING])
    final_rejects = traces[1][-1][2]
    if EPOCHS > 1:
        assert final_rejects == replay_names, "reject set must match the replay fleet"
    rejected = sum(len(r) for _, _, r in traces[1])

    if 4 in throughput:
        speedup_at_4 = throughput[4] / throughput[1]
        assert speedup_at_4 >= 2.0, (
            f"acceptance: expected >= 2x audits/chain-second at 4 lane "
            f"workers, got {speedup_at_4:.2f}x"
        )
    else:  # BENCH_QUICK: assert the 2-lane trend instead
        assert throughput[2] / throughput[1] >= 1.2

    lines += [
        "",
        f"accept/reject sets identical across all worker counts "
        f"({FLEET * EPOCHS - rejected} accepted / {rejected} rejected).",
        "",
        "Wire ingress (one client, submit_tx bursts + interleaved mining):",
        f"{'lanes':>5} {'requests/s':>11} {'accepted':>9} {'rejected':>9}",
    ]
    for lanes in (LANES[0], LANES[-1]):
        rate, accepted, rejected_burst = _wire_burst(lanes)
        lines.append(
            f"{lanes:>5} {rate:>11.0f} {accepted:>9} {rejected_burst:>9}"
        )
    lines += [
        "(chain-time scaling is gas-derived and host-independent; wall-clock",
        f" gains need real cores — this host has {os.cpu_count()}. Wire rates"
        " are one",
        " synchronous client and measure codec+socket overhead, not capacity.)",
    ]
    report("rpc_service", "\n".join(lines))

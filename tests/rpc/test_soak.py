"""Soak: the service under sustained concurrent load, invariants held.

Hundreds-to-thousands of client threads hammer one service (4-lane
fabric, auto-mining) with mixed traffic — submissions,
reads, deliberate rejections, malformed frames.  The pass criteria:

* **zero dropped responses** — every request gets its matching-id reply
  (the client raises on anything else),
* **structured failures only** — rejections arrive as taxonomy codes,
  malformed frames as JSON-RPC errors, never a closed socket,
* **watermarks held** — no lane's pool ever exceeds its high watermark
  (checked against the pool's own lifetime stats, not a sample),
* **chain laws hold at the end** — gapless nonces, exact escrow, supply
  conservation, and a clean drain to empty.

Two sizes: the default quick profile keeps CI under half a minute; the
full profile (``RPC_SOAK=1``) runs >= 1000 concurrent clients for
>= 30 seconds and is the acceptance gate for the service layer.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time

import pytest

from repro.chain.fabric import ShardedChainFabric
from repro.chain.mempool import ESCROW_ACCOUNT, MempoolConfig
from repro.rpc import (
    RpcClient,
    RpcClientError,
    RpcDispatcher,
    RpcTcpServer,
    ServiceNode,
)

FULL = os.environ.get("RPC_SOAK", "") == "1"
LANES = 4
CLIENTS = 1000 if FULL else 32
SOAK_SECONDS = 30.0 if FULL else 3.0
HIGH_WATERMARK = 4096 if FULL else 256

pytestmark = pytest.mark.slow


def _known_reason(exc: RpcClientError) -> bool:
    return isinstance(exc.data, dict) and "reason" in exc.data


def test_soak_sustained_concurrent_clients():
    fabric = ShardedChainFabric(
        num_lanes=LANES,
        mempool=MempoolConfig(
            high_watermark=HIGH_WATERMARK,
            low_watermark=HIGH_WATERMARK * 3 // 4,
            max_per_sender=64,
        ),
    )
    accounts = [
        lane.create_account(200.0, label=f"soak-{lane_id}-{i}")
        for lane_id, lane in enumerate(fabric.lanes)
        for i in range(max(4, CLIENTS // LANES // 4))
    ]
    supply0 = sum(lane.total_supply() for lane in fabric.lanes)
    node = ServiceNode(fabric)
    dispatcher = RpcDispatcher()
    node.register_on(dispatcher)
    server = RpcTcpServer(dispatcher)
    host, port = server.serve_in_thread()
    node.start_auto_mine(interval=0.05)

    if FULL:
        threading.stack_size(256 * 1024)  # 1000+ threads: shrink stacks
    stats_lock = threading.Lock()
    totals = {"requests": 0, "accepted": 0, "rejected": 0, "errors": 0}
    failures: list[str] = []
    stop = threading.Event()
    barrier = threading.Barrier(CLIENTS + 1)

    def client_session(index: int) -> None:
        rng = random.Random(f"soak:{index}")
        sender = accounts[index % len(accounts)]
        local = {"requests": 0, "accepted": 0, "rejected": 0, "errors": 0}
        try:
            client = RpcClient(host, port, timeout=60.0)
        except OSError as exc:
            failures.append(f"client {index} failed to connect: {exc}")
            barrier.wait()
            return
        barrier.wait()
        try:
            while not stop.is_set():
                roll = rng.random()
                local["requests"] += 1
                try:
                    if roll < 0.55:
                        client.call(
                            "submit_tx",
                            {
                                "sender": sender,
                                "to": accounts[rng.randrange(len(accounts))],
                                "value": 10**12,
                                "gas_limit": 30_000,
                                "max_fee_gwei": round(rng.uniform(2.0, 8.0), 2),
                                "priority_fee_gwei": round(rng.uniform(0.1, 2.0), 2),
                            },
                        )
                        local["accepted"] += 1
                    elif roll < 0.65:  # deliberate lowball: taxonomy reject
                        client.call(
                            "submit_tx",
                            {"sender": sender, "to": sender, "value": 1,
                             "max_fee_gwei": 1e-9},
                        )
                        local["accepted"] += 1  # (possible if base fee hit 0)
                    elif roll < 0.8:
                        client.call("node_status")
                    elif roll < 0.9:
                        client.call("pending_pool")
                    elif roll < 0.97:
                        client.call(
                            "state_get", {"address": sender}
                        )
                    else:  # malformed frame: structured error, live socket
                        raw = client.send_raw_line(b'{"jsonrpc":"2.0","id":')
                        response = json.loads(raw)
                        assert response["error"]["code"] == -32700
                except RpcClientError as exc:
                    if _known_reason(exc):
                        local["rejected"] += 1
                    else:
                        local["errors"] += 1
                if FULL:
                    time.sleep(rng.uniform(0.0, 0.05))
        except BaseException as exc:  # noqa: BLE001 — any drop is a failure
            failures.append(f"client {index}: {type(exc).__name__}: {exc}")
        finally:
            try:
                client.close()
            except OSError:
                pass
        with stats_lock:
            for key, value in local.items():
                totals[key] += value

    threads = [
        threading.Thread(target=client_session, args=(index,), daemon=True)
        for index in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    if FULL:
        threading.stack_size(0)  # restore the default for later tests
    barrier.wait()
    time.sleep(SOAK_SECONDS)
    stop.set()
    for thread in threads:
        thread.join(timeout=120.0)
        assert not thread.is_alive(), "client thread hung (dropped response?)"
    node.stop_auto_mine()

    try:
        assert not failures, failures[:5]
        assert totals["errors"] == 0, totals
        assert totals["requests"] >= CLIENTS  # everyone got at least one reply
        assert totals["accepted"] > 0

        # Watermarks held for the whole run: the pool's lifetime accounting
        # balances, and nothing ever exceeded the high watermark.
        for lane in fabric.lanes:
            pool = lane.pool
            assert len(pool) <= pool.config.high_watermark
            stats = pool.stats
            assert stats["submitted"] == (
                stats["drained"] + stats["evicted"] + stats["expired"] + len(pool)
                + stats["replaced"]
            )

        # Final structural laws, then drain to empty.
        fabric.mine_until_pools_drain()
        for lane in fabric.lanes:
            assert len(lane.pool) == 0
            assert lane.store.balances.get(ESCROW_ACCOUNT, 0) == 0
            for sender, nonce in lane.store.pool:
                raise AssertionError(f"stranded entry {(sender, nonce)}")
        assert sum(lane.total_supply() for lane in fabric.lanes) == supply0

        # The service metered (nearly) every call it answered — malformed
        # frames never reach a method, hence the small allowance.
        metrics = dispatcher._rpc_metrics()
        assert sum(row["calls"] for row in metrics.values()) >= (
            totals["requests"] * 0.9
        )
        assert metrics["submit_tx"]["calls"] > 0
    finally:
        server.close()
        fabric.close()

"""ServiceNode: the full audit stack behind one RPC method namespace.

Normalizes the two chain shapes (a single
:class:`~repro.chain.blockchain.Blockchain` or a
:class:`~repro.chain.fabric.ShardedChainFabric`) and optionally mounts the
audit layer on top: a :class:`~repro.rollup.fabric.CrossShardAggregator`,
which serves ``audit_status`` / ``checkpoint_get`` / ``fabric_proof_get``
and the DA methods.

Every handler returns plain JSON-serialisable values and raises
:class:`~repro.rpc.codec.RpcError` for domain failures, so the dispatcher
layer never needs type-specific knowledge.  Handlers run on server worker
threads: writes serialize per lane on ``Blockchain.lock``, and multi-lane
reads quiesce every lane in ascending order (each lane's miner/submitter
holds exactly one lane lock, so the ordered sweep cannot deadlock).
"""

from __future__ import annotations

import math
import threading
import time
from contextlib import contextmanager

from ..chain.blockchain import WEI_PER_GWEI
from ..chain.explorer import ChainExplorer
from ..chain.transaction import Transaction
from ..crypto.bn254 import kernel
from ..storage import gf256
from .codec import INVALID_PARAMS, NOT_FOUND, UNSUPPORTED, RpcError

#: Methods a ServiceNode contributes to a dispatcher, in protocol order.
SERVICE_METHODS = [
    "submit_tx",
    "pending_pool",
    "fee_suggest",
    "state_get",
    "audit_status",
    "checkpoint_get",
    "fabric_proof_get",
    "da_commitment_get",
    "da_sample_get",
    "explorer_summary",
    "explorer_blocks",
    "explorer_lanes",
    "explorer_fee_market",
    "explorer_audits",
    "explorer_checkpoints",
    "explorer_events",
    "mine",
    "node_status",
]

_SUBMIT_FIELDS = frozenset(
    {
        "sender",
        "to",
        "method",
        "args",
        "value",
        "gas_limit",
        "gas_price_gwei",
        "nonce",
        "max_fee_gwei",
        "priority_fee_gwei",
        "payload_bytes",
        "replace",
    }
)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise RpcError(INVALID_PARAMS, message)


def _require_gwei(name: str, value) -> None:
    """A fee in gwei: a non-negative number whose wei value is finite, so
    neither ``Infinity`` nor ``1e300`` reaches the fee arithmetic."""
    ok = isinstance(value, (int, float)) and not isinstance(value, bool) and value >= 0
    if ok:
        try:
            ok = math.isfinite(float(value) * WEI_PER_GWEI)
        except OverflowError:  # an integer past the float range
            ok = False
    _require(ok, f"{name} must be a finite non-negative number")


def _hex(data: bytes) -> str:
    return data.hex()


def _merkle_proof_object(proof) -> dict:
    return {
        "leaf_index": proof.leaf_index,
        "leaf_data": _hex(proof.leaf_data),
        "siblings": [_hex(sibling) for sibling in proof.siblings],
        "directions": list(proof.directions),
    }


class ServiceNode:
    """One long-running audit-service node over a chain (or fabric)."""

    def __init__(self, chain, aggregator=None):
        self.chain = chain
        self.aggregator = aggregator
        self.explorer = ChainExplorer(chain)
        self.started_at = time.time()
        self._miner_thread: threading.Thread | None = None
        self._miner_stop = threading.Event()
        self._mine_lock = threading.Lock()

    # -- plumbing ------------------------------------------------------------

    @property
    def lanes(self) -> list:
        return list(getattr(self.chain, "lanes", [self.chain]))

    @property
    def sharded(self) -> bool:
        return hasattr(self.chain, "lanes")

    @contextmanager
    def _quiesced(self):
        """Hold every lane's lock (ascending) for a consistent read."""
        lanes = self.lanes
        for lane in lanes:
            lane.lock.acquire()
        try:
            yield
        finally:
            for lane in reversed(lanes):
                lane.lock.release()

    def _lane_for(self, lane: "int | None"):
        lanes = self.lanes
        if lane is None:
            return None
        _require(isinstance(lane, int) and not isinstance(lane, bool), "lane must be an integer")
        if not 0 <= lane < len(lanes):
            raise RpcError(NOT_FOUND, f"no lane {lane} (fabric has {len(lanes)})")
        return lanes[lane]

    def register_on(self, dispatcher) -> None:
        dispatcher.register_namespace(self, SERVICE_METHODS)

    # -- ingress ---------------------------------------------------------------

    def submit_tx(self, **payload) -> dict:
        """Admit one transaction into its settlement lane's mempool."""
        unknown = set(payload) - _SUBMIT_FIELDS
        _require(not unknown, f"unknown fields: {sorted(unknown)[:4]}")
        sender = payload.get("sender")
        _require(isinstance(sender, str) and bool(sender), "sender must be a string")
        to = payload.get("to")
        _require(to is None or isinstance(to, str), "to must be a string or null")
        method = payload.get("method")
        _require(
            method is None or isinstance(method, str), "method must be a string or null"
        )
        args = payload.get("args", [])
        _require(isinstance(args, list), "args must be an array")
        value = payload.get("value", 0)
        gas_limit = payload.get("gas_limit", 10_000_000)
        nonce = payload.get("nonce", 0)
        payload_bytes = payload.get("payload_bytes", 0)
        for field_name, field_value in (
            ("value", value),
            ("gas_limit", gas_limit),
            ("nonce", nonce),
            ("payload_bytes", payload_bytes),
        ):
            _require(
                isinstance(field_value, int) and not isinstance(field_value, bool)
                and field_value >= 0,
                f"{field_name} must be a non-negative integer",
            )
        for field_name in ("gas_price_gwei", "max_fee_gwei", "priority_fee_gwei"):
            if payload.get(field_name) is not None:
                _require_gwei(field_name, payload[field_name])
        replace = payload.get("replace", False)
        _require(isinstance(replace, bool), "replace must be a boolean")

        tx = Transaction(
            sender=sender,
            to=to,
            method=method,
            args=tuple(args),
            value=value,
            gas_limit=gas_limit,
            gas_price_gwei=payload.get("gas_price_gwei", 5.0),
            nonce=nonce,
            max_fee_gwei=payload.get("max_fee_gwei"),
            priority_fee_gwei=payload.get("priority_fee_gwei"),
        )
        if self.sharded:
            try:
                lane_index = self.chain.lane_index_for_tx(tx)
            except KeyError:
                # No recipient to route by and the sender account does not
                # exist on any lane: structurally unroutable, not internal.
                raise RpcError(
                    NOT_FOUND, f"unknown sender account {sender}"
                ) from None
            lane = self.chain.lanes[lane_index]
        else:
            lane_index = 0
            lane = self.chain
        if lane.pool is None:
            raise RpcError(UNSUPPORTED, "this node has no mempool attached")
        entry = lane.submit(tx, payload_bytes, replace=replace)
        return {
            "tx_id": entry.tx.tx_id,
            "tx_hash": entry.tx.tx_hash,
            "lane": lane_index,
            "nonce": entry.tx.nonce,
            "seq": entry.seq,
            "max_fee_wei": entry.max_fee_wei,
            "tip_cap_wei": entry.tip_cap_wei,
            "escrow_wei": entry.escrow_wei,
        }

    def pending_pool(self, lane: "int | None" = None) -> dict:
        """Pending-pool depth, watermarks and rejection counters per lane."""
        selected = self._lane_for(lane)
        lanes = [selected] if selected is not None else self.lanes
        offset = lane if selected is not None else 0
        out = []
        for index, candidate in enumerate(lanes, start=offset):
            if candidate.pool is None:
                continue
            pool = candidate.pool
            out.append(
                {
                    "lane": index,
                    "pending": len(pool),
                    "base_fee_wei": candidate.base_fee_wei,
                    "stats": dict(pool.stats),
                    "rejections": dict(pool.rejections),
                }
            )
        if not out:
            raise RpcError(UNSUPPORTED, "this node has no mempool attached")
        return {"lanes": out, "pending_total": sum(row["pending"] for row in out)}

    def fee_suggest(self, tip_gwei: float = 1.0, lane: int = 0) -> dict:
        """Wallet-style fee suggestion for one lane's current market."""
        _require_gwei("tip_gwei", tip_gwei)
        # _lane_for reads None as "every lane"; a suggestion is for one.
        _require(lane is not None, "lane must be an integer")
        selected = self._lane_for(lane)
        if selected.pool is None:
            raise RpcError(UNSUPPORTED, "this node has no mempool attached")
        max_fee_gwei, priority_gwei = selected.pool.suggest_fees(tip_gwei)
        return {
            "lane": lane,
            "base_fee_wei": selected.base_fee_wei,
            "max_fee_gwei": max_fee_gwei,
            "priority_fee_gwei": priority_gwei,
        }

    # -- state ----------------------------------------------------------------

    def state_get(self, address: "str | None" = None) -> dict:
        """Balance and nonce for one account (fabric totals when omitted)."""
        _require(
            address is None or isinstance(address, str), "address must be a string"
        )
        with self._quiesced():
            if address is None:
                return {
                    "total_supply_wei": sum(
                        lane.total_supply() for lane in self.lanes
                    ),
                    "fee_sink_wei": sum(lane.fee_sink for lane in self.lanes),
                    "burned_wei": sum(lane.burned for lane in self.lanes),
                    "height": self.explorer.height(),
                }
            lane_index = None
            if self.sharded:
                try:
                    lane_index = self.chain.lane_index_of_account(address)
                except KeyError:
                    lane_index = None
            return {
                "address": address,
                "balance_wei": self.chain.balance_of(address),
                "nonce": max(lane.nonce_of(address) for lane in self.lanes),
                "lane": lane_index if self.sharded else 0,
            }

    # -- audit layer -----------------------------------------------------------

    def audit_status(self) -> dict:
        """Where the audit pipeline stands: epochs settled, verdict totals."""
        if self.aggregator is not None:
            settled = self.aggregator.settled
            return {
                "mode": "aggregator",
                "epochs_settled": len(settled),
                "lanes": sorted(self.aggregator.pipelines),
                "instances": {
                    str(lane_id): len(pipeline.scheduler.names)
                    for lane_id, pipeline in sorted(self.aggregator.pipelines.items())
                },
                "accepted": sum(s.fabric.checkpoint.accepted for s in settled),
                "rejected": sum(s.fabric.checkpoint.rejected for s in settled),
                "last_epoch": settled[-1].epoch if settled else None,
            }
        raise RpcError(UNSUPPORTED, "no audit pipeline mounted on this node")

    def _settlement(self, epoch: "int | None"):
        if self.aggregator is None:
            raise RpcError(UNSUPPORTED, "no cross-shard aggregator mounted")
        settled = self.aggregator.settled
        if not settled:
            raise RpcError(NOT_FOUND, "no epoch settled yet")
        if epoch is None:
            return settled[-1]
        _require(
            isinstance(epoch, int) and not isinstance(epoch, bool),
            "epoch must be an integer",
        )
        try:
            return self.aggregator.settlement_for_epoch(epoch)
        except KeyError as exc:
            raise RpcError(NOT_FOUND, str(exc)) from exc

    def checkpoint_get(self, epoch: "int | None" = None) -> dict:
        """One fabric super-commitment (latest when ``epoch`` is omitted)."""
        settlement = self._settlement(epoch)
        checkpoint = settlement.fabric.checkpoint
        return {
            "epoch": checkpoint.epoch,
            "num_lanes": checkpoint.num_lanes,
            "accepted": checkpoint.accepted,
            "rejected": checkpoint.rejected,
            "num_leaves": checkpoint.num_leaves,
            "fabric_root": _hex(checkpoint.fabric_root),
            "lanes_digest": _hex(checkpoint.lanes_digest),
            "commitment": _hex(checkpoint.to_bytes()),
            "lanes": [
                {
                    "lane": lane_id,
                    "root": _hex(bundle.checkpoint.root),
                    "accepted": bundle.checkpoint.accepted,
                    "rejected": bundle.checkpoint.rejected,
                    "commitment": _hex(bundle.checkpoint.to_bytes()),
                }
                for lane_id, bundle in settlement.fabric.lanes
            ],
        }

    def fabric_proof_get(self, name, epoch: "int | None" = None) -> dict:
        """Two-stage inclusion proof of one file's round (leaf -> fabric).

        ``name`` is a Zp file identifier (~254 bits): decimal strings are
        accepted alongside integers, since JSON numbers that wide do not
        survive every client's number type.
        """
        if isinstance(name, str):
            try:
                name = int(name, 0)
            except ValueError:
                raise RpcError(INVALID_PARAMS, "name must be an integer") from None
        _require(
            isinstance(name, int) and not isinstance(name, bool),
            "name must be an integer",
        )
        settlement = self._settlement(epoch)
        try:
            proof = settlement.fabric.prove(name)
        except KeyError as exc:
            raise RpcError(NOT_FOUND, str(exc)) from exc
        return {
            "epoch": settlement.epoch,
            "name": str(proof.name),  # Zp ids overflow doubles; ship as string
            "lane_id": proof.lane_id,
            "lane_proof": _merkle_proof_object(proof.lane_proof),
            "leaf_proof": _merkle_proof_object(proof.leaf_proof),
            "verified": settlement.fabric.verify_inclusion(proof),
        }

    # -- data availability ------------------------------------------------------

    #: Per-request chunk-index cap for ``da_sample_get`` — generous next to
    #: the default sample budget (18) yet keeps one frame well under the
    #: transport's MAX_FRAME_BYTES.
    DA_SAMPLE_MAX_INDICES = 64

    def _settled_lane(self, settlement, lane):
        _require(
            isinstance(lane, int) and not isinstance(lane, bool),
            "lane must be an integer",
        )
        settled = settlement.lanes.get(lane)
        if settled is None:
            raise RpcError(
                NOT_FOUND,
                f"no lane {lane} in epoch {settlement.epoch} "
                f"(lanes: {sorted(settlement.lanes)})",
            )
        return settled

    def da_commitment_get(
        self, epoch: "int | None" = None, lane: "int | None" = None
    ) -> dict:
        """Per-lane DA commitments for one epoch (latest when omitted).

        Everything a sampling light client needs before its first fetch:
        the (n, k) extension, chunk size, and the 64-byte namespaced root
        it will verify every sampled chunk against.
        """
        settlement = self._settlement(epoch)
        if lane is None:
            lanes = sorted(settlement.lanes)
        else:
            self._settled_lane(settlement, lane)
            lanes = [lane]
        out = []
        for lane_id in lanes:
            settled = settlement.lanes[lane_id]
            if settled.da is None:
                continue
            commitment = settled.da.commitment
            out.append(
                {
                    "lane": lane_id,
                    "epoch": commitment.epoch,
                    "n": commitment.n,
                    "k": commitment.k,
                    "chunk_bytes": commitment.chunk_bytes,
                    "checkpoint_root": _hex(commitment.checkpoint_root),
                    "nmt_root": _hex(commitment.root.to_bytes()),
                    "commitment": _hex(commitment.to_bytes()),
                }
            )
        if not out:
            raise RpcError(
                UNSUPPORTED,
                "this aggregator settles without DA commitments "
                "(da_params unset)",
            )
        return {"epoch": settlement.epoch, "lanes": out}

    def da_sample_get(self, epoch: int, lane: int, indices: list) -> dict:
        """Serve sampled DA chunks with their NMT openings.

        The aggregator-side half of the sampling protocol: each requested
        index answers either ``{available: true, data, proof}`` or
        ``{available: false}`` — a withheld chunk is an *answer* (one the
        client counts against the aggregator), not an error.
        """
        _require(
            isinstance(epoch, int) and not isinstance(epoch, bool),
            "epoch must be an integer",
        )
        _require(isinstance(indices, list) and indices, "indices must be a non-empty array")
        _require(
            len(indices) <= self.DA_SAMPLE_MAX_INDICES,
            f"at most {self.DA_SAMPLE_MAX_INDICES} indices per request",
        )
        for index in indices:
            _require(
                isinstance(index, int) and not isinstance(index, bool)
                and index >= 0,
                "indices must be non-negative integers",
            )
        settlement = self._settlement(epoch)
        settled = self._settled_lane(settlement, lane)
        if settled.da is None:
            raise RpcError(
                UNSUPPORTED,
                "this aggregator settles without DA commitments "
                "(da_params unset)",
            )
        bundle = settled.da
        n = bundle.commitment.n
        _require(
            all(index < n for index in indices),
            f"chunk indices must be below n={n}",
        )
        chunks = []
        for index in indices:
            response = bundle.chunk_with_proof(index)
            if response is None:
                chunks.append({"index": index, "available": False})
            else:
                chunk, proof = response
                chunks.append(
                    {
                        "index": index,
                        "available": True,
                        "data": _hex(chunk),
                        "proof": proof.to_object(),
                    }
                )
        return {
            "epoch": settlement.epoch,
            "lane": lane,
            "n": n,
            "k": bundle.commitment.k,
            "chunks": chunks,
        }

    # -- explorer family -------------------------------------------------------

    def explorer_summary(self) -> dict:
        with self._quiesced():
            return {
                "height": self.explorer.height(),
                "transactions": self.explorer.transaction_count(),
                "chain_bytes": sum(lane.chain_bytes() for lane in self.lanes),
                "events": self.explorer.event_counts(),
                "num_lanes": len(self.lanes),
                "has_fee_market": self.explorer.has_fee_market,
            }

    def explorer_blocks(self, limit: int = 20) -> list:
        _require(
            isinstance(limit, int) and not isinstance(limit, bool) and limit >= 1,
            "limit must be a positive integer",
        )
        with self._quiesced():
            return self.explorer.block_summaries()[-limit:]

    def explorer_lanes(self) -> list:
        with self._quiesced():
            return [vars(summary) for summary in self.explorer.lane_summaries()]

    def explorer_fee_market(self) -> list:
        with self._quiesced():
            return [
                vars(summary) for summary in self.explorer.fee_market_summaries()
            ]

    def explorer_audits(self) -> list:
        with self._quiesced():
            return [
                {**vars(summary), "reject_reasons": list(summary.reject_reasons)}
                for summary in self.explorer.audit_contracts()
            ]

    def explorer_checkpoints(self) -> list:
        with self._quiesced():
            return [vars(summary) for summary in self.explorer.checkpoint_contracts()]

    def explorer_events(self, name: "str | None" = None, limit: int = 50) -> list:
        _require(
            name is None or isinstance(name, str), "name must be a string or null"
        )
        _require(
            isinstance(limit, int) and not isinstance(limit, bool) and limit >= 1,
            "limit must be a positive integer",
        )
        with self._quiesced():
            return self.explorer.event_log(name)[-limit:]

    # -- block production -------------------------------------------------------

    def mine(self, blocks: int = 1) -> dict:
        """Mine ``blocks`` lockstep ticks (drains every lane's pool)."""
        _require(
            isinstance(blocks, int) and not isinstance(blocks, bool)
            and 1 <= blocks <= 10_000,
            "blocks must be an integer in [1, 10000]",
        )
        with self._mine_lock:
            for _ in range(blocks):
                self.chain.mine_block()
        return {
            "mined": blocks,
            "height": self.explorer.height(),
            "pending_total": self._pending_total(),
        }

    def _pending_total(self) -> int:
        return sum(
            len(lane.pool) for lane in self.lanes if lane.pool is not None
        )

    def node_status(self) -> dict:
        return {
            "uptime_seconds": time.time() - self.started_at,
            "num_lanes": len(self.lanes),
            "sharded": self.sharded,
            # Derived by the aggregator (lane threads iff workers > 1 and
            # more than one populated lane), not set by anyone.
            "concurrent": self.aggregator is not None and self.aggregator.concurrent,
            "height": self.explorer.height(),
            "pending_total": self._pending_total(),
            "aggregator": self.aggregator is not None,
            "auto_mine": self._miner_thread is not None,
            # The GF(256) row loop DA encoding and reconstruction run.
            "erasure_backend": gf256.backend().describe(),
            # The BN254 inner loops every prover and verifier runs.
            "crypto_backend": kernel.backend().describe(),
        }

    # -- background miner (soak / serve mode) ----------------------------------

    def start_auto_mine(self, interval: float = 0.05) -> None:
        """Mine on a timer so submitted traffic keeps settling."""
        if self._miner_thread is not None:
            return
        self._miner_stop.clear()

        def loop() -> None:
            while not self._miner_stop.wait(interval):
                with self._mine_lock:
                    self.chain.mine_block()

        self._miner_thread = threading.Thread(
            target=loop, name="auto-mine", daemon=True
        )
        self._miner_thread.start()

    def stop_auto_mine(self) -> None:
        if self._miner_thread is None:
            return
        self._miner_stop.set()
        self._miner_thread.join()
        self._miner_thread = None

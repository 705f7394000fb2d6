"""The JSON-RPC audit service end to end: methods, errors, audit layers.

One server per fixture scope, real sockets throughout.  Covers the
ingress path (``submit_tx`` success and every reachable rejection code),
the read family (state, explorer, fee suggestions), the audit layer
(``audit_status`` / ``checkpoint_get`` / ``fabric_proof_get`` against a
settled aggregator), the per-method metrics counters, and transactions
whose arguments a contract cannot use.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.chain import Blockchain, Transaction
from repro.chain.contracts.checkpoint_contract import CheckpointContract
from repro.chain.fabric import ShardedChainFabric
from repro.chain.mempool import FeeMarketConfig, MempoolConfig
from repro.chain.state import canonical_state_digest
from repro.core import DataOwner, ProtocolParams
from repro.engine import AuditExecutor, AuditInstance
from repro.randomness import HashChainBeacon
from repro.rollup import CrossShardAggregator
from repro.rpc import (
    SERVICE_METHODS,
    RpcClient,
    RpcClientError,
    RpcDispatcher,
    RpcTcpServer,
    ServiceNode,
)
from repro.sim.workloads import archive_file


def _serve(node: ServiceNode) -> RpcTcpServer:
    dispatcher = RpcDispatcher()
    node.register_on(dispatcher)
    server = RpcTcpServer(dispatcher)
    server.serve_in_thread()
    return server


@pytest.fixture()
def pooled_node():
    """Single pooled chain behind a live server, with funded accounts."""
    chain = Blockchain(
        mempool=MempoolConfig(max_per_sender=3, fee_market=FeeMarketConfig())
    )
    accounts = {
        "alice": chain.create_account(100.0, label="alice"),
        "poor": chain.create_account(0.0, label="poor"),
        "sink": chain.create_account(0.0, label="sink"),
    }
    node = ServiceNode(chain)
    server = _serve(node)
    client = RpcClient(*server.address)
    yield client, accounts, chain
    client.close()
    server.close()


class TestIngress:
    def test_submit_mine_state_roundtrip(self, pooled_node):
        client, accounts, chain = pooled_node
        result = client.call(
            "submit_tx",
            {"sender": accounts["alice"], "to": accounts["sink"], "value": 7},
        )
        assert result["lane"] == 0 and result["escrow_wei"] > 0
        assert client.call("pending_pool")["pending_total"] == 1
        mined = client.call("mine", {"blocks": 1})
        assert mined["pending_total"] == 0
        state = client.call("state_get", {"address": accounts["sink"]})
        assert state["balance_wei"] == 7
        totals = client.call("state_get")
        assert totals["total_supply_wei"] == chain.total_supply()

    @pytest.mark.parametrize(
        "mutation, code, reason",
        [
            ({"max_fee_gwei": 1e-6}, -32002, "underpriced"),
            ({"sender": "poor"}, -32008, "insufficient-funds"),
        ],
    )
    def test_rejections_map_to_taxonomy_codes(
        self, pooled_node, mutation, code, reason
    ):
        client, accounts, _ = pooled_node
        params = {"sender": accounts["alice"], "to": accounts["sink"], "value": 1}
        params.update(mutation)
        if params["sender"] == "poor":
            params["sender"] = accounts["poor"]
        with pytest.raises(RpcClientError) as excinfo:
            client.call("submit_tx", params)
        assert excinfo.value.code == code
        assert excinfo.value.data["reason"] == reason

    def test_sender_limit_and_replacement_taxonomy(self, pooled_node):
        client, accounts, _ = pooled_node
        base = {"sender": accounts["alice"], "to": accounts["sink"], "value": 1}
        nonces = [client.call("submit_tx", base)["nonce"] for _ in range(3)]
        with pytest.raises(RpcClientError) as excinfo:
            client.call("submit_tx", base)
        assert excinfo.value.code == -32007  # sender-limit
        with pytest.raises(RpcClientError) as excinfo:
            client.call("submit_tx", {**base, "nonce": 99, "replace": True})
        assert excinfo.value.code == -32004  # nonce-gap (replace path)
        with pytest.raises(RpcClientError) as excinfo:
            client.call("submit_tx", {**base, "nonce": nonces[0], "replace": True})
        assert excinfo.value.code == -32006  # replacement-underpriced
        replaced = client.call(
            "submit_tx",
            {**base, "nonce": nonces[0], "replace": True,
             "max_fee_gwei": 50.0, "priority_fee_gwei": 10.0},
        )
        assert replaced["nonce"] == nonces[0]

    def test_invalid_params_rejected_before_the_pool(self, pooled_node):
        client, accounts, _ = pooled_node
        for params in (
            {"to": accounts["sink"]},  # no sender
            {"sender": accounts["alice"], "value": -1},
            {"sender": accounts["alice"], "gas_limit": True},
            {"sender": accounts["alice"], "surprise": 1},
            {"sender": accounts["alice"], "max_fee_gwei": "cheap"},
            *(
                {"sender": accounts["alice"], field: fee}
                for field in ("gas_price_gwei", "max_fee_gwei", "priority_fee_gwei")
                for fee in (float("inf"), 1e300)
            ),
        ):
            with pytest.raises(RpcClientError) as excinfo:
                client.call("submit_tx", params)
            assert excinfo.value.code == -32602, params

    def test_non_finite_tip_is_invalid_params(self, pooled_node):
        client, _, _ = pooled_node
        for tip in (float("inf"), 1e300, 10**400, -1.0, "cheap"):
            with pytest.raises(RpcClientError) as excinfo:
                client.call("fee_suggest", {"tip_gwei": tip})
            assert excinfo.value.code == -32602, tip

    def test_fee_suggest_tracks_base_fee(self, pooled_node):
        client, _, chain = pooled_node
        suggestion = client.call("fee_suggest", {"tip_gwei": 2.0})
        assert suggestion["base_fee_wei"] == chain.base_fee_wei
        assert suggestion["priority_fee_gwei"] == pytest.approx(2.0)
        assert suggestion["max_fee_gwei"] > 2.0


#: Arguments of the wrong type, as a JSON client can send them: JSON has
#: no bytes type, and nothing types an id.
WRONGLY_TYPED = [("register_instance", [1, "00ff", 3]), ("finalize_checkpoint", ["x"])]


def _rollup_chain(**kwargs) -> tuple[Blockchain, str, str]:
    chain = Blockchain(**kwargs)
    alice = chain.create_account(10.0, label="alice")
    contract = CheckpointContract(HashChainBeacon(b"typed"), ProtocolParams(s=2, k=2))
    return chain, alice, chain.deploy(contract, alice)


class TestWronglyTypedArguments:
    """Whatever a contract raises is a revert: a failed receipt with the
    exception's type and message, never a fault out of the miner."""

    @pytest.mark.parametrize("method, args", WRONGLY_TYPED)
    def test_direct_transaction_reverts(self, method, args):
        chain, alice, rollup = _rollup_chain()
        contract = chain.contract_at(rollup)
        before, supply = canonical_state_digest(contract), chain.total_supply()
        receipt = chain.transact(
            Transaction(sender=alice, to=rollup, method=method, args=tuple(args), value=5)
        )
        assert not receipt.success and receipt.error.startswith("TypeError: "), receipt.error
        assert canonical_state_digest(contract) == before
        assert chain.balance_of(rollup) == 0 and chain.total_supply() == supply
        assert chain.mine_block().receipts == [receipt]

    @pytest.mark.parametrize("method, args", WRONGLY_TYPED)
    def test_pooled_transaction_fails_in_its_block(self, method, args):
        chain, alice, rollup = _rollup_chain(mempool=MempoolConfig())
        chain.submit(
            Transaction(sender=alice, to=rollup, method=method, args=tuple(args),
                        gas_limit=100_000)
        )
        [receipt] = chain.mine_block().receipts  # must not raise
        assert not receipt.success and receipt.error.startswith("TypeError: ")

    def test_served_node_keeps_mining(self):
        chain, alice, rollup = _rollup_chain(mempool=MempoolConfig())
        node = ServiceNode(chain)
        server = _serve(node)
        node.start_auto_mine(0.01)
        try:
            with RpcClient(*server.address) as client:
                for method, args in WRONGLY_TYPED:
                    client.call(
                        "submit_tx",
                        {"sender": alice, "to": rollup, "method": method, "args": args,
                         "gas_limit": 100_000},
                    )
                deadline = time.monotonic() + 10.0
                failed: list = []
                while time.monotonic() < deadline and len(failed) < 2:
                    time.sleep(0.02)
                    with chain.lock:
                        failed = [
                            receipt.error
                            for block in chain.blocks
                            for receipt in block.receipts
                            if not receipt.success
                        ]
                assert [error.split(":")[0] for error in failed] == ["TypeError"] * 2
                heights = {client.call("node_status")["height"]}
                while time.monotonic() < deadline and len(heights) < 3:
                    time.sleep(0.02)
                    heights.add(client.call("node_status")["height"])
                assert len(heights) >= 3, heights  # the miner is still mining
                assert client.call("mine", {"blocks": 1})["height"] > max(heights)
        finally:
            node.stop_auto_mine()
            server.close()


class TestMetaAndMetrics:
    def test_methods_lists_the_full_namespace(self, pooled_node):
        client, _, _ = pooled_node
        methods = client.call("rpc_methods")
        assert set(SERVICE_METHODS) <= set(methods)

    def test_metrics_count_calls_and_errors(self, pooled_node):
        client, accounts, _ = pooled_node
        client.call("node_status")
        client.call("node_status")
        with pytest.raises(RpcClientError):
            client.call("submit_tx", {"sender": accounts["poor"], "value": 1})
        metrics = client.call("rpc_metrics")
        assert metrics["node_status"]["calls"] == 2
        assert metrics["node_status"]["errors"] == 0
        assert metrics["submit_tx"]["errors"] == 1
        assert metrics["node_status"]["seconds"] >= 0.0

    def test_batch_preserves_order_and_isolation(self, pooled_node):
        client, accounts, _ = pooled_node
        responses = client.batch(
            [
                ("node_status", None),
                ("no_such_method", None),
                ("state_get", {"address": accounts["alice"]}),
            ]
        )
        assert len(responses) == 3
        by_id = {response["id"]: response for response in responses}
        ids = sorted(by_id)
        assert "result" in by_id[ids[0]]
        assert by_id[ids[1]]["error"]["code"] == -32601
        assert by_id[ids[2]]["result"]["address"] == accounts["alice"]

    def test_unsupported_audit_layer_is_structured(self, pooled_node):
        client, _, _ = pooled_node
        for method in ("audit_status", "checkpoint_get"):
            with pytest.raises(RpcClientError) as excinfo:
                client.call(method)
            assert excinfo.value.code == -32011  # UNSUPPORTED


@pytest.fixture(scope="module")
def aggregator_stack(params):
    """A 2-lane fabric with one settled epoch behind a live server."""
    rng = random.Random(0x5E87)
    owner = DataOwner(params, rng=rng)
    instances = []
    for index in range(3):
        package = owner.prepare(
            archive_file(700, tag=f"svc-{index}").data, fresh_keypair=index == 0
        )
        instances.append(AuditInstance.from_package(package, owner_id="svc"))
    fabric = ShardedChainFabric(num_lanes=2, mempool=MempoolConfig())
    with AuditExecutor(instances, workers=1) as executor:
        aggregator = CrossShardAggregator(
            fabric, executor, params, HashChainBeacon(b"svc"), rng=rng
        )
        aggregator.run(2)
        node = ServiceNode(fabric, aggregator=aggregator)
        server = _serve(node)
        client = RpcClient(*server.address)
        yield client, instances, aggregator
        client.close()
        server.close()
        aggregator.close()
    fabric.close()


class TestAuditLayer:
    def test_audit_status_reports_settled_epochs(self, aggregator_stack):
        client, instances, _ = aggregator_stack
        status = client.call("audit_status")
        assert status["mode"] == "aggregator"
        assert status["epochs_settled"] == 2
        assert status["accepted"] == 2 * len(instances)
        assert status["rejected"] == 0

    def test_checkpoint_get_latest_and_by_epoch(self, aggregator_stack):
        client, _, aggregator = aggregator_stack
        latest = client.call("checkpoint_get")
        assert latest["epoch"] == 1
        first = client.call("checkpoint_get", {"epoch": 0})
        assert first["epoch"] == 0
        expected = aggregator.settled[0].fabric.checkpoint
        assert first["fabric_root"] == expected.fabric_root.hex()
        assert first["commitment"] == expected.to_bytes().hex()
        assert len(first["lanes"]) == latest["num_lanes"]
        with pytest.raises(RpcClientError) as excinfo:
            client.call("checkpoint_get", {"epoch": 9})
        assert excinfo.value.code == -32010  # NOT_FOUND

    def test_fabric_proof_get_verifies_and_takes_string_names(
        self, aggregator_stack
    ):
        client, instances, _ = aggregator_stack
        name = instances[0].name
        proof = client.call("fabric_proof_get", {"name": str(name)})
        assert proof["verified"] is True
        assert proof["name"] == str(name)  # Zp ids ship as decimal strings
        assert proof["lane_proof"]["siblings"] is not None
        with pytest.raises(RpcClientError) as excinfo:
            client.call("fabric_proof_get", {"name": 12345})
        assert excinfo.value.code == -32010  # unknown file

    def test_unroutable_sender_is_not_found_not_internal(self, aggregator_stack):
        client, _, _ = aggregator_stack
        with pytest.raises(RpcClientError) as excinfo:
            client.call("submit_tx", {"sender": "0xnobody", "value": 1})
        assert excinfo.value.code == -32010  # unroutable, not -32603

    @pytest.mark.parametrize("lane", [None, True])
    def test_fee_suggest_lane_must_be_an_integer(self, aggregator_stack, lane):
        client, _, _ = aggregator_stack
        with pytest.raises(RpcClientError) as excinfo:
            client.call("fee_suggest", {"lane": lane})
        assert excinfo.value.code == -32602  # invalid params, not -32603
        assert client.call("fee_suggest", {"lane": 1})["lane"] == 1

    def test_explorer_family_sees_the_settlement(self, aggregator_stack):
        client, _, _ = aggregator_stack
        client.call("mine", {"blocks": 1})  # seal the settlement txs
        summary = client.call("explorer_summary")
        assert summary["num_lanes"] == 2 and summary["height"] > 0
        lanes = client.call("explorer_lanes")
        assert len(lanes) == 2
        checkpoints = client.call("explorer_checkpoints")
        assert len(checkpoints) == 4  # one row per (lane, epoch): 2 x 2



@pytest.mark.parametrize("fallback", [False, True])
def test_node_status_names_the_crypto_backend(fallback, monkeypatch):
    """``crypto_backend`` beside ``erasure_backend``: ``native``, or
    ``python (<reason>)`` when the BN254 kernel is not in use."""
    from repro.crypto.bn254 import kernel

    if fallback:
        reason = "no C compiler: cc is not on PATH"
        monkeypatch.setattr(kernel, "_backend", kernel.Backend("python", reason=reason))
    status = ServiceNode(Blockchain()).node_status()
    assert status["crypto_backend"] == kernel.backend().describe()
    if fallback:
        assert status["crypto_backend"] == f"python ({reason})"
    else:
        assert status["crypto_backend"] == "native" or status[
            "crypto_backend"
        ].startswith("python (")

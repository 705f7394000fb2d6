"""What a transaction may call, and who may fire a round's triggers.

A transaction reaches only the public methods a contract's own class
defines below ``Contract``, with an argument count those methods accept;
anything else is a failed receipt through the revert path (value back,
fee charged), never an exception out of ``transact`` or ``mine_block``.
The audit contract's ``trigger_challenge`` and ``trigger_verify`` answer to
the chain's scheduler alone, and the scheduler is trusted by the path its
calls come in on, never by a sender name a client can write.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.chain import Blockchain, ContractTerms, State, Transaction
from repro.chain.agents import deploy_audit_contract
from repro.chain.blockchain import SCHEDULER
from repro.chain.mempool import GasSinkContract, MempoolConfig
from repro.core import DataOwner, ProtocolParams, StorageProvider
from repro.crypto.schnorr import SigningKey
from repro.randomness import HashChainBeacon
from repro.rpc import RpcClient, RpcDispatcher, RpcTcpServer, ServiceNode


def _sink_chain(**kwargs) -> tuple[Blockchain, str, str]:
    chain = Blockchain(**kwargs)
    alice = chain.create_account(10.0, label="alice")
    sink = chain.deploy(GasSinkContract(), alice)
    return chain, alice, sink


class TestDirectPath:
    @pytest.mark.parametrize(
        "method, args",
        [
            ("emit", ("forged",)),          # defined on Contract, not the sink
            ("require", (False, "no")),     # likewise
            ("__init__", ()),               # private
            ("_pending_events", ()),        # private attribute
            ("balance", ()),                # a property
            ("due_calls_scope", ([],)),     # a classmethod
            ("no_such_method", ()),
            (None, ()),
        ],
    )
    def test_only_the_contracts_own_public_methods_are_entry_points(self, method, args):
        chain, alice, sink = _sink_chain()
        supply = chain.total_supply()
        before = chain.balance_of(sink)
        receipt = chain.transact(
            Transaction(sender=alice, to=sink, method=method, args=args, value=5)
        )
        assert not receipt.success and "has no method" in receipt.error
        assert chain.events == [] and receipt.events == []
        assert chain.balance_of(sink) == before  # the value went back
        assert chain.blocks[-1].receipts[-1] is receipt
        assert chain.total_supply() == supply

    @pytest.mark.parametrize("args", [(), (1_000, "tag", "extra")])
    def test_a_wrong_argument_count_is_a_failed_receipt(self, args):
        chain, alice, sink = _sink_chain()
        before = chain.balance_of(sink)
        receipt = chain.transact(
            Transaction(sender=alice, to=sink, method="consume", args=args, value=5)
        )
        assert not receipt.success and "does not take" in receipt.error
        assert chain.balance_of(sink) == before
        assert chain.contract_at(sink).calls == 0

    def test_default_arguments_may_be_left_out(self):
        chain, alice, sink = _sink_chain()
        for args in ((1_000,), (1_000, "tag")):
            receipt = chain.transact(
                Transaction(sender=alice, to=sink, method="consume", args=args)
            )
            assert receipt.success, receipt.error


def test_a_pooled_transaction_naming_a_missing_method_fails_in_its_block():
    chain, alice, sink = _sink_chain(mempool=MempoolConfig())
    bob = chain.create_account(1.0, label="bob")
    chain.submit(Transaction(sender=alice, to=sink, method="no_such_method", gas_limit=100_000))
    chain.submit(Transaction(sender=bob, to=sink, method="consume", args=(1_000,), gas_limit=100_000))
    sealed = chain.mine_block()  # must not raise
    outcomes = {receipt.success: receipt for receipt in sealed.receipts}
    assert set(outcomes) == {False, True} and len(sealed.receipts) == 2
    assert "has no method" in outcomes[False].error
    assert chain.contract_at(sink).calls == 1


def test_one_hostile_rpc_transaction_does_not_stop_a_served_node_settling():
    chain, alice, sink = _sink_chain(mempool=MempoolConfig())
    node = ServiceNode(chain)
    dispatcher = RpcDispatcher()
    node.register_on(dispatcher)
    server = RpcTcpServer(dispatcher)
    server.serve_in_thread()
    node.start_auto_mine(0.01)
    try:
        with RpcClient(*server.address) as client:
            client.call(
                "submit_tx",
                {"sender": alice, "to": sink, "method": "no_such_method", "gas_limit": 100_000},
            )
            deadline = time.monotonic() + 10.0
            failed = []
            while time.monotonic() < deadline and not failed:
                time.sleep(0.02)
                with chain.lock:
                    failed = [
                        receipt
                        for block in chain.blocks
                        for receipt in block.receipts
                        if not receipt.success
                    ]
            assert failed and "has no method" in failed[0].error
            height = client.call("node_status")["height"]
            while time.monotonic() < deadline and client.call("node_status")["height"] <= height:
                time.sleep(0.02)
            assert client.call("node_status")["height"] > height  # still mining
    finally:
        node.stop_auto_mine()
        server.close()


# --------------------------------------------------------------------------- #
# Scheduler-only triggers                                                     #
# --------------------------------------------------------------------------- #


@pytest.fixture()
def live_audit():
    params = ProtocolParams(s=3, k=2)
    rng = random.Random(41)
    package = DataOwner(params, rng=rng).prepare(b"trigger" * 40)
    chain = Blockchain()
    block = chain.block_time
    terms = ContractTerms(num_audits=2, audit_interval=block, response_window=2 * block)
    deployment = deploy_audit_contract(
        chain, package, StorageProvider(rng=rng), terms, HashChainBeacon(b"triggers"),
        params,
    )
    return chain, deployment, chain.contract_at(deployment.contract_address)


def test_the_owner_cannot_close_a_round_before_its_response_window(live_audit):
    chain, deployment, contract = live_audit
    chain.mine_block()  # the scheduled challenge fires
    assert contract.state is State.PROVE
    for method in ("trigger_verify", "trigger_challenge"):
        early = chain.transact(
            Transaction(sender=deployment.owner_account, to=contract.address, method=method)
        )
        assert not early.success and "only the scheduler" in early.error
    assert contract.state is State.PROVE and contract.rounds[0].passed is None
    deployment.provider_agent.on_block()  # the honest provider answers in time
    chain.advance_time(2 * chain.block_time)
    assert contract.rounds[0].passed is True
    assert contract.passes == 1 and contract.fails == 0


def test_a_spoofed_scheduler_transaction_is_refused_but_scheduled_calls_fire():
    chain, alice, sink = _sink_chain(require_signatures=True)
    for sender in (SCHEDULER, sink):  # the scheduler's name, a contract's address
        receipt = chain.transact(
            Transaction(sender=sender, to=sink, method="consume", args=(1_000,))
        )
        assert not receipt.success and receipt.error.startswith("authentication")
    assert chain.contract_at(sink).calls == 0
    chain.schedule_call(sink, "consume", chain.block_time, args=(1_000,))
    chain.advance_time(chain.block_time)
    fired = chain.blocks[-1].receipts or chain.blocks[-2].receipts
    assert fired[-1].success, fired[-1].error
    assert chain.contract_at(sink).calls == 1


def test_a_signed_external_transaction_still_reaches_the_contract():
    chain, _alice, sink = _sink_chain(require_signatures=True)
    key = SigningKey.generate(rng=random.Random(5))
    sender = chain.register_signer(key.public.to_bytes(), balance_eth=1.0)
    tx = Transaction(sender=sender, to=sink, method="consume", args=(1_000,),
                     public_key=key.public.to_bytes())
    tx.signature = key.sign(tx.signing_payload()).to_bytes()
    receipt = chain.transact(tx)
    assert receipt.success, receipt.error

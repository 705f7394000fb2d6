"""Pluggable state persistence: WAL replay must be bit-identical.

Acceptance properties (ISSUE 4 tentpole, part 1):

* a chain's canonical ``state_hash()`` survives the round trip through
  the file-backed WAL store — including a crash *between* ``transact``
  and ``mine_block`` (the mid-epoch case),
* a recovered chain is functionally live: agents, scheduled calls and
  contracts keep working after reopen,
* a snapshot replaces the log with one full-state frame without changing
  the hash, and a torn final WAL frame (killed mid-append) is ignored
  rather than corrupting recovery.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.chain import (
    Blockchain,
    Contract,
    ContractTerms,
    MemoryStateStore,
    Transaction,
    WalStateStore,
    deploy_audit_contract,
    run_contract_to_completion,
)


class Pinger(Contract):
    """Module-level (hence picklable) contract for scheduler tests."""

    def __init__(self):
        super().__init__()
        self.pings = 0

    def ping(self, ctx):
        self.pings += 1
from repro.chain.contracts.audit_contract import State
from repro.chain.state import canonical_state_digest
from repro.durable import WalCorruption, frame, frames, publish_log
from repro.core import DataOwner, ProtocolParams, StorageProvider
from repro.randomness import HashChainBeacon

TERMS = ContractTerms(num_audits=2, audit_interval=30.0, response_window=15.0)


def _fresh_system(params, seed=0x57A7E):
    rng = random.Random(seed)
    owner = DataOwner(params, rng=rng)
    package = owner.prepare(bytes(rng.randrange(256) for _ in range(800)))
    provider = StorageProvider(rng=rng)
    provider.accept(package)
    return package, provider


class TestCanonicalEncoding:
    def test_digest_is_deterministic_and_order_insensitive(self):
        assert canonical_state_digest({"a": 1, "b": 2}) == canonical_state_digest(
            {"b": 2, "a": 1}
        )
        assert canonical_state_digest([1, 2]) != canonical_state_digest([2, 1])

    def test_digest_distinguishes_types(self):
        assert canonical_state_digest(1) != canonical_state_digest(True)
        assert canonical_state_digest(b"x") != canonical_state_digest("x")
        assert canonical_state_digest(1) != canonical_state_digest(1.0)

    def test_slots_objects_are_encodable(self):
        from repro.crypto.bn254 import G1Point

        point = G1Point.generator()
        assert canonical_state_digest(point) == canonical_state_digest(
            G1Point.generator()
        )

    def test_a_cycle_through_a_set_member_or_dict_key_is_named(self):
        class Node:
            pass

        looped = Node()
        looped.members = {looped}
        keyed = Node()
        keyed.index = {keyed: 1}
        for value in (looped, keyed):
            with pytest.raises(ValueError, match="recursion too deep"):
                canonical_state_digest(value)

    def test_memory_store_hash_tracks_mutations(self):
        chain = Blockchain()
        before = chain.state_hash()
        chain.create_account(1.0, label="alice")
        assert chain.state_hash() != before
        # Same traffic on a fresh chain reproduces the same hash.
        other = Blockchain()
        other.create_account(1.0, label="alice")
        assert other.state_hash() == chain.state_hash()


class TestWalRoundTrip:
    def test_full_contract_run_recovers_bit_identical(self, tmp_path, params):
        package, provider = _fresh_system(params)
        chain = Blockchain.open(tmp_path / "chain")
        deployment = deploy_audit_contract(
            chain, package, provider, TERMS, HashChainBeacon(b"wal"), params
        )
        contract = run_contract_to_completion(chain, deployment)
        assert contract.passes == TERMS.num_audits
        live_hash = chain.state_hash()
        chain.close()

        recovered = Blockchain.open(tmp_path / "chain")
        assert recovered.state_hash() == live_hash
        # Receipts, balances and the schedule all made the trip.
        assert recovered.total_supply() == chain.total_supply()
        assert len(recovered.blocks) == len(chain.blocks)
        replayed = recovered.contract_at(deployment.contract_address)
        assert replayed.state is State.CLOSED
        assert replayed.passes == contract.passes

    def test_crash_between_transact_and_mine_block(self, tmp_path, params):
        """The mid-epoch crash: committed txs in the *pending* block survive."""
        package, provider = _fresh_system(params)
        chain = Blockchain.open(tmp_path / "chain")
        deployment = deploy_audit_contract(
            chain, package, provider, TERMS, HashChainBeacon(b"crash"), params
        )
        # Advance until the first challenge is open, then answer it but
        # crash before the block that would trigger verification.
        agent = deployment.provider_agent
        for _ in range(40):
            chain.mine_block()
            if agent.pending_challenge() is not None:
                break
        challenge = agent.pending_challenge()
        assert challenge is not None
        proof = provider.respond(package.name, challenge)
        agent.submit(proof)  # a transact with NO mine_block after it
        mid_epoch_hash = chain.state_hash()
        # Simulated crash: drop the process state without closing cleanly.
        del chain

        recovered = Blockchain.open(tmp_path / "chain")
        assert recovered.state_hash() == mid_epoch_hash
        # The submitted proof is in the recovered pending block.
        assert recovered.blocks[-1].receipts, "pending tx lost in replay"
        # And the recovered chain is live: drive the contract to the end.
        recovered_deployment = deployment
        recovered_deployment.provider_agent.chain = recovered
        recovered_deployment.provider_agent.provider = provider
        contract = run_contract_to_completion(recovered, recovered_deployment)
        assert contract.state is State.CLOSED
        assert contract.fails == 0

    def test_snapshot_folds_wal_without_changing_hash(self, tmp_path, params):
        package, provider = _fresh_system(params)
        chain = Blockchain.open(tmp_path / "chain")
        deployment = deploy_audit_contract(
            chain, package, provider, TERMS, HashChainBeacon(b"snap"), params
        )
        chain.mine_block()
        written = chain.store._seq
        chain.snapshot()
        # One file: the log, whose one frame is the snapshot, numbered next.
        assert [path.name for path in (tmp_path / "chain").iterdir()] == ["wal.log"]
        log = (tmp_path / "chain" / "wal.log").read_bytes()
        assert [(sequence, end) for sequence, _payload, end in frames(log)] == [
            (written + 1, len(log))
        ]
        pre_hash = chain.state_hash()
        reopened = WalStateStore(tmp_path / "chain")
        assert reopened.state_hash() == pre_hash and reopened.replayed_records == 1
        reopened.close()
        # Post-snapshot traffic lands in the (fresh) WAL tail.
        chain.mine_block()
        chain.mine_block()
        post_hash = chain.state_hash()
        assert post_hash != pre_hash
        chain.close()
        recovered = Blockchain.open(tmp_path / "chain")
        assert recovered.state_hash() == post_hash
        assert recovered.contract_at(deployment.contract_address) is not None

    def test_torn_wal_frame_is_ignored(self, tmp_path):
        chain = Blockchain.open(tmp_path / "chain")
        chain.create_account(2.0, label="alice")
        committed_hash = chain.state_hash()
        chain.close()
        # A crash mid-append leaves a partial frame at the tail.
        with open(tmp_path / "chain" / "wal.log", "ab") as handle:
            handle.write(b"\x00\x00\x10\x00partial-frame")
        recovered = Blockchain.open(tmp_path / "chain")
        assert recovered.state_hash() == committed_hash

    def test_wal_record_missing_a_field_is_refused(self, tmp_path):
        """Every frame ``durable.frames`` lets through was written by
        ``_commit_hook``, which writes every counter; a frame whose counter
        tuple is short is damage, and replay must raise on it rather than
        keep whatever value the store held before (``time`` last among
        them: it is hashed into ``state_hash``, so a default would replay
        to a different hash).  The same holds for the snapshot frame that
        starts the log after ``snapshot()``, which must also hold every
        keyed map and list whole."""

        def strip_last_counter(record):
            now, gone, counters = record
            return now, gone, counters[:-1]

        def strip_blocks(record):
            del record[0]["blocks"]
            return record

        def strip_balances(record):
            del record[0]["balances"]
            return record

        for snapshot, strip, field in (
            (False, strip_last_counter, "counters"),
            (True, strip_last_counter, "counters"),
            (True, strip_blocks, "blocks"),
            (True, strip_balances, "balances"),
        ):
            directory = tmp_path / f"{strip.__name__}-{snapshot}"
            chain = Blockchain.open(directory)
            alice = chain.create_account(2.0, label="alice")
            bob = chain.create_account(1.0, label="bob")
            chain.transact(
                Transaction(sender=alice, to=bob, value=10**15, gas_limit=30_000)
            )
            chain.mine_block()
            if snapshot:
                chain.snapshot()
            chain.close()
            wal_path = directory / "wal.log"
            records = [
                (sequence, strip(pickle.loads(payload)))
                for sequence, payload, _end in frames(wal_path.read_bytes())
            ]
            if snapshot:
                [(sequence, record)] = records
                publish_log(wal_path, sequence, pickle.dumps(record))
            else:
                wal_path.write_bytes(b"".join(
                    frame(sequence, pickle.dumps(record)) for sequence, record in records
                ))
            with pytest.raises(WalCorruption, match=field):
                Blockchain.open(directory)

    def test_writes_after_torn_tail_recovery_survive_the_next_reopen(
        self, tmp_path
    ):
        """The torn tail must be truncated on reopen: records appended
        after a crash recovery may not hide behind the garbage frame."""
        chain = Blockchain.open(tmp_path / "chain")
        chain.create_account(2.0, label="alice")
        chain.close()
        with open(tmp_path / "chain" / "wal.log", "ab") as handle:
            handle.write(b"\x00\x00\x20\x00torn")
        survivor = Blockchain.open(tmp_path / "chain")
        survivor.create_account(1.0, label="bob")
        survivor.mine_block()
        post_recovery_hash = survivor.state_hash()
        survivor.close()
        recovered = Blockchain.open(tmp_path / "chain")
        assert recovered.state_hash() == post_recovery_hash

    def test_failed_deploy_does_not_disable_wal_logging(self, tmp_path):
        """An exception inside a mutating entry point must still commit:
        otherwise the store's scope depth desyncs and every later record
        is silently dropped."""
        from repro.chain import Contract
        from repro.chain.transaction import RevertError

        chain = Blockchain.open(tmp_path / "chain")
        pauper = chain.create_account(0.0, label="pauper")
        with pytest.raises(RevertError):
            chain.deploy(Contract(), deployer=pauper, deposit_bytes=10_000)
        # Logging keeps working after the failed deploy.
        chain.create_account(5.0, label="after")
        chain.mine_block()
        live = chain.state_hash()
        chain.close()
        recovered = Blockchain.open(tmp_path / "chain")
        assert recovered.state_hash() == live

    def test_a_failed_deploy_installs_nothing(self, tmp_path):
        """The deploy's writes are rolled back before its record commits: no
        contract in the store or the log, no fee taken."""
        from repro.chain.mempool import GasSinkContract
        from repro.chain.transaction import RevertError

        chain = Blockchain.open(tmp_path / "chain")
        pauper = chain.create_account(0.0, label="pauper")
        sink, supply = chain.fee_sink, chain.total_supply()
        with pytest.raises(RevertError):
            chain.deploy(GasSinkContract(), deployer=pauper, deposit_bytes=1000)
        assert chain.store.contracts == {}
        assert chain.balance_of(pauper) == 0 and chain.fee_sink == sink
        assert chain.total_supply() == supply
        live = chain.state_hash()
        chain.close()
        reopened = Blockchain.open(tmp_path / "chain")
        assert reopened.store.contracts == {} and reopened.state_hash() == live

    def test_crash_between_schedule_pop_and_call_refires_the_call(
        self, tmp_path, params
    ):
        """The scheduled-call pop and its transaction are one atomic WAL
        unit: recovery never loses a popped-but-unexecuted call."""
        chain = Blockchain.open(tmp_path / "chain")
        operator = chain.create_account(1.0, label="op")
        contract = Pinger()
        address = chain.deploy(contract, deployer=operator)
        chain.schedule_call(address, "ping", delay=10.0)
        pre_fire_hash = chain.state_hash()
        chain.mine_block()  # fires the call (pop + tx in one record set)
        assert contract.pings == 1
        chain.close()
        recovered = Blockchain.open(tmp_path / "chain")
        assert recovered.state_hash() != pre_fire_hash
        assert recovered.contract_at(address).pings == 1
        assert not recovered._scheduled

    def test_plain_transfers_and_signer_accounts_round_trip(self, tmp_path):
        from repro.crypto.schnorr import SigningKey

        chain = Blockchain.open(tmp_path / "chain")
        alice = chain.create_account(3.0, label="alice")
        bob = chain.create_account(0.0, label="bob")
        signer = SigningKey.generate(random.Random(0x51))
        chain.register_signer(signer.public.to_bytes(), balance_eth=1.0)
        chain.transact(Transaction(sender=alice, to=bob, value=10**18))
        chain.mine_block()
        live = chain.state_hash()
        chain.close()
        recovered = Blockchain.open(tmp_path / "chain")
        assert recovered.state_hash() == live
        assert recovered.balance_of(bob) == 10**18

    def test_wal_store_is_explicit_about_replay(self, tmp_path):
        chain = Blockchain.open(tmp_path / "chain")
        chain.create_account(1.0)
        chain.mine_block()
        chain.close()
        store = WalStateStore(tmp_path / "chain")
        assert store.replayed_records > 0
        store.close()

    def test_default_store_is_memory(self):
        assert isinstance(Blockchain().store, MemoryStateStore)


class TestStoreIsolation:
    def test_two_directories_do_not_interfere(self, tmp_path):
        a = Blockchain.open(tmp_path / "a")
        b = Blockchain.open(tmp_path / "b")
        a.create_account(1.0, label="only-a")
        assert a.state_hash() != b.state_hash()
        a.close(), b.close()

    def test_reopen_empty_directory_matches_fresh_chain(self, tmp_path):
        wal = Blockchain.open(tmp_path / "chain")
        memory = Blockchain()
        assert wal.state_hash() == memory.state_hash()
        wal.close()

"""WAL frames carry write-sets, and every prefix of the log still replays.

A frame holds what its scope changed, read off the store's journal:
keyed-map entries (the schedule and the contracts among them), events, and
the contract attributes and container entries it wrote.  Contract storage
holds only immutable values, or lists, dicts and sets of them, so the
journal sees every write, a revert undoes them all, and a settled round
costs the same bytes late in a contract's life as early.

* The differential drives random traffic over a 2-lane WAL fabric — audit
  contracts wired to a reputation registry (rounds that pass and fail,
  early triggers that revert, disputes), checkpoint commitments that
  finalize or are slashed, a gas sink fed by the scheduler, value
  transfers, calls that revert or name no method, calls that write storage
  and schedule a call before they fail, and fabric snapshots — and records
  each lane's live ``state_hash`` after every frame.  Every frame boundary
  is then cut out of a copy of the log and reopened: the replayed hash must
  equal the live one recorded there.  A call that fails leaves every
  contract and the schedule as they were.  Faults join the traffic: a call
  whose body raises past the revert handling, and a log append that fails
  with nothing, half or all of its frame written (under a transfer, a
  storage write or a block seal).  A faulted op leaves its lane's
  ``state_hash`` and log as they were, and after every op each lane equals
  a from-scratch reopen of its directory.
* A toy contract mutates the shapes a write-set must not miss: an entry
  rewritten inside a list, a dict key deleted and re-inserted, a set
  member added, an attribute deleted; a mutable value it tries to store is
  refused.
* A 41-round contract pins the cost shape.
"""

from __future__ import annotations

import functools
import os
import pickle
import random
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro import durable
from repro.chain import Blockchain, Contract, ContractTerms, Transaction
from repro.chain.agents import deploy_audit_contract
from repro.chain.contracts.checkpoint_contract import CheckpointContract
from repro.chain.contracts.reputation import ReputationRegistry
from repro.chain.fabric import ShardedChainFabric
from repro.chain.mempool import GasSinkContract
from repro.chain.state import WalStateStore, canonical_state_digest
from repro.core import DataOwner, ProtocolParams, StorageProvider
from repro.crypto.merkle import MerkleTree
from repro.randomness import HashChainBeacon
from repro.rollup.checkpoint import Checkpoint
from test_scope_faults import FullDisk

PARAMS = ProtocolParams(s=2, k=2)
STAKE = 10**15
GAS = 400_000


@functools.cache
def _package():
    return DataOwner(PARAMS, rng=random.Random(11)).prepare(b"write-set" * 30)


def _leaves(epoch: int) -> tuple[bytes, ...]:
    """A leaf set no honest aggregator would commit: none decodes."""
    return tuple(b"leaf-%d-%d" % (epoch, index) for index in range(3))


class _Lane:
    """One lane's fixed cast and what the operations have deployed on it."""

    def __init__(self, fabric: ShardedChainFabric, index: int):
        self.chain = chain = fabric.lanes[index]
        self.alice = chain.create_account(50.0, label=f"alice-{index}")
        self.bob = chain.create_account(5.0, label=f"bob-{index}")
        self.registry = chain.deploy(ReputationRegistry(min_stake_wei=STAKE), self.alice)
        self.sink = chain.deploy(GasSinkContract(), self.alice)
        self.pad = chain.deploy(Scratchpad(), self.alice)
        self.rollup = chain.deploy(
            CheckpointContract(
                HashChainBeacon(b"rollup-%d" % index), PARAMS,
                fraud_window=2 * chain.block_time,
            ),
            self.alice,
        )
        package = _package()
        self.call(self.alice, self.rollup, "register_instance", package.name,
                  package.public.to_bytes(), package.num_chunks)
        self.call(self.alice, self.registry, "authorize_reporter", self.alice)
        self.deployments: list = []
        self.epochs = 0

    def call(self, sender, to, method, *args, value=0):
        return self.chain.transact(
            Transaction(sender=sender, to=to, method=method, args=args, value=value,
                        gas_limit=GAS if method != "raise_dispute" else 10**7)
        )

    def audit(self, drop: bool) -> None:
        chain = self.chain
        terms = ContractTerms(num_audits=3, audit_interval=chain.block_time,
                              response_window=chain.block_time)
        deployment = deploy_audit_contract(
            chain, _package(), StorageProvider(rng=random.Random(len(self.deployments))),
            terms, HashChainBeacon(b"audit-%d" % len(self.deployments)), PARAMS,
            registry_address=self.registry, validate=False,
        )
        if drop:
            deployment.provider_agent.misbehave_after_round = 0
        self.call(self.alice, self.registry, "authorize_reporter", deployment.contract_address)
        self.call(deployment.provider_account, self.registry, "register", value=STAKE)
        self.deployments.append(deployment)

    def apply(self, op: tuple) -> None:
        kind = op[0]
        pick = self.deployments[op[2] % len(self.deployments)] if self.deployments else None
        if kind == "audit" and len(self.deployments) < 3:
            self.audit(drop=op[2] % 2 == 1)
        elif kind == "dispute" and pick:
            self.call(pick.owner_account, pick.contract_address, "raise_dispute", 0,
                      value=10**15)
        elif kind == "early" and pick:
            self.call(pick.owner_account, pick.contract_address, "trigger_verify")
        elif kind == "registry" and pick:
            provider = pick.provider_account
            choice = op[2] % 3
            if choice == 0:
                self.call(self.alice, self.registry, "slash_stake", provider, 0.5)
            elif choice == 1:
                self.call(provider, self.registry, "deregister")
            else:
                self.call(provider, self.registry, "register", value=STAKE)
        elif kind == "post":
            leaves = _leaves(self.epochs)
            commitment = Checkpoint(
                epoch=self.epochs, root=MerkleTree(list(leaves)).root, accepted=3,
                rejected=0, num_leaves=3, proof_digest=bytes(32),
            )
            self.call(self.alice, self.rollup, "post_checkpoint", commitment.to_bytes(),
                      value=5 * 10**16)
            self.epochs += 1
        elif kind == "settle":
            rollup = self.chain.contract_at(self.rollup)
            if rollup.checkpoints:
                entry = rollup.checkpoints[op[2] % len(rollup.checkpoints)]
                if op[2] % 2:
                    self.call(self.bob, self.rollup, "challenge_counts", entry.checkpoint_id,
                              _leaves(entry.commitment.epoch), value=10**15)
                else:
                    self.call(self.bob, self.rollup, "finalize_checkpoint", entry.checkpoint_id)
        elif kind == "sink":
            self.call(self.bob, self.sink, "consume", 10_000 if op[2] % 4 else 10**7)
        elif kind == "schedule":
            self.chain.schedule_call(self.sink, "consume", op[2] % 3 * self.chain.block_time,
                                     args=(1_000,))
        elif kind == "bogus":
            self.call(self.bob, self.sink, "no_such_method", value=7)
        elif kind == "transfer":
            self.chain.transact(Transaction(sender=self.alice, to=self.bob, value=op[2] + 1))
        elif kind == "revert":
            self.revert(op[2] % 3)
        elif kind in ("crash", "full"):
            self.fault(op)

    def fault(self, op: tuple) -> None:
        """A body fault, or a failed log append under one of three scopes:
        the op raises, and the lane's state and log stay as they were."""
        store = self.chain.store
        before = store.state_hash(), store._seq, os.path.getsize(store.wal_path)
        if op[0] == "crash":
            with pytest.raises(Crash):
                self.call(self.bob, self.pad, "write_then_crash")
        else:
            FullDisk(store, landed=op[2] % 3 / 2)
            action = (
                lambda: self.chain.transact(Transaction(sender=self.alice, to=self.bob, value=1)),
                lambda: self.call(self.bob, self.pad, "grow", op[2]),
                self.chain.mine_block,
            )[op[2] // 4]
            with pytest.raises(OSError):
                action()
        assert (store.state_hash(), store._seq, os.path.getsize(store.wal_path)) == before

    def storage(self) -> tuple[dict, list]:
        """Every contract's digest and the schedule."""
        store = self.chain.store
        digests = {address: canonical_state_digest(contract)
                   for address, contract in store.contracts.items()}
        return digests, store.scheduled

    def revert(self, choice: int) -> None:
        """A call that fails, most after writing storage: nothing may stay."""
        before = self.storage()
        rollup = self.chain.contract_at(self.rollup)
        if choice == 1:  # a string where bytes belong
            receipt = self.call(self.alice, self.rollup, "register_instance", 99, "00ff", 3)
        elif choice == 2 and rollup.checkpoints:  # books gas on the entry, then refuses
            entry = rollup.checkpoints[-1]
            receipt = self.call(self.bob, self.rollup, "challenge_counts", entry.checkpoint_id,
                                _leaves(entry.commitment.epoch)[:2], value=10**15)
        else:
            receipt = self.call(self.bob, self.pad, "write_then_fail")
        assert not receipt.success
        assert self.storage() == before, receipt.error


def _reopened_hash(store: WalStateStore, scratch: Path) -> str:
    """The ``state_hash`` of a fresh store recovered from a copy of the directory."""
    shutil.rmtree(scratch, ignore_errors=True)
    shutil.copytree(store.directory, scratch)
    reopened = WalStateStore(scratch)
    try:
        return reopened.state_hash()
    finally:
        reopened.close()


class _FrameLog:
    """Each lane's ``(log size, live state_hash)`` after every frame since
    the lane's last snapshot."""

    def __init__(self, fabric: ShardedChainFabric):
        self.boundaries: list[list[tuple[int, str]]] = [[] for _ in fabric.lanes]
        for index, lane in enumerate(fabric.lanes):
            self._watch(index, lane.store)

    def _watch(self, index: int, store: WalStateStore) -> None:
        commit = store._commit_hook

        def recorded(kind, payload):
            commit(kind, payload)
            self.boundaries[index].append(
                (os.path.getsize(store.wal_path), store.state_hash())
            )

        store._commit_hook = recorded

    def check(self, fabric: ShardedChainFabric, scratch: Path) -> int:
        """Reopen every recorded cut of every lane's log; returns the count."""
        checked = 0
        for index, lane in enumerate(fabric.lanes):
            copy = scratch / f"lane-{index}"
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(lane.store.directory, copy)
            # Longest cut first, so one copy serves every cut.
            for size, live in sorted(self.boundaries[index], reverse=True):
                WalStateStore.truncate_wal(copy, size)
                reopened = WalStateStore(copy)
                try:
                    assert reopened.state_hash() == live, (
                        f"lane {index}: the log cut after {size} bytes replays "
                        "to a state the live lane never had"
                    )
                finally:
                    reopened.close()
                checked += 1
            self.boundaries[index].clear()
        return checked


LANE_OP = st.tuples(
    st.sampled_from(
        ["audit", "dispute", "early", "registry", "post", "settle", "sink", "schedule",
         "bogus", "transfer", "revert", "crash", "full"]
    ),
    st.integers(0, 1),
    st.integers(0, 11),
)
OPS = st.lists(
    st.one_of(LANE_OP, st.just(("mine",)), st.just(("mine",)), st.just(("snapshot",))),
    min_size=4,
    max_size=28,
)


@settings(max_examples=25, deadline=None)
@given(ops=OPS)
def test_every_frame_boundary_of_every_lane_replays_to_the_live_state(ops):
    with tempfile.TemporaryDirectory() as base:
        base = Path(base)
        fabric = ShardedChainFabric(num_lanes=2, persist_dir=base / "lanes")
        try:
            frames = _FrameLog(fabric)
            lanes = [_Lane(fabric, index) for index in range(2)]
            lanes[0].audit(drop=False)
            checked = 0
            for op in ops:
                if op[0] == "mine":
                    fabric.mine_block()
                    for lane in lanes:
                        for deployment in lane.deployments:
                            deployment.provider_agent.on_block()
                elif op[0] == "snapshot":
                    checked += frames.check(fabric, base / "cuts")
                    fabric.snapshot()
                else:
                    lanes[op[1]].apply(op)
                for lane in fabric.lanes:
                    assert _reopened_hash(lane.store, base / "reopen") == lane.state_hash(), op
            checked += frames.check(fabric, base / "cuts")
            assert checked > 0
        finally:
            fabric.close()


# --------------------------------------------------------------------------- #
# Shapes a write-set must not miss                                            #
# --------------------------------------------------------------------------- #


class Crash(BaseException):
    """Not a modelled revert: it escapes the chain's revert handling."""


class Box:
    """A plain mutable object: it can change without changing identity."""

    def __init__(self) -> None:
        self.value = 0


class Scratchpad(Contract):
    """Module-level (hence picklable) contract with every kind of storage."""

    def __init__(self) -> None:
        super().__init__()
        self.label = "fixed"
        self.notes: list = [0, 1]
        self.table: dict = {"a": 1, "b": 2, "c": 3}
        self.tags: set = {"x"}
        self.spare = (1, 2)

    def edit_entry(self, ctx):
        self.notes[0] += 1  # a list entry, rewritten in place

    def tag(self, ctx, value):
        self.tags.add(value)

    def store_box(self, ctx):
        self.box = Box()  # a plain mutable object: refused

    def edit_nested(self, ctx):
        self.table["nested"] = {"n": 0}  # a mutable entry: refused

    def write_then_fail(self, ctx):
        self.label = "changed"
        self.notes[0] = -1
        self.notes.append(9)
        self.table.pop("b", None)
        self.table["z"] = 0
        self.tags.add("y")
        self.spare = None
        ctx.chain.schedule_call(self.address, "grow", 0.0, args=(7,))
        raise ValueError("fails after writing")

    def write_then_crash(self, ctx):
        self.emit("crashing")
        try:
            self.write_then_fail(ctx)
        except ValueError:
            raise Crash("a fault, not a revert") from None

    def move_key(self, ctx):
        value = self.table.pop("a")
        self.table["a"] = value  # same value, but now iterated last

    def drop_spare(self, ctx):
        del self.spare

    def grow(self, ctx, value):
        self.notes.append(value)
        self.table[f"k{value}"] = value


def _last_record(directory: Path):
    log = (directory / "wal.log").read_bytes()
    *_, (_sequence, payload, _end) = durable.frames(log)
    return pickle.loads(payload)


def test_in_place_edits_reorders_and_deletes_all_replay(tmp_path):
    chain = Blockchain.open(tmp_path)
    alice = chain.create_account(1.0, label="alice")
    address = chain.deploy(Scratchpad(), alice)
    for method, args in [
        ("edit_entry", ()), ("tag", ("y",)), ("move_key", ()), ("grow", (5,)),
        ("edit_entry", ()), ("drop_spare", ()), ("tag", ("z",)), ("grow", (6,)),
    ]:
        receipt = chain.transact(Transaction(sender=alice, to=address, method=method, args=args))
        assert receipt.success, receipt.error
        reopened = WalStateStore(tmp_path)
        try:
            assert reopened.state_hash() == chain.state_hash(), method
            copy, live = reopened.contracts[address], chain.contract_at(address)
            assert list(copy.table) == list(live.table)  # order is state too
            assert not hasattr(copy, "spare") or hasattr(live, "spare")
        finally:
            reopened.close()
    chain.close()


def test_an_unchanged_immutable_attribute_is_not_logged_again(tmp_path):
    chain = Blockchain.open(tmp_path)
    alice = chain.create_account(1.0, label="alice")
    address = chain.deploy(Scratchpad(), alice)
    chain.transact(Transaction(sender=alice, to=address, method="grow", args=(3,)))
    record = _last_record(tmp_path)
    # No attribute is logged (the label, the spare tuple, the containers
    # themselves), only the two entries the call wrote.
    assert address not in record.now and not record.gone
    assert record.now[(address, "notes")] == {2: 3}
    assert record.now[(address, "table")] == {"k3": 3}
    chain.close()


class Boxed(Scratchpad):
    def __init__(self) -> None:
        super().__init__()
        self.box = Box()


def test_a_mutable_value_is_refused_where_it_is_written(tmp_path):
    chain = Blockchain.open(tmp_path)
    alice = chain.create_account(1.0, label="alice")
    address = chain.deploy(Scratchpad(), alice)
    pad = chain.contract_at(address)
    before = canonical_state_digest(pad)
    for method in ("store_box", "edit_nested"):
        receipt = chain.transact(Transaction(sender=alice, to=address, method=method))
        assert not receipt.success and receipt.error.startswith("TypeError"), receipt.error
    assert canonical_state_digest(pad) == before
    contracts = dict(chain.store.contracts)
    with pytest.raises(TypeError):
        chain.deploy(Boxed(), alice)  # refused at deploy, and nothing installed
    assert chain.store.contracts == contracts
    reopened = WalStateStore(tmp_path)
    try:
        assert reopened.state_hash() == chain.state_hash()
    finally:
        reopened.close()
    chain.close()


# --------------------------------------------------------------------------- #
# The cost shape                                                              #
# --------------------------------------------------------------------------- #


def test_a_settled_round_costs_the_same_frame_bytes_late_as_early(tmp_path):
    chain = Blockchain.open(tmp_path)
    block = chain.block_time
    terms = ContractTerms(num_audits=41, audit_interval=block, response_window=block)
    deployment = deploy_audit_contract(
        chain, _package(), StorageProvider(rng=random.Random(3)), terms,
        HashChainBeacon(b"cost-shape"), PARAMS, validate=False,
    )
    contract = chain.contract_at(deployment.contract_address)
    round_bytes = []
    while contract.cnt < terms.num_audits:
        start = chain.store.wal_path.stat().st_size
        chain.mine_block()  # the challenge fires
        deployment.provider_agent.on_block()
        chain.mine_block()  # the verdict fires
        round_bytes.append(chain.store.wal_path.stat().st_size - start)
    assert all(record.passed for record in contract.rounds)
    assert round_bytes[40] <= 1.2 * round_bytes[2], round_bytes
    chain.close()

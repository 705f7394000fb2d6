"""Block-scoped verification changes nothing a chain records.

A sealed block's due ``trigger_verify`` calls are checked together, once
(``AuditContract.due_calls_scope``), and each transaction then takes the
verdict the scope holds for its contract.  The reference is the same chain
with that scope replaced by the base class's no-op — one lone Eq.-(2) check
inside every transaction.  The two must agree on every
receipt, event, round field and ``state_hash`` under any per-block mix of
honest, silent, replayed, malformed and well-formed-but-forged responses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from repro.adversary.strategies import make_prover
from repro.chain import (
    ContractTerms,
    ShardedChainFabric,
    State,
    Transaction,
    deploy_audit_contract,
)
from repro.chain.blockchain import Contract
from repro.chain.contracts.audit_contract import _BLOCK_VERDICTS, AuditContract
from repro.core import DataOwner, ProtocolParams, StorageProvider
from repro.core.proof import PRIVATE_PROOF_BYTES, PrivateProof
from repro.obs.hotpath import HOTPATH
from repro.obs.registry import get_registry
from repro.randomness import HashChainBeacon

PARAMS = ProtocolParams(s=3, k=2)
FLEET = 4

#: What one provider does in one round, and the verdict it must get.
KINDS = {
    "honest": None,
    "silent": "no-proof",
    "replay": "replayed-proof",
    "malformed": "malformed-proof",
    "forge": "pairing-mismatch",
    "bitrot": "pairing-mismatch",
}


@dataclass(repr=False)  # hypothesis prints fixtures too
class Member:
    package: object
    provers: dict  # kind -> Prover, for the kinds that compute a response


@pytest.fixture(scope="module")
def fleets():
    """``single``: four files under one key; ``multi``: two owners x two."""
    rng = random.Random(2400)
    members = []
    for owner_index, files in enumerate((FLEET, FLEET // 2)):
        owner = DataOwner(PARAMS, rng=rng)
        for file_index in range(files):
            package = owner.prepare(
                bytes([32 * owner_index + file_index + 1]) * 300,
                fresh_keypair=file_index == 0,
            )
            members.append(
                Member(
                    package,
                    {
                        # rho = 1: every chunk rotted, so every challenge hits one
                        kind: make_prover(kind, package, rng=random.Random(2401), rho=1.0)
                        for kind in ("honest", "forge", "bitrot")
                    },
                )
            )
    return {
        "single": members[:FLEET],
        "multi": members[: FLEET // 2] + members[FLEET:],
    }


@pytest.fixture(scope="module")
def responses():
    """Posted bytes by (file, challenge, kind): both runs of a pair — and
    every later example — post the very same proof."""
    return {}


def _response(member, contract, kind, responses) -> bytes | None:
    current = contract.rounds[contract.cnt]
    if kind == "silent":
        return None
    if kind == "malformed":  # fresh bytes each round: not also a replay
        return b"\xff" * (PRIVATE_PROOF_BYTES - 1) + bytes([contract.cnt])
    if kind == "replay":
        posted = [r.proof_bytes for r in contract.rounds[: contract.cnt] if r.proof_bytes]
        if posted:
            return posted[0]
        kind = "honest"  # nothing to replay yet
    key = (member.package.name, current.challenge.to_bytes(), kind)
    if key not in responses:
        responses[key] = member.provers[kind].respond_private(current.challenge).to_bytes()
    return responses[key]


def _expected_reason(schedule, serial, round_id):
    kind = schedule[round_id][serial]
    if kind == "replay" and not any(
        schedule[earlier][serial] != "silent" for earlier in range(round_id)
    ):
        return None
    return KINDS[kind]


def _run(
    members, lanes, schedule, responses, batched,
    on_verify_block=None, mine_block=ShardedChainFabric.mine_block,
):
    """Drive one fleet through ``schedule`` (a list of rounds, each one kind
    per contract) and return everything the chain recorded."""
    with pytest.MonkeyPatch.context() as patch:
        if not batched:
            patch.setattr(AuditContract, "due_calls_scope", Contract.due_calls_scope)
        fabric = ShardedChainFabric(num_lanes=lanes)
        block = fabric.block_time
        # One block to challenge, one to verify: every contract of a lane
        # has its trigger_verify due in the same block.
        terms = ContractTerms(
            num_audits=len(schedule), audit_interval=block, response_window=block
        )
        deployments = [
            deploy_audit_contract(
                fabric,
                member.package,
                StorageProvider(rng=random.Random(serial)),
                terms,
                HashChainBeacon(b"block-batch-%d" % serial),
                PARAMS,
                validate=False,
            )
            for serial, member in enumerate(members)
        ]
        contracts = [fabric.contract_at(d.contract_address) for d in deployments]

        def mine():
            mine_block(fabric)
            assert _BLOCK_VERDICTS.get(None) is None

        for round_id, kinds in enumerate(schedule):
            mine()
            assert all(c.state is State.PROVE and c.cnt == round_id for c in contracts)
            for member, deployment, contract, kind in zip(
                members, deployments, contracts, kinds
            ):
                payload = _response(member, contract, kind, responses)
                if payload is not None:
                    receipt = fabric.transact(
                        Transaction(
                            sender=deployment.provider_account,
                            to=deployment.contract_address,
                            method="submit_proof",
                            args=(payload,),
                        ),
                        payload_bytes=len(payload),
                    )
                    assert receipt.success
            if on_verify_block is not None:
                on_verify_block(fabric)
            mine()
            assert all(c.cnt == round_id + 1 for c in contracts)
        assert all(c.state is State.CLOSED for c in contracts)
        return {
            "receipts": [[b.receipts for b in lane.blocks] for lane in fabric.lanes],
            "events": [list(lane.events) for lane in fabric.lanes],
            "rounds": [c.rounds for c in contracts],
            "tallies": [(c.passes, c.fails) for c in contracts],
            "state_hash": fabric.state_hash(),
        }


@settings(max_examples=25, deadline=None)
@given(
    fleet=st.sampled_from(("single", "multi")),
    lanes=st.sampled_from((1, 2)),
    schedule=st.lists(
        st.tuples(*[st.sampled_from(tuple(KINDS))] * FLEET), min_size=1, max_size=3
    ),
)
def test_block_check_and_per_transaction_check_record_the_same_chain(
    fleets, responses, fleet, lanes, schedule
):
    reference = _run(fleets[fleet], lanes, schedule, responses, batched=False)
    shipped = _run(fleets[fleet], lanes, schedule, responses, batched=True)
    for field in reference:
        assert shipped[field] == reference[field], field
    # No false accept (and no false reject): each round got the verdict,
    # and the reason code, its response calls for.
    for serial, rounds in enumerate(shipped["rounds"]):
        for record in rounds:
            reason = _expected_reason(schedule, serial, record.round_id)
            assert record.passed is (reason is None)
            assert record.reject_reason == reason


@pytest.mark.parametrize("lanes", [1, 2])
def test_an_all_honest_block_costs_one_final_exponentiation_per_lane(
    fleets, responses, lanes
):
    populated = []

    def before_verify_block(fabric):
        populated.append(
            sum(1 for lane in fabric.lanes if any(
                isinstance(c, AuditContract) for c in lane.store.contracts.values()
            ))
        )
        HOTPATH.reset()

    HOTPATH.enable()
    try:
        recorded = _run(
            fleets["single"], lanes, [("honest",) * FLEET], responses,
            batched=True, on_verify_block=before_verify_block,
        )
        calls = HOTPATH.snapshot()["bn254.final_exp"]["calls"]
    finally:
        HOTPATH.disable()
        HOTPATH.reset()
    assert recorded["tallies"] == [(1, 0)] * FLEET
    assert calls == populated[0] <= lanes


def test_one_forged_proof_rejects_that_contract_and_nothing_is_verified_twice(
    fleets, responses, equation_checks
):
    schedule = [("honest", "forge", "honest", "honest")]
    reference = _run(fleets["multi"], 1, schedule, responses, batched=False)
    del equation_checks[:]  # the reference run's lone checks
    batches = get_registry().counter(
        "contract_verify_batches_total", labels=("result",)
    ).labels("localized")
    before = batches.value
    shipped = _run(fleets["multi"], 1, schedule, responses, batched=True)

    assert shipped == reference  # today's reject_detail, residual fingerprints and all
    assert shipped["tallies"] == [(1, 0), (0, 1), (1, 0), (1, 0)]
    detail = shipped["rounds"][1][0].reject_detail
    assert detail.startswith("pairing-mismatch [Eq.2]") and "residuals:" in detail
    # The failed block bisected: its first pair failed and the second pair
    # was cleared by the quotient; the honest half of the first passed its
    # lone check and the forged one was judged from its residual legs.  No
    # transaction checked again.
    assert equation_checks == [fleets["multi"][0].package.name]
    assert batches.value == before + 1


def test_a_staged_round_is_decoded_once_per_block(fleets, responses):
    """The block's check screens each due round's bytes, and the round's
    transaction takes its verdict without decoding them again."""
    schedule = [("honest", "forge", "honest", "honest")]
    decoded = []
    decode = PrivateProof.from_bytes

    def counting(data):
        decoded.append(data)
        return decode(data)

    def before_verify_block(fabric):
        patch.setattr(PrivateProof, "from_bytes", staticmethod(counting))

    with pytest.MonkeyPatch.context() as patch:
        recorded = _run(
            fleets["single"], 1, schedule, responses,
            batched=True, on_verify_block=before_verify_block,
        )
    assert recorded["tallies"] == [(1, 0), (0, 1), (1, 0), (1, 0)]
    assert len(decoded) == FLEET


def test_lanes_mined_on_their_own_threads_keep_their_own_verdicts(
    fleets, responses, equation_checks
):
    """Lanes may seal blocks concurrently: each lane's scope holds its
    block's verdicts for its own thread, so no lane loses a verdict to
    another lane's exit and falls back to computing it."""
    import sys
    import threading

    rounds = 3
    barrier = threading.Barrier(2, timeout=60)
    errors = []

    def mine_lane(lane):
        try:
            barrier.wait()
            lane.mine_block()
        except BaseException as exc:  # surfaced below, on the test's thread
            errors.append(exc)

    def mine_both(fabric):
        threads = [threading.Thread(target=mine_lane, args=(lane,)) for lane in fabric.lanes]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads) and not errors

    lone_lanes = []

    def before_verify_block(fabric):
        lone_lanes.append(
            sum(
                1
                for lane in fabric.lanes
                if sum(isinstance(c, AuditContract) for c in lane.store.contracts.values()) == 1
            )
        )

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        recorded = _run(
            fleets["multi"], 2, [("honest",) * FLEET] * rounds, responses,
            batched=True, on_verify_block=before_verify_block, mine_block=mine_both,
        )
    finally:
        sys.setswitchinterval(interval)
    assert recorded["tallies"] == [(rounds, 0)] * FLEET
    # Only a lane holding a single contract ever reached the equation.
    assert len(equation_checks) == sum(lone_lanes)
    assert _BLOCK_VERDICTS.get(None) is None

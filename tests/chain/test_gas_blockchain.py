"""Gas models and the simulated chain's bookkeeping."""

from __future__ import annotations

import pytest

from repro.chain import (
    AuditPrecompileModel,
    Blockchain,
    CostModel,
    GasSchedule,
    PAPER_AUDIT_GAS,
    PAPER_VERIFY_MS,
    Transaction,
    WEI_PER_ETH,
    vanilla_evm_verification_gas,
)
from repro.chain.blockchain import Contract


class TestGasModels:
    def test_anchor_reproduced_exactly(self):
        """The calibrated model returns the paper's 589k at 7.2 ms / 288 B."""
        model = AuditPrecompileModel(GasSchedule.istanbul())
        assert model.private_audit_gas() == PAPER_AUDIT_GAS

    def test_gas_monotone_in_time(self):
        model = AuditPrecompileModel(GasSchedule.istanbul())
        values = [model.verification_gas(288, ms) for ms in (5, 6, 7, 8, 9)]
        assert values == sorted(values)

    def test_private_costs_more_than_plain(self):
        """Fig. 5: the 288-byte line sits above the 96-byte line."""
        model = AuditPrecompileModel(GasSchedule.istanbul())
        for ms in (5.0, 7.0, 9.0):
            assert model.verification_gas(288, ms) > model.verification_gas(96, ms)

    def test_negative_time_rejected(self):
        model = AuditPrecompileModel(GasSchedule.istanbul())
        with pytest.raises(ValueError):
            model.verification_gas(288, -1)

    def test_vanilla_evm_far_more_expensive(self):
        """The ablation behind the paper's custom precompile: at k=300 a
        vanilla-EVM verifier costs several times the precompile budget."""
        schedule = GasSchedule.istanbul()
        vanilla = vanilla_evm_verification_gas(schedule, k=300)
        assert vanilla > 3 * PAPER_AUDIT_GAS

    def test_byzantium_worse_than_istanbul(self):
        byz = vanilla_evm_verification_gas(GasSchedule.byzantium(), k=300)
        ist = vanilla_evm_verification_gas(GasSchedule.istanbul(), k=300)
        assert byz > ist

    def test_usd_conversion(self):
        cost = CostModel()  # paper: 143 USD/ETH, 5 Gwei
        usd = cost.gas_to_usd(PAPER_AUDIT_GAS)
        assert 0.40 < usd < 0.45
        # The abstract's $0.1 reading corresponds to ~1.2 Gwei.
        cheap = CostModel(gas_price_gwei=1.2)
        assert 0.09 < cheap.gas_to_usd(PAPER_AUDIT_GAS) < 0.12

    def test_calldata_pricing(self):
        schedule = GasSchedule.istanbul()
        assert schedule.calldata_gas(b"\x00\x01") == 4 + 16

    def test_storage_pricing_rounds_to_slots(self):
        schedule = GasSchedule.istanbul()
        assert schedule.storage_gas(1) == 20_000
        assert schedule.storage_gas(33) == 40_000


class _Counter(Contract):
    def __init__(self):
        super().__init__()
        self.count = 0

    def bump(self, ctx, amount: int = 1):
        ctx.gas.consume(100)
        self.count += amount
        self.emit("bumped", count=self.count)
        return self.count

    def fail(self, ctx):
        self.require(False, "always fails")

    def bump_then_fail(self, ctx):
        self.count += 1
        ctx.chain.schedule_call(self.address, "bump", 0.0)
        self.require(False, "fails after writing")

    def burn(self, ctx):
        ctx.gas.consume(10**9)


class TestBlockchain:
    def test_accounts_and_transfer(self):
        chain = Blockchain()
        a = chain.create_account(2.0)
        b = chain.create_account(0.0)
        chain.transfer(a, b, WEI_PER_ETH)
        assert chain.balance_of_eth(a) == 1.0
        assert chain.balance_of_eth(b) == 1.0

    def test_contract_call_and_events(self):
        chain = Blockchain()
        user = chain.create_account(1.0)
        counter = _Counter()
        address = chain.deploy(counter, deployer=user)
        receipt = chain.transact(
            Transaction(sender=user, to=address, method="bump", args=(3,))
        )
        assert receipt.success
        assert receipt.return_value == 3
        assert receipt.events[0].name == "bumped"
        assert chain.events_named("bumped")

    def test_revert_rolls_back_state_and_value(self):
        chain = Blockchain()
        user = chain.create_account(1.0)
        counter = _Counter()
        address = chain.deploy(counter, deployer=user)
        before = chain.balance_of(user)
        receipt = chain.transact(
            Transaction(sender=user, to=address, method="fail", value=10**17)
        )
        assert not receipt.success
        assert counter.count == 0
        # Value refunded; only the gas fee was lost.
        assert chain.balance_of(user) > before - 10**17
        # Storage and schedule writes made before the failure are undone too.
        receipt = chain.transact(
            Transaction(sender=user, to=address, method="bump_then_fail", value=10**17)
        )
        assert not receipt.success and "fails after writing" in receipt.error
        assert counter.count == 0
        assert chain.store.scheduled == [] and chain.store.schedule_seq == 0

    def test_out_of_gas(self):
        chain = Blockchain()
        user = chain.create_account(1.0)
        address = chain.deploy(_Counter(), deployer=user)
        receipt = chain.transact(
            Transaction(sender=user, to=address, method="burn", gas_limit=50_000)
        )
        assert not receipt.success
        assert "gas" in (receipt.error or "")

    def test_fees_conserved(self):
        chain = Blockchain()
        user = chain.create_account(1.0)
        address = chain.deploy(_Counter(), deployer=user)
        supply = chain.total_supply()
        chain.transact(Transaction(sender=user, to=address, method="bump"))
        chain.transact(Transaction(sender=user, to=address, method="fail"))
        assert chain.total_supply() == supply

    def test_blocks_advance_time(self):
        chain = Blockchain(block_time=15.0)
        assert chain.time == 0.0
        chain.mine_block()
        chain.mine_block()
        assert chain.time == 30.0
        assert len(chain.blocks) == 3

    def test_scheduler_fires_in_order(self):
        chain = Blockchain(block_time=10.0)
        user = chain.create_account(1.0)
        counter = _Counter()
        address = chain.deploy(counter, deployer=user)
        chain.schedule_call(address, "bump", delay=25.0, args=(10,))
        chain.schedule_call(address, "bump", delay=5.0, args=(1,))
        chain.mine_block()  # t=10: second call fires
        assert counter.count == 1
        chain.mine_block()  # t=20
        assert counter.count == 1
        chain.mine_block()  # t=30: first call fires
        assert counter.count == 11

    def test_chain_bytes_grow(self):
        chain = Blockchain()
        user = chain.create_account(1.0)
        address = chain.deploy(_Counter(), deployer=user)
        before = chain.chain_bytes()
        chain.transact(
            Transaction(sender=user, to=address, method="bump"),
            payload_bytes=500,
        )
        chain.mine_block()
        assert chain.chain_bytes() > before + 500

    def test_plain_transfer_to_eoa(self):
        chain = Blockchain()
        a = chain.create_account(1.0)
        b = chain.create_account(0.0)
        receipt = chain.transact(Transaction(sender=a, to=b, value=10**18 // 2))
        assert receipt.success
        assert chain.balance_of_eth(b) == 0.5

"""Checkpoint pipeline: engine epochs settled as one transaction each.

Glue between the three layers the rollup spans:

* the **engine** (:class:`~repro.engine.scheduler.EpochScheduler`)
  produces an epoch's proofs and the grouped batch verdict off chain,
* the **rollup** (:mod:`~repro.rollup.checkpoint`) canonicalizes the
  outcome into a verdict tree and an 85-byte commitment,
* the **chain** (:class:`~repro.chain.contracts.checkpoint_contract.CheckpointContract`,
  reached through :class:`~repro.rollup.client.CheckpointClient`) records
  the commitment under a bonded fraud-proof window.

The pipeline plays the *aggregator* role on one lane: it posts
commitments from its own funded account and returns each epoch as a
:class:`SettledEpoch` (bundle, receipts, DA bundle).  It keeps none of
them: :attr:`~repro.rollup.fabric.CrossShardAggregator.settled` is the
one history of settled epochs, which the RPC reads, DA serving, the
light-client replay and the lifecycle engine all read.

With ``da_params`` set, the pipeline additionally erasure-codes each
settled epoch's leaf set into a :class:`~repro.da.commit.DaBundle`
(namespace = lane‖epoch) and posts the 119-byte DA commitment alongside
the checkpoint, turning the availability obligation into something light
clients can *sample* instead of trusting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..chain.blockchain import Blockchain
from ..chain.transaction import Receipt, Transaction
from . import checkpoint as checkpoint_module
from .checkpoint import CheckpointBundle
from .client import CheckpointClient


@dataclass
class SettledEpoch:
    """One epoch's engine result, bundle, and settlement receipt."""

    epoch: int
    result: object                 # engine EpochResult (duck-typed)
    bundle: CheckpointBundle
    checkpoint_id: int
    receipt: Receipt
    registration_gas: int = 0       # instances registered just before the post
    da: object | None = field(default=None)   # DaBundle when DA is enabled
    da_receipt: Receipt | None = field(default=None)


class CheckpointPipeline:
    """Runs engine epochs and settles each as one checkpoint transaction."""

    def __init__(
        self,
        scheduler,
        chain: Blockchain,
        contract_address: str,
        aggregator_account: str,
        da_params=None,
        lane_id: int = 0,
    ):
        self.scheduler = scheduler
        self.chain = chain
        self.contract_address = contract_address
        self.aggregator = aggregator_account
        self.da_params = da_params
        self.lane_id = lane_id
        self.client = CheckpointClient(
            self._transact, contract_address, self.contract
        )

    @property
    def contract(self):
        # Imported here, not at module level: checkpoint_contract imports
        # rollup.checkpoint, so a top-level import would be circular.
        from ..chain.contracts.checkpoint_contract import CheckpointContract

        contract = self.chain.contract_at(self.contract_address)
        assert isinstance(contract, CheckpointContract)
        return contract

    def _transact(self, tx: Transaction, payload_bytes: int) -> Receipt:
        # Looked up per call, not bound once: a wrapper installed on
        # ``Blockchain.transact`` after construction still sees every post.
        return self.chain.transact(tx, payload_bytes=payload_bytes)

    def register_fleet(self, names=None) -> int:
        """Push instances' metadata into the on-chain registry; returns gas.

        ``names`` defaults to the executor's fleet; either way only the
        scheduler's subset the contract does not hold yet is registered.
        """
        instances = self.scheduler.executor.instances
        subset = self.scheduler.names
        registered = self.contract.instances
        gas = 0
        for name in instances if names is None else names:
            if subset is not None and name not in subset or name in registered:
                continue
            instance = instances[name]
            receipt = self.client.register_instance(
                self.aggregator, name, instance.public.to_bytes(), instance.num_chunks
            )
            if not receipt.success:
                raise RuntimeError(f"instance registration failed: {receipt.error}")
            gas += receipt.gas_used
        return gas

    def audit_epoch(self, epoch: int) -> tuple[object, CheckpointBundle]:
        """Run one engine epoch off chain: its result and verdict bundle.

        The first half of :meth:`settle_epoch`; nothing is posted, so this
        is also what a forging aggregator starts from.
        """
        result = self.scheduler.run_epoch(epoch)
        with self.scheduler.tracer.span("checkpoint_build", epoch=epoch):
            # Through the module, so a wrapper installed on
            # ``rollup.checkpoint.build_epoch_checkpoint`` sees the call.
            bundle = checkpoint_module.build_epoch_checkpoint(result)
        return result, bundle

    def settle_epoch(self, epoch: int) -> SettledEpoch:
        """Run one engine epoch and post its commitment on chain."""
        result, bundle = self.audit_epoch(epoch)
        # Names new since the last post are registered just before it.
        registration_gas = self.register_fleet(r.name for r in bundle.records)
        with self.scheduler.tracer.span("post", epoch=epoch, lane=self.lane_id):
            receipt = self.client.post_checkpoint(self.aggregator, bundle.checkpoint)
        if not receipt.success:
            raise RuntimeError(f"checkpoint posting failed: {receipt.error}")
        checkpoint_id = receipt.return_value
        da_bundle = None
        da_receipt = None
        if self.da_params is not None:
            from ..da.commit import build_da_bundle

            da_bundle = build_da_bundle(
                self.lane_id, epoch, bundle, self.da_params
            )
            da_receipt = self.client.post_da_root(
                self.aggregator, checkpoint_id, da_bundle.commitment
            )
            if not da_receipt.success:
                raise RuntimeError(
                    f"DA commitment posting failed: {da_receipt.error}"
                )
        return SettledEpoch(
            epoch=epoch,
            result=result,
            bundle=bundle,
            checkpoint_id=checkpoint_id,
            receipt=receipt,
            registration_gas=registration_gas,
            da=da_bundle,
            da_receipt=da_receipt,
        )

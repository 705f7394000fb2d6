"""Calldata for the checkpoint contract, in one place.

Every transaction a rollup participant sends to a
:class:`~repro.chain.contracts.checkpoint_contract.CheckpointContract` —
the aggregator registering its fleet, posting a commitment and its DA
root, finalizing after the fraud window; a challenger opening a leaf or
disputing the counts — is built here: method name, argument tuple, bond
value and the ``payload_bytes`` the gas schedule charges for.

The client does not own a chain.  It is handed a ``transact(tx,
payload_bytes) -> Receipt`` callable, so the settlement pipeline's lane
``chain.transact`` and any other caller send byte-identical transactions
through it.  Receipts are returned
as they come; mapping a failed receipt to an error stays with the caller,
who knows what the failure means.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..chain.transaction import Receipt, Transaction
from ..crypto.merkle import MerkleProof
from .checkpoint import Checkpoint

#: name (32) + num_chunks (4) riding along with the public key.
REGISTRATION_OVERHEAD_BYTES = 36


class CheckpointClient:
    """Sends the checkpoint contract's six transactions."""

    def __init__(
        self,
        transact: Callable[[Transaction, int], Receipt],
        contract_address: str,
        contract,
    ):
        self._transact = transact
        self.contract_address = contract_address
        self.contract = contract  # read for its bond sizes only

    def _send(
        self, sender: str, method: str, args: tuple, value: int = 0,
        payload_bytes: int = 0,
    ) -> Receipt:
        return self._transact(
            Transaction(
                sender=sender,
                to=self.contract_address,
                method=method,
                args=args,
                value=value,
            ),
            payload_bytes,
        )

    # -- the aggregator's side ------------------------------------------------

    def register_instance(
        self, sender: str, name: int, public_key_bytes: bytes, num_chunks: int
    ) -> Receipt:
        return self._send(
            sender,
            "register_instance",
            (name, public_key_bytes, num_chunks),
            payload_bytes=len(public_key_bytes) + REGISTRATION_OVERHEAD_BYTES,
        )

    def post_checkpoint(self, sender: str, commitment: Checkpoint) -> Receipt:
        """Post one epoch's commitment under the posting bond.

        A successful receipt's ``return_value`` is the checkpoint id every
        later call refers to.
        """
        commitment_bytes = commitment.to_bytes()
        return self._send(
            sender,
            "post_checkpoint",
            (commitment_bytes,),
            value=self.contract.posting_bond_wei,
            payload_bytes=len(commitment_bytes),
        )

    def post_da_root(self, sender: str, checkpoint_id: int, da_commitment) -> Receipt:
        da_bytes = da_commitment.to_bytes()
        return self._send(
            sender,
            "post_da_root",
            (checkpoint_id, da_bytes),
            payload_bytes=len(da_bytes),
        )

    def finalize_checkpoint(self, sender: str, checkpoint_id: int) -> Receipt:
        return self._send(sender, "finalize_checkpoint", (checkpoint_id,))

    # -- the challenger's side ------------------------------------------------

    def challenge_leaf(
        self, sender: str, checkpoint_id: int, opening: MerkleProof
    ) -> Receipt:
        """Open one leaf of a posted checkpoint under the challenge bond."""
        return self._send(
            sender,
            "challenge_leaf",
            (
                checkpoint_id,
                opening.leaf_data,
                opening.leaf_index,
                opening.siblings,
                opening.directions,
            ),
            value=self.contract.challenge_bond_wei,
            payload_bytes=len(opening.leaf_data) + 32 * len(opening.siblings),
        )

    def challenge_counts(
        self, sender: str, checkpoint_id: int, leaves: Sequence[bytes]
    ) -> Receipt:
        """Dispute the accepted/rejected counts with the full leaf set."""
        return self._send(
            sender,
            "challenge_counts",
            (checkpoint_id, leaves),
            value=self.contract.challenge_bond_wei,
            payload_bytes=sum(len(leaf) for leaf in leaves),
        )

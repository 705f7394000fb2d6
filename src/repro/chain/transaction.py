"""Transactions, receipts and event logs for the simulated chain."""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from typing import Any

_TX_COUNTER = itertools.count()


@dataclass(frozen=True)
class Event:
    """A contract 'broadcast' (paper Fig. 2 emits these every transition)."""

    contract: str
    name: str
    payload: dict[str, Any] = field(default_factory=dict)
    block_number: int = -1

    def __str__(self) -> str:
        return f"[{self.contract[:10]}] {self.name} {self.payload}"


@dataclass
class Transaction:
    """A call into a contract (or a plain value transfer when method is None).

    ``signature``/``public_key`` authenticate the sender when the chain
    runs in ``require_signatures`` mode (Schnorr over BN254 G1; see
    :mod:`repro.crypto.schnorr`); ``nonce`` provides replay protection.
    """

    sender: str
    to: str | None
    method: str | None = None
    args: tuple = ()
    value: int = 0            # wei
    gas_limit: int = 10_000_000
    gas_price_gwei: float = 5.0
    nonce: int = 0
    signature: bytes | None = None
    public_key: bytes | None = None
    # EIP-1559-style fee fields, consumed by the mempool admission path.
    # When both are None the legacy ``gas_price_gwei`` doubles as fee cap
    # and tip cap (pre-1559 semantics): the sender pays up to gas_price,
    # base fee first, the remainder as tip.
    max_fee_gwei: float | None = None
    priority_fee_gwei: float | None = None
    tx_id: int = field(default_factory=lambda: next(_TX_COUNTER))

    @property
    def tx_hash(self) -> str:
        material = f"{self.tx_id}:{self.sender}:{self.to}:{self.method}".encode()
        return hashlib.sha256(material).hexdigest()

    def signing_payload(self) -> bytes:
        """The bytes a sender signs (args are bound via their repr)."""
        material = (
            f"{self.sender}|{self.to}|{self.method}|{self.value}|{self.nonce}"
            f"|{len(self.args)}"
        )
        return hashlib.sha256(material.encode()).digest()


@dataclass
class Receipt:
    """Execution result: status, gas, emitted events, return value."""

    tx_hash: str
    success: bool
    gas_used: int
    events: list[Event] = field(default_factory=list)
    return_value: Any = None
    error: str | None = None
    block_number: int = -1


class OutOfGasError(RuntimeError):
    pass


class RevertError(RuntimeError):
    """Contract-initiated revert (failed assert in the Fig. 2 state machine)."""

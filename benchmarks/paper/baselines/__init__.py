"""Baseline auditing schemes and the Table I comparison data."""

from .feature_matrix import (
    TABLE_I,
    AuditMode,
    FrameworkClass,
    FrameworkRow,
    StorageGuarantee,
    Support,
    render_table,
)
from .mac_baseline import MacAuditor, MacChallenge, MacProver
from .sia_style import (
    CachingCheater,
    SiaChallenge,
    SiaProof,
    SiaStyleAuditor,
    SiaStyleProver,
    expected_coverage,
)

__all__ = [
    "AuditMode",
    "CachingCheater",
    "FrameworkClass",
    "FrameworkRow",
    "MacAuditor",
    "MacChallenge",
    "MacProver",
    "SiaChallenge",
    "SiaProof",
    "SiaStyleAuditor",
    "SiaStyleProver",
    "StorageGuarantee",
    "Support",
    "TABLE_I",
    "expected_coverage",
    "render_table",
]

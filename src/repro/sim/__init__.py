"""System-wide models: economics (Figs. 4-6), throughput (Fig. 10), workloads."""

from .economics import (
    AnnualCostReport,
    DROPBOX_BUSINESS_USD_PER_YEAR,
    FeeSchedule,
    RANDOMNESS_COST_USD,
    audit_gas,
    figure6_series,
    one_time_storage_cost,
    public_key_bytes,
    usd_per_audit,
)
from .durability import DurabilityModel, compare_redundancy_levels
from .marketplace import MarketplaceResult, MarketplaceSimulation, extrapolate_annual_growth
from .throughput import (
    ChainCapacityModel,
    CheckpointedChainCapacityModel,
    CongestionPricingModel,
    ProviderLoadModel,
    ShardedChainCapacityModel,
    TX_ENVELOPE_BYTES,
)
from .workloads import (
    WorkloadFile,
    archive_file,
    enterprise_backup,
    photo_collection,
    total_bytes,
)

__all__ = [
    "AnnualCostReport",
    "ChainCapacityModel",
    "CheckpointedChainCapacityModel",
    "CongestionPricingModel",
    "DROPBOX_BUSINESS_USD_PER_YEAR",
    "DurabilityModel",
    "FeeSchedule",
    "MarketplaceResult",
    "MarketplaceSimulation",
    "ProviderLoadModel",
    "RANDOMNESS_COST_USD",
    "ShardedChainCapacityModel",
    "TX_ENVELOPE_BYTES",
    "WorkloadFile",
    "archive_file",
    "audit_gas",
    "compare_redundancy_levels",
    "enterprise_backup",
    "extrapolate_annual_growth",
    "figure6_series",
    "one_time_storage_cost",
    "photo_collection",
    "public_key_bytes",
    "total_bytes",
    "usd_per_audit",
]

"""Adversarial scenario harness: byzantine providers vs. the audit system.

The paper's security argument — cheating detection with probability
``1 - (1 - rho)^c``, unforgeability of the homomorphic authenticators,
freshness of beacon-derived challenges — is *exercised* here rather than
asserted.  The package provides

* a library of malicious-provider strategies implemented as drop-in
  :class:`~repro.core.prover.Prover` substitutes
  (:mod:`repro.adversary.strategies`),
* a :class:`ScenarioRunner` that wires any strategy mix into the parallel
  audit engine and epoch scheduler and reports measured detection rates
  against the closed-form prediction (:mod:`repro.adversary.scenario`),
* an on-chain dispute demonstration that drives a cheating provider
  through the audit contract, raises a dispute and slashes collateral and
  reputation stake (:func:`run_onchain_dispute`).

See ``docs/SCENARIOS.md`` for the strategy catalogue with expected
detection probabilities and the CLI commands reproducing each run.
"""

from .feegrief import FeeGriefer, FeeGriefReport, detect_fee_griefers
from .scenario import (
    DisputeDemoResult,
    ScenarioReport,
    ScenarioRunner,
    StrategyStats,
    measured_detection_rate,
    run_onchain_dispute,
)
from .strategies import (
    STRATEGY_KINDS,
    BitRotProver,
    ChurnProver,
    ReplayingProver,
    SelectiveStorageProver,
    StrategySpec,
    TagForgeryProver,
    expected_detection_rate,
    make_prover,
)

__all__ = [
    "STRATEGY_KINDS",
    "BitRotProver",
    "ChurnProver",
    "DisputeDemoResult",
    "FeeGriefReport",
    "FeeGriefer",
    "ReplayingProver",
    "ScenarioReport",
    "ScenarioRunner",
    "SelectiveStorageProver",
    "StrategySpec",
    "StrategyStats",
    "TagForgeryProver",
    "detect_fee_griefers",
    "expected_detection_rate",
    "make_prover",
    "measured_detection_rate",
    "run_onchain_dispute",
]

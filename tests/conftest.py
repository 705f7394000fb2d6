"""Shared fixtures.

Pairing operations cost tens of milliseconds in pure Python, so expensive
artefacts (keypairs, outsourcing packages, SNARK setups) are built once per
session with small-but-representative parameters.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

from repro.core import (
    DataOwner,
    OutsourcingPackage,
    ProtocolParams,
    StorageProvider,
    Verifier,
    generate_keypair,
)
from repro.crypto.bn254 import PROCESS_CACHE
from repro.sim.workloads import archive_file

# The Groth16 strawman, the MAC / Sia-style baselines, MiMC and the beacon
# survey live beside the Table I / Table II benches, outside the installed
# package; their tests (tests/snark, tests/baselines, TestMiMC,
# tests/randomness) import them as plain modules.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks" / "paper"))


def pytest_configure(config) -> None:
    config.addinivalue_line(
        "markers",
        "slow: long-running soak/endurance tests (deselect with -m 'not slow')",
    )


@pytest.fixture(autouse=True)
def cold_process_cache():
    """Every test starts over a cold process cache, so a hit/miss
    assertion never depends on which tests ran before it."""
    PROCESS_CACHE.clear()


@pytest.fixture()
def equation_checks(monkeypatch) -> list[int]:
    """File names of the lone checks that reached the pairing equation
    (``Verifier._check``) instead of taking a verdict from the block's
    grouped check, in call order."""
    names: list[int] = []
    check = Verifier._check

    def counting(self, *args):
        names.append(self.name)
        return check(self, *args)

    monkeypatch.setattr(Verifier, "_check", counting)
    return names


@pytest.fixture(scope="session")
def rng() -> random.Random:
    return random.Random(0xA0D17)


@pytest.fixture(scope="session")
def params() -> ProtocolParams:
    """Small protocol parameters: s=6 blocks/chunk, k=4 challenged."""
    return ProtocolParams(s=6, k=4)


@pytest.fixture(scope="session")
def keypair(params, rng):
    return generate_keypair(params.s, private_auditing=True, rng=rng)


@pytest.fixture(scope="session")
def file_bytes() -> bytes:
    return archive_file(1200, tag="test-archive").data


@pytest.fixture(scope="session")
def owner(params, rng) -> DataOwner:
    return DataOwner(params, rng=rng)


@pytest.fixture(scope="session")
def package(owner, file_bytes) -> OutsourcingPackage:
    return owner.prepare(file_bytes)


@pytest.fixture()
def provider(rng) -> StorageProvider:
    return StorageProvider(rng=rng)


@pytest.fixture(scope="session")
def accepted_provider(package, rng) -> StorageProvider:
    """A provider that has validated and stored the session package."""
    provider = StorageProvider(rng=rng)
    assert provider.accept(package)
    return provider

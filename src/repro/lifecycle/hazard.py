"""Provider-churn hazard model: who joins, leaves, crashes or rots, and when.

The long-horizon engine time-compresses years into epochs; this module
supplies the per-epoch random transitions from *annual* rates, so a run
configured with ``churn=0.2`` really does turn over ~20% of its fleet per
simulated year regardless of the chosen epoch cadence.

Two hazard shapes are supported (Audita/SHELBY-style lifecycle analyses
both observe that departure risk is rarely memoryless):

* ``exponential`` — constant per-epoch hazard (memoryless),
* ``weibull`` — age-dependent hazard ``h(t) ∝ t^(shape-1)`` normalized so
  the *average* annual departure probability still matches ``churn``;
  ``shape > 1`` makes old providers likelier to leave (wear-out),
  ``shape < 1`` makes fresh providers the risky ones (infant mortality).

Everything is driven by one seeded :class:`random.Random`, so a draw
sequence is a pure function of (seed, epoch order) — the property the
determinism and crash/resume tests rely on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

HAZARD_SHAPES = ("exponential", "weibull")


def per_epoch_probability(annual_probability: float, epochs_per_year: int) -> float:
    """The per-epoch hazard that compounds to ``annual_probability`` per year."""
    if not 0.0 <= annual_probability < 1.0:
        raise ValueError("annual probability must be in [0, 1)")
    if epochs_per_year < 1:
        raise ValueError("epochs_per_year must be >= 1")
    return 1.0 - (1.0 - annual_probability) ** (1.0 / epochs_per_year)


@dataclass(frozen=True)
class HazardConfig:
    """Annual rates + the epoch cadence that compresses them."""

    churn: float = 0.2              # annual fraction of providers departing
    crash_fraction: float = 0.5    # departures that crash (vs leave politely)
    flake_rate: float = 0.1        # annual P[a provider turns silently flaky]
    join_rate: float = 1.0         # expected provider joins per year
    epochs_per_year: int = 12
    hazard: str = "exponential"
    weibull_shape: float = 2.0

    def __post_init__(self) -> None:
        for label, rate in (("churn", self.churn), ("flake_rate", self.flake_rate)):
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"{label} must be an annual probability in [0, 1)")
        if self.hazard not in HAZARD_SHAPES:
            raise ValueError(f"hazard must be one of {HAZARD_SHAPES}")
        if not 0.0 <= self.crash_fraction <= 1.0:
            raise ValueError("crash_fraction must be a probability")
        if self.weibull_shape <= 0:
            raise ValueError("weibull_shape must be positive")

    @property
    def leave_probability_per_epoch(self) -> float:
        return per_epoch_probability(self.churn, self.epochs_per_year)

    @property
    def flake_probability_per_epoch(self) -> float:
        return per_epoch_probability(self.flake_rate, self.epochs_per_year)

    @property
    def join_probability_per_epoch(self) -> float:
        """Bernoulli approximation of ``join_rate`` arrivals per year."""
        return min(1.0, self.join_rate / self.epochs_per_year)

    def departure_probability(self, age_epochs: int) -> float:
        """Per-epoch departure hazard for a provider of the given age."""
        base = self.leave_probability_per_epoch
        if self.hazard == "exponential":
            return base
        # Weibull-like discrete hazard: scale with age^(shape-1), normalized
        # by the mean age weight over one year so the annual rate is kept.
        year = self.epochs_per_year
        weights = [(t + 1) ** (self.weibull_shape - 1.0) for t in range(year)]
        mean_weight = sum(weights) / len(weights)
        weight = (age_epochs + 1) ** (self.weibull_shape - 1.0) / mean_weight
        return min(0.95, base * weight)


@dataclass(frozen=True)
class ChurnDraw:
    """One epoch's sampled transitions (all provider names)."""

    joins: int
    leaves: tuple[str, ...]     # graceful departures
    crashes: tuple[str, ...]    # abrupt departures (data gone)
    flakes: tuple[str, ...]     # providers turning silently unreliable


@dataclass
class ChurnModel:
    """Seeded sampler of per-epoch churn over a named provider population."""

    config: HazardConfig
    rng: random.Random = field(default_factory=lambda: random.Random(0))

    def draw(
        self,
        providers: list[tuple[str, int]],
        flaky: set[str] | None = None,
        max_departures: int | None = None,
    ) -> ChurnDraw:
        """Sample one epoch of churn.

        ``providers`` is an ordered list of (name, age_epochs); order must
        be deterministic (the engine passes a sorted view).  Departures are
        capped at ``max_departures`` (the caller's erasure tolerance) with
        the *later* draws dropped, so a run with churn within tolerance
        never loses more shards than repair can regenerate.
        """
        flaky = flaky or set()
        departures: list[tuple[str, bool]] = []  # (name, crashed)
        flakes: list[str] = []
        for name, age in providers:
            if self.rng.random() < self.config.departure_probability(age):
                crashed = self.rng.random() < self.config.crash_fraction
                departures.append((name, crashed))
                continue
            if name not in flaky and (
                self.rng.random() < self.config.flake_probability_per_epoch
            ):
                flakes.append(name)
        if max_departures is not None and len(departures) > max_departures:
            departures = departures[:max_departures]
        joins = 1 if self.rng.random() < self.config.join_probability_per_epoch else 0
        return ChurnDraw(
            joins=joins,
            leaves=tuple(name for name, crashed in departures if not crashed),
            crashes=tuple(name for name, crashed in departures if crashed),
            flakes=tuple(flakes),
        )

    def withholds(self, names: list[int], probability: float) -> tuple[int, ...]:
        """Per-shard Bernoulli draws for a flaky provider's silent failures."""
        return tuple(
            name for name in names if self.rng.random() < probability
        )

"""Unit tests for the lifecycle event trail and the churn hazard model."""

from __future__ import annotations

import random

import pytest

from repro.lifecycle import (
    EVENT_KINDS,
    ChurnModel,
    EventTrail,
    HazardConfig,
    LifecycleEvent,
    per_epoch_probability,
)


class TestEvents:
    def test_round_trip_line_encoding(self):
        event = LifecycleEvent.make(
            7, "repaired", "archive-01", shard=3, source="node-001",
            target="node-005", ratio=0.25,
        )
        line = event.to_line()
        assert LifecycleEvent.from_line(line) == event

    def test_detail_values_are_sanitized(self):
        event = LifecycleEvent.make(1, "deferred", "a|b,c=d", why="x\ny")
        parsed = LifecycleEvent.from_line(event.to_line())
        assert parsed.subject == "a_b_c_d"
        assert parsed.get("why") == "x_y"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            LifecycleEvent.make(0, "exploded", "x")

    def test_trail_digest_is_order_sensitive(self):
        a, b = EventTrail(), EventTrail()
        a.emit(1, "joined", "n0")
        a.emit(1, "crashed", "n1")
        b.emit(1, "crashed", "n1")
        b.emit(1, "joined", "n0")
        assert a.digest() != b.digest()

    def test_trail_round_trips_through_lines(self):
        trail = EventTrail()
        trail.emit(1, "joined", "n0", stake_eth=1.0)
        trail.emit(2, "settled", "epoch-2", gas=12345, root="ab" * 8)
        replayed = EventTrail.from_lines(trail.to_lines())
        assert replayed.digest() == trail.digest()
        assert len(replayed) == 2

    def test_trail_filters(self):
        trail = EventTrail()
        trail.emit(1, "joined", "n0")
        trail.emit(2, "evicted", "n1")
        trail.emit(2, "joined", "n2")
        assert [e.subject for e in trail.of_kind("joined")] == ["n0", "n2"]
        assert len(trail.for_epoch(2)) == 2

    def test_float_details_render_exactly(self):
        event = LifecycleEvent.make(0, "flaky", "n0", rho=0.1 + 0.2)
        assert event.get("rho") == repr(0.1 + 0.2)

    @pytest.mark.parametrize("kind", EVENT_KINDS)
    def test_every_kind_encodes(self, kind):
        event = LifecycleEvent.make(3, kind, "subject", note="x")
        assert LifecycleEvent.from_line(event.to_line()).kind == kind


class TestHazard:
    def test_per_epoch_probability_compounds_to_annual(self):
        annual = 0.2
        p = per_epoch_probability(annual, 12)
        assert (1 - p) ** 12 == pytest.approx(1 - annual)

    def test_per_epoch_probability_validates(self):
        with pytest.raises(ValueError):
            per_epoch_probability(1.5, 12)
        with pytest.raises(ValueError):
            per_epoch_probability(0.2, 0)

    def test_exponential_hazard_is_age_independent(self):
        config = HazardConfig(churn=0.3, epochs_per_year=6)
        assert config.departure_probability(0) == config.departure_probability(40)

    def test_weibull_hazard_grows_with_age(self):
        config = HazardConfig(
            churn=0.3, epochs_per_year=6, hazard="weibull", weibull_shape=2.0
        )
        young = config.departure_probability(0)
        old = config.departure_probability(24)
        assert old > young

    def test_weibull_mean_matches_exponential_over_first_year(self):
        exp = HazardConfig(churn=0.3, epochs_per_year=6)
        wei = HazardConfig(
            churn=0.3, epochs_per_year=6, hazard="weibull", weibull_shape=2.0
        )
        mean = sum(wei.departure_probability(t) for t in range(6)) / 6
        assert mean == pytest.approx(exp.leave_probability_per_epoch, rel=1e-9)

    def test_unknown_hazard_rejected(self):
        with pytest.raises(ValueError):
            HazardConfig(hazard="lognormal")

    def test_rates_outside_a_probability_rejected_at_construction(self):
        with pytest.raises(ValueError, match="churn"):
            HazardConfig(churn=1.0)
        with pytest.raises(ValueError, match="flake_rate"):
            HazardConfig(flake_rate=-0.1)

    def test_draws_are_seed_deterministic(self):
        providers = [(f"n{i}", i) for i in range(20)]
        draws_a = ChurnModel(
            HazardConfig(churn=0.5, epochs_per_year=2), random.Random(5)
        )
        draws_b = ChurnModel(
            HazardConfig(churn=0.5, epochs_per_year=2), random.Random(5)
        )
        for _ in range(10):
            assert draws_a.draw(providers) == draws_b.draw(providers)

    def test_departures_capped_at_tolerance(self):
        model = ChurnModel(
            HazardConfig(churn=0.99, epochs_per_year=1), random.Random(1)
        )
        providers = [(f"n{i}", 1) for i in range(30)]
        draw = model.draw(providers, max_departures=2)
        assert len(draw.leaves) + len(draw.crashes) <= 2

    def test_flaky_providers_not_redrawn(self):
        model = ChurnModel(
            HazardConfig(churn=0.0, flake_rate=0.999, epochs_per_year=1),
            random.Random(3),
        )
        providers = [("n0", 1), ("n1", 1)]
        draw = model.draw(providers, flaky={"n0", "n1"})
        assert draw.flakes == ()

    def test_withholds_draw_subset(self):
        model = ChurnModel(HazardConfig(), random.Random(9))
        names = list(range(100))
        held = model.withholds(names, 0.5)
        assert set(held) <= set(names)
        assert 20 < len(held) < 80  # seeded, so this is a fixed outcome

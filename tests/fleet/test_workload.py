"""Tests for repro.fleet.workload — the seeded session-arrival process."""

import pytest

from repro.fleet.workload import (
    SECONDS_PER_DAY,
    SECONDS_PER_HOUR,
    FlashCrowd,
    SessionArrival,
    WorkloadConfig,
    WorkloadGenerator,
)


class TestConfigValidation:
    def test_defaults_valid(self):
        config = WorkloadConfig()
        assert config.horizon_s == SECONDS_PER_DAY

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"days": 0.0},
            {"days": -1.0},
            {"sessions_per_hour": 0.0},
            {"diurnal_amplitude": -0.1},
            {"diurnal_amplitude": 1.0},
            {"peak_hour": 24.0},
            {"peak_hour": -1.0},
        ],
    )
    def test_rejects_bad_shapes(self, kwargs):
        with pytest.raises(ValueError):
            WorkloadConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"start_day": -0.5, "duration_hours": 1.0, "multiplier": 2.0},
            {"start_day": 0.0, "duration_hours": 0.0, "multiplier": 2.0},
            {"start_day": 0.0, "duration_hours": 1.0, "multiplier": 0.5},
        ],
    )
    def test_rejects_bad_flash_crowds(self, kwargs):
        with pytest.raises(ValueError):
            FlashCrowd(**kwargs)

    @pytest.mark.parametrize("field", ["days", "sessions_per_hour"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_a_horizon_or_intensity_that_never_ends(self, field, value):
        # NaN passes ``value <= 0``; arrivals() would then loop forever
        # (``t >= nan`` is never true, ``exponential(1/inf)`` never advances).
        with pytest.raises(ValueError, match=field):
            WorkloadConfig(**{field: value})

    @pytest.mark.parametrize(
        "field", ["start_day", "duration_hours", "multiplier"]
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_flash_crowds(self, field, value):
        kwargs = {"start_day": 0.0, "duration_hours": 1.0, "multiplier": 2.0}
        with pytest.raises(ValueError, match=field):
            FlashCrowd(**{**kwargs, field: value})


class TestIntensity:
    def test_peaks_at_peak_hour(self):
        config = WorkloadConfig(peak_hour=20.0, diurnal_amplitude=0.6)
        peak = config.rate_per_hour(20.0 * SECONDS_PER_HOUR)
        trough = config.rate_per_hour(8.0 * SECONDS_PER_HOUR)
        assert peak == pytest.approx(config.sessions_per_hour * 1.6)
        assert trough == pytest.approx(config.sessions_per_hour * 0.4)

    def test_flash_crowd_multiplies_inside_window_only(self):
        crowd = FlashCrowd(start_day=0.5, duration_hours=6.0, multiplier=3.0)
        config = WorkloadConfig(
            diurnal_amplitude=0.0, flash_crowds=(crowd,)
        )
        inside = config.rate_per_hour(crowd.start_s + 1.0)
        outside = config.rate_per_hour(crowd.start_s - 1.0)
        assert inside == pytest.approx(3.0 * outside)

    def test_peak_rate_bounds_intensity(self):
        config = WorkloadConfig(
            diurnal_amplitude=0.5,
            flash_crowds=(
                FlashCrowd(start_day=0.2, duration_hours=3.0, multiplier=2.0),
            ),
        )
        bound = config.peak_rate_per_hour()
        for hour in range(0, 24):
            assert config.rate_per_hour(hour * SECONDS_PER_HOUR) <= bound

    def test_peak_rate_exact_for_disjoint_crowds(self):
        """Regression: disjoint crowds must not multiply together — the
        envelope is the max *simultaneously active* product, so thinning
        acceptance does not degrade with every extra (non-overlapping)
        event on the calendar."""
        config = WorkloadConfig(
            diurnal_amplitude=0.5,
            flash_crowds=(
                FlashCrowd(start_day=0.1, duration_hours=2.0, multiplier=3.0),
                FlashCrowd(start_day=0.5, duration_hours=2.0, multiplier=4.0),
            ),
        )
        base_peak = config.sessions_per_hour * 1.5
        assert config.peak_rate_per_hour() == pytest.approx(4.0 * base_peak)

    def test_peak_rate_exact_for_overlapping_crowds(self):
        """Two overlapping crowds compound only where both are active; a
        third disjoint one never joins the product."""
        config = WorkloadConfig(
            diurnal_amplitude=0.0,
            flash_crowds=(
                FlashCrowd(start_day=0.1, duration_hours=6.0, multiplier=2.0),
                FlashCrowd(start_day=0.2, duration_hours=6.0, multiplier=3.0),
                FlashCrowd(start_day=0.9, duration_hours=1.0, multiplier=5.0),
            ),
        )
        assert config.peak_rate_per_hour() == pytest.approx(
            6.0 * config.sessions_per_hour
        )
        # Still a true envelope over a fine sweep of the horizon.
        bound = config.peak_rate_per_hour()
        for i in range(0, 24 * 60, 7):
            assert config.rate_per_hour(i * 60.0) <= bound + 1e-9

    def test_peak_rate_without_crowds_unchanged(self):
        config = WorkloadConfig(diurnal_amplitude=0.25, sessions_per_hour=80.0)
        assert config.peak_rate_per_hour() == pytest.approx(80.0 * 1.25)

    def test_single_crowd_arrivals_unchanged_by_exact_envelope(self):
        """With one crowd the exact envelope equals the old product bound,
        so existing single-crowd arrival sequences are untouched."""
        crowd = FlashCrowd(start_day=0.25, duration_hours=6.0, multiplier=5.0)
        config = WorkloadConfig(
            days=1.0, sessions_per_hour=60.0, diurnal_amplitude=0.0,
            flash_crowds=(crowd,), seed=2,
        )
        assert config.peak_rate_per_hour() == pytest.approx(60.0 * 5.0)

    def test_expected_sessions_matches_mean_rate(self):
        # With zero amplitude the intensity is flat: expectation is exact.
        config = WorkloadConfig(
            days=2.0, sessions_per_hour=30.0, diurnal_amplitude=0.0
        )
        assert config.expected_sessions() == pytest.approx(
            2.0 * 24.0 * 30.0, rel=1e-9
        )


class TestGenerator:
    def test_deterministic(self):
        config = WorkloadConfig(days=0.1, sessions_per_hour=100.0, seed=3)
        a = list(WorkloadGenerator(config).arrivals())
        b = list(WorkloadGenerator(config).arrivals())
        assert a == b
        assert a, "expected some arrivals"

    def test_ids_consecutive_and_times_sorted_in_horizon(self):
        config = WorkloadConfig(days=0.1, sessions_per_hour=100.0, seed=3)
        arrivals = list(WorkloadGenerator(config))
        assert [a.session_id for a in arrivals] == list(range(len(arrivals)))
        times = [a.time_s for a in arrivals]
        assert times == sorted(times)
        assert all(0.0 <= t < config.horizon_s for t in times)

    def test_restart_skips_committed_prefix(self):
        """Resume correctness: regenerating from id k replays the exact
        suffix of the full sequence."""
        config = WorkloadConfig(days=0.1, sessions_per_hour=100.0, seed=3)
        full = list(WorkloadGenerator(config).arrivals())
        for k in (0, 1, len(full) // 2, len(full)):
            tail = list(WorkloadGenerator(config).arrivals(start_session_id=k))
            assert tail == full[k:]

    def test_different_seeds_differ(self):
        base = dict(days=0.1, sessions_per_hour=100.0)
        a = list(WorkloadGenerator(WorkloadConfig(seed=0, **base)))
        b = list(WorkloadGenerator(WorkloadConfig(seed=1, **base)))
        assert a != b

    def test_diurnal_shape_visible_in_counts(self):
        """Over several days, peak-side hours see more arrivals than
        trough-side hours (law of large numbers on the thinning)."""
        config = WorkloadConfig(
            days=8.0, sessions_per_hour=40.0,
            diurnal_amplitude=0.8, peak_hour=20.0, seed=1,
        )
        by_hour = [0] * 24
        for arrival in WorkloadGenerator(config):
            by_hour[int(arrival.hour_of_day) % 24] += 1
        peak_window = sum(by_hour[18:23])
        trough_window = sum(by_hour[4:9])
        assert peak_window > 2 * trough_window

    def test_flash_crowd_inflates_window(self):
        crowd = FlashCrowd(start_day=0.25, duration_hours=6.0, multiplier=5.0)
        base = dict(
            days=1.0, sessions_per_hour=60.0, diurnal_amplitude=0.0, seed=2
        )
        quiet = list(WorkloadGenerator(WorkloadConfig(**base)))
        crowded = list(
            WorkloadGenerator(WorkloadConfig(flash_crowds=(crowd,), **base))
        )

        def in_window(arrivals):
            return sum(
                1 for a in arrivals if crowd.start_s <= a.time_s < crowd.end_s
            )

        assert in_window(crowded) > 2 * in_window(quiet)

    def test_take_and_count(self):
        config = WorkloadConfig(days=0.05, sessions_per_hour=100.0, seed=4)
        generator = WorkloadGenerator(config)
        n = generator.count()
        assert n > 0
        head = generator.take(3)
        assert len(head) == min(3, n)
        assert head == list(generator.arrivals())[:3]

    def test_negative_start_rejected(self):
        generator = WorkloadGenerator(WorkloadConfig(days=0.01))
        with pytest.raises(ValueError):
            next(generator.arrivals(start_session_id=-1))


class TestSessionArrival:
    def test_day_and_hour(self):
        arrival = SessionArrival(
            session_id=7, time_s=1.5 * SECONDS_PER_DAY + 3 * SECONDS_PER_HOUR
        )
        assert arrival.day == 1
        assert arrival.hour_of_day == pytest.approx(15.0)

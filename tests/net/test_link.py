"""Tests for repro.net.link — capacity processes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.link import (
    MIN_CAPACITY,
    ConstantLink,
    HeavyTailLink,
    MarkovLink,
    TraceLink,
)


class TestConstantLink:
    def test_constant(self):
        link = ConstantLink(5e6)
        assert link.capacity_at(0.0) == 5e6
        assert link.capacity_at(1000.0) == 5e6

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            ConstantLink(5e6).capacity_at(-1.0)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            ConstantLink(0.0)

    @pytest.mark.parametrize("rate", [-1e6, math.nan, math.inf])
    def test_invalid_rate_rejected_by_name(self, rate):
        with pytest.raises(ValueError, match="rate_bps"):
            ConstantLink(rate)


class TestTraceLink:
    def test_piecewise_lookup(self):
        link = TraceLink([1e6, 2e6, 3e6], epoch=1.0, loop=False)
        assert link.capacity_at(0.5) == 1e6
        assert link.capacity_at(1.5) == 2e6
        assert link.capacity_at(2.9) == 3e6

    def test_looping(self):
        link = TraceLink([1e6, 2e6], epoch=1.0, loop=True)
        assert link.capacity_at(2.5) == 1e6
        assert link.capacity_at(3.5) == 2e6

    def test_no_loop_holds_last(self):
        link = TraceLink([1e6, 2e6], epoch=1.0, loop=False)
        assert link.capacity_at(100.0) == 2e6

    def test_capacity_floor_applied(self):
        link = TraceLink([10.0])
        assert link.capacity_at(0.0) == MIN_CAPACITY

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            TraceLink([])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_rejected_by_index(self, bad):
        with pytest.raises(ValueError, match=r"rates_bps\[2\]"):
            TraceLink([1e6, 2e6, bad, 3e6])

    def test_finite_entries_keep_the_floor(self):
        link = TraceLink([-5e5, 0.0, 2e6], epoch=1.0, loop=False)
        assert link.rates_bps == [MIN_CAPACITY, MIN_CAPACITY, 2e6]

    @pytest.mark.parametrize("epoch", [0.0, -1.0, math.nan, math.inf])
    def test_invalid_epoch_rejected_by_name(self, epoch):
        with pytest.raises(ValueError, match="epoch"):
            TraceLink([1e6], epoch=epoch)

    def test_duration(self):
        assert TraceLink([1e6] * 5, epoch=2.0).duration == 10.0

    @pytest.mark.parametrize("loop", [True, False])
    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "method", ["capacity_at", "next_change_after", "epoch_at"]
    )
    def test_a_time_that_is_not_finite_is_named(self, loop, t, method):
        link = TraceLink([1e6, 2e6], loop=loop)
        with pytest.raises(
            ValueError, match=r"^TraceLink: time must be finite, got"
        ):
            getattr(link, method)(t)

    @pytest.mark.parametrize("loop", [True, False])
    def test_a_negative_time_is_still_rejected(self, loop):
        link = TraceLink([1e6, 2e6], loop=loop)
        for method in (link.capacity_at, link.next_change_after):
            with pytest.raises(ValueError, match="^time must be non-negative"):
                method(-1.0)

    @pytest.mark.parametrize("epoch", [1.0, 0.3])
    def test_the_next_change_is_strictly_later_or_refused(self, epoch):
        # A looping trace changes after any finite time, but once float
        # spacing outgrows the epoch (index + 1) * epoch rounds back onto
        # t: the cell cursor's re-query loop (``while offset + boundary
        # <= now``) would never advance, so the link refuses the time.
        link = TraceLink([1e6, 2e6], epoch=epoch, loop=True)
        near = 2.0**40 * epoch
        assert link.next_change_after(near) > near
        for t in (2.0**60 * epoch, 1e300):
            with pytest.raises(
                ValueError, match=r"^TraceLink: time .* no epoch boundary"
            ):
                link.next_change_after(t)
            assert link.capacity_at(t) in (1e6, 2e6)

    def test_a_finished_trace_holds_past_any_finite_time(self):
        link = TraceLink([1e6, 2e6], loop=False)
        assert link.epoch_at(1e300) == (2e6, math.inf)


class TestMarkovLink:
    def test_visits_multiple_states(self):
        # CS2P-style discrete states (Fig. 2a).
        link = MarkovLink([1e6, 5e6, 20e6], switch_probability=0.2, seed=0)
        samples = link.sample_epochs(500, epoch=1.0)
        logs = np.log(samples)
        # Samples cluster tightly around state levels.
        for state in (1e6, 5e6, 20e6):
            near = np.abs(logs - np.log(state)) < 0.2
            assert near.sum() > 10

    def test_dwell_times_are_long(self):
        link = MarkovLink([1e6, 10e6], switch_probability=0.02, seed=1)
        samples = np.array(link.sample_epochs(1000))
        # With 2% switching, consecutive samples are usually in one state.
        same_state = np.abs(np.diff(np.log(samples))) < 0.5
        assert same_state.mean() > 0.9

    def test_random_access_consistent_with_sequential(self):
        link = MarkovLink([1e6, 10e6], seed=2)
        late = link.capacity_at(50.0)
        early = link.capacity_at(10.0)
        assert link.capacity_at(50.0) == late
        assert link.capacity_at(10.0) == early

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            MarkovLink([])
        with pytest.raises(ValueError):
            MarkovLink([1e6], switch_probability=2.0)

    @pytest.mark.parametrize(
        "states, field",
        [
            ([math.nan, 1e6], r"states_bps\[0\]"),
            ([1e6, math.inf], r"states_bps\[1\]"),
            # Used to be floored to 1 kbit/s: 1 MB in 8911 s.
            ([-1e6], r"states_bps\[0\]"),
            ([1e6, 0.0], r"states_bps\[1\]"),
        ],
    )
    def test_bad_state_rejected_by_index(self, states, field):
        with pytest.raises(ValueError, match=field):
            MarkovLink(states)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("jitter_sigma", math.nan),
            ("jitter_sigma", math.inf),
            ("jitter_sigma", -0.1),
            ("epoch", math.nan),
            ("epoch", math.inf),
            ("epoch", 0.0),
        ],
    )
    def test_bad_parameter_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            MarkovLink([1e6, 4e6], **{field: value})


class TestHeavyTailLink:
    def test_positive_capacity_always(self):
        link = HeavyTailLink(base_bps=5e6, seed=0)
        samples = link.sample_epochs(2000)
        assert all(s >= MIN_CAPACITY for s in samples)

    def test_mean_near_base(self):
        link = HeavyTailLink(base_bps=8e6, fade_rate=0.0, seed=1)
        samples = np.array(link.sample_epochs(5000))
        geo_mean = np.exp(np.mean(np.log(samples)))
        assert geo_mean == pytest.approx(8e6, rel=0.15)

    def test_fades_occur(self):
        link = HeavyTailLink(base_bps=10e6, fade_rate=0.05, seed=2)
        samples = np.array(link.sample_epochs(3000))
        assert samples.min() < 1e6  # deep fades present

    def test_no_fades_when_disabled(self):
        link = HeavyTailLink(base_bps=10e6, fade_rate=0.0, sigma=0.1, seed=3)
        samples = np.array(link.sample_epochs(3000))
        assert samples.min() > 2e6

    def test_fade_onset_is_gradual(self):
        # The epoch before the deep phase should sit between nominal and
        # deep capacity (congestion has precursors).
        link = HeavyTailLink(
            base_bps=10e6, fade_rate=0.01, sigma=0.01, seed=4,
            fade_onset_epochs=3,
        )
        # Sample at the link's own epoch so consecutive values are visible.
        samples = np.array(link.sample_epochs(5000, epoch=1.0))
        deep = samples < 2e6
        assert deep.any()
        first_deep = int(np.argmax(deep))
        assert first_deep >= 1
        # Preceding epoch is already depressed but not fully (the onset ramp).
        assert 2e6 < samples[first_deep - 1] < 9e6

    def test_continuous_not_multimodal(self):
        # Unlike CS2P's states, Puffer-style throughput evolves
        # continuously (Fig. 2b).
        from repro.traces.stats import summarize_trace

        link = HeavyTailLink(base_bps=5e6, fade_rate=0.0, seed=5)
        stats = summarize_trace(link.sample_epochs(1000))
        assert stats.modality_score <= 2

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            HeavyTailLink(base_bps=0.0)
        with pytest.raises(ValueError):
            HeavyTailLink(base_bps=1e6, reversion=0.0)
        with pytest.raises(ValueError):
            HeavyTailLink(base_bps=1e6, fade_rate=1.5)
        with pytest.raises(ValueError):
            HeavyTailLink(base_bps=1e6, fade_duration_epochs=0.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "field",
        [
            "base_bps",
            "sigma",
            "fade_depth_log",
            "fade_duration_epochs",
            "fade_floor_median_bps",
            "fade_floor_sigma",
            "fade_onset_epochs",
            # NaN used to die at the first lookup: "cannot convert float
            # NaN to integer".
            "epoch",
        ],
    )
    def test_non_finite_parameter_rejected_by_name(self, field, value):
        kwargs = {"base_bps": 1e6, field: value}
        with pytest.raises(ValueError, match=field):
            HeavyTailLink(**kwargs)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("base_bps", -1e6),
            ("sigma", -0.1),
            ("fade_depth_log", -1.0),
            ("fade_floor_median_bps", 0.0),
            ("fade_floor_sigma", -0.5),
            ("epoch", 0.0),
            # Both used to run: -3 as fades with no onset ramp, 2.7 as 2.
            ("fade_onset_epochs", -3),
            ("fade_onset_epochs", 2.7),
        ],
    )
    def test_out_of_range_parameter_rejected_by_name(self, field, value):
        kwargs = {"base_bps": 1e6, field: value}
        with pytest.raises(ValueError, match=field):
            HeavyTailLink(**kwargs)

    @pytest.mark.parametrize("onset", [0, 3, 3.0, np.int64(5)])
    def test_whole_onset_counts_accepted(self, onset):
        link = HeavyTailLink(base_bps=1e6, fade_onset_epochs=onset)
        assert link.fade_onset_epochs == int(onset)
        assert type(link.fade_onset_epochs) is int

    @given(st.integers(0, 1000), st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_deterministic_given_seed(self, seed, query_epoch):
        a = HeavyTailLink(base_bps=5e6, seed=seed).capacity_at(float(query_epoch))
        b = HeavyTailLink(base_bps=5e6, seed=seed).capacity_at(float(query_epoch))
        assert a == b

"""Unit tests for repro.fleet.sinks — exact accumulators and the
streaming per-scheme sink against the list-based reference path."""

import json
import math

import numpy as np
import pytest

from repro.abr.base import ChunkRecord
from repro.analysis.stats import normal_z, weighted_mean, weighted_mean_ci
from repro.analysis.summary import summarize_scheme
from repro.experiment.consort import ConsortArm
from repro.fleet.sinks import (
    DURATION_SPEC,
    ExactSum,
    FleetHistogram,
    FleetSink,
    StreamingMoments,
    StreamingSchemeSink,
    WeightedMoments,
)
from repro.net.tcp import TcpInfo
from repro.streaming.session import StreamResult


def make_stream(
    stream_id=0, ssim=16.0, play=100.0, stall=0.0, delivery=1e7, n_chunks=10
):
    info = TcpInfo(cwnd=20, in_flight=5, min_rtt=0.04, rtt=0.05,
                   delivery_rate=delivery)
    records = [
        ChunkRecord(
            chunk_index=i, rung=5, size_bytes=5e5, ssim_db=ssim,
            transmission_time=1.0, info_at_send=info, send_time=i * 2.0,
        )
        for i in range(n_chunks)
    ]
    return StreamResult(
        stream_id, "x", records=records, play_time=play, stall_time=stall,
        startup_delay=0.5, total_time=play + stall,
    )


class TestExactSum:
    def test_empty_is_zero(self):
        assert ExactSum().value() == 0.0
        assert ExactSum().is_zero()

    def test_single_value_exact(self):
        s = ExactSum()
        s.add(0.1)
        assert s.value() == 0.1

    def test_classic_non_associative_case_is_exact(self):
        # 0.1 + 0.2 != 0.3 in floats; the exact sum rounds to the nearest
        # double of the true rational 3/10.
        s = ExactSum()
        for v in (0.1, 0.2):
            s.add(v)
        from fractions import Fraction

        assert s.fraction() == Fraction(0.1) + Fraction(0.2)

    def test_rejects_non_finite(self):
        s = ExactSum()
        with pytest.raises(ValueError):
            s.add(float("nan"))
        with pytest.raises(ValueError):
            s.add(float("inf"))

    def test_serialization_round_trip_negative(self):
        s = ExactSum()
        s.add(-1.25e-300)
        s.add(3.5e300)
        restored = ExactSum.from_dict(s.to_dict())
        assert restored == s
        # And through actual JSON.
        assert ExactSum.from_dict(json.loads(json.dumps(s.to_dict()))) == s


class TestStreamingMoments:
    def test_matches_numpy(self):
        values = [0.1, 0.7, 2.5, -3.25, 1e-3, 11.0]
        m = StreamingMoments()
        for v in values:
            m.observe(v)
        assert m.mean() == pytest.approx(np.mean(values), rel=1e-12)
        se = np.std(values, ddof=1) / math.sqrt(len(values))
        assert m.standard_error() == pytest.approx(se, rel=1e-12)

    def test_ci_degenerate_cases(self):
        m = StreamingMoments()
        assert m.mean_ci() is None
        m.observe(4.0)
        ci = m.mean_ci()
        assert ci is not None and ci.low == ci.high == ci.point == 4.0

    def test_ci_uses_the_level_it_is_labelled_with(self):
        from scipy.stats import norm

        m = StreamingMoments()
        for v in (0.1, 0.7, 2.5, -3.25, 1e-3, 11.0):
            m.observe(v)
        ci = m.mean_ci(confidence=0.99)
        assert ci.confidence == 0.99
        half = float(norm.ppf(0.995)) * m.standard_error()
        assert (ci.low, ci.high) == (ci.point - half, ci.point + half)
        assert ci.width > m.mean_ci().width


class TestWeightedMoments:
    @pytest.mark.parametrize("confidence", [0.95, 0.99])
    def test_matches_weighted_mean_ci(self, confidence):
        values = np.array([10.0, 20.0, 13.5, 17.25])
        weights = np.array([100.0, 300.0, 55.0, 10.0])
        m = WeightedMoments()
        for v, w in zip(values, weights):
            m.observe(v, w)
        reference = weighted_mean_ci(values, weights, confidence)
        assert m.mean() == pytest.approx(reference.point, rel=1e-12)
        ci = m.mean_ci(confidence)
        assert ci.confidence == reference.confidence == confidence
        assert ci.low == pytest.approx(reference.low, rel=1e-9)
        assert ci.high == pytest.approx(reference.high, rel=1e-9)

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            WeightedMoments().observe(1.0, -1.0)

    def test_zero_weight_mean_is_nan(self):
        m = WeightedMoments()
        m.observe(5.0, 0.0)
        assert math.isnan(m.mean())


class TestFleetHistogram:
    def test_counts_and_overflow(self):
        hist = FleetHistogram(DURATION_SPEC)
        hist.observe(0.5)      # below lo=1.0
        hist.observe(10.0)
        hist.observe(2e5)      # above hi=1e5
        assert hist.underflow == 1
        assert hist.overflow == 1
        assert hist.count == 3
        assert hist.mean() == pytest.approx((0.5 + 10.0 + 2e5) / 3)

    def test_quantile_monotone(self):
        hist = FleetHistogram(DURATION_SPEC)
        for v in (2.0, 5.0, 50.0, 500.0, 5000.0):
            hist.observe(v)
        qs = [hist.quantile(q) for q in (0.1, 0.5, 0.9)]
        assert qs == sorted(qs)
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_merge_requires_same_spec(self):
        from repro.fleet.sinks import SSIM_SPEC

        with pytest.raises(ValueError):
            FleetHistogram(DURATION_SPEC).merge(FleetHistogram(SSIM_SPEC))


class TestStreamingSchemeSink:
    def test_point_estimates_match_list_path(self):
        streams = [
            make_stream(0, ssim=10.0, play=100.0, stall=2.0),
            make_stream(1, ssim=20.0, play=300.0, stall=0.0),
            make_stream(2, ssim=14.0, play=50.0, stall=1.0),
        ]
        durations = [120.0, 400.0, 75.0]
        sink = StreamingSchemeSink("x")
        for s in streams:
            sink.observe_stream(s)
        for d in durations:
            sink.observe_session_duration(d)
        reference = summarize_scheme(
            "x", streams, session_durations=durations, n_resamples=200
        )
        row = sink.summary()
        assert row.n_streams == reference.n_streams
        assert row.stream_years == pytest.approx(
            reference.stream_years, rel=1e-12
        )
        assert row.stall_ratio.point == pytest.approx(
            reference.stall_ratio.point, rel=1e-12
        )
        assert row.mean_ssim_db.point == pytest.approx(
            reference.mean_ssim_db.point, rel=1e-12
        )
        assert row.ssim_variation_db == pytest.approx(
            reference.ssim_variation_db, rel=1e-12, abs=1e-12
        )
        assert row.mean_bitrate_bps == pytest.approx(
            reference.mean_bitrate_bps, rel=1e-12
        )
        assert row.mean_session_duration_s.point == pytest.approx(
            reference.mean_session_duration_s.point, rel=1e-12
        )
        assert row.startup_delay_s == pytest.approx(
            reference.startup_delay_s, rel=1e-12
        )
        assert row.first_chunk_ssim_db == pytest.approx(
            reference.first_chunk_ssim_db, rel=1e-12
        )
        assert row.fraction_streams_with_stall == pytest.approx(
            reference.fraction_streams_with_stall
        )

    @pytest.mark.parametrize("confidence", [0.95, 0.99])
    def test_ssim_ci_matches_weighted_se_formula(self, confidence):
        streams = [
            make_stream(0, ssim=10.0, play=100.0),
            make_stream(1, ssim=20.0, play=300.0),
            make_stream(2, ssim=14.0, play=50.0),
        ]
        sink = StreamingSchemeSink("x")
        for s in streams:
            sink.observe_stream(s)
        values = np.array([s.mean_ssim_db for s in streams])
        weights = np.array([s.watch_time for s in streams])
        reference = weighted_mean_ci(values, weights, confidence)
        ci = sink.ssim.mean_ci(confidence)
        if confidence == 0.95:  # the level the summary row reports
            assert sink.summary().mean_ssim_db == ci
        assert ci.point == pytest.approx(reference.point, rel=1e-12)
        assert ci.low == pytest.approx(reference.low, rel=1e-9)
        assert ci.high == pytest.approx(reference.high, rel=1e-9)

    def test_stall_ci_brackets_point(self):
        streams = [
            make_stream(i, play=100.0 + 7 * i, stall=float(i % 3))
            for i in range(12)
        ]
        sink = StreamingSchemeSink("x")
        for s in streams:
            sink.observe_stream(s)
        ci = sink.stall_ratio_ci()
        assert ci.low <= ci.point <= ci.high
        assert ci.low >= 0.0

    def test_stall_ci_scales_with_the_level(self):
        sink = StreamingSchemeSink("x")
        for i in range(12):
            sink.observe_stream(
                make_stream(i, play=100.0 + 7 * i, stall=float(i % 3))
            )
        default, wide = sink.stall_ratio_ci(), sink.stall_ratio_ci(0.99)
        assert wide.confidence == 0.99 and wide.point == default.point
        se = (default.high - default.point) / normal_z(0.95)
        assert wide.high - wide.point == pytest.approx(
            normal_z(0.99) * se, rel=1e-12
        )

    @pytest.mark.parametrize("confidence", [0.0, 1.0, 2.0, -0.5, float("nan")])
    def test_intervals_reject_a_level_outside_the_unit_interval(
        self, confidence
    ):
        sink = StreamingSchemeSink("x")
        for i in range(3):
            sink.observe_stream(make_stream(i, stall=float(i)))
            sink.observe_session_duration(60.0 + i)
        for interval in (
            sink.stall_ratio_ci, sink.ssim.mean_ci, sink.duration.mean_ci,
            StreamingMoments().mean_ci,  # empty: still validated
        ):
            with pytest.raises(ValueError, match="confidence"):
                interval(confidence)

    def test_empty_summary_rejected(self):
        with pytest.raises(ValueError):
            StreamingSchemeSink("x").summary()

    def test_merge_rejects_other_scheme(self):
        with pytest.raises(ValueError):
            StreamingSchemeSink("x").merge(StreamingSchemeSink("y"))

    def test_exclusion_counters_accumulate(self):
        sink = StreamingSchemeSink("x")
        sink.observe_exclusions(
            ConsortArm("x", streams_assigned=5, did_not_begin=1)
        )
        sink.observe_exclusions(
            ConsortArm("x", streams_assigned=3, watch_time_under_4s=2)
        )
        assert sink.streams_assigned == 8
        assert sink.did_not_begin == 1
        assert sink.watch_time_under_4s == 2


class TestFleetSink:
    def _populated(self):
        sink = FleetSink()
        sink.sessions = 3
        sink.streams = 4
        sink.sessions_by_day = {0: 2, 1: 1}
        sink.arrivals_by_hour[20] = 3
        sink.sim_watch_s.add(1234.5)
        scheme = sink.scheme("bba")
        scheme.observe_stream(make_stream(0, play=200.0, stall=1.0))
        scheme.observe_session_duration(250.0)
        scheme.observe_exclusions(
            ConsortArm("bba", streams_assigned=2, did_not_begin=1)
        )
        return sink

    def test_serialization_exact_round_trip(self):
        sink = self._populated()
        payload = json.dumps(sink.to_dict(), sort_keys=True)
        restored = FleetSink.from_dict(json.loads(payload))
        assert json.dumps(restored.to_dict(), sort_keys=True) == payload

    def test_schema_version_checked(self):
        data = self._populated().to_dict()
        data["schema_version"] = 99
        with pytest.raises(ValueError):
            FleetSink.from_dict(data)

    def test_merge_accumulates_everything(self):
        a = self._populated()
        b = self._populated()
        a.merge(b)
        assert a.sessions == 6
        assert a.streams == 8
        assert a.sessions_by_day == {0: 4, 1: 2}
        assert a.arrivals_by_hour[20] == 6
        assert a.scheme("bba").n_streams == 2
        assert a.scheme("bba").streams_assigned == 4

    def test_summaries_skips_empty_schemes(self):
        sink = self._populated()
        sink.scheme("empty")  # registered but never fed a stream
        assert [s.scheme for s in sink.summaries()] == ["bba"]

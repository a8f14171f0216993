"""Tests for the periodic client_buffer TIMER reports (Appendix B)."""

import numpy as np
import pytest

from repro.abr.bba import BBA
from repro.media.encoder import encode_clip
from repro.media.source import DEFAULT_CHANNELS
from repro.net.link import ConstantLink
from repro.net.tcp import TcpConnection
from repro.streaming.simulator import simulate_stream
from repro.streaming.telemetry import BufferEvent, TelemetryLog


def run(interval, watch=30.0, rate=2e7):
    log = TelemetryLog()
    simulate_stream(
        iter(encode_clip(DEFAULT_CHANNELS[0], 200, seed=0)),
        BBA(),
        TcpConnection(ConstantLink(rate), base_rtt=0.03),
        watch_time_s=watch,
        telemetry=log,
        buffer_report_interval=interval,
    )
    return log


class TestTimerReports:
    def test_disabled_by_default(self):
        log = run(None)
        timers = [
            r for r in log.client_buffer if r.event == BufferEvent.TIMER
        ]
        # Only the per-chunk TIMER records from chunk completion remain.
        assert len(timers) < 50

    def test_quarter_second_cadence(self):
        log = run(0.25, watch=20.0)
        timers = [
            r
            for r in log.client_buffer
            if r.event == BufferEvent.TIMER and r.time % 0.25 < 1e-9
        ]
        # ~80 quarter-second boundaries in 20 s of playback.
        assert len(timers) >= 60

    def test_report_times_monotone(self):
        log = run(0.25, watch=15.0)
        periodic = [
            r.time
            for r in log.client_buffer
            if r.event == BufferEvent.TIMER
        ]
        assert periodic == sorted(periodic)

    def test_reported_buffer_bounded(self):
        log = run(0.25, watch=20.0)
        for record in log.client_buffer:
            assert 0.0 <= record.buffer <= 15.0 + 1e-9

    def test_cum_rebuf_monotone_across_reports(self):
        # 0.25 Mbit/s: below the lowest rung's bitrate, so stalls occur.
        log = run(0.25, watch=40.0, rate=2.5e5)
        values = [r.cum_rebuf for r in log.client_buffer]
        assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))
        assert values[-1] > 0  # the slow path did stall


class TestIntervalValidation:
    # Zero and negative intervals never pass the stream clock (the report
    # loop would not end); NaN never compares true (no report at all).
    @pytest.mark.parametrize(
        "interval", [0.0, -1.0, float("nan"), float("inf")]
    )
    def test_absurd_interval_rejected(self, interval):
        with pytest.raises(ValueError, match="buffer_report_interval"):
            run(interval)

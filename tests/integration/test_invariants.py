"""Property-based integration tests: system-level invariants that must hold
for any scheme, any network, any seed."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abr.bba import BBA
from repro.abr.mpc import MpcHm
from repro.core.fugu import Fugu
from repro.core.ttp import TransmissionTimePredictor
from repro.media.encoder import VbrEncoder
from repro.media.source import DEFAULT_CHANNELS, VideoSource
from repro.net.link import HeavyTailLink
from repro.net.tcp import TcpConnection
from repro.streaming.simulator import simulate_stream
from repro.streaming.telemetry import TelemetryLog


def run(abr, seed, base_bps, watch, telemetry=None):
    rng = np.random.default_rng(seed)
    source = VideoSource(DEFAULT_CHANNELS[seed % 6], rng=rng)
    encoder = VbrEncoder(rng=rng)
    link = HeavyTailLink(base_bps=base_bps, seed=seed)
    conn = TcpConnection(link, base_rtt=0.05)
    return simulate_stream(
        encoder.stream(source), abr, conn, watch_time_s=watch,
        telemetry=telemetry,
    )


@st.composite
def scenario(draw):
    seed = draw(st.integers(0, 200))
    base = draw(st.sampled_from([5e5, 2e6, 8e6, 4e7]))
    watch = draw(st.floats(5.0, 90.0))
    return seed, base, watch


class TestStreamInvariants:
    @given(scenario())
    @settings(max_examples=15, deadline=None)
    def test_time_accounting(self, params):
        seed, base, watch = params
        result = run(BBA(), seed, base, watch)
        assert result.play_time >= 0
        assert result.stall_time >= 0
        assert result.watch_time == pytest.approx(
            result.play_time + result.stall_time
        )
        assert result.total_time <= watch + 1e-6
        assert result.watch_time <= result.total_time + 1e-6

    @given(scenario())
    @settings(max_examples=15, deadline=None)
    def test_records_well_formed(self, params):
        seed, base, watch = params
        result = run(BBA(), seed, base, watch)
        for record in result.records:
            assert record.transmission_time > 0
            assert record.size_bytes > 0
            assert 0 <= record.rung < 10
            assert 0 < record.ssim_db < 30
        indices = [r.chunk_index for r in result.records]
        assert indices == sorted(indices)

    @given(scenario())
    @settings(max_examples=10, deadline=None)
    def test_telemetry_consistent_with_result(self, params):
        seed, base, watch = params
        log = TelemetryLog()
        result = run(MpcHm(), seed, base, watch, telemetry=log)
        assert len(log.video_sent) >= len(result.records)
        assert len(log.video_acked) == len(result.records)
        if log.client_buffer:
            cum = [r.cum_rebuf for r in log.client_buffer]
            assert all(a <= b + 1e-9 for a, b in zip(cum, cum[1:]))
            assert cum[-1] <= result.stall_time + 1e-6

    @given(st.integers(0, 50))
    @settings(max_examples=10, deadline=None)
    def test_fugu_untrained_still_safe(self, seed):
        # Even an untrained TTP must produce valid decisions (the system
        # must not crash before its first training day).
        fugu = Fugu(TransmissionTimePredictor(seed=seed))
        result = run(fugu, seed, 4e6, 30.0)
        assert result.total_time <= 30.0 + 1e-6

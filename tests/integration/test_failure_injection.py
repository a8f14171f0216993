"""Failure-injection tests: the stack must behave sanely at the edges of
its operating envelope — dead links, absurd RTTs, degenerate ladders,
near-zero watch times — without crashes or accounting violations."""

import numpy as np
import pytest

from repro.abr.bba import BBA
from repro.abr.mpc import MpcHm
from repro.core.fugu import Fugu
from repro.core.ttp import TransmissionTimePredictor
from repro.media.chunk import ChunkMenu, EncodedChunk
from repro.media.encoder import VbrEncoder, encode_clip
from repro.media.ladder import PUFFER_LADDER, EncodingLadder
from repro.media.source import DEFAULT_CHANNELS, VideoSource
from repro.net.link import MIN_CAPACITY, ConstantLink, TraceLink
from repro.net.tcp import TcpConnection
from repro.streaming.simulator import simulate_stream


def check_accounting(result, watch):
    assert result.play_time >= 0
    assert result.stall_time >= 0
    assert result.total_time <= watch + 1e-6
    assert result.watch_time <= result.total_time + 1e-6


class TestDeadAndDegradedLinks:
    def test_floor_capacity_link(self):
        # A link at the absolute capacity floor: the viewer stalls out and
        # leaves; nothing crashes and nothing over-counts.
        conn = TcpConnection(ConstantLink(MIN_CAPACITY), base_rtt=0.05)
        result = simulate_stream(
            iter(encode_clip(DEFAULT_CHANNELS[0], 20, seed=0)),
            BBA(), conn, watch_time_s=30.0,
        )
        check_accounting(result, 30.0)
        assert result.stall_ratio > 0.5 or result.never_began

    def test_link_dies_mid_stream(self):
        alive_then_dead = TraceLink(
            [2e7] * 20 + [MIN_CAPACITY] * 600, epoch=1.0, loop=False
        )
        conn = TcpConnection(alive_then_dead, base_rtt=0.05)
        result = simulate_stream(
            iter(encode_clip(DEFAULT_CHANNELS[0], 200, seed=1)),
            MpcHm(), conn, watch_time_s=90.0,
        )
        check_accounting(result, 90.0)
        assert len(result.records) > 5  # streamed while alive
        assert result.stall_time > 0  # then starved

    def test_extreme_rtt(self):
        conn = TcpConnection(ConstantLink(1e7), base_rtt=0.79)
        result = simulate_stream(
            iter(encode_clip(DEFAULT_CHANNELS[0], 60, seed=2)),
            BBA(), conn, watch_time_s=60.0,
        )
        check_accounting(result, 60.0)
        assert result.startup_delay is None or result.startup_delay >= 0.79

    def test_untrained_fugu_on_dead_link(self):
        conn = TcpConnection(ConstantLink(MIN_CAPACITY), base_rtt=0.05)
        result = simulate_stream(
            iter(encode_clip(DEFAULT_CHANNELS[0], 10, seed=3)),
            Fugu(TransmissionTimePredictor(seed=0)), conn, watch_time_s=10.0,
        )
        check_accounting(result, 10.0)


class TestDegenerateMedia:
    def single_rung_menus(self, n=20):
        ladder = EncodingLadder([PUFFER_LADDER[0]])
        rng = np.random.default_rng(0)
        source = VideoSource(DEFAULT_CHANNELS[0], rng=rng)
        encoder = VbrEncoder(ladder=ladder, rng=rng)
        return encoder.encode_source(source, n)

    def test_single_rung_ladder(self):
        for abr in (BBA(), MpcHm()):
            conn = TcpConnection(ConstantLink(5e6), base_rtt=0.05)
            result = simulate_stream(
                iter(self.single_rung_menus()), abr, conn, watch_time_s=30.0
            )
            assert all(r.rung == 0 for r in result.records)

    def test_single_chunk_clip(self):
        conn = TcpConnection(ConstantLink(5e6), base_rtt=0.05)
        result = simulate_stream(
            iter(encode_clip(DEFAULT_CHANNELS[0], 1, seed=4)),
            BBA(), conn, watch_time_s=30.0,
        )
        assert len(result.records) == 1
        check_accounting(result, 30.0)

    def test_zero_watch_time(self):
        conn = TcpConnection(ConstantLink(5e6), base_rtt=0.05)
        result = simulate_stream(
            iter(encode_clip(DEFAULT_CHANNELS[0], 5, seed=5)),
            BBA(), conn, watch_time_s=0.0,
        )
        assert result.never_began
        assert result.records == []


class TestHostileAbr:
    def test_always_highest_on_slow_path(self):
        class MaxRung(BBA):
            name = "max_rung"

            def choose(self, context):
                return len(context.menu) - 1

        conn = TcpConnection(ConstantLink(5e5), base_rtt=0.05)
        result = simulate_stream(
            iter(encode_clip(DEFAULT_CHANNELS[0], 50, seed=6)),
            MaxRung(), conn, watch_time_s=60.0,
        )
        check_accounting(result, 60.0)
        assert result.stall_ratio > 0.2  # reckless choices have consequences

    def test_out_of_range_choice_rejected_not_crashed(self):
        class Broken(BBA):
            def choose(self, context):
                return 99

        conn = TcpConnection(ConstantLink(5e6), base_rtt=0.05)
        with pytest.raises(ValueError, match="chose rung"):
            simulate_stream(
                iter(encode_clip(DEFAULT_CHANNELS[0], 5, seed=7)),
                Broken(), conn, watch_time_s=10.0,
            )

"""Tests for repro.net.tcp — the fluid connection model.

These cover the properties the TTP exploits: slow-start ramp (small chunks
see lower effective throughput), idle restart, and the ``tcp_info``
snapshot semantics of the ``video_sent`` record.
"""

import copy
import math
import re

import numpy as np
import pytest

from repro.abr.bba import BBA
from repro.media.menus import MenuBlockSource
from repro.media.source import DEFAULT_CHANNELS
from repro.net.cc.bbr import BbrLike
from repro.net.cc.cubic import CubicLike
from repro.net.link import ConstantLink, LinkModel, TraceLink
from repro.net.tcp import TcpConnection
from repro.streaming.fastpath import fast_stream


def fresh_connection(rate=8e6, rtt=0.05, **kwargs):
    return TcpConnection(ConstantLink(rate), base_rtt=rtt, **kwargs)


class TestTransmit:
    def test_transmission_time_positive(self):
        conn = fresh_connection()
        res = conn.transmit(500_000, 0.0)
        assert res.transmission_time > 0

    def test_small_chunk_costs_at_least_one_rtt(self):
        conn = fresh_connection(rtt=0.08)
        res = conn.transmit(1000, 0.0)
        assert res.transmission_time >= 0.08

    def test_large_transfer_approaches_link_rate(self):
        conn = fresh_connection(rate=8e6, rtt=0.05)
        size = 20_000_000  # 20 MB: ramp cost amortized away
        res = conn.transmit(size, 0.0)
        throughput = size * 8 / res.transmission_time
        assert throughput == pytest.approx(8e6, rel=0.15)

    def test_effective_throughput_grows_with_size(self):
        # The non-linearity the TTP models (§4.2): small transfers on a
        # cold window see much lower effective throughput.
        small = fresh_connection().transmit(30_000, 0.0)
        large = fresh_connection().transmit(3_000_000, 0.0)
        tput_small = 30_000 * 8 / small.transmission_time
        tput_large = 3_000_000 * 8 / large.transmission_time
        assert tput_large > 2 * tput_small

    def test_back_to_back_chunks_keep_window_warm(self):
        conn = fresh_connection()
        t = 0.0
        times = []
        for _ in range(6):
            res = conn.transmit(400_000, t)
            times.append(res.transmission_time)
            t += res.transmission_time
        assert times[-1] < times[0]  # later chunks ride the opened window

    def test_idle_restart_slows_next_chunk(self):
        conn = fresh_connection()
        t = 0.0
        for _ in range(6):  # warm up
            t += conn.transmit(400_000, t).transmission_time
        warm = conn.transmit(400_000, t).transmission_time
        t += warm + 60.0  # long idle: slow-start-after-idle decays cwnd
        cold = conn.transmit(400_000, t).transmission_time
        assert cold > warm * 1.05

    def test_overlapping_transmissions_rejected(self):
        conn = fresh_connection()
        res = conn.transmit(1_000_000, 10.0)
        with pytest.raises(ValueError, match="before previous"):
            conn.transmit(1000, 10.0 + res.transmission_time / 2)

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            fresh_connection().transmit(0, 0.0)

    def test_invalid_rtt_rejected(self):
        with pytest.raises(ValueError):
            TcpConnection(ConstantLink(1e6), base_rtt=0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rtt_rejected(self, bad):
        # nan <= 0 is False, so the sign check alone lets it through.
        with pytest.raises(ValueError, match="base_rtt"):
            TcpConnection(ConstantLink(1e6), base_rtt=bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_size_rejected_before_any_state_moves(self, bad):
        # transmit(nan, t) used to return 0 rounds in 0 s and leave
        # total_bytes_sent NaN for the rest of the session.
        conn = fresh_connection()
        t = conn.transmit(200_000, 0.0).transmission_time
        before = {k: v for k, v in vars(conn).items() if k != "cc"}
        cc_before = copy.deepcopy(vars(conn.cc))
        with pytest.raises(ValueError, match="size_bytes"):
            conn.transmit(bad, t + 5.0)
        assert {k: v for k, v in vars(conn).items() if k != "cc"} == before
        assert vars(conn.cc) == cc_before
        assert conn.total_bytes_sent == 200_000

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_send_time_rejected_before_any_state_moves(self, bad):
        # transmit(size, nan) used to return a NaN time and a NaN
        # busy_until, which no later at_time compares below: the overlap
        # check was off for good.
        conn = fresh_connection()
        res = conn.transmit(200_000, 0.0)
        before = {k: v for k, v in vars(conn).items() if k != "cc"}
        cc_before = copy.deepcopy(vars(conn.cc))
        with pytest.raises(ValueError, match="at_time"):
            conn.transmit(1e5, bad)
        assert {k: v for k, v in vars(conn).items() if k != "cc"} == before
        assert vars(conn.cc) == cc_before
        assert conn.busy_until == res.transmission_time
        with pytest.raises(ValueError, match="before previous"):
            conn.transmit(1000, res.transmission_time / 2)

    def test_busy_until_tracks_completion(self):
        conn = fresh_connection()
        res = conn.transmit(500_000, 5.0)
        assert conn.busy_until == pytest.approx(5.0 + res.transmission_time)

    def test_total_bytes_sent_accumulates(self):
        conn = fresh_connection()
        t = 0.0
        for _ in range(3):
            t += conn.transmit(100_000, t).transmission_time
        assert conn.total_bytes_sent == 300_000

    def test_trace_link_variation_affects_time(self):
        slow_then_fast = TraceLink([5e5] * 10 + [2e7] * 100, epoch=1.0)
        conn = TcpConnection(slow_then_fast, base_rtt=0.05)
        slow = conn.transmit(500_000, 0.0)
        fast_start = conn.busy_until + 11.0
        fast = conn.transmit(500_000, max(fast_start, 11.0))
        assert fast.transmission_time < slow.transmission_time


class TestAppLimited:
    def test_small_chunk_does_not_deflate_delivery_rate(self):
        # A tiny chunk fits in one app-limited round; its rate sample
        # understates the path and must not lower the estimate the TTP's
        # `delivery_rate` feature sees (Linux `app_limited` semantics).
        conn = fresh_connection(rate=8e6)
        t = 0.0
        for _ in range(6):  # warm up on large chunks
            t += conn.transmit(1_000_000, t).transmission_time
        warm_rate = conn.tcp_info().delivery_rate
        t += conn.transmit(5_000, t).transmission_time
        assert conn.tcp_info().delivery_rate >= warm_rate

    def test_app_limited_round_does_not_collapse_bbr_estimate(self):
        # The windowed-max filter must not evict genuine samples for a
        # partial final round: throughput stays stable across small sends.
        conn = fresh_connection(rate=8e6)
        t = 0.0
        for _ in range(6):
            t += conn.transmit(1_000_000, t).transmission_time
        before = conn.cc.bandwidth_estimate_bps
        for _ in range(12):  # many tiny app-limited sends back to back
            t += conn.transmit(2_000, t).transmission_time
        assert conn.cc.bandwidth_estimate_bps >= before * 0.99

    def test_app_limited_rate_may_raise_estimate(self):
        # An app-limited sample that *exceeds* the estimate is still used
        # (first-ever sample on a fresh connection is app-limited when the
        # chunk is smaller than the initial window).
        conn = fresh_connection(rate=8e6)
        conn.transmit(5_000, 0.0)
        assert conn.tcp_info().delivery_rate > 0.0

    def test_a_round_that_fills_the_window_is_not_app_limited(self):
        # In STARTUP a window-limited round doubles the window; a round the
        # application could not fill, even by one byte, may not.
        full = fresh_connection(rate=1e9)
        window = full.cc.cwnd_bytes
        full.transmit(window, 0.0)
        assert full.cc.cwnd_bytes == 2.0 * window
        short = fresh_connection(rate=1e9)
        short.transmit(window - 1.0, 0.0)
        assert short.cc.cwnd_bytes == window


class TestTcpInfo:
    def test_snapshot_taken_at_send(self):
        conn = fresh_connection()
        res = conn.transmit(2_000_000, 0.0)
        # Fresh connection: snapshot shows the initial window and no
        # delivery-rate estimate.
        assert res.info_at_send.cwnd == pytest.approx(10.0)
        assert res.info_at_send.delivery_rate == 0.0

    def test_delivery_rate_populated_after_transfer(self):
        conn = fresh_connection(rate=8e6)
        conn.transmit(2_000_000, 0.0)
        info = conn.tcp_info()
        assert info.delivery_rate > 1e6

    def test_min_rtt_not_above_smoothed(self):
        conn = fresh_connection()
        t = 0.0
        for _ in range(5):
            t += conn.transmit(1_000_000, t).transmission_time
        info = conn.tcp_info()
        assert info.min_rtt <= info.rtt + 1e-9

    def test_rtt_reflects_path(self):
        fast = fresh_connection(rtt=0.02).tcp_info()
        slow = fresh_connection(rtt=0.3).tcp_info()
        assert slow.rtt > fast.rtt
        assert slow.min_rtt > fast.min_rtt

    def test_in_flight_drains_when_idle(self):
        conn = fresh_connection()
        t = conn.transmit(2_000_000, 0.0).transmission_time
        busy_info = conn.tcp_info()
        conn.transmit(1000, t + 30.0)
        idle_info = conn.tcp_info()
        assert idle_info.in_flight <= busy_info.in_flight


class TestCubicConnection:
    def test_cubic_transfers_complete(self):
        conn = TcpConnection(
            ConstantLink(4e6),
            base_rtt=0.05,
            cc=CubicLike(),
            loss_rng=np.random.default_rng(0),
        )
        t = 0.0
        for _ in range(10):
            res = conn.transmit(1_000_000, t)
            t += res.transmission_time
            assert res.transmission_time < 60.0

    def test_cubic_throughput_reasonable(self):
        conn = TcpConnection(
            ConstantLink(8e6),
            base_rtt=0.05,
            cc=CubicLike(),
            loss_rng=np.random.default_rng(1),
        )
        size = 10_000_000
        res = conn.transmit(size, 0.0)
        throughput = size * 8 / res.transmission_time
        assert 2e6 < throughput <= 8.1e6


class TestOneMss:
    def test_the_window_is_reported_in_the_controllers_segments(self):
        conn = TcpConnection(ConstantLink(8e6), 0.05, cc=BbrLike(mss=1000))
        assert conn.mss == 1000
        conn.transmit(2_000_000, 0.0)
        info = conn.tcp_info()
        assert info.cwnd == conn.cc.cwnd_segments
        assert info.in_flight == conn._in_flight_bytes / 1000

    def test_the_connection_takes_no_mss_of_its_own(self):
        with pytest.raises(TypeError, match="mss"):
            TcpConnection(
                ConstantLink(8e6), 0.05, cc=BbrLike(mss=1000), mss=1460
            )


class BadCapacityLink(LinkModel):
    """5 Mbit/s until ``t = 0.1``, then ``bad``."""

    def __init__(self, bad):
        self.bad = bad

    def capacity_at(self, t):
        return 5e6 if t < 0.1 else self.bad

    def next_change_after(self, t):
        return 0.1 if t < 0.1 else math.inf


@pytest.mark.parametrize(
    "bad",
    [float("nan"), -1e6, 0.0, -0.0, float("inf"), float("-inf")],
    ids=repr,
)
@pytest.mark.parametrize("cc", [BbrLike, CubicLike])
@pytest.mark.parametrize("loop", ["transmit", "kernel_stream"])
def test_a_bad_capacity_read_raises_by_name(bad, cc, loop):
    # Unchecked, NaN gave a NaN transmission time (and NaN rtt and delivery
    # rate), -1e6 and inf a chunk "delivered" in one round, and 0 a bare
    # ZeroDivisionError — in whichever round loop read it.
    conn = TcpConnection(BadCapacityLink(bad), 0.05, cc=cc())
    message = rf"BadCapacityLink reported capacity {re.escape(repr(bad))} b/s at t="
    with pytest.raises(ValueError, match=message) as raised:
        if loop == "transmit":
            conn.transmit(200_000, 0.0)
        else:
            fast_stream(
                MenuBlockSource(DEFAULT_CHANNELS[0], np.random.default_rng(0)),
                BBA(), conn, 30.0, 0, None, 0.0, None,
            )
    at = float(str(raised.value).split("at t=")[1].split(";")[0])
    assert at >= 0.1

"""Tests for repro.net.cc — BBR-like and CUBIC-like congestion control."""

import pytest

from repro.net.cc.base import (
    DEFAULT_MSS,
    INITIAL_CWND_SEGMENTS,
    CongestionControl,
)
from repro.net.cc.bbr import BbrLike
from repro.net.cc.cubic import CubicLike


def sample(
    delivered=14600.0,
    duration=0.05,
    rtt=0.05,
    rate=None,
    link_limited=False,
    loss=False,
):
    if rate is None:
        rate = delivered * 8.0 / duration
    """One round's values, as the keywords ``on_round`` takes."""
    return dict(
        delivered_bytes=delivered,
        duration=duration,
        rtt=rtt,
        delivery_rate_bps=rate,
        link_limited=link_limited,
        loss=loss,
    )


class TestBase:
    def test_initial_window_is_ten_segments(self):
        cc = BbrLike()
        assert cc.cwnd_segments == pytest.approx(INITIAL_CWND_SEGMENTS)

    def test_idle_decay_halves_per_rto(self):
        cc = BbrLike()
        cc.cwnd_bytes = 100 * DEFAULT_MSS
        cc.on_idle(idle_time=0.4, rtt=0.1)  # rto = 0.2 -> two RTOs
        assert cc.cwnd_segments == pytest.approx(25, rel=0.01)

    def test_idle_decay_floors_at_initial_window(self):
        cc = BbrLike()
        cc.cwnd_bytes = 100 * DEFAULT_MSS
        cc.on_idle(idle_time=1000.0, rtt=0.05)
        assert cc.cwnd_segments >= INITIAL_CWND_SEGMENTS

    def test_short_idle_no_decay(self):
        cc = BbrLike()
        cc.cwnd_bytes = 100 * DEFAULT_MSS
        cc.on_idle(idle_time=0.01, rtt=0.1)
        assert cc.cwnd_bytes == 100 * DEFAULT_MSS

    def test_invalid_mss_rejected(self):
        with pytest.raises(ValueError):
            CongestionControl(mss=0)


class TestBbrLike:
    def test_startup_doubles_window(self):
        cc = BbrLike()
        w0 = cc.cwnd_bytes
        cc.on_round(**sample(rate=1e6))
        assert cc.cwnd_bytes >= 2 * w0 * 0.99

    def test_exits_startup_when_bandwidth_plateaus(self):
        cc = BbrLike()
        for _ in range(10):
            cc.on_round(**sample(rate=5e6, rtt=0.05))
        assert not cc.in_startup

    def test_steady_state_cwnd_tracks_bdp(self):
        cc = BbrLike(cwnd_gain=2.0)
        for _ in range(15):
            cc.on_round(**sample(rate=8e6, rtt=0.05))
        bdp_bytes = 8e6 / 8.0 * 0.05
        assert cc.cwnd_bytes == pytest.approx(2.0 * bdp_bytes, rel=0.05)

    def test_ignores_loss(self):
        cc = BbrLike()
        for _ in range(15):
            cc.on_round(**sample(rate=8e6, rtt=0.05))
        before = cc.cwnd_bytes
        cc.on_round(**sample(rate=8e6, rtt=0.05, loss=True))
        assert cc.cwnd_bytes == pytest.approx(before, rel=0.05)

    def test_long_idle_reenters_startup(self):
        cc = BbrLike()
        for _ in range(15):
            cc.on_round(**sample(rate=8e6, rtt=0.05))
        assert not cc.in_startup
        cc.on_idle(idle_time=30.0, rtt=0.05)
        assert cc.in_startup

    def test_bandwidth_filter_takes_max(self):
        cc = BbrLike()
        cc.on_round(**sample(rate=2e6))
        cc.on_round(**sample(rate=9e6))
        cc.on_round(**sample(rate=4e6))
        assert cc.bandwidth_estimate_bps == 9e6

    def test_invalid_gain_rejected(self):
        with pytest.raises(ValueError):
            BbrLike(cwnd_gain=0.0)

    @pytest.mark.parametrize(
        "gain", [-1.0, float("nan"), float("inf"), float("-inf")]
    )
    def test_invalid_gain_rejected_by_name(self, gain):
        with pytest.raises(ValueError, match="cwnd_gain"):
            BbrLike(cwnd_gain=gain)

    @pytest.mark.parametrize("mss", [0, -1460, float("nan"), float("inf")])
    def test_invalid_mss_rejected_by_name(self, mss):
        with pytest.raises(ValueError, match="mss"):
            BbrLike(mss=mss)


class TestCubicLike:
    def test_slow_start_doubles(self):
        cc = CubicLike()
        w0 = cc.cwnd_bytes
        cc.on_round(**sample())
        assert cc.cwnd_bytes == pytest.approx(2 * w0)

    def test_loss_multiplicative_decrease(self):
        cc = CubicLike()
        cc.cwnd_bytes = 100 * DEFAULT_MSS
        cc.ssthresh_bytes = 50 * DEFAULT_MSS  # not in slow start
        cc.on_round(**sample(loss=True))
        assert cc.cwnd_segments == pytest.approx(70, rel=0.01)

    def test_loss_sets_ssthresh(self):
        cc = CubicLike()
        cc.cwnd_bytes = 100 * DEFAULT_MSS
        cc.on_round(**sample(loss=True))
        assert cc.ssthresh_bytes == cc.cwnd_bytes
        assert not cc.in_slow_start

    def test_cubic_growth_after_loss(self):
        cc = CubicLike()
        cc.cwnd_bytes = 100 * DEFAULT_MSS
        cc.on_round(**sample(loss=True))
        w_after_loss = cc.cwnd_bytes
        # Growth resumes; after enough time the window re-approaches W_max.
        for _ in range(200):
            cc.on_round(**sample(duration=0.1, rtt=0.05))
        assert cc.cwnd_bytes > w_after_loss

    def test_window_never_below_two_segments(self):
        cc = CubicLike()
        for _ in range(50):
            cc.on_round(**sample(loss=True))
        assert cc.cwnd_segments >= 2.0

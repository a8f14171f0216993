"""Tests for repro.net.cc — BBR-like and CUBIC-like congestion control."""

import pytest

from repro.net.cc.base import (
    DEFAULT_MSS,
    INITIAL_CWND_SEGMENTS,
    CongestionControl,
)
from repro.net.cc.bbr import BbrLike
from repro.net.cc.cubic import CubicLike
from repro.net.link import ConstantLink, LinkModel
from repro.net.tcp import TcpConnection


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


class RoundLink(LinkModel):
    """A crafted link whose capacity changes at every read: a round loop
    reads it once per round, so round ``k`` of a chunk sees ``rates[k]``
    (the last rate holds after)."""

    def __init__(self, rates):
        self.rates = list(rates)
        self.reads = 0

    def epoch_at(self, t):
        rate = self.rates[min(self.reads, len(self.rates) - 1)]
        self.reads += 1
        return rate, t  # the next round starts later: it reads again


class EveryRoundLoses:
    """A loss generator under which every queue overflow is a loss."""

    def __init__(self):
        self.draws = 0

    def random(self):
        self.draws += 1
        return 0.0


def bbr_connection(link, rtt=0.05, **kwargs):
    return TcpConnection(link, base_rtt=rtt, cc=BbrLike(**kwargs))


class TestBbrLike:
    """BBR's update runs inside its own round loop, so each case drives a
    connection over a crafted link."""

    def test_startup_doubles_window(self):
        conn = bbr_connection(ConstantLink(1e9))
        w0 = conn.cc.cwnd_bytes
        # One window-limited round: the chunk is exactly the window.
        assert conn.transmit(w0, 0.0).rounds == 1
        assert conn.cc.cwnd_bytes == 2 * w0

    def test_exits_startup_when_bandwidth_plateaus(self):
        conn = bbr_connection(ConstantLink(5e6))
        conn.transmit(2e6, 0.0)
        assert not conn.cc.in_startup

    def test_steady_state_cwnd_tracks_bdp(self):
        conn = bbr_connection(ConstantLink(8e6), cwnd_gain=2.0)
        conn.transmit(4e6, 0.0)
        bdp_bytes = 8e6 / 8.0 * 0.05
        assert conn.cc.cwnd_bytes == pytest.approx(2.0 * bdp_bytes, rel=0.05)

    def test_ignores_loss(self):
        # A deep queue on a short path overflows during STARTUP: CUBIC's
        # round draws a loss there; BBR's computes no loss flag at all.
        cubic = TcpConnection(
            ConstantLink(8e6), 0.005, cc=CubicLike(), loss_rng=EveryRoundLoses()
        )
        cubic.transmit(4e6, 0.0)
        assert cubic.loss_rng.draws > 0
        lossy = TcpConnection(
            ConstantLink(8e6), 0.005, cc=BbrLike(), loss_rng=EveryRoundLoses()
        )
        plain = bbr_connection(ConstantLink(8e6), rtt=0.005)
        for conn in (lossy, plain):
            conn.transmit(4e6, 0.0)
        assert lossy.loss_rng.draws == 0
        assert vars(lossy.cc) == vars(plain.cc)
        bdp_bytes = 8e6 / 8.0 * 0.005
        assert lossy.cc.cwnd_bytes == pytest.approx(2.0 * bdp_bytes, rel=0.05)

    def test_long_idle_reenters_startup(self):
        conn = bbr_connection(ConstantLink(8e6))
        conn.transmit(4e6, 0.0)
        assert not conn.cc.in_startup
        # A small chunk after 30 s: app-limited rounds cannot end STARTUP.
        conn.transmit(1000, conn.busy_until + 30.0)
        assert conn.cc.in_startup

    def test_bandwidth_filter_takes_max(self):
        link = RoundLink([2e6, 9e6, 4e6])
        conn = bbr_connection(link, rtt=0.01)
        w0 = conn.cc.cwnd_bytes
        # Windows of 1, 2 and 4 initial windows, each link-limited and none
        # app-limited: three delivery-rate samples at the link's rates.
        assert conn.transmit(7 * w0, 0.0).rounds == 3
        assert link.reads == 3
        assert len(conn.cc._bw_samples) == 3
        assert conn.cc.bandwidth_estimate_bps == pytest.approx(9e6, rel=1e-12)

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

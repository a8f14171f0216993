"""Property-based suite for the CUBIC controller (RFC 8312 + RFC 7661).

Invariants that must hold for *any* round schedule:

* the congestion window never drops below the controller's minimum;
* between loss events the window never shrinks (cubic growth + the
  TCP-friendly Reno floor are both non-negative);
* back-to-back losses only lower ``ssthresh`` (multiplicative decrease is
  monotone while no round completes in between);
* app-limited rounds never inflate the window (congestion-window
  validation: a send capped by application data says nothing about path
  capacity).
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.cc.cubic import CubicLike


def sample(
    loss=False,
    app_limited=False,
    duration=0.08,
    rtt=0.08,
    delivered=100_000.0,
):
    """One round's values, as the keywords ``on_round`` takes."""
    return dict(
        delivered_bytes=delivered,
        duration=duration,
        rtt=rtt,
        delivery_rate_bps=delivered * 8.0 / max(duration, 1e-9),
        link_limited=False,
        loss=loss,
        app_limited=app_limited,
    )


@st.composite
def round_samples(draw):
    loss = draw(st.booleans())
    return sample(
        loss=loss,
        app_limited=(not loss) and draw(st.booleans()),
        duration=draw(st.floats(0.005, 2.0)),
        rtt=draw(st.floats(0.005, 0.5)),
        delivered=draw(st.floats(1e3, 5e6)),
    )


@st.composite
def schedules(draw):
    """An arbitrary sequence of rounds, possibly with idle gaps."""
    events = draw(
        st.lists(
            st.tuples(round_samples(), st.floats(0.0, 30.0)),
            min_size=1,
            max_size=40,
        )
    )
    return events


class TestCubicProperties:
    @given(schedules())
    @settings(max_examples=50, deadline=None)
    def test_cwnd_never_below_minimum(self, events):
        cc = CubicLike()
        floor = 2.0 * cc.mss
        for rnd, idle in events:
            cc.on_round(**rnd)
            assert cc.cwnd_bytes >= floor - 1e-9
            assert math.isfinite(cc.cwnd_bytes)
            cc.on_idle(idle, rnd["rtt"])
            assert cc.cwnd_bytes >= floor - 1e-9

    @given(
        st.lists(
            st.tuples(st.floats(0.005, 1.0), st.floats(0.005, 0.5)),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_window_grows_monotonically_between_losses(self, rounds):
        cc = CubicLike()
        prev = cc.cwnd_bytes
        for duration, rtt in rounds:
            cc.on_round(**sample(duration=duration, rtt=rtt))
            # No loss, no idle: slow start doubles, cubic/Reno only grows.
            assert cc.cwnd_bytes >= prev - 1e-9
            prev = cc.cwnd_bytes

    @given(st.integers(1, 12), st.integers(1, 10))
    @settings(max_examples=50, deadline=None)
    def test_ssthresh_monotone_on_back_to_back_losses(self, warmup, losses):
        cc = CubicLike()
        for _ in range(warmup):
            cc.on_round(**sample())
        prev_ssthresh = cc.ssthresh_bytes
        for _ in range(losses):
            cc.on_round(**sample(loss=True))
            # Each loss multiplies the window (and so ssthresh) down; with
            # no growth rounds in between the sequence is non-increasing.
            assert cc.ssthresh_bytes <= prev_ssthresh
            assert cc.ssthresh_bytes >= 2.0 * cc.mss - 1e-9
            prev_ssthresh = cc.ssthresh_bytes

    @given(schedules())
    @settings(max_examples=50, deadline=None)
    def test_app_limited_rounds_never_inflate_window(self, events):
        cc = CubicLike()
        for rnd, _ in events:
            before = cc.cwnd_bytes
            cc.on_round(**dict(rnd, loss=False, app_limited=True))
            assert cc.cwnd_bytes == before

    def test_app_limited_does_not_double_in_slow_start(self):
        # The concrete regression: streaming small chunks produces an
        # app-limited final round per chunk; historically each one doubled
        # cwnd in slow start without ever filling the pipe.
        cc = CubicLike()
        start = cc.cwnd_bytes
        for _ in range(20):
            cc.on_round(**sample(app_limited=True))
        assert cc.cwnd_bytes == start
        # A genuine (window-limited) round still grows the window.
        cc.on_round(**sample())
        assert cc.cwnd_bytes > start

    @given(st.integers(0, 8))
    @settings(max_examples=20, deadline=None)
    def test_loss_applies_multiplicative_decrease(self, warmup):
        cc = CubicLike()
        for _ in range(warmup):
            cc.on_round(**sample())
        before = cc.cwnd_bytes
        cc.on_round(**sample(loss=True))
        assert cc.cwnd_bytes <= before
        assert cc.cwnd_bytes >= 2.0 * cc.mss - 1e-9

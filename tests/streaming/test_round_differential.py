"""The stream kernel's fused BBR round against the frozen reference, bit for bit.

``fastpath._transmit`` is ``TcpConnection.transmit``'s round loop with
``BbrLike.on_round`` written into it: the filter's maximum kept as a running
value with an age, the clamps written as comparisons, the BDP computed once
per capacity read.  Here it drives one of two twin connections and
``tests/net/transmit_reference.py``'s ``ReferenceTcpConnection`` /
``ReferenceBbr`` the other, over every link model the transmit differential
uses, and after every chunk the returned time and every field the kernel
writes back must carry the same bits (``float.hex``, no tolerance).  The
loss generator is the one thing left out: BBR ignores the loss flag, so the
kernel never draws from it.

The forced cases put the filter where a running maximum can go wrong: its
maximum in the oldest slot of a full deque (the next sample evicts it),
runs of equal rates (ties between copies of the maximum), and app-limited
final rounds above and below the estimate.
"""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.cc.bbr import BbrLike
from repro.net.tcp import TcpConnection
from repro.streaming import fastpath

from tests.net.test_transmit_differential import LINKS
from tests.net.transmit_reference import ReferenceBbr, ReferenceTcpConnection

CONNECTION_FIELDS = (
    "srtt",
    "min_rtt",
    "delivery_rate_bps",
    "_queue_bytes",
    "_in_flight_bytes",
    "_last_activity_end",
    "_total_bytes_sent",
)
CONTROLLER_FIELDS = (
    "cwnd_bytes",
    "_bw_samples",
    "_min_rtt",
    "_in_startup",
    "_full_pipe_baseline",
    "_stale_rounds",
)


def exact(value):
    """``value`` with every float spelled by ``float.hex``."""
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, (deque, list, tuple)):
        return [exact(v) for v in value]
    if isinstance(value, np.random.Generator):
        return value.bit_generator.state
    return value


def state(connection):
    link = {name: exact(value) for name, value in vars(connection.link).items()}
    return (
        {name: exact(getattr(connection, name)) for name in CONNECTION_FIELDS},
        {name: exact(getattr(connection.cc, name)) for name in CONTROLLER_FIELDS},
        connection.cc._bw_samples.maxlen,
        link,
    )


def twins(link_kind, rate, rtt, seed):
    live = TcpConnection(LINKS[link_kind](rate, seed), base_rtt=rtt, cc=BbrLike())
    reference = ReferenceTcpConnection(
        LINKS[link_kind](rate, seed), base_rtt=rtt, cc=ReferenceBbr()
    )
    return live, reference


def send(live, reference, size, at):
    """One chunk down both: the kernel's way (the connection's own idle
    handler and snapshot, then the fused round) and the reference's."""
    live._handle_idle(at)
    info = live.tcp_info()
    got = fastpath._transmit(live, size, at)
    want = reference.transmit(size, at)
    assert float.hex(got) == float.hex(want.transmission_time)
    assert [exact(v) for v in vars(info).values()] == [
        exact(v) for v in vars(want.info_at_send).values()
    ]
    assert state(live) == state(reference)
    return got


def preload(live, reference, samples, in_startup=False, min_rtt=None, cwnd=None):
    """Put both controllers in the same filter state."""
    for cc in (live.cc, reference.cc):
        cc._bw_samples.clear()
        cc._bw_samples.extend(samples)
        cc._in_startup = in_startup
        if min_rtt is not None:
            cc._min_rtt = min_rtt
        if cwnd is not None:
            cc.cwnd_bytes = cwnd
    assert state(live) == state(reference)


@given(
    link_kind=st.sampled_from(sorted(LINKS)),
    rate=st.sampled_from([1.5e5, 8e5, 4e6, 3e7]),
    rtt=st.floats(0.004, 0.4),
    seed=st.integers(0, 10_000),
    schedule=st.lists(
        st.tuples(
            st.one_of(st.floats(1.0, 5e4), st.floats(5e4, 6e6)),
            # Gaps past 4 RTOs (>= 0.8 s) restart BBR's startup.
            st.one_of(st.just(0.0), st.floats(0.0, 0.5), st.floats(0.8, 40.0)),
        ),
        min_size=1,
        max_size=12,
    ),
)
@settings(max_examples=150, deadline=None)
def test_fused_round_matches_reference(link_kind, rate, rtt, seed, schedule):
    live, reference = twins(link_kind, rate, rtt, seed)
    for size, gap in schedule:
        send(live, reference, size, live.busy_until + gap)


def test_maximum_in_the_oldest_slot_of_a_full_filter():
    """The first sample evicts the maximum: the estimate must fall to the
    largest sample left, at once."""
    live, reference = twins("constant", 8e6, 0.04, 0)
    older = [5e7] + [1e6 + 1e5 * k for k in range(9)]
    preload(live, reference, older, min_rtt=0.04, cwnd=5e5)
    send(live, reference, 4e6, 0.0)
    # The evicted maximum would have pinned the window at 2 BDP of 50 Mbit/s.
    assert max(live.cc._bw_samples) < 5e7
    assert live.cc.cwnd_bytes < 2.0 * 5e7 / 8.0 * 0.04


@pytest.mark.parametrize("copies", [1, 2, 5, 10])
def test_runs_of_equal_rates(copies):
    """Several copies of the maximum, then rounds below it: the estimate
    holds while any copy is in the deque and falls once the last one is
    evicted."""
    live, reference = twins("constant", 8e6, 0.04, 0)
    top = 4e7
    older = [top] * copies + [2e6] * (10 - copies)
    preload(live, reference, older, min_rtt=0.04, cwnd=4e5)
    send(live, reference, 2e6, 0.0)
    send(live, reference, 6e6, live.busy_until)
    assert top not in live.cc._bw_samples


def test_fixed_point_rounds_append_equal_rates():
    """A long transfer on a constant link settles on one window whose
    rounds deliver the same rate again and again, so the filter fills with
    copies of its maximum and every append is a tie."""
    live, reference = twins("constant", 8e6, 0.04, 0)
    for _ in range(4):
        send(live, reference, 8e6, live.busy_until)
    samples = list(live.cc._bw_samples)
    assert len(set(samples)) < len(samples)  # the filter holds ties


@pytest.mark.parametrize(
    "estimate, appended", [(1e5, True), (1e9, False)], ids=["above", "below"]
)
def test_app_limited_final_round(estimate, appended):
    """A chunk smaller than the window is one app-limited round: its rate
    joins the filter only above the estimate."""
    live, reference = twins("constant", 3e7, 0.02, 0)
    preload(live, reference, [3e6, estimate], min_rtt=0.02, cwnd=2e5)
    send(live, reference, 5e4, 0.0)
    assert (len(live.cc._bw_samples) == 3) is appended


def test_an_idle_restart_reseeds_the_filter():
    """``on_idle`` rewrites the deque between chunks (one discounted
    sample); the next call must start from the rewritten deque, not from a
    maximum carried over from the last call."""
    live, reference = twins("constant", 8e6, 0.04, 0)
    send(live, reference, 4e6, 0.0)
    assert len(live.cc._bw_samples) > 1
    send(live, reference, 4e6, live.busy_until + 30.0)
    send(live, reference, 4e6, live.busy_until)

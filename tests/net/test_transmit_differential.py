"""The TCP round against its frozen predecessor, bit for bit.

Each congestion controller owns its round loop: the generic one behind
``CongestionControl.run_rounds`` (CUBIC's, which calls ``on_round`` and
draws the loss generator) and ``BbrLike.run_rounds``, with BBR's update
written into the round — its filter maximum kept as a running value with an
age, clamps written as comparisons, the BDP computed once per capacity
read.  ``TcpConnection.transmit`` and the stream kernel both run them.  For
every link model, both controllers and any schedule of sends and idle gaps,
the live ``TcpConnection`` returns the results and ends in the state
``tests/net/transmit_reference.py`` does — same float64 bits, same epochs
realized on the link, and with observability on the same counters and
histograms, less the per-round ones the reference still counts and the live
round no longer does.  CUBIC's loss generator ends in the reference's
position; BBR's round computes no loss flag, so its generator is never
drawn (the live BBR connection's raises if it is).  The forced cases put
BBR's filter where a running maximum can go wrong.  No tolerance anywhere
in this file.
"""

import math
import struct
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.net.cc.bbr import BbrLike
from repro.net.cc.cubic import CubicLike
from repro.net.link import (
    ConstantLink,
    HeavyTailLink,
    MarkovLink,
    TraceLink,
    epoch_index,
)
from repro.net.tcp import TcpConnection

from tests.net.transmit_reference import (
    ReferenceBbr,
    ReferenceCubic,
    ReferenceTcpConnection,
)

TRACE_RATES = [4e5, 6e6, 2.5e5, 1.2e7, 9e5, 3e6, 1e3, 5e6]
EPOCH = 0.3  # not representable in binary: k * EPOCH / EPOCH lands below k

LINKS = {
    "heavy_tail": lambda rate, seed: HeavyTailLink(
        base_bps=rate, fade_rate=0.05, seed=seed
    ),
    "heavy_tail_0.3": lambda rate, seed: HeavyTailLink(
        base_bps=rate, fade_rate=0.05, epoch=EPOCH, seed=seed
    ),
    "markov": lambda rate, seed: MarkovLink(
        [rate / 8.0, rate, rate * 4.0],
        switch_probability=0.3,
        epoch=EPOCH,
        seed=seed,
    ),
    "trace_loop": lambda rate, seed: TraceLink(TRACE_RATES, epoch=EPOCH),
    "trace_hold": lambda rate, seed: TraceLink(
        TRACE_RATES, epoch=EPOCH, loop=False
    ),
    "constant": lambda rate, seed: ConstantLink(rate),
}
CONTROLLERS = {"bbr": (BbrLike, ReferenceBbr), "cubic": (CubicLike, ReferenceCubic)}

PER_ROUND = {
    "tcp.rounds_app_limited",
    "tcp.rounds_link_limited",
    "tcp.loss_events",
    "tcp.round_delivery_rate_bps",
    "cc.bbr.bw_samples",
    "cc.bbr.bw_samples_app_limited_skipped",
    "cc.bbr.startup_exits",
}
"""Metrics only a hook inside the round could produce: the frozen reference
counts them, the live connection does not."""


def assert_same_metrics(live_registry, reference_registry):
    """The live registry is the reference's restricted to what survives."""
    live = live_registry.to_dict()
    reference = reference_registry.to_dict()
    for kind in ("counters", "histograms"):
        assert not PER_ROUND & set(live[kind])
        reference[kind] = {
            name: value
            for name, value in reference[kind].items()
            if name not in PER_ROUND
        }
    assert live == reference


def canonical(value):
    """A value with its type and, for floats, its exact bit pattern."""
    if isinstance(value, float):
        return ("float", struct.pack("<d", value))
    if isinstance(value, deque):
        return ("deque", value.maxlen, [canonical(v) for v in value])
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [canonical(v) for v in value])
    if isinstance(value, np.random.Generator):
        return ("rng", value.bit_generator.state)
    return (type(value).__name__, value)


def state_of(obj, skip=()):
    """``obj``'s attributes, canonical: its ``__dict__``, or the slots of a
    slotted record (``TcpInfo`` has no ``__dict__``)."""
    if hasattr(obj, "__dict__"):
        attributes = vars(obj)
    else:
        attributes = {name: getattr(obj, name) for name in type(obj).__slots__}
    return {
        name: canonical(value)
        for name, value in attributes.items()
        if name not in skip
    }


class NeverDrawn:
    """The live BBR connection's loss generator: BBR ignores loss, so its
    round computes no loss flag and any draw is a defect."""

    def random(self):
        raise AssertionError("BBR's round drew from the loss generator")


def make_pair(link_kind, cc_kind, rate, rtt, seed):
    live_cc, reference_cc = CONTROLLERS[cc_kind]
    live = TcpConnection(
        LINKS[link_kind](rate, seed),
        base_rtt=rtt,
        cc=live_cc(),
        loss_rng=(
            NeverDrawn() if cc_kind == "bbr" else np.random.default_rng(seed + 1)
        ),
    )
    reference = ReferenceTcpConnection(
        LINKS[link_kind](rate, seed),
        base_rtt=rtt,
        cc=reference_cc(),
        loss_rng=np.random.default_rng(seed + 1),
    )
    return live, reference


def on_epoch_boundary(t):
    """The first ``k * EPOCH`` at or after ``t`` — a send landing exactly
    where ``int(t / epoch)`` alone names the wrong epoch."""
    k = epoch_index(t, EPOCH)
    while k * EPOCH < t:
        k += 1
    return k * EPOCH


def assert_same_step(live, reference, got, want):
    assert canonical(got.transmission_time) == canonical(want.transmission_time)
    assert got.rounds == want.rounds
    assert state_of(got.info_at_send) == state_of(want.info_at_send)
    skip = ("link", "cc")
    if isinstance(live.loss_rng, NeverDrawn):
        skip += ("loss_rng",)
    assert state_of(live, skip) == state_of(reference, skip)
    assert state_of(live.cc) == state_of(reference.cc)
    # The link realizes the same epochs from the same generator position.
    assert state_of(live.link) == state_of(reference.link)


def drive(live, reference, schedule, live_ctx=None, reference_ctx=None):
    """Send the same ``(size, gap, snap)`` schedule down both connections,
    each under its own obs context when given one, comparing after every
    chunk; returns the live results."""
    results = []
    for size, gap, snap in schedule:
        at = live.busy_until + gap
        if snap:
            at = on_epoch_boundary(at)
        with obs.activate(live_ctx):
            got = live.transmit(size, at)
        with obs.activate(reference_ctx):
            want = reference.transmit(size, at)
        assert_same_step(live, reference, got, want)
        results.append(got)
    return results


schedules = st.lists(
    st.tuples(
        st.one_of(st.floats(1.0, 5e4), st.floats(5e4, 6e6)),
        st.one_of(st.just(0.0), st.floats(0.0, 0.5), st.floats(0.5, 40.0)),
        st.booleans(),
    ),
    min_size=1,
    max_size=12,
)


@given(
    link_kind=st.sampled_from(sorted(LINKS)),
    cc_kind=st.sampled_from(sorted(CONTROLLERS)),
    rate=st.sampled_from([1.5e5, 8e5, 4e6, 3e7]),
    rtt=st.floats(0.004, 0.4),
    seed=st.integers(0, 10_000),
    schedule=schedules,
)
@settings(max_examples=150, deadline=None)
def test_transmit_matches_reference_bit_for_bit(
    link_kind, cc_kind, rate, rtt, seed, schedule
):
    live, reference = make_pair(link_kind, cc_kind, rate, rtt, seed)
    drive(live, reference, schedule)


def long_schedule(seed, n=60):
    rng = np.random.default_rng(seed)
    return [
        (
            float(rng.choice([3e3, 4e4, 3e5, 1.5e6, 5e6])),
            float(rng.choice([0.0, 0.0, 0.05, 1.0, 12.0])),
            bool(rng.random() < 0.3),
        )
        for _ in range(n)
    ]


@pytest.mark.parametrize("cc_kind", sorted(CONTROLLERS))
@pytest.mark.parametrize("link_kind", sorted(LINKS))
def test_long_session_matches_reference_with_obs_on_and_off(link_kind, cc_kind):
    schedule = long_schedule(7)
    live, reference = make_pair(link_kind, cc_kind, 8e5, 0.04, seed=11)
    plain = drive(live, reference, schedule)

    # Observed: the same loop runs (results equal to the unobserved pass)
    # and the registry equals the reference's, count for count.
    live, reference = make_pair(link_kind, cc_kind, 8e5, 0.04, seed=11)
    live_ctx, reference_ctx = obs.ObsContext(), obs.ObsContext()
    observed = drive(live, reference, schedule, live_ctx, reference_ctx)
    assert [state_of(r.info_at_send) for r in observed] == [
        state_of(r.info_at_send) for r in plain
    ]
    assert [(canonical(r.transmission_time), r.rounds) for r in observed] == [
        (canonical(r.transmission_time), r.rounds) for r in plain
    ]
    assert_same_metrics(live_ctx.metrics, reference_ctx.metrics)
    assert PER_ROUND & set(reference_ctx.metrics.counters)
    counters = live_ctx.metrics.counters
    assert counters["tcp.rounds"] == sum(r.rounds for r in observed)
    assert counters["tcp.transmissions"] == len(schedule)


def test_merged_registry_equals_the_references():
    """Per-connection contexts fold into the registry the reference's do —
    the shape a trial merges session shards in."""
    live_shards, reference_shards, total_rounds = [], [], 0
    drawn = dict.fromkeys(CONTROLLERS, 0)
    for seed, (link_kind, cc_kind) in enumerate(
        (kind, cc) for kind in sorted(LINKS) for cc in sorted(CONTROLLERS)
    ):
        live, reference = make_pair(link_kind, cc_kind, 4e5, 0.03, seed)
        live_ctx, reference_ctx = obs.ObsContext(), obs.ObsContext()
        results = drive(
            live, reference, long_schedule(seed, n=25), live_ctx, reference_ctx
        )
        total_rounds += sum(r.rounds for r in results)
        live_shards.append(live_ctx)
        reference_shards.append(reference_ctx)
        fresh = np.random.default_rng(seed + 1).bit_generator.state
        drawn[cc_kind] += reference.loss_rng.bit_generator.state != fresh
    merged = obs.merge_contexts(live_shards)
    expected = obs.merge_contexts(reference_shards)
    assert_same_metrics(merged.metrics, expected.metrics)
    assert merged.metrics.counters["tcp.rounds"] == total_rounds
    # The schedules reach the stochastic-loss branch under both controllers
    # (the reference's generator has advanced), or neither the comparison of
    # CUBIC's positions nor BBR's undrawn generator proves anything.
    assert all(drawn.values())


def send(live, reference, size, at):
    """One chunk down both connections, compared after it."""
    got = live.transmit(size, at)
    assert_same_step(live, reference, got, reference.transmit(size, at))
    return got


def preload(live, reference, samples, min_rtt, cwnd):
    """Put both BBR controllers in one filter state, out of STARTUP."""
    for cc in (live.cc, reference.cc):
        cc._bw_samples.clear()
        cc._bw_samples.extend(samples)
        cc._in_startup = False
        cc._min_rtt = min_rtt
        cc.cwnd_bytes = cwnd
    assert state_of(live.cc) == state_of(reference.cc)


def test_bbr_maximum_in_the_oldest_slot_of_a_full_filter():
    """The first sample evicts the maximum: the estimate must fall to the
    largest sample left, at once."""
    live, reference = make_pair("constant", "bbr", 8e6, 0.04, 0)
    older = [5e7] + [1e6 + 1e5 * k for k in range(9)]
    preload(live, reference, older, min_rtt=0.04, cwnd=5e5)
    send(live, reference, 4e6, 0.0)
    # The evicted maximum would have pinned the window at 2 BDP of 50 Mbit/s.
    assert max(live.cc._bw_samples) < 5e7
    assert live.cc.cwnd_bytes < 2.0 * 5e7 / 8.0 * 0.04


@pytest.mark.parametrize("copies", [1, 2, 5, 10])
def test_bbr_runs_of_equal_rates(copies):
    """Several copies of the maximum, then rounds below it: the estimate
    holds while any copy is in the deque and falls once the last one is
    evicted."""
    live, reference = make_pair("constant", "bbr", 8e6, 0.04, 0)
    top = 4e7
    older = [top] * copies + [2e6] * (10 - copies)
    preload(live, reference, older, min_rtt=0.04, cwnd=4e5)
    send(live, reference, 2e6, 0.0)
    send(live, reference, 6e6, live.busy_until)
    assert top not in live.cc._bw_samples


def test_bbr_fixed_point_rounds_append_equal_rates():
    """A long transfer on a constant link settles on one window whose
    rounds deliver the same rate again and again, so the filter fills with
    copies of its maximum and every append is a tie."""
    live, reference = make_pair("constant", "bbr", 8e6, 0.04, 0)
    for _ in range(4):
        send(live, reference, 8e6, live.busy_until)
    samples = list(live.cc._bw_samples)
    assert len(set(samples)) < len(samples)  # the filter holds ties


@pytest.mark.parametrize(
    "estimate, appended", [(1e5, True), (1e9, False)], ids=["above", "below"]
)
def test_bbr_app_limited_final_round(estimate, appended):
    """A chunk smaller than the window is one app-limited round: its rate
    joins the filter only above the estimate."""
    live, reference = make_pair("constant", "bbr", 3e7, 0.02, 0)
    preload(live, reference, [3e6, estimate], min_rtt=0.02, cwnd=2e5)
    assert send(live, reference, 5e4, 0.0).rounds == 1
    assert (len(live.cc._bw_samples) == 3) is appended


def test_bbr_idle_restart_reseeds_the_filter():
    """``on_idle`` rewrites the deque between chunks (one discounted
    sample); the next call must start from the rewritten deque, not from a
    maximum carried over from the last call."""
    live, reference = make_pair("constant", "bbr", 8e6, 0.04, 0)
    send(live, reference, 4e6, 0.0)
    assert len(live.cc._bw_samples) > 1
    send(live, reference, 4e6, live.busy_until + 30.0)
    send(live, reference, 4e6, live.busy_until)


@given(
    link_kind=st.sampled_from(sorted(LINKS)),
    seed=st.integers(0, 1000),
    t=st.one_of(
        st.floats(0.0, 500.0),
        st.integers(0, 2000).map(lambda k: k * EPOCH),
    ),
    fraction=st.floats(0.0, 1.0),
)
@settings(max_examples=200, deadline=None)
def test_capacity_is_constant_until_next_change(link_kind, seed, t, fraction):
    """What lets ``transmit`` look capacity up once per epoch: on
    ``[t, next_change_after(t))`` every query returns the capacity at ``t``
    — also for the last float before the change point, and with the change
    point itself already in the next interval."""
    link = LINKS[link_kind](2e6, seed)
    capacity = link.capacity_at(t)
    change_at = link.next_change_after(t)
    assert change_at > t
    if math.isinf(change_at):
        probes = [t + fraction * 1e4]
    else:
        probes = [
            t + fraction * (change_at - t),
            math.nextafter(change_at, -math.inf),
        ]
        assert link.next_change_after(change_at) > change_at
    for probe in probes:
        if t <= probe < change_at:
            assert link.capacity_at(probe) == capacity
            assert link.next_change_after(probe) == change_at

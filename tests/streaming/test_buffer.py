"""Tests for repro.streaming.buffer — playback buffer dynamics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streaming.buffer import (
    BUFFER_EPSILON_S,
    MAX_BUFFER_S,
    PlaybackBuffer,
)


class TestPlaybackBuffer:
    def test_starts_empty(self):
        assert PlaybackBuffer().level_s == 0.0

    def test_cap_is_fifteen_seconds(self):
        # Puffer's player caps the buffer at 15 s (§3.3).
        assert MAX_BUFFER_S == 15.0

    def test_add_and_drain(self):
        buf = PlaybackBuffer()
        buf.add(2.002)
        stall = buf.drain(1.0)
        assert stall == 0.0
        assert buf.level_s == pytest.approx(1.002)

    def test_drain_past_empty_reports_stall(self):
        buf = PlaybackBuffer()
        buf.add(2.0)
        stall = buf.drain(3.5)
        assert stall == pytest.approx(1.5)
        assert buf.level_s == 0.0

    def test_overflow_raises(self):
        buf = PlaybackBuffer(max_buffer_s=4.0)
        buf.add(2.002)
        buf.add(1.9)
        with pytest.raises(RuntimeError, match="overflow"):
            buf.add(2.002)

    def test_room_for(self):
        buf = PlaybackBuffer(max_buffer_s=4.0)
        buf.add(2.0)
        assert buf.room_for(2.0)
        assert not buf.room_for(2.5)

    def test_time_until_room(self):
        buf = PlaybackBuffer(max_buffer_s=4.0)
        buf.add(3.0)
        assert buf.time_until_room(2.0) == pytest.approx(1.0)
        assert buf.time_until_room(1.0) == 0.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            PlaybackBuffer(max_buffer_s=0.0)
        buf = PlaybackBuffer()
        with pytest.raises(ValueError):
            buf.add(0.0)
        with pytest.raises(ValueError):
            buf.drain(-1.0)

    @pytest.mark.parametrize("cap", [float("nan"), -15.0, float("inf")])
    def test_absurd_cap_rejected(self, cap):
        # nan <= 0 is False: a plain sign check let a NaN cap through.
        with pytest.raises(ValueError, match="max_buffer_s"):
            PlaybackBuffer(cap)

    @given(
        st.lists(
            st.tuples(st.floats(0.1, 2.0), st.floats(0.0, 3.0)),
            min_size=1,
            max_size=50,
        )
    )
    def test_level_never_negative_never_above_cap(self, operations):
        buf = PlaybackBuffer()
        for add_s, drain_s in operations:
            if buf.room_for(add_s):
                buf.add(add_s)
            buf.drain(drain_s)
            assert 0.0 <= buf.level_s <= buf.max_buffer_s + 1e-9

    @given(st.lists(st.floats(0.01, 5.0), min_size=1, max_size=40))
    def test_conservation(self, drains):
        # Video drained as playback + stall shortfall == requested play time.
        buf = PlaybackBuffer(max_buffer_s=1000.0)
        buf.add(10.0)
        total_played = 0.0
        total_stall = 0.0
        for d in drains:
            level_before = buf.level_s
            stall = buf.drain(d)
            total_stall += stall
            total_played += min(d, level_before)
        assert total_played + total_stall == pytest.approx(sum(drains))


class TestEpsilonContract:
    """``add()`` must never raise after ``room_for()`` said True.

    Both checks share ``BUFFER_EPSILON_S``; a second, divergent tolerance
    (the pre-unification state: a literal ``1e-9`` in one place and a
    different slack in the other) opens a gap where accumulated rounding in
    ``level_s`` passes one check and fails the other.
    """

    def test_single_named_epsilon(self):
        assert BUFFER_EPSILON_S == 1e-9

    @given(
        st.lists(
            st.tuples(
                st.floats(0.001, 4.0),
                st.floats(0.0, 4.0),
            ),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_add_never_raises_after_room_for(self, operations):
        buf = PlaybackBuffer()
        for add_s, drain_s in operations:
            if buf.room_for(add_s):
                buf.add(add_s)  # must not raise: same epsilon as room_for
            buf.drain(drain_s)

    @given(st.floats(0.001, 15.0))
    @settings(max_examples=100, deadline=None)
    def test_exactly_filling_chunk_admitted(self, first):
        # The remainder computed as cap - level is admitted even when
        # level + (cap - level) lands a rounding step above the cap.
        buf = PlaybackBuffer()
        buf.add(first)
        rest = buf.max_buffer_s - buf.level_s
        if rest > 0:
            assert buf.room_for(rest)
            buf.add(rest)

    def test_beyond_epsilon_still_raises(self):
        buf = PlaybackBuffer()
        buf.add(MAX_BUFFER_S)
        assert not buf.room_for(0.001)
        with pytest.raises(RuntimeError):
            buf.add(0.001)

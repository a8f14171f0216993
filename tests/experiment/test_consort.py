"""Tests for repro.experiment.consort — CONSORT flow accounting (Fig. A1)."""

import pytest

from repro.experiment.consort import (
    EXCLUDED,
    MIN_WATCH_TIME_S,
    ConsortArm,
    ConsortFlow,
    classify_stream,
    eligible_streams,
)
from repro.experiment.harness import RandomizedTrial, TrialConfig
from repro.streaming.session import StreamResult

from tests.fleet.conftest import classical_specs


def stream(play=10.0, stall=0.0, startup=0.5, never=False, excluded=False):
    return StreamResult(
        stream_id=0, scheme_name="x", play_time=play, stall_time=stall,
        startup_delay=None if never else startup, total_time=play + stall,
        never_began=never, excluded=excluded,
    )


class TestClassify:
    def test_considered(self):
        assert classify_stream(stream()) == "considered"

    def test_never_began(self):
        assert classify_stream(stream(never=True)) == "did_not_begin"

    def test_missing_startup(self):
        s = stream()
        s.startup_delay = None
        assert classify_stream(s) == "did_not_begin"

    def test_under_four_seconds(self):
        assert classify_stream(stream(play=3.0)) == "watch_time_under_4s"
        assert MIN_WATCH_TIME_S == 4.0

    def test_exactly_four_seconds_considered(self):
        assert classify_stream(stream(play=4.0)) == "considered"

    def test_slow_decoder_exclusion(self):
        assert classify_stream(stream(excluded=True)) == "slow_video_decoder"

    def test_eligible_filter(self):
        streams = [stream(), stream(play=1.0), stream(never=True)]
        assert len(eligible_streams(streams)) == 1


class TestConsortFlow:
    def make_arm(self):
        arm = ConsortArm(scheme="x")
        arm.sessions_assigned = 10
        arm.streams_assigned = 30
        arm.did_not_begin = 8
        arm.watch_time_under_4s = 10
        arm.slow_video_decoder = 1
        arm.considered = 11
        arm.considered_watch_time_s = 5000.0
        return arm

    def test_arm_consistency_check(self):
        arm = self.make_arm()
        arm.check()  # must not raise
        arm.considered = 5
        with pytest.raises(ValueError, match="excluded"):
            arm.check()

    def test_excluded_total(self):
        assert self.make_arm().excluded == 19

    def test_flow_aggregates(self):
        flow = ConsortFlow()
        flow.arms["a"] = self.make_arm()
        b = self.make_arm()
        b.scheme = "b"
        flow.arms["b"] = b
        assert flow.sessions_randomized == 20
        assert flow.streams_total == 60
        assert flow.streams_considered == 22
        assert flow.considered_watch_years == pytest.approx(
            10000.0 / (365.25 * 24 * 3600)
        )

    def test_arm_accessor_creates(self):
        flow = ConsortFlow()
        arm = flow.arm("fugu")
        assert arm.scheme == "fugu"
        assert flow.arm("fugu") is arm


class TestSessionTallies:
    """``session_machine`` counts each stream under the tally its final
    category names, so every tally equals the arm's streams that
    :func:`classify_stream` puts there."""

    @pytest.mark.parametrize("slow_decoder_prob", [0.0, 1.0])
    def test_each_tally_counts_its_category(self, slow_decoder_prob):
        config = TrialConfig(
            n_sessions=12, seed=3, slow_decoder_prob=slow_decoder_prob,
            loss_of_contact_prob=1.0,
        )
        trial = RandomizedTrial(classical_specs(), config).run()
        for name, arm in trial.consort.arms.items():
            streams = [
                stream for session in trial.sessions
                if session.scheme == name for stream in session.streams
            ]
            for category in (*EXCLUDED, "considered"):
                assert getattr(arm, category) == sum(
                    classify_stream(stream) == category for stream in streams
                ), (name, category)
            assert arm.streams_assigned == len(streams)
            # Every considered stream draws (and here loses) contact.
            assert arm.truncated_loss_of_contact == arm.considered
        totals = {
            category: sum(
                getattr(arm, category) for arm in trial.consort.arms.values()
            )
            for category in (*EXCLUDED, "considered")
        }
        if slow_decoder_prob:
            assert totals["considered"] == 0
            assert totals["slow_video_decoder"] > 0
        else:
            assert totals["considered"] > 0
            assert totals["slow_video_decoder"] == 0

    def test_merge_adds_every_tally(self):
        arm = ConsortArm(scheme="x", considered_watch_time_s=1.5)
        other = ConsortArm(
            scheme="x", **{category: 2 for category in EXCLUDED},
            considered_watch_time_s=2.0,
        )
        arm.merge_from(other)
        assert [getattr(arm, c) for c in EXCLUDED] == [2, 2, 2]
        assert arm.considered_watch_time_s == 3.5
        assert arm.excluded == 6

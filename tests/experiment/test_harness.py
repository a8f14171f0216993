"""Tests for repro.experiment.harness — the RCT machinery.

These run the trial at a small scale: correctness of randomization,
blinding, CONSORT accounting, and telemetry, not statistical power.
"""

import numpy as np
import pytest

from repro.abr.pensieve import ActorCritic
from repro.core.ttp import TransmissionTimePredictor
from repro.experiment.harness import RandomizedTrial, TrialConfig
from repro.experiment.schemes import primary_experiment_schemes
from repro.experiment.watch import ViewerModel


@pytest.fixture(scope="module")
def small_trial():
    specs = primary_experiment_schemes(
        TransmissionTimePredictor(seed=0), ActorCritic(seed=0)
    )
    config = TrialConfig(n_sessions=60, seed=5, collect_telemetry=True)
    return RandomizedTrial(specs, config).run()


class TestRandomization:
    def test_all_sessions_assigned(self, small_trial):
        assert len(small_trial.sessions) == 60
        assert small_trial.consort.sessions_randomized == 60

    def test_assignment_covers_schemes(self, small_trial):
        assigned = {s.scheme for s in small_trial.sessions}
        assert len(assigned) >= 4  # 5 schemes, 60 sessions

    def test_assignment_is_session_level(self, small_trial):
        # Every stream in a session shares the session's scheme.
        for session in small_trial.sessions:
            assert all(
                stream.scheme_name == session.scheme
                for stream in session.streams
            )

    def test_blinding_expt_ids_opaque(self, small_trial):
        # expt_id is a shuffled opaque id, not the registry position.
        ids = small_trial.expt_ids
        assert sorted(ids.values()) == [1, 2, 3, 4, 5]
        for session in small_trial.sessions:
            assert session.expt_id == ids[session.scheme]

    def test_deterministic_given_seed(self):
        specs = primary_experiment_schemes(
            TransmissionTimePredictor(seed=0), ActorCritic(seed=0)
        )
        config = TrialConfig(n_sessions=10, seed=9)
        a = RandomizedTrial(specs, config).run()
        specs2 = primary_experiment_schemes(
            TransmissionTimePredictor(seed=0), ActorCritic(seed=0)
        )
        b = RandomizedTrial(specs2, config).run()
        assert [s.scheme for s in a.sessions] == [s.scheme for s in b.sessions]
        assert a.consort.streams_total == b.consort.streams_total


class TestConsortAccounting:
    def test_flow_consistency(self, small_trial):
        small_trial.consort.check()

    def test_sessions_contain_multiple_streams(self, small_trial):
        counts = [len(s.streams) for s in small_trial.sessions]
        assert max(counts) > 1
        assert small_trial.consort.streams_total == sum(counts)

    def test_exclusion_categories_populated(self, small_trial):
        flow = small_trial.consort
        total_excluded = sum(a.excluded for a in flow.arms.values())
        assert total_excluded > 0
        assert flow.streams_considered > 0

    def test_considered_streams_meet_minimum_watch(self, small_trial):
        for name in small_trial.scheme_names:
            for stream in small_trial.streams_for(name):
                assert stream.watch_time >= 4.0


class TestResults:
    def test_session_duration_sums_streams(self, small_trial):
        for session in small_trial.sessions:
            assert session.duration == pytest.approx(
                sum(s.total_time for s in session.streams)
            )

    def test_telemetry_collected(self, small_trial):
        assert small_trial.telemetry is not None
        assert len(small_trial.telemetry.video_sent) > 0
        # expt_ids in telemetry match the assignment map.
        valid_ids = set(small_trial.expt_ids.values())
        assert {r.expt_id for r in small_trial.telemetry.video_sent} <= valid_ids

    def test_streams_for_filters_eligibility(self, small_trial):
        for name in small_trial.scheme_names:
            eligible = small_trial.streams_for(name)
            all_streams = small_trial.all_streams_for(name)
            assert len(eligible) <= len(all_streams)


class TestValidation:
    def test_duplicate_scheme_names_rejected(self):
        specs = primary_experiment_schemes(
            TransmissionTimePredictor(seed=0), ActorCritic(seed=0)
        )
        with pytest.raises(ValueError, match="unique"):
            RandomizedTrial(specs + [specs[0]], TrialConfig(n_sessions=1))

    def test_empty_schemes_rejected(self):
        with pytest.raises(ValueError):
            RandomizedTrial([], TrialConfig(n_sessions=1))

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            TrialConfig(n_sessions=0)
        with pytest.raises(ValueError):
            TrialConfig(extra_stream_prob=1.0)
        with pytest.raises(ValueError):
            TrialConfig(max_streams_per_session=0)

    @pytest.mark.parametrize(
        "field", ["slow_decoder_prob", "loss_of_contact_prob"]
    )
    @pytest.mark.parametrize("value", [float("nan"), -1.0, 7.0])
    def test_probabilities_outside_the_unit_interval_rejected(
        self, field, value
    ):
        with pytest.raises(ValueError, match=field):
            TrialConfig(**{field: value})
        assert getattr(TrialConfig(**{field: 1.0}), field) == 1.0

    def test_an_empty_channel_list_is_rejected_up_front(self):
        # Used to surface as numpy's "high <= 0" from inside a session.
        with pytest.raises(ValueError, match="channels"):
            TrialConfig(channels=())

"""Tests for repro.experiment.presets — trial scale presets."""

import pytest

from repro.experiment.presets import (
    PAPER_SESSIONS,
    bench_trial_config,
    paper_scale_trial_config,
    smoke_trial_config,
)


class TestPresets:
    def test_scales_ordered(self):
        smoke = smoke_trial_config()
        bench = bench_trial_config()
        paper = paper_scale_trial_config()
        assert smoke.n_sessions < bench.n_sessions < paper.n_sessions

    def test_paper_session_count_matches_figA1(self):
        assert PAPER_SESSIONS == 337_170
        assert paper_scale_trial_config().n_sessions == PAPER_SESSIONS

    def test_paper_viewer_time_scale(self):
        config = paper_scale_trial_config()
        assert config.viewer.tail_threshold_s == 2.5 * 3600.0

    def test_smoke_trial_runs_quickly(self):
        from repro.abr.pensieve.model import ActorCritic
        from repro.core.ttp import TransmissionTimePredictor
        from repro.experiment.harness import RandomizedTrial
        from repro.experiment.schemes import primary_experiment_schemes

        specs = primary_experiment_schemes(
            TransmissionTimePredictor(seed=0), ActorCritic(seed=0)
        )
        trial = RandomizedTrial(specs, smoke_trial_config(seed=1)).run()
        assert trial.consort.sessions_randomized == 50
        assert trial.consort.streams_considered > 0

    def test_bench_config_parameterized(self):
        assert bench_trial_config(n_sessions=77).n_sessions == 77

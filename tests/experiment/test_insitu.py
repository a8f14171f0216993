"""Tests for repro.experiment.insitu — the in-situ training loop.

Small scales only; statistical quality is exercised by the benchmarks.
"""

import numpy as np
import pytest

from repro.abr.bba import BBA
from repro.core.fugu import Fugu
from repro.experiment.insitu import (
    InSituTrainingConfig,
    deploy_and_collect,
    train_fugu_in_situ,
    train_pensieve_in_simulation,
)


class TestDeployAndCollect:
    def test_returns_eligible_streams(self):
        streams = deploy_and_collect([BBA()], 6, seed=0, watch_time_s=60.0)
        assert streams
        assert all(s.watch_time >= 4.0 for s in streams)

    def test_round_robin_over_algorithms(self):
        a, b = BBA(), BBA(upper_reservoir_fraction=0.9)
        a.name, b.name = "a", "b"
        streams = deploy_and_collect([a, b], 6, seed=0, watch_time_s=30.0)
        names = {s.scheme_name for s in streams}
        # scheme_name is set by the simulator from the algorithm name.
        assert names <= {"a", "b", "bba"}

    def test_validation(self):
        with pytest.raises(ValueError):
            deploy_and_collect([], 5, seed=0)
        with pytest.raises(ValueError):
            deploy_and_collect([BBA()], 0, seed=0)

    def test_deterministic_given_seed(self):
        a = deploy_and_collect([BBA()], 4, seed=3, watch_time_s=30.0)
        b = deploy_and_collect([BBA()], 4, seed=3, watch_time_s=30.0)
        assert [s.play_time for s in a] == [s.play_time for s in b]


class TestTrainFuguInSitu:
    def test_small_training_run(self):
        config = InSituTrainingConfig(
            bootstrap_streams=8, iteration_streams=8, iterations=1,
            epochs=2, watch_time_s=60.0, seed=0,
        )
        predictor = train_fugu_in_situ(config)
        assert predictor.config.horizon == 5
        # The result wraps into a working scheme.
        fugu = Fugu(predictor)
        streams = deploy_and_collect([fugu], 3, seed=1, watch_time_s=40.0)
        assert streams

    def test_tail_calibrated_from_data(self):
        config = InSituTrainingConfig(
            bootstrap_streams=8, iteration_streams=8, iterations=0,
            epochs=1, watch_time_s=60.0, seed=0,
        )
        predictor = train_fugu_in_situ(config)
        assert predictor.tail_center_s >= 10.0


class TestTrainPensieve:
    def test_small_training_run(self):
        model = train_pensieve_in_simulation(
            episodes=10, n_traces=4, seed=0, chunks_per_episode=15
        )
        from repro.abr.pensieve.model import PENSIEVE_STATE_DIM

        p = model.action_probabilities(np.zeros(PENSIEVE_STATE_DIM))
        assert p.shape[1] == 10

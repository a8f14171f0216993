"""Reproducibility: every pipeline is a pure function of its seeds.

The repository's claims depend on re-runnable experiments; these tests pin
bit-for-bit determinism of the simulators, the trainers, and the trial
harness across repeated invocations within a process.
"""

import numpy as np

from repro.abr.bba import BBA
from repro.core.train import TtpTrainer, build_ttp_datasets
from repro.core.ttp import TransmissionTimePredictor, TtpConfig
from repro.experiment.harness import RandomizedTrial, TrialConfig
from repro.experiment.insitu import deploy_and_collect
from repro.experiment.schemes import primary_experiment_schemes


def _stream_fingerprint(results):
    return [
        (
            len(r.records),
            round(r.play_time, 9),
            round(r.stall_time, 9),
            round(r.mean_ssim_db, 9) if r.records else None,
        )
        for r in results
    ]


class TestDeterminism:
    def test_deployment_fingerprint_stable(self):
        a = deploy_and_collect([BBA()], 8, seed=21, watch_time_s=60.0)
        b = deploy_and_collect([BBA()], 8, seed=21, watch_time_s=60.0)
        assert _stream_fingerprint(a) == _stream_fingerprint(b)

    def test_ttp_training_weights_identical(self):
        streams = deploy_and_collect([BBA()], 6, seed=22, watch_time_s=60.0)

        def train_once():
            predictor = TransmissionTimePredictor(TtpConfig(horizon=1), seed=5)
            TtpTrainer(predictor, epochs=3, seed=5).train(
                build_ttp_datasets(streams, predictor)
            )
            return predictor.models[0].state_dict()

        a, b = train_once(), train_once()
        for name in a["weights"]:
            np.testing.assert_array_equal(a["weights"][name], b["weights"][name])

    def test_trial_fingerprint_stable(self):
        from repro.abr.pensieve.model import ActorCritic

        def run_once():
            specs = primary_experiment_schemes(
                TransmissionTimePredictor(seed=0), ActorCritic(seed=0)
            )
            trial = RandomizedTrial(
                specs, TrialConfig(n_sessions=20, seed=13)
            ).run()
            return [
                (s.scheme, len(s.streams), round(s.duration, 9))
                for s in trial.sessions
            ]

        assert run_once() == run_once()

    def test_emulation_fingerprint_stable(self):
        from repro.emulation.env import EmulationEnvironment

        env_a = EmulationEnvironment(n_traces=2, seed=3)
        env_b = EmulationEnvironment(n_traces=2, seed=3)
        a = env_a.run_scheme(BBA(), seed=1)
        b = env_b.run_scheme(BBA(), seed=1)
        assert _stream_fingerprint(a) == _stream_fingerprint(b)

    def test_pensieve_training_deterministic(self):
        from repro.abr.pensieve.model import ActorCritic
        from repro.abr.pensieve.train import (
            PensieveTrainer,
            PensieveTrainingConfig,
            SimpleChunkEnv,
        )
        from repro.traces.fcc import generate_fcc_dataset

        def train_once():
            traces = generate_fcc_dataset(3, seed=4)
            env = SimpleChunkEnv(traces, chunks_per_episode=10, seed=4)
            model = ActorCritic(seed=4)
            PensieveTrainer(
                model, env, PensieveTrainingConfig(episodes=5, seed=4)
            ).train()
            return model.actor.state_dict()

        a, b = train_once(), train_once()
        for name in a["weights"]:
            np.testing.assert_array_equal(a["weights"][name], b["weights"][name])

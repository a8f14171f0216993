"""Integration tests: full pipelines across subsystem boundaries."""

import numpy as np
import pytest

from repro.abr.bba import BBA
from repro.abr.bola import Bola
from repro.abr.mpc import MpcHm, RobustMpcHm
from repro.abr.pensieve.model import ActorCritic
from repro.abr.pensieve.policy import Pensieve
from repro.abr.rate_based import RateBased
from repro.core.fugu import Fugu
from repro.core.train import TtpTrainer, build_ttp_datasets
from repro.core.ttp import TransmissionTimePredictor, TtpConfig
from repro.experiment.harness import RandomizedTrial, TrialConfig
from repro.experiment.insitu import (
    InSituTrainingConfig,
    deploy_and_collect,
    train_fugu_in_situ,
)
from repro.experiment.schemes import primary_experiment_schemes
from repro.media.encoder import VbrEncoder
from repro.media.source import DEFAULT_CHANNELS, VideoSource
from repro.net.link import HeavyTailLink
from repro.net.tcp import TcpConnection
from repro.streaming.simulator import simulate_stream


def run_one(abr, seed=0, base_bps=8e6, watch=60.0):
    rng = np.random.default_rng(seed)
    source = VideoSource(DEFAULT_CHANNELS[0], rng=rng)
    encoder = VbrEncoder(rng=rng)
    link = HeavyTailLink(base_bps=base_bps, seed=seed)
    conn = TcpConnection(link, base_rtt=0.05)
    return simulate_stream(
        encoder.stream(source), abr, conn, watch_time_s=watch, stream_id=seed
    )


class TestEverySchemeStreams:
    @pytest.mark.parametrize(
        "abr_factory",
        [
            BBA,
            MpcHm,
            RobustMpcHm,
            RateBased,
            Bola,
            lambda: Pensieve(ActorCritic(seed=0)),
            lambda: Fugu(TransmissionTimePredictor(seed=0)),
        ],
    )
    def test_scheme_completes_stream(self, abr_factory):
        result = run_one(abr_factory())
        assert len(result.records) > 10
        assert result.watch_time > 0
        assert result.stall_ratio < 1.0

    def test_all_schemes_adapt_to_slow_path(self):
        # On a 1 Mbps path, every scheme must settle below the top rung.
        for abr in (BBA(), MpcHm(), RobustMpcHm(), RateBased()):
            result = run_one(abr, base_bps=1e6, watch=120.0)
            late_rungs = [r.rung for r in result.records[20:]]
            assert late_rungs, f"{abr.name} sent too few chunks"
            assert np.mean(late_rungs) < 8, abr.name


class TestTrainedFuguQuality:
    def test_in_situ_fugu_streams_well_on_fast_path(self):
        predictor = train_fugu_in_situ(
            InSituTrainingConfig(
                bootstrap_streams=20, iteration_streams=10, iterations=1,
                epochs=4, watch_time_s=90.0, seed=0,
            )
        )
        fugu = Fugu(predictor)
        result = run_one(fugu, seed=101, base_bps=3e7, watch=90.0)
        # A trained Fugu uses a fast path: mean rung well above the floor.
        assert np.mean([r.rung for r in result.records]) > 4
        assert result.stall_ratio < 0.05

    def test_ttp_accuracy_improves_with_training(self):
        streams = deploy_and_collect([BBA()], 16, seed=3, watch_time_s=90.0)
        predictor = TransmissionTimePredictor(TtpConfig(horizon=1), seed=0)
        datasets = build_ttp_datasets(streams, predictor)
        trainer = TtpTrainer(predictor, epochs=6, seed=0)
        before = trainer.evaluate(datasets[0]).cross_entropy
        trainer.train(datasets)
        after = trainer.evaluate(datasets[0]).cross_entropy
        assert after < before


class TestSmallTrialPipeline:
    def test_trial_to_summary_pipeline(self):
        from repro.analysis.summary import results_table, summarize_scheme

        specs = primary_experiment_schemes(
            TransmissionTimePredictor(seed=0), ActorCritic(seed=0)
        )
        trial = RandomizedTrial(
            specs, TrialConfig(n_sessions=40, seed=1)
        ).run()
        summaries = []
        for name in trial.scheme_names:
            streams = trial.streams_for(name)
            if streams:
                summaries.append(
                    summarize_scheme(
                        name, streams, trial.session_durations_for(name),
                        n_resamples=60,
                    )
                )
        table = results_table(summaries)
        assert len(table) >= 3
        for row in table.values():
            assert 0 <= row["time_stalled_percent"] <= 100
            assert 0 < row["mean_ssim_db"] < 30

    def test_connection_state_persists_across_session_streams(self):
        # Channel changes reuse the TCP connection (§3.2): later streams in
        # a session should start with a delivery-rate estimate.
        specs = primary_experiment_schemes(
            TransmissionTimePredictor(seed=0), ActorCritic(seed=0)
        )[:1]
        config = TrialConfig(n_sessions=40, seed=2, collect_telemetry=True)
        trial = RandomizedTrial(specs, config).run()
        multi = [s for s in trial.sessions if len(s.streams) >= 2]
        assert multi
        warm_start_found = False
        for session in multi:
            for stream in session.streams[1:]:
                if stream.records and stream.records[0].info_at_send.delivery_rate > 0:
                    warm_start_found = True
        assert warm_start_found

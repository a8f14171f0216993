"""Tests for repro.abr.cs2p — the HMM throughput predictor and CS2P-MPC."""

import numpy as np
import pytest

from repro.abr.base import AbrContext, ChunkRecord
from repro.abr.cs2p import (
    Cs2pMpc,
    Cs2pPredictor,
    DiscreteThroughputHmm,
    throughput_series_from_streams,
)
from repro.media.encoder import encode_clip
from repro.media.source import DEFAULT_CHANNELS
from repro.net.tcp import TcpInfo


def make_markov_series(n_series=20, length=80, seed=0):
    """Sessions whose throughput genuinely follows 2 discrete states."""
    rng = np.random.default_rng(seed)
    series = []
    for _ in range(n_series):
        state = rng.integers(2)
        seq = []
        for _ in range(length):
            if rng.random() < 0.05:
                state = 1 - state
            level = (1e6, 1e7)[state]
            seq.append(level * np.exp(rng.normal(0, 0.1)))
        series.append(seq)
    return series


def info():
    return TcpInfo(cwnd=10, in_flight=0, min_rtt=0.05, rtt=0.05, delivery_rate=0)


class TestHmmTraining:
    def test_em_increases_likelihood(self):
        series = make_markov_series()
        hmm = DiscreteThroughputHmm(n_states=2, seed=0)
        before = hmm.log_likelihood(series)
        fit = hmm.fit(series, max_iterations=20)
        after = hmm.log_likelihood(series)
        assert after > before
        assert fit.iterations >= 1

    def test_recovers_two_states(self):
        series = make_markov_series(seed=1)
        hmm = DiscreteThroughputHmm(n_states=2, seed=1)
        hmm.fit(series, max_iterations=30)
        learned_levels = np.exp(hmm.means)
        assert learned_levels[0] == pytest.approx(1e6, rel=0.4)
        assert learned_levels[1] == pytest.approx(1e7, rel=0.4)

    def test_learned_states_are_sticky(self):
        series = make_markov_series(seed=2)
        hmm = DiscreteThroughputHmm(n_states=2, seed=2)
        hmm.fit(series, max_iterations=30)
        assert hmm.transition[0, 0] > 0.7
        assert hmm.transition[1, 1] > 0.7

    def test_model_mismatch_on_continuous_evolution(self):
        # The Fig. 2 point: an HMM fit on discrete-state data explains that
        # world far better than the heavy-tailed continuous world.
        from repro.net.link import HeavyTailLink

        markov_series = make_markov_series(seed=3)
        continuous_series = [
            HeavyTailLink(base_bps=3e6, fade_rate=0.0, seed=s).sample_epochs(
                80, epoch=1.0
            )
            for s in range(20)
        ]
        hmm = DiscreteThroughputHmm(n_states=2, seed=3)
        hmm.fit(markov_series, max_iterations=25)
        assert hmm.log_likelihood(markov_series) > hmm.log_likelihood(
            continuous_series
        )

    def test_invalid_input(self):
        with pytest.raises(ValueError):
            DiscreteThroughputHmm(n_states=0)
        hmm = DiscreteThroughputHmm(n_states=2)
        with pytest.raises(ValueError):
            hmm.fit([])
        with pytest.raises(ValueError):
            hmm.log_likelihood([[]])


class TestPrediction:
    def trained(self, seed=4):
        hmm = DiscreteThroughputHmm(n_states=2, seed=seed)
        hmm.fit(make_markov_series(seed=seed), max_iterations=25)
        return hmm

    def test_belief_tracks_observations(self):
        hmm = self.trained()
        slow_belief = hmm.state_belief([1e6] * 10)
        fast_belief = hmm.state_belief([1e7] * 10)
        assert slow_belief[0] > 0.9
        assert fast_belief[1] > 0.9

    def test_prediction_follows_belief(self):
        hmm = self.trained()
        slow = hmm.predict_throughput(hmm.state_belief([1e6] * 10))
        fast = hmm.predict_throughput(hmm.state_belief([1e7] * 10))
        assert fast > 3 * slow

    def test_empty_history_uses_prior(self):
        hmm = self.trained()
        prior = hmm.predict_throughput(hmm.state_belief([]))
        assert 1e5 < prior < 1e8

    def test_steps_ahead_validation(self):
        hmm = self.trained()
        with pytest.raises(ValueError):
            hmm.predict_throughput(hmm.state_belief([1e6]), steps_ahead=0)


class TestCs2pMpc:
    def record(self, i, throughput):
        size = 5e5
        return ChunkRecord(
            chunk_index=i, rung=5, size_bytes=size, ssim_db=15.0,
            transmission_time=size * 8 / throughput, info_at_send=info(),
            send_time=i * 2.0,
        )

    def test_adapts_to_state(self):
        hmm = DiscreteThroughputHmm(n_states=2, seed=5)
        hmm.fit(make_markov_series(seed=5), max_iterations=25)
        scheme = Cs2pMpc(hmm)
        menus = encode_clip(DEFAULT_CHANNELS[0], 8, seed=0)
        slow_ctx = AbrContext(
            lookahead=menus, buffer_s=8.0, tcp_info=info(),
            history=[self.record(i, 1e6) for i in range(10)],
        )
        fast_ctx = AbrContext(
            lookahead=menus, buffer_s=8.0, tcp_info=info(),
            history=[self.record(i, 1e7) for i in range(10)],
        )
        assert scheme.choose(fast_ctx) > scheme.choose(slow_ctx)

    def test_streams_end_to_end(self):
        from repro.net.link import ConstantLink
        from repro.net.tcp import TcpConnection
        from repro.streaming.simulator import simulate_stream

        hmm = DiscreteThroughputHmm(n_states=2, seed=6)
        hmm.fit(make_markov_series(seed=6), max_iterations=20)
        result = simulate_stream(
            iter(encode_clip(DEFAULT_CHANNELS[0], 60, seed=1)),
            Cs2pMpc(hmm),
            TcpConnection(ConstantLink(6e6), base_rtt=0.05),
            watch_time_s=60.0,
        )
        assert len(result.records) > 10


class TestSeriesExtraction:
    def test_extracts_throughputs(self):
        from repro.streaming.session import StreamResult

        records = [self_record(i) for i in range(5)]
        stream = StreamResult(0, "x", records=records)
        series = throughput_series_from_streams([stream])
        assert len(series) == 1
        assert len(series[0]) == 5

    def test_skips_short_streams(self):
        from repro.streaming.session import StreamResult

        stream = StreamResult(0, "x", records=[self_record(0)])
        assert throughput_series_from_streams([stream]) == []


def self_record(i):
    return ChunkRecord(
        chunk_index=i, rung=5, size_bytes=5e5, ssim_db=15.0,
        transmission_time=1.0, info_at_send=info(), send_time=i * 2.0,
    )

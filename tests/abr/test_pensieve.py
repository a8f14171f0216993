"""Tests for repro.abr.pensieve — model, training env, A2C, policy."""

import numpy as np
import pytest

from repro.abr.base import AbrContext, ChunkRecord
from repro.abr.pensieve.model import ActorCritic, PENSIEVE_STATE_DIM
from repro.abr.pensieve.policy import Pensieve
from repro.abr.pensieve.train import (
    PensieveTrainer,
    PensieveTrainingConfig,
    SimpleChunkEnv,
)
from repro.abr.pensieve.model import encode_state
from repro.media.encoder import encode_clip
from repro.media.ladder import PUFFER_LADDER
from repro.media.source import DEFAULT_CHANNELS
from repro.net.tcp import TcpInfo
from repro.traces.fcc import generate_fcc_dataset


def info():
    return TcpInfo(cwnd=10, in_flight=0, min_rtt=0.05, rtt=0.05, delivery_rate=0)


class TestStateEncoding:
    def test_dimension(self):
        state = encode_state(None, 0.0, [], PUFFER_LADDER.bitrates)
        assert state.shape == (PENSIEVE_STATE_DIM,)

    def test_zero_padded_history(self):
        state = encode_state(None, 0.0, [], PUFFER_LADDER.bitrates)
        assert np.all(state[2:18] == 0.0)

    def test_history_fills_most_recent_slots(self):
        rec = ChunkRecord(0, 3, 1_000_000, 12.0, 1.0, info(), 0.0)
        state = encode_state(None, 0.0, [rec], PUFFER_LADDER.bitrates)
        throughputs = state[2:10]
        assert throughputs[-1] > 0
        assert np.all(throughputs[:-1] == 0)

    def test_features_clipped_to_training_range(self):
        # 1000 Mbps observed throughput must not exceed the clip.
        rec = ChunkRecord(0, 3, 25_000_000, 12.0, 0.2, info(), 0.0)
        state = encode_state(None, 0.0, [rec], PUFFER_LADDER.bitrates)
        assert state[2:18].max() <= 1.0 + 1e-9

    def test_wrong_ladder_size_rejected(self):
        with pytest.raises(ValueError):
            encode_state(None, 0.0, [], [1e6] * 5)


class TestActorCritic:
    def test_probabilities_normalized(self):
        model = ActorCritic(seed=0)
        p = model.action_probabilities(np.zeros(PENSIEVE_STATE_DIM))
        assert p.shape == (1, 10)
        np.testing.assert_allclose(p.sum(), 1.0)

    def test_greedy_is_argmax(self):
        model = ActorCritic(seed=0)
        state = np.random.default_rng(0).normal(size=PENSIEVE_STATE_DIM)
        p = model.action_probabilities(state)[0]
        assert model.act(state, greedy=True) == int(np.argmax(p))

    def test_sampling_respects_distribution(self):
        model = ActorCritic(seed=0)
        state = np.zeros(PENSIEVE_STATE_DIM)
        rng = np.random.default_rng(1)
        actions = [model.act(state, rng=rng) for _ in range(300)]
        assert len(set(actions)) > 1  # near-uniform at init

    def test_copy_round_trip(self):
        model = ActorCritic(seed=0)
        clone = model.copy()
        state = np.random.default_rng(2).normal(size=PENSIEVE_STATE_DIM)
        np.testing.assert_allclose(
            clone.action_probabilities(state), model.action_probabilities(state)
        )


class TestSimpleChunkEnv:
    def make_env(self, **kwargs):
        traces = generate_fcc_dataset(5, seed=0)
        return SimpleChunkEnv(traces, chunks_per_episode=20, seed=0, **kwargs)

    def test_reset_returns_state(self):
        env = self.make_env()
        state = env.reset()
        assert state.shape == (PENSIEVE_STATE_DIM,)

    def test_episode_terminates(self):
        env = self.make_env()
        env.reset()
        done = False
        steps = 0
        while not done:
            _, __, done = env.step(0)
            steps += 1
        assert steps == 20

    def test_higher_rung_lower_reward_on_slow_trace(self):
        slow_trace = [[3e5] * 300]
        env_a = SimpleChunkEnv(slow_trace, chunks_per_episode=30, seed=1)
        env_b = SimpleChunkEnv(slow_trace, chunks_per_episode=30, seed=1)
        env_a.reset()
        env_b.reset()
        reward_low = sum(env_a.step(0)[1] for _ in range(30))
        reward_high = sum(env_b.step(9)[1] for _ in range(30))
        assert reward_low > reward_high

    def test_smoothness_penalty(self):
        fast_trace = [[5e7] * 300]
        env = SimpleChunkEnv(fast_trace, chunks_per_episode=4, seed=2)
        env.reset()
        env.step(0)
        _, reward_jump, __ = env.step(9)
        env.reset()
        env.step(9)
        _, reward_stay, __ = env.step(9)
        assert reward_stay > reward_jump

    def test_buffer_capped(self):
        fast_trace = [[5e7] * 300]
        env = SimpleChunkEnv(fast_trace, chunks_per_episode=30, seed=3)
        env.reset()
        for _ in range(30):
            env.step(0)
            assert env.buffer_s <= env.max_buffer_s + 1e-9

    def test_empty_traces_rejected(self):
        with pytest.raises(ValueError):
            SimpleChunkEnv([])


class TestTraining:
    def test_training_improves_reward_over_random(self):
        traces = generate_fcc_dataset(10, seed=3)
        env = SimpleChunkEnv(traces, chunks_per_episode=40, seed=4)
        model = ActorCritic(seed=4)
        trainer = PensieveTrainer(
            model, env, PensieveTrainingConfig(episodes=120, seed=4)
        )
        history = trainer.train()
        early = np.mean([h.total_reward for h in history[:20]])
        late = np.mean([h.total_reward for h in history[-20:]])
        assert late > early

    def test_episode_stats_populated(self):
        traces = generate_fcc_dataset(3, seed=5)
        env = SimpleChunkEnv(traces, chunks_per_episode=10, seed=5)
        model = ActorCritic(seed=5)
        trainer = PensieveTrainer(
            model, env, PensieveTrainingConfig(episodes=3, seed=5)
        )
        history = trainer.train()
        assert len(history) == 3
        assert all(h.mean_bitrate_mbps > 0 for h in history)


class TestPolicy:
    def test_action_space_must_match_ladder(self):
        with pytest.raises(ValueError):
            Pensieve(ActorCritic(n_actions=5))

    def test_choose_returns_valid_rung(self):
        pensieve = Pensieve(ActorCritic(seed=0))
        menus = encode_clip(DEFAULT_CHANNELS[0], 1, seed=0)
        ctx = AbrContext(lookahead=menus, buffer_s=5.0, tcp_info=info())
        choice = pensieve.choose(ctx)
        assert 0 <= choice < 10

    def test_begin_stream_clears_last_rung(self):
        pensieve = Pensieve(ActorCritic(seed=0))
        menus = encode_clip(DEFAULT_CHANNELS[0], 1, seed=0)
        ctx = AbrContext(lookahead=menus, buffer_s=5.0, tcp_info=info())
        pensieve.choose(ctx)
        assert pensieve._last_rung is not None
        pensieve.begin_stream()
        assert pensieve._last_rung is None

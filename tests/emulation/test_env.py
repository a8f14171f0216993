"""Tests for repro.emulation — the mahimahi/FCC environment (§5.2)."""

import numpy as np
import pytest

from repro.abr.bba import BBA
from repro.emulation.env import (
    CLIP_MINUTES,
    EMULATION_DELAY_S,
    EmulationEnvironment,
    train_fugu_in_emulation,
)
from repro.core.fugu import Fugu


@pytest.fixture(scope="module")
def env():
    return EmulationEnvironment(n_traces=4, seed=0)


class TestEnvironment:
    def test_paper_parameters(self):
        assert EMULATION_DELAY_S == 0.040
        assert CLIP_MINUTES == 10.0

    def test_clip_length(self, env):
        expected_chunks = int(10.0 * 60.0 / 2.002)
        assert len(env.clip) == expected_chunks

    def test_traces_generated(self, env):
        assert len(env.traces) == 4
        assert all(max(t) <= 12e6 for t in env.traces)

    def test_run_scheme_one_result_per_trace(self, env):
        results = env.run_scheme(BBA(), seed=0)
        assert len(results) == 4
        assert all(r.scheme_name == "bba" for r in results)

    def test_runs_per_trace(self, env):
        results = env.run_scheme(BBA(), runs_per_trace=2, seed=0)
        assert len(results) == 8

    def test_conditions_replay_identically(self, env):
        # The emulator's defining property (§5.3): the same scheme over the
        # same traces produces identical results.
        a = env.run_scheme(BBA(), seed=5)
        b = env.run_scheme(BBA(), seed=5)
        assert [r.play_time for r in a] == [r.play_time for r in b]
        assert [r.stall_time for r in a] == [r.stall_time for r in b]

    def test_clients_watch_whole_clip_when_network_allows(self, env):
        results = env.run_scheme(BBA(), seed=0)
        clip_chunks = len(env.clip)
        # At least the fastest trace delivers the full clip.
        assert max(len(r.records) for r in results) == clip_chunks

    def test_invalid_trace_count(self):
        with pytest.raises(ValueError):
            EmulationEnvironment(n_traces=0)


class TestEmulationTraining:
    def test_produces_working_predictor(self):
        env = EmulationEnvironment(n_traces=3, seed=1)
        predictor = train_fugu_in_emulation(
            env, epochs=2, iterations=0, seed=0
        )
        fugu = Fugu(predictor, name="fugu_emulation")
        results = env.run_scheme(fugu, seed=2)
        assert len(results) == 3
        assert all(len(r.records) > 0 for r in results)

"""Tests for repro.abr.oboe — the Oboe-style auto-tuner."""

import numpy as np
import pytest

from repro.abr.base import AbrContext, ChunkRecord
from repro.abr.oboe import (
    OboeConfigMap,
    OboeRobustMpc,
    build_config_map,
    classify_state,
)
from repro.media.encoder import encode_clip
from repro.media.source import DEFAULT_CHANNELS
from repro.net.tcp import TcpInfo


def info():
    return TcpInfo(cwnd=10, in_flight=0, min_rtt=0.05, rtt=0.05, delivery_rate=0)


def record(i, throughput):
    size = 5e5
    return ChunkRecord(
        chunk_index=i, rung=5, size_bytes=size, ssim_db=15.0,
        transmission_time=size * 8 / throughput, info_at_send=info(),
        send_time=i * 2.0,
    )


class TestClassifyState:
    def test_mean_buckets(self):
        assert classify_state(5e5, 0.1)[0] == 0
        assert classify_state(2e6, 0.1)[0] == 1
        assert classify_state(8e6, 0.1)[0] == 2
        assert classify_state(3e7, 0.1)[0] == 3

    def test_cv_buckets(self):
        assert classify_state(2e6, 0.1)[1] == 0
        assert classify_state(2e6, 0.8)[1] == 1

    def test_invalid_mean(self):
        with pytest.raises(ValueError):
            classify_state(0.0, 0.1)


class TestConfigMap:
    def test_lookup_falls_back_to_default(self):
        config_map = OboeConfigMap(default_conservatism=2.5)
        assert config_map.lookup(2e6, 0.1) == 2.5

    def test_lookup_uses_table(self):
        config_map = OboeConfigMap(table={(1, 0): 0.5})
        assert config_map.lookup(2e6, 0.1) == 0.5

    def test_build_covers_all_states(self):
        config_map = build_config_map(
            candidates=(1.0, 3.0), traces_per_state=1,
            chunks_per_trace=20.0, seed=0,
        )
        assert len(config_map.table) == 8  # 4 mean buckets x 2 cv buckets
        assert set(config_map.table.values()) <= {1.0, 3.0}

    def test_variable_states_prefer_conservative_configs(self):
        config_map = build_config_map(
            candidates=(0.5, 6.0), traces_per_state=2,
            chunks_per_trace=40.0, seed=1,
        )
        # Aggregate: the high-variability column should not be *less*
        # conservative than the steady column on average.
        steady = np.mean(
            [v for (m, cv), v in config_map.table.items() if cv == 0]
        )
        variable = np.mean(
            [v for (m, cv), v in config_map.table.items() if cv == 1]
        )
        assert variable >= steady


class TestOboeRobustMpc:
    def make_scheme(self):
        config_map = OboeConfigMap(
            table={
                (0, 0): 6.0, (0, 1): 6.0,
                (1, 0): 3.0, (1, 1): 6.0,
                (2, 0): 1.0, (2, 1): 3.0,
                (3, 0): 0.5, (3, 1): 1.0,
            }
        )
        return OboeRobustMpc(config_map)

    def ctx(self, history, buffer_s=8.0):
        menus = encode_clip(DEFAULT_CHANNELS[0], 8, seed=0)
        return AbrContext(
            lookahead=menus, buffer_s=buffer_s, tcp_info=info(),
            history=history,
        )

    def test_switches_configuration_on_state_change(self):
        scheme = self.make_scheme()
        scheme.begin_stream()
        slow = [record(i, 5e5) for i in range(10)]
        scheme.choose(self.ctx(slow))
        conservative = scheme.current_conservatism
        fast = [record(i, 3e7) for i in range(10)]
        scheme.choose(self.ctx(fast))
        aggressive = scheme.current_conservatism
        assert conservative > aggressive

    def test_no_state_until_enough_history(self):
        scheme = self.make_scheme()
        scheme.begin_stream()
        before = scheme.current_conservatism
        scheme.choose(self.ctx([record(0, 1e6)]))
        assert scheme.current_conservatism == before

    def test_streams_end_to_end(self):
        from repro.net.link import ConstantLink
        from repro.net.tcp import TcpConnection
        from repro.streaming.simulator import simulate_stream

        result = simulate_stream(
            iter(encode_clip(DEFAULT_CHANNELS[0], 60, seed=1)),
            self.make_scheme(),
            TcpConnection(ConstantLink(8e6), base_rtt=0.05),
            watch_time_s=60.0,
        )
        assert len(result.records) > 10
        assert result.stall_ratio < 0.2

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            OboeRobustMpc(OboeConfigMap(), window=1)

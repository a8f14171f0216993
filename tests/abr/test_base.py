"""Tests for repro.abr.base — contexts, records, the HM predictor."""

import numpy as np
import pytest

from repro.abr.base import (
    AbrAlgorithm,
    AbrContext,
    ChunkRecord,
    harmonic_mean_throughput,
)
from repro.abr.cs2p import Cs2pPredictor, DiscreteThroughputHmm
from repro.abr.mpc import HarmonicMeanPredictor
from repro.media.encoder import encode_clip
from repro.media.source import DEFAULT_CHANNELS
from repro.net.tcp import TcpInfo

from tests.counting import CountingSequence


def info():
    return TcpInfo(cwnd=10, in_flight=0, min_rtt=0.05, rtt=0.05, delivery_rate=0)


def record(i, size=1_000_000, tx=1.0):
    return ChunkRecord(
        chunk_index=i, rung=5, size_bytes=size, ssim_db=15.0,
        transmission_time=tx, info_at_send=info(), send_time=0.0,
    )


class TestHarmonicMean:
    def test_none_without_history(self):
        assert harmonic_mean_throughput([]) is None

    def test_single_sample(self):
        hm = harmonic_mean_throughput([record(0, size=1_000_000, tx=1.0)])
        assert hm == pytest.approx(8e6)

    def test_harmonic_not_arithmetic(self):
        # Throughputs 8 and 2 Mbps: HM = 3.2, arithmetic mean = 5.
        history = [record(0, 1_000_000, 1.0), record(1, 1_000_000, 4.0)]
        hm = harmonic_mean_throughput(history)
        assert hm == pytest.approx(3.2e6)

    def test_window_uses_last_five(self):
        history = [record(i, 1_000_000, 100.0) for i in range(5)]
        history += [record(i + 5, 1_000_000, 1.0) for i in range(5)]
        hm = harmonic_mean_throughput(history, window=5)
        assert hm == pytest.approx(8e6)

    def test_dominated_by_slow_samples(self):
        # HM is conservative: one very slow chunk drags the estimate down.
        history = [record(0, 1_000_000, 1.0)] * 4 + [record(4, 1_000_000, 100.0)]
        hm = harmonic_mean_throughput(history)
        assert hm < 0.4e6 * 8


class TestWindowMustBePositive:
    """``history[-0:]`` is the whole history and ``deque(maxlen=0)`` keeps
    no error sample: a zero window silently means something else."""

    @pytest.mark.parametrize("window", [0, -1])
    @pytest.mark.parametrize(
        "build, message",
        [
            (
                lambda window: harmonic_mean_throughput([record(0)], window),
                "window must be positive",
            ),
            (
                lambda window: HarmonicMeanPredictor(window=window),
                r"HarmonicMeanPredictor\.window must be a whole number ≥ 1",
            ),
            (
                lambda window: Cs2pPredictor(DiscreteThroughputHmm(), window),
                r"Cs2pPredictor\.window must be a whole number ≥ 1",
            ),
        ],
        ids=["harmonic_mean_throughput", "HarmonicMeanPredictor", "Cs2pPredictor"],
    )
    def test_rejected(self, build, message, window):
        with pytest.raises(ValueError, match=message):
            build(window)


class TestAbrContext:
    def test_menu_is_first_lookahead(self):
        menus = encode_clip(DEFAULT_CHANNELS[0], 3, seed=0)
        ctx = AbrContext(lookahead=menus, buffer_s=5.0, tcp_info=info())
        assert ctx.menu is menus[0]

    def test_abstract_choose_raises(self):
        menus = encode_clip(DEFAULT_CHANNELS[0], 1, seed=0)
        ctx = AbrContext(lookahead=menus, buffer_s=0.0, tcp_info=info())
        with pytest.raises(NotImplementedError):
            AbrAlgorithm().choose(ctx)

    def test_default_hooks_are_noops(self):
        algo = AbrAlgorithm()
        algo.begin_stream()
        algo.on_chunk_complete(record(0))


class TestHarmonicMeanTailOnly:
    def test_touches_only_the_window(self):
        records = [record(i, tx=1.0 + i % 3) for i in range(400)]
        history = CountingSequence(records)
        hm = harmonic_mean_throughput(history, window=5)
        assert history.touched <= 5
        assert hm == harmonic_mean_throughput(records, window=5)

"""Tests for the rate-based and BOLA baselines."""

import pytest

from repro.abr.base import AbrContext, ChunkRecord
from repro.abr.bola import Bola
from repro.abr.rate_based import RateBased
from repro.media.encoder import encode_clip
from repro.media.source import DEFAULT_CHANNELS
from repro.net.tcp import TcpInfo


def info():
    return TcpInfo(cwnd=10, in_flight=0, min_rtt=0.05, rtt=0.05, delivery_rate=0)


def record(i, size=1_000_000, tx=1.0):
    return ChunkRecord(
        chunk_index=i, rung=5, size_bytes=size, ssim_db=15.0,
        transmission_time=tx, info_at_send=info(), send_time=0.0,
    )


def ctx(buffer_s=8.0, history=None, seed=0):
    menus = encode_clip(DEFAULT_CHANNELS[0], 1, seed=seed)
    return AbrContext(
        lookahead=menus, buffer_s=buffer_s, tcp_info=info(),
        history=history or [],
    )


class TestRateBased:
    def test_tracks_throughput(self):
        rb = RateBased()
        fast = [record(i, 2_000_000, 0.5) for i in range(5)]  # 32 Mbps
        slow = [record(i, 100_000, 2.0) for i in range(5)]  # 0.4 Mbps
        assert rb.choose(ctx(history=fast)) > rb.choose(ctx(history=slow))

    def test_choice_fits_budget(self):
        rb = RateBased(safety_factor=1.0)
        history = [record(i, 500_000, 1.0) for i in range(5)]  # 4 Mbps
        context = ctx(history=history)
        version = context.menu[rb.choose(context)]
        assert version.size_bits / version.duration <= 4e6

    def test_startup_conservative(self):
        rb = RateBased()
        assert rb.choose(ctx(history=[])) <= 3

    def test_safety_factor_lowers_choice(self):
        history = [record(i, 1_000_000, 1.0) for i in range(5)]
        risky = RateBased(safety_factor=1.0).choose(ctx(history=history, seed=3))
        safe = RateBased(safety_factor=0.4).choose(ctx(history=history, seed=3))
        assert safe <= risky

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            RateBased(safety_factor=0.0)
        with pytest.raises(ValueError):
            RateBased(window=0)

    @pytest.mark.parametrize("startup", [float("nan"), -1.0, 0.0, float("inf")])
    def test_absurd_startup_throughput_rejected(self, startup):
        with pytest.raises(ValueError, match="startup_throughput_bps"):
            RateBased(startup_throughput_bps=startup)


class TestBola:
    def test_low_buffer_low_rung(self):
        bola = Bola()
        assert bola.choose(ctx(buffer_s=0.5)) <= 2

    def test_choice_monotone_in_buffer(self):
        bola = Bola()
        choices = [
            bola.choose(ctx(buffer_s=b, seed=1))
            for b in (0.0, 3.0, 6.0, 9.0, 12.0)
        ]
        assert choices == sorted(choices)

    def test_buffer_agnostic_to_history(self):
        # BOLA-BASIC uses only the buffer, not throughput estimates.
        bola = Bola()
        with_history = bola.choose(
            ctx(buffer_s=6.0, history=[record(i) for i in range(5)], seed=2)
        )
        without = bola.choose(ctx(buffer_s=6.0, seed=2))
        assert with_history == without

    def test_full_buffer_reaches_high_rung(self):
        bola = Bola()
        assert bola.choose(ctx(buffer_s=13.0)) >= 6

    def test_invalid_target_fraction(self):
        with pytest.raises(ValueError):
            Bola(target_buffer_fraction=0.0)

    @pytest.mark.parametrize("max_buffer_s", [float("nan"), 0.0, -15.0, float("inf")])
    def test_absurd_buffer_cap_rejected(self, max_buffer_s):
        # A zero cap would make q_max 0 and every score a division artefact.
        with pytest.raises(ValueError, match="max_buffer_s"):
            Bola(max_buffer_s=max_buffer_s)

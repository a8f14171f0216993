"""Tests for repro.abr.bba — buffer-based control with the SSIM objective."""

import pytest

from repro.abr.base import AbrContext
from repro.abr.bba import BBA
from repro.media.encoder import encode_clip
from repro.media.source import DEFAULT_CHANNELS
from repro.net.tcp import TcpInfo


def ctx(buffer_s, seed=0):
    menus = encode_clip(DEFAULT_CHANNELS[0], 1, seed=seed)
    info = TcpInfo(cwnd=10, in_flight=0, min_rtt=0.05, rtt=0.05, delivery_rate=0)
    return AbrContext(lookahead=menus, buffer_s=buffer_s, tcp_info=info)


class TestBufferMap:
    def test_lowest_rung_below_reservoir(self):
        bba = BBA()
        assert bba.choose(ctx(0.0)) == 0
        assert bba.choose(ctx(bba.reservoir_s * 0.99)) == 0

    def test_highest_quality_above_upper_reservoir(self):
        bba = BBA()
        context = ctx(bba.upper_reservoir_s + 0.5)
        menu = context.menu
        choice = bba.choose(context)
        # The chosen version is the max-SSIM one (ties broken by index).
        assert menu[choice].ssim_db == max(v.ssim_db for v in menu)

    def test_rate_limit_linear_between_reservoirs(self):
        bba = BBA(max_buffer_s=15.0)
        mid = (bba.reservoir_s + bba.upper_reservoir_s) / 2
        limit = bba.rate_limit(mid, 1e6, 5e6)
        assert limit == pytest.approx(3e6)

    def test_choice_monotone_in_buffer(self):
        bba = BBA()
        choices = [bba.choose(ctx(b, seed=1)) for b in (0.0, 3.0, 6.0, 9.0, 12.0, 14.5)]
        assert choices == sorted(choices)

    def test_ssim_objective_respects_rate_limit(self):
        # Every selected version's bitrate must fit under the map's limit.
        bba = BBA()
        for seed in range(10):
            for b in (2.0, 5.0, 8.0, 11.0):
                context = ctx(b, seed=seed)
                menu = context.menu
                rates = [v.bitrate for v in menu]
                limit = bba.rate_limit(b, min(rates), max(rates))
                version = menu[bba.choose(context)]
                assert version.bitrate <= limit + 1e-9

    def test_fat_chunk_skipped_even_at_high_buffer(self):
        # VBR: when the top rung's actual bitrate exceeds the map limit,
        # BBA steps down — its characteristic robustness.
        bba = BBA(upper_reservoir_fraction=0.999)
        found_step_down = False
        for seed in range(40):
            context = ctx(12.0, seed=seed)
            if bba.choose(context) < len(context.menu) - 1:
                found_step_down = True
                break
        assert found_step_down

    def test_invalid_reservoirs_rejected(self):
        with pytest.raises(ValueError):
            BBA(reservoir_fraction=0.8, upper_reservoir_fraction=0.5)
        with pytest.raises(ValueError):
            BBA(reservoir_fraction=0.0)

    @pytest.mark.parametrize("max_buffer_s", [float("nan"), -15.0, 0.0, float("inf")])
    def test_absurd_buffer_cap_rejected(self, max_buffer_s):
        # A NaN or negative cap would put NaN or negative reservoirs in the map.
        with pytest.raises(ValueError, match="max_buffer_s"):
            BBA(max_buffer_s=max_buffer_s)

    def test_stateless_across_streams(self):
        bba = BBA()
        first = bba.choose(ctx(7.0, seed=2))
        bba.begin_stream()
        assert bba.choose(ctx(7.0, seed=2)) == first

"""Tests for repro.media.encoder — the VBR encoder model (Fig. 3 behaviour)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.media.encoder import VbrEncoder, encode_clip
from repro.media.ladder import PUFFER_LADDER
from repro.media.source import DEFAULT_CHANNELS, VideoSource


class TestEncodeChunk:
    def test_menu_has_all_rungs(self):
        menu = VbrEncoder(seed=0).encode_chunk(0, 1.0)
        assert len(menu) == len(PUFFER_LADDER)

    def test_sizes_increase_with_rung(self):
        menu = VbrEncoder(seed=0).encode_chunk(0, 1.0)
        sizes = menu.sizes
        assert all(a < b for a, b in zip(sizes, sizes[1:]))

    def test_quality_monotone_in_rung(self):
        # A bigger encoding of the same frames never looks worse.
        encoder = VbrEncoder(seed=1)
        for i in range(50):
            menu = encoder.encode_chunk(i, float(np.exp(np.random.default_rng(i).normal())))
            ssims = menu.ssims_db
            assert all(a <= b + 1e-12 for a, b in zip(ssims, ssims[1:]))

    def test_size_scales_with_complexity(self):
        encoder = VbrEncoder(size_noise_sigma=0.0, seed=0)
        small = encoder.encode_chunk(0, 0.5)
        big = encoder.encode_chunk(1, 2.0)
        assert big[0].size_bytes == pytest.approx(4 * small[0].size_bytes)

    def test_complex_chunks_lose_quality(self):
        encoder = VbrEncoder(quality_noise_sigma=0.0, seed=0)
        easy = encoder.encode_chunk(0, 0.5)
        hard = encoder.encode_chunk(1, 2.0)
        assert hard[9].ssim_db < easy[9].ssim_db

    def test_invalid_complexity_rejected(self):
        with pytest.raises(ValueError):
            VbrEncoder().encode_chunk(0, 0.0)

    def test_size_within_stream_varies(self):
        # Fig. 3a: VBR chunk sizes vary several-fold within one stream.
        menus = encode_clip(DEFAULT_CHANNELS[3], 200, seed=5)
        top_sizes = [m[9].size_bytes for m in menus]
        assert max(top_sizes) / min(top_sizes) > 2.0

    def test_quality_within_stream_varies(self):
        # Fig. 3b: SSIM varies chunk-by-chunk at a fixed rung.
        menus = encode_clip(DEFAULT_CHANNELS[3], 200, seed=5)
        top_ssims = [m[9].ssim_db for m in menus]
        assert max(top_ssims) - min(top_ssims) > 1.0

    def test_mean_bitrate_near_target(self):
        menus = encode_clip(DEFAULT_CHANNELS[0], 400, seed=2)
        mean_size = np.mean([m[9].size_bytes for m in menus])
        target_size = PUFFER_LADDER[9].target_bitrate * 2.002 / 8
        assert mean_size == pytest.approx(target_size, rel=0.3)


class TestSsimClamp:
    @given(
        # Wide enough that both ends of the [2, 25] dB clamp are reached.
        log2_complexity=st.floats(-12.0, 12.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_clamp_is_np_clip(self, log2_complexity, seed):
        # The per-rung clamp is plain min/max on the hot path; for the
        # non-NaN floats it sees, that is np.clip to the last bit.
        complexity = float(2.0**log2_complexity)
        encoder = VbrEncoder(seed=seed)
        menu = encoder.encode_chunk(0, complexity)
        twin = np.random.default_rng(seed)
        twin.lognormal(-0.5 * encoder.size_noise_sigma**2, encoder.size_noise_sigma)
        expected = []
        for profile in encoder.ladder:
            raw = (
                profile.base_ssim_db
                - encoder.quality_complexity_slope * np.log2(complexity)
                + float(twin.normal(0.0, encoder.quality_noise_sigma))
            )
            clipped = float(np.clip(raw, 2.0, 25.0))
            expected.append(max(clipped, expected[-1]) if expected else clipped)
        assert menu.ssims_db == tuple(expected)


class TestEncodeSource:
    def test_chunk_indices_sequential(self):
        encoder = VbrEncoder(seed=0)
        source = VideoSource(DEFAULT_CHANNELS[0], seed=0)
        menus = encoder.encode_source(source, 5, start_index=10)
        assert [m.chunk_index for m in menus] == [10, 11, 12, 13, 14]

    def test_stream_is_lazy_and_endless(self):
        encoder = VbrEncoder(seed=0)
        source = VideoSource(DEFAULT_CHANNELS[0], seed=0)
        stream = encoder.stream(source)
        for expected_index in range(30):
            menu = next(stream)
            assert menu.chunk_index == expected_index

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            VbrEncoder(size_noise_sigma=-1.0)
        with pytest.raises(ValueError):
            VbrEncoder(chunk_duration=0.0)

    def test_deterministic_given_seed(self):
        a = encode_clip(DEFAULT_CHANNELS[2], 10, seed=3)
        b = encode_clip(DEFAULT_CHANNELS[2], 10, seed=3)
        assert [m.sizes for m in a] == [m.sizes for m in b]

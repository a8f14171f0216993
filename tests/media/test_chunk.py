"""Tests for repro.media.chunk — encoded chunks and menus."""

import pytest

from repro.media.chunk import ChunkMenu, EncodedChunk
from repro.media.ladder import PUFFER_LADDER


def make_version(rung=0, chunk_index=0, size=1e5, ssim=10.0):
    return EncodedChunk(
        chunk_index=chunk_index,
        profile=PUFFER_LADDER[rung],
        size_bytes=size,
        ssim_db=ssim,
        duration=2.002,
    )


class TestEncodedChunk:
    def test_bitrate(self):
        chunk = make_version(size=250_250)  # 250,250 B * 8 / 2.002 s = 1 Mbps
        assert chunk.bitrate == pytest.approx(1e6)

    def test_size_bits(self):
        assert make_version(size=100).size_bits == 800

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            make_version(size=0)

    def test_invalid_duration_rejected(self):
        with pytest.raises(ValueError):
            EncodedChunk(0, PUFFER_LADDER[0], 100.0, 10.0, 0.0)


class TestChunkMenu:
    def test_orders_by_profile_bitrate(self):
        menu = ChunkMenu([make_version(rung=5), make_version(rung=0)])
        assert menu[0].profile is PUFFER_LADDER[0]
        assert menu[1].profile is PUFFER_LADDER[5]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ChunkMenu([])

    def test_mixed_chunk_indices_rejected(self):
        with pytest.raises(ValueError, match="share a chunk index"):
            ChunkMenu([make_version(chunk_index=0), make_version(rung=1, chunk_index=1)])

    def test_sizes_and_ssims(self):
        menu = ChunkMenu(
            [make_version(rung=0, size=100, ssim=5.0),
             make_version(rung=1, size=200, ssim=8.0)]
        )
        assert menu.sizes == (100, 200)
        assert menu.ssims_db == (5.0, 8.0)
        # Built once with the menu, not on every access.
        assert menu.sizes is menu.sizes
        assert menu.ssims_db is menu.ssims_db

    def test_version_for_profile(self):
        v0 = make_version(rung=0)
        menu = ChunkMenu([v0, make_version(rung=1)])
        assert menu.version_for_profile(PUFFER_LADDER[0]) is v0
        with pytest.raises(KeyError):
            menu.version_for_profile(PUFFER_LADDER[9])

    def test_duration_shared(self):
        menu = ChunkMenu([make_version(rung=0), make_version(rung=1)])
        assert menu.duration == 2.002

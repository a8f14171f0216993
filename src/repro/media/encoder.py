"""VBR encoder model.

Maps a chunk's scene complexity to the (size, SSIM) pair each ladder rung
would produce, standing in for libx264 + ffmpeg-SSIM in the Puffer back end.

The model captures three empirical facts the paper leans on:

1. **VBR size variability** (Fig. 3a): at fixed CRF, compressed size scales
   roughly linearly with content complexity, with residual noise.
2. **Quality variability** (Fig. 3b): CRF holds quality only approximately
   constant; complex chunks lose some SSIM at every rung, and low-resolution
   rungs are capped by upsampling loss.
3. **Diminishing returns**: each rung's SSIM gain over the previous rung
   shrinks at the top of the ladder, so "maximize bitrate" and "maximize
   SSIM" are different objectives (Fig. 4).
"""

from __future__ import annotations

from typing import Iterator, List, Optional

import numpy as np

from repro.media.chunk import ChunkMenu, EncodedChunk
from repro.media.ladder import EncodingLadder, PUFFER_LADDER
from repro.media.source import Channel, VideoSource

CHUNK_DURATION = 2.002

_MIN_SSIM_DB = 2.0
_MAX_SSIM_DB = 25.0


class VbrEncoder:
    """Produces a :class:`ChunkMenu` per chunk from a complexity value.

    Parameters
    ----------
    ladder:
        Encoding ladder (defaults to the ten-rung Puffer ladder).
    size_noise_sigma:
        Residual lognormal noise on chunk size beyond what complexity
        explains (encoder rate-control slack).
    quality_complexity_slope:
        SSIM dB lost per doubling of complexity at fixed CRF.
    quality_noise_sigma:
        Per-(chunk, rung) SSIM noise in dB.
    """

    def __init__(
        self,
        ladder: EncodingLadder = PUFFER_LADDER,
        size_noise_sigma: float = 0.12,
        quality_complexity_slope: float = 1.6,
        quality_noise_sigma: float = 0.25,
        chunk_duration: float = CHUNK_DURATION,
        seed: int = 0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if size_noise_sigma < 0 or quality_noise_sigma < 0:
            raise ValueError("noise sigmas must be non-negative")
        if chunk_duration <= 0:
            raise ValueError("chunk duration must be positive")
        self.ladder = ladder
        self.size_noise_sigma = size_noise_sigma
        self.quality_complexity_slope = quality_complexity_slope
        self.quality_noise_sigma = quality_noise_sigma
        self.chunk_duration = chunk_duration
        self.rng = rng if rng is not None else np.random.default_rng(seed)

    def encode_chunk(self, chunk_index: int, complexity: float) -> ChunkMenu:
        """Encode one chunk of the given complexity at every rung."""
        if complexity <= 0:
            raise ValueError("complexity must be positive")
        # The same rate-control slack applies across rungs of one chunk:
        # libx264 sees the same frames at every rung.
        size_noise = float(
            self.rng.lognormal(
                -0.5 * self.size_noise_sigma**2, self.size_noise_sigma
            )
        )
        versions: List[EncodedChunk] = []
        for profile in self.ladder:
            size_bits = (
                profile.target_bitrate
                * self.chunk_duration
                * complexity
                * size_noise
            )
            ssim_db = (
                profile.base_ssim_db
                - self.quality_complexity_slope * np.log2(complexity)
                + float(self.rng.normal(0.0, self.quality_noise_sigma))
            )
            ssim_db = float(min(max(ssim_db, _MIN_SSIM_DB), _MAX_SSIM_DB))
            versions.append(
                EncodedChunk(
                    chunk_index=chunk_index,
                    profile=profile,
                    size_bytes=max(size_bits / 8.0, 1.0),
                    ssim_db=ssim_db,
                    duration=self.chunk_duration,
                )
            )
        # Enforce ladder monotonicity in quality: a strictly larger encoding
        # of the same frames never looks worse after the shared noise draw.
        for i in range(1, len(versions)):
            if versions[i].ssim_db < versions[i - 1].ssim_db:
                versions[i] = EncodedChunk(
                    chunk_index=versions[i].chunk_index,
                    profile=versions[i].profile,
                    size_bytes=versions[i].size_bytes,
                    ssim_db=versions[i - 1].ssim_db,
                    duration=versions[i].duration,
                )
        return ChunkMenu(versions)

    def encode_source(
        self, source: VideoSource, n_chunks: int, start_index: int = 0
    ) -> List[ChunkMenu]:
        """Encode a bounded clip from a video source."""
        return [
            self.encode_chunk(start_index + i, complexity)
            for i, complexity in enumerate(source.take(n_chunks))
        ]

    def stream(self, source: VideoSource, start_index: int = 0) -> Iterator[ChunkMenu]:
        """Endless encoded stream (live TV)."""
        index = start_index
        for complexity in source:
            yield self.encode_chunk(index, complexity)
            index += 1


def encode_clip(
    channel: Channel,
    n_chunks: int,
    seed: int = 0,
    ladder: EncodingLadder = PUFFER_LADDER,
) -> List[ChunkMenu]:
    """Convenience: encode an ``n_chunks`` clip of ``channel`` with one seed."""
    rng = np.random.default_rng(seed)
    source = VideoSource(channel, rng=rng)
    encoder = VbrEncoder(ladder=ladder, rng=rng)
    return encoder.encode_source(source, n_chunks)

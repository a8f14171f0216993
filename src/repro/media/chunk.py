"""Chunk data structures.

An :class:`EncodedChunk` is one (chunk, rung) pair with its compressed size
and SSIM; a :class:`ChunkMenu` is the set of alternative versions of one
chunk the ABR algorithm chooses among — the "limited menu" of §2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple

from repro.media.ladder import EncodingProfile


@dataclass(frozen=True)
class EncodedChunk:
    """One encoded version of one video chunk.

    Attributes
    ----------
    chunk_index:
        Position of the chunk within its stream, starting at 0.
    profile:
        The ladder rung this version was encoded with.
    size_bytes:
        Compressed size (VBR: varies chunk to chunk within a rung).
    ssim_db:
        Quality versus the canonical source, in decibels.
    duration:
        Playback duration in seconds (2.002 s on Puffer).
    """

    chunk_index: int
    profile: EncodingProfile
    size_bytes: float
    ssim_db: float
    duration: float

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError("chunk size must be positive")
        if self.duration <= 0:
            raise ValueError("chunk duration must be positive")

    @property
    def size_bits(self) -> float:
        return self.size_bytes * 8.0

    @property
    def bitrate(self) -> float:
        """Actual compressed bitrate of this version, bits per second."""
        return self.size_bits / self.duration


class ChunkMenu:
    """All encoded versions of a single chunk, ordered lowest-bitrate first.

    Indexing follows ladder order, so ``menu[0]`` is the 240p version and
    ``menu[-1]`` the 1080p/CRF-20 version on the default ladder.
    """

    def __init__(self, versions: Sequence[EncodedChunk]) -> None:
        if not versions:
            raise ValueError("menu must contain at least one version")
        indices = {v.chunk_index for v in versions}
        if len(indices) != 1:
            raise ValueError("all versions in a menu must share a chunk index")
        self.versions: Tuple[EncodedChunk, ...] = tuple(
            sorted(versions, key=lambda v: v.profile.target_bitrate)
        )
        self.chunk_index = self.versions[0].chunk_index
        self.duration = self.versions[0].duration
        self.sizes: Tuple[float, ...] = tuple(
            v.size_bytes for v in self.versions
        )
        self.ssims_db: Tuple[float, ...] = tuple(
            v.ssim_db for v in self.versions
        )

    def __len__(self) -> int:
        return len(self.versions)

    def __iter__(self) -> Iterator[EncodedChunk]:
        return iter(self.versions)

    def __getitem__(self, index: int) -> EncodedChunk:
        return self.versions[index]

    def version_for_profile(self, profile: EncodingProfile) -> EncodedChunk:
        for version in self.versions:
            if version.profile == profile:
                return version
        raise KeyError(f"menu has no version for profile {profile.name!r}")

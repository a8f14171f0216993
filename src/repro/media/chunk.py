"""Chunk data structures.

An :class:`EncodedChunk` is one (chunk, rung) pair with its compressed size
and SSIM; a :class:`ChunkMenu` is the set of alternative versions of one
chunk the ABR algorithm chooses among — the "limited menu" of §2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

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

    ``sizes`` / ``ssims_db`` / ``duration`` / ``chunk_index`` are plain
    attributes; the streaming loop and the planners read only those.  A
    menu made by :meth:`from_rows` builds its :class:`EncodedChunk` objects
    the first time something indexes or iterates it.
    """

    _profiles: Tuple[EncodingProfile, ...] = ()
    """Rungs of a :meth:`from_rows` menu whose versions are not built yet."""

    def __init__(self, versions: Sequence[EncodedChunk]) -> None:
        if not versions:
            raise ValueError("menu must contain at least one version")
        indices = {v.chunk_index for v in versions}
        if len(indices) != 1:
            raise ValueError("all versions in a menu must share a chunk index")
        ordered = tuple(sorted(versions, key=lambda v: v.profile.target_bitrate))
        self._versions: Optional[Tuple[EncodedChunk, ...]] = ordered
        self.chunk_index = ordered[0].chunk_index
        self.duration = ordered[0].duration
        self.sizes: Tuple[float, ...] = tuple(v.size_bytes for v in ordered)
        self.ssims_db: Tuple[float, ...] = tuple(v.ssim_db for v in ordered)

    @classmethod
    def from_rows(
        cls,
        chunk_index: int,
        duration: float,
        sizes: Tuple[float, ...],
        ssims_db: Tuple[float, ...],
        profiles: Tuple[EncodingProfile, ...],
    ) -> "ChunkMenu":
        """A menu from one chunk's per-rung rows, lowest bitrate first —
        what :class:`repro.media.menus.MenuBlockSource` produces.  Equal in
        every field to the menu built from the corresponding versions."""
        menu = cls.__new__(cls)
        menu._versions = None
        menu._profiles = profiles
        menu.chunk_index = chunk_index
        menu.duration = duration
        menu.sizes = sizes
        menu.ssims_db = ssims_db
        return menu

    @property
    def versions(self) -> Tuple[EncodedChunk, ...]:
        versions = self._versions
        if versions is None:
            versions = self._versions = tuple(
                EncodedChunk(self.chunk_index, profile, size, ssim, self.duration)
                for profile, size, ssim in zip(
                    self._profiles, self.sizes, self.ssims_db
                )
            )
        return versions

    @property
    def bitrates(self) -> List[float]:
        """Each version's :attr:`EncodedChunk.bitrate`, off the rows."""
        duration = self.duration
        return [size * 8.0 / duration for size in self.sizes]

    def __len__(self) -> int:
        return len(self.sizes)

    def __iter__(self) -> Iterator[EncodedChunk]:
        return iter(self.versions)

    def __getitem__(self, index: int) -> EncodedChunk:
        return self.versions[index]

    def version_for_profile(self, profile: EncodingProfile) -> EncodedChunk:
        for version in self.versions:
            if version.profile == profile:
                return version
        raise KeyError(f"menu has no version for profile {profile.name!r}")

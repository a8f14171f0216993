"""ABR algorithm interface.

Every scheme in the study — BBA, MPC-HM, RobustMPC-HM, Pensieve, Fugu and
its ablations — implements :class:`AbrAlgorithm`. The server-side placement
of Puffer's ABR (§3.2) means a scheme may observe the sender's TCP state and
the SSIM of every candidate version of upcoming chunks; schemes that cannot
use those inputs (Pensieve optimizes bitrate) simply ignore them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro import slotted
from repro.media.chunk import ChunkMenu
from repro.net.tcp import TcpInfo


@dataclass(frozen=True)
class ChunkRecord:
    """What the server learns after one chunk is sent and acknowledged —
    the join of a ``video_sent`` and ``video_acked`` record.  Slotted and
    built by :data:`make_chunk_record` (see :mod:`repro.slotted`)."""

    __slots__ = (
        "chunk_index",
        "rung",
        "size_bytes",
        "ssim_db",
        "transmission_time",
        "info_at_send",
        "send_time",
    )

    chunk_index: int
    rung: int
    size_bytes: float
    ssim_db: float
    transmission_time: float
    info_at_send: TcpInfo
    send_time: float

    __reduce__ = slotted.reduce

    @property
    def observed_throughput_bps(self) -> float:
        """Throughput implied by this chunk's transfer."""
        return self.size_bytes * 8.0 / max(self.transmission_time, 1e-9)


make_chunk_record = slotted.builder(ChunkRecord)
"""``ChunkRecord(chunk_index, rung, size_bytes, ssim_db, transmission_time,
info_at_send, send_time)`` in one step."""


@dataclass
class AbrContext:
    """Everything the ABR scheme may consult when choosing the next chunk.

    Attributes
    ----------
    lookahead:
        Menus for the next chunks, ``lookahead[0]`` being the chunk to choose
        now. Live encoding runs a few chunks ahead of the playhead, so MPC
        variants see their full horizon.
    buffer_s:
        Client playback buffer level in seconds.
    tcp_info:
        Sender-side TCP statistics at decision time.
    history:
        Completed chunks of this stream, oldest first.
    last_ssim_db:
        SSIM of the previously chosen version (None at stream start).
    startup:
        True until the first chunk has been chosen.
    """

    lookahead: Sequence[ChunkMenu]
    buffer_s: float
    tcp_info: TcpInfo
    history: List[ChunkRecord] = field(default_factory=list)
    last_ssim_db: Optional[float] = None
    startup: bool = False

    @property
    def menu(self) -> ChunkMenu:
        """The menu for the chunk being decided."""
        return self.lookahead[0]


class AbrAlgorithm:
    """Base class for bitrate-selection schemes.

    Subclasses must implement :meth:`choose`; the other hooks default to
    no-ops. A single instance may serve many streams sequentially — the
    simulator calls :meth:`begin_stream` before each stream.
    """

    name = "abstract"

    def begin_stream(self) -> None:
        """Reset per-stream state. Called once before each stream."""

    def choose(self, context: AbrContext) -> int:
        """Return the ladder index of the version to send next."""
        raise NotImplementedError

    def on_chunk_complete(self, record: ChunkRecord) -> None:
        """Observe the outcome of a sent chunk (for predictor updates)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"


def harmonic_mean_throughput(
    history: Sequence[ChunkRecord], window: int = 5
) -> Optional[float]:
    """Harmonic mean of the last ``window`` throughput samples (bits/s).

    This is the "HM" predictor of MPC-HM and RobustMPC-HM (Fig. 5): the
    harmonic mean of the last five chunk-level throughput observations.
    Returns None when there is no history yet.
    """
    if window <= 0:
        # history[-0:] is the whole history, not none of it.
        raise ValueError("window must be positive")
    recent = history[-window:]
    if not recent:
        return None
    return harmonic_mean([r.observed_throughput_bps for r in recent])


def harmonic_mean(samples: Sequence[float]) -> float:
    """Harmonic mean of a non-empty run of throughput samples (bits/s):
    the one formula behind :func:`harmonic_mean_throughput` and
    :meth:`repro.abr.rate_based.RateBased.pick`."""
    return len(samples) / sum(1.0 / sample for sample in samples)

"""Client playback buffer.

The playhead drains the buffer at 1 s/s while chunks arrive at irregular
intervals (§2). Puffer's player caps the buffer at 15 seconds (§3.3); when
the cap is reached the server pauses until there is room for another chunk.
"""

from __future__ import annotations

from repro.fields import positive

MAX_BUFFER_S = 15.0
"""Puffer's client buffer cap in seconds of video."""

BUFFER_EPSILON_S = 1e-9
"""Float-tolerance on the buffer cap, shared by every occupancy comparison
(and by the kernel in :mod:`repro.streaming.fastpath`).  ``room_for``
admits a chunk when ``level + duration <= cap + BUFFER_EPSILON_S`` and
``add`` only raises beyond the same slack, so a chunk admitted by
``room_for`` can never overflow ``add`` — the tolerances must stay one
constant or accumulated rounding in ``level_s`` opens a gap between the two
checks."""


class PlaybackBuffer:
    """Seconds of downloaded-but-unplayed video.

    The buffer only models *quantity* of queued video; chunk identity is
    tracked by the simulator. ``drain`` is called as playback time passes,
    ``add`` when a chunk finishes arriving.
    """

    def __init__(self, max_buffer_s: float = MAX_BUFFER_S) -> None:
        positive("PlaybackBuffer", "max_buffer_s", max_buffer_s)
        self.max_buffer_s = max_buffer_s
        self.level_s = 0.0

    def add(self, duration_s: float) -> None:
        """Enqueue a chunk's worth of video."""
        if duration_s <= 0:
            raise ValueError("chunk duration must be positive")
        self.level_s += duration_s
        if self.level_s > self.max_buffer_s + BUFFER_EPSILON_S:
            raise RuntimeError(
                "buffer overflow: server must pause before exceeding the cap"
            )

    def drain(self, play_time_s: float) -> float:
        """Play ``play_time_s`` seconds; returns the stall time incurred
        (the shortfall when the buffer runs dry)."""
        if play_time_s < 0:
            raise ValueError("play time must be non-negative")
        if play_time_s <= self.level_s:
            self.level_s -= play_time_s
            return 0.0
        shortfall = play_time_s - self.level_s
        self.level_s = 0.0
        return shortfall

    def room_for(self, duration_s: float) -> bool:
        """Whether a chunk of ``duration_s`` fits under the cap."""
        return self.level_s + duration_s <= self.max_buffer_s + BUFFER_EPSILON_S

    def time_until_room(self, duration_s: float) -> float:
        """Playback time the server must wait before sending the next chunk."""
        if self.room_for(duration_s):
            return 0.0
        return self.level_s + duration_s - self.max_buffer_s

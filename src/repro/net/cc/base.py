"""Congestion-control interface.

The fluid TCP model advances in *rounds* of roughly one RTT. After each round
it tells the controller what was delivered (:meth:`CongestionControl.on_round`);
the controller updates its congestion window in response. This is the same
shape as the Linux CC module interface (cong_avoid / cong_control callbacks),
reduced to what a chunk-level simulation needs.
"""

from __future__ import annotations

import math

DEFAULT_MSS = 1460
"""Sender maximum segment size in bytes."""

INITIAL_CWND_SEGMENTS = 10
"""Linux default initial window (RFC 6928)."""

MAX_CWND_BYTES = 64 * 1024 * 1024
"""Ceiling every controller clamps its window to."""


class CongestionControl:
    """Base class owning the congestion window in bytes."""

    name = "base"

    def __init__(self, mss: int = DEFAULT_MSS) -> None:
        if not (math.isfinite(mss) and mss > 0):
            raise ValueError(f"mss must be finite and positive, got {mss!r}")
        self.mss = mss
        self.cwnd_bytes = float(INITIAL_CWND_SEGMENTS * mss)

    @property
    def cwnd_segments(self) -> float:
        return self.cwnd_bytes / self.mss

    def on_round(
        self,
        delivered_bytes: float,
        duration: float,
        rtt: float,
        delivery_rate_bps: float,
        link_limited: bool,
        loss: bool,
        app_limited: bool = False,
    ) -> None:
        """Update the window from one RTT round of transmission.

        The round arrives as plain arguments — the connection runs one per
        RTT, ten a chunk, and an object per round cost more than the
        controller's own arithmetic.

        Parameters
        ----------
        delivered_bytes:
            Bytes acked during this round.
        duration:
            Wall-clock length of the round in seconds.
        rtt:
            RTT sample observed this round (base propagation + queueing).
        delivery_rate_bps:
            Delivered bytes over the round, as a rate in bits/s.
        link_limited:
            True when the send rate was clamped by bottleneck capacity
            rather than by the window (i.e., a queue formed at the
            bottleneck).
        loss:
            True when the round experienced a loss event (loss-based CC
            reacts; BBR largely ignores it).
        app_limited:
            True when the round's send was limited by available application
            data rather than by the congestion window (the final, partial
            round of a chunk).  Mirrors Linux's
            ``rate_sample.is_app_limited``: such samples understate the
            path's capacity and must not lower delivery-rate estimates.
        """
        raise NotImplementedError

    def on_idle(self, idle_time: float, rtt: float) -> None:
        """Slow-start-after-idle: Linux decays the window while the
        application is quiescent, halving it per RTO. This is what makes a
        chunk sent after a long buffer-full pause start slow — a key source
        of the size/time non-linearity the TTP models."""
        if idle_time <= 0:
            return
        rto = max(2.0 * rtt, 0.2)
        if idle_time < rto:
            return
        floor = float(INITIAL_CWND_SEGMENTS * self.mss)
        decay = 0.5 ** (idle_time / rto)
        self.cwnd_bytes = max(floor, self.cwnd_bytes * decay)

    def _clamp(self) -> None:
        floor = 2.0 * self.mss
        self.cwnd_bytes = float(min(max(self.cwnd_bytes, floor), MAX_CWND_BYTES))

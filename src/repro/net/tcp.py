"""Fluid TCP connection model.

:class:`TcpConnection` transmits video chunks over a :class:`LinkModel` at
RTT-round granularity and maintains the sender-side state that Linux exposes
as ``tcp_info`` — the statistics Fugu's TTP consumes (§4.2) and Puffer logs
in every ``video_sent`` record (Appendix B).

The model deliberately reproduces the effects that make *transmission time a
non-linear function of chunk size*:

* **slow-start ramp** — a fresh or idle-restarted window takes several RTTs
  of exponential growth to fill the pipe, so small chunks observe a lower
  effective throughput than large ones;
* **idle restart** — when the client's playback buffer is full the server
  pauses, the kernel decays the window, and the next chunk ramps up again;
* **RTT quantization** — a chunk smaller than one window still costs ~1 RTT.

The rounds themselves are the congestion controller's
(:meth:`~repro.net.cc.base.CongestionControl.run_rounds`): ``transmit``
checks its arguments, handles the idle gap, snapshots ``tcp_info`` and
counts the chunk, and the controller runs its round loop in between — the
same loop the stream kernel calls directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro import obs, slotted
from repro.fields import positive
from repro.net.cc.base import CongestionControl
from repro.net.cc.bbr import BbrLike
from repro.net.link import LinkModel


@dataclass(frozen=True)
class TcpInfo:
    """Snapshot of sender-side TCP statistics (subset of Linux ``tcp_info``).

    Field names follow the open-data description in Appendix B.  Slotted
    and built by :data:`make_tcp_info` (see :mod:`repro.slotted`).
    """

    __slots__ = ("cwnd", "in_flight", "min_rtt", "rtt", "delivery_rate")

    cwnd: float
    """Congestion window in segments (``tcpi_snd_cwnd``)."""

    in_flight: float
    """Unacknowledged segments in flight."""

    min_rtt: float
    """Minimum observed RTT in seconds (``tcpi_min_rtt``)."""

    rtt: float
    """Smoothed RTT estimate in seconds (``tcpi_rtt``)."""

    delivery_rate: float
    """Most recent delivery-rate estimate in bits/s
    (``tcpi_delivery_rate``)."""

    __reduce__ = slotted.reduce


make_tcp_info = slotted.builder(TcpInfo)
"""``TcpInfo(cwnd, in_flight, min_rtt, rtt, delivery_rate)`` in one step."""


@dataclass(frozen=True)
class TransmissionResult:
    """Outcome of sending one chunk."""

    transmission_time: float
    """Seconds from first byte sent to last byte acknowledged."""

    info_at_send: TcpInfo
    """The ``tcp_info`` snapshot taken when the send began — what the
    ``video_sent`` record logs and what the TTP sees."""

    rounds: int
    """Number of RTT rounds the transfer took."""


def count_transmission(size_bytes: float, elapsed: float, rounds: int) -> None:
    """The per-transmission ``tcp.*`` totals of one chunk, counted once after
    its rounds.  ``TcpConnection.transmit`` and the stream kernel both call
    it after the controller's ``run_rounds``, so an observed run reports the
    same totals whichever loop carried the chunk; nothing is counted inside
    the round itself."""
    if not obs.ENABLED:
        return
    obs.counter_inc("tcp.transmissions")
    obs.counter_inc("tcp.rounds", float(rounds))
    obs.counter_inc("tcp.bytes_sent", float(size_bytes))
    obs.observe("tcp.transmission_s", elapsed, spec=obs.TIME_SPEC)
    obs.observe("tcp.chunk_size_bytes", float(size_bytes), spec=obs.SIZE_SPEC)


class TcpConnection:
    """A long-lived connection carrying one video session's chunks.

    Parameters
    ----------
    link:
        Bottleneck capacity process.
    base_rtt:
        Two-way propagation delay in seconds (no queueing).
    cc:
        Congestion controller; defaults to a fresh :class:`BbrLike`, matching
        the primary experiment (§3.2).  It runs the rounds, and its MSS is
        the connection's.
    loss_rng:
        Generator for stochastic loss events (drawn by the generic round
        CUBIC runs; BBR's round never draws it).
    """

    def __init__(
        self,
        link: LinkModel,
        base_rtt: float,
        cc: Optional[CongestionControl] = None,
        loss_rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.link = link
        self.base_rtt = float(positive("TcpConnection", "base_rtt", base_rtt))
        self.cc = cc if cc is not None else BbrLike()
        self.mss = self.cc.mss
        self.loss_rng = loss_rng if loss_rng is not None else np.random.default_rng(0)
        self.srtt = self.base_rtt
        self.min_rtt = self.base_rtt
        self.delivery_rate_bps = 0.0
        self._in_flight_bytes = 0.0
        self._last_activity_end = 0.0
        self._total_bytes_sent = 0.0
        self._queue_bytes = 0.0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def tcp_info(self) -> TcpInfo:
        """Current sender statistics (the ``video_sent`` fields)."""
        return make_tcp_info(
            self.cc.cwnd_bytes / self.mss,
            self._in_flight_bytes / self.mss,
            self.min_rtt,
            self.srtt,
            self.delivery_rate_bps,
        )

    @property
    def total_bytes_sent(self) -> float:
        return self._total_bytes_sent

    @property
    def busy_until(self) -> float:
        """Absolute time at which the last transmission completes. A new
        transmit may not start earlier (chunks are serialized in order on
        the one connection)."""
        return self._last_activity_end

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def _handle_idle(self, at_time: float) -> None:
        idle = at_time - self._last_activity_end
        if idle <= 0:
            return
        if obs.ENABLED:
            obs.counter_inc("tcp.idle_gaps")
            obs.observe("tcp.idle_s", idle, spec=obs.TIME_SPEC)
        self.cc.on_idle(idle, self.srtt)
        # In-flight data drains within an RTT of going quiet.
        decay = float(np.exp(-idle / max(self.srtt, 1e-3)))
        self._in_flight_bytes *= decay
        if self._in_flight_bytes < self.mss:
            self._in_flight_bytes = 0.0
        self._queue_bytes *= decay

    def transmit(self, size_bytes: float, at_time: float) -> TransmissionResult:
        """Send ``size_bytes`` starting at absolute time ``at_time``.

        ``at_time`` must not precede the end of the previous transmission
        (the server sends chunks back to back on one connection).
        """
        if not math.isfinite(size_bytes):
            raise ValueError(f"size_bytes must be finite, got {size_bytes!r}")
        if size_bytes <= 0:
            raise ValueError("chunk size must be positive")
        if not math.isfinite(at_time):
            raise ValueError(f"at_time must be finite, got {at_time!r}")
        if at_time < self._last_activity_end - 1e-9:
            raise ValueError(
                "transmission requested before previous one finished "
                f"({at_time:.3f} < {self._last_activity_end:.3f})"
            )
        self._handle_idle(at_time)
        info_at_send = self.tcp_info()
        elapsed, rounds = self.cc.run_rounds(self, size_bytes, at_time)
        if obs.ENABLED:
            count_transmission(size_bytes, elapsed, rounds)
        return TransmissionResult(
            transmission_time=elapsed, info_at_send=info_at_send, rounds=rounds
        )

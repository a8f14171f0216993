"""Congestion-control interface and the TCP round.

The fluid TCP model advances in *rounds* of roughly one RTT, and the
controller owns the loop that runs them (:meth:`CongestionControl.run_rounds`),
which ``TcpConnection.transmit`` and the stream kernel both call.  The
generic loop tells the controller what each round delivered
(:meth:`CongestionControl.on_round`), the shape of the Linux CC module
interface; :class:`~repro.net.cc.bbr.BbrLike` overrides the whole loop.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Tuple

from repro.fields import positive

if TYPE_CHECKING:  # the connection holds its controller: a cycle at runtime
    from repro.net.link import LinkModel
    from repro.net.tcp import TcpConnection

DEFAULT_MSS = 1460
"""Sender maximum segment size in bytes."""

INITIAL_CWND_SEGMENTS = 10
"""Linux default initial window (RFC 6928)."""

MAX_CWND_BYTES = 64 * 1024 * 1024
"""Ceiling every controller clamps its window to."""

_MAX_ROUNDS_PER_CHUNK = 100_000
_SRTT_GAIN = 0.125  # RFC 6298 smoothing
_QUEUE_LOSS_THRESHOLD = 1.5  # queue > 1.5 BDP-equivalents risks drops


def bad_capacity(link: "LinkModel", now: float, capacity_bps: float) -> ValueError:
    """What a round loop raises for a capacity that is not finite and
    positive: NaN would give NaN times, ±inf or a negative one a one-round
    chunk, and zero a bare ``ZeroDivisionError``."""
    return ValueError(
        f"{type(link).__name__} reported capacity {capacity_bps!r} b/s at "
        f"t={now!r}; capacity must be finite and positive"
    )


class CongestionControl:
    """Base class owning the congestion window in bytes and the round loop."""

    name = "base"

    def __init__(self, mss: int = DEFAULT_MSS) -> None:
        positive(type(self).__name__, "mss", mss)
        self.mss = mss
        self.cwnd_bytes = float(INITIAL_CWND_SEGMENTS * mss)

    @property
    def cwnd_segments(self) -> float:
        return self.cwnd_bytes / self.mss

    def run_rounds(
        self, connection: "TcpConnection", size_bytes: float, at_time: float
    ) -> Tuple[float, int]:
        """Carry ``size_bytes`` over ``connection`` from ``at_time`` and
        return ``(transmission time, rounds)``.  Idle handling, the
        ``tcp_info`` snapshot and the per-chunk counts are the caller's.
        Each round calls :meth:`on_round`, after a loss draw when the
        bottleneck queue overflows."""
        # One RTT round per iteration, ten a chunk: connection state lives
        # in locals for the length of the loop and is written back once.
        on_round = self.on_round
        link = connection.link
        epoch_at = link.epoch_at
        loss_rng = connection.loss_rng
        base_rtt = connection.base_rtt
        mss = self.mss
        srtt = connection.srtt
        min_rtt = connection.min_rtt
        delivery_rate_bps = connection.delivery_rate_bps
        queue_bytes = connection._queue_bytes
        window = connection._in_flight_bytes
        capacity_Bps = 0.0
        # Capacity is constant on [now, next_change_after(now)), so one
        # epoch_at read serves every round that starts inside that interval.
        change_at = -math.inf
        remaining = float(size_bytes)
        elapsed = 0.0
        rounds = 0
        while remaining > 0:
            rounds += 1
            if rounds > _MAX_ROUNDS_PER_CHUNK:
                raise RuntimeError("transmission did not terminate")
            now = at_time + elapsed
            if now >= change_at:
                capacity_bps, change_at = epoch_at(now)
                if not 0.0 < capacity_bps < math.inf:
                    raise bad_capacity(link, now, capacity_bps)
                capacity_Bps = capacity_bps / 8.0
            cwnd_bytes = self.cwnd_bytes
            window = min(cwnd_bytes, remaining)
            # App-limited round (Linux `app_limited`): the send was capped
            # by remaining application data, not the congestion window, so
            # the delivery-rate sample understates what the path can carry.
            app_limited = remaining < cwnd_bytes
            drain_time = window / capacity_Bps
            # Queueing delay from data the bottleneck hasn't drained yet.
            rtt_sample = base_rtt + queue_bytes / capacity_Bps
            link_limited = drain_time > rtt_sample
            loss = False
            if link_limited:
                duration = drain_time
                # The excess of window over one BDP sits in the queue.
                bdp = capacity_Bps * base_rtt
                queue_bytes = max(window - bdp, 0.0)
                bdp = max(bdp, mss)
                if queue_bytes > _QUEUE_LOSS_THRESHOLD * bdp:
                    overflow = queue_bytes / bdp - _QUEUE_LOSS_THRESHOLD
                    loss = bool(loss_rng.random() < min(0.8, 0.3 * overflow))
            else:
                duration = rtt_sample
                queue_bytes = 0.0
            delivery_rate = window * 8.0 / duration
            on_round(
                window,
                duration,
                rtt_sample,
                delivery_rate,
                link_limited,
                loss,
                app_limited,
            )
            srtt = (1.0 - _SRTT_GAIN) * srtt + _SRTT_GAIN * rtt_sample
            if rtt_sample < min_rtt:
                min_rtt = rtt_sample
            # Linux semantics: app-limited samples may only *raise* the
            # estimate — a short final round must not make the TTP's
            # `delivery_rate` feature claim the path got slower.
            if not app_limited or delivery_rate > delivery_rate_bps:
                delivery_rate_bps = delivery_rate
            remaining -= window
            elapsed += duration

        connection.srtt = srtt
        connection.min_rtt = min_rtt
        connection.delivery_rate_bps = delivery_rate_bps
        connection._queue_bytes = queue_bytes
        connection._in_flight_bytes = window
        connection._total_bytes_sent += size_bytes
        connection._last_activity_end = at_time + elapsed
        return elapsed, rounds

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

        The round arrives as plain arguments — the loop runs one per RTT,
        ten a chunk, and an object per round cost more than the
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
            reacts to it).
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

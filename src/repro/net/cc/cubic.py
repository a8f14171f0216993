"""CUBIC-like loss-based congestion control.

Round-granularity model of Linux CUBIC (RFC 8312): exponential slow start
until ``ssthresh`` or loss, then window growth following the cubic function
``W(t) = C (t - K)^3 + W_max`` of elapsed time since the last loss, with
multiplicative decrease by ``beta`` on loss events.
"""

from __future__ import annotations

from repro import obs
from repro.net.cc.base import CongestionControl, DEFAULT_MSS

_CUBIC_C = 0.4
"""Cubic scaling constant, in segments/second^3 as in RFC 8312."""

_CUBIC_BETA = 0.7
"""Multiplicative decrease factor."""


class CubicLike(CongestionControl):
    """Round-granularity CUBIC model."""

    name = "cubic"

    def __init__(self, mss: int = DEFAULT_MSS) -> None:
        super().__init__(mss)
        self.ssthresh_bytes = float("inf")
        self._w_max_segments = 0.0
        self._epoch_elapsed = 0.0
        self._k = 0.0

    @property
    def in_slow_start(self) -> bool:
        return self.cwnd_bytes < self.ssthresh_bytes

    def _enter_recovery(self) -> None:
        self._w_max_segments = self.cwnd_segments
        self.cwnd_bytes *= _CUBIC_BETA
        # Linux floors ssthresh at two segments (tcp_recalc_ssthresh);
        # without the floor, repeated losses drive ssthresh below the
        # window clamp and the controller can never leave "slow start".
        self.ssthresh_bytes = max(self.cwnd_bytes, 2.0 * self.mss)
        self._epoch_elapsed = 0.0
        self._k = (self._w_max_segments * (1.0 - _CUBIC_BETA) / _CUBIC_C) ** (
            1.0 / 3.0
        )

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
        if loss:
            if obs.ENABLED:
                obs.counter_inc("cc.cubic.loss_events")
            self._enter_recovery()
            self._clamp()
            return
        if app_limited:
            # Congestion-window validation (RFC 7661), as Linux applies to
            # CUBIC via tcp_cwnd_validate: a round whose send was capped by
            # available application data — the short final round of a chunk
            # — says nothing about the path, so it must not grow the window.
            # Without this, streaming small chunks would double cwnd every
            # app-limited slow-start round without ever filling the pipe.
            if obs.ENABLED:
                obs.counter_inc("cc.cubic.app_limited_skipped")
            return
        if self.in_slow_start:
            self.cwnd_bytes *= 2.0
            if self.cwnd_bytes >= self.ssthresh_bytes:
                # Exiting slow start without loss: start a cubic epoch here.
                self._w_max_segments = self.cwnd_segments
                self._epoch_elapsed = 0.0
                self._k = 0.0
                if obs.ENABLED:
                    obs.counter_inc("cc.cubic.slow_start_exits")
        else:
            self._epoch_elapsed += duration
            target_segments = (
                _CUBIC_C * (self._epoch_elapsed - self._k) ** 3
                + self._w_max_segments
            )
            # Growth only; the cubic function dips below W_max before K.
            if target_segments * self.mss > self.cwnd_bytes:
                self.cwnd_bytes = target_segments * self.mss
            else:
                # TCP-friendly region: at least Reno-like linear growth.
                self.cwnd_bytes += self.mss * max(
                    duration / max(rtt, 1e-3), 0.0
                )
        self._clamp()

    def on_idle(self, idle_time: float, rtt: float) -> None:
        super().on_idle(idle_time, rtt)
        if idle_time > 0:
            rto = max(2.0 * rtt, 0.2)
            if idle_time >= rto:
                # Restarting after idle begins a fresh cubic epoch.
                self._epoch_elapsed = 0.0

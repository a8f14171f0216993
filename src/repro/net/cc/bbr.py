"""BBR-like congestion control.

A rate-based model of BBR v1 [Cardwell et al. 2016] at round granularity:

* a windowed-max filter estimates bottleneck bandwidth from delivery-rate
  samples;
* during STARTUP the window grows by 2x per round until bandwidth stops
  growing (three rounds without ~25% growth), as in BBR's full-pipe check;
* in steady state (PROBE_BW) the window is pinned to ``cwnd_gain`` times the
  estimated bandwidth-delay product, which keeps queues small;
* loss is ignored (BBR v1 is not loss-based).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque

from repro import obs
from repro.net.cc.base import DEFAULT_MSS, MAX_CWND_BYTES, CongestionControl

_BW_FILTER_ROUNDS = 10
_FULL_PIPE_GROWTH = 1.25
_FULL_PIPE_ROUNDS = 3
_INF = float("inf")


class BbrLike(CongestionControl):
    """Round-granularity BBR model."""

    name = "bbr"

    def __init__(self, mss: int = DEFAULT_MSS, cwnd_gain: float = 2.0) -> None:
        super().__init__(mss)
        # A NaN gain would pass ``<= 0``; the steady-state window would be
        # NaN, which the clamps pass through and which ends a transmission
        # after one round: every chunk "arriving" in one RTT on any link.
        if not (math.isfinite(cwnd_gain) and cwnd_gain > 0):
            raise ValueError(
                f"cwnd_gain must be finite and positive, got {cwnd_gain!r}"
            )
        self.cwnd_gain = cwnd_gain
        self._bw_samples: Deque[float] = deque(maxlen=_BW_FILTER_ROUNDS)
        self._min_rtt = float("inf")
        self._in_startup = True
        self._full_pipe_baseline = 0.0
        self._stale_rounds = 0

    @property
    def bandwidth_estimate_bps(self) -> float:
        """Windowed-max bottleneck bandwidth estimate."""
        return max(self._bw_samples) if self._bw_samples else 0.0

    @property
    def in_startup(self) -> bool:
        return self._in_startup

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
        samples = self._bw_samples
        # As in Linux BBR, app-limited rate samples are ignored unless they
        # exceed the current estimate: a partial final round says nothing
        # about the bottleneck (and appending it would also evict a genuine
        # sample from the windowed-max filter).
        if not app_limited or delivery_rate_bps > (
            max(samples) if samples else 0.0
        ):
            samples.append(delivery_rate_bps)
        min_rtt = self._min_rtt
        if rtt < min_rtt:
            self._min_rtt = min_rtt = rtt
        bw = max(samples) if samples else 0.0
        cwnd = self.cwnd_bytes
        in_startup = self._in_startup
        if in_startup:
            if bw > self._full_pipe_baseline * _FULL_PIPE_GROWTH:
                self._full_pipe_baseline = bw
                self._stale_rounds = 0
            elif not app_limited:
                # App-limited rounds are no evidence the pipe is full
                # (Linux: bbr_check_full_bw_reached bails on app-limited
                # samples), so they don't age the full-pipe check.
                self._stale_rounds += 1
                if self._stale_rounds >= _FULL_PIPE_ROUNDS:
                    self._in_startup = in_startup = False
            if not app_limited:
                # Congestion-window validation (RFC 7661): the window does
                # not grow on rounds the application could not fill —
                # otherwise streaming small chunks would double cwnd
                # without bound while staying in STARTUP.
                cwnd *= 2.0
        if not in_startup and bw > 0 and min_rtt < _INF:
            bdp_bytes = bw / 8.0 * min_rtt
            cwnd = self.cwnd_gain * bdp_bytes
        # CongestionControl._clamp, inlined: this runs once per RTT.
        self.cwnd_bytes = float(
            min(max(cwnd, 2.0 * self.mss), MAX_CWND_BYTES)
        )

    def on_idle(self, idle_time: float, rtt: float) -> None:
        super().on_idle(idle_time, rtt)
        if idle_time <= 0:
            return
        # After a long idle the pipe state is stale: BBR must re-probe, so
        # re-enter startup and age out old bandwidth samples.
        rto = max(2.0 * rtt, 0.2)
        if idle_time >= 4.0 * rto:
            if obs.ENABLED and not self._in_startup:
                obs.counter_inc("cc.bbr.idle_restarts")
            self._in_startup = True
            self._full_pipe_baseline = self.bandwidth_estimate_bps * 0.5
            self._stale_rounds = 0
            # Keep one (discounted) sample as institutional memory.
            if self._bw_samples:
                last = self._bw_samples[-1]
                self._bw_samples.clear()
                self._bw_samples.append(last * 0.7)

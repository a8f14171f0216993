"""BBR-like congestion control.

A rate-based model of BBR v1 [Cardwell et al. 2016] at round granularity:

* a windowed-max filter estimates bottleneck bandwidth from delivery-rate
  samples;
* during STARTUP the window grows by 2x per round until bandwidth stops
  growing (three rounds without ~25% growth), as in BBR's full-pipe check;
* in steady state (PROBE_BW) the window is pinned to ``cwnd_gain`` times the
  estimated bandwidth-delay product, which keeps queues small;
* loss is ignored (BBR v1 is not loss-based).

The update is written into the controller's own round loop
(:meth:`BbrLike.run_rounds`), not called once per round: most chunks of a
run cross a BBR path, and a call per RTT cost more than the update.
"""

from __future__ import annotations

import math
from collections import deque
from typing import TYPE_CHECKING, Deque, Tuple

from repro import obs
from repro.fields import positive
from repro.net.cc.base import (
    _MAX_ROUNDS_PER_CHUNK,
    _SRTT_GAIN,
    DEFAULT_MSS,
    MAX_CWND_BYTES,
    CongestionControl,
    bad_capacity,
)

if TYPE_CHECKING:  # the connection holds its controller: a cycle at runtime
    from repro.net.tcp import TcpConnection

_BW_FILTER_ROUNDS = 10
_FULL_PIPE_GROWTH = 1.25
_FULL_PIPE_ROUNDS = 3
_INF = float("inf")
_MAX_CWND = float(MAX_CWND_BYTES)


def _filter_max(samples: Deque[float]) -> Tuple[float, int]:
    """The bandwidth estimate off the filter, and the age of the copy of it
    ``max`` returns: how many appends ago that copy arrived.  ``max``
    returns the first (oldest) of equal maxima, so a younger copy may
    exist; :meth:`BbrLike.run_rounds` only needs the age not to understate
    it."""
    if not samples:
        return 0.0, 0
    bw = max(samples)
    return bw, len(samples) - 1 - samples.index(bw)


class BbrLike(CongestionControl):
    """Round-granularity BBR model."""

    name = "bbr"

    def __init__(self, mss: int = DEFAULT_MSS, cwnd_gain: float = 2.0) -> None:
        super().__init__(mss)
        positive("BbrLike", "cwnd_gain", cwnd_gain)
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

    def run_rounds(
        self, connection: "TcpConnection", size_bytes: float, at_time: float
    ) -> Tuple[float, int]:
        """:meth:`CongestionControl.run_rounds` with BBR's update written into
        each round: the rate sample joins the filter unless it is app-limited
        and no higher than the estimate (as in Linux: a partial final round
        says nothing about the bottleneck); app-limited rounds neither age
        the full-pipe check nor double the window (RFC 7661).  Loss is
        ignored, so no loss flag is computed and the loss generator is never
        drawn.  Every float operation is that of the generic loop calling a
        per-round BBR update (the frozen reference the transmit differential
        holds this loop to), on the same operands in the same order; what a
        round no longer pays for is a call.

        * *The filter's maximum is kept as it changes.*  ``bw`` holds it,
          with ``age``, a number of appends no smaller than the age of some
          copy of ``bw`` in the deque (``_filter_max`` seeds both from the
          deque on every call, because ``on_idle`` rewrites it between
          chunks).  Appending ``s >= bw`` makes ``s`` the maximum at age 0 (a
          tie is the same double: a rate is never ``-0.0`` or NaN).  A lower
          ``s`` ages the copy of ``bw`` by one; while that age is below the
          deque's ``maxlen`` the copy is still inside and still the maximum.
          At ``maxlen`` it has been evicted and the deque is scanned again.
          An overstated age only rescans early.
        * *Clamps are comparisons.*  ``min(a, b)`` is ``b if b < a else a``
          and ``max(a, b)`` is ``b if b > a else a``, and each comparison
          keeps exactly that operand: ``window`` is ``remaining`` only when
          ``remaining < cwnd``; a ``-0.0`` queue stays ``-0.0``; the window
          is raised to its floor only when below it and lowered to the
          ceiling only when above it.
        * *Constants are hoisted only as the same double*: the BDP
          ``capacity_Bps * base_rtt`` once per capacity read, and
          ``1.0 - _SRTT_GAIN``, which is 0.875 exactly.
        """
        link = connection.link
        epoch_at = link.epoch_at
        base_rtt = connection.base_rtt
        srtt = connection.srtt
        min_rtt = connection.min_rtt
        delivery_rate_bps = connection.delivery_rate_bps
        queue_bytes = connection._queue_bytes
        window = connection._in_flight_bytes
        cwnd = self.cwnd_bytes
        cwnd_gain = self.cwnd_gain
        cwnd_floor = 2.0 * self.mss
        samples = self._bw_samples
        append = samples.append
        bw, age = _filter_max(samples)
        cc_min_rtt = self._min_rtt
        in_startup = self._in_startup
        baseline = self._full_pipe_baseline
        stale = self._stale_rounds
        srtt_keep = 1.0 - _SRTT_GAIN
        capacity_Bps = 0.0
        bdp = 0.0
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
                if not 0.0 < capacity_bps < _INF:
                    raise bad_capacity(link, now, capacity_bps)
                capacity_Bps = capacity_bps / 8.0
                bdp = capacity_Bps * base_rtt
            app_limited = remaining < cwnd
            window = remaining if app_limited else cwnd
            drain_time = window / capacity_Bps
            rtt_sample = base_rtt + queue_bytes / capacity_Bps
            if drain_time > rtt_sample:  # link limited
                duration = drain_time
                queue_bytes = window - bdp
                if queue_bytes < 0.0:
                    queue_bytes = 0.0
            else:
                duration = rtt_sample
                queue_bytes = 0.0
            delivery_rate = window * 8.0 / duration
            # --- the controller's update ------------------------------------
            if not app_limited or delivery_rate > bw:
                append(delivery_rate)
                if delivery_rate >= bw:
                    bw = delivery_rate
                    age = 0
                else:
                    age += 1
                    if age >= _BW_FILTER_ROUNDS:
                        bw, age = _filter_max(samples)
            if rtt_sample < cc_min_rtt:
                cc_min_rtt = rtt_sample
            if in_startup:
                if bw > baseline * _FULL_PIPE_GROWTH:
                    baseline = bw
                    stale = 0
                elif not app_limited:
                    stale += 1
                    if stale >= _FULL_PIPE_ROUNDS:
                        in_startup = False
                if not app_limited:
                    cwnd *= 2.0
            if not in_startup and bw > 0 and cc_min_rtt < _INF:
                cwnd = cwnd_gain * (bw / 8.0 * cc_min_rtt)
            if cwnd < cwnd_floor:
                cwnd = cwnd_floor
            if cwnd > _MAX_CWND:
                cwnd = _MAX_CWND
            # --- the connection's own updates -------------------------------
            srtt = srtt_keep * srtt + _SRTT_GAIN * rtt_sample
            if rtt_sample < min_rtt:
                min_rtt = rtt_sample
            if not app_limited or delivery_rate > delivery_rate_bps:
                delivery_rate_bps = delivery_rate
            remaining -= window
            elapsed += duration
        self.cwnd_bytes = cwnd
        self._min_rtt = cc_min_rtt
        self._in_startup = in_startup
        self._full_pipe_baseline = baseline
        self._stale_rounds = stale
        connection.srtt = srtt
        connection.min_rtt = min_rtt
        connection.delivery_rate_bps = delivery_rate_bps
        connection._queue_bytes = queue_bytes
        connection._in_flight_bytes = window
        connection._total_bytes_sent += size_bytes
        connection._last_activity_end = at_time + elapsed
        return elapsed, rounds

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

"""The TCP round as it was with one ``RoundSample`` object per RTT, frozen.

``tests/net/test_transmit_differential.py`` holds the live
``TcpConnection.transmit`` and both congestion controllers to these classes
bit for bit.  They are the connection and the controllers written out in
full as they stood before the round loop moved onto local variables —
``capacity_at`` looked up on every round, connection state written through
``self`` on every round, a frozen dataclass handed to ``on_round`` — so a
later change to ``src/repro/net/tcp.py`` or ``src/repro/net/cc/`` cannot
move the reference along with the code under test.  Nothing here imports
from either; the link models and ``repro.obs`` are shared on purpose (the
links are an input, and the obs registry is what the two sides' counters
are compared through).
"""

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro import obs

DEFAULT_MSS = 1460
INITIAL_CWND_SEGMENTS = 10

_MAX_ROUNDS_PER_CHUNK = 100_000
_SRTT_GAIN = 0.125
_QUEUE_LOSS_THRESHOLD = 1.5

_BW_FILTER_ROUNDS = 10
_FULL_PIPE_GROWTH = 1.25
_FULL_PIPE_ROUNDS = 3

_CUBIC_C = 0.4
_CUBIC_BETA = 0.7


@dataclass(frozen=True)
class RoundSample:
    delivered_bytes: float
    duration: float
    rtt: float
    delivery_rate_bps: float
    link_limited: bool
    loss: bool
    app_limited: bool = False


@dataclass(frozen=True)
class ReferenceTcpInfo:
    cwnd: float
    in_flight: float
    min_rtt: float
    rtt: float
    delivery_rate: float


@dataclass(frozen=True)
class ReferenceTransmissionResult:
    transmission_time: float
    info_at_send: ReferenceTcpInfo
    rounds: int


class ReferenceCongestionControl:
    name = "base"

    def __init__(self, mss=DEFAULT_MSS):
        if mss <= 0:
            raise ValueError("mss must be positive")
        self.mss = mss
        self.cwnd_bytes = float(INITIAL_CWND_SEGMENTS * mss)

    @property
    def cwnd_segments(self):
        return self.cwnd_bytes / self.mss

    def on_round(self, sample):
        raise NotImplementedError

    def on_idle(self, idle_time, rtt):
        if idle_time <= 0:
            return
        rto = max(2.0 * rtt, 0.2)
        if idle_time < rto:
            return
        floor = float(INITIAL_CWND_SEGMENTS * self.mss)
        decay = 0.5 ** (idle_time / rto)
        self.cwnd_bytes = max(floor, self.cwnd_bytes * decay)

    def _clamp(self, max_cwnd_bytes=64 * 1024 * 1024):
        floor = 2.0 * self.mss
        self.cwnd_bytes = float(min(max(self.cwnd_bytes, floor), max_cwnd_bytes))


class ReferenceBbr(ReferenceCongestionControl):
    name = "bbr"

    def __init__(self, mss=DEFAULT_MSS, cwnd_gain=2.0):
        super().__init__(mss)
        if cwnd_gain <= 0:
            raise ValueError("cwnd_gain must be positive")
        self.cwnd_gain = cwnd_gain
        self._bw_samples = deque(maxlen=_BW_FILTER_ROUNDS)
        self._min_rtt = float("inf")
        self._in_startup = True
        self._full_pipe_baseline = 0.0
        self._stale_rounds = 0

    @property
    def bandwidth_estimate_bps(self):
        return max(self._bw_samples) if self._bw_samples else 0.0

    def on_round(self, sample):
        if not sample.app_limited or (
            sample.delivery_rate_bps > self.bandwidth_estimate_bps
        ):
            self._bw_samples.append(sample.delivery_rate_bps)
            if obs.ENABLED:
                obs.counter_inc("cc.bbr.bw_samples")
        elif obs.ENABLED:
            obs.counter_inc("cc.bbr.bw_samples_app_limited_skipped")
        self._min_rtt = min(self._min_rtt, sample.rtt)
        bw = self.bandwidth_estimate_bps
        if self._in_startup:
            if bw > self._full_pipe_baseline * _FULL_PIPE_GROWTH:
                self._full_pipe_baseline = bw
                self._stale_rounds = 0
            elif not sample.app_limited:
                self._stale_rounds += 1
                if self._stale_rounds >= _FULL_PIPE_ROUNDS:
                    self._in_startup = False
                    if obs.ENABLED:
                        obs.counter_inc("cc.bbr.startup_exits")
            if not sample.app_limited:
                self.cwnd_bytes *= 2.0
        if not self._in_startup and bw > 0 and self._min_rtt < float("inf"):
            bdp_bytes = bw / 8.0 * self._min_rtt
            self.cwnd_bytes = self.cwnd_gain * bdp_bytes
        self._clamp()

    def on_idle(self, idle_time, rtt):
        super().on_idle(idle_time, rtt)
        if idle_time <= 0:
            return
        rto = max(2.0 * rtt, 0.2)
        if idle_time >= 4.0 * rto:
            if obs.ENABLED and not self._in_startup:
                obs.counter_inc("cc.bbr.idle_restarts")
            self._in_startup = True
            self._full_pipe_baseline = self.bandwidth_estimate_bps * 0.5
            self._stale_rounds = 0
            if self._bw_samples:
                last = self._bw_samples[-1]
                self._bw_samples.clear()
                self._bw_samples.append(last * 0.7)


class ReferenceCubic(ReferenceCongestionControl):
    name = "cubic"

    def __init__(self, mss=DEFAULT_MSS):
        super().__init__(mss)
        self.ssthresh_bytes = float("inf")
        self._w_max_segments = 0.0
        self._epoch_elapsed = 0.0
        self._k = 0.0

    @property
    def in_slow_start(self):
        return self.cwnd_bytes < self.ssthresh_bytes

    def _enter_recovery(self):
        self._w_max_segments = self.cwnd_segments
        self.cwnd_bytes *= _CUBIC_BETA
        self.ssthresh_bytes = max(self.cwnd_bytes, 2.0 * self.mss)
        self._epoch_elapsed = 0.0
        self._k = (self._w_max_segments * (1.0 - _CUBIC_BETA) / _CUBIC_C) ** (
            1.0 / 3.0
        )

    def on_round(self, sample):
        if sample.loss:
            if obs.ENABLED:
                obs.counter_inc("cc.cubic.loss_events")
            self._enter_recovery()
            self._clamp()
            return
        if sample.app_limited:
            if obs.ENABLED:
                obs.counter_inc("cc.cubic.app_limited_skipped")
            return
        if self.in_slow_start:
            self.cwnd_bytes *= 2.0
            if self.cwnd_bytes >= self.ssthresh_bytes:
                self._w_max_segments = self.cwnd_segments
                self._epoch_elapsed = 0.0
                self._k = 0.0
                if obs.ENABLED:
                    obs.counter_inc("cc.cubic.slow_start_exits")
        else:
            self._epoch_elapsed += sample.duration
            target_segments = (
                _CUBIC_C * (self._epoch_elapsed - self._k) ** 3
                + self._w_max_segments
            )
            if target_segments * self.mss > self.cwnd_bytes:
                self.cwnd_bytes = target_segments * self.mss
            else:
                self.cwnd_bytes += self.mss * max(
                    sample.duration / max(sample.rtt, 1e-3), 0.0
                )
        self._clamp()

    def on_idle(self, idle_time, rtt):
        super().on_idle(idle_time, rtt)
        if idle_time > 0:
            rto = max(2.0 * rtt, 0.2)
            if idle_time >= rto:
                self._epoch_elapsed = 0.0


class ReferenceTcpConnection:
    def __init__(self, link, base_rtt, cc=None, mss=DEFAULT_MSS, loss_rng=None):
        if base_rtt <= 0:
            raise ValueError("base RTT must be positive")
        self.link = link
        self.base_rtt = float(base_rtt)
        self.cc = cc if cc is not None else ReferenceBbr(mss=mss)
        self.mss = mss
        self.loss_rng = loss_rng if loss_rng is not None else np.random.default_rng(0)
        self.srtt = self.base_rtt
        self.min_rtt = self.base_rtt
        self.delivery_rate_bps = 0.0
        self._in_flight_bytes = 0.0
        self._last_activity_end = 0.0
        self._total_bytes_sent = 0.0
        self._queue_bytes = 0.0

    def tcp_info(self):
        return ReferenceTcpInfo(
            cwnd=self.cc.cwnd_bytes / self.mss,
            in_flight=self._in_flight_bytes / self.mss,
            min_rtt=self.min_rtt,
            rtt=self.srtt,
            delivery_rate=self.delivery_rate_bps,
        )

    def _handle_idle(self, at_time):
        idle = at_time - self._last_activity_end
        if idle <= 0:
            return
        if obs.ENABLED:
            obs.counter_inc("tcp.idle_gaps")
            obs.observe("tcp.idle_s", idle, spec=obs.TIME_SPEC)
        self.cc.on_idle(idle, self.srtt)
        self._in_flight_bytes *= float(np.exp(-idle / max(self.srtt, 1e-3)))
        if self._in_flight_bytes < self.mss:
            self._in_flight_bytes = 0.0
        self._queue_bytes *= float(np.exp(-idle / max(self.srtt, 1e-3)))

    def transmit(self, size_bytes, at_time):
        if size_bytes <= 0:
            raise ValueError("chunk size must be positive")
        if at_time < self._last_activity_end - 1e-9:
            raise ValueError(
                "transmission requested before previous one finished "
                f"({at_time:.3f} < {self._last_activity_end:.3f})"
            )
        self._handle_idle(at_time)
        info_at_send = self.tcp_info()

        remaining = float(size_bytes)
        elapsed = 0.0
        rounds = 0
        while remaining > 0:
            rounds += 1
            if rounds > _MAX_ROUNDS_PER_CHUNK:
                raise RuntimeError("transmission did not terminate")
            capacity_bps = self.link.capacity_at(at_time + elapsed)
            capacity_Bps = capacity_bps / 8.0
            window = min(self.cc.cwnd_bytes, remaining)
            app_limited = remaining < self.cc.cwnd_bytes
            drain_time = window / capacity_Bps
            queue_delay = self._queue_bytes / capacity_Bps
            rtt_sample = self.base_rtt + queue_delay
            link_limited = drain_time > rtt_sample
            duration = max(rtt_sample, drain_time)
            if link_limited:
                bdp = capacity_Bps * self.base_rtt
                self._queue_bytes = max(window - bdp, 0.0)
            else:
                self._queue_bytes = 0.0
            loss = False
            if link_limited:
                bdp = max(capacity_Bps * self.base_rtt, self.mss)
                if self._queue_bytes > _QUEUE_LOSS_THRESHOLD * bdp:
                    overflow = self._queue_bytes / bdp - _QUEUE_LOSS_THRESHOLD
                    loss = bool(self.loss_rng.random() < min(0.8, 0.3 * overflow))
            delivery_rate = window * 8.0 / duration
            sample = RoundSample(
                delivered_bytes=window,
                duration=duration,
                rtt=rtt_sample,
                delivery_rate_bps=delivery_rate,
                link_limited=link_limited,
                loss=loss,
                app_limited=app_limited,
            )
            self.cc.on_round(sample)
            if obs.ENABLED:
                obs.counter_inc("tcp.rounds")
                if app_limited:
                    obs.counter_inc("tcp.rounds_app_limited")
                if link_limited:
                    obs.counter_inc("tcp.rounds_link_limited")
                if loss:
                    obs.counter_inc("tcp.loss_events")
                obs.observe(
                    "tcp.round_delivery_rate_bps",
                    delivery_rate,
                    spec=obs.RATE_SPEC,
                )
            self.srtt = (1.0 - _SRTT_GAIN) * self.srtt + _SRTT_GAIN * rtt_sample
            self.min_rtt = min(self.min_rtt, rtt_sample)
            if not app_limited or delivery_rate > self.delivery_rate_bps:
                self.delivery_rate_bps = delivery_rate
            self._in_flight_bytes = window
            remaining -= window
            elapsed += duration

        self._total_bytes_sent += size_bytes
        self._last_activity_end = at_time + elapsed
        if obs.ENABLED:
            obs.counter_inc("tcp.transmissions")
            obs.counter_inc("tcp.bytes_sent", float(size_bytes))
            obs.observe("tcp.transmission_s", elapsed, spec=obs.TIME_SPEC)
            obs.observe(
                "tcp.chunk_size_bytes", float(size_bytes), spec=obs.SIZE_SPEC
            )
        return ReferenceTransmissionResult(
            transmission_time=elapsed, info_at_send=info_at_send, rounds=rounds
        )

"""Per-session fast path for the buffer- and rate-based schemes.

``run_session_batch`` is a plain loop over ``session_ids``: each session
runs to completion on a lean copy of the scalar stack before the next one
starts.  Two of the three things that used to set it apart now belong to
the scalar core as well — every session streams from
:class:`~repro.media.menus.MenuBlockSource`, and ``TcpConnection.transmit``
is one loop over local variables with no object per RTT — so what is left
here is (EXPERIMENTS.md, "A chunk outside the decide step", has the
measured residual):

* the menu *rows* are read directly, with no ``ChunkMenu`` per chunk;
* ``BbrLike.on_round`` is inlined into the round loop, the loss generator
  is never created, and connection + controller state are slots of one
  object;
* the stream/session glue — playback buffer, BBA / BOLA / rate-based
  decision rules, CONSORT bookkeeping — is inlined, with no coroutine
  hand-offs, ``AbrContext`` or telemetry branches.

Every arithmetic operation keeps the scalar path's IEEE evaluation order,
so the shards are bit-identical — the contract the differential suite in
``tests/batch/`` enforces.  Sessions run one at a time because lockstep
lanes have nothing to amortise on this traffic: watch times are heavy
tailed (Fig. 10), one four-hour session outlives forty ordinary ones, and
lanes never stay full.

Random-draw equivalence:

* each session owns its session/media generators, exactly as on the
  scalar path;
* the per-connection loss generator is *not* created: BBR ignores a
  round's ``loss`` flag and the loss generator feeds nothing else, so
  skipping its draws is unobservable (CUBIC paths fall back to the scalar
  executor);
* chunk menus are realized ahead in blocks — the media generator feeds
  nothing but its own lazily-consumed sequence, so over-generation is
  invisible.
"""

from __future__ import annotations

import gc

from collections import deque
from typing import Deque, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro import obs, sanitizer
from repro.abr.base import AbrAlgorithm, ChunkRecord
from repro.abr.bba import BBA
from repro.abr.bola import Bola
from repro.abr.rate_based import RateBased
from repro.media.encoder import CHUNK_DURATION
from repro.media.menus import MenuBlockSource
from repro.experiment.consort import ConsortFlow, classify_stream
from repro.experiment.harness import (
    SessionResult,
    SessionShard,
    TrialConfig,
    assign_expt_ids,
    media_seed,
    run_session,
)
from repro.experiment.schemes import SchemeSpec
from repro.net.cc.base import DEFAULT_MSS, INITIAL_CWND_SEGMENTS
from repro.net.path import NetworkPath, PathSampler
from repro.net.tcp import TcpInfo, _SRTT_GAIN
from repro.streaming.buffer import BUFFER_EPSILON_S, MAX_BUFFER_S
from repro.streaming.session import StreamResult

VECTORIZABLE_SCHEME_TYPES: Tuple[type, ...] = (BBA, Bola, RateBased)
"""ABR classes whose ``choose`` the fast path reproduces on menu rows.
Exact types only: a subclass may override ``choose`` arbitrarily."""

_BW_FILTER_ROUNDS = 10
_FULL_PIPE_GROWTH = 1.25
_FULL_PIPE_ROUNDS = 3
_CWND_GAIN = 2.0
_MAX_CWND_BYTES = float(64 * 1024 * 1024)
_MAX_ROUNDS_PER_CHUNK = 100_000
_INITIAL_CWND = float(INITIAL_CWND_SEGMENTS * DEFAULT_MSS)
_CWND_FLOOR = 2.0 * DEFAULT_MSS


def is_vectorizable_algorithm(algo: AbrAlgorithm) -> bool:
    """Whether the fast path can reproduce this ABR instance's decisions."""
    return type(algo) in VECTORIZABLE_SCHEME_TYPES


class _Session:
    """One session on the fast path: the state of its connection
    (:class:`repro.net.tcp.TcpConnection`) and congestion controller
    (:class:`repro.net.cc.bbr.BbrLike`) as plain attributes, plus the
    ``session_machine`` / ``stream_machine`` loops that drive them."""

    __slots__ = (
        "config", "sid", "rng", "spec", "algo", "link", "session", "consort",
        "clock", "last_activity_end",
        "base_rtt", "srtt", "min_rtt", "delivery_rate", "in_flight", "queue",
        "cwnd", "cc_min_rtt", "in_startup", "baseline", "stale", "bw_samples",
    )

    def __init__(
        self,
        config: TrialConfig,
        sid: int,
        rng: np.random.Generator,
        spec: SchemeSpec,
        algo: AbrAlgorithm,
        expt_id: int,
        path: NetworkPath,
    ) -> None:
        self.config = config
        self.sid = sid
        self.rng = rng
        self.spec = spec
        self.algo = algo
        self.link = path.link
        self.session = SessionResult(
            session_id=sid, scheme=spec.name, expt_id=expt_id
        )
        self.consort = ConsortFlow()
        self.clock = 0.0
        self.last_activity_end = 0.0
        self.base_rtt = path.base_rtt
        self.srtt = path.base_rtt
        self.min_rtt = path.base_rtt
        self.delivery_rate = 0.0
        self.in_flight = 0.0
        self.queue = 0.0
        self.cwnd = _INITIAL_CWND
        self.cc_min_rtt = float("inf")
        self.in_startup = True
        self.baseline = 0.0
        self.stale = 0
        self.bw_samples: Deque[float] = deque(maxlen=_BW_FILTER_ROUNDS)

    def simulate(self) -> SessionShard:
        """Mirror of ``session_machine`` after the connect request."""
        cfg = self.config
        rng = self.rng
        arm = self.consort.arm(self.spec.name)
        arm.sessions_assigned += 1
        n_streams = 1
        while (
            n_streams < cfg.max_streams_per_session
            and rng.random() < cfg.extra_stream_prob
        ):
            n_streams += 1
        for stream_no in range(n_streams):
            result = self._run_stream(stream_no)
            self.clock += result.total_time + float(rng.uniform(0.1, 2.0))
            self.clock = max(self.clock, self.last_activity_end + 1e-6)
            self.session.streams.append(result)
            arm.streams_assigned += 1
            category = classify_stream(result)
            if (
                category == "considered"
                and rng.random() < cfg.slow_decoder_prob
            ):
                result.excluded = True
                category = "slow_video_decoder"
            if category == "did_not_begin":
                arm.did_not_begin += 1
            elif category == "watch_time_under_4s":
                arm.watch_time_under_4s += 1
            elif category == "slow_video_decoder":
                arm.slow_video_decoder += 1
            else:
                arm.considered += 1
                arm.considered_watch_time_s += result.watch_time
                if rng.random() < cfg.loss_of_contact_prob:
                    arm.truncated_loss_of_contact += 1
        return SessionShard(
            session=self.session,
            consort=self.consort,
            telemetry=None,
            obs=None,
        )

    def _run_stream(self, stream_no: int) -> StreamResult:
        """Mirror of ``session_machine``'s per-stream setup followed by the
        ``stream_machine`` loop, expression for expression; buffer level,
        stream clock and watch limit live in locals."""
        cfg = self.config
        rng = self.rng
        algo = self.algo
        kind = cfg.viewer.sample_stream_kind(rng)
        watch = cfg.viewer.sample_watch_time(kind, rng)
        channel = cfg.channels[int(rng.integers(len(cfg.channels)))]
        media_rng = np.random.default_rng(
            media_seed(cfg.seed, self.sid, stream_no)
        )
        ms = MenuBlockSource(
            channel,
            media_rng,
            # One right-sized block covers the whole stream in the common
            # (no tail extension) case; +4 absorbs the final-chunk overrun.
            first_block_chunks=int(watch / CHUNK_DURATION) + 4,
        )
        hook = cfg.viewer.make_extension_hook(rng) if kind == "view" else None
        algo.begin_stream()
        # Skip the per-chunk callback when the scheme inherits the base
        # no-op (true for every vectorizable scheme today).
        if type(algo).on_chunk_complete is AbrAlgorithm.on_chunk_complete:
            on_complete = None
        else:
            on_complete = algo.on_chunk_complete
        result = StreamResult(
            stream_id=self.sid * cfg.max_streams_per_session + stream_no,
            scheme_name=self.spec.name,
        )
        records = result.records
        duration = ms.chunk_duration
        start_time = self.clock
        level = 0.0  # PlaybackBuffer.level_s
        t = 0.0
        limit = watch
        playing = False
        tputs: List[float] = []  # observed throughput per completed chunk
        while True:
            if t >= limit:
                extra = hook(t, result) if hook is not None else 0.0
                if extra > 0:
                    limit = t + extra
                else:
                    break
            # The live menu stream never exhausts (no bounded-clip break).
            if level + duration > MAX_BUFFER_S + BUFFER_EPSILON_S:
                # Server pauses while the buffer is full (time_until_room);
                # PlaybackBuffer.drain inlined, its shortfall discarded as
                # the scalar loop discards it.
                wait = min(level + duration - MAX_BUFFER_S, max(limit - t, 0.0))
                if wait <= 0:
                    t = limit
                    continue
                if wait <= level:
                    level -= wait
                else:
                    level = 0.0
                result.play_time += wait
                t += wait
                continue
            chunk_index, row = ms.next_row()
            rung = self._choose(ms, row, level, tputs)
            # Block lists hold the same float64 values as the ndarray rows.
            size = ms.sizes_lists[row][rung]
            ssim = ms.ssims_lists[row][rung]
            send_at = start_time + t
            idle = send_at - self.last_activity_end
            if idle > 0:
                self._on_idle(idle)
            info = TcpInfo(
                cwnd=self.cwnd / DEFAULT_MSS,
                in_flight=self.in_flight / DEFAULT_MSS,
                min_rtt=self.min_rtt,
                rtt=self.srtt,
                delivery_rate=self.delivery_rate,
            )
            ttime = self._transmit(size, send_at)
            t_end = t + ttime
            if hook is not None and t_end >= limit:
                extra = hook(t_end, result)
                if extra > 0:
                    limit = t_end + extra
            if playing:
                # PlaybackBuffer.drain, inlined (shortfall is the stall).
                if ttime <= level:
                    level -= ttime
                    stall = 0.0
                else:
                    stall = ttime - level
                    level = 0.0
                play = ttime - stall
                overshoot = max(t_end - limit, 0.0)
                clipped_stall = min(stall, overshoot)
                stall -= clipped_stall
                play -= min(overshoot - clipped_stall, play)
                result.play_time += play
                if stall > 0:
                    result.stall_time += stall
            t = t_end
            if t >= limit:
                # Mid-chunk departure: the chunk never finished for the viewer.
                t = limit
                break
            level += duration
            if level > MAX_BUFFER_S + BUFFER_EPSILON_S:
                raise RuntimeError(
                    "buffer overflow: server must pause before exceeding the cap"
                )
            if not playing:
                playing = True
                result.startup_delay = t
            record = ChunkRecord(
                chunk_index=chunk_index,
                rung=rung,
                size_bytes=size,
                ssim_db=ssim,
                transmission_time=ttime,
                info_at_send=info,
                send_time=send_at,
            )
            records.append(record)
            if on_complete is not None:
                on_complete(record)
            # record.observed_throughput_bps, inlined.
            tputs.append(size * 8.0 / max(ttime, 1e-9))
        # Every exit above leaves t >= limit, so stream_machine's tail
        # play-out (reached only when a bounded clip runs out) has no mirror.
        result.total_time = t
        result.never_began = not playing
        return result

    def _choose(
        self, ms: MenuBlockSource, row: int, level: float, tputs: List[float]
    ) -> int:
        """The scheme's decision on a menu row (scalar-equivalent).

        Rate rows (``(size_bytes * 8.0) / duration``, the scalar
        ``EncodedChunk.bitrate``) and their min/max are precomputed per
        block by :class:`MenuBlockSource`.
        """
        algo = self.algo
        if isinstance(algo, BBA):
            # BBA.choose verbatim on the menu row, rate_limit inlined.
            rates = ms.rates_lists[row]
            if level <= algo.reservoir_s:
                limit = ms.rates_min[row]
            elif level >= algo.upper_reservoir_s:
                limit = ms.rates_max[row]
            else:
                fraction = (level - algo.reservoir_s) / (
                    algo.upper_reservoir_s - algo.reservoir_s
                )
                min_rate = ms.rates_min[row]
                limit = min_rate + fraction * (ms.rates_max[row] - min_rate)
            limit += 1e-9
            qualities = ms.ssims_lists[row]
            best = 0
            best_ssim = float("-inf")
            for k, rate in enumerate(rates):
                if rate <= limit and qualities[k] > best_ssim:
                    best = k
                    best_ssim = qualities[k]
            return best
        if isinstance(algo, RateBased):
            recent = tputs[-algo.window:]
            if recent:
                estimate = len(recent) / sum(1.0 / r for r in recent)
            else:
                estimate = algo.startup_throughput_bps
            budget = estimate * algo.safety_factor
            choice = 0
            # RateBased compares size_bits / duration — the same rate row.
            for k, rate in enumerate(ms.rates_lists[row]):
                if rate <= budget:
                    choice = k
            return choice
        if isinstance(algo, Bola):
            sizes, ssims = ms.row_arrays(row)
            duration = ms.chunk_duration
            q_chunks = level / duration
            q_max = algo.max_buffer_s / duration
            utilities = ssims - ssims[0]
            gamma_p = algo.target_buffer_fraction * q_max
            utility_span = max(float(utilities[-1]), 1e-9)
            v = (q_max - 1.0) / (utility_span + gamma_p)
            scores = (v * (utilities + gamma_p) - q_chunks) / sizes
            if float(scores.max()) <= 0.0:
                return len(sizes) - 1
            return int(np.argmax(scores))
        raise RuntimeError(
            f"non-vectorizable algorithm reached the fast path: {algo!r}"
        )

    def _on_idle(self, idle: float) -> None:
        """Mirror of TcpConnection._handle_idle + BbrLike.on_idle."""
        rtt = self.srtt
        rto = max(2.0 * rtt, 0.2)
        if idle >= rto:
            decay = 0.5 ** (idle / rto)
            self.cwnd = max(_INITIAL_CWND, self.cwnd * decay)
        if idle >= 4.0 * rto:
            bw_samples = self.bw_samples
            self.in_startup = True
            self.stale = 0
            if bw_samples:
                self.baseline = max(bw_samples) * 0.5
                last = bw_samples[-1]
                bw_samples.clear()
                bw_samples.append(last * 0.7)
            else:
                self.baseline = 0.0
        factor = float(np.exp(-idle / max(rtt, 1e-3)))
        in_flight = self.in_flight * factor
        if in_flight < DEFAULT_MSS:
            in_flight = 0.0
        self.in_flight = in_flight
        self.queue *= factor

    def _transmit(self, size_bytes: float, send_at: float) -> float:
        """The round loop of ``TcpConnection.transmit`` with
        ``BbrLike.on_round`` inlined, over locals; returns the transmission
        time.  The arithmetic matches the scalar pair bit for bit."""
        capacity_at = self.link.capacity_at
        base_rtt = self.base_rtt
        srtt = self.srtt
        min_rtt = self.min_rtt
        drate = self.delivery_rate
        queue = self.queue
        cwnd = self.cwnd
        cc_min_rtt = self.cc_min_rtt
        in_startup = self.in_startup
        baseline = self.baseline
        stale = self.stale
        bw_samples = self.bw_samples
        window = self.in_flight
        remaining = size_bytes
        elapsed = 0.0
        rounds = 0
        inf = float("inf")
        while remaining > 0:
            rounds += 1
            if rounds > _MAX_ROUNDS_PER_CHUNK:
                raise RuntimeError("transmission did not terminate")
            capacity_Bps = capacity_at(send_at + elapsed) / 8.0
            window = min(cwnd, remaining)
            app_limited = remaining < cwnd
            drain_time = window / capacity_Bps
            queue_delay = queue / capacity_Bps
            rtt_sample = base_rtt + queue_delay
            duration = max(rtt_sample, drain_time)
            if drain_time > rtt_sample:  # link limited
                queue = max(window - capacity_Bps * base_rtt, 0.0)
            else:
                queue = 0.0
            # The stochastic loss draw is skipped: BbrLike ignores the
            # loss flag and the loss generator feeds nothing else (see
            # module docstring).
            delivery_rate = window * 8.0 / duration
            # --- BbrLike.on_round -------------------------------------
            if not app_limited or delivery_rate > (
                max(bw_samples) if bw_samples else 0.0
            ):
                bw_samples.append(delivery_rate)
            cc_min_rtt = min(cc_min_rtt, rtt_sample)
            bw = max(bw_samples) if bw_samples else 0.0
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
            if not in_startup and bw > 0 and cc_min_rtt < inf:
                cwnd = _CWND_GAIN * ((bw / 8.0) * cc_min_rtt)
            cwnd = min(max(cwnd, _CWND_FLOOR), _MAX_CWND_BYTES)
            # --- connection updates -----------------------------------
            srtt = (1.0 - _SRTT_GAIN) * srtt + _SRTT_GAIN * rtt_sample
            min_rtt = min(min_rtt, rtt_sample)
            if not app_limited or delivery_rate > drate:
                drate = delivery_rate
            remaining -= window
            elapsed += duration
        self.srtt = srtt
        self.min_rtt = min_rtt
        self.delivery_rate = drate
        self.in_flight = window
        self.queue = queue
        self.cwnd = cwnd
        self.cc_min_rtt = cc_min_rtt
        self.in_startup = in_startup
        self.baseline = baseline
        self.stale = stale
        self.last_activity_end = send_at + elapsed
        return elapsed


def _start_session(
    specs: Sequence[SchemeSpec],
    config: TrialConfig,
    sid: int,
    expt_ids: Mapping[str, int],
    algorithms: Mapping[str, AbrAlgorithm],
) -> Optional[_Session]:
    """The fast-path state for ``sid``, or None when the session belongs on
    the scalar path (the partial draws made here are then discarded —
    ``run_session`` re-derives everything from ``(seed, session_id)``)."""
    # repro: allow-SEED003(bit-exact replay of the scalar scheme-assignment fold in harness.run_session)
    rng = np.random.default_rng((config.seed, sid))
    spec = specs[int(rng.integers(len(specs)))]
    algo = algorithms[spec.name]
    if not is_vectorizable_algorithm(algo):
        return None
    path = PathSampler(
        # repro: allow-SEED001(bit-exact replay of the scalar path seed in harness.run_session)
        population=config.population, seed=config.seed * 1_000_003 + sid
    ).next_path()
    if path.cc_name != "bbr":
        return None
    return _Session(config, sid, rng, spec, algo, expt_ids[spec.name], path)


@sanitizer.guarded("run_session_batch")
def run_session_batch(
    specs: Sequence[SchemeSpec],
    config: TrialConfig,
    session_ids: Sequence[int],
    expt_ids: Optional[Mapping[str, int]] = None,
    algorithms: Optional[Mapping[str, AbrAlgorithm]] = None,
) -> List[SessionShard]:
    """Simulate ``session_ids`` on the fast path, one session at a time.

    Bit-identical to ``[run_session(specs, config, sid, ...) for sid in
    session_ids]``.  Sessions the fast path does not reproduce — a
    non-vectorizable ABR scheme, a CUBIC path, or any
    telemetry/observability collection — run on the scalar path instead,
    inside this call.  Shards are returned in ``session_ids`` order.
    """
    if expt_ids is None:
        expt_ids = assign_expt_ids(specs, config.seed)
    if algorithms is None:
        algorithms = {spec.name: spec.build() for spec in specs}
    if config.collect_telemetry or config.observability or obs.ENABLED:
        # Telemetry/observability hooks live throughout the scalar stack;
        # reproducing their record streams is outside the fast path's scope.
        return [
            run_session(specs, config, sid, expt_ids, algorithms)
            for sid in session_ids
        ]
    shards: List[SessionShard] = []
    # The fast path allocates millions of small acyclic objects (records,
    # stream results); generational GC scans are pure overhead at that
    # rate (~20% of wall time), so collection is suspended for the run.
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        for sid in session_ids:
            session = _start_session(specs, config, sid, expt_ids, algorithms)
            shards.append(
                session.simulate()
                if session is not None
                else run_session(specs, config, sid, expt_ids, algorithms)
            )
    finally:
        if was_enabled:
            gc.enable()
    return shards

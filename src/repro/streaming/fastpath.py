"""Stream kernel for the buffer- and rate-based schemes on BBR connections.

:func:`fast_stream` is :func:`repro.streaming.simulator.stream_machine` for
the streams whose every input it can reproduce without the machine's
generality: the ABR scheme is exactly BBA, BOLA or rate-based and the
transport is a private :class:`~repro.net.tcp.TcpConnection` under
:class:`~repro.net.cc.bbr.BbrLike`.
:func:`repro.experiment.harness.session_machine` asks :func:`reproduces`
once per session and then runs each stream through one kernel or the
other; everything above the stream — assignment, paths, channel changes,
CONSORT — exists once, there.  So does everything beside it: the decision
rule is the scheme's own ``pick``, and telemetry and observability are
reported at seams both loops share — the
:class:`~repro.streaming.telemetry.StreamRecorder`'s calls,
``TcpConnection._handle_idle`` and :func:`repro.net.tcp.count_transmission`
once per chunk.  Nothing is counted inside a round, so an observed run is
the production run.

What the kernel leaves out of a chunk's life:

* the menu *rows* are read directly, with no ``ChunkMenu``, lookahead
  window or ``AbrContext`` per chunk, and the scheme's ``pick`` runs on
  those rows;
* ``BbrLike.on_round`` is inlined into the round loop of
  ``TcpConnection.transmit`` and the loss draw is skipped: BBR ignores a
  round's ``loss`` flag and the loss generator feeds nothing else, so the
  only trace is the generator's own unread state;
* the round calls no builtin: the bandwidth filter's maximum is kept as a
  running value with an age instead of ``max(samples)`` twice a round
  (equal to it after every append — the age says when the maximum has
  left the deque), and ``min``/``max`` clamps are comparisons that keep
  the operand the builtin keeps, ties and ``-0.0`` included (the argument
  is ``_transmit``'s docstring);
* playback buffer, stream clock and watch limit live in locals, and the
  stream never yields — which is also why it may suspend the garbage
  collector around itself (a million small acyclic records a run; the
  suspension cannot leak into a driver).

Connection and controller state are the *real* objects' attributes, read
into locals before a chunk's rounds and written back after them, so
``tcp_info()``, ``busy_until``, ``total_bytes_sent`` and the idle handler
stay true between chunks and after the stream.  Every arithmetic operation
keeps the reference's IEEE evaluation order; the results are bit-identical
(``tests/streaming/test_fastpath_equivalence.py``, and for the round alone
``tests/streaming/test_round_differential.py``).  ``transmit``'s
argument checks have no mirror: menu sizes are positive and finite by
construction and the session machine never starts a stream before
``busy_until``.
"""

from __future__ import annotations

import gc
import math
from typing import Deque, List, Optional, Tuple

from repro import obs
from repro.abr.base import AbrAlgorithm, ChunkRecord
from repro.abr.bba import BBA
from repro.abr.bola import Bola
from repro.abr.rate_based import RateBased
from repro.media.menus import MenuBlockSource
from repro.net.cc.base import MAX_CWND_BYTES
from repro.net.cc.bbr import (
    _BW_FILTER_ROUNDS,
    _FULL_PIPE_GROWTH,
    _FULL_PIPE_ROUNDS,
    BbrLike,
)
from repro.net.tcp import (
    _MAX_ROUNDS_PER_CHUNK,
    _SRTT_GAIN,
    TcpConnection,
    count_transmission,
)
from repro.streaming.buffer import BUFFER_EPSILON_S, MAX_BUFFER_S
from repro.streaming.session import StreamResult
from repro.streaming.simulator import ExtensionHook, Transport
from repro.streaming.telemetry import StreamRecorder

_MAX_CWND = float(MAX_CWND_BYTES)

_SCHEMES = (BBA, Bola, RateBased)
"""The schemes whose ``pick`` the kernel feeds from menu rows, by exact
type: a subclass may override ``choose`` arbitrarily."""


def reproduces(abr: AbrAlgorithm, transport: Transport) -> bool:
    """Whether :func:`fast_stream` reproduces ``stream_machine`` for this
    scheme instance over this transport.  Exact types throughout — a
    subclass of any of them may change what the kernel inlines."""
    return (
        type(abr) in _SCHEMES
        and type(transport) is TcpConnection
        and type(transport.cc) is BbrLike
    )


def fast_stream(
    source: MenuBlockSource,
    abr: AbrAlgorithm,
    connection: TcpConnection,
    watch_time_s: float,
    stream_id: int,
    extension_hook: Optional[ExtensionHook],
    start_time: float,
    recorder: Optional[StreamRecorder],
) -> StreamResult:
    """One stream, start to finish: the :class:`StreamResult`
    ``stream_machine(source.menus(), abr, connection, ...)`` returns when
    every transmit request is answered by ``connection.transmit``, for an
    ``(abr, connection)`` pair :func:`reproduces` accepts.  ``recorder``
    (``None`` records nothing) is called at ``stream_machine``'s seams
    with the same arguments, in the same order."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _stream(
            source,
            abr,
            connection,
            watch_time_s,
            stream_id,
            extension_hook,
            start_time,
            recorder,
        )
    finally:
        if was_enabled:
            gc.enable()


def _stream(
    source: MenuBlockSource,
    abr: AbrAlgorithm,
    connection: TcpConnection,
    watch_time_s: float,
    stream_id: int,
    hook: Optional[ExtensionHook],
    start_time: float,
    recorder: Optional[StreamRecorder],
) -> StreamResult:
    """The ``stream_machine`` loop, expression for expression, with
    ``PlaybackBuffer`` inlined."""
    if watch_time_s < 0:
        raise ValueError("watch time must be non-negative")
    abr.begin_stream()
    pick = abr.pick  # type: ignore[attr-defined]
    scheme = type(abr)
    result = StreamResult(stream_id=stream_id, scheme_name=abr.name)
    records = result.records
    next_row = source.next_row
    handle_idle = connection._handle_idle
    tcp_info = connection.tcp_info
    duration = source.chunk_duration
    level = 0.0  # PlaybackBuffer.level_s
    t = 0.0
    limit = watch_time_s
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
            # drain's shortfall is discarded as the reference discards it.
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
            if recorder is not None:
                recorder.pause(t, wait, level, result.stall_time)
            continue
        chunk_index, row = next_row()
        # Each scheme's own rule, fed the rows its ``choose`` reads off a
        # ChunkMenu (the block's rate rows are EncodedChunk.bitrate's).
        if scheme is BBA:
            rung = pick(level, source.rates_lists[row], source.ssims_lists[row])
        elif scheme is Bola:
            rung = pick(
                level, source.sizes_lists[row], source.ssims_lists[row], duration
            )
        else:
            rung = pick(source.rates_lists[row], tputs)
        # Block lists hold the same float64 values as the ndarray rows.
        size = source.sizes_lists[row][rung]
        ssim = source.ssims_lists[row][rung]
        send_at = start_time + t
        handle_idle(send_at)
        info = tcp_info()
        ttime = _transmit(connection, size, send_at)
        if recorder is not None:
            recorder.sent(t, chunk_index, size, ssim, ttime, info)
        t_end = t + ttime
        if hook is not None and t_end >= limit:
            extra = hook(t_end, result)
            if extra > 0:
                limit = t_end + extra
        if playing:
            # PlaybackBuffer.drain (the shortfall is the stall).
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
                if recorder is not None:
                    recorder.rebuffer(t, ttime, stall, level, result.stall_time)
        t = t_end
        if recorder is not None:
            recorder.clock(t, level, result.stall_time)
        if t >= limit:
            # Mid-chunk departure: the chunk never finished for the viewer.
            t = limit
            break
        # Room was checked before the send and the level has only fallen
        # since, so PlaybackBuffer.add's overflow guard has no mirror.
        level += duration
        if not playing:
            playing = True
            result.startup_delay = t
            if recorder is not None:
                recorder.startup(t, level, result.stall_time)
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
        abr.on_chunk_complete(record)
        tputs.append(record.observed_throughput_bps)
        if recorder is not None:
            recorder.acked(t, chunk_index, level, result.stall_time)
    # Every exit above leaves t >= limit, so the reference's tail play-out
    # (reached only when a bounded clip runs out) has no mirror.
    result.total_time = t
    result.never_began = not playing
    if recorder is not None:
        recorder.end(result)
    return result


def _filter_max(samples: Deque[float]) -> Tuple[float, int]:
    """``BbrLike``'s bandwidth estimate off its filter, and the age of the
    copy of it ``max`` returns: how many appends ago that copy arrived.
    ``max`` returns the first (oldest) of equal maxima, so a younger copy
    may exist; ``_transmit`` only needs the age not to understate it."""
    if not samples:
        return 0.0, 0
    bw = max(samples)
    return bw, len(samples) - 1 - samples.index(bw)


def _transmit(connection: TcpConnection, size_bytes: float, at_time: float) -> float:
    """The round loop of ``TcpConnection.transmit`` with ``BbrLike.on_round``
    inlined; returns the transmission time.  Idle handling and the
    ``tcp_info`` snapshot are the caller's, through the connection's own
    methods; the per-transmission totals are ``transmit``'s own helper.

    Every float operation is the reference's, on the same operands in the
    same order; what a round no longer pays for is a builtin call.

    * *The filter's maximum is kept as it changes.*  ``on_round`` reads
      ``max(samples)`` twice a round; here ``bw`` holds it, with ``age``, a
      number of appends no smaller than the age of some copy of ``bw`` in
      the deque (``_filter_max`` seeds both from the deque on every call,
      because ``on_idle`` rewrites it between chunks).  Appending ``s``
      keeps ``bw == max(samples)``: if ``s >= bw`` then ``s`` is at least
      every element, so it is the maximum, at age 0 (a tie is the same
      double: a rate is a positive window over at least the base RTT,
      never ``-0.0`` or NaN).  Otherwise the copy of ``bw`` is one append
      older and, while that age is below the deque's ``maxlen``
      (``_BW_FILTER_ROUNDS``), still inside it; every element is at most
      ``bw`` and ``s`` is below it, so the maximum is still ``bw``.  Only
      when the age reaches ``maxlen`` has that copy been evicted, and the
      deque is scanned again.  An overstated age only rescans early.
    * *Clamps are comparisons.*  ``min(a, b)`` is ``b if b < a else a`` and
      ``max(a, b)`` is ``b if b > a else a`` — the first operand wins ties
      and a NaN in the second — and each comparison below is written to
      keep exactly that operand: ``window`` is ``remaining`` only when
      ``remaining < cwnd``; a queue of ``-0.0`` stays ``-0.0`` because
      ``-0.0 < 0.0`` is false; the window is raised to its floor only when
      below it and lowered to the ceiling only when above it.
    * *Constants are hoisted only as the same double*: the round's BDP
      ``capacity_Bps * base_rtt`` is computed once per capacity read from
      the same two operands, and ``1.0 - _SRTT_GAIN`` is 0.875 exactly.
    """
    cc = connection.cc
    epoch_at = connection.link.epoch_at
    base_rtt = connection.base_rtt
    srtt = connection.srtt
    min_rtt = connection.min_rtt
    delivery_rate_bps = connection.delivery_rate_bps
    queue_bytes = connection._queue_bytes
    window = connection._in_flight_bytes
    cwnd = cc.cwnd_bytes
    cwnd_gain = cc.cwnd_gain
    cwnd_floor = 2.0 * cc.mss
    samples = cc._bw_samples
    append = samples.append
    bw, age = _filter_max(samples)
    cc_min_rtt = cc._min_rtt
    in_startup = cc._in_startup
    baseline = cc._full_pipe_baseline
    stale = cc._stale_rounds
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
        # --- BbrLike.on_round ---------------------------------------------
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
        if not in_startup and bw > 0 and cc_min_rtt < math.inf:
            cwnd = cwnd_gain * (bw / 8.0 * cc_min_rtt)
        if cwnd < cwnd_floor:
            cwnd = cwnd_floor
        if cwnd > _MAX_CWND:
            cwnd = _MAX_CWND
        # --- the connection's own updates ---------------------------------
        srtt = srtt_keep * srtt + _SRTT_GAIN * rtt_sample
        if rtt_sample < min_rtt:
            min_rtt = rtt_sample
        if not app_limited or delivery_rate > delivery_rate_bps:
            delivery_rate_bps = delivery_rate
        remaining -= window
        elapsed += duration
    cc.cwnd_bytes = cwnd
    cc._min_rtt = cc_min_rtt
    cc._in_startup = in_startup
    cc._full_pipe_baseline = baseline
    cc._stale_rounds = stale
    connection.srtt = srtt
    connection.min_rtt = min_rtt
    connection.delivery_rate_bps = delivery_rate_bps
    connection._queue_bytes = queue_bytes
    connection._in_flight_bytes = window
    connection._total_bytes_sent += size_bytes
    connection._last_activity_end = at_time + elapsed
    if obs.ENABLED:
        count_transmission(size_bytes, elapsed, rounds)
    return elapsed

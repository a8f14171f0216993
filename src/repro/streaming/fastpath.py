"""Stream kernel for the buffer- and rate-based schemes.

:func:`fast_stream` is :func:`repro.streaming.simulator.stream_machine` for
the streams whose every input it can reproduce without the machine's
generality: the ABR scheme is exactly BBA, BOLA or rate-based and the
transport is a private :class:`~repro.net.tcp.TcpConnection`, under any
congestion controller.
:func:`repro.experiment.harness.session_machine` asks :func:`reproduces`
once per session and then runs each stream through one kernel or the
other; everything above the stream — assignment, paths, channel changes,
CONSORT — exists once, there.  So does everything beside it: the decision
rule is the scheme's own ``pick``, the TCP round is the controller's own
:meth:`~repro.net.cc.base.CongestionControl.run_rounds` (the loop
``TcpConnection.transmit`` runs), and telemetry and observability are
reported at seams both loops share — the
:class:`~repro.streaming.telemetry.StreamRecorder`'s calls,
``TcpConnection._handle_idle`` and :func:`repro.net.tcp.count_transmission`
once per chunk.  Nothing is counted inside a round, so an observed run is
the production run.

What the kernel leaves out of a chunk's life:

* the menu *rows* are read directly, with no ``ChunkMenu``, lookahead
  window or ``AbrContext`` per chunk, and the scheme's ``pick`` runs on
  those rows;
* ``transmit``'s argument checks and ``TransmissionResult``: menu sizes
  are positive and finite by construction, and the session machine never
  starts a stream before ``busy_until``;
* playback buffer, stream clock and watch limit live in locals, and the
  stream never yields — which is also why it may suspend the garbage
  collector around itself (a million small acyclic records a run; the
  suspension cannot leak into a driver).

The results are bit-identical to ``stream_machine``'s
(``tests/streaming/test_fastpath_equivalence.py``); the round both loops
run is held to its frozen reference in
``tests/net/test_transmit_differential.py``.
"""

from __future__ import annotations

import gc
from typing import List, Optional

from repro import obs
from repro.abr.base import AbrAlgorithm, make_chunk_record
from repro.abr.bba import BBA
from repro.abr.bola import Bola
from repro.abr.rate_based import RateBased
from repro.media.menus import MenuBlockSource
from repro.net.tcp import TcpConnection, count_transmission
from repro.streaming.buffer import BUFFER_EPSILON_S, MAX_BUFFER_S
from repro.streaming.session import StreamResult
from repro.streaming.simulator import ExtensionHook, Transport
from repro.streaming.telemetry import StreamRecorder

_SCHEMES = (BBA, Bola, RateBased)
"""The schemes whose ``pick`` the kernel feeds from menu rows, by exact
type: a subclass may override ``choose`` arbitrarily."""


def reproduces(abr: AbrAlgorithm, transport: Transport) -> bool:
    """Whether :func:`fast_stream` reproduces ``stream_machine`` for this
    scheme instance over this transport.  Exact types: a subclass of a
    scheme may override ``choose`` and one of the connection ``transmit``,
    neither of which the kernel calls.  The controller is not asked: both
    loops run its own ``run_rounds``."""
    return type(abr) in _SCHEMES and type(transport) is TcpConnection


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
    run_rounds = connection.cc.run_rounds
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
        ttime, rounds = run_rounds(connection, size, send_at)
        if obs.ENABLED:
            count_transmission(size, ttime, rounds)
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
        record = make_chunk_record(
            chunk_index, rung, size, ssim, ttime, info, send_at
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

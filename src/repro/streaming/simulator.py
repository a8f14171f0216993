"""Chunk-level streaming simulation loop.

``simulate_stream`` plays the role of one Puffer serving daemon plus one
browser client: the ABR scheme picks a version of each chunk, the chunk is
transmitted over the TCP model, the playback buffer drains at 1 s/s while
data is in flight, stalls accrue when it empties, and the server pauses when
the 15-second buffer cap is reached. Telemetry is emitted in the open-data
format, through a :class:`~repro.streaming.telemetry.StreamRecorder` the
loop calls at its seams.

The loop itself lives in :func:`stream_machine`, a coroutine-style generator
that *yields* a :class:`TransmitRequest` whenever a chunk must cross the
network and receives the :class:`~repro.net.tcp.TransmissionResult` back.
``simulate_stream`` drives the machine against a private
:class:`~repro.net.tcp.TcpConnection` (the classic single-session path,
bit-identical to the pre-generator implementation); :mod:`repro.edge`
drives many machines at once against a shared bottleneck, interleaving
their transmissions in cell time.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (
    Callable,
    Deque,
    Generator,
    Iterable,
    Iterator,
    Optional,
    Protocol,
)

from repro.abr.base import AbrAlgorithm, AbrContext, make_chunk_record
from repro.media.chunk import ChunkMenu
from repro.net.tcp import TcpConnection, TcpInfo, TransmissionResult
from repro.streaming.buffer import MAX_BUFFER_S, PlaybackBuffer
from repro.streaming.session import StreamResult
from repro.streaming.telemetry import StreamRecorder, TelemetryLog


class Transport(Protocol):
    """What a stream machine needs from its network besides transmission:
    synchronous, read-only sender statistics (the ABR's ``tcp_info`` view).
    Satisfied by :class:`~repro.net.tcp.TcpConnection` and by
    :class:`repro.edge.transport.FluidFlow`."""

    def tcp_info(self) -> TcpInfo: ...


@dataclass(frozen=True)
class TransmitRequest:
    """One chunk the stream wants on the wire.

    Yielded by :func:`stream_machine`; the driver answers with the
    :class:`~repro.net.tcp.TransmissionResult`.  ``send_at`` is in the
    *connection's* clock (session-relative) — a shared-bottleneck driver
    adds the session's arrival offset to place it in cell time.  The cache
    identity fields let an edge tier recognise the chunk; a private-link
    driver ignores them.
    """

    size_bytes: int
    send_at: float
    chunk_index: int = 0
    rung: int = 0
    channel: Optional[str] = None


StreamMachine = Generator[TransmitRequest, TransmissionResult, StreamResult]

DEFAULT_LOOKAHEAD = 8
"""Menus visible ahead of the playhead (live encoding runs a few chunks
ahead; 8 covers MPC's 5-chunk horizon with margin)."""

ExtensionHook = Callable[[float, StreamResult], float]
"""Called when the viewer's intended watch time is reached; returns extra
seconds to keep watching (0 ends the stream). Models the QoE-sensitive
long-tail viewership of Fig. 10."""


class _MenuWindow:
    """Sliding lookahead window over a (possibly endless) menu iterator."""

    def __init__(self, menus: Iterable[ChunkMenu], horizon: int) -> None:
        if horizon <= 0:
            raise ValueError("lookahead horizon must be positive")
        self._iter: Iterator[ChunkMenu] = iter(menus)
        self._window: Deque[ChunkMenu] = deque()
        self._horizon = horizon
        self._fill()

    def _fill(self) -> None:
        while len(self._window) < self._horizon:
            try:
                self._window.append(next(self._iter))
            except StopIteration:
                break

    @property
    def exhausted(self) -> bool:
        return not self._window

    @property
    def head(self) -> ChunkMenu:
        """The next menu to be popped (the window must not be exhausted)."""
        return self._window[0]

    def peek(self) -> "list[ChunkMenu]":
        return list(self._window)

    def pop(self) -> ChunkMenu:
        menu = self._window.popleft()
        self._fill()
        return menu


def simulate_stream(
    menus: Iterable[ChunkMenu],
    abr: AbrAlgorithm,
    connection: TcpConnection,
    watch_time_s: float,
    stream_id: int = 0,
    expt_id: int = 0,
    max_buffer_s: float = MAX_BUFFER_S,
    lookahead: int = DEFAULT_LOOKAHEAD,
    telemetry: Optional[TelemetryLog] = None,
    extension_hook: Optional[ExtensionHook] = None,
    start_time: float = 0.0,
    buffer_report_interval: Optional[float] = None,
) -> StreamResult:
    """Simulate one stream over a private connection and return its
    :class:`StreamResult`.

    Thin driver over :func:`stream_machine`: every yielded
    :class:`TransmitRequest` is answered immediately by
    ``connection.transmit`` — the exact call sequence of the pre-generator
    implementation, so results are bit-identical to it.

    Parameters
    ----------
    menus:
        Iterable of :class:`ChunkMenu` (endless for live TV; bounded for a
        clip, in which case the stream ends when the clip does).
    abr:
        The bitrate-selection scheme under test.
    connection:
        TCP connection to the client; reused across a session's streams so
        congestion state carries over (channel changes keep the connection,
        §3.2 / Fig. A1).
    watch_time_s:
        The viewer's intended wall-clock time on the player.
    extension_hook:
        Optional Fig. 10 tail model; see :data:`ExtensionHook`.
    start_time:
        Connection-relative time at which this stream begins (later streams
        of a session start where the previous one left off).
    buffer_report_interval:
        When set (Puffer uses 0.25 s), emit periodic ``client_buffer``
        TIMER records at this interval; see
        :class:`~repro.streaming.telemetry.StreamRecorder`.
    """
    machine = stream_machine(
        menus,
        abr,
        connection,
        watch_time_s,
        StreamRecorder(
            telemetry, stream_id, expt_id, start_time, buffer_report_interval
        ),
        stream_id=stream_id,
        max_buffer_s=max_buffer_s,
        lookahead=lookahead,
        extension_hook=extension_hook,
        start_time=start_time,
    )
    response: Optional[TransmissionResult] = None
    while True:
        try:
            request = machine.send(response)  # type: ignore[arg-type]
        except StopIteration as stop:
            result: StreamResult = stop.value
            return result
        response = connection.transmit(request.size_bytes, request.send_at)


def stream_machine(
    menus: Iterable[ChunkMenu],
    abr: AbrAlgorithm,
    transport: Transport,
    watch_time_s: float,
    recorder: StreamRecorder,
    stream_id: int = 0,
    max_buffer_s: float = MAX_BUFFER_S,
    lookahead: int = DEFAULT_LOOKAHEAD,
    extension_hook: Optional[ExtensionHook] = None,
    start_time: float = 0.0,
    channel_name: Optional[str] = None,
) -> StreamMachine:
    """The streaming loop as a resumable generator.

    Identical in logic to the historical ``simulate_stream`` body; the one
    structural difference is that chunk transmission happens by yielding a
    :class:`TransmitRequest` and receiving the
    :class:`~repro.net.tcp.TransmissionResult` from whoever drives the
    generator.  ``transport`` supplies the synchronous ``tcp_info()`` reads
    the ABR consumes; ``channel_name`` tags requests with a cache identity
    for edge drivers; ``recorder`` receives every telemetry and
    observability event.  Returns the :class:`StreamResult` via
    ``StopIteration.value``.
    """
    if watch_time_s < 0:
        raise ValueError("watch time must be non-negative")
    abr.begin_stream()
    result = StreamResult(stream_id=stream_id, scheme_name=abr.name)
    window = _MenuWindow(menus, lookahead)
    buffer = PlaybackBuffer(max_buffer_s)
    t = 0.0  # wall-clock seconds since the stream began
    limit = watch_time_s
    playing = False
    last_ssim: Optional[float] = None

    while True:
        if t >= limit:
            if extension_hook is not None:
                extra = extension_hook(t, result)
                if extra > 0:
                    limit = t + extra
                else:
                    break
            else:
                break
        if window.exhausted:
            break  # bounded clip finished

        # Server pauses while the buffer is full; playback continues.
        wait = buffer.time_until_room(window.head.duration)
        if wait > 0:
            wait = min(wait, max(limit - t, 0.0))
            if wait <= 0:
                t = limit
                continue
            buffer.drain(wait)
            result.play_time += wait
            t += wait
            recorder.pause(t, wait, buffer.level_s, result.stall_time)
            continue  # re-evaluate the leave condition before choosing

        context = AbrContext(
            lookahead=window.peek(),
            buffer_s=buffer.level_s,
            tcp_info=transport.tcp_info(),
            history=result.records,
            last_ssim_db=last_ssim,
            startup=not playing,
        )
        rung = abr.choose(context)
        menu = window.pop()
        if not 0 <= rung < len(menu):
            raise ValueError(
                f"{abr.name} chose rung {rung}, menu has {len(menu)} versions"
            )
        # The chosen version's fields, read off the menu's rows: indexing
        # the menu would build an EncodedChunk per rung only to drop them.
        size_bytes = menu.sizes[rung]
        ssim_db = menu.ssims_db[rung]
        send_at = start_time + t
        tx = yield TransmitRequest(
            size_bytes=size_bytes,
            send_at=send_at,
            chunk_index=menu.chunk_index,
            rung=rung,
            channel=channel_name,
        )
        recorder.sent(
            t,
            menu.chunk_index,
            size_bytes,
            ssim_db,
            tx.transmission_time,
            tx.info_at_send,
        )
        if extension_hook is not None and t + tx.transmission_time >= limit:
            # The intended watch time elapses during this transmission; ask
            # the tail model whether the viewer keeps watching.
            extra = extension_hook(t + tx.transmission_time, result)
            if extra > 0:
                limit = t + tx.transmission_time + extra
        if playing:
            stall = buffer.drain(tx.transmission_time)
            play = tx.transmission_time - stall
            # The viewer leaves at `limit`; anything past it never happened
            # from their perspective. Within one transmission the buffer
            # drains (play) first and the stall comes at the end, so clip
            # the stall before the play time.
            overshoot = max(t + tx.transmission_time - limit, 0.0)
            clipped_stall = min(stall, overshoot)
            stall -= clipped_stall
            play -= min(overshoot - clipped_stall, play)
            result.play_time += play
            if stall > 0:
                result.stall_time += stall
                recorder.rebuffer(
                    t,
                    tx.transmission_time,
                    stall,
                    buffer.level_s,
                    result.stall_time,
                )
        t += tx.transmission_time
        recorder.clock(t, buffer.level_s, result.stall_time)
        if t >= limit:
            # Mid-chunk departure: the chunk never finished for the viewer.
            t = limit
            break
        buffer.add(menu.duration)
        if not playing:
            playing = True
            result.startup_delay = t
            recorder.startup(t, buffer.level_s, result.stall_time)
        record = make_chunk_record(
            menu.chunk_index,
            rung,
            size_bytes,
            ssim_db,
            tx.transmission_time,
            tx.info_at_send,
            send_at,
        )
        result.records.append(record)
        abr.on_chunk_complete(record)
        last_ssim = ssim_db
        recorder.acked(t, menu.chunk_index, buffer.level_s, result.stall_time)

    # The viewer drains whatever is buffered until they leave or it empties.
    if playing and t < limit:
        tail_play = min(buffer.level_s, limit - t)
        buffer.drain(tail_play)
        result.play_time += tail_play
        t += tail_play
        recorder.clock(t, buffer.level_s, result.stall_time)

    result.total_time = t
    result.never_began = not playing
    recorder.end(result)
    return result

"""Client/server telemetry in the open-data format of Appendix B.

Puffer publishes three measurement tables; the reproduction emits the same
records from the simulator so analysis code works identically on simulated
and (hypothetically) real data:

* ``video_sent`` — one row per chunk sent, with the ``tcp_info`` fields;
* ``video_acked`` — one row per chunk acknowledgement;
* ``client_buffer`` — buffer level and rebuffer state, sampled every quarter
  second and on events.

The record types are the one definition of each table: its columns are
the record's dataclass fields in order (``columns``), and ``from_rows``
decodes rows in that order — strictly: finite floats, integral ints, no
bools — for the CSV archive (:mod:`repro.data.archive`); ``from_values``
decodes one row by the same rules, for parsed JSON (``from_dict``) and
records being written.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from enum import Enum
from typing import (
    Any, ClassVar, Iterable, List, Optional, Sequence, Tuple, Type, TypeVar,
)

from repro import obs
from repro.fields import positive
from repro.media.ssim import ssim_db_to_index
from repro.net.tcp import TcpInfo
from repro.streaming.session import StreamResult


class BufferEvent(str, Enum):
    """``client_buffer.event`` values."""

    TIMER = "timer"
    STARTUP = "startup"
    PLAY = "play"
    REBUFFER = "rebuffer"


_R = TypeVar("_R", bound="TableRecord")


class RowError(ValueError):
    """A row that does not decode; ``row`` is its index among the rows
    given, and the message names the column and the value."""

    def __init__(self, row: int, message: str) -> None:
        super().__init__(message)
        self.row = row


def _strict(kind: str, value: Any) -> Any:
    """``value`` as a field of type ``kind``, or ``ValueError``: a float
    must be finite, an int integral (``7.5`` is not truncated to 7), and a
    bool is neither."""
    if isinstance(value, bool):
        raise ValueError(f"{value!r} is not a number")
    if kind == "float":
        number = float(value)
        if not math.isfinite(number):
            raise ValueError(f"{value!r} is not finite")
        return number
    if kind == "int":
        if isinstance(value, str):
            return int(value)
        integer = int(value)
        if integer != value:
            raise ValueError(f"{value!r} is not an integer")
        return integer
    return BufferEvent(value)


def _column(kind: str, values: Tuple[Any, ...]) -> Optional[List[Any]]:
    """The fast path of :func:`_strict` over a whole column: the decoded
    values, or ``None`` when some value needs the per-value check (which
    then names it, or — a float sum that overflowed — passes them all)."""
    try:
        if kind == "float":
            if bool in set(map(type, values)):
                return None
            floats = list(map(float, values))
            total = sum(floats)
            # A NaN or an infinity makes the sum one, and nothing else
            # does but an overflow.
            return floats if total - total == 0 else None
        if kind == "int":
            if not set(map(type, values)) <= {str, int}:
                return None
            return list(map(int, values))
        return list(map(BufferEvent, values))
    except (TypeError, ValueError, OverflowError):
        return None


class TableRecord:
    """One row of an archive table: a frozen dataclass whose fields, as
    :func:`_table` records them once per class, are the table's columns."""

    columns: ClassVar[Tuple[str, ...]]
    _kinds: ClassVar[Tuple[str, ...]]

    @classmethod
    def from_rows(cls: Type[_R], rows: Sequence[Sequence[Any]]) -> List[_R]:
        """The records whose fields, in column order, are each row's values
        — CSV strings, or JSON numbers of either kind — each coerced to its
        declared type. The one decoder: a row with the wrong number of
        fields, a float that is not finite, an int that is not integral,
        or a bool raises :class:`RowError` naming the first such row, the
        column and the value. It decodes column by column, so the checks
        cost a few passes over each column, not a call per field; when a
        count or a column fails them, the rows are decoded again one by
        one (:meth:`_row`), which names the first bad row."""
        if not set(map(len, rows)) - {len(cls.columns)}:
            decoded = [
                _column(kind, values)
                for kind, values in zip(cls._kinds, zip(*rows))
            ]
            if None not in decoded:
                return [cls._record(fields) for fields in zip(*decoded)]
        return [
            cls._record(cls._row(row, values)) for row, values in enumerate(rows)
        ]

    @classmethod
    def from_values(cls: Type[_R], values: Iterable[Any]) -> _R:
        """The record of one row, decoded by :meth:`from_rows`' rules."""
        return cls._record(cls._row(0, tuple(values)))

    @classmethod
    def _row(cls, row: int, values: Sequence[Any]) -> List[Any]:
        """Row ``row``'s fields, each checked by :func:`_strict`, or
        :class:`RowError` naming the row, the column and the value."""
        if len(values) != len(cls.columns):
            raise RowError(
                row, f"{len(values)} fields, expected {len(cls.columns)}"
            )
        fields = []
        for name, kind, value in zip(cls.columns, cls._kinds, values):
            try:
                fields.append(_strict(kind, value))
            except (TypeError, ValueError, OverflowError) as exc:
                raise RowError(row, f"column {name!r}: {exc}") from None
        return fields

    @classmethod
    def _record(cls: Type[_R], fields: Iterable[Any]) -> _R:
        """The record of coerced and checked ``fields``, set as the frozen
        dataclass's ``__init__`` would set them, without its per-field
        ``__setattr__``."""
        record = object.__new__(cls)
        record.__dict__.update(zip(cls.columns, fields))
        return record

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls: Type[_R], data: dict) -> _R:
        """Inverse of :meth:`to_dict`: the ``to_dict -> json -> from_dict``
        round trip is *exact*, types included, so downstream code
        (``.event.value``, integer stream ids used as dict keys) behaves
        identically on parsed data."""
        return cls.from_values([data[name] for name in cls.columns])


def _table(cls: Type[_R]) -> Type[_R]:
    """Record ``cls``'s columns and their types, once per class."""
    cls.columns = tuple(f.name for f in fields(cls))
    cls._kinds = tuple(str(f.type) for f in fields(cls))
    return cls


@_table
@dataclass(frozen=True)
class VideoSentRecord(TableRecord):
    """One row of the ``video_sent`` table."""

    time: float
    stream_id: int
    expt_id: int
    chunk_index: int
    size: float
    ssim_index: float
    cwnd: float
    in_flight: float
    min_rtt: float
    rtt: float
    delivery_rate: float

    @classmethod
    def from_send(
        cls,
        time: float,
        stream_id: int,
        expt_id: int,
        chunk_index: int,
        size: float,
        ssim_index: float,
        info: TcpInfo,
    ) -> "VideoSentRecord":
        # Builtin coercion at the source: numpy scalars sneaking in from the
        # simulator would serialize (np.float64 subclasses float) but break
        # round-trip *type* equality and, for np integers, json.dumps itself.
        return cls.from_values((
            time, stream_id, expt_id, chunk_index, size, ssim_index,
            info.cwnd, info.in_flight, info.min_rtt, info.rtt,
            info.delivery_rate,
        ))


@_table
@dataclass(frozen=True)
class VideoAckedRecord(TableRecord):
    """One row of the ``video_acked`` table; joined with ``video_sent`` on
    (stream_id, chunk_index) it yields the chunk's transmission time."""

    time: float
    stream_id: int
    expt_id: int
    chunk_index: int


@_table
@dataclass(frozen=True)
class ClientBufferRecord(TableRecord):
    """One row of the ``client_buffer`` table."""

    time: float
    stream_id: int
    expt_id: int
    event: BufferEvent
    buffer: float
    cum_rebuf: float

    def __post_init__(self) -> None:
        # A record built with a plain string event compared equal (str
        # Enum) but broke ``to_dict`` (``str`` has no ``.value``).  Coerce
        # on construction so such records equal the originals exactly.
        if not isinstance(self.event, BufferEvent):
            object.__setattr__(self, "event", BufferEvent(self.event))

    def to_dict(self) -> dict:
        data = asdict(self)
        data["event"] = self.event.value
        return data


TABLES: Tuple[Tuple[str, Type[TableRecord]], ...] = (
    ("video_sent", VideoSentRecord),
    ("video_acked", VideoAckedRecord),
    ("client_buffer", ClientBufferRecord),
)
"""``(name, record type)`` of the three archive tables, in write order."""


@dataclass
class TelemetryLog:
    """Accumulates the three tables for one or many streams."""

    video_sent: List[VideoSentRecord]
    video_acked: List[VideoAckedRecord]
    client_buffer: List[ClientBufferRecord]

    def __init__(self) -> None:
        self.video_sent = []
        self.video_acked = []
        self.client_buffer = []

    def extend(self, other: "TelemetryLog") -> None:
        self.video_sent.extend(other.video_sent)
        self.video_acked.extend(other.video_acked)
        self.client_buffer.extend(other.client_buffer)

    def __len__(self) -> int:
        return (
            len(self.video_sent)
            + len(self.video_acked)
            + len(self.client_buffer)
        )

    def to_dict(self) -> dict:
        """The three tables as JSON-ready lists of row dicts."""
        return {
            name: [r.to_dict() for r in getattr(self, name)]
            for name, _ in TABLES
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TelemetryLog":
        log = cls()
        for name, record in TABLES:
            setattr(log, name, [record.from_dict(r) for r in data[name]])
        return log

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "TelemetryLog":
        import json

        return cls.from_dict(json.loads(text))


class StreamRecorder:
    """Everything one stream reports: its telemetry rows, the periodic
    client reports and the ``stream.*`` observability emissions.

    Both stream loops — :func:`repro.streaming.simulator.stream_machine`
    and :func:`repro.streaming.fastpath.fast_stream` — call it at the same
    seams in the same order (pause, sent, rebuffer, clock, startup, acked,
    end) with the stream clock ``t`` (seconds since the stream began) and
    the state the seam reports; the recorder owns the rows, the
    ``start_time`` offset and the report cadence.  ``telemetry`` may be
    ``None`` (observability only).

    ``buffer_report_interval`` (Puffer uses 0.25 s) adds ``client_buffer``
    TIMER rows on that cadence.  A report carries the buffer state when
    its boundary is processed (the end of the enclosing event), which is
    how a client-side timer observes the player.
    """

    def __init__(
        self,
        telemetry: Optional[TelemetryLog],
        stream_id: int,
        expt_id: int,
        start_time: float,
        buffer_report_interval: Optional[float] = None,
    ) -> None:
        if buffer_report_interval is not None:
            owner = "StreamRecorder"
            positive(owner, "buffer_report_interval", buffer_report_interval)
        self._log = telemetry
        self._stream_id = stream_id
        self._expt_id = expt_id
        self._start = start_time
        self._interval = buffer_report_interval
        self._next_report = buffer_report_interval

    def _buffer_row(
        self, t: float, event: BufferEvent, level: float, cum_rebuf: float
    ) -> None:
        if self._log is not None:
            self._log.client_buffer.append(
                ClientBufferRecord(
                    self._start + t, self._stream_id, self._expt_id, event,
                    level, cum_rebuf,
                )
            )

    def clock(self, t: float, level: float, cum_rebuf: float) -> None:
        """The stream clock reached ``t``: the periodic reports due by then
        (Appendix B's quarter-second client reports)."""
        if self._log is None or self._interval is None:
            return
        while self._next_report <= t:
            self._buffer_row(self._next_report, BufferEvent.TIMER, level, cum_rebuf)
            self._next_report += self._interval

    def pause(self, t: float, wait: float, level: float, cum_rebuf: float) -> None:
        """The server waited ``wait`` s for buffer room, up to ``t``."""
        if obs.ENABLED:
            obs.counter_inc("stream.server_pauses")
            obs.observe("stream.pause_s", wait, spec=obs.TIME_SPEC)
        self.clock(t, level, cum_rebuf)

    def sent(
        self, t: float, chunk_index: int, size_bytes: float, ssim_db: float,
        transmission_time: float, info: TcpInfo,
    ) -> None:
        """A chunk sent at ``t`` took ``transmission_time`` s on the wire."""
        if obs.ENABLED:
            # Chunk timing: the distribution the TTP is trained to predict.
            obs.counter_inc("stream.chunks_sent")
            obs.observe(
                "stream.chunk_transmission_s", transmission_time, spec=obs.TIME_SPEC
            )
        if self._log is not None:
            self._log.video_sent.append(
                VideoSentRecord.from_send(
                    self._start + t, self._stream_id, self._expt_id,
                    chunk_index, size_bytes, ssim_db_to_index(ssim_db), info,
                )
            )

    def rebuffer(
        self, t: float, transmission_time: float, stall: float, level: float,
        cum_rebuf: float,
    ) -> None:
        """The buffer ran dry for ``stall`` s of the transmission sent at
        ``t``; the rebuffer ends with the chunk's arrival."""
        if obs.ENABLED:
            obs.counter_inc("stream.rebuffers")
            obs.observe("stream.rebuffer_s", stall, spec=obs.TIME_SPEC)
            obs.emit(
                "rebuffer", time=self._start + t + transmission_time,
                stream_id=self._stream_id, duration=stall,
            )
        self._buffer_row(t, BufferEvent.REBUFFER, level, cum_rebuf)

    def startup(self, t: float, level: float, cum_rebuf: float) -> None:
        """Playback began at ``t`` with the first chunk's arrival."""
        if obs.ENABLED:
            obs.counter_inc("stream.startups")
            obs.observe("stream.startup_delay_s", t, spec=obs.TIME_SPEC)
            obs.emit(
                "startup", time=self._start + t, stream_id=self._stream_id, delay=t
            )
        self._buffer_row(t, BufferEvent.STARTUP, level, cum_rebuf)

    def acked(
        self, t: float, chunk_index: int, level: float, cum_rebuf: float
    ) -> None:
        """Chunk ``chunk_index`` arrived at ``t`` and entered the buffer."""
        if self._log is not None:
            self._log.video_acked.append(
                VideoAckedRecord(
                    self._start + t, self._stream_id, self._expt_id, chunk_index
                )
            )
        self._buffer_row(t, BufferEvent.TIMER, level, cum_rebuf)

    def end(self, result: StreamResult) -> None:
        """The stream is over; ``result`` is final."""
        if obs.ENABLED:
            obs.counter_inc("stream.streams")
            obs.counter_inc("stream.play_time_s", result.play_time)
            obs.counter_inc("stream.stall_time_s", result.stall_time)
            if result.never_began:
                obs.counter_inc("stream.never_began")
            obs.emit(
                "stream_end", time=self._start + result.total_time,
                stream_id=self._stream_id, play=result.play_time,
                stall=result.stall_time, chunks=len(result.records),
            )

"""Writing and reading the daily open-data archive (Appendix B).

Each archive day is a directory of three CSV files, ``video_sent.csv``,
``video_acked.csv`` and ``client_buffer.csv``.  A table's columns are its
record type's dataclass fields, in field order
(:class:`~repro.streaming.telemetry.VideoSentRecord`,
:class:`~repro.streaming.telemetry.VideoAckedRecord`,
:class:`~repro.streaming.telemetry.ClientBufferRecord`): the record types
are the one definition of the format, for the writer, the reader and the
JSON round trip alike.  The column sets match the fields the paper
describes for the public data (IP addresses and user ids are redacted in
the real archive; the simulator never produces them).

One reader, :func:`_read_rows`, parses one table's rows between two byte
offsets: :func:`load_archive_day` reads from the end of the header to the
end of the file, :func:`read_telemetry_slice` between two
:meth:`ArchiveAppender.offsets` snapshots.  A torn row (the last row
without its line terminator, a row with the wrong number of fields, a
field that does not parse) raises :class:`ArchiveError` naming the file and
the row's byte offset; it never decodes to a wrong value.

One join, :func:`_deliveries`, is the sent ⋈ acked join on (stream_id,
chunk_index) that recovers per-chunk transmission times.  The analyst's
:func:`reconstruct_streams` (plus stall totals from ``client_buffer``) and
the trainer's :func:`reconstruct_training_streams` both read from it.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple, Type, Union

from repro.atomio import atomic_write_bytes
from repro.streaming.telemetry import (
    TABLES,
    ClientBufferRecord,
    RowError,
    TableRecord,
    TelemetryLog,
    VideoAckedRecord,
    VideoSentRecord,
)

if TYPE_CHECKING:  # typing only; avoids importing the simulator eagerly
    from repro.streaming.session import StreamResult


class ArchiveError(ValueError):
    """An archive table that cannot be read as written, or an archive a
    fresh run may not append to; the message names the file or directory
    and the remedy."""


# A record's CSV row, positionally: its fields in column order (the event
# as its string value) — what ``csv.DictWriter`` made of ``to_dict()``.
_SENT_ROW = attrgetter(*VideoSentRecord.columns)
_ACKED_ROW = attrgetter(*VideoAckedRecord.columns)
_BUFFER_ROW = attrgetter(
    *("event.value" if name == "event" else name
      for name in ClientBufferRecord.columns)
)


def _write_rows(writers: Dict[str, Any], telemetry: TelemetryLog) -> None:
    """Append every record of ``telemetry`` to its table's ``csv.writer``."""
    writers["video_sent"].writerows(map(_SENT_ROW, telemetry.video_sent))
    writers["video_acked"].writerows(map(_ACKED_ROW, telemetry.video_acked))
    writers["client_buffer"].writerows(
        map(_BUFFER_ROW, telemetry.client_buffer)
    )


@dataclass(frozen=True)
class ArchiveDay:
    """Paths of one day's archive files."""

    directory: Path
    video_sent: Path
    video_acked: Path
    client_buffer: Path

    @classmethod
    def in_directory(cls, directory: Union[str, Path]) -> "ArchiveDay":
        directory = Path(directory)
        return cls(
            directory=directory,
            video_sent=directory / "video_sent.csv",
            video_acked=directory / "video_acked.csv",
            client_buffer=directory / "client_buffer.csv",
        )

    def tables(self) -> List[Tuple[str, Path, Type[TableRecord]]]:
        """``(name, path, record type)`` of the three tables, in write
        order."""
        return [(name, getattr(self, name), record) for name, record in TABLES]


def write_archive_day(
    telemetry: TelemetryLog, directory: Union[str, Path]
) -> ArchiveDay:
    """Write one day of telemetry as the three-table CSV archive.

    Each table is rendered in memory and atomically published through
    :func:`repro.atomio.atomic_write_bytes`: a crash mid-write leaves
    either the previous day file or the complete new one, never a
    half-written table.  The bytes are identical to a plain
    ``open(..., "w", newline="")`` write (the csv module's ``\\r\\n``
    terminators pass through untranslated).
    """
    day = ArchiveDay.in_directory(directory)
    day.directory.mkdir(parents=True, exist_ok=True)
    tables = day.tables()
    buffers = {name: io.StringIO(newline="") for name, _, _ in tables}
    writers = {name: csv.writer(buffers[name]) for name in buffers}
    for name, _, record in tables:
        writers[name].writerow(record.columns)
    _write_rows(writers, telemetry)
    for name, path, _ in tables:
        atomic_write_bytes(path, buffers[name].getvalue().encode("utf-8"))
    return day


class ArchiveAppender:
    """Incremental (open-once) writer for the three archive tables.

    Batch runs buffer a full :class:`TelemetryLog` and call
    :func:`write_archive_day` at the end; an open-ended fleet run cannot —
    that buffer grows without bound.  The appender keeps each CSV open,
    appends rows as sessions commit, and flushes per commit, so the daily
    open-data archive streams to disk at O(1) memory.

    Crash-safe cooperation with the fleet checkpoint: :meth:`offsets`
    reports the current byte position of every table (after a flush), the
    checkpoint records those positions, and on resume
    :meth:`truncate_to` discards any rows appended after the last durable
    checkpoint — so the archive never contains rows from uncommitted
    sessions, and a killed+resumed run produces byte-identical CSVs.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.day = ArchiveDay.in_directory(directory)
        self.day.directory.mkdir(parents=True, exist_ok=True)
        self._files = {}
        self._writers = {}
        for name, path, record in self.day.tables():
            fresh = not path.exists() or path.stat().st_size == 0
            f = open(path, "a", newline="")
            # Append mode leaves the reported position implementation-
            # defined until the first write; pin it to the end so
            # ``offsets()`` is meaningful before any append.
            f.seek(0, os.SEEK_END)
            self._files[name] = f
            writer = csv.writer(f)
            self._writers[name] = writer
            if fresh:
                writer.writerow(record.columns)
        self.flush()

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def append(self, telemetry: TelemetryLog) -> None:
        """Append one batch of rows (typically one committed session)."""
        _write_rows(self._writers, telemetry)

    def flush(self, sync: bool = False) -> None:
        """Flush buffered rows; ``sync=True`` additionally fsyncs (called
        before a checkpoint records the offsets as durable)."""
        for _, f in sorted(self._files.items()):
            f.flush()
            if sync:
                os.fsync(f.fileno())

    def offsets(self) -> Dict[str, int]:
        """Current byte position of every table (flushes first)."""
        self.flush()
        return {
            name: self._files[name].tell()
            for name in sorted(self._files)
        }

    # ------------------------------------------------------------------
    # Resume support
    # ------------------------------------------------------------------
    def truncate_to(self, offsets: Dict[str, int]) -> None:
        """Discard everything after ``offsets`` (rows from sessions that
        were appended but never checkpointed before a crash)."""
        for name in sorted(self._files):
            if name not in offsets:
                raise ValueError(f"no stored offset for table {name!r}")
            f = self._files[name]
            f.flush()
            f.truncate(int(offsets[name]))
            f.seek(0, os.SEEK_END)

    def reset(self) -> None:
        """Roll every table back to empty-with-header (fresh-start resume).

        Recovery path for a crash that predates the first durable
        checkpoint: there are no stored offsets to :meth:`truncate_to`,
        so every appended row is uncommitted.  The result is
        byte-identical to a freshly created archive.
        """
        for name, _path, record in self.day.tables():
            f = self._files[name]
            f.flush()
            f.truncate(0)
            f.seek(0)
            self._writers[name].writerow(record.columns)
        self.flush()

    def holds_rows(self) -> bool:
        """Whether any table holds rows past its header (flushes first)."""
        offsets = self.offsets()
        return any(
            offsets[name] > _header_end(path, record)
            for name, path, record in self.day.tables()
        )

    # ------------------------------------------------------------------
    # Streaming reads (the continual-retraining consumer)
    # ------------------------------------------------------------------
    def read_slice(
        self,
        start_offsets: Dict[str, int],
        end_offsets: Optional[Dict[str, int]] = None,
    ) -> TelemetryLog:
        """Rows appended between two recorded :meth:`offsets` snapshots.

        Flushes first so everything appended so far is visible; omitting
        ``end_offsets`` reads through the current end of each table.
        """
        self.flush()
        return read_telemetry_slice(
            self.day.directory, start_offsets, end_offsets
        )

    def reconstruct_streams(
        self,
        start_offsets: Dict[str, int],
        end_offsets: Optional[Dict[str, int]] = None,
    ) -> "List[StreamResult]":
        """Training streams for one byte-range window of the archive.

        The incremental counterpart of
        :func:`reconstruct_training_streams`: the continual retrainer records
        :meth:`offsets` at each simulated-day boundary and consumes exactly
        the rows committed during that day. It reads the two tables the
        join reads; ``client_buffer`` rows are never decoded.
        """
        self.flush()
        return reconstruct_training_streams(
            _read_tables(
                self.day.directory, start_offsets, end_offsets,
                ("video_sent", "video_acked"),
            )
        )

    def close(self) -> None:
        for _, f in sorted(self._files.items()):
            f.flush()
            f.close()
        self._files = {}
        self._writers = {}

    def __enter__(self) -> "ArchiveAppender":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def _torn(path: Path, offset: int, why: str) -> ArchiveError:
    return ArchiveError(
        f"{path}: torn row at byte {offset}: {why}; truncate the table to "
        f"byte {offset}, or resume the run that wrote it (`repro fleet "
        "resume`), which rolls the archive back to its last checkpoint"
    )


def _header_end(path: Path, record: Type[TableRecord]) -> int:
    """Byte offset just past the header of table ``path``, which must name
    ``record``'s columns."""
    with open(path, "rb") as f:
        line = f.readline()
    header = line.decode("utf-8", "replace").rstrip("\r\n").split(",")
    expected = list(record.columns)
    if header != expected:
        raise ArchiveError(
            f"{path}: unexpected columns {header}; expected {expected}"
        )
    if not line.endswith(b"\n"):
        raise _torn(path, 0, "the header has no line terminator")
    return len(line)


def _read_rows(
    path: Path, record: Type[TableRecord], start: int, end: Optional[int]
) -> List[Any]:
    """The records of table ``path`` in bytes ``[start, end)``; ``end=None``
    reads to the end of the file.

    ``start`` must lie on a row boundary: just past the header, or an
    offset :meth:`ArchiveAppender.offsets` recorded (always after a flush).
    The range must lie within the file, and every row in it must end with
    its line terminator and decode (:meth:`TableRecord.from_rows`: one
    field per column, finite floats, integral ints); otherwise
    :class:`ArchiveError` names the row's byte offset and the column.
    """
    with open(path, "rb") as f:
        size = f.seek(0, os.SEEK_END)
        stop = size if end is None else end
        if not 0 <= start <= stop <= size:
            raise ArchiveError(
                f"{path}: bytes [{start}, {stop}) are not within the table's "
                f"{size} bytes; use offsets recorded on this archive (a "
                "checkpoint written with it)"
            )
        f.seek(start)
        data = f.read(stop - start)
    if data and not data.endswith(b"\n"):
        raise _torn(
            path, start + data.rfind(b"\n") + 1,
            "the last row has no line terminator",
        )
    reader = csv.reader(
        io.StringIO(data.decode("utf-8", "replace"), newline="")
    )
    try:
        return record.from_rows(list(reader))
    except RowError as exc:
        row, why = exc.row, str(exc)
    except csv.Error as exc:
        row, why = reader.line_num - 1, str(exc)
    # Rows are single lines: the writer quotes no field.
    lines = data.splitlines(keepends=True)[:row]
    raise _torn(path, start + sum(map(len, lines)), why)


def load_archive_day(directory: Union[str, Path]) -> TelemetryLog:
    """Load one day's archive back into a :class:`TelemetryLog`."""
    telemetry = TelemetryLog()
    for name, path, record in ArchiveDay.in_directory(directory).tables():
        rows = _read_rows(path, record, _header_end(path, record), None)
        setattr(telemetry, name, rows)
    return telemetry


def read_telemetry_slice(
    directory: Union[str, Path],
    start_offsets: Dict[str, int],
    end_offsets: Optional[Dict[str, int]] = None,
) -> TelemetryLog:
    """Load the archive rows appended between two byte-offset snapshots.

    This is what lets a consumer (the continual TTP retrainer) process the
    archive *as it is written* at constant memory: the fleet checkpoint
    records :meth:`ArchiveAppender.offsets` at each simulated-day boundary,
    and the day's telemetry is exactly the rows between consecutive
    snapshots — no timestamps needed (telemetry times are session-relative)
    and no re-reading of earlier days.  ``end_offsets=None`` reads through
    the end of each table.
    """
    return _read_tables(directory, start_offsets, end_offsets)


def _read_tables(
    directory: Union[str, Path],
    start_offsets: Dict[str, int],
    end_offsets: Optional[Dict[str, int]],
    names: Tuple[str, ...] = tuple(name for name, _ in TABLES),
) -> TelemetryLog:
    """:func:`read_telemetry_slice` of the tables ``names``; the others
    stay empty."""
    telemetry = TelemetryLog()
    for name, path, record in ArchiveDay.in_directory(directory).tables():
        if name not in names:
            continue
        if name not in start_offsets:
            raise ValueError(f"no start offset for table {name!r}")
        end = None if end_offsets is None else int(end_offsets[name])
        rows = _read_rows(path, record, int(start_offsets[name]), end)
        setattr(telemetry, name, rows)
    return telemetry


# ---------------------------------------------------------------------------
# The sent ⋈ acked join (archive rows -> per-chunk deliveries)
# ---------------------------------------------------------------------------
def _deliveries(
    telemetry: TelemetryLog,
) -> Dict[Tuple[int, int], Tuple[VideoSentRecord, float]]:
    """The accepted deliveries: ``(stream_id, chunk_index) -> (sent record,
    earliest ack time)``, in first-accepted order.

    Robust to the row-ordering hazards of a streamed (or sharded) archive,
    where tables are appended per committed session and a real deployment's
    collectors may interleave or drop rows, so the result is a pure function
    of the archive's row *set*:

    * ``video_acked`` rows may arrive in any order — the join keys on
      ``(stream_id, chunk_index)``;
    * duplicate acks for one chunk keep the **earliest** ack time (the
      first complete delivery; retransmitted acks don't shrink the
      measured transmission time);
    * acks whose matching ``video_sent`` row is missing (the chunk was
      never fully delivered before the viewer left), or which are
      timestamped *before* their send (clock skew / corruption), are
      dropped rather than producing negative transmission times.
    """
    sent_by_key = {
        (record.stream_id, record.chunk_index): record
        for record in telemetry.video_sent
    }
    deliveries: Dict[Tuple[int, int], Tuple[VideoSentRecord, float]] = {}
    for acked in telemetry.video_acked:
        key = (acked.stream_id, acked.chunk_index)
        sent = sent_by_key.get(key)
        if sent is None or acked.time - sent.time < 0:
            continue
        previous = deliveries.get(key)
        if previous is None or acked.time < previous[1]:
            deliveries[key] = (sent, acked.time)
    return deliveries


@dataclass
class ArchivedStream:
    """Per-stream view reconstructed from the archive tables."""

    stream_id: int
    expt_id: int
    chunk_transmission_times: Dict[int, float]
    chunk_sizes: Dict[int, float]
    chunk_ssim_indices: Dict[int, float]
    total_stall_s: float

    @property
    def n_chunks_acked(self) -> int:
        return len(self.chunk_transmission_times)

    def observed_throughputs_bps(self) -> List[float]:
        return [
            self.chunk_sizes[i] * 8.0 / t
            for i, t in self.chunk_transmission_times.items()
            if t > 0 and i in self.chunk_sizes
        ]


def reconstruct_streams(telemetry: TelemetryLog) -> Dict[int, ArchivedStream]:
    """The analyst's join: :func:`_deliveries` per stream, plus stall
    totals (the largest ``cum_rebuf`` a stream's ``client_buffer`` rows
    report)."""
    expt_by_stream = {r.stream_id: r.expt_id for r in telemetry.video_sent}
    streams: Dict[int, ArchivedStream] = {}

    def stream_for(stream_id: int) -> ArchivedStream:
        if stream_id not in streams:
            streams[stream_id] = ArchivedStream(
                stream_id=stream_id,
                expt_id=expt_by_stream.get(stream_id, -1),
                chunk_transmission_times={},
                chunk_sizes={},
                chunk_ssim_indices={},
                total_stall_s=0.0,
            )
        return streams[stream_id]

    for (stream_id, chunk), (sent, ack_time) in _deliveries(telemetry).items():
        stream = stream_for(stream_id)
        stream.chunk_transmission_times[chunk] = ack_time - sent.time
        stream.chunk_sizes[chunk] = sent.size
        stream.chunk_ssim_indices[chunk] = sent.ssim_index

    for record in telemetry.client_buffer:
        stream = stream_for(record.stream_id)
        stream.total_stall_s = max(stream.total_stall_s, record.cum_rebuf)

    return streams


def reconstruct_training_streams(
    telemetry: TelemetryLog,
) -> "List[StreamResult]":
    """Rebuild full :class:`~repro.streaming.session.StreamResult` objects
    — ordered chunk records with their ``tcp_info`` snapshots — from the
    archive tables, ready for :func:`repro.core.train.build_ttp_datasets`.

    This is the in-situ training data path of §4.3: the TTP learns from
    what the *deployment logged*, not from simulator internals.  The chunks
    are :func:`_deliveries`, the join :func:`reconstruct_streams` reads, so
    the reconstructed training set is a pure function of the archive's row
    *set*.  Fields the archive cannot recover are left neutral: ``rung`` is
    -1 (the ladder index never reaches the archive) and per-stream playback
    accounting stays at its defaults — neither is consumed by feature
    extraction, labeling, or tail calibration.
    """
    from repro.abr.base import ChunkRecord
    from repro.media import ssim_index_to_db
    from repro.net.tcp import TcpInfo
    from repro.streaming.session import StreamResult

    records_by_stream: Dict[int, List[ChunkRecord]] = {}
    expt_by_stream: Dict[int, int] = {}
    for (stream_id, chunk_index), (sent, ack_time) in sorted(
        _deliveries(telemetry).items()
    ):
        expt_by_stream[stream_id] = sent.expt_id
        records_by_stream.setdefault(stream_id, []).append(
            ChunkRecord(
                chunk_index=chunk_index,
                rung=-1,
                size_bytes=sent.size,
                ssim_db=ssim_index_to_db(sent.ssim_index),
                transmission_time=ack_time - sent.time,
                info_at_send=TcpInfo(
                    cwnd=sent.cwnd,
                    in_flight=sent.in_flight,
                    min_rtt=sent.min_rtt,
                    rtt=sent.rtt,
                    delivery_rate=sent.delivery_rate,
                ),
                send_time=sent.time,
            )
        )

    return [
        StreamResult(
            stream_id,
            f"expt_{expt_by_stream[stream_id]}",
            records=records,
        )
        for stream_id, records in sorted(records_by_stream.items())
    ]

"""Writing and reading the daily open-data archive (Appendix B).

Each archive day is a directory of three CSV files:

* ``video_sent.csv`` — time, stream_id, expt_id, chunk_index, size,
  ssim_index, cwnd, in_flight, min_rtt, rtt, delivery_rate;
* ``video_acked.csv`` — time, stream_id, expt_id, chunk_index;
* ``client_buffer.csv`` — time, stream_id, expt_id, event, buffer,
  cum_rebuf.

The column sets match the fields the paper describes for the public data
(IP addresses and user ids are redacted in the real archive; the simulator
never produces them). :func:`reconstruct_streams` performs the join a
downstream analyst performs: sent ⋈ acked on (stream_id, chunk_index)
recovers per-chunk transmission times, and ``client_buffer`` yields stall
accounting.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple, Union

from repro.atomio import atomic_write_bytes
from repro.streaming.telemetry import (
    BufferEvent,
    ClientBufferRecord,
    TelemetryLog,
    VideoAckedRecord,
    VideoSentRecord,
)

if TYPE_CHECKING:  # typing only; avoids importing the simulator eagerly
    from repro.streaming.session import StreamResult

_SENT_COLUMNS = [
    "time", "stream_id", "expt_id", "chunk_index", "size", "ssim_index",
    "cwnd", "in_flight", "min_rtt", "rtt", "delivery_rate",
]
_ACKED_COLUMNS = ["time", "stream_id", "expt_id", "chunk_index"]
_BUFFER_COLUMNS = [
    "time", "stream_id", "expt_id", "event", "buffer", "cum_rebuf",
]

# A record's CSV row, positionally: its fields in column order (the event
# as its string value) — what ``csv.DictWriter`` made of ``to_dict()``.
_SENT_ROW = attrgetter(*_SENT_COLUMNS)
_ACKED_ROW = attrgetter(*_ACKED_COLUMNS)
_BUFFER_ROW = attrgetter(
    *("event.value" if name == "event" else name for name in _BUFFER_COLUMNS)
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

    def tables(self) -> List[Tuple[str, Path, List[str]]]:
        """``(name, path, columns)`` of the three tables, in write order."""
        return [
            ("video_sent", self.video_sent, _SENT_COLUMNS),
            ("video_acked", self.video_acked, _ACKED_COLUMNS),
            ("client_buffer", self.client_buffer, _BUFFER_COLUMNS),
        ]


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
    for name, _, columns in tables:
        writers[name].writerow(columns)
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
        for name, path, columns in self.day.tables():
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
                writer.writerow(columns)
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
        for name, _path, columns in self.day.tables():
            f = self._files[name]
            f.flush()
            f.truncate(0)
            f.seek(0)
            self._writers[name].writerow(columns)
        self.flush()

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
        the rows committed during that day.
        """
        return reconstruct_training_streams(
            self.read_slice(start_offsets, end_offsets)
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


def _require_columns(path: Path, header: List[str], expected: List[str]) -> None:
    if header != expected:
        raise ValueError(
            f"{path}: unexpected columns {header}; expected {expected}"
        )


def load_archive_day(directory: Union[str, Path]) -> TelemetryLog:
    """Load one day's archive back into a :class:`TelemetryLog`."""
    day = ArchiveDay.in_directory(directory)
    for path in (day.video_sent, day.video_acked, day.client_buffer):
        if not path.exists():
            raise FileNotFoundError(f"missing archive table: {path}")
    telemetry = TelemetryLog()

    with open(day.video_sent, newline="") as f:
        reader = csv.DictReader(f)
        _require_columns(day.video_sent, reader.fieldnames, _SENT_COLUMNS)
        for row in reader:
            telemetry.video_sent.append(
                VideoSentRecord(
                    time=float(row["time"]),
                    stream_id=int(row["stream_id"]),
                    expt_id=int(row["expt_id"]),
                    chunk_index=int(row["chunk_index"]),
                    size=float(row["size"]),
                    ssim_index=float(row["ssim_index"]),
                    cwnd=float(row["cwnd"]),
                    in_flight=float(row["in_flight"]),
                    min_rtt=float(row["min_rtt"]),
                    rtt=float(row["rtt"]),
                    delivery_rate=float(row["delivery_rate"]),
                )
            )

    with open(day.video_acked, newline="") as f:
        reader = csv.DictReader(f)
        _require_columns(day.video_acked, reader.fieldnames, _ACKED_COLUMNS)
        for row in reader:
            telemetry.video_acked.append(
                VideoAckedRecord(
                    time=float(row["time"]),
                    stream_id=int(row["stream_id"]),
                    expt_id=int(row["expt_id"]),
                    chunk_index=int(row["chunk_index"]),
                )
            )

    with open(day.client_buffer, newline="") as f:
        reader = csv.DictReader(f)
        _require_columns(day.client_buffer, reader.fieldnames, _BUFFER_COLUMNS)
        for row in reader:
            telemetry.client_buffer.append(
                ClientBufferRecord(
                    time=float(row["time"]),
                    stream_id=int(row["stream_id"]),
                    expt_id=int(row["expt_id"]),
                    event=BufferEvent(row["event"]),
                    buffer=float(row["buffer"]),
                    cum_rebuf=float(row["cum_rebuf"]),
                )
            )
    return telemetry


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
    """The analyst's join: sent ⋈ acked per stream, plus stall totals.

    Robust to the row-ordering hazards of a streamed (or sharded) archive,
    where tables are appended per committed session and a real deployment's
    collectors may interleave or drop rows:

    * ``video_acked`` rows may arrive in any order — the join keys on
      ``(stream_id, chunk_index)``, and the result is independent of row
      order;
    * duplicate acks for one chunk keep the **earliest** ack time (the
      first complete delivery; retransmitted acks don't shrink the
      measured transmission time);
    * acks whose matching ``video_sent`` row is missing, or which are
      timestamped *before* their send (clock skew / corruption), are
      dropped rather than producing negative transmission times.
    """
    sent_by_key: Dict[Tuple[int, int], VideoSentRecord] = {}
    expt_by_stream: Dict[int, int] = {}
    for record in telemetry.video_sent:
        sent_by_key[(record.stream_id, record.chunk_index)] = record
        expt_by_stream[record.stream_id] = record.expt_id

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

    for acked in telemetry.video_acked:
        sent = sent_by_key.get((acked.stream_id, acked.chunk_index))
        if sent is None:
            continue  # chunk never fully delivered before the viewer left
        transmission = acked.time - sent.time
        if transmission < 0:
            continue  # misordered/corrupt row: acked before it was sent
        stream = stream_for(acked.stream_id)
        previous = stream.chunk_transmission_times.get(acked.chunk_index)
        if previous is not None and previous <= transmission:
            continue  # duplicate ack: keep the earliest complete delivery
        stream.chunk_transmission_times[acked.chunk_index] = transmission
        stream.chunk_sizes[acked.chunk_index] = sent.size
        stream.chunk_ssim_indices[acked.chunk_index] = sent.ssim_index

    for record in telemetry.client_buffer:
        stream = stream_for(record.stream_id)
        stream.total_stall_s = max(stream.total_stall_s, record.cum_rebuf)

    return streams


# ---------------------------------------------------------------------------
# Byte-range reads (crash-safe streaming consumers)
# ---------------------------------------------------------------------------
def _parse_slice_rows(
    path: Path, start: int, end: Optional[int], n_columns: int
) -> List[List[str]]:
    """CSV rows in ``[start, end)`` of one table file.

    Offsets must come from :meth:`ArchiveAppender.offsets` (recorded after a
    flush), which always land on row boundaries; a slice that starts at 0
    would include the header, so callers record their first offset right
    after the appender writes it.
    """
    if not path.exists():
        raise FileNotFoundError(f"missing archive table: {path}")
    with open(path, "rb") as f:
        f.seek(int(start))
        data = f.read() if end is None else f.read(max(int(end) - int(start), 0))
    rows: List[List[str]] = []
    for row in csv.reader(io.StringIO(data.decode("utf-8"), newline="")):
        if not row:
            continue
        if len(row) != n_columns:
            raise ValueError(
                f"{path}: slice [{start}, {end}) is not row-aligned "
                f"(got {len(row)} fields, expected {n_columns})"
            )
        rows.append(row)
    return rows


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
    and no re-reading of earlier days.
    """
    day = ArchiveDay.in_directory(directory)
    tables = {name: (path, columns) for name, path, columns in day.tables()}
    telemetry = TelemetryLog()
    for name in sorted(tables):
        path, columns = tables[name]
        if name not in start_offsets:
            raise ValueError(f"no start offset for table {name!r}")
        end = None if end_offsets is None else int(end_offsets[name])
        rows = _parse_slice_rows(path, start_offsets[name], end, len(columns))
        if name == "video_sent":
            for row in rows:
                telemetry.video_sent.append(
                    VideoSentRecord(
                        time=float(row[0]),
                        stream_id=int(row[1]),
                        expt_id=int(row[2]),
                        chunk_index=int(row[3]),
                        size=float(row[4]),
                        ssim_index=float(row[5]),
                        cwnd=float(row[6]),
                        in_flight=float(row[7]),
                        min_rtt=float(row[8]),
                        rtt=float(row[9]),
                        delivery_rate=float(row[10]),
                    )
                )
        elif name == "video_acked":
            for row in rows:
                telemetry.video_acked.append(
                    VideoAckedRecord(
                        time=float(row[0]),
                        stream_id=int(row[1]),
                        expt_id=int(row[2]),
                        chunk_index=int(row[3]),
                    )
                )
        else:
            for row in rows:
                telemetry.client_buffer.append(
                    ClientBufferRecord(
                        time=float(row[0]),
                        stream_id=int(row[1]),
                        expt_id=int(row[2]),
                        event=BufferEvent(row[3]),
                        buffer=float(row[4]),
                        cum_rebuf=float(row[5]),
                    )
                )
    return telemetry


# ---------------------------------------------------------------------------
# Training-stream reconstruction (archive rows -> StreamResult)
# ---------------------------------------------------------------------------
def reconstruct_training_streams(
    telemetry: TelemetryLog,
) -> "List[StreamResult]":
    """Rebuild full :class:`~repro.streaming.session.StreamResult` objects
    — ordered chunk records with their ``tcp_info`` snapshots — from the
    archive tables, ready for :func:`repro.core.train.build_ttp_datasets`.

    This is the in-situ training data path of §4.3: the TTP learns from
    what the *deployment logged*, not from simulator internals.  The join
    follows the same tolerance rules as :func:`reconstruct_streams` (any
    row order, earliest duplicate ack wins, orphan and time-travelling acks
    dropped), so the reconstructed training set is a pure function of the
    archive's row *set*.  Fields the archive cannot recover are left
    neutral: ``rung`` is -1 (the ladder index never reaches the archive)
    and per-stream playback accounting stays at its defaults — neither is
    consumed by feature extraction, labeling, or tail calibration.
    """
    from repro.media import ssim_index_to_db
    from repro.net.tcp import TcpInfo
    from repro.streaming.session import StreamResult

    sent_by_key: Dict[Tuple[int, int], VideoSentRecord] = {}
    for record in telemetry.video_sent:
        sent_by_key[(record.stream_id, record.chunk_index)] = record

    ack_times: Dict[Tuple[int, int], float] = {}
    for acked in telemetry.video_acked:
        key = (acked.stream_id, acked.chunk_index)
        sent = sent_by_key.get(key)
        if sent is None:
            continue  # chunk never fully delivered before the viewer left
        if acked.time - sent.time < 0:
            continue  # misordered/corrupt row: acked before it was sent
        previous = ack_times.get(key)
        if previous is not None and previous <= acked.time:
            continue  # duplicate ack: keep the earliest complete delivery
        ack_times[key] = acked.time

    from repro.abr.base import ChunkRecord

    records_by_stream: Dict[int, List[ChunkRecord]] = {}
    expt_by_stream: Dict[int, int] = {}
    for (stream_id, chunk_index), ack_time in sorted(ack_times.items()):
        sent = sent_by_key[(stream_id, chunk_index)]
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

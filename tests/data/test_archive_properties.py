"""Property tests for archive reconstruction (the learning-loop's input).

The continual retrainer trains on streams *reconstructed from the archive*,
so the reconstruction must be a pure function of the archive's row **set**:
a streamed (or sharded, or crash-replayed) archive may interleave tables,
re-append rows, or lose an uncommitted tail, and none of that may change
what the TTP learns.  Three property families:

* **row-set invariance** — arbitrary interleavings and duplications of the
  telemetry rows reconstruct exactly the same streams as the in-order log;
* **byte-slice fidelity** — the appender's byte-offset slices reproduce the
  exact in-memory rows (CSV float round-trips are exact), and consecutive
  slices compose to the whole;
* **truncation** — rolling the archive back to a commit boundary
  reconstructs exactly the in-order prefix's streams;
* **rendering** — the positional ``csv.writer`` rows are, byte for byte,
  what ``csv.DictWriter`` made of each record's ``to_dict()``.
"""

import csv
import io
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.data.archive import (
    ArchiveAppender,
    load_archive_day,
    read_telemetry_slice,
    reconstruct_streams,
    reconstruct_training_streams,
    write_archive_day,
)
from repro.streaming.telemetry import (
    BufferEvent,
    ClientBufferRecord,
    TelemetryLog,
    VideoAckedRecord,
    VideoSentRecord,
)

# The published header of each table, spelled out: the record types define
# the archive's columns, and these pin what they must come to on disk.
_SENT_COLUMNS = [
    "time", "stream_id", "expt_id", "chunk_index", "size", "ssim_index",
    "cwnd", "in_flight", "min_rtt", "rtt", "delivery_rate",
]
_ACKED_COLUMNS = ["time", "stream_id", "expt_id", "chunk_index"]
_BUFFER_COLUMNS = [
    "time", "stream_id", "expt_id", "event", "buffer", "cum_rebuf",
]

# Floats with awkward reprs included; no NaN (CSV round-trip of NaN is not
# part of the contract — the simulator never emits it).
times = st.floats(
    min_value=0.0, max_value=1e5, allow_nan=False, allow_infinity=False
)
sizes = st.floats(
    min_value=1.0, max_value=1e7, allow_nan=False, allow_infinity=False
)
ssims = st.floats(
    min_value=1e-6, max_value=1.0 - 1e-9,
    allow_nan=False, allow_infinity=False,
)
tcp_floats = st.floats(
    min_value=0.0, max_value=1e8, allow_nan=False, allow_infinity=False
)


@st.composite
def telemetry_logs(draw):
    """Small synthetic logs with every join hazard represented: missing
    acks, duplicate acks (same and different times), time-travelling acks,
    and orphan acks with no matching sent row."""
    log = TelemetryLog()
    n_streams = draw(st.integers(min_value=1, max_value=3))
    for stream_id in range(n_streams):
        expt_id = draw(st.integers(min_value=0, max_value=3))
        n_chunks = draw(st.integers(min_value=0, max_value=5))
        for chunk_index in range(n_chunks):
            send_time = draw(times)
            log.video_sent.append(
                VideoSentRecord(
                    time=send_time,
                    stream_id=stream_id,
                    expt_id=expt_id,
                    chunk_index=chunk_index,
                    size=draw(sizes),
                    ssim_index=draw(ssims),
                    cwnd=draw(tcp_floats),
                    in_flight=draw(tcp_floats),
                    min_rtt=draw(tcp_floats),
                    rtt=draw(tcp_floats),
                    delivery_rate=draw(tcp_floats),
                )
            )
            # 0 acks (lost), 1, or several (duplicates); offsets may be
            # negative (clock-skewed rows the join must drop).
            for _ in range(draw(st.integers(min_value=0, max_value=3))):
                offset = draw(
                    st.floats(
                        min_value=-2.0, max_value=30.0,
                        allow_nan=False, allow_infinity=False,
                    )
                )
                log.video_acked.append(
                    VideoAckedRecord(
                        time=send_time + offset,
                        stream_id=stream_id,
                        expt_id=expt_id,
                        chunk_index=chunk_index,
                    )
                )
            log.client_buffer.append(
                ClientBufferRecord(
                    time=send_time,
                    stream_id=stream_id,
                    expt_id=expt_id,
                    event=BufferEvent.TIMER,
                    buffer=draw(tcp_floats),
                    cum_rebuf=draw(times),
                )
            )
    # Orphan acks: stream/chunk pairs with no sent row at all.
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        log.video_acked.append(
            VideoAckedRecord(
                time=draw(times),
                stream_id=draw(st.integers(min_value=0, max_value=5)),
                expt_id=0,
                chunk_index=draw(st.integers(min_value=6, max_value=9)),
            )
        )
    return log


def scrambled(log, seed, duplicate):
    """Same row set: independently shuffled tables, optionally with a
    random subset of rows re-appended verbatim (retry/replay hazard)."""
    rng = np.random.default_rng(seed)
    out = TelemetryLog()
    for src, dst in (
        (log.video_sent, out.video_sent),
        (log.video_acked, out.video_acked),
        (log.client_buffer, out.client_buffer),
    ):
        rows = list(src)
        if duplicate and rows:
            extras = [
                rows[int(i)]
                for i in rng.integers(len(rows), size=rng.integers(1, 4))
            ]
            rows.extend(extras)
        order = rng.permutation(len(rows))
        dst.extend(rows[int(i)] for i in order)
    return out


def training_key(streams):
    """Comparable exact form of reconstruct_training_streams output."""
    return [
        (s.stream_id, s.scheme_name, tuple(s.records)) for s in streams
    ]


class TestRowSetInvariance:
    @settings(max_examples=60, deadline=None)
    @given(log=telemetry_logs(), seed=st.integers(0, 2**32 - 1),
           duplicate=st.booleans())
    def test_analyst_join_is_row_set_pure(self, log, seed, duplicate):
        reference = reconstruct_streams(log)
        mutated = reconstruct_streams(scrambled(log, seed, duplicate))
        assert mutated == reference

    @settings(max_examples=60, deadline=None)
    @given(log=telemetry_logs(), seed=st.integers(0, 2**32 - 1),
           duplicate=st.booleans())
    def test_training_streams_are_row_set_pure(self, log, seed, duplicate):
        reference = training_key(reconstruct_training_streams(log))
        mutated = training_key(
            reconstruct_training_streams(scrambled(log, seed, duplicate))
        )
        assert mutated == reference

    @settings(max_examples=60, deadline=None)
    @given(log=telemetry_logs(), seed=st.integers(0, 2**32 - 1),
           duplicate=st.booleans())
    def test_analyst_and_trainer_share_one_join(self, log, seed, duplicate):
        log = scrambled(log, seed, duplicate)
        analyst = {
            (stream.stream_id, chunk): time
            for stream in reconstruct_streams(log).values()
            for chunk, time in stream.chunk_transmission_times.items()
        }
        trainer = {
            (stream.stream_id, record.chunk_index): record.transmission_time
            for stream in reconstruct_training_streams(log)
            for record in stream.records
        }
        assert analyst == trainer

    @settings(max_examples=40, deadline=None)
    @given(log=telemetry_logs())
    def test_training_streams_well_formed(self, log):
        for stream in reconstruct_training_streams(log):
            indices = [r.chunk_index for r in stream.records]
            assert indices == sorted(indices)
            assert len(set(indices)) == len(indices)
            assert all(r.transmission_time >= 0 for r in stream.records)
            assert stream.records, "empty streams are never emitted"


class TestByteSlices:
    @settings(max_examples=25, deadline=None)
    @given(
        logs=st.lists(telemetry_logs(), min_size=1, max_size=4),
        cut_seed=st.integers(0, 2**32 - 1),
    )
    def test_slices_compose_to_the_whole(self, logs, cut_seed):
        with tempfile.TemporaryDirectory() as directory:
            appender = ArchiveAppender(directory)
            snapshots = [appender.offsets()]
            for log in logs:
                appender.append(log)
                snapshots.append(appender.offsets())

            # Each inter-snapshot slice returns exactly its log's rows
            # (CSV float round-trips are exact, so equality is exact).
            for log, start, end in zip(logs, snapshots, snapshots[1:]):
                piece = read_telemetry_slice(directory, start, end)
                assert piece.video_sent == log.video_sent
                assert piece.video_acked == log.video_acked
                assert piece.client_buffer == log.client_buffer

            # Any snapshot-to-end slice equals the concatenated suffix.
            rng = np.random.default_rng(cut_seed)
            cut = int(rng.integers(len(snapshots)))
            suffix = read_telemetry_slice(directory, snapshots[cut], None)
            expected = TelemetryLog()
            for log in logs[cut:]:
                expected.extend(log)
            assert suffix.video_sent == expected.video_sent
            assert suffix.video_acked == expected.video_acked
            assert suffix.client_buffer == expected.client_buffer
            appender.close()

    @settings(max_examples=25, deadline=None)
    @given(
        logs=st.lists(telemetry_logs(), min_size=1, max_size=3),
        keep=st.integers(0, 3),
    )
    def test_truncation_reconstructs_the_prefix(self, logs, keep):
        keep = min(keep, len(logs))
        with tempfile.TemporaryDirectory() as directory:
            appender = ArchiveAppender(directory)
            first = appender.offsets()
            snapshots = []
            for log in logs:
                appender.append(log)
                snapshots.append(appender.offsets())
            rollback = snapshots[keep - 1] if keep else first
            appender.truncate_to(rollback)

            prefix = TelemetryLog()
            for log in logs[:keep]:
                prefix.extend(log)
            restored = appender.reconstruct_streams(first)
            assert training_key(restored) == training_key(
                reconstruct_training_streams(prefix)
            )
            appender.close()


# Every float the csv module could render differently from ``repr``: signed
# zero, a subnormal, the switch to exponent notation, the extremes.
awkward_floats = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 1e-320, 5e-324, 1e22, 1e16, 123456789012345680.0,
         0.1, 1 / 3, 1e-5, 1.7976931348623157e308, -2.5]
    ),
    st.floats(allow_nan=False, allow_infinity=False),
)
ids = st.integers(min_value=-(2**40), max_value=2**40)


@st.composite
def awkward_logs(draw):
    log = TelemetryLog()
    for _ in range(draw(st.integers(0, 4))):
        log.video_sent.append(
            VideoSentRecord(
                draw(awkward_floats), draw(ids), draw(ids), draw(ids),
                *(draw(awkward_floats) for _ in range(7)),
            )
        )
    for _ in range(draw(st.integers(0, 4))):
        log.video_acked.append(
            VideoAckedRecord(draw(awkward_floats), draw(ids), draw(ids), draw(ids))
        )
    for event in draw(st.lists(st.sampled_from(list(BufferEvent)), max_size=6)):
        log.client_buffer.append(
            ClientBufferRecord(
                draw(awkward_floats), draw(ids), draw(ids), event,
                draw(awkward_floats), draw(awkward_floats),
            )
        )
    return log


def dict_writer_bytes(columns, records):
    """The table as the archive rendered it before: ``to_dict()`` per
    record through a ``csv.DictWriter``."""
    buffer = io.StringIO(newline="")
    writer = csv.DictWriter(buffer, fieldnames=columns)
    writer.writeheader()
    for record in records:
        writer.writerow(record.to_dict())
    return buffer.getvalue().encode("utf-8")


class TestRendering:
    @settings(max_examples=60, deadline=None)
    @given(logs=st.lists(awkward_logs(), min_size=1, max_size=3))
    def test_positional_rows_are_the_dict_writer_bytes(self, logs):
        whole = TelemetryLog()
        for log in logs:
            whole.extend(log)
        expected = {
            "video_sent.csv": dict_writer_bytes(
                _SENT_COLUMNS, whole.video_sent
            ),
            "video_acked.csv": dict_writer_bytes(
                _ACKED_COLUMNS, whole.video_acked
            ),
            "client_buffer.csv": dict_writer_bytes(
                _BUFFER_COLUMNS, whole.client_buffer
            ),
        }
        with tempfile.TemporaryDirectory() as directory:
            streamed, batch = Path(directory, "a"), Path(directory, "b")
            with ArchiveAppender(streamed) as appender:
                for log in logs:
                    appender.append(log)
            write_archive_day(whole, batch)
            for name, data in expected.items():
                assert (streamed / name).read_bytes() == data
                assert (batch / name).read_bytes() == data
            # Emptied, the appender starts over with the same header.
            with ArchiveAppender(streamed) as appender:
                appender.reset()
                appender.append(whole)
            for name, data in expected.items():
                assert (streamed / name).read_bytes() == data


class TestOneReader:
    @settings(max_examples=40, deadline=None)
    @given(log=st.one_of(telemetry_logs(), awkward_logs()))
    def test_a_whole_day_is_the_slice_past_its_headers(self, log):
        with tempfile.TemporaryDirectory() as directory:
            write_archive_day(log, directory)
            past_headers = {
                name: len(",".join(columns)) + 2
                for name, columns in (
                    ("video_sent", _SENT_COLUMNS),
                    ("video_acked", _ACKED_COLUMNS),
                    ("client_buffer", _BUFFER_COLUMNS),
                )
            }
            whole = load_archive_day(directory)
            assert whole == read_telemetry_slice(directory, past_headers)
            assert (whole.video_sent, whole.video_acked,
                    whole.client_buffer) == (
                log.video_sent, log.video_acked, log.client_buffer)

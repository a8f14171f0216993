"""Tests for repro.data.archive — Appendix B CSV round-trips and joins."""

import numpy as np
import pytest

from repro.abr.bba import BBA
from repro.data import (
    ArchiveError,
    load_archive_day,
    read_telemetry_slice,
    reconstruct_streams,
    write_archive_day,
)
from repro.data.archive import ArchiveDay
from repro.media.encoder import encode_clip
from repro.media.source import DEFAULT_CHANNELS
from repro.net.link import ConstantLink, HeavyTailLink
from repro.net.tcp import TcpConnection
from repro.streaming import TelemetryLog, simulate_stream


@pytest.fixture()
def telemetry():
    log = TelemetryLog()
    for stream_id, base in ((1, 2e7), (2, 8e5)):
        conn = TcpConnection(HeavyTailLink(base_bps=base, seed=stream_id),
                             base_rtt=0.05)
        simulate_stream(
            iter(encode_clip(DEFAULT_CHANNELS[0], 100, seed=stream_id)),
            BBA(),
            conn,
            watch_time_s=60.0,
            stream_id=stream_id,
            expt_id=stream_id + 10,
            telemetry=log,
        )
    return log


class TestRoundTrip:
    def test_write_creates_three_tables(self, telemetry, tmp_path):
        day = write_archive_day(telemetry, tmp_path / "2026-07-07")
        assert day.video_sent.exists()
        assert day.video_acked.exists()
        assert day.client_buffer.exists()

    def test_round_trip_preserves_rows(self, telemetry, tmp_path):
        write_archive_day(telemetry, tmp_path)
        loaded = load_archive_day(tmp_path)
        assert len(loaded.video_sent) == len(telemetry.video_sent)
        assert len(loaded.video_acked) == len(telemetry.video_acked)
        assert len(loaded.client_buffer) == len(telemetry.client_buffer)

    def test_round_trip_preserves_values(self, telemetry, tmp_path):
        write_archive_day(telemetry, tmp_path)
        loaded = load_archive_day(tmp_path)
        original = telemetry.video_sent[0]
        restored = loaded.video_sent[0]
        assert restored.time == pytest.approx(original.time)
        assert restored.size == pytest.approx(original.size)
        assert restored.delivery_rate == pytest.approx(original.delivery_rate)
        assert restored.stream_id == original.stream_id

    def test_missing_table_rejected(self, telemetry, tmp_path):
        day = write_archive_day(telemetry, tmp_path)
        day.video_acked.unlink()
        with pytest.raises(FileNotFoundError):
            load_archive_day(tmp_path)

    def test_wrong_columns_rejected(self, telemetry, tmp_path):
        day = write_archive_day(telemetry, tmp_path)
        day.video_sent.write_text("bogus,columns\n1,2\n")
        with pytest.raises(ValueError, match="unexpected columns"):
            load_archive_day(tmp_path)

    def test_buffer_events_survive(self, telemetry, tmp_path):
        write_archive_day(telemetry, tmp_path)
        loaded = load_archive_day(tmp_path)
        events = {r.event for r in loaded.client_buffer}
        assert events == {r.event for r in telemetry.client_buffer}


class TestReconstruction:
    def test_streams_split_correctly(self, telemetry):
        streams = reconstruct_streams(telemetry)
        assert set(streams) == {1, 2}
        assert streams[1].expt_id == 11
        assert streams[2].expt_id == 12

    def test_transmission_times_positive(self, telemetry):
        streams = reconstruct_streams(telemetry)
        for stream in streams.values():
            assert stream.n_chunks_acked > 0
            assert all(
                t > 0 for t in stream.chunk_transmission_times.values()
            )

    def test_throughputs_reflect_path_speed(self, telemetry):
        streams = reconstruct_streams(telemetry)
        fast = np.median(streams[1].observed_throughputs_bps())
        slow = np.median(streams[2].observed_throughputs_bps())
        assert fast > slow

    def test_stall_totals_from_client_buffer(self, telemetry):
        streams = reconstruct_streams(telemetry)
        # The slow stream (0.8 Mbit/s base) may stall; stalls must be
        # non-negative and finite either way.
        for stream in streams.values():
            assert stream.total_stall_s >= 0.0

    def test_reconstruction_after_round_trip(self, telemetry, tmp_path):
        write_archive_day(telemetry, tmp_path)
        loaded = load_archive_day(tmp_path)
        original = reconstruct_streams(telemetry)
        restored = reconstruct_streams(loaded)
        assert set(original) == set(restored)
        for stream_id in original:
            a = original[stream_id].chunk_transmission_times
            b = restored[stream_id].chunk_transmission_times
            assert set(a) == set(b)
            for chunk in a:
                assert a[chunk] == pytest.approx(b[chunk])


class TestArchiveAppender:
    """Incremental (open-once) writing must reproduce the batch writer's
    bytes, and offsets/truncation must roll back uncommitted rows."""

    def _halves(self, telemetry):
        first, second = TelemetryLog(), TelemetryLog()
        for source, sinks in (
            (telemetry.video_sent, (first.video_sent, second.video_sent)),
            (telemetry.video_acked, (first.video_acked, second.video_acked)),
            (
                telemetry.client_buffer,
                (first.client_buffer, second.client_buffer),
            ),
        ):
            half = len(source) // 2
            sinks[0].extend(source[:half])
            sinks[1].extend(source[half:])
        return first, second

    def test_appending_matches_batch_writer(self, telemetry, tmp_path):
        from repro.data import ArchiveAppender

        batch_dir = tmp_path / "batch"
        stream_dir = tmp_path / "stream"
        day = write_archive_day(telemetry, batch_dir)
        first, second = self._halves(telemetry)
        with ArchiveAppender(stream_dir) as appender:
            appender.append(first)
            appender.flush()
            appender.append(second)
        streamed = ArchiveDay.in_directory(stream_dir)
        assert streamed.video_sent.read_bytes() == day.video_sent.read_bytes()
        assert (
            streamed.video_acked.read_bytes() == day.video_acked.read_bytes()
        )
        assert (
            streamed.client_buffer.read_bytes()
            == day.client_buffer.read_bytes()
        )

    def test_reopen_appends_without_duplicate_header(
        self, telemetry, tmp_path
    ):
        from repro.data import ArchiveAppender

        first, second = self._halves(telemetry)
        with ArchiveAppender(tmp_path) as appender:
            appender.append(first)
        with ArchiveAppender(tmp_path) as appender:
            appender.append(second)
        loaded = load_archive_day(tmp_path)
        assert len(loaded.video_sent) == len(telemetry.video_sent)
        header = ArchiveDay.in_directory(tmp_path).video_sent.read_text()
        assert header.count("time,stream_id") == 1

    def test_truncate_to_discards_uncommitted_rows(self, telemetry, tmp_path):
        from repro.data import ArchiveAppender

        first, second = self._halves(telemetry)
        with ArchiveAppender(tmp_path) as appender:
            appender.append(first)
            durable = appender.offsets()
            appender.append(second)  # crashes before the next checkpoint…
        with ArchiveAppender(tmp_path) as appender:
            appender.truncate_to(durable)  # …so resume rolls these back
            assert appender.offsets() == durable
        loaded = load_archive_day(tmp_path)
        assert len(loaded.video_sent) == len(first.video_sent)
        assert len(loaded.video_acked) == len(first.video_acked)
        assert len(loaded.client_buffer) == len(first.client_buffer)

    def test_truncate_requires_every_table(self, tmp_path):
        from repro.data import ArchiveAppender

        with ArchiveAppender(tmp_path) as appender:
            with pytest.raises(ValueError, match="no stored offset"):
                appender.truncate_to({"video_sent": 0})

    def test_offsets_reflect_flushed_bytes(self, telemetry, tmp_path):
        from repro.data import ArchiveAppender

        with ArchiveAppender(tmp_path) as appender:
            before = appender.offsets()
            appender.append(telemetry)
            after = appender.offsets()
        day = ArchiveDay.in_directory(tmp_path)
        assert after["video_sent"] == day.video_sent.stat().st_size
        assert all(after[k] >= before[k] for k in before)


class TestWhatTheDayCloseReads:
    """``ArchiveAppender.reconstruct_streams`` — the retrain service's
    per-day read — decodes ``video_sent`` and ``video_acked`` only: the
    trainer's join never looks at ``client_buffer``."""

    def test_garbage_client_buffer_rows_change_nothing(
        self, telemetry, tmp_path
    ):
        from repro.data import ArchiveAppender

        with ArchiveAppender(tmp_path) as appender:
            start = appender.offsets()
            appender.append(telemetry)
            end = appender.offsets()
            streams = appender.reconstruct_streams(start, end)
        path = ArchiveDay.in_directory(tmp_path).client_buffer
        data = bytearray(path.read_bytes())
        lo, hi = start["client_buffer"], end["client_buffer"]
        assert hi - lo > 100
        data[lo:hi] = (b"\x00garbage,\xff\r\n" * (hi - lo))[: hi - lo]
        path.write_bytes(bytes(data))
        with ArchiveAppender(tmp_path) as appender:
            assert appender.reconstruct_streams(start, end) == streams
            with pytest.raises(ArchiveError, match="client_buffer"):
                appender.read_slice(start, end)
        assert [s.stream_id for s in streams] == [1, 2]
        assert sum(len(s.records) for s in streams) == len(
            telemetry.video_acked
        )


class TestTolerantReconstruction:
    """reconstruct_streams must survive the row-ordering hazards of a
    streamed archive: shuffled acks, duplicates, orphans, clock skew."""

    def test_ack_order_is_irrelevant(self, telemetry):
        reference = reconstruct_streams(telemetry)
        rng = np.random.default_rng(0)
        shuffled = TelemetryLog()
        shuffled.video_sent.extend(telemetry.video_sent)
        shuffled.client_buffer.extend(telemetry.client_buffer)
        acks = list(telemetry.video_acked)
        rng.shuffle(acks)
        shuffled.video_acked.extend(acks)
        result = reconstruct_streams(shuffled)
        assert set(result) == set(reference)
        for stream_id in reference:
            assert (
                result[stream_id].chunk_transmission_times
                == reference[stream_id].chunk_transmission_times
            )

    def test_duplicate_acks_keep_earliest(self, telemetry):
        from dataclasses import replace

        reference = reconstruct_streams(telemetry)
        noisy = TelemetryLog()
        noisy.video_sent.extend(telemetry.video_sent)
        noisy.client_buffer.extend(telemetry.client_buffer)
        noisy.video_acked.extend(telemetry.video_acked)
        # Re-ack every chunk 5 seconds later (a retransmitted ack).
        for ack in telemetry.video_acked:
            noisy.video_acked.append(replace(ack, time=ack.time + 5.0))
        result = reconstruct_streams(noisy)
        for stream_id in reference:
            assert (
                result[stream_id].chunk_transmission_times
                == reference[stream_id].chunk_transmission_times
            )

    def test_orphan_acks_dropped(self, telemetry):
        from dataclasses import replace

        reference = reconstruct_streams(telemetry)
        noisy = TelemetryLog()
        noisy.video_sent.extend(telemetry.video_sent)
        noisy.client_buffer.extend(telemetry.client_buffer)
        noisy.video_acked.extend(telemetry.video_acked)
        # Acks for chunks that were never sent (viewer left mid-delivery).
        template = telemetry.video_acked[0]
        noisy.video_acked.append(replace(template, chunk_index=10_000))
        noisy.video_acked.append(
            replace(template, stream_id=999, chunk_index=0)
        )
        result = reconstruct_streams(noisy)
        assert set(result) == set(reference)
        for stream_id in reference:
            assert (
                result[stream_id].n_chunks_acked
                == reference[stream_id].n_chunks_acked
            )

    def test_acks_before_send_dropped(self, telemetry):
        from dataclasses import replace

        reference = reconstruct_streams(telemetry)
        noisy = TelemetryLog()
        noisy.video_sent.extend(telemetry.video_sent)
        noisy.client_buffer.extend(telemetry.client_buffer)
        # Corrupt every ack to predate its send: all must be dropped…
        for ack in telemetry.video_acked:
            noisy.video_acked.append(replace(ack, time=-1.0))
        result = reconstruct_streams(noisy)
        for stream in result.values():
            assert stream.n_chunks_acked == 0
        # …without corrupting a clean reconstruction run afterwards.
        assert reconstruct_streams(telemetry) == reference


def _cut_mid_field(row):
    # Inside the row's last field, as a crash mid-append leaves it: the
    # field loses its last character (the rest would parse) and the row its
    # terminator.
    assert len(row.rstrip(b"\r\n").rsplit(b",", 1)[1]) >= 2
    return row.rstrip(b"\r\n")[:-1]


TEARS = {
    "cut mid-field": _cut_mid_field,
    "terminator dropped": lambda row: row.rstrip(b"\r\n"),
    "field missing": lambda row: row.rstrip(b"\r\n").rsplit(b",", 1)[0]
    + b"\r\n",
    "extra field": lambda row: row.rstrip(b"\r\n") + b",1\r\n",
}


def _header_offsets(day):
    return {
        name: len(path.read_bytes().split(b"\n", 1)[0]) + 1
        for name, path, _ in day.tables()
    }


READERS = {
    "load_archive_day": lambda day: load_archive_day(day.directory),
    "read_telemetry_slice": lambda day: read_telemetry_slice(
        day.directory, _header_offsets(day)
    ),
}


class TestTornRows:
    """A table whose last row was torn raises ArchiveError naming the file,
    the row's byte offset and the remedy; it never loads a wrong value."""

    def test_archive_error_is_a_value_error(self):
        assert issubclass(ArchiveError, ValueError)

    @pytest.mark.parametrize("table", ["video_sent", "video_acked",
                                       "client_buffer"])
    @pytest.mark.parametrize("reader", sorted(READERS))
    @pytest.mark.parametrize("tear", sorted(TEARS))
    def test_torn_last_row_raises(self, telemetry, tmp_path, table, reader,
                                  tear):
        day = write_archive_day(telemetry, tmp_path)
        path = getattr(day, table)
        data = path.read_bytes()
        row_start = data.rstrip(b"\r\n").rfind(b"\n") + 1
        path.write_bytes(data[:row_start] + TEARS[tear](data[row_start:]))
        with pytest.raises(ArchiveError) as raised:
            READERS[reader](day)
        message = str(raised.value)
        assert str(path) in message
        assert f"torn row at byte {row_start}:" in message
        assert f"truncate the table to byte {row_start}" in message
        # The remedy works: cut back to the last whole row, the table loads
        # every row before the torn one.
        path.write_bytes(data[:row_start])
        assert getattr(READERS[reader](day), table) == getattr(
            telemetry, table
        )[:-1]

    def test_an_unparseable_field_names_its_row(self, telemetry, tmp_path):
        day = write_archive_day(telemetry, tmp_path)
        lines = day.video_acked.read_bytes().split(b"\r\n")
        lines[2] = b"nan?" + lines[2][lines[2].index(b","):]
        day.video_acked.write_bytes(b"\r\n".join(lines))
        offset = len(lines[0]) + len(lines[1]) + 4
        with pytest.raises(ArchiveError, match=f"torn row at byte {offset}:"):
            load_archive_day(tmp_path)

    def test_a_slice_outside_the_table_raises(self, telemetry, tmp_path):
        day = write_archive_day(telemetry, tmp_path)
        end = {name: path.stat().st_size for name, path, _ in day.tables()}
        start = _header_offsets(day)
        assert read_telemetry_slice(tmp_path, start, end).video_sent == (
            telemetry.video_sent
        )
        size = end["video_acked"]
        # Past the end, reversed, before the start of the file.
        for bad in ((start["video_acked"], size + 1), (size, size - 1),
                    (-1, size)):
            with pytest.raises(ArchiveError, match="not within the table"):
                read_telemetry_slice(
                    tmp_path, {**start, "video_acked": bad[0]},
                    {**end, "video_acked": bad[1]},
                )
        # A start past the end of the file, read to the end, is no day.
        past = {**start, "video_sent": end["video_sent"] + 1}
        with pytest.raises(ArchiveError, match="not within the table"):
            read_telemetry_slice(tmp_path, past)

"""The one archive decoder is strict: a row decodes to the values written or
raises, never to a NaN, an infinity, a truncated int or a bool.

``TableRecord.from_values`` (a CSV row, or a record being written),
``from_dict`` (parsed JSON) and the CSV reader (``from_rows`` behind
``load_archive_day`` / ``read_telemetry_slice``) share the rules, and the
reader's ``ArchiveError`` names the file, the row's byte offset and the
column.
"""

import numpy as np
import pytest

from repro.data import ArchiveError, load_archive_day, write_archive_day
from repro.net.tcp import TcpInfo
from repro.streaming.telemetry import (
    TABLES,
    BufferEvent,
    ClientBufferRecord,
    TelemetryLog,
    VideoAckedRecord,
    VideoSentRecord,
)

RECORDS = dict(TABLES)
INFO = TcpInfo(cwnd=20.0, in_flight=5.0, min_rtt=0.04, rtt=0.05,
               delivery_rate=5e6)


def good_record(table):
    if table == "video_sent":
        return VideoSentRecord.from_send(1.5, 3, 0, 7, 1.2e5, 0.98, INFO)
    if table == "video_acked":
        return VideoAckedRecord(2.25, 3, 0, 7)
    return ClientBufferRecord(2.5, 3, 0, BufferEvent.PLAY, 4.0, 0.0)


def columns_of(kind):
    return [
        (table, name)
        for table, record in TABLES
        for name, column_kind in zip(record.columns, record._kinds)
        if column_kind == kind
    ]


FLOAT_COLUMNS = columns_of("float")
INT_COLUMNS = columns_of("int")


def with_value(table, column, value, as_text):
    data = good_record(table).to_dict()
    data[column] = value
    if as_text:
        return [str(data[name]) for name in RECORDS[table].columns]
    return data


class TestFloatColumns:
    @pytest.mark.parametrize("table,column", FLOAT_COLUMNS)
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_from_values_refuses_a_non_finite_string(self, table, column, value):
        with pytest.raises(ValueError, match=f"column '{column}'.*not finite"):
            RECORDS[table].from_values(with_value(table, column, value, True))

    @pytest.mark.parametrize("table,column", FLOAT_COLUMNS)
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_from_dict_refuses_a_non_finite_number(self, table, column, value):
        with pytest.raises(ValueError, match=f"column '{column}'.*not finite"):
            RECORDS[table].from_dict(with_value(table, column, value, False))

    @pytest.mark.parametrize("table,column", FLOAT_COLUMNS)
    def test_a_bool_is_not_a_float(self, table, column):
        with pytest.raises(ValueError, match=f"column '{column}'"):
            RECORDS[table].from_dict(with_value(table, column, True, False))

    def test_finite_floats_overflowing_a_sum_still_decode(self):
        values = ["1e308", "1", "0", "2", "1e308", "1e308", "1", "1", "1",
                  "1", "1"]
        record = VideoSentRecord.from_values(values)
        assert record.time == record.size == 1e308
        assert VideoSentRecord.from_rows([values, values]) == [record] * 2


class TestIntColumns:
    @pytest.mark.parametrize("table,column", INT_COLUMNS)
    @pytest.mark.parametrize("value", [7.5, True])
    def test_from_dict_refuses_a_non_integer(self, table, column, value):
        with pytest.raises(ValueError, match=f"column '{column}'"):
            RECORDS[table].from_dict(with_value(table, column, value, False))

    @pytest.mark.parametrize("table,column", INT_COLUMNS)
    @pytest.mark.parametrize("value", ["7.5", "True"])
    def test_from_values_refuses_a_non_integer(self, table, column, value):
        with pytest.raises(ValueError, match=f"column '{column}'"):
            RECORDS[table].from_values(with_value(table, column, value, True))

    def test_an_integral_number_decodes_to_an_int(self):
        record = VideoAckedRecord.from_dict(
            {"time": 1, "stream_id": 7.0, "expt_id": np.int64(0),
             "chunk_index": 3}
        )
        assert record == VideoAckedRecord(1.0, 7, 0, 3)
        assert [type(v) for v in record.to_dict().values()] == [
            float, int, int, int
        ]

    def test_the_reported_faults_are_refused(self):
        with pytest.raises(ValueError, match="'time'"):
            VideoAckedRecord.from_values(["nan", "1", "2", "3"])
        with pytest.raises(ValueError, match="'stream_id'"):
            VideoAckedRecord.from_dict(
                {"time": 1.0, "stream_id": 7.5, "expt_id": 0,
                 "chunk_index": True}
            )


class TestRowsAtOnce:
    @pytest.mark.parametrize("table", sorted(RECORDS))
    def test_many_rows_decode_as_each_row_does(self, table):
        record = RECORDS[table]
        rows = [
            [str(value) for value in good_record(table).to_dict().values()]
        ] * 5
        assert record.from_rows(rows) == [record.from_values(rows[0])] * 5

    @pytest.mark.parametrize("table,column", FLOAT_COLUMNS + INT_COLUMNS)
    def test_the_bad_row_is_named(self, table, column):
        record = RECORDS[table]
        good = with_value(table, column, good_record(table).to_dict()[column],
                          True)
        bad = with_value(table, column, "nan", True)
        with pytest.raises(ValueError, match=f"column '{column}'") as raised:
            record.from_rows([good, good, bad, good])
        assert raised.value.row == 2


    def test_the_first_of_two_bad_rows_is_named(self):
        good = [str(v) for v in good_record("video_acked").to_dict().values()]
        rows = [list(good) for _ in range(60)]
        rows[50][0] = "nan"
        rows[2][3] = "7.5"
        with pytest.raises(ValueError, match="column 'chunk_index'") as raised:
            VideoAckedRecord.from_rows(rows)
        assert raised.value.row == 2

    def test_a_bad_value_before_a_bad_count_is_named(self):
        good = [str(v) for v in good_record("video_acked").to_dict().values()]
        rows = [list(good) for _ in range(120)]
        rows[100].append("1")
        rows[3][0] = "nan"
        with pytest.raises(ValueError, match="column 'time'") as raised:
            VideoAckedRecord.from_rows(rows)
        assert raised.value.row == 3


class TestTheReader:
    @pytest.mark.parametrize("table,column", FLOAT_COLUMNS + INT_COLUMNS)
    def test_a_bad_field_names_file_offset_and_column(self, tmp_path, table,
                                                      column):
        log = TelemetryLog()
        for name in RECORDS:
            getattr(log, name).extend([good_record(name)] * 3)
        day = write_archive_day(log, tmp_path)
        path = getattr(day, table)
        lines = path.read_bytes().split(b"\r\n")
        position = RECORDS[table].columns.index(column)
        fields = lines[2].split(b",")
        fields[position] = b"nan" if (table, column) in FLOAT_COLUMNS else b"7.5"
        lines[2] = b",".join(fields)
        path.write_bytes(b"\r\n".join(lines))
        offset = len(lines[0]) + len(lines[1]) + 4
        with pytest.raises(ArchiveError) as raised:
            load_archive_day(tmp_path)
        message = str(raised.value)
        assert str(path) in message
        assert f"at byte {offset}:" in message
        assert f"column '{column}'" in message

    def test_the_earlier_of_two_faults_names_the_offset(self, tmp_path):
        log = TelemetryLog()
        log.video_acked.extend([good_record("video_acked")] * 6)
        day = write_archive_day(log, tmp_path)
        lines = day.video_acked.read_bytes().split(b"\r\n")
        lines[2] = lines[2].replace(b"2.25,", b"nan,")
        lines[5] = lines[5] + b",1"
        day.video_acked.write_bytes(b"\r\n".join(lines))
        offset = len(lines[0]) + len(lines[1]) + 4
        with pytest.raises(ArchiveError, match=f"at byte {offset}:.*'time'"):
            load_archive_day(tmp_path)

    def test_archive_bytes_are_unchanged(self, tmp_path):
        log = TelemetryLog()
        for name in RECORDS:
            getattr(log, name).extend([good_record(name)] * 3)
        day = write_archive_day(log, tmp_path)
        assert day.video_acked.read_bytes() == (
            b"time,stream_id,expt_id,chunk_index\r\n" + b"2.25,3,0,7\r\n" * 3
        )
        assert load_archive_day(tmp_path).video_sent == log.video_sent


class TestFieldCount:
    @pytest.mark.parametrize("table", sorted(RECORDS))
    @pytest.mark.parametrize("change", [-1, 1])
    def test_one_field_too_few_or_too_many(self, table, change):
        record = RECORDS[table]
        row = [str(v) for v in good_record(table).to_dict().values()]
        row = row[:-1] if change < 0 else row + ["1"]
        with pytest.raises(ValueError, match=f"{len(row)} fields, expected"):
            record.from_values(row)
        with pytest.raises(ValueError, match=f"{len(row)} fields, expected"):
            record.from_rows([row, row])

"""``repro.atomio``: every write is atomic, fsynced and passes its crash points."""

import os
import stat

import pytest

from repro import atomio, crashpoints


@pytest.fixture(autouse=True)
def _clean_crashpoint_state(monkeypatch):
    monkeypatch.delenv(crashpoints.ENV_CRASHPOINT, raising=False)
    monkeypatch.delenv(crashpoints.ENV_CRASHPOINT_LOG, raising=False)
    crashpoints.reset()
    yield
    crashpoints.reset()


def test_write_bytes_replaces_the_target_and_leaves_no_tmp(tmp_path):
    target = tmp_path / "out.bin"
    target.write_bytes(b"old")
    atomio.atomic_write_bytes(target, b"new\x00bytes")
    assert target.read_bytes() == b"new\x00bytes"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.bin"]


def test_write_text_is_utf8_without_newline_translation(tmp_path):
    target = tmp_path / "out.txt"
    atomio.atomic_write_text(str(target), "µ\r\nline\n")
    assert target.read_bytes() == "µ\r\nline\n".encode("utf-8")


def test_every_write_fsyncs_the_file_and_its_directory(tmp_path, monkeypatch):
    synced = []
    real_fsync = os.fsync

    def recording_fsync(fd):
        synced.append(stat.S_ISDIR(os.fstat(fd).st_mode))
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    atomio.atomic_write_text(tmp_path / "a.json", "{}\n")
    atomio.atomic_write_bytes(tmp_path / "b.csv", b"x\n")
    # Per write: the tmp file first, then the parent directory.
    assert synced == [False, True, False, True]


def test_every_write_passes_its_three_crash_points(tmp_path):
    log = tmp_path / "points.log"
    crashpoints.configure(target=None, log_path=str(log))
    atomio.atomic_write_text(tmp_path / "sub.json", "{}\n")
    assert log.read_text() == (
        "1 atomio.begin:sub.json\n"
        "2 atomio.pre-rename:sub.json\n"
        "3 atomio.post-rename:sub.json\n"
    )


@pytest.mark.parametrize("keyword", ["durable", "encoding"])
def test_there_is_no_non_durable_or_re_encoding_variant(tmp_path, keyword):
    with pytest.raises(TypeError):
        atomio.atomic_write_text(tmp_path / "x.txt", "x", **{keyword: None})
    assert not (tmp_path / "x.txt").exists()

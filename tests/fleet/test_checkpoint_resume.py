"""Crash-safety tests (satellite d of PR 4): kill a fleet run mid-flight,
resume from the surviving checkpoint, and demand a *byte-identical*
metrics dump and open-data archive.

Two layers:

* in-process: ``stop_after_sessions`` pauses at chosen cut points (a
  deterministic stand-in for SIGKILL that exercises the identical resume
  path), across worker counts;
* out-of-process: a real ``SIGKILL`` delivered to a ``repro fleet run``
  subprocess at a randomized moment, then ``repro fleet resume``.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.fleet import CheckpointError, FleetConfig, WorkloadConfig, run_fleet
from repro.fleet.checkpoint import (
    CheckpointManager,
    FleetCheckpoint,
    config_fingerprint,
)
from repro.fleet.sinks import FleetSink


def dump_bytes(result):
    return json.dumps(result.to_dump_dict(), sort_keys=True)


class TestCheckpointManager:
    def test_save_load_round_trip(self, tmp_path):
        manager = CheckpointManager(str(tmp_path / "ckpt.json"))
        assert not manager.exists()
        sink = FleetSink()
        sink.sessions = 7
        checkpoint = FleetCheckpoint(
            fingerprint="abc", next_session_id=7, sink=sink,
            archive_offsets={"video_sent": 123}, cli_args={"days": 1.0},
        )
        manager.save(checkpoint)
        assert manager.exists()
        loaded = manager.load(expected_fingerprint="abc")
        assert loaded.next_session_id == 7
        assert loaded.sink.sessions == 7
        assert loaded.archive_offsets == {"video_sent": 123}
        assert loaded.cli_args == {"days": 1.0}
        assert not loaded.completed

    def test_fingerprint_mismatch_refused(self, tmp_path):
        manager = CheckpointManager(str(tmp_path / "ckpt.json"))
        manager.save(
            FleetCheckpoint(
                fingerprint="abc", next_session_id=0, sink=FleetSink()
            )
        )
        with pytest.raises(CheckpointError):
            manager.load(expected_fingerprint="different")

    def test_corrupt_checkpoint_detected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text("{not json")
        with pytest.raises(CheckpointError):
            CheckpointManager(str(path)).load()

    def test_missing_checkpoint_raises_filenotfound(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            CheckpointManager(str(tmp_path / "absent.json")).load()

    def test_wrong_schema_version_refused(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps({"schema_version": 999}))
        with pytest.raises(CheckpointError):
            CheckpointManager(str(path)).load()

    @pytest.mark.parametrize(
        "text",
        [
            "[]",
            '"a string"',
            '{"schema_version": 1}',
            '{"schema_version": "x"}',
            '{"schema_version": 1, "fingerprint": "abc", '
            '"next_session_id": "seven", "sink": {}}',
            '{"schema_version": 1, "fingerprint": "abc", '
            '"next_session_id": 7, "sink": []}',
            '{"schema_version": 1, "fingerprint": "abc", '
            '"next_session_id": 7, "sink": {"sessions": "many"}}',
            '{"schema_version": 1, "fingerprint": "abc", '
            '"next_session_id": 7, "sink": {}, "archive_offsets": [1]}',
        ],
        ids=[
            "list", "string", "missing-fields", "bad-version",
            "bad-session-id", "sink-list", "bad-sink", "bad-offsets",
        ],
    )
    def test_well_formed_json_of_the_wrong_shape_is_a_typed_error(
        self, tmp_path, text
    ):
        # Valid JSON is not a valid checkpoint: every such file must
        # surface as CheckpointError naming the file and the remedy, never
        # as a bare AttributeError/KeyError/ValueError from the loader.
        path = tmp_path / "ckpt.json"
        path.write_text(text)
        with pytest.raises(CheckpointError) as err:
            CheckpointManager(str(path)).load()
        assert str(path) in str(err.value)
        assert "delete" in str(err.value)

    def test_save_leaves_no_tmp_file(self, tmp_path):
        manager = CheckpointManager(str(tmp_path / "ckpt.json"))
        manager.save(
            FleetCheckpoint(
                fingerprint="abc", next_session_id=0, sink=FleetSink()
            )
        )
        assert not os.path.exists(str(tmp_path / "ckpt.json.tmp"))

    def test_fingerprint_sensitive_to_every_part(self):
        base = config_fingerprint({"a": 1}, ["x"])
        assert config_fingerprint({"a": 2}, ["x"]) != base
        assert config_fingerprint({"a": 1}, ["y"]) != base
        assert config_fingerprint({"a": 1}, ["x"]) == base


class TestInProcessResume:
    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        from .conftest import classical_specs

        from repro.experiment.presets import smoke_trial_config

        config = FleetConfig(
            workload=WorkloadConfig(
                days=0.02, sessions_per_hour=80.0, seed=5
            ),
            trial=smoke_trial_config(seed=11),
            chunk_sessions=8,
        )
        archive = tmp_path_factory.mktemp("reference") / "archive"
        result = run_fleet(
            classical_specs(), config, workers=1, archive_dir=str(archive)
        )
        return config, result, archive

    @pytest.mark.parametrize(
        "cut,workers_before,workers_after",
        [(8, 1, 1), (17, 2, 1), (30, 1, 2)],
    )
    def test_pause_resume_byte_identical(
        self, reference, tmp_path, cut, workers_before, workers_after
    ):
        from .conftest import classical_specs

        config, expected, expected_archive = reference
        ckpt = str(tmp_path / "ckpt.json")
        archive = tmp_path / "archive"
        partial = run_fleet(
            classical_specs(), config, workers=workers_before,
            checkpoint_path=ckpt, archive_dir=str(archive),
            stop_after_sessions=cut,
        )
        assert not partial.completed
        resumed = run_fleet(
            classical_specs(), config, workers=workers_after,
            checkpoint_path=ckpt, archive_dir=str(archive), resume=True,
        )
        assert resumed.completed
        assert dump_bytes(resumed) == dump_bytes(expected)
        for name in ("video_sent.csv", "video_acked.csv",
                     "client_buffer.csv"):
            assert (archive / name).read_bytes() == (
                expected_archive / name
            ).read_bytes()

    def test_resume_refused_under_different_config(
        self, reference, tmp_path
    ):
        from dataclasses import replace

        from .conftest import classical_specs

        config, _, _ = reference
        ckpt = str(tmp_path / "ckpt.json")
        run_fleet(
            classical_specs(), config, checkpoint_path=ckpt,
            stop_after_sessions=8,
        )
        changed = replace(
            config, workload=replace(config.workload, seed=999)
        )
        with pytest.raises(CheckpointError):
            run_fleet(
                classical_specs(), changed, checkpoint_path=ckpt,
                resume=True,
            )

    def test_resume_of_completed_run_is_idempotent(
        self, reference, tmp_path
    ):
        from .conftest import classical_specs

        config, expected, _ = reference
        ckpt = str(tmp_path / "ckpt.json")
        first = run_fleet(classical_specs(), config, checkpoint_path=ckpt)
        again = run_fleet(
            classical_specs(), config, checkpoint_path=ckpt, resume=True
        )
        assert again.completed
        assert dump_bytes(again) == dump_bytes(first) == dump_bytes(expected)

    def test_fresh_start_ignores_missing_checkpoint(
        self, reference, tmp_path
    ):
        from .conftest import classical_specs

        config, expected, _ = reference
        result = run_fleet(
            classical_specs(), config,
            checkpoint_path=str(tmp_path / "new.json"), resume=True,
        )
        assert dump_bytes(result) == dump_bytes(expected)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_chunk_closes_the_archive_and_resume_recovers(
        self, reference, tmp_path, monkeypatch, workers
    ):
        # A scheme whose ``choose`` raises mid-run (in-process and in a
        # pool worker): the exception propagates, the driver closes the
        # archive it owns on the way out, and resuming with the working
        # scheme reproduces the reference dump and archive.
        from dataclasses import replace

        from repro.abr.bba import BBA
        from repro.data.archive import ArchiveAppender
        from repro.fleet import runner

        from .conftest import classical_specs

        class FlakyBBA(BBA):
            """BBA, until its ninth stream in this process."""

            streams = 0

            def begin_stream(self):
                self.streams += 1
                super().begin_stream()

            def choose(self, context):
                if self.streams > 8:
                    raise RuntimeError("scheme crashed")
                return super().choose(context)

        handles = []

        class SpyAppender(ArchiveAppender):
            def __init__(self, directory):
                super().__init__(directory)
                handles.extend(self._files.values())

        monkeypatch.setattr(runner, "ArchiveAppender", SpyAppender)
        config, expected, expected_archive = reference
        specs = classical_specs()
        ckpt = str(tmp_path / "ckpt.json")
        archive = tmp_path / "archive"
        with pytest.raises(RuntimeError, match="scheme crashed"):
            run_fleet(
                [replace(specs[0], factory=FlakyBBA), specs[1]],
                replace(config, chunk_sessions=4), workers=workers,
                checkpoint_path=ckpt, archive_dir=str(archive),
            )
        assert len(handles) == 3 and all(h.closed for h in handles)
        if workers == 1:  # in-process, the failure point is deterministic
            assert 0 < CheckpointManager(ckpt).load().next_session_id < 35

        resumed = run_fleet(
            specs, config, workers=workers, checkpoint_path=ckpt,
            archive_dir=str(archive), resume=True,
        )
        assert resumed.completed
        assert all(h.closed for h in handles)
        assert dump_bytes(resumed) == dump_bytes(expected)
        for name in ("video_sent.csv", "video_acked.csv",
                     "client_buffer.csv"):
            assert (archive / name).read_bytes() == (
                expected_archive / name
            ).read_bytes()


@pytest.mark.parallel_smoke
class TestSigkillResume:
    """A real kill -9 delivered to the CLI mid-run, then CLI resume."""

    CLI = [
        "fleet", "run",
        "--days", "0.02", "--rate", "80", "--seed", "5",
        "--trial-seed", "11", "--chunk-size", "4",
    ]

    def _run_cli(self, args, cwd):
        env = dict(os.environ)
        src = os.path.join(os.getcwd(), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-m", "repro", *args],
            cwd=cwd, env=env, capture_output=True, text=True,
        )

    def test_sigkill_then_resume_byte_identical(self, tmp_path):
        # Reference: one uninterrupted CLI run.
        ref_dir = tmp_path / "ref"
        ref_dir.mkdir()
        completed = self._run_cli(
            self.CLI + [
                "--archive-dir", str(ref_dir / "archive"),
                "--out", str(ref_dir / "dump.json"),
            ],
            cwd=str(tmp_path),
        )
        assert completed.returncode == 0, completed.stderr

        # Victim: same run with a checkpoint, killed without warning.
        victim_dir = tmp_path / "victim"
        victim_dir.mkdir()
        ckpt = str(victim_dir / "ckpt.json")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(os.getcwd(), "src") + os.pathsep + (
            env.get("PYTHONPATH", "")
        )
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", *self.CLI,
                "--checkpoint", ckpt,
                "--archive-dir", str(victim_dir / "archive"),
            ],
            cwd=str(tmp_path), env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        # Let it commit a few chunks, then kill -9 mid-run.  The trigger is
        # state-based (checkpointed progress), not a fixed sleep, so the
        # kill lands mid-run on fast and slow machines alike; checkpoint
        # saves are atomic (tmp + os.replace), so reads see whole files.
        deadline = time.time() + 30.0
        while time.time() < deadline:
            try:
                with open(ckpt) as f:
                    snapshot = json.load(f)
            except (FileNotFoundError, ValueError):
                snapshot = None
            if snapshot is not None and snapshot["next_session_id"] >= 8:
                break
            time.sleep(0.02)
        process.kill()
        process.wait(timeout=30)
        assert os.path.exists(ckpt), "run was killed before any checkpoint"

        checkpoint = json.loads(open(ckpt).read())
        assert not checkpoint["completed"]
        assert checkpoint["next_session_id"] > 0

        # Resume from the surviving checkpoint via the CLI.
        resumed = self._run_cli(
            [
                "fleet", "resume", "--checkpoint", ckpt, "--workers", "2",
                "--out", str(victim_dir / "dump.json"),
            ],
            cwd=str(tmp_path),
        )
        assert resumed.returncode == 0, resumed.stderr

        assert (victim_dir / "dump.json").read_bytes() == (
            ref_dir / "dump.json"
        ).read_bytes()
        for name in ("video_sent.csv", "video_acked.csv",
                     "client_buffer.csv"):
            assert (victim_dir / "archive" / name).read_bytes() == (
                ref_dir / "archive" / name
            ).read_bytes()


class TestResumeOfOlderCheckpoint:
    """``repro fleet resume`` rebuilds the run from the checkpoint's stored
    ``cli_args`` over the parser's defaults: a key a later version no
    longer has is ignored, and a flag added after the checkpoint was
    written takes its default."""

    CLI = [
        "--days", "0.02", "--rate", "80", "--seed", "5",
        "--trial-seed", "11", "--chunk-size", "4",
    ]

    def _resume_edited(self, tmp_path, edit, cli=CLI, command="run"):
        """An uninterrupted run's dump and the dump of the same run
        paused, its stored ``cli_args`` edited, and resumed."""
        from repro.__main__ import main

        def argv(name):
            if command == "run":
                return ["fleet", "run", *cli]
            return [
                "fleet", "retrain", *cli,
                "--archive-dir", str(tmp_path / f"{name}-archive"),
                "--registry", str(tmp_path / f"{name}-registry"),
            ]

        reference = tmp_path / "reference.json"
        assert main([*argv("reference"), "--out", str(reference)]) == 0

        ckpt = tmp_path / "ckpt.json"
        assert main([
            *argv("paused"), "--checkpoint", str(ckpt), "--stop-after", "12",
        ]) == 0
        stored = json.loads(ckpt.read_text())
        assert not stored["completed"]
        edit(stored["cli_args"])
        ckpt.write_text(json.dumps(stored, sort_keys=True) + "\n")

        resumed = tmp_path / "resumed.json"
        assert main([
            "fleet", "resume", "--checkpoint", str(ckpt),
            "--out", str(resumed),
        ]) == 0
        return reference.read_bytes(), resumed.read_bytes()

    def test_stored_batch_lanes_and_executor_are_ignored(self, tmp_path):
        def add_retired_keys(cli_args):
            # Every checkpoint written while the fleet had an executor
            # knob (and, before that, a lockstep width) carries them.
            assert not {"batch_lanes", "executor"} & set(cli_args)
            cli_args["batch_lanes"] = 64
            cli_args["executor"] = "batch"

        reference, resumed = self._resume_edited(tmp_path, add_retired_keys)
        assert resumed == reference

    def test_checkpoint_without_edge_flags_resumes_with_parser_defaults(
        self, tmp_path
    ):
        edge_keys = {
            "cell_dist", "cell_capacity_bps", "cache_chunks", "zipf_alpha",
            "edge_seed",
        }

        def drop_edge_keys(cli_args):
            # A checkpoint written before the edge-tier flags existed.
            assert edge_keys <= set(cli_args)
            for key in edge_keys:
                del cli_args[key]

        # With cells on, the five defaults shape every session.
        reference, resumed = self._resume_edited(
            tmp_path, drop_edge_keys, cli=[*self.CLI, "--cells", "3"]
        )
        assert resumed == reference

    def test_retrain_checkpoint_with_the_edge_flags_resumes(self, tmp_path):
        # ``fleet retrain`` once took the six edge-tier flags and ignored
        # them, so its checkpoints recorded them (here as
        # ``--zipf-alpha 9 --cell-dist fixed --edge-seed 3`` would have).
        def add_edge_keys(cli_args):
            assert cli_args["mode"] == "retrain"
            assert "cells" not in cli_args
            cli_args.update(
                cells=None, cell_dist="fixed", cell_capacity_bps=60e6,
                cache_chunks=256, zipf_alpha=9.0, edge_seed=3,
            )

        reference, resumed = self._resume_edited(
            tmp_path, add_edge_keys, command="retrain"
        )
        assert resumed == reference

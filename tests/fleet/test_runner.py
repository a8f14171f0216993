"""Tests for repro.fleet.runner — the deployment driver.

Acceptance bar (ISSUE 4): the canonical metrics dump is *byte-identical*
at any worker count and any chunk size, and a fleet run streaming the
open-data archive produces the same CSV bytes serially and in parallel.
"""

import ast
import dataclasses
import json
import os
from pathlib import Path

import pytest

from repro.fleet import FleetConfig, WorkloadConfig, run_fleet
from repro.fleet.checkpoint import CheckpointManager
from repro.fleet.runner import format_sink_table


def dump_bytes(result):
    return json.dumps(result.to_dump_dict(), sort_keys=True)


@pytest.fixture(scope="module")
def reference():
    """One serial reference run, shared across the byte-identity and
    accounting tests (the config matches ``tiny_fleet_config``)."""
    from repro.experiment.presets import smoke_trial_config

    from .conftest import classical_specs

    config = FleetConfig(
        workload=WorkloadConfig(days=0.02, sessions_per_hour=80.0, seed=5),
        trial=smoke_trial_config(seed=11),
        chunk_sessions=8,
    )
    return run_fleet(classical_specs(), config, workers=1)


class TestValidation:
    def test_rejects_empty_specs(self, tiny_fleet_config):
        with pytest.raises(ValueError):
            run_fleet([], tiny_fleet_config)

    def test_rejects_duplicate_scheme_names(self, specs, tiny_fleet_config):
        with pytest.raises(ValueError):
            run_fleet(specs + [specs[0]], tiny_fleet_config)

    def test_rejects_bad_workers(self, specs, tiny_fleet_config):
        with pytest.raises(ValueError):
            run_fleet(specs, tiny_fleet_config, workers=0)

    def test_rejects_bad_chunk_size(self):
        with pytest.raises(ValueError):
            FleetConfig(chunk_sessions=0)

    def test_rejects_bad_stop_after(self, specs, tiny_fleet_config):
        with pytest.raises(ValueError):
            run_fleet(specs, tiny_fleet_config, stop_after_sessions=0)


class TestByteIdentity:
    def test_parallel_matches_serial(self, specs, tiny_fleet_config, reference):
        parallel = run_fleet(specs, tiny_fleet_config, workers=3)
        assert dump_bytes(reference) == dump_bytes(parallel)
        assert reference.completed and parallel.completed

    def test_chunk_size_is_irrelevant(
        self, specs, tiny_fleet_config, reference
    ):
        from dataclasses import replace

        b = run_fleet(
            specs, replace(tiny_fleet_config, chunk_sessions=3), workers=2
        )
        assert dump_bytes(reference) == dump_bytes(b)

    def test_archive_identical_serial_vs_parallel(
        self, specs, tiny_fleet_config, tmp_path
    ):
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        run_fleet(specs, tiny_fleet_config, workers=1,
                  archive_dir=str(serial_dir))
        run_fleet(specs, tiny_fleet_config, workers=2,
                  archive_dir=str(parallel_dir))
        for name in ("video_sent.csv", "video_acked.csv",
                     "client_buffer.csv"):
            assert (serial_dir / name).read_bytes() == (
                parallel_dir / name
            ).read_bytes()
            assert (serial_dir / name).stat().st_size > 0

    def test_dump_file_round_trip(self, reference, tmp_path):
        result = reference
        path = result.dump(str(tmp_path / "dump.json"))
        with open(path) as f:
            data = json.load(f)
        assert data["schema_version"] == 1
        assert data["completed"] is True
        assert sorted(data["summaries"]) == sorted(result.scheme_names)
        from repro.fleet import FleetSink

        restored = FleetSink.from_dict(data["sink"])
        assert json.dumps(restored.to_dict(), sort_keys=True) == json.dumps(
            result.sink.to_dict(), sort_keys=True
        )


class TestAccounting:
    def test_sessions_match_workload(self, tiny_fleet_config, reference):
        from repro.fleet import WorkloadGenerator

        expected = WorkloadGenerator(tiny_fleet_config.workload).count()
        result = reference
        assert result.sink.sessions == expected
        assert result.next_session_id == expected
        assert sum(result.sink.arrivals_by_hour) == expected
        assert sum(result.sink.sessions_by_day.values()) == expected

    def test_consort_accounting_consistent(self, reference):
        result = reference
        total_assigned = 0
        for name, scheme in result.sink.schemes.items():
            excluded = (
                scheme.did_not_begin
                + scheme.watch_time_under_4s
                + scheme.slow_video_decoder
            )
            assert scheme.n_streams == scheme.streams_assigned - excluded
            total_assigned += scheme.streams_assigned
        assert total_assigned == result.sink.streams

    def test_summaries_and_table(self, reference):
        result = reference
        rows = result.summaries()
        assert [r.scheme for r in rows] == sorted(result.scheme_names)
        table = result.format_table()
        assert table == format_sink_table(result.sink)
        for name in result.scheme_names:
            assert name in table

    def test_throughput_reported(self, specs, tiny_fleet_config):
        result = run_fleet(specs, tiny_fleet_config, workers=2)
        throughput = result.throughput
        assert throughput is not None
        assert throughput.sessions == result.sink.sessions
        assert throughput.commits > 0
        assert "sessions/s" in throughput.format()

    def test_on_commit_hook_sees_monotone_progress(
        self, specs, tiny_fleet_config
    ):
        seen = []
        run_fleet(
            specs, tiny_fleet_config,
            on_commit=lambda next_id, sink: seen.append(next_id),
        )
        assert seen == sorted(seen)
        assert len(seen) > 1


class TestPause:
    def test_stop_after_sessions_pauses(
        self, specs, tiny_fleet_config, tmp_path
    ):
        ckpt = str(tmp_path / "ckpt.json")
        result = run_fleet(
            specs, tiny_fleet_config, checkpoint_path=ckpt,
            stop_after_sessions=10,
        )
        assert not result.completed
        assert result.next_session_id >= 10
        checkpoint = CheckpointManager(ckpt).load()
        assert not checkpoint.completed
        assert checkpoint.next_session_id == result.next_session_id


@pytest.mark.parametrize("workers", [1, 2])
def test_trial_and_fleet_share_one_core(
    specs, tiny_fleet_config, reference, monkeypatch, workers
):
    """The trial and the fleet are one engine: the sessions a
    ``RandomizedTrial`` simulates (at any worker count), folded through the
    fleet's fold against the fleet's arrivals, are the fleet's sink —
    exactly, not approximately."""
    from dataclasses import replace

    from repro.experiment import parallel
    from repro.experiment.harness import RandomizedTrial
    from repro.fleet.runner import _fold_session
    from repro.fleet.sinks import FleetSink
    from repro.fleet.workload import WorkloadGenerator

    arrivals = list(WorkloadGenerator(tiny_fleet_config.workload).arrivals())
    assert len(arrivals) == reference.sink.sessions

    # The fleet's fold consumes per-session shards (each carries its own
    # CONSORT counts), which the merged TrialResult no longer has: watch
    # them go by on their way into the trial's own merge.
    shards = []
    merge_shards = parallel.merge_shards

    def spying_merge(specs_, config_, expt_ids_, shards_):
        shards.extend(shards_)
        return merge_shards(specs_, config_, expt_ids_, shards_)

    monkeypatch.setattr(parallel, "merge_shards", spying_merge)
    trial = RandomizedTrial(
        specs, replace(tiny_fleet_config.trial, n_sessions=len(arrivals))
    ).run(workers=workers)
    assert trial.throughput.workers == workers
    assert [shard.session for shard in shards] == trial.sessions

    folded = FleetSink()
    for shard, arrival in zip(shards, arrivals):
        assert shard.session.session_id == arrival.session_id
        _fold_session(folded, shard, arrival)
    assert folded.to_dict() == reference.sink.to_dict()


def test_src_has_exactly_one_process_pool():
    """Structural guard: every driver runs on ``fork_map``'s pool; a second
    ``Pool(...)``/``ProcessPoolExecutor(...)`` call site anywhere in
    ``src/repro`` is a second driver."""
    root = Path(__file__).resolve().parents[2]
    sites = []
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "attr", getattr(node.func, "id", ""))
                if callee in ("Pool", "ProcessPoolExecutor"):
                    sites.append(path.relative_to(root).as_posix())
    assert sites == ["src/repro/experiment/parallel.py"]


def test_fleet_config_has_exactly_these_fields():
    """Structural guard: every ``FleetConfig`` field is a value someone can
    set independently, so an option cannot (re)appear unnoticed."""
    assert {f.name for f in dataclasses.fields(FleetConfig)} == {
        "workload", "trial", "chunk_sessions", "edge",
    }


def test_fingerprint_did_not_move_when_the_executor_knob_went(
    specs, tiny_fleet_config
):
    """``FleetConfig.fingerprint`` never covered ``executor`` (at the parent
    commit all three of its values gave this hash), so checkpoints written
    before the knob was deleted still match."""
    assert tiny_fleet_config.fingerprint(specs) == (
        "c738def833e40766be43991ca3f0c1ad6544c762fb7aec7d1312f0ceed31d693"
    )

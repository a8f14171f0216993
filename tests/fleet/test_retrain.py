"""Continual in-situ retraining: differential and crash-safety tests.

Three contracts from the PR's acceptance criteria:

* **differential** — feeding :class:`~repro.core.train.DailyRetrainer` the
  archive day-by-day (a batch replay of §4.3) produces *exactly* the
  ``state_dict`` the continual service committed for every generation — no
  tolerance, since both sides are pure functions of the archive bytes;
* **byte-identity** — the metrics dump, the model registry (every file),
  and the archive are byte-identical across worker counts and
  pause/resume cut points;
* **registry invariants** — lineage hash chaining, hash-verified loads,
  truncation of crash orphans, and the fresh-start policy.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.train import DailyRetrainer
from repro.core.ttp import TransmissionTimePredictor, TtpConfig
from repro.data.archive import (
    ArchiveAppender,
    ArchiveError,
    load_archive_day,
    read_telemetry_slice,
    reconstruct_training_streams,
)
from repro.experiment.presets import smoke_trial_config
from repro.fleet import (
    FleetConfig,
    FleetSink,
    ModelRegistry,
    RegistryError,
    RetrainConfig,
    WorkloadConfig,
    run_fleet,
    run_fleet_retrain,
)
from repro.fleet.checkpoint import (
    CheckpointManager,
    FleetCheckpoint,
    config_fingerprint,
)

from repro.streaming.telemetry import TelemetryLog, VideoAckedRecord

from .conftest import classical_specs


def retrain_config():
    """Tiny but real continual policy: 2 generations in a few seconds."""
    return RetrainConfig(
        ttp=TtpConfig(horizon=2),
        window_days=3,
        recency_decay=0.9,
        epochs_per_day=2,
        seed=0,
    )


def fleet_config():
    """Just over one simulated day, so two day boundaries close."""
    return FleetConfig(
        workload=WorkloadConfig(
            days=1.15, sessions_per_hour=3.0, seed=5
        ),
        trial=smoke_trial_config(seed=11),
        chunk_sessions=8,
    )


def dump_bytes(result):
    return json.dumps(result.to_dump_dict(), sort_keys=True)


def registry_bytes(directory):
    """Every registry file, byte-exact (the replayability surface)."""
    return {
        path.name: path.read_bytes()
        for path in sorted(Path(directory).glob("*.json"))
    }


def canonical(state_dict):
    return json.dumps(state_dict, sort_keys=True)


class TestRetrainConfig:
    def test_arm_naming(self):
        assert retrain_config().arm_name(7) == "fugu@g007"
        assert RetrainConfig(arm_prefix="ttp").arm_name(12) == "ttp@g012"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window_days": 0},
            {"recency_decay": 0.0},
            {"recency_decay": 1.5},
            {"epochs_per_day": 0},
            {"arm_prefix": ""},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetrainConfig(**kwargs)

    def test_a_zero_decay_is_refused_by_name(self):
        with pytest.raises(ValueError) as refused:
            RetrainConfig(recency_decay=0.0)
        assert str(refused.value) == (
            "RetrainConfig.recency_decay must lie in (0, 1], got 0.0"
        )


class TestModelRegistry:
    def _state(self, seed=0):
        return TransmissionTimePredictor(
            TtpConfig(horizon=1), seed=seed
        ).state_dict()

    def _commit(self, registry, day, state=None):
        return registry.commit(
            day=day,
            arm=f"fugu@g{len(registry) + 1:03d}",
            state=self._state() if state is None else state,
            window_days=[day],
            n_streams_day=3,
            n_streams_window=3,
            evaluation=[],
        )

    def test_lineage_chains_and_reloads(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        first = self._commit(registry, day=1)
        second = self._commit(registry, day=2, state=self._state(seed=1))
        assert first.parent_sha256 is None
        assert second.parent_sha256 == first.sha256

        reopened = ModelRegistry(tmp_path)
        assert reopened.generations == registry.generations
        assert canonical(
            reopened.load_predictor(1).state_dict()
        ) == canonical(self._state())

    def test_commits_are_replay_identical(self, tmp_path):
        a = ModelRegistry(tmp_path / "a")
        b = ModelRegistry(tmp_path / "b")
        self._commit(a, day=1)
        self._commit(b, day=1)
        assert registry_bytes(a.directory) == registry_bytes(b.directory)

    def test_tampered_generation_detected(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        entry = self._commit(registry, day=1)
        path = tmp_path / entry.filename
        path.write_bytes(path.read_bytes().replace(b'"day": 1', b'"day": 2'))
        with pytest.raises(RegistryError):
            registry.load_payload(1)

    def test_truncate_deletes_crash_orphans(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        self._commit(registry, day=1)
        self._commit(registry, day=2)
        # A crash between gen-file write and manifest write leaves an
        # orphan beyond the durable count.
        (tmp_path / "gen-0003.json").write_text("{}")
        registry.truncate(1)
        assert len(registry) == 1
        assert sorted(p.name for p in tmp_path.glob("gen-*.json")) == [
            "gen-0001.json"
        ]
        assert len(ModelRegistry(tmp_path)) == 1

    def test_truncate_beyond_manifest_refused(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        self._commit(registry, day=1)
        with pytest.raises(RegistryError):
            registry.truncate(2)

    def test_wrong_schema_version_refused(self, tmp_path):
        (tmp_path / "manifest.json").write_text(
            json.dumps({"schema_version": 999, "generations": []})
        )
        with pytest.raises(RegistryError):
            ModelRegistry(tmp_path)

    @pytest.mark.parametrize(
        "manifest",
        [
            [],
            "a string",
            {"schema_version": "x", "generations": []},
            {"schema_version": 1},
            {"schema_version": 1, "generations": {}},
            {"schema_version": 1, "generations": ["gen-0001.json"]},
            {"schema_version": 1, "generations": [
                {"generation": 1, "arm": "fugu@g001",
                 "filename": "gen-0001.json", "sha256": "00"},
            ]},
            {"schema_version": 1, "generations": [
                {"generation": "one", "day": 1, "arm": "fugu@g001",
                 "filename": "gen-0001.json", "sha256": "00"},
            ]},
        ],
        ids=[
            "list", "string", "bad-version", "no-generations",
            "generations-dict", "entry-not-dict", "entry-missing-day",
            "entry-bad-int",
        ],
    )
    def test_well_formed_manifest_of_the_wrong_shape_is_a_typed_error(
        self, tmp_path, manifest
    ):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        with pytest.raises(RegistryError) as err:
            ModelRegistry(tmp_path)
        assert str(path) in str(err.value)
        assert "resume" in str(err.value)

    def test_empty_registry_has_no_payload(self, tmp_path):
        with pytest.raises(RegistryError):
            ModelRegistry(tmp_path).load_payload()

    def test_format_table_shows_lineage(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        self._commit(registry, day=1)
        self._commit(registry, day=2)
        table = registry.format_table()
        assert "(genesis)" in table
        assert "fugu@g001" in table
        assert "fugu@g002" in table
        assert "2 generation(s)" in table


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """One uninterrupted continual run; every other test compares to it."""
    root = tmp_path_factory.mktemp("retrain_reference")
    result = run_fleet_retrain(
        classical_specs(),
        fleet_config(),
        retrain_config(),
        archive_dir=root / "archive",
        registry_dir=root / "registry",
        workers=1,
        checkpoint_path=str(root / "ckpt.json"),
    )
    assert result.completed
    return root, result


class TestContinualService:
    def test_generations_enroll_as_arms(self, reference):
        root, result = reference
        registry = ModelRegistry(root / "registry")
        assert len(registry) == 2
        assert result.scheme_names == [
            "bba", "mpc_hm", "fugu@g001", "fugu@g002"
        ]
        for generation, entry in enumerate(registry.generations, start=1):
            assert entry.generation == generation
            assert entry.arm == f"fugu@g{generation:03d}"
        # Day-2 sessions were served by generation 1: its arm has streams.
        sink = result.sink
        assert sink.schemes["fugu@g001"].n_streams > 0

    def test_generation_payload_is_self_describing(self, reference):
        root, _ = reference
        registry = ModelRegistry(root / "registry")
        for entry in registry.generations:
            payload = registry.load_payload(entry.generation)
            assert payload["window_days"][-1] == entry.day
            assert payload["n_streams_day"] > 0
            assert payload["eval"], "committed without eval metrics"
            for record in payload["eval"]:
                assert record["n_examples"] > 0

    def test_batch_daily_replay_matches_registry_exactly(self, reference):
        """The differential test: DailyRetrainer fed the archive day by
        day reproduces every committed ``state_dict`` bit for bit."""
        root, _ = reference
        registry = ModelRegistry(root / "registry")
        state = json.loads((root / "ckpt.json").read_text())
        slices = state["extra"]["retrain"]["window"]
        assert len(slices) == len(registry) == 2

        retrain = retrain_config()
        predictor = TransmissionTimePredictor(
            retrain.ttp, seed=retrain.seed
        )
        retrainer = DailyRetrainer(
            predictor,
            window_days=retrain.window_days,
            recency_decay=retrain.recency_decay,
            epochs_per_day=retrain.epochs_per_day,
            seed=retrain.seed,
        )
        for entry, (day, start, end) in zip(registry.generations, slices):
            streams = reconstruct_training_streams(
                read_telemetry_slice(root / "archive", start, end)
            )
            retrainer.add_day(streams)
            assert retrainer.current_day == day == entry.day
            assert retrainer.window_datasets() is not None
            # The service's day-close order: calibrate on the full
            # window, then retrain (warm-started, recency-weighted).
            predictor.calibrate_tail(
                [
                    stream
                    for _, day_streams in retrainer.window_state()
                    for stream in day_streams
                ]
            )
            retrainer.retrain()
            committed = registry.load_payload(entry.generation)
            assert canonical(predictor.state_dict()) == canonical(
                committed["state_dict"]
            )
            # And the registry loader round-trips it bitwise.
            assert canonical(
                registry.load_predictor(entry.generation).state_dict()
            ) == canonical(committed["state_dict"])


class TestByteIdentity:
    @pytest.mark.parametrize(
        "cut,workers_before,workers_after",
        [(10, 1, 1), (40, 2, 1), (80, 1, 2)],
    )
    def test_pause_resume_byte_identical(
        self, reference, tmp_path, cut, workers_before, workers_after
    ):
        root, expected = reference
        ckpt = str(tmp_path / "ckpt.json")
        partial = run_fleet_retrain(
            classical_specs(), fleet_config(), retrain_config(),
            archive_dir=tmp_path / "archive",
            registry_dir=tmp_path / "registry",
            workers=workers_before, checkpoint_path=ckpt,
            stop_after_sessions=cut,
        )
        assert not partial.completed
        resumed = run_fleet_retrain(
            classical_specs(), fleet_config(), retrain_config(),
            archive_dir=tmp_path / "archive",
            registry_dir=tmp_path / "registry",
            workers=workers_after, checkpoint_path=ckpt, resume=True,
        )
        assert resumed.completed
        assert dump_bytes(resumed) == dump_bytes(expected)
        assert registry_bytes(tmp_path / "registry") == registry_bytes(
            root / "registry"
        )
        for name in ("video_sent.csv", "video_acked.csv",
                     "client_buffer.csv"):
            assert (tmp_path / "archive" / name).read_bytes() == (
                root / "archive" / name
            ).read_bytes()

    def test_worker_count_invariant(self, reference, tmp_path):
        root, expected = reference
        result = run_fleet_retrain(
            classical_specs(), fleet_config(), retrain_config(),
            archive_dir=tmp_path / "archive",
            registry_dir=tmp_path / "registry",
            workers=2,
        )
        assert dump_bytes(result) == dump_bytes(expected)
        assert registry_bytes(tmp_path / "registry") == registry_bytes(
            root / "registry"
        )


class TestGuards:
    def test_a_poisoned_generation_is_never_published(
        self, reference, tmp_path, monkeypatch
    ):
        # One non-finite feature in day 2's training set turns every weight
        # NaN within a batch. Enrolled, that arm's all-NaN scores would
        # argmax to the lowest rung, silently; the day close refuses it.
        import repro.core.train as train

        build = train.build_ttp_datasets
        registry_dir = tmp_path / "registry"
        seen = []

        def poisoned(*args, **kwargs):
            datasets = build(*args, **kwargs)
            seen.append(registry_bytes(registry_dir))
            if len(seen) == 2:
                datasets[1].features[3, 5] = float("nan")
            return datasets

        monkeypatch.setattr(train, "build_ttp_datasets", poisoned)
        with pytest.raises(RegistryError, match="day 2.*generation 2"):
            run_fleet_retrain(
                classical_specs(), fleet_config(), retrain_config(),
                archive_dir=tmp_path / "archive",
                registry_dir=registry_dir,
                checkpoint_path=str(tmp_path / "ckpt.json"),
            )
        # Registry and manifest are as day 2's close found them: generation
        # 1 as the clean run published it, and nothing else.
        assert len(seen) == 2
        after = registry_bytes(registry_dir)
        assert after == seen[1]
        assert sorted(after) == ["gen-0001.json", "manifest.json"]
        root, _ = reference
        clean = registry_bytes(root / "registry")
        assert after["gen-0001.json"] == clean["gen-0001.json"]
        registry = ModelRegistry(registry_dir)
        assert [entry.generation for entry in registry.generations] == [1]
        # The checkpoint still says one generation: a resume replays day 2.
        state = CheckpointManager(str(tmp_path / "ckpt.json")).load().extra[
            "retrain"
        ]
        assert state["generations"] == 1 and state["day_counter"] == 1

    def test_nonempty_registry_requires_resume(self, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        registry.commit(
            day=1, arm="fugu@g001", state={}, window_days=[1],
            n_streams_day=1, n_streams_window=1, evaluation=[],
        )
        with pytest.raises(RegistryError):
            run_fleet_retrain(
                classical_specs(), fleet_config(), retrain_config(),
                archive_dir=tmp_path / "archive",
                registry_dir=tmp_path / "registry",
            )

    @pytest.mark.parametrize("driver", ["run_fleet", "run_fleet_retrain"])
    def test_nonempty_archive_requires_resume(self, tmp_path, driver):
        # Every run numbers its streams from session 0: a fresh run appended
        # after another run's rows would have the join pair one run's acks
        # with the other's sends.
        archive = tmp_path / "archive"
        leftover = TelemetryLog()
        leftover.video_acked.append(VideoAckedRecord(1.0, 0, 0, 0))
        with ArchiveAppender(archive) as appender:
            appender.append(leftover)
        before = {p.name: p.read_bytes() for p in archive.iterdir()}
        run = {
            "run_fleet": lambda: run_fleet(
                classical_specs(), fleet_config(), archive_dir=str(archive)
            ),
            "run_fleet_retrain": lambda: run_fleet_retrain(
                classical_specs(), fleet_config(), retrain_config(),
                archive_dir=archive, registry_dir=tmp_path / "registry",
            ),
        }[driver]
        with pytest.raises(ArchiveError, match=f"archive {archive} already "
                           "holds rows.*--resume.*empty directory"):
            run()
        assert {p.name: p.read_bytes() for p in archive.iterdir()} == before

    def test_header_only_archive_starts_fresh(self, tmp_path):
        # Headers and nothing else is an empty archive: a fresh run may use
        # it, and writes what it writes into a new directory.
        ArchiveAppender(tmp_path / "reused").close()
        config = replace(
            fleet_config(),
            workload=replace(fleet_config().workload, days=0.2),
        )
        for name in ("reused", "new"):
            run_fleet(
                classical_specs(), config, archive_dir=str(tmp_path / name)
            )
        assert load_archive_day(tmp_path / "new").video_sent
        for table in ("video_sent", "video_acked", "client_buffer"):
            assert (tmp_path / "reused" / f"{table}.csv").read_bytes() == (
                tmp_path / "new" / f"{table}.csv"
            ).read_bytes()

    def test_resume_without_checkpoint_wipes_crash_leftovers(
        self, tmp_path
    ):
        # A crash before the first checkpoint may leave registry files;
        # resume=True with no checkpoint on disk must start fresh.
        registry = ModelRegistry(tmp_path / "registry")
        registry.commit(
            day=1, arm="fugu@g001", state={}, window_days=[1],
            n_streams_day=1, n_streams_window=1, evaluation=[],
        )
        partial = run_fleet_retrain(
            classical_specs(), fleet_config(), retrain_config(),
            archive_dir=tmp_path / "archive",
            registry_dir=tmp_path / "registry",
            checkpoint_path=str(tmp_path / "ckpt.json"), resume=True,
            stop_after_sessions=5,
        )
        assert not partial.completed
        assert len(ModelRegistry(tmp_path / "registry")) == 0

    def test_base_names_must_not_collide_with_arms(self, tmp_path):
        specs = classical_specs()
        clash = replace(specs[0], name="fugu@g001")
        with pytest.raises(ValueError):
            run_fleet_retrain(
                [clash, specs[1]], fleet_config(), retrain_config(),
                archive_dir=tmp_path / "archive",
                registry_dir=tmp_path / "registry",
            )

    def test_plain_fleet_checkpoint_refused(self, tmp_path):
        # A checkpoint written by `repro fleet run` (no retrain state)
        # must not silently restart the learning loop from scratch.
        specs = classical_specs()
        fingerprint = config_fingerprint(
            fleet_config().fingerprint(specs), retrain_config().to_dict()
        )
        ckpt = str(tmp_path / "ckpt.json")
        CheckpointManager(ckpt).save(
            FleetCheckpoint(
                fingerprint=fingerprint, next_session_id=0,
                sink=FleetSink(),
            )
        )
        with pytest.raises(RegistryError):
            run_fleet_retrain(
                specs, fleet_config(), retrain_config(),
                archive_dir=tmp_path / "archive",
                registry_dir=tmp_path / "registry",
                checkpoint_path=ckpt, resume=True,
            )

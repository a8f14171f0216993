"""Tests for the command-line interface (python -m repro)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import build_parser, main

SRC = Path(__file__).resolve().parents[1] / "src"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_quickstart_defaults(self):
        args = build_parser().parse_args(["quickstart"])
        assert args.minutes == 5.0
        assert args.mbps == 6.0

    def test_detectability_args(self):
        args = build_parser().parse_args(
            ["detectability", "--streams", "100", "200", "--trials", "3"]
        )
        assert args.streams == [100, 200]
        assert args.trials == 3

    @pytest.mark.parametrize("command", ["run", "retrain"])
    @pytest.mark.parametrize(
        "removed", [["--batch-lanes", "64"], ["--executor", "batch"]]
    )
    def test_fleet_rejects_the_removed_execution_flags(
        self, command, removed, capsys
    ):
        argv = ["fleet", command]
        if command == "retrain":
            argv += ["--archive-dir", "a", "--registry", "r"]
        assert not hasattr(build_parser().parse_args(argv), "executor")
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv + removed)
        assert exit_info.value.code == 2
        assert removed[0] in capsys.readouterr().err


class TestCommands:
    def test_quickstart_runs(self, capsys):
        code = main(["quickstart", "--minutes", "0.5", "--seed", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "bba" in out
        assert "mpc_hm" in out

    def test_detectability_runs(self, capsys):
        code = main(
            [
                "detectability",
                "--streams", "100",
                "--trials", "2",
                "--improvement", "0.5",
            ]
        )
        assert code == 0
        assert "P(detect)" in capsys.readouterr().out

    def test_train_fugu_writes_model(self, tmp_path, capsys):
        out_file = tmp_path / "ttp.json"
        code = main(
            [
                "train-fugu",
                "--streams", "6",
                "--iterations", "0",
                "--epochs", "1",
                "--output", str(out_file),
            ]
        )
        assert code == 0
        state = json.loads(out_file.read_text())
        assert len(state["models"]) == 5

    def test_saved_model_loads_back(self, tmp_path):
        from repro.core.ttp import TransmissionTimePredictor

        out_file = tmp_path / "ttp.json"
        main(
            [
                "train-fugu",
                "--streams", "6",
                "--iterations", "0",
                "--epochs", "1",
                "--output", str(out_file),
            ]
        )
        predictor = TransmissionTimePredictor()
        predictor.load_state_dict(json.loads(out_file.read_text()))


class TestObsCommands:
    def test_obs_parser_defaults(self):
        args = build_parser().parse_args(["obs", "collect"])
        assert args.sessions == 32
        assert args.workers == 1
        assert args.out == "metrics.json"
        assert args.deterministic is False

    def test_obs_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["obs"])

    def test_obs_collect_writes_dump(self, tmp_path, capsys):
        out_file = tmp_path / "metrics.json"
        code = main(
            [
                "obs", "collect",
                "--sessions", "4",
                "--out", str(out_file),
            ]
        )
        assert code == 0
        dump = json.loads(out_file.read_text())
        assert dump["schema_version"] == 1
        assert dump["metrics"]["counters"]["trial.sessions"] == 4
        assert "tcp.rounds" in dump["metrics"]["counters"]
        captured = capsys.readouterr()
        assert "counters:" in captured.out
        assert "events:" in captured.out

    def test_obs_collect_deterministic_excludes_wallclock(self, tmp_path):
        out_file = tmp_path / "metrics.json"
        main(
            [
                "obs", "collect",
                "--sessions", "3",
                "--deterministic",
                "--out", str(out_file),
            ]
        )
        dump = json.loads(out_file.read_text())
        names = list(dump["metrics"]["counters"]) + list(
            dump["metrics"]["histograms"]
        )
        assert not any(n.startswith("profile.") for n in names)
        assert dump["metrics"]["wallclock"] == []

    def test_obs_collect_deterministic_dump_stable_across_workers(
        self, tmp_path
    ):
        files = []
        for workers in ("1", "2"):
            path = tmp_path / f"metrics-{workers}.json"
            main(
                [
                    "obs", "collect",
                    "--sessions", "6",
                    "--workers", workers,
                    "--deterministic",
                    "--out", str(path),
                ]
            )
            files.append(path.read_bytes())
        assert files[0] == files[1]

    def test_obs_summary_renders_dump(self, tmp_path, capsys):
        out_file = tmp_path / "metrics.json"
        main(["obs", "collect", "--sessions", "3", "--out", str(out_file)])
        capsys.readouterr()  # drop collect output
        code = main(["obs", "summary", str(out_file), "--events", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "counters:" in out
        assert "trial.sessions" in out
        assert "histograms" in out

    def test_trial_metrics_out(self, tmp_path, capsys):
        from repro import obs
        from repro.__main__ import _obs_collect_specs
        from repro.experiment.harness import RandomizedTrial, TrialConfig

        # Exercise the plumbing `repro trial --metrics-out` uses without
        # paying for scheme training: an instrumented mini-trial dumped via
        # TrialResult.dump_metrics.
        trial = RandomizedTrial(
            _obs_collect_specs(),
            TrialConfig(n_sessions=3, seed=1, observability=True),
        ).run()
        path = tmp_path / "trial-metrics.json"
        trial.dump_metrics(str(path))
        assert trial.metrics_path == str(path)
        dump = json.loads(path.read_text())
        assert dump["schema_version"] == obs.SCHEMA_VERSION
        assert dump["metrics"]["counters"]["trial.sessions"] == 3

    def test_trial_parser_metrics_out_default(self):
        args = build_parser().parse_args(["trial"])
        assert args.metrics_out is None


class TestBadInput:
    """A bad flag or a bad artifact names itself on one stderr line: a
    config the flags cannot build or an output it cannot write exits 2 as
    argparse does, and a corrupt checkpoint or an unreadable report or
    metrics file exits 1."""

    @pytest.mark.parametrize(
        "flags, field",
        [
            (["--seed", "-1"], "WorkloadConfig.seed"),
            (["--trial-seed", "-1"], "TrialConfig.seed"),
            (["--cells", "2", "--edge-seed", "-1"], "EdgeConfig.seed"),
        ],
    )
    def test_a_negative_seed_is_refused_by_name_before_any_work(
        self, flags, field, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        argv = ["fleet", "run", "--days", "0.01", *flags, "--out", "d.json"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert [
            line for line in err.splitlines() if line.startswith("repro:")
        ] == [f"repro: error: {field} must be a whole number ≥ 0, got -1"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, status, message",
        [
            (["fleet", "run", "--days", "-1"], 2, "WorkloadConfig.days must be finite and positive"),
            (
                ["fleet", "run", "--rate", "nan"],
                2,
                "WorkloadConfig.sessions_per_hour must be finite",
            ),
            (
                ["fleet", "run", "--chunk-size", "0"],
                2,
                "FleetConfig.chunk_sessions must be a whole number ≥ 1",
            ),
            (
                [
                    "fleet", "retrain", "--archive-dir", "a",
                    "--registry", "r", "--window-days", "0",
                ],
                2,
                "RetrainConfig.window_days must be a whole number ≥ 1",
            ),
            (
                ["fleet", "resume", "--checkpoint", "corrupt.ckpt"],
                1,
                "corrupt checkpoint corrupt.ckpt",
            ),
            (
                ["fleet", "report", "not-json.txt"],
                1,
                "cannot read not-json.txt",
            ),
            (
                ["obs", "summary", "not-json.txt"],
                1,
                "cannot read not-json.txt",
            ),
            (
                ["obs", "summary", "no-such.json"],
                1,
                "cannot read no-such.json",
            ),
            # An output whose directory is missing is refused before any
            # session or training runs.
            (
                ["fleet", "run", "--days", "0.01", "--out", "gone/d.json"],
                2,
                "cannot write gone/d.json: no directory gone",
            ),
            (
                [
                    "fleet", "retrain", "--archive-dir", "a",
                    "--registry", "r", "--out", "gone/d.json",
                ],
                2,
                "cannot write gone/d.json: no directory gone",
            ),
            (
                [
                    "fleet", "resume", "--checkpoint", "corrupt.ckpt",
                    "--out", "gone/r.json",
                ],
                2,
                "cannot write gone/r.json: no directory gone",
            ),
            (
                ["obs", "collect", "--sessions", "1", "--out", "gone/m.json"],
                2,
                "cannot write gone/m.json: no directory gone",
            ),
            (
                ["trial", "--sessions", "1", "--metrics-out", "gone/m.json"],
                2,
                "cannot write gone/m.json: no directory gone",
            ),
            (
                ["train-fugu", "--streams", "1", "--output", "gone/t.json"],
                2,
                "cannot write gone/t.json: no directory gone",
            ),
        ],
    )
    def test_bad_input_is_one_error_line(
        self, argv, status, message, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "corrupt.ckpt").write_text("{not a checkpoint")
        (tmp_path / "not-json.txt").write_text("sessions: 3\n")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        err = capsys.readouterr().err
        assert code == status
        assert f"repro: error: {message}" in err
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "corrupt.ckpt",
            "not-json.txt",
        ]


class TestFleetCommands:
    """``repro fleet``: one declaration of a run's flags, one recorder of
    them, one handler for ``run`` and ``retrain``."""

    #: What ``fleet run`` recorded in its checkpoint before the fleet
    #: commands moved to ``repro.fleet.cli``, for the flags given below.
    RECORDED_RUN = {
        "archive_dir": None, "cache_chunks": 256,
        "cell_capacity_bps": 60000000.0, "cell_dist": "geometric",
        "cells": None, "chunk_size": 4, "days": 0.02,
        "diurnal_amplitude": 0.6, "edge_seed": 0, "flash_crowds": [],
        "peak_hour": 20.0, "rate": 80.0, "schemes": ["bba", "mpc_hm"],
        "seed": 5, "trial_seed": 0, "zipf_alpha": 1.1,
    }
    EDGE_KEYS = {
        "cells", "cell_dist", "cell_capacity_bps", "cache_chunks",
        "zipf_alpha", "edge_seed",
    }
    RUN = [
        "--days", "0.02", "--rate", "80", "--seed", "5", "--chunk-size", "4",
    ]

    def _recorded(self, tmp_path, argv):
        ckpt = tmp_path / "fleet.ckpt"
        assert main([
            *argv, *self.RUN, "--workers", "1",
            "--checkpoint", str(ckpt), "--stop-after", "4",
        ]) == 0
        return json.loads(ckpt.read_text())["cli_args"]

    def test_a_fresh_run_records_what_it_always_did(self, tmp_path):
        assert self._recorded(tmp_path, ["fleet", "run"]) == self.RECORDED_RUN

    def test_a_fresh_retrain_records_the_same_minus_the_edge_flags(
        self, tmp_path
    ):
        archive, registry = str(tmp_path / "a"), str(tmp_path / "r")
        recorded = self._recorded(tmp_path, [
            "fleet", "retrain", "--archive-dir", archive,
            "--registry", registry,
        ])
        expected = {
            key: value for key, value in self.RECORDED_RUN.items()
            if key not in self.EDGE_KEYS
        }
        expected.update(
            archive_dir=archive, registry_dir=registry, mode="retrain",
            window_days=14, recency_decay=0.9, epochs_per_day=8,
            retrain_seed=0, ttp_horizon=5, arm_prefix="fugu",
        )
        assert recorded == expected

    @pytest.mark.parametrize(
        "flag",
        [
            ["--cells", "3"], ["--cell-dist", "fixed"],
            ["--cell-capacity-bps", "1e6"], ["--cache-chunks", "4"],
            ["--zipf-alpha", "2"], ["--edge-seed", "3"],
        ],
        ids=lambda flag: flag[0],
    )
    def test_retrain_refuses_every_edge_flag_as_a_usage_error(
        self, flag, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([
                "fleet", "retrain", "--archive-dir", "a", "--registry", "r",
                *flag,
            ])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert [
            line for line in err.splitlines() if line.startswith("repro:")
        ] == [f"repro: error: unrecognized arguments: {' '.join(flag)}"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["run", "retrain"])
    def test_resume_without_a_checkpoint_is_a_usage_error(
        self, command, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        argv = ["fleet", command, "--resume"]
        if command == "retrain":
            argv += ["--archive-dir", "a", "--registry", "r"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "repro: error: --resume requires --checkpoint" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["fleet", "lint"])
    def test_the_subsystems_add_their_commands_to_repro(self, command):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        done = subprocess.run(
            [sys.executable, "-m", "repro", command, "--help"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith(f"usage: repro {command}")

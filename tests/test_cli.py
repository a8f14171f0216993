"""Tests for the command-line interface (python -m repro)."""

import json

import pytest

from repro.__main__ import build_parser, main


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
        "argv, status, message",
        [
            (["fleet", "run", "--days", "-1"], 2, "days must be positive"),
            (
                ["fleet", "run", "--rate", "nan"],
                2,
                "sessions_per_hour must be finite",
            ),
            (
                ["fleet", "run", "--chunk-size", "0"],
                2,
                "chunk_sessions must be >= 1",
            ),
            (
                [
                    "fleet", "retrain", "--archive-dir", "a",
                    "--registry", "r", "--window-days", "0",
                ],
                2,
                "window_days must be positive",
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

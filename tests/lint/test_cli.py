"""CLI: exit codes, formats, the contract and purity — via ``repro lint``."""

import json

import pytest

from repro.__main__ import main as repro_main
from repro.lint.cli import main as lint_main


@pytest.fixture
def dirty_dir(tmp_path):
    (tmp_path / "m.py").write_text("import time\nt = time.time()\n")
    return tmp_path


@pytest.fixture
def purity_tree(tmp_path):
    """A mini program with a declared purity root that reads the clock."""
    (tmp_path / "app.py").write_text(
        "# repro: module=pkg.app\n"
        "import time\n"
        "\n"
        "\n"
        "def root():\n"
        "    return time.time()  # repro: allow-DET002(cli purity test)\n"
    )
    config = tmp_path / "contract.json"
    config.write_text(
        json.dumps({"version": 2, "purity": {"roots": ["pkg.app.root"]}})
        + "\n"
    )
    return tmp_path


class TestLintCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert lint_main([str(tmp_path)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_one(self, dirty_dir, capsys):
        assert lint_main([str(dirty_dir)]) == 1
        out = capsys.readouterr().out
        assert "DET002" in out and "m.py:2:" in out

    def test_json_format(self, dirty_dir, capsys):
        assert lint_main([str(dirty_dir), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"][0]["rule"] == "DET002"

    def test_select_filters_rules(self, dirty_dir):
        assert lint_main([str(dirty_dir), "--select", "DET001"]) == 0
        assert lint_main([str(dirty_dir), "--select", "DET002"]) == 1

    def test_unknown_select_is_usage_error(self, dirty_dir, capsys):
        assert lint_main([str(dirty_dir), "--select", "NOPE"]) == 2
        assert "unknown rule id" in capsys.readouterr().err

    def test_rules_listing(self, capsys):
        assert lint_main(["--rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ["DET001", "DET002", "DET003", "SIM001", "OBS001",
                        "API001", "PURE001", "PURE002", "PURE003"]:
            assert rule_id in out
        assert "(whole-program)" in out


class TestJsonSchema:
    REQUIRED_KEYS = {
        "schema_version",
        "files_checked",
        "findings",
        "suppressed",
        "parse_errors",
        "whole_program",
        "ok",
    }

    def test_report_round_trips_with_stable_schema(self, dirty_dir, capsys):
        assert lint_main([str(dirty_dir), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == self.REQUIRED_KEYS
        assert payload["schema_version"] == 2
        assert payload["whole_program"] is False
        assert payload["ok"] is False
        finding = payload["findings"][0]
        for key in ("rule", "path", "line", "col", "message"):
            assert key in finding

    def test_whole_program_flag_reaches_the_report(self, purity_tree, capsys):
        assert (
            lint_main(
                [
                    str(purity_tree),
                    "--whole-program",
                    "--contract",
                    str(purity_tree / "contract.json"),
                    "--format",
                    "json",
                ]
            )
            == 1
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["whole_program"] is True
        assert [f["rule"] for f in payload["findings"]] == ["PURE002"]


class TestWholeProgramCli:
    def test_purity_finding_exits_one(self, purity_tree, capsys):
        code = lint_main(
            [
                str(purity_tree),
                "--whole-program",
                "--contract",
                str(purity_tree / "contract.json"),
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "PURE002" in out and "[whole-program]" in out

    def test_missing_config_is_usage_error(self, purity_tree, capsys):
        code = lint_main(
            [
                str(purity_tree),
                "--whole-program",
                "--contract",
                str(purity_tree / "absent.json"),
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_contract_defaults_to_the_current_directory(
        self, purity_tree, capsys, monkeypatch
    ):
        monkeypatch.chdir(purity_tree)
        assert lint_main([".", "--whole-program"]) == 1
        assert "PURE002" in capsys.readouterr().out


class TestReproSubcommand:
    def test_repro_lint_subcommand(self, dirty_dir, capsys):
        assert repro_main(["lint", str(dirty_dir)]) == 1
        assert "DET002" in capsys.readouterr().out

    def test_repro_lint_help_registered(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            repro_main(["lint", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "determinism" in out and "--whole-program" in out

    def test_repro_sanitize_run_help_registered(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            repro_main(["sanitize-run", "--help"])
        assert excinfo.value.code == 0
        assert "REPRO_SANITIZE" in capsys.readouterr().out

    @pytest.mark.parallel_smoke
    def test_repro_sanitize_run_executes_clean(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        from repro import sanitizer

        try:
            assert repro_main(["sanitize-run", "--sessions", "2"]) == 0
        finally:
            sanitizer.uninstall()
            monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        captured = capsys.readouterr()
        assert "digest" in captured.out
        assert "canary" in captured.err

"""CLI surface of the durability rules: ``repro lint --whole-program``
over a contract with a ``durability`` section.

Exit codes (0 clean / 1 findings / 2 config or usage error), the JSON
report schema for DUR findings, and the section deciding whether the DUR
rules run.  The shipping gate over the real tree is
``tests/lint/test_tree_clean.py``'s whole-program run.
"""

import json

import pytest

from repro.lint.cli import main as lint_main


@pytest.fixture
def durable_tree(tmp_path):
    """A mini program with one durable root performing a raw write."""
    (tmp_path / "app.py").write_text(
        "# repro: module=pkg.app\n"
        "import json\n"
        "\n"
        "\n"
        "def save(path, value):\n"
        '    with open(path, "w") as f:\n'
        "        f.write(json.dumps(value))\n"
    )
    (tmp_path / "contract.json").write_text(
        json.dumps(
            {
                "version": 2,
                "purity": {"roots": []},
                "durability": {
                    "roots": ["pkg.app.save"],
                    "atomic_helpers": ["repro.atomio.atomic_write_bytes"],
                    "exempt": [],
                    "commit_order": [],
                },
            }
        )
        + "\n"
    )
    return tmp_path


def _args(tree, *extra):
    return [
        str(tree),
        "--whole-program",
        "--contract", str(tree / "contract.json"),
        *extra,
    ]


class TestDurabilityCli:
    def test_dur001_finding_exits_one(self, durable_tree, capsys):
        assert lint_main(_args(durable_tree)) == 1
        out = capsys.readouterr().out
        assert "DUR001" in out and "atomic_write" in out

    def test_inline_waiver_silences(self, durable_tree, capsys):
        source = (durable_tree / "app.py").read_text()
        (durable_tree / "app.py").write_text(
            source.replace(
                '    with open(path, "w") as f:\n',
                '    with open(path, "w") as f:'
                "  # repro: allow-DUR001(cli waiver test)\n",
            )
        )
        assert lint_main(_args(durable_tree)) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_no_durability_section_no_dur_rules(self, durable_tree, capsys):
        contract = durable_tree / "contract.json"
        data = json.loads(contract.read_text())
        del data["durability"]
        contract.write_text(json.dumps(data))
        assert lint_main(_args(durable_tree)) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_contract_implies_whole_program(self, durable_tree, capsys):
        contract = str(durable_tree / "contract.json")
        assert lint_main([str(durable_tree), "--contract", contract]) == 1
        out = capsys.readouterr().out
        assert "DUR001" in out and "[whole-program]" in out

    def test_missing_config_is_usage_error(self, durable_tree, capsys):
        code = lint_main(
            [
                str(durable_tree),
                "--whole-program",
                "--contract", str(durable_tree / "absent.json"),
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_version_mismatch_is_usage_error(self, durable_tree, capsys):
        bad = durable_tree / "contract.json"
        bad.write_text(json.dumps({"version": 99, "purity": {"roots": []}}))
        assert lint_main(_args(durable_tree)) == 2
        assert "version" in capsys.readouterr().err

    def test_missing_root_is_dur000_finding(self, durable_tree, capsys):
        config = durable_tree / "contract.json"
        data = json.loads(config.read_text())
        data["durability"]["roots"].append("pkg.app.gone")
        config.write_text(json.dumps(data))
        assert lint_main(_args(durable_tree)) == 1
        assert "DUR000" in capsys.readouterr().out

    def test_json_schema_carries_dur_findings(self, durable_tree, capsys):
        assert lint_main(_args(durable_tree, "--format", "json")) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 2
        assert payload["whole_program"] is True
        rules = [f["rule"] for f in payload["findings"]]
        assert "DUR001" in rules
        finding = payload["findings"][rules.index("DUR001")]
        for key in ("path", "line", "col", "message", "source_line"):
            assert key in finding

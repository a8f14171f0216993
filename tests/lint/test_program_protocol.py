"""The whole-program rule protocol the four families share.

Every whole-program rule registers with ``repro.lint.base.register``; the
families read one ``ProgramContext`` whose pure and durable regions are
values, each with its own witness chains; one resolver reports each
contract name that does not resolve, under its section's id, only when
the name's module was linted.  These tests pin the three consequences:
``--rules`` and ``--select`` see the same ids, a partial lint of one
package stays quiet, and the families give the same findings in any
order.
"""

import json
import textwrap
from pathlib import Path

import pytest

import repro.lint.engine as engine_mod
import repro.lint.purity as purity_mod
from repro.lint.base import make_rules, program_rules
from repro.lint.cli import main as lint_main
from repro.lint.contract import Contract, load_contract
from repro.lint.engine import iter_rule_docs, lint_paths, lint_whole_program
from repro.lint.engine import parse_module
from repro.lint.purity import PurityConfig
from repro.lint.rules_durability import DurabilityConfig

REPO_ROOT = Path(__file__).resolve().parents[2]
PACKAGES = sorted(
    path.relative_to(REPO_ROOT).as_posix()
    for path in (REPO_ROOT / "src" / "repro").iterdir()
    if path.name != "__init__.py"
    and (path.suffix == ".py" or (path / "__init__.py").exists())
)
FIXTURES = Path(__file__).parent


class TestOneRegistry:
    def test_rules_lists_every_family_in_order(self):
        ids = [rule.id for rule in program_rules()]
        assert ids == [
            "PURE001", "PURE002", "PURE003",
            "SEED001", "SEED002", "SEED003", "SEED004",
            "CKPT001", "CKPT002",
            "DUR001", "DUR002", "DUR003", "DUR004",
        ]
        docs = list(iter_rule_docs())
        assert docs[-len(ids):] == [
            f"{rule.id} (whole-program): {rule.summary}"
            for rule in program_rules()
        ]

    @pytest.mark.parametrize("rule_id", ["PURE001", "DUR003", "CKPT000"])
    def test_whole_program_ids_are_not_selectable(self, rule_id):
        with pytest.raises(ValueError, match="unknown rule id"):
            make_rules(select=[rule_id])


class TestPartialLintsStayQuiet:
    def test_the_fleet_package_lints_clean(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        code = lint_main(
            ["src/repro/fleet", "--whole-program", "--format", "json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0, payload["findings"]
        assert payload["findings"] == []
        assert not [
            f for f in payload["suppressed"] if f["rule"].endswith("000")
        ]

    @pytest.mark.parametrize(
        "paths",
        [
            ["src/repro/__init__.py", "src/repro/fleet"],
            ["src/repro/fleet/__init__.py"],
        ],
    )
    def test_a_package_init_does_not_own_its_submodules_names(
        self, paths, monkeypatch, capsys
    ):
        # The linted ``repro`` package only prefixes ``repro.core.ttp.*``:
        # the unlinted ``repro.core`` owns those names.
        monkeypatch.chdir(REPO_ROOT)
        code = lint_main([*paths, "--whole-program", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0, payload["findings"]
        assert payload["findings"] == []

    def test_a_module_that_exists_nowhere_is_still_a_finding(
        self, tmp_path, monkeypatch
    ):
        data = json.loads((REPO_ROOT / "contract.json").read_text())
        data["purity"]["roots"].append("repro.flet.runner.run_fleet")
        path = tmp_path / "contract.json"
        path.write_text(json.dumps(data))
        monkeypatch.chdir(REPO_ROOT)
        report = lint_paths(
            ["src/repro/__init__.py", "src/repro/fleet"],
            contract=load_contract(path),
        )
        assert [(f.rule, f.message.split("'")[1]) for f in report.findings] == [
            ("PURE000", "repro.flet.runner.run_fleet")
        ]

    def test_each_file_s_suppressions_are_read_once(self, monkeypatch):
        calls = []
        parse = engine_mod.parse_suppressions

        def counting(lines, path):
            calls.append(path)
            return parse(lines, path)

        monkeypatch.setattr(engine_mod, "parse_suppressions", counting)
        report = lint_paths(
            [REPO_ROOT / "src"],
            contract=load_contract(REPO_ROOT / "contract.json"),
        )
        whole_program = {rule.id for rule in program_rules()}
        assert any(f.rule in whole_program for f in report.suppressed)
        assert sorted(calls) == sorted(set(calls))
        assert len(calls) == report.files_checked

    @pytest.mark.parametrize("package", PACKAGES)
    def test_every_package_lints_without_a_config_finding(self, package):
        contract = load_contract(REPO_ROOT / "contract.json")
        report = lint_paths([REPO_ROOT / package], contract=contract)
        assert [
            f.format_human()
            for f in report.findings + report.suppressed
            if f.rule.endswith("000")
        ] == []

    def test_a_missing_name_in_a_linted_module_still_fails(self, tmp_path):
        data = json.loads((REPO_ROOT / "contract.json").read_text())
        data["purity"]["roots"].append("repro.fleet.runner.no_such_root")
        data["durability"]["roots"].append("repro.fleet.runner.no_such")
        data["durability"]["roots"].append("repro.absent.module.fn")
        path = tmp_path / "contract.json"
        path.write_text(json.dumps(data))
        report = lint_paths(
            [REPO_ROOT / "src" / "repro" / "fleet"],
            contract=load_contract(path),
        )
        assert sorted(
            (f.rule, f.message.split("'")[1]) for f in report.findings
        ) == [
            ("DUR000", "repro.fleet.runner.no_such"),
            ("PURE000", "repro.fleet.runner.no_such_root"),
        ]


def _mod(module, source):
    path = module.replace(".", "/") + ".py"
    return parse_module(
        f"# repro: module={module}\n" + textwrap.dedent(source), path
    )


#: ``leaf`` is pure via ``pure_root -> leaf`` and durable via
#: ``durable_root -> middle -> leaf``: one function, two witness chains.
TWO_REGIONS = _mod(
    "pkg.both",
    """
    COUNT = 0


    def pure_root():
        return leaf()


    def durable_root():
        return middle()


    def middle():
        return leaf()


    def leaf():
        global COUNT
        COUNT = 1
        with open("state.json", "w") as handle:
            handle.write("{}")
    """,
)


def _corpus():
    parsed = [TWO_REGIONS] + [
        parse_module(path.read_text(), path.as_posix())
        for corpus in ("purity_fixtures", "durability_fixtures")
        for path in sorted((FIXTURES / corpus).glob("*.py"))
    ]
    roots = sorted(
        f"{p.module}.root" for p in parsed if p is not TWO_REGIONS
    )
    contract = Contract(
        PurityConfig(roots=("pkg.both.pure_root", *roots)),
        durability=DurabilityConfig(roots=("pkg.both.durable_root", *roots)),
    )
    return parsed, contract


def _durability_first():
    rules = program_rules()
    return sorted(rules, key=lambda rule: not rule.id.startswith("DUR"))


class TestOrderIndependentFamilies:
    def test_durability_first_gives_the_same_findings(self, monkeypatch):
        parsed, contract = _corpus()
        normal = lint_whole_program(parsed, contract)
        monkeypatch.setattr(purity_mod, "program_rules", _durability_first)
        assert [r.id for r in purity_mod.program_rules()][:4] == [
            "DUR001", "DUR002", "DUR003", "DUR004",
        ]
        reordered = lint_whole_program(parsed, contract)
        assert [f.to_dict() for f in reordered] == [
            f.to_dict() for f in normal
        ]
        rules = {f.rule for f in normal}
        assert {"PURE001", "PURE002", "DUR001", "DUR002"} <= rules
        assert any("(pure via " in f.message for f in normal)
        assert any("(durable via " in f.message for f in normal)

    def test_each_region_carries_its_own_witness_chain(self):
        parsed, contract = _corpus()
        leaf = [
            f for f in lint_whole_program(parsed, contract)
            if f.path == TWO_REGIONS.path
        ]
        assert [(f.rule, f.message.rsplit(" (", 1)[1]) for f in leaf] == [
            ("PURE001", "pure via pure_root -> leaf)"),
            ("DUR001", "durable via durable_root -> middle -> leaf)"),
        ]

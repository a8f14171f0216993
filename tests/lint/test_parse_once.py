"""One read per module: the parse, walk and import map both phases share.

``engine.parse_module`` parses a file once, keeps its ``ast.walk`` as
``ParsedModule.nodes`` and builds its ``ImportMap`` once; the per-file
rules, the call graph and the whole-program rules all read that object.
These tests pin the reading (what a ``ParsedModule`` carries), the count
(one parse and one import map per file, in either phase), the waivers the
whole-program phase reads from the module's lines, and that a lint run
leaves nothing on disk.
"""

import ast
import json

import pytest

import repro.lint.base as base_mod
import repro.lint.engine as engine_mod
import repro.lint.rules_obs as rules_obs
from repro.lint.callgraph import CallGraph
from repro.lint.cli import main as lint_main
from repro.lint.contract import Contract
from repro.lint.engine import lint_paths, lint_source, parse_module
from repro.lint.purity import PurityConfig

SOURCE = (
    "# repro: module=pkg.mod\n"
    "import numpy as np\n"
    "from time import time as now\n"
    "\n"
    "\n"
    "def f():\n"
    "    return np.zeros(3), now()\n"
)


def _tree(tmp_path, count=3):
    for index in range(count):
        (tmp_path / f"m{index}.py").write_text(
            f"# repro: module=pkg.m{index}\n"
            "import time\n"
            "\n"
            "\n"
            f"def f{index}():\n"
            "    return time.time()  # repro: allow-DET002(fixture)\n"
        )
    return tmp_path


def _purity_contract(*roots):
    return Contract(
        purity=PurityConfig(
            roots=tuple(roots),
            method_roots=(),
            quarantine=(),
            source_path="<test>",
        )
    )


class TestParsedModule:
    def test_nodes_are_the_walk_of_the_tree(self):
        parsed = parse_module(SOURCE, "m.py")
        walked = list(ast.walk(parsed.tree))
        assert len(parsed.nodes) == len(walked)
        assert all(a is b for a, b in zip(parsed.nodes, walked))

    def test_import_map_is_built_from_the_nodes(self):
        parsed = parse_module(SOURCE, "m.py")
        assert parsed.imports.modules["np"] == "numpy"
        assert parsed.imports.names["now"] == "time.time"

    def test_lines_and_module_come_from_the_source(self):
        parsed = parse_module(SOURCE, "m.py")
        assert list(parsed.lines) == SOURCE.splitlines()
        assert parsed.module == "pkg.mod"
        assert parsed.source_line(7) == "    return np.zeros(3), now()"

    def test_call_graph_functions_share_the_module_map(self):
        parsed = parse_module(SOURCE, "m.py")
        graph = CallGraph.build([parsed])
        fn = graph.functions["pkg.mod.f"]
        assert fn.imports is parsed.imports


class TestOneReadPerFile:
    @pytest.fixture
    def parse_calls(self, monkeypatch):
        calls = []
        real_parse = ast.parse

        def counting_parse(source, *args, **kwargs):
            calls.append(kwargs.get("filename", args[0] if args else None))
            return real_parse(source, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting_parse)
        return calls

    @pytest.fixture
    def import_map_calls(self, monkeypatch):
        calls = []
        real_collect = base_mod.collect_imports

        def counting_collect(nodes):
            calls.append(1)
            return real_collect(nodes)

        monkeypatch.setattr(base_mod, "collect_imports", counting_collect)
        monkeypatch.setattr(engine_mod, "collect_imports", counting_collect)
        return calls

    def test_per_file_run_parses_each_file_once(self, tmp_path, parse_calls):
        report = lint_paths([_tree(tmp_path)])
        assert report.files_checked == 3
        assert sorted(parse_calls) == sorted(
            (tmp_path / f"m{i}.py").as_posix() for i in range(3)
        )

    def test_whole_program_run_parses_each_file_once(
        self, tmp_path, parse_calls
    ):
        report = lint_paths(
            [_tree(tmp_path)], contract=_purity_contract("pkg.m0.f0")
        )
        assert report.whole_program
        assert len(parse_calls) == 3

    def test_whole_program_run_builds_one_import_map_per_file(
        self, tmp_path, import_map_calls
    ):
        lint_paths(
            [_tree(tmp_path)],
            contract=_purity_contract("pkg.m0.f0", "pkg.m1.f1"),
        )
        assert len(import_map_calls) == 3

    def test_obs_guard_visitor_runs_only_where_obs_emits(self, monkeypatch):
        made = []

        class RecordingVisitor(rules_obs._GuardVisitor):
            def __init__(self):
                made.append(self)
                super().__init__()

        monkeypatch.setattr(rules_obs, "_GuardVisitor", RecordingVisitor)
        quiet = lint_source("x = 1\n", "src/repro/net/quiet.py")
        assert quiet == [] and made == []
        loud = lint_source(
            "from repro import obs\n"
            "if obs.ENABLED:\n"
            "    obs.counter_inc('a')\n"
            "obs.counter_inc('b')\n",
            "src/repro/net/loud.py",
        )
        assert len(made) == 1
        assert [(f.rule, f.line) for f in loud] == [("OBS001", 4)]


class TestWholeProgramWaivers:
    def test_waiver_on_the_module_line_suppresses_a_purity_finding(
        self, tmp_path
    ):
        target = tmp_path / "app.py"
        header = (
            "# repro: module=pkg.app\n"
            "import time\n"
            "\n"
            "\n"
            "def root():\n"
            "    return time.time()  # repro: allow-DET002(fixture)"
        )
        target.write_text(header + "\n")
        contract = _purity_contract("pkg.app.root")
        unwaived = lint_paths([target], contract=contract)
        assert [(f.rule, f.line) for f in unwaived.findings] == [
            ("PURE002", 6)
        ]
        target.write_text(header + " repro: allow-PURE002(waived in test)\n")
        waived = lint_paths([target], contract=contract)
        assert waived.findings == []
        reasons = {f.rule: f.suppression_reason for f in waived.suppressed}
        assert reasons["PURE002"] == "waived in test"


class TestNothingWritten:
    def test_repeat_runs_give_identical_reports(self, tmp_path):
        target = tmp_path / "m.py"
        target.write_text("import time\nt = time.time()\n")
        first = lint_paths([target]).to_json()
        assert lint_paths([target]).to_json() == first
        assert [f["rule"] for f in json.loads(first)["findings"]] == [
            "DET002"
        ]

    def test_edited_file_is_read_afresh(self, tmp_path):
        target = tmp_path / "m.py"
        target.write_text("import time\nt = time.time()\n")
        assert [f.rule for f in lint_paths([target]).findings] == ["DET002"]
        target.write_text("t = 1\n")
        assert lint_paths([target]).findings == []

    def test_former_cache_settings_write_nothing(self, tmp_path, monkeypatch):
        work = tmp_path / "work"
        work.mkdir()
        (tmp_path / "m.py").write_text("x = 1\n")
        monkeypatch.chdir(work)
        monkeypatch.delenv("CI", raising=False)
        monkeypatch.setenv("REPRO_LINT_CACHE", "1")
        monkeypatch.setenv("REPRO_LINT_CACHE_DIR", str(tmp_path / "cache"))
        assert lint_paths([tmp_path / "m.py"]).ok
        assert list(work.iterdir()) == []
        assert not (tmp_path / "cache").exists()

    def test_json_report_carries_no_cache_counters(self, tmp_path):
        (tmp_path / "m.py").write_text("x = 1\n")
        payload = json.loads(lint_paths([tmp_path]).to_json())
        assert set(payload) == {
            "schema_version",
            "files_checked",
            "findings",
            "suppressed",
            "parse_errors",
            "whole_program",
            "ok",
        }

    def test_no_cache_flag_is_rejected(self, tmp_path, capsys):
        (tmp_path / "m.py").write_text("x = 1\n")
        with pytest.raises(SystemExit) as exc:
            lint_main([str(tmp_path), "--no-cache"])
        assert exc.value.code == 2
        assert "--no-cache" in capsys.readouterr().err

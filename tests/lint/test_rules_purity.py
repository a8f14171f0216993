"""Static-side tests for the interprocedural purity phase.

Fixture-driven: every ``purity_fixtures/pure*_bad_*`` file must produce its
named rule against a config that declares the fixture's ``root`` function,
and every good fixture must stay silent.  Plus config plumbing: PURE000 on
missing roots, method-root expansion over subclass overrides, inline
suppressions, and the witness chain in messages.
"""

import re
import textwrap
from pathlib import Path

import pytest

from repro.lint.contract import Contract, load_contract
from repro.lint.engine import lint_whole_program, parse_module
from repro.lint.purity import (
    ProgramContext,
    PurityConfig,
    analyze_program,
    expand_roots,
    resolve_contract,
)
from repro.lint.callgraph import build_graph

PURITY_FIXTURES = Path(__file__).parent / "purity_fixtures"

_NAME = re.compile(r"^(?P<rule>pure\d+|pure)_(?P<verdict>bad|good)_")


def _parse_fixture(path):
    return parse_module(path.read_text(), path.as_posix())


def _all_fixtures():
    parsed = [_parse_fixture(p) for p in sorted(PURITY_FIXTURES.glob("*.py"))]
    assert parsed, "purity fixture corpus is missing"
    return parsed


def _config_for(parsed_modules):
    return PurityConfig(
        roots=tuple(f"{p.module}.root" for p in parsed_modules),
        method_roots=(),
        quarantine=(),
        source_path="<test>",
    )


def _fixture_cases():
    cases = []
    for path in sorted(PURITY_FIXTURES.glob("*.py")):
        match = _NAME.match(path.name)
        assert match, (
            f"purity fixture {path.name} does not follow "
            "<rule>_<bad|good>_* naming"
        )
        rule = match.group("rule").upper()
        cases.append(
            pytest.param(path, rule, match.group("verdict"), id=path.stem)
        )
    return cases


def _mod(module, source):
    path = module.replace(".", "/") + ".py"
    return parse_module(
        f"# repro: module={module}\n" + textwrap.dedent(source), path
    )


class TestFixtureCorpus:
    def test_corpus_shape(self):
        """Every PURE rule needs >=2 bad and >=1 good fixtures."""
        counts = {"PURE001": 0, "PURE002": 0, "PURE003": 0}
        good = 0
        for path in PURITY_FIXTURES.glob("*.py"):
            match = _NAME.match(path.name)
            assert match is not None
            if match.group("verdict") == "good":
                good += 1
            elif match.group("rule").upper() in counts:
                counts[match.group("rule").upper()] += 1
        # PURE002 bad fixtures double as PURE001/PURE003 context; each rule
        # still needs its own dedicated bad coverage.
        assert counts["PURE001"] >= 2
        assert counts["PURE002"] >= 2
        assert counts["PURE003"] >= 1
        assert good >= 2

    @pytest.mark.parametrize("path,rule,verdict", _fixture_cases())
    def test_fixture(self, path, rule, verdict):
        parsed = _all_fixtures()
        config = _config_for(parsed)
        findings = [
            f
            for f in lint_whole_program(parsed, Contract(config))
            if not f.suppressed
        ]
        mine = [f for f in findings if f.path == path.as_posix()]
        if verdict == "bad" and rule != "PURE":
            assert any(f.rule == rule for f in mine), (
                f"{path.name}: expected a {rule} finding, got "
                f"{[f.rule for f in mine]}"
            )
        elif verdict == "good":
            assert mine == [], (
                f"{path.name}: expected silence, got "
                f"{[f.format_human() for f in mine]}"
            )

    def test_witness_chain_appears_in_indirect_findings(self):
        parsed = _all_fixtures()
        config = _config_for(parsed)
        findings = lint_whole_program(parsed, Contract(config))
        wallclock = [
            f
            for f in findings
            if f.rule == "PURE002" and "wallclock" in f.path
        ]
        assert wallclock, "wallclock fixture did not fire"
        assert any("root -> _now" in f.message for f in wallclock)


class TestConfig:
    def test_missing_root_is_a_pure000_config_finding(self):
        parsed = {
            p.path: p for p in [_mod("pkg.a", "def real():\n    return 1\n")]
        }
        graph = build_graph(parsed)
        config = PurityConfig(
            roots=("pkg.a.absent",),
            method_roots=(),
            quarantine=(),
            source_path="contract.json",
        )
        roots = expand_roots(graph, config)
        findings = resolve_contract(
            ProgramContext(graph, Contract(config), parsed)
        )
        assert roots == []
        assert [f.rule for f in findings] == ["PURE000"]
        assert findings[0].path == "contract.json"
        assert "pkg.a.absent" in findings[0].message

    def test_method_roots_expand_to_subclass_overrides(self):
        parsed = {
            p.path: p
            for p in [
                _mod(
                    "pkg.abr",
                    """
                    class Base:
                        def choose(self):
                            return 0

                    class Sub(Base):
                        def choose(self):
                            return 1
                    """,
                )
            ]
        }
        graph = build_graph(parsed)
        config = PurityConfig(
            roots=(),
            method_roots=("pkg.abr.Base.choose",),
            quarantine=(),
            source_path="<test>",
        )
        roots = expand_roots(graph, config)
        findings = resolve_contract(
            ProgramContext(graph, Contract(config), parsed)
        )
        assert findings == []
        assert set(roots) == {"pkg.abr.Base.choose", "pkg.abr.Sub.choose"}

    def test_checked_in_config_names_real_functions(self):
        """The contract's purity section must stay in sync with src."""
        repo_root = Path(__file__).resolve().parents[2]
        config = load_contract(repo_root / "contract.json").purity
        src = repo_root / "src"
        parsed = {}
        for path in sorted(src.rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            text = path.read_text()
            pm = parse_module(text, path.as_posix())
            parsed[pm.path] = pm
        graph = build_graph(parsed, exclude_prefixes=config.quarantine)
        roots = expand_roots(graph, config)
        findings = resolve_contract(
            ProgramContext(graph, Contract(config), parsed)
        )
        assert findings == [], [f.format_human() for f in findings]
        assert "repro.experiment.harness.run_session" in roots
        # The ABR method root expands over every scheme implementation.
        choose_impls = [r for r in roots if r.endswith(".choose")]
        assert len(choose_impls) >= 5


class TestSuppressions:
    def test_inline_allow_silences_a_purity_finding(self):
        parsed = [
            _mod(
                "pkg.s",
                """
                import time


                def root():
                    # repro: allow-PURE002(fixture reason)
                    return time.time()
                """,
            )
        ]
        config = _config_for(parsed)
        findings = lint_whole_program(parsed, Contract(config))
        pure = [f for f in findings if f.rule == "PURE002"]
        assert pure and all(f.suppressed for f in pure)
        assert pure[0].suppression_reason == "fixture reason"

    def test_analyze_program_sorts_deterministically(self):
        parsed = {p.path: p for p in _all_fixtures()}
        contract = Contract(_config_for(list(parsed.values())))
        first = [f.format_human() for f in analyze_program(parsed, contract)]
        second = [f.format_human() for f in analyze_program(parsed, contract)]
        assert first == second == sorted(first, key=lambda s: s)

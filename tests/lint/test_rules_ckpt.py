"""Tests for the checkpoint-coverage rules CKPT000–CKPT002.

Covers the fixture corpus, the exclusion-config error surface (CKPT000),
and the acceptance-bar mutation test: adding an undeclared field to the
real ``FleetConfig`` must fail CKPT001 until it is fingerprinted or
allowlisted.
"""

from pathlib import Path

import pytest

from repro.lint.contract import Contract, load_contract
from repro.lint.engine import lint_whole_program, parse_module
from repro.lint.purity import PurityConfig
from repro.lint.rules_ckpt import (
    ClassCoverage,
    FingerprintExclusions,
)

FIXTURES = Path(__file__).parent / "ckpt_fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]

BAD_CLASS = "fixturepkg.ckpt001_bad_field.JobConfig"
GOOD_CLASS = "fixturepkg.ckpt001_good_covered.JobConfig"


def _lint(named_sources, exclusions=None):
    parsed = [
        parse_module(text, (FIXTURES / f"{stem}.py").as_posix())
        for stem, text in sorted(named_sources.items())
    ]
    config = PurityConfig(roots=(), source_path="<test>")
    contract = Contract(config, fingerprint=exclusions)
    return list(lint_whole_program(parsed, contract))


def _sources(*stems):
    return {stem: (FIXTURES / f"{stem}.py").read_text() for stem in stems}


def _coverage(class_qual, exclude=None):
    module = class_qual.rsplit(".", 1)[0]
    return ClassCoverage(
        fingerprint=(f"{module}.JobConfig.fingerprint",),
        exclude=dict(exclude or {}),
    )


class TestCkpt001:
    def test_uncovered_field_fires(self):
        exclusions = FingerprintExclusions(
            classes={BAD_CLASS: _coverage(BAD_CLASS)}
        )
        findings = _lint(_sources("ckpt001_bad_field"), exclusions)
        ckpt = [f for f in findings if f.rule == "CKPT001"]
        assert len(ckpt) == 1
        assert "'verbose'" in ckpt[0].message

    def test_covered_and_excluded_fields_are_silent(self):
        exclusions = FingerprintExclusions(
            classes={
                GOOD_CLASS: _coverage(
                    GOOD_CLASS, {"workers": "execution knob only"}
                )
            }
        )
        findings = _lint(_sources("ckpt001_good_covered"), exclusions)
        assert [f for f in findings if f.rule.startswith("CKPT00")] == []

    def test_rule_is_off_without_an_exclusions_config(self):
        findings = _lint(_sources("ckpt001_bad_field"))
        assert [f for f in findings if f.rule == "CKPT001"] == []

    def test_excluding_the_field_pacifies_it(self):
        exclusions = FingerprintExclusions(
            classes={
                BAD_CLASS: _coverage(
                    BAD_CLASS, {"verbose": "logging toggle only"}
                )
            }
        )
        findings = _lint(_sources("ckpt001_bad_field"), exclusions)
        assert [f for f in findings if f.rule == "CKPT001"] == []


class TestCkpt000ConfigErrors:
    def test_unknown_class_in_scope_is_a_config_error(self):
        exclusions = FingerprintExclusions(
            classes={
                "fixturepkg.ckpt001_bad_field.Ghost": _coverage(BAD_CLASS)
            }
        )
        findings = _lint(_sources("ckpt001_bad_field"), exclusions)
        errors = [f for f in findings if f.rule == "CKPT000"]
        assert len(errors) == 1
        assert "Ghost" in errors[0].message

    def test_unknown_fingerprint_function_in_scope_is_a_config_error(self):
        exclusions = FingerprintExclusions(
            classes={
                BAD_CLASS: ClassCoverage(
                    fingerprint=("fixturepkg.ckpt001_bad_field.digest",),
                    exclude={},
                )
            }
        )
        findings = _lint(_sources("ckpt001_bad_field"), exclusions)
        errors = [f for f in findings if f.rule == "CKPT000"]
        assert len(errors) == 1
        assert "digest" in errors[0].message

    def test_out_of_scope_entries_are_skipped_quietly(self):
        """A partial lint must not demand the whole tree: entries whose
        module was not linted are out of scope, not config errors."""
        exclusions = FingerprintExclusions(
            classes={
                "repro.fleet.runner.FleetConfig": ClassCoverage(
                    fingerprint=(
                        "repro.fleet.runner.FleetConfig.fingerprint",
                    ),
                    exclude={"chunk_sessions": "cadence"},
                )
            }
        )
        findings = _lint(_sources("ckpt001_bad_field"), exclusions)
        assert [f for f in findings if f.rule.startswith("CKPT00")] == []

    def test_stale_exclusion_for_missing_field_is_a_config_error(self):
        exclusions = FingerprintExclusions(
            classes={
                BAD_CLASS: _coverage(BAD_CLASS, {"ghost_field": "stale"})
            }
        )
        findings = _lint(_sources("ckpt001_bad_field"), exclusions)
        errors = [f for f in findings if f.rule == "CKPT000"]
        assert any("ghost_field" in f.message for f in errors)

    def test_stale_exclusion_for_covered_field_is_a_config_error(self):
        exclusions = FingerprintExclusions(
            classes={
                BAD_CLASS: _coverage(
                    BAD_CLASS,
                    {"seed": "stale", "verbose": "real exclusion"},
                )
            }
        )
        findings = _lint(_sources("ckpt001_bad_field"), exclusions)
        errors = [f for f in findings if f.rule == "CKPT000"]
        assert any("'seed'" in f.message for f in errors)


class TestCkpt002:
    def test_unthreaded_nonlocal_fires(self):
        findings = _lint(_sources("ckpt002_bad_nonlocal"))
        ckpt = [f for f in findings if f.rule == "CKPT002"]
        assert len(ckpt) == 1
        assert "'commits'" in ckpt[0].message
        assert "next_session_id" not in ckpt[0].message

    @pytest.mark.parametrize(
        "stem", ["ckpt002_good_extra", "ckpt002_good_helper"]
    )
    def test_threaded_state_is_silent(self, stem):
        findings = _lint(_sources(stem))
        assert [f for f in findings if f.rule == "CKPT002"] == []

    def test_threading_the_counter_repairs_the_bad_fixture(self):
        sources = _sources("ckpt002_bad_nonlocal")
        sources["ckpt002_bad_nonlocal"] = sources[
            "ckpt002_bad_nonlocal"
        ].replace("sink=sink,", 'sink=sink,\n        extra={"commits": commits},')
        findings = _lint(sources)
        assert [f for f in findings if f.rule == "CKPT002"] == []


class TestFleetConfigMutation:
    """The acceptance bar: a new undeclared FleetConfig knob must fail."""

    RUNNER = REPO_ROOT / "src" / "repro" / "fleet" / "runner.py"
    EXCLUSIONS = FingerprintExclusions(
        classes={
            "repro.fleet.runner.FleetConfig": ClassCoverage(
                fingerprint=("repro.fleet.runner.FleetConfig.fingerprint",),
                exclude={
                    "chunk_sessions": "cadence only",
                },
            )
        }
    )

    def _lint_runner(self, text):
        parsed = [parse_module(text, "src/repro/fleet/runner.py")]
        config = PurityConfig(roots=(), source_path="<test>")
        return [
            f
            for f in lint_whole_program(
                parsed, Contract(config, fingerprint=self.EXCLUSIONS)
            )
            if f.rule == "CKPT001"
        ]

    def test_unmodified_fleet_config_is_fully_declared(self):
        assert self._lint_runner(self.RUNNER.read_text()) == []

    def test_new_undeclared_field_fails_before_allowlisting(self):
        text = self.RUNNER.read_text()
        anchor = "    chunk_sessions: int = DEFAULT_CHUNK_SESSIONS"
        assert anchor in text
        mutated = text.replace(
            anchor, "    new_knob: int = 0\n" + anchor, 1
        )
        findings = self._lint_runner(mutated)
        assert len(findings) == 1
        assert "'new_knob'" in findings[0].message

    def test_allowlisting_the_new_field_restores_green(self):
        text = self.RUNNER.read_text()
        anchor = "    chunk_sessions: int = DEFAULT_CHUNK_SESSIONS"
        mutated = text.replace(
            anchor, "    new_knob: int = 0\n" + anchor, 1
        )
        exclusions = FingerprintExclusions(
            classes={
                "repro.fleet.runner.FleetConfig": ClassCoverage(
                    fingerprint=(
                        "repro.fleet.runner.FleetConfig.fingerprint",
                    ),
                    exclude={
                        "chunk_sessions": "cadence only",
                        "new_knob": "decided: execution knob",
                    },
                )
            }
        )
        parsed = [parse_module(mutated, "src/repro/fleet/runner.py")]
        config = PurityConfig(roots=(), source_path="<test>")
        contract = Contract(config, fingerprint=exclusions)
        findings = [
            f
            for f in lint_whole_program(parsed, contract)
            if f.rule == "CKPT001"
        ]
        assert findings == []

    def test_checked_in_exclusions_match_the_tree(self):
        """The contract's fingerprint section validates against src."""
        real = load_contract(REPO_ROOT / "contract.json").fingerprint
        assert real is not None
        assert "repro.fleet.runner.FleetConfig" in real.classes
        for coverage in real.classes.values():
            for reason in coverage.exclude.values():
                assert reason.strip()

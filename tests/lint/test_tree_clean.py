"""Tier-1 gate: the source tree must lint clean.

This is the enforcement point for the determinism contract — the same
checks CI runs as ``repro lint src --whole-program``.  Inline reasoned
suppressions are the only waiver mechanism, and every suppression in the
tree must carry a reason.
"""

from pathlib import Path

import pytest

from repro.lint import lint_paths, load_contract

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src" / "repro"


@pytest.fixture(scope="module")
def per_file_report():
    """One per-file run over the tree, shared by the two tests below."""
    return lint_paths([SRC])


class TestTreeClean:
    def test_src_lints_clean(self, per_file_report):
        report = per_file_report
        assert report.files_checked > 50
        assert not report.parse_errors, report.parse_errors
        assert not report.findings, "\n" + "\n".join(
            f.format_human() for f in report.findings
        )

    def test_all_suppressions_carry_reasons(self, per_file_report):
        for finding in per_file_report.suppressed:
            assert finding.suppression_reason.strip(), finding.format_human()


@pytest.fixture(scope="module")
def lint_cwd(tmp_path_factory):
    return tmp_path_factory.mktemp("lint-cwd")


@pytest.fixture(scope="module")
def whole_program_report(lint_cwd):
    """One whole-program run over the checked-in ``contract.json`` — what
    CI runs as ``repro lint src --whole-program`` — from an empty working
    directory, with ``CI`` unset."""
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv("CI", raising=False)
        patch.chdir(lint_cwd)
        return lint_paths(
            [SRC], contract=load_contract(REPO_ROOT / "contract.json")
        )


class TestTreeCleanWholeProgram:
    """Every rule family the contract turns on — purity, seed lineage,
    checkpoint coverage and durability — in one run."""

    def test_src_lints_clean_whole_program(self, whole_program_report):
        report = whole_program_report
        assert report.whole_program
        assert not report.parse_errors, report.parse_errors
        assert not report.findings, "\n" + "\n".join(
            f.format_human() for f in report.findings
        )

    def test_waivers_are_reasoned_and_counted(self, whole_program_report):
        waived = whole_program_report.suppressed
        for finding in waived:
            assert finding.suppression_reason.strip(), finding.format_human()
        families = {f.rule.rstrip("0123456789") for f in waived}
        assert {"PURE", "SEED", "CKPT"} <= families
        # A waiver added or removed is a reviewed change to this number.
        assert len(waived) == 15

    def test_lint_writes_nothing_into_the_working_directory(
        self, whole_program_report, lint_cwd
    ):
        """Both phases only read: the run leaves the directory it ran in
        as empty as it found it."""
        assert whole_program_report.files_checked > 50
        assert list(lint_cwd.iterdir()) == []

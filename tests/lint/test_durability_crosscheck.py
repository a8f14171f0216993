"""Static ↔ dynamic crosscheck for the durability rules (DUR001–DUR004).

The acceptance bar mirrors ``test_purity_crosscheck.py``'s fail-open
pairing: every bad fixture the static analyzer flags must also produce a
detectable torn crash state when its ``root`` actually runs under the
:class:`repro.crashpoints.PowerLossSimulator` — except the one documented
static-only over-approximation (the missing directory fsync, which the
simulator's ext4-ordered crash model deliberately treats as safe).  Good
fixtures must be silent on both sides: no DUR findings, no torn state.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.crashpoints import find_torn_state
from repro.lint.contract import Contract
from repro.lint.engine import lint_whole_program, parse_module
from repro.lint.purity import PurityConfig
from repro.lint.rules_durability import CommitOrderPair, DurabilityConfig

FIXTURES = Path(__file__).parent / "durability_fixtures"

#: Declared write-order invariants for the DUR003 fixtures.
COMMIT_ORDER = (
    CommitOrderPair(
        first="durfix.dur003_bad_manifest_first.write_blob",
        then="durfix.dur003_bad_manifest_first.write_index",
        reason="the index must never name a blob a crash can lose",
    ),
    CommitOrderPair(
        first="durfix.dur003_bad_checkpoint_before_flush.flush_rows",
        then="durfix.dur003_bad_checkpoint_before_flush.save_marker",
        reason="the marker offset must reference rows already on disk",
    ),
    CommitOrderPair(
        first="durfix.dur003_good_data_first.store_blob",
        then="durfix.dur003_good_data_first.store_index",
        reason="the index must never name a blob a crash can lose",
    ),
)


def _load_fixture(stem):
    module_name = f"durfix.{stem}"
    path = FIXTURES / f"{stem}.py"
    spec = importlib.util.spec_from_file_location(module_name, path)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    sys.modules[module_name] = module
    try:
        spec.loader.exec_module(module)
    except Exception:
        sys.modules.pop(module_name, None)
        raise
    return module


def _durability_config():
    parsed = [
        parse_module(p.read_text(), p.as_posix())
        for p in sorted(FIXTURES.glob("*.py"))
    ]
    config = DurabilityConfig(
        roots=tuple(sorted(f"{p.module}.root" for p in parsed)),
        atomic_helpers=(
            "repro.atomio.atomic_write_bytes",
            "repro.atomio.atomic_write_text",
        ),
        exempt=(),
        commit_order=COMMIT_ORDER,
        source_path="<crosscheck>",
    )
    return parsed, config


@pytest.fixture(scope="module")
def static_rules():
    """Map fixture stem -> set of unsuppressed DUR rules it fires."""
    parsed, config = _durability_config()
    contract = Contract(
        PurityConfig(source_path="<crosscheck>"), durability=config
    )
    by_stem = {}
    for finding in lint_whole_program(parsed, contract):
        if finding.suppressed or not finding.rule.startswith("DUR"):
            continue
        by_stem.setdefault(Path(finding.path).stem, set()).add(finding.rule)
    return by_stem


# ---------------------------------------------------------------------------
# The dual corpus: every bad fixture fires its DUR rule statically AND has a
# torn crash state dynamically (except the documented static-only case).
# ---------------------------------------------------------------------------

BAD_FIXTURES = [
    pytest.param("dur001_bad_raw_write", "DUR001", True, id="raw_write"),
    pytest.param(
        "dur001_bad_pathlib_write", "DUR001", True, id="pathlib_write"
    ),
    pytest.param("dur002_bad_no_fsync", "DUR002", True, id="no_fsync"),
    pytest.param(
        "dur002_bad_fsync_after_rename",
        "DUR002",
        True,
        id="fsync_after_rename",
    ),
    # The documented static-only finding: the simulator's crash model
    # keeps renames (ext4-ordered), so no torn state exists dynamically.
    pytest.param("dur002_bad_no_dirsync", "DUR002", False, id="no_dirsync"),
    pytest.param(
        "dur003_bad_manifest_first", "DUR003", True, id="manifest_first"
    ),
    pytest.param(
        "dur003_bad_checkpoint_before_flush",
        "DUR003",
        True,
        id="checkpoint_before_flush",
    ),
    pytest.param("dur004_bad_rmw", "DUR004", True, id="rmw"),
    pytest.param(
        "dur004_bad_update_mode", "DUR004", True, id="update_mode"
    ),
]

GOOD_FIXTURES = [
    pytest.param("dur001_good_helper", id="helper"),
    pytest.param("dur002_good_protocol", id="protocol"),
    pytest.param("dur003_good_data_first", id="data_first"),
    pytest.param("dur004_good_commit_section", id="commit_section"),
]


class TestBadFixtures:
    @pytest.mark.parametrize("stem, rule, diverges", BAD_FIXTURES)
    def test_fires_statically(self, static_rules, stem, rule, diverges):
        fired = static_rules.get(stem, set())
        assert rule in fired, f"{stem}: expected {rule}, fired {fired}"

    @pytest.mark.parametrize("stem, rule, diverges", BAD_FIXTURES)
    def test_diverges_dynamically(self, tmp_path, stem, rule, diverges):
        module = _load_fixture(stem)
        try:
            torn = find_torn_state(
                tmp_path, module.setup, module.root, module.consistent
            )
        finally:
            sys.modules.pop(module.__name__, None)
        if diverges:
            assert torn is not None, (
                f"{stem}: static {rule} finding has no dynamic "
                "counterexample — the rule would be unfalsifiable"
            )
        else:
            assert torn is None, (
                f"{stem}: documented static-only, but the simulator "
                f"found a torn state at prefix {torn}"
            )


class TestGoodFixtures:
    @pytest.mark.parametrize("stem", GOOD_FIXTURES)
    def test_silent_statically(self, static_rules, stem):
        fired = static_rules.get(stem, set())
        assert not fired, f"{stem}: expected silence, fired {fired}"

    @pytest.mark.parametrize("stem", GOOD_FIXTURES)
    def test_no_torn_state(self, tmp_path, stem):
        module = _load_fixture(stem)
        try:
            torn = find_torn_state(
                tmp_path, module.setup, module.root, module.consistent
            )
        finally:
            sys.modules.pop(module.__name__, None)
        assert torn is None, f"{stem}: torn state at prefix {torn}"


class TestConfigErrors:
    def test_missing_root_is_dur000(self):
        parsed, config = _durability_config()
        broken = DurabilityConfig(
            roots=config.roots + ("durfix.dur001_bad_raw_write.missing",),
            atomic_helpers=config.atomic_helpers,
            exempt=(),
            commit_order=(),
            source_path="<crosscheck>",
        )
        contract = Contract(
            PurityConfig(source_path="<crosscheck>"), durability=broken
        )
        findings = lint_whole_program(parsed, contract)
        dur000 = [f for f in findings if f.rule == "DUR000"]
        assert dur000 and "missing" in dur000[0].message

    def test_missing_pair_member_is_dur000(self):
        parsed, config = _durability_config()
        broken = DurabilityConfig(
            roots=config.roots,
            atomic_helpers=config.atomic_helpers,
            exempt=(),
            commit_order=(
                CommitOrderPair(
                    first="durfix.dur003_good_data_first.store_blob",
                    then="durfix.dur003_good_data_first.gone",
                    reason="",
                ),
            ),
            source_path="<crosscheck>",
        )
        contract = Contract(
            PurityConfig(source_path="<crosscheck>"), durability=broken
        )
        findings = lint_whole_program(parsed, contract)
        assert any(f.rule == "DUR000" for f in findings)

    def test_out_of_scope_entries_stay_quiet(self):
        # Partial lints (fixtures only) must not flag the real-tree
        # helpers declared in contract.json.
        parsed, config = _durability_config()
        contract = Contract(
            PurityConfig(source_path="<crosscheck>"), durability=config
        )
        findings = lint_whole_program(parsed, contract)
        assert not any(f.rule == "DUR000" for f in findings)


class TestMutationSensitivity:
    """Textual mutations flip each verdict — the analyzer tracks the
    code, not the file name."""

    def _lint_sources(self, sources, commit_order=()):
        parsed = [
            parse_module(text, f"tests/mutated/{name}.py")
            for name, text in sources.items()
        ]
        config = DurabilityConfig(
            roots=tuple(sorted(f"{p.module}.root" for p in parsed)),
            atomic_helpers=(
                "repro.atomio.atomic_write_bytes",
                "repro.atomio.atomic_write_text",
            ),
            exempt=(),
            commit_order=commit_order,
            source_path="<mutation>",
        )
        contract = Contract(
            PurityConfig(source_path="<mutation>"), durability=config
        )
        findings = lint_whole_program(parsed, contract)
        return {
            f.rule
            for f in findings
            if not f.suppressed and f.rule.startswith("DUR")
        }

    def test_good_protocol_minus_fsync_fires(self):
        source = (FIXTURES / "dur002_good_protocol.py").read_text()
        mutated = source.replace("        os.fsync(f.fileno())\n", "")
        assert mutated != source
        assert "DUR002" in self._lint_sources(
            {"dur002_good_protocol": mutated}
        )

    def test_bad_raw_write_routed_through_helper_goes_quiet(self):
        source = (FIXTURES / "dur001_bad_raw_write.py").read_text()
        mutated = source.replace(
            '    with open(base / "state.json", "w") as f:\n'
            '        f.write(json.dumps({"value": 2}))\n',
            "    atomic_write_text("
            'base / "state.json", json.dumps({"value": 2}))\n',
        ).replace(
            "import json\n",
            "import json\n\nfrom repro.atomio import atomic_write_text\n",
        )
        assert "atomic_write_text" in mutated
        assert self._lint_sources({"dur001_bad_raw_write": mutated}) == set()

    def test_swapping_commit_order_flips_dur003(self):
        source = (FIXTURES / "dur003_good_data_first.py").read_text()
        good_body = "    store_blob(base)\n    store_index(base)\n"
        assert good_body in source
        mutated = source.replace(
            good_body, "    store_index(base)\n    store_blob(base)\n"
        )
        # The checked-in module pragma survives the mutation, so the
        # pair members keep their durfix qualnames.
        pair = (
            CommitOrderPair(
                first="durfix.dur003_good_data_first.store_blob",
                then="durfix.dur003_good_data_first.store_index",
                reason="",
            ),
        )
        assert "DUR003" in self._lint_sources(
            {"dur003_good_data_first": mutated}, commit_order=pair
        )
        assert self._lint_sources(
            {"dur003_good_data_first": source}, commit_order=pair
        ) == set()

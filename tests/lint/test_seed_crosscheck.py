"""Static ↔ dynamic crosscheck for the seed-lineage rules and the runtime
seed registry.

Every SEED rule has at least one fixture that fails on BOTH sides: the
whole-program pass flags it statically, and actually running its ``root``
under ``sanitizer.guard`` (with colliding arguments) trips the runtime —
the duplicate-seed registry for SEED001–SEED003, the ``fork_map``
generator tripwire for SEED004.  Good fixtures are silent on both sides.
This is the same fail-open pairing contract the purity subsystem holds
(see ``test_purity_crosscheck.py``).
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from repro import sanitizer
from repro.lint.contract import Contract
from repro.lint.engine import lint_whole_program, parse_module
from repro.lint.purity import PurityConfig
from repro.sanitizer import SanitizerViolation

FIXTURES = Path(__file__).parent / "dataflow_fixtures"


def _load_fixture(stem):
    module_name = f"fixturepkg.{stem}"
    path = FIXTURES / f"{stem}.py"
    spec = importlib.util.spec_from_file_location(module_name, path)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    sys.modules[module_name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def sandbox():
    """Arm the sanitizer around one fixture module; always disarm."""
    loaded = []

    def arm(stem):
        module = _load_fixture(stem)
        loaded.append(module.__name__)
        sanitizer.install([module.__name__])
        return module

    yield arm
    sanitizer.uninstall()
    for name in loaded:
        sys.modules.pop(name, None)


@pytest.fixture(scope="module")
def static_rules():
    """Map fixture stem -> set of unsuppressed SEED rules it fires."""
    parsed = [
        parse_module(p.read_text(), p.as_posix())
        for p in sorted(FIXTURES.glob("*.py"))
    ]
    config = PurityConfig(roots=(), source_path="<crosscheck>")
    by_stem = {}
    for finding in lint_whole_program(parsed, Contract(config)):
        if finding.suppressed:
            continue
        stem = Path(finding.path).stem
        by_stem.setdefault(stem, set()).add(finding.rule)
    return by_stem


# ---------------------------------------------------------------------------
# The dual corpus: (stem, static rule, runtime call, violation fragment).
# Every SEED rule appears at least once.
# ---------------------------------------------------------------------------

DUAL_PAIRS = [
    pytest.param(
        "seed001_bad_mul_add",
        "SEED001",
        lambda m: m.root(7, 3, 3),
        "duplicate materialized seed",
        id="seed001_mul_add",
    ),
    pytest.param(
        "seed001_bad_xor",
        "SEED001",
        lambda m: m.root(0, 4, 4),
        "duplicate materialized seed",
        id="seed001_xor",
    ),
    pytest.param(
        "seed002_bad_shared",
        "SEED002",
        lambda m: m.root(5, 2),
        "duplicate materialized seed",
        id="seed002_class_handoff",
    ),
    pytest.param(
        "seed002_bad_module_fn",
        "SEED002",
        lambda m: m.root(3),
        "duplicate materialized seed",
        id="seed002_inlined_helper",
    ),
    pytest.param(
        "seed003_bad_pair",
        "SEED003",
        lambda m: m.root(6, 6),
        "duplicate materialized seed",
        id="seed003_permuted_fold",
    ),
    pytest.param(
        "seed003_bad_var",
        "SEED003",
        lambda m: m.root(2, 2),
        "duplicate materialized seed",
        id="seed003_fold_via_variable",
    ),
    pytest.param(
        "seed004_bad_forkmap",
        "SEED004",
        lambda m: m.root(9),
        "generator crossed a process boundary",
        id="seed004_fork_map",
    ),
]


class TestFailOpenPairs:
    @pytest.mark.parametrize("stem,rule,call,fragment", DUAL_PAIRS)
    def test_static_flag_has_a_dynamic_trip(
        self, sandbox, static_rules, stem, rule, call, fragment
    ):
        assert rule in static_rules.get(stem, set()), (
            f"{stem}: static pass did not fire {rule} "
            f"(got {static_rules.get(stem)})"
        )
        module = sandbox(stem)
        with pytest.raises(SanitizerViolation) as err:
            with sanitizer.guard(stem):
                call(module)
        assert fragment in str(err.value), str(err.value)

    @pytest.mark.parametrize("stem,rule,call,fragment", DUAL_PAIRS)
    def test_trip_requires_the_guard(self, sandbox, stem, rule, call, fragment):
        """Outside a guard scope the patched tree must stay benign."""
        module = sandbox(stem)
        call(module)  # no guard -> no SanitizerViolation

    def test_every_seed_rule_has_a_dual_pair(self):
        rules = {rule for _, rule, _, _ in (p.values for p in DUAL_PAIRS)}
        assert rules == {"SEED001", "SEED002", "SEED003", "SEED004"}


class TestGoodFixturesStaySilent:
    GOODS = [
        pytest.param(
            "seed001_good_tuple", lambda m: m.root(4, 1, 1), id="seed001"
        ),
        pytest.param("seed002_good_split", lambda m: m.root(3), id="seed002"),
        pytest.param(
            "seed003_good_const", lambda m: m.root(5, 5), id="seed003"
        ),
        pytest.param("seed004_good_tuple", lambda m: m.root(2), id="seed004"),
    ]

    @pytest.mark.parametrize("stem,call", GOODS)
    def test_good_root_is_statically_clean(self, static_rules, stem, call):
        assert static_rules.get(stem, set()) == set()

    @pytest.mark.parametrize("stem,call", GOODS)
    def test_good_root_runs_clean_under_guard(self, sandbox, stem, call):
        module = sandbox(stem)
        with sanitizer.guard(stem):
            result = call(module)
        assert result is not None


class TestSeedRegistry:
    def test_same_site_replay_is_exempt(self, sandbox):
        """Re-materializing the same seed at the SAME site is replay, not
        duplication — the oboe/emulator rebuild idiom."""
        module = sandbox("seed001_good_tuple")
        with sanitizer.guard("replay"):
            module.root(1, 2, 3)
            module.root(1, 2, 3)

    def test_registry_records_normalized_seeds(self, sandbox):
        module = sandbox("seed003_good_const")
        with sanitizer.guard("records"):
            module.root(5, 1)
            records = sanitizer.seed_records()
        keys = [key for key, _ in records]
        assert ("tuple", 5, 0x5A, 1) in keys
        assert ("tuple", 5, 0x5B, 1) in keys

    def test_registry_clears_per_guard(self, sandbox):
        module = sandbox("seed001_bad_mul_add")
        with sanitizer.guard("first"):
            module.root(7, 3, 4)
            assert len(sanitizer.seed_records()) >= 2
        with sanitizer.guard("second"):
            assert sanitizer.seed_records() == []

    def test_allow_comment_pacifies_the_registry(self, sandbox):
        module = sandbox("seed002_allowed_shared")
        with sanitizer.guard("allowed"):
            result = module.root(5)
        assert isinstance(result, float)


class TestStaticOnlyPool:
    """The documented asymmetry: pool-style methods are a static-only
    over-approximation; the runtime tripwire covers only ``fork_map``."""

    def test_static_fires_but_dynamic_is_silent(self, sandbox, static_rules):
        assert "SEED004" in static_rules["seed004_bad_pool"]
        module = sandbox("seed004_bad_pool")
        with sanitizer.guard("pool"):
            result = module.root(11)
        assert isinstance(result, float)

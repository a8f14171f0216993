"""Static ↔ dynamic crosscheck for the purity analyzer and the sanitizer.

The acceptance bar for the purity subsystem is *fail-open pairing*: every
bad fixture the static pass flags must also trip the runtime sanitizer when
its ``root`` actually runs under ``sanitizer.guard`` — except the one
documented static-only over-approximation (the nonlocal cell).  Good
fixtures must be silent on both sides.  Plus the hash-seed canary and a
sanitized serial/parallel bit-equivalence run.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import sanitizer
from repro.experiment.harness import RandomizedTrial, TrialConfig
from repro.lint.contract import Contract
from repro.lint.engine import lint_whole_program, parse_module
from repro.lint.purity import PurityConfig
from repro.sanitizer import SanitizerViolation

FIXTURES = Path(__file__).parent / "purity_fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]


# ---------------------------------------------------------------------------
# Fixture loading: execute a purity fixture under its pragma module name so
# the sanitizer's namespace snapshots (keyed by sys.modules) can see it.
# ---------------------------------------------------------------------------


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
    os.environ.pop("PURITY_FIXTURE_SESSION", None)


@pytest.fixture(scope="module")
def static_rules():
    """Map fixture stem -> set of unsuppressed PURE rules it fires."""
    parsed = [
        parse_module(p.read_text(), p.as_posix())
        for p in sorted(FIXTURES.glob("*.py"))
    ]
    config = PurityConfig(
        roots=tuple(f"{p.module}.root" for p in parsed),
        method_roots=(),
        quarantine=(),
        source_path="<crosscheck>",
    )
    by_stem = {}
    for finding in lint_whole_program(parsed, Contract(config)):
        if finding.suppressed:
            continue
        stem = Path(finding.path).stem
        by_stem.setdefault(stem, set()).add(finding.rule)
    return by_stem


# ---------------------------------------------------------------------------
# The dual corpus: (stem, static rule, runtime call, violation fragment).
# Eight pairs — each fails open on BOTH sides.
# ---------------------------------------------------------------------------

DUAL_PAIRS = [
    pytest.param(
        "pure001_bad_global_rebind",
        "PURE001",
        lambda m: m.root(3),
        "module state mutated",
        id="global_rebind",
    ),
    pytest.param(
        "pure001_bad_module_cache",
        "PURE001",
        lambda m: m.root(5),
        "module state mutated",
        id="module_cache",
    ),
    pytest.param(
        "pure001_bad_class_attr",
        "PURE001",
        lambda m: m.root(7),
        "module state mutated",
        id="class_attr",
    ),
    pytest.param(
        "pure002_bad_wallclock",
        "PURE002",
        lambda m: m.root(1),
        "wall-clock read",
        id="wallclock",
    ),
    pytest.param(
        "pure002_bad_global_random",
        "PURE002",
        lambda m: m.root(1),
        "global-RNG draw",
        id="global_random",
    ),
    pytest.param(
        "pure002_bad_numpy_global",
        "PURE002",
        lambda m: m.root(1),
        "global-RNG draw",
        id="numpy_global",
    ),
    pytest.param(
        "pure002_bad_environ_write",
        "PURE002",
        lambda m: m.root(1),
        "environment write",
        id="environ_write",
    ),
    pytest.param(
        "pure003_bad_dual_rng",
        "PURE003",
        lambda m: m.root(2, np.random.default_rng(0)),
        "unseeded RNG construction",
        id="dual_rng",
    ),
]


class TestFailOpenPairs:
    @pytest.mark.parametrize("stem,rule,call,fragment", DUAL_PAIRS)
    def test_static_flag_has_a_dynamic_trip(
        self, sandbox, static_rules, stem, rule, call, fragment
    ):
        # Static side: the whole-program pass flags the fixture.
        assert rule in static_rules.get(stem, set()), (
            f"{stem}: static pass did not fire {rule} "
            f"(got {static_rules.get(stem)})"
        )
        # Dynamic side: running root() under guard trips the sanitizer.
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

    def test_at_least_six_dual_pairs(self):
        assert len(DUAL_PAIRS) >= 6


class TestGoodFixturesStaySilent:
    @pytest.mark.parametrize(
        "stem,call",
        [
            pytest.param(
                "pure_good_seeded", lambda m: m.root(4), id="seeded"
            ),
            pytest.param(
                "pure003_good_fallback",
                lambda m: m.root(4),
                id="fallback_constructs",
            ),
            pytest.param(
                "pure003_good_fallback",
                lambda m: m.root(4, rng=np.random.default_rng(9)),
                id="fallback_threads",
            ),
        ],
    )
    def test_good_root_runs_clean_under_guard(self, sandbox, stem, call):
        module = sandbox(stem)
        with sanitizer.guard(stem):
            result = call(module)
        assert isinstance(result, float)

    def test_good_fixture_repeats_are_deterministic(self, sandbox):
        module = sandbox("pure_good_seeded")
        with sanitizer.guard("repeat"):
            first = module.root(11)
            second = module.root(11)
        assert first == second


class TestStaticOnlyNonlocal:
    """The documented asymmetry: PURE001 over-approximates nonlocal cells."""

    def test_static_fires_but_dynamic_is_silent(self, sandbox, static_rules):
        assert "PURE001" in static_rules["pure001_bad_nonlocal_cell"]
        module = sandbox("pure001_bad_nonlocal_cell")
        with sanitizer.guard("nonlocal"):
            total = module.root([1, 2, 3])
        assert total == 6  # cell died with the frame; no module state leaked


class TestHashCanary:
    def test_canary_is_stable_within_a_process(self):
        assert sanitizer.hash_canary() == sanitizer.hash_canary()
        assert len(sanitizer.hash_canary()) == 16

    def test_canary_varies_with_hash_seed(self):
        """Different PYTHONHASHSEEDs must yield different canaries for at
        least one pair — proving the canary actually senses hash ordering."""
        code = "from repro import sanitizer; print(sanitizer.hash_canary())"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        canaries = set()
        for seed in ("1", "2", "3", "4", "5"):
            env["PYTHONHASHSEED"] = seed
            out = subprocess.run(
                [sys.executable, "-c", code],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            canaries.add(out.stdout.strip())
        assert len(canaries) >= 2, canaries


def _classical_specs():
    from repro.abr.bba import BBA
    from repro.abr.mpc import MpcHm
    from repro.experiment.schemes import SchemeSpec

    return [
        SchemeSpec(
            name="bba", control="classical", predictor="n/a",
            optimization_goal="+SSIM s.t. bitrate < limit",
            how_trained="n/a", factory=BBA,
        ),
        SchemeSpec(
            name="mpc_hm", control="classical", predictor="classical (HM)",
            optimization_goal="+SSIM, -stalls, -dSSIM",
            how_trained="n/a", factory=MpcHm,
        ),
    ]


@pytest.mark.parallel_smoke
class TestSanitizedTrial:
    """The production path runs clean — and bit-identical — under guard."""

    def test_serial_parallel_equivalence_under_sanitizer(self, monkeypatch):
        monkeypatch.setenv(sanitizer.ENV_FLAG, "1")
        sanitizer.install(sanitizer.SNAPSHOT_MODULES)
        try:
            config = TrialConfig(n_sessions=8, seed=0, collect_telemetry=True)
            serial = RandomizedTrial(_classical_specs(), config).run()
            parallel = RandomizedTrial(_classical_specs(), config).run(
                workers=2
            )
        finally:
            sanitizer.uninstall()
        assert serial.expt_ids == parallel.expt_ids
        assert len(serial.sessions) == len(parallel.sessions)
        for sa, sb in zip(serial.sessions, parallel.sessions):
            assert sa.session_id == sb.session_id
            assert sa.scheme == sb.scheme
            for ra, rb in zip(sa.streams, sb.streams):
                assert ra.records == rb.records
                assert ra.stall_time == rb.stall_time
        assert serial.consort.arms == parallel.consort.arms
        assert serial.telemetry is not None
        assert parallel.telemetry is not None
        assert serial.telemetry.video_sent == parallel.telemetry.video_sent

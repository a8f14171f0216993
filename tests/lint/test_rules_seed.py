"""Static tests for the SEED001–SEED004 rules over the dual fixture corpus.

Three layers:

* the fixture sweep — every bad fixture fires exactly its documented rule
  set, every good fixture is silent;
* mutation sensitivity — string-level edits flip goods bad and bads good,
  proving the fixtures actually exercise the rule logic rather than
  passing vacuously;
* the CLI contract — JSON schema and exit codes for whole-program SEED
  findings.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint.contract import Contract
from repro.lint.engine import lint_whole_program, parse_module
from repro.lint.purity import PurityConfig

FIXTURES = Path(__file__).parent / "dataflow_fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]

EXPECTED_RULES = {
    "seed001_bad_mul_add": {"SEED001"},
    "seed001_bad_xor": {"SEED001"},
    "seed001_good_tuple": set(),
    "seed002_bad_shared": {"SEED001", "SEED002"},
    "seed002_bad_module_fn": {"SEED002"},
    "seed002_good_split": set(),
    "seed002_allowed_shared": set(),
    "seed003_bad_pair": {"SEED003"},
    "seed003_bad_var": {"SEED003"},
    "seed003_good_const": set(),
    "seed004_bad_forkmap": {"SEED004"},
    "seed004_bad_pool": {"SEED004"},
    "seed004_good_tuple": set(),
}


def _lint(named_sources):
    """Lint {stem: source} under an empty-roots whole-program config."""
    parsed = [
        parse_module(text, (FIXTURES / f"{stem}.py").as_posix())
        for stem, text in sorted(named_sources.items())
    ]
    config = PurityConfig(roots=(), source_path="<test>")
    return list(lint_whole_program(parsed, Contract(config)))


def _corpus_sources():
    return {p.stem: p.read_text() for p in sorted(FIXTURES.glob("*.py"))}


@pytest.fixture(scope="module")
def corpus_findings():
    return _lint(_corpus_sources())


class TestFixtureSweep:
    def test_corpus_matches_expectations(self):
        assert set(_corpus_sources()) == set(EXPECTED_RULES)

    @pytest.mark.parametrize("stem", sorted(EXPECTED_RULES))
    def test_fixture_fires_exactly_its_rules(self, corpus_findings, stem):
        fired = {
            f.rule
            for f in corpus_findings
            if Path(f.path).stem == stem and not f.suppressed
        }
        assert fired == EXPECTED_RULES[stem]

    def test_allowed_fixture_is_suppressed_not_clean(self, corpus_findings):
        suppressed = {
            f.rule
            for f in corpus_findings
            if Path(f.path).stem == "seed002_allowed_shared" and f.suppressed
        }
        assert "SEED002" in suppressed

    def test_findings_name_the_consumer_sites(self, corpus_findings):
        shared = [
            f
            for f in corpus_findings
            if f.rule == "SEED002"
            and Path(f.path).stem == "seed002_bad_module_fn"
        ]
        assert len(shared) == 1
        assert "2 independent RNG consumers" in shared[0].message


MUTATIONS = [
    pytest.param(
        "seed001_good_tuple",
        [("(seed, 0x51, i)", "seed * 1_000_003 + i")],
        "SEED001",
        id="good_tuple_to_arith",
    ),
    pytest.param(
        "seed002_good_split",
        [
            (
                "    rng = np.random.default_rng((seed, 0xA1))\n"
                "    return float(rng.random()) + _score((seed, 0xB2))",
                "    derived = seed + 41\n"
                "    rng = np.random.default_rng(derived)\n"
                "    return float(rng.random()) + _score(derived)",
            )
        ],
        "SEED002",
        id="good_split_to_shared",
    ),
    pytest.param(
        "seed003_good_const",
        [("(seed, _STREAM_A, i)", "(seed, i)")],
        "SEED003",
        id="good_const_to_bare_fold",
    ),
    pytest.param(
        "seed004_good_tuple",
        [("(seed, 0.5)", "(np.random.default_rng((seed, 0x66)), 0.5)")],
        "SEED004",
        id="good_tuple_to_generator_crossing",
    ),
]


class TestMutationSensitivity:
    @pytest.mark.parametrize("stem,replacements,rule", MUTATIONS)
    def test_degrading_a_good_fixture_fires_the_rule(
        self, stem, replacements, rule
    ):
        sources = _corpus_sources()
        mutated = sources[stem]
        for old, new in replacements:
            assert old in mutated, f"mutation anchor missing in {stem}"
            mutated = mutated.replace(old, new)
        sources[stem] = mutated
        fired = {
            f.rule
            for f in _lint(sources)
            if Path(f.path).stem == stem and not f.suppressed
        }
        assert rule in fired

    def test_repairing_a_bad_fixture_silences_it(self):
        sources = _corpus_sources()
        repaired = sources["seed001_bad_mul_add"]
        repaired = repaired.replace("seed * 1_000_003 + i", "(seed, 0x51, i)")
        repaired = repaired.replace("seed * 1_000_003 + j", "(seed, 0x52, j)")
        sources["seed001_bad_mul_add"] = repaired
        fired = {
            f.rule
            for f in _lint(sources)
            if Path(f.path).stem == "seed001_bad_mul_add" and not f.suppressed
        }
        assert fired == set()


# ---------------------------------------------------------------------------
# CLI contract.
# ---------------------------------------------------------------------------


def _run_cli(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        env={
            "PYTHONPATH": (REPO_ROOT / "src").as_posix(),
            "PATH": "/usr/bin:/bin",
        },
    )


@pytest.fixture
def cli_tree(tmp_path):
    """A tmp tree with one bad fixture, one good, and an empty-roots
    contract."""
    (tmp_path / "contract.json").write_text(
        json.dumps({"version": 2, "purity": {"roots": []}})
    )
    bad = tmp_path / "seed001_bad_mul_add.py"
    bad.write_text((FIXTURES / "seed001_bad_mul_add.py").read_text())
    good = tmp_path / "seed001_good_tuple.py"
    good.write_text((FIXTURES / "seed001_good_tuple.py").read_text())
    return tmp_path


class TestCli:
    def test_bad_fixture_exits_one_with_schema_v2_json(self, cli_tree):
        proc = _run_cli(
            [
                "seed001_bad_mul_add.py",
                "--whole-program",
                "--format",
                "json",
            ],
            cwd=cli_tree,
        )
        assert proc.returncode == 1, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["schema_version"] == 2
        assert payload["whole_program"] is True
        assert payload["ok"] is False
        rules = {f["rule"] for f in payload["findings"]}
        assert rules == {"SEED001"}
        for finding in payload["findings"]:
            assert {"rule", "path", "line", "col", "message"} <= set(finding)

    def test_good_fixture_exits_zero(self, cli_tree):
        proc = _run_cli(
            [
                "seed001_good_tuple.py",
                "--whole-program",
                "--format",
                "json",
            ],
            cwd=cli_tree,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["findings"] == []

    def test_bad_contract_path_exits_two(self, cli_tree):
        proc = _run_cli(
            [
                "seed001_good_tuple.py",
                "--whole-program",
                "--contract",
                "does-not-exist.json",
            ],
            cwd=cli_tree,
        )
        assert proc.returncode == 2
        assert "error" in proc.stderr.lower()

"""The content-hash findings cache (``repro.lint.cache``).

Policy (off in CI / ``REPRO_LINT_CACHE=0``), hit/miss accounting through
``lint_paths``, invalidation on content and rule-set changes, corrupt-entry
tolerance, and the guarantee that the whole-program phase is re-run even
when every per-file entry hits.
"""

import json

import pytest

import repro.lint.cache as cache_mod
from repro.lint.cache import FindingsCache, cache_dir, cache_enabled
from repro.lint.engine import lint_paths, lint_source
from repro.lint.contract import Contract
from repro.lint.purity import PurityConfig


@pytest.fixture
def cache_env(tmp_path, monkeypatch):
    """Isolated cache dir; policy env vars cleared."""
    cache_root = tmp_path / "cache"
    monkeypatch.setenv("REPRO_LINT_CACHE_DIR", str(cache_root))
    monkeypatch.delenv("REPRO_LINT_CACHE", raising=False)
    monkeypatch.delenv("CI", raising=False)
    return cache_root


class TestPolicy:
    def test_enabled_by_default(self, cache_env):
        assert cache_enabled()
        assert cache_dir() == cache_env

    def test_disabled_in_ci(self, cache_env, monkeypatch):
        monkeypatch.setenv("CI", "true")
        assert not cache_enabled()

    def test_disabled_by_env_flag(self, cache_env, monkeypatch):
        monkeypatch.setenv("REPRO_LINT_CACHE", "0")
        assert not cache_enabled()


class TestRoundTrip:
    def test_lint_paths_misses_then_hits(self, cache_env, tmp_path):
        target = tmp_path / "m.py"
        target.write_text("import time\nt = time.time()\n")
        first = lint_paths([str(target)], use_cache=True)
        assert (first.cache_hits, first.cache_misses) == (0, 1)
        second = lint_paths([str(target)], use_cache=True)
        assert (second.cache_hits, second.cache_misses) == (1, 0)
        # Cached findings are byte-for-byte the uncached ones.
        assert [f.to_dict() for f in second.findings] == [
            f.to_dict() for f in first.findings
        ]
        assert second.findings[0].rule == "DET002"

    def test_suppressed_findings_survive_the_cache(self, cache_env, tmp_path):
        target = tmp_path / "m.py"
        target.write_text(
            "import time\n"
            "t = time.time()  # repro: allow-DET002(cache test)\n"
        )
        lint_paths([str(target)], use_cache=True)
        report = lint_paths([str(target)], use_cache=True)
        assert report.cache_hits == 1
        assert report.findings == []
        assert len(report.suppressed) == 1
        assert report.suppressed[0].suppression_reason == "cache test"

    def test_content_change_invalidates(self, cache_env, tmp_path):
        target = tmp_path / "m.py"
        target.write_text("x = 1\n")
        lint_paths([str(target)], use_cache=True)
        target.write_text("y = 2\n")
        report = lint_paths([str(target)], use_cache=True)
        assert (report.cache_hits, report.cache_misses) == (0, 1)

    def test_use_cache_false_bypasses(self, cache_env, tmp_path):
        target = tmp_path / "m.py"
        target.write_text("x = 1\n")
        lint_paths([str(target)], use_cache=True)
        report = lint_paths([str(target)], use_cache=False)
        assert (report.cache_hits, report.cache_misses) == (0, 0)
        assert not cache_env.exists() or report.cache_hits == 0


class TestInvalidation:
    def test_ruleset_fingerprint_changes_the_key(
        self, cache_env, monkeypatch
    ):
        source = "import time\nt = time.time()\n"
        findings = lint_source(source, "m.py")
        cache = FindingsCache(root=cache_env)
        cache.put("m.py", source, findings)
        assert FindingsCache(root=cache_env).get("m.py", source) is not None
        # A different linter build must never see the old entries.
        monkeypatch.setattr(cache_mod, "_RULESET_FINGERPRINT", "0" * 64)
        stale = FindingsCache(root=cache_env)
        assert stale.get("m.py", source) is None
        assert stale.misses == 1

    def test_editing_a_rule_file_rolls_the_ruleset_fingerprint(
        self, tmp_path
    ):
        """The digest covers the lint package's own sources, so shipping a
        new or edited rule (e.g. rules_seed.py) invalidates every cached
        finding produced by the previous linter build."""
        import shutil
        from pathlib import Path

        import repro.lint as lint_pkg

        package_dir = Path(lint_pkg.__file__).resolve().parent
        copy = tmp_path / "lint"
        copy.mkdir()
        for source in package_dir.glob("*.py"):
            shutil.copy(source, copy / source.name)
        before = cache_mod.ruleset_fingerprint(package_dir=copy)
        assert before == cache_mod.ruleset_fingerprint(package_dir=copy)
        with (copy / "rules_seed.py").open("a") as handle:
            handle.write("\n# edited\n")
        after = cache_mod.ruleset_fingerprint(package_dir=copy)
        assert after != before

    def test_select_participates_in_the_key(self, cache_env):
        source = "x = 1\n"
        all_rules = FindingsCache(root=cache_env)
        selected = FindingsCache(root=cache_env, select=["DET002"])
        all_rules.put("m.py", source, [])
        assert selected.get("m.py", source) is None

    def test_corrupt_entry_is_a_miss(self, cache_env):
        source = "x = 1\n"
        cache = FindingsCache(root=cache_env)
        cache.put("m.py", source, [])
        entry = cache._entry_path("m.py", source)
        entry.write_text("not json{", encoding="utf-8")
        fresh = FindingsCache(root=cache_env)
        assert fresh.get("m.py", source) is None
        assert fresh.misses == 1

    def test_wrong_shape_entry_is_a_miss(self, cache_env):
        source = "x = 1\n"
        cache = FindingsCache(root=cache_env)
        cache.put("m.py", source, [])
        entry = cache._entry_path("m.py", source)
        entry.write_text(json.dumps([{"nonsense": True}]), encoding="utf-8")
        assert FindingsCache(root=cache_env).get("m.py", source) is None


class TestWholeProgramNeverCached:
    def test_purity_findings_recur_on_full_cache_hit(
        self, cache_env, tmp_path
    ):
        target = tmp_path / "app.py"
        target.write_text(
            "# repro: module=pkg.app\n"
            "import time\n"
            "\n"
            "\n"
            "def root():\n"
            "    return time.time()  # repro: allow-DET002(fixture)\n"
        )
        config = PurityConfig(
            roots=("pkg.app.root",),
            method_roots=(),
            quarantine=(),
            source_path="<test>",
        )
        first = lint_paths(
            [str(target)], contract=Contract(purity=config), use_cache=True
        )
        second = lint_paths(
            [str(target)], contract=Contract(purity=config), use_cache=True
        )
        # Per-file phase hit the cache, yet the interprocedural phase
        # re-ran and re-derived the PURE002 finding from the live AST.
        assert second.cache_hits == 1
        for report in (first, second):
            assert [f.rule for f in report.findings] == ["PURE002"]

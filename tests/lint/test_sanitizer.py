"""Unit tests for ``repro.sanitizer`` lifecycle and snapshot machinery.

The fixture-pairing behaviour lives in ``test_purity_crosscheck``; this
file pins the plumbing: install/uninstall restore semantics, guard no-op
without install, allowance comments, the env self-arming decorator, and
the stability of namespace digests.
"""

import importlib
import random
import time
from pathlib import Path

import numpy as np
import pytest

from repro import sanitizer
from repro.lint.contract import load_contract
from repro.sanitizer import SanitizerViolation

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(autouse=True)
def disarm(monkeypatch):
    """Every test starts and ends with the sanitizer fully disarmed."""
    monkeypatch.delenv(sanitizer.ENV_FLAG, raising=False)
    sanitizer.uninstall()
    yield
    sanitizer.uninstall()


class TestLifecycle:
    def test_install_patches_and_uninstall_restores(self):
        original_time = time.time
        original_random = random.random
        sanitizer.install()
        assert time.time is not original_time
        assert random.random is not original_random
        sanitizer.uninstall()
        assert time.time is original_time
        assert random.random is original_random

    def test_install_is_idempotent(self):
        sanitizer.install(["repro.sanitizer"])
        patched = time.time
        sanitizer.install(["repro.experiment.harness"])
        assert time.time is patched  # not double-wrapped
        assert sanitizer._STATE.snapshot_modules == (
            "repro.experiment.harness",
        )

    def test_enabled_reflects_env(self, monkeypatch):
        assert not sanitizer.enabled()
        monkeypatch.setenv(sanitizer.ENV_FLAG, "1")
        assert sanitizer.enabled()
        monkeypatch.setenv(sanitizer.ENV_FLAG, "0")
        assert not sanitizer.enabled()

    def test_install_from_env(self, monkeypatch):
        assert not sanitizer.install_from_env()
        assert not sanitizer.installed()
        monkeypatch.setenv(sanitizer.ENV_FLAG, "1")
        assert sanitizer.install_from_env()
        assert sanitizer.installed()


class TestGuard:
    def test_guard_is_a_noop_without_install(self):
        with sanitizer.guard("noop"):
            time.time()  # patched tripwire absent: nothing can raise
        assert not sanitizer.active()

    def test_patched_functions_pass_through_outside_guard(self):
        sanitizer.install()
        before = time.time()
        assert isinstance(before, float)
        assert isinstance(random.random(), float)
        assert isinstance(np.random.default_rng(), np.random.Generator)

    def test_wallclock_trips_inside_guard(self):
        sanitizer.install()
        with pytest.raises(SanitizerViolation, match="wall-clock read"):
            with sanitizer.guard("unit"):
                time.time()

    def test_allowance_comment_silences_the_trip(self):
        sanitizer.install()
        with sanitizer.guard("unit"):
            stamp = time.time()  # repro: allow-PURE002(sanitizer unit test)
        assert isinstance(stamp, float)

    def test_guarded_decorator_self_arms_from_env(self, monkeypatch):
        monkeypatch.setenv(sanitizer.ENV_FLAG, "1")

        @sanitizer.guarded("unit")
        def entry():
            return time.time()

        assert not sanitizer.installed()
        with pytest.raises(SanitizerViolation):
            entry()
        assert sanitizer.installed()
        assert sanitizer._STATE.snapshot_modules == sanitizer.SNAPSHOT_MODULES

    def test_guarded_decorator_is_transparent_when_off(self):
        @sanitizer.guarded("unit")
        def entry(value, scale=2):
            """doc"""
            return value * scale

        assert entry(3) == 6
        assert entry.__name__ == "entry"
        assert entry.__doc__ == "doc"


class TestSnapshots:
    def test_snapshot_modules_host_every_exact_purity_root(self):
        contract = load_contract(REPO_ROOT / "contract.json")
        hosts = {root.rpartition(".")[0] for root in contract.purity.roots}
        assert hosts, "contract declares no exact purity roots"
        missing = sorted(hosts - set(sanitizer.SNAPSHOT_MODULES))
        assert not missing, f"purity-root hosts not digested: {missing}"

    def test_snapshot_modules_all_exist(self):
        for name in sanitizer.SNAPSHOT_MODULES:
            importlib.import_module(name)

    def test_digest_is_stable_for_untouched_module(self):
        import repro.experiment.harness  # noqa: F401  (must be loaded)

        first = sanitizer.snapshot_digest("repro.experiment.harness")
        second = sanitizer.snapshot_digest("repro.experiment.harness")
        assert first == second != "<unloaded>"

    def test_unloaded_module_digest_is_sentinel(self):
        assert sanitizer.snapshot_digest("no.such.module") == "<unloaded>"

    def test_digest_senses_module_mutation(self):
        import repro.experiment.parallel as parallel

        before = sanitizer.snapshot_digest("repro.experiment.parallel")
        parallel._WORKER_CALL = (len, ("sentinel",))
        try:
            assert (
                sanitizer.snapshot_digest("repro.experiment.parallel")
                != before
            )
        finally:
            parallel._WORKER_CALL = None
        assert sanitizer.snapshot_digest("repro.experiment.parallel") == before

"""Calls through a package re-export reach the whole-program rules.

``from pkg import f`` names ``pkg.f``; when ``pkg/__init__.py`` only
imports ``f`` from ``pkg.impl``, no module defines ``pkg.f`` and the call
graph used to drop the edge, so a wall-clock read, a shared seed or an
unthreaded checkpoint cell behind the re-export went unseen.  Here each
family gets the same program twice, calling once through the defining
module and once through the package, and must report the same finding.
"""

import textwrap

import pytest

from repro.lint.callgraph import CallGraph
from repro.lint.contract import Contract
from repro.lint.engine import lint_whole_program, parse_module
from repro.lint.purity import PurityConfig


def _mod(module, source, package=False):
    path = module.replace(".", "/") + ("/__init__.py" if package else ".py")
    text = f"# repro: module={module}\n" + textwrap.dedent(source)
    return parse_module(text, path)


def _lint(modules, roots=()):
    config = PurityConfig(roots=tuple(roots), source_path="<test>")
    return list(lint_whole_program(modules, Contract(config)))


PACKAGE = _mod(
    "fixturepkg.tools",
    """
    from fixturepkg.tools.impl import now, score
    """,
    package=True,
)
IMPL = _mod(
    "fixturepkg.tools.impl",
    """
    import time

    import numpy as np


    def now():
        return time.time()


    def score(seed):
        rng = np.random.default_rng(seed)
        return float(rng.random())
    """,
)


@pytest.mark.parametrize("source", ["fixturepkg.tools.impl", "fixturepkg.tools"])
def test_pure002_sees_the_wall_clock_behind_a_reexport(source):
    app = _mod(
        "fixturepkg.app_pure",
        f"""
        from {source} import now


        def root(session_id):
            return (session_id, now())
        """,
    )
    findings = _lint([PACKAGE, IMPL, app], roots=["fixturepkg.app_pure.root"])
    pure = [f for f in findings if f.rule == "PURE002"]
    assert len(pure) == 1
    assert pure[0].path == "fixturepkg/tools/impl.py"
    assert "root -> now" in pure[0].message


@pytest.mark.parametrize("source", ["fixturepkg.tools.impl", "fixturepkg.tools"])
def test_seed002_sees_a_shared_seed_behind_a_reexport(source):
    app = _mod(
        "fixturepkg.app_seed",
        f"""
        import numpy as np

        from {source} import score


        def root(seed):
            derived = seed + 41
            rng = np.random.default_rng(derived)
            return float(rng.random()) + score(derived)
        """,
    )
    findings = _lint([PACKAGE, IMPL, app])
    assert [f.rule for f in findings if f.rule.startswith("SEED")] == ["SEED002"]


CHECKPOINT_PACKAGE = _mod(
    "repro.fleet",
    """
    from repro.fleet.checkpoint import FleetCheckpoint
    """,
    package=True,
)


@pytest.mark.parametrize("source", ["repro.fleet.checkpoint", "repro.fleet"])
def test_ckpt002_sees_a_checkpoint_built_through_a_reexport(source):
    driver = _mod(
        "fixturepkg.driver",
        f"""
        from {source} import FleetCheckpoint


        def drive(fingerprint, sink, total):
            commits = 0
            next_session_id = 0

            def commit(delta):
                nonlocal commits, next_session_id
                commits += 1
                next_session_id = delta + 1

            for i in range(total):
                commit(i)
            return FleetCheckpoint(
                fingerprint=fingerprint,
                next_session_id=next_session_id,
                sink=sink,
            )
        """,
    )
    findings = _lint([CHECKPOINT_PACKAGE, driver])
    ckpt = [f for f in findings if f.rule == "CKPT002"]
    assert len(ckpt) == 1
    assert "'commits'" in ckpt[0].message


class TestOrigin:
    def test_chained_reexports_reach_the_definition(self):
        graph = CallGraph.build(
            [
                _mod("pkg", "from pkg.sub import compute\n", package=True),
                _mod("pkg.sub", "from pkg.sub.impl import compute\n", package=True),
                _mod("pkg.sub.impl", "def compute():\n    return 1\n"),
                _mod(
                    "pkg.app",
                    "from pkg import compute\n\ndef entry():\n    return compute()\n",
                ),
            ]
        )
        assert graph.origin("pkg.compute") == "pkg.sub.impl.compute"
        assert graph.edges["pkg.app.entry"] == ("pkg.sub.impl.compute",)

    def test_class_bases_and_methods_follow_the_reexport(self):
        graph = CallGraph.build(
            [
                _mod("pkg", "from pkg.base import Base\n", package=True),
                _mod(
                    "pkg.base",
                    "class Base:\n    def run(self):\n        return 1\n",
                ),
                _mod(
                    "pkg.app",
                    "import pkg\n\nclass Child(pkg.Base):\n    pass\n",
                ),
            ]
        )
        assert graph.classes["pkg.app.Child"].bases == ("pkg.base.Base",)
        assert graph.lookup_method("pkg.app.Child", "run") == "pkg.base.Base.run"

    def test_a_cycle_and_unknown_names_come_back_unchanged(self):
        graph = CallGraph.build(
            [
                _mod("a", "from b import f\n", package=True),
                _mod("b", "from a import f\n", package=True),
            ]
        )
        assert graph.origin("a.f") in {"a.f", "b.f"}
        assert graph.origin("numpy.random.default_rng") == "numpy.random.default_rng"
        assert graph.origin("a.missing") == "a.missing"

"""One walk per function: what the whole-program phase derives once.

``CallGraph.build`` walks each function body once as it collects it
(``FunctionInfo.nodes`` and ``FunctionInfo.calls``), builds each module's
top-level name table once (``CallGraph.names``) and indexes every class's
direct subclasses once.  These tests pin the counts over the real tree
and the checked-in contract, and pin the subclass index against the
scan-every-class definition it replaced.
"""

import ast
import textwrap
from collections import Counter
from pathlib import Path

import pytest

import repro.lint.callgraph as callgraph_mod
import repro.lint.purity as purity_mod
import repro.lint.rules_durability as durability_mod
from repro.lint import lint_paths, load_contract
from repro.lint.callgraph import CallGraph
from repro.lint.engine import parse_module

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src" / "repro"


@pytest.fixture(scope="module")
def counted_run(tmp_path_factory):
    """One ``repro lint src --whole-program`` run with its walks, module
    name tables and durable effect passes counted, plus its call graph."""
    walks: Counter = Counter()
    tables: Counter = Counter()
    effects: Counter = Counter()
    graphs = []
    real_walk = ast.walk
    real_names = getattr(callgraph_mod, "_module_names", None)
    real_build = purity_mod.build_graph
    real_effects = durability_mod.function_effects

    def walk(node):
        walks[id(node)] += 1
        return real_walk(node)

    def module_names(tree):
        tables[id(tree)] += 1
        return real_names(tree)

    def build_graph(*args, **kwargs):
        graphs.append(real_build(*args, **kwargs))
        return graphs[-1]

    def function_effects(fn, *args):
        effects[fn.qualname] += 1
        return real_effects(fn, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(tmp_path_factory.mktemp("lint-cwd"))
        patch.setattr(ast, "walk", walk)
        # Not raising: a tree without the table still runs, and its
        # count test fails on the count.
        patch.setattr(
            callgraph_mod, "_module_names", module_names, raising=False
        )
        patch.setattr(purity_mod, "build_graph", build_graph)
        patch.setattr(durability_mod, "function_effects", function_effects)
        report = lint_paths(
            [SRC], contract=load_contract(REPO_ROOT / "contract.json")
        )
    assert report.ok and len(graphs) == 1
    return graphs[0], walks, tables, effects


class TestOneWalkPerFunction:
    def test_each_function_body_is_walked_at_most_once(self, counted_run):
        graph, walks, _, _ = counted_run
        assert len(graph.functions) > 500
        rewalked = sorted(
            qualname
            for qualname, fn in graph.functions.items()
            if walks[id(fn.node)] > 1
        )
        assert rewalked == []

    def test_each_module_name_table_is_built_once(self, counted_run):
        graph, _, tables, _ = counted_run
        assert len(graph.names) == len(graph.modules) > 50
        assert sorted(tables.values()) == [1] * len(graph.modules)
        assert set(tables) == {id(p.tree) for p in graph.modules.values()}

    def test_each_durable_function_gets_one_effect_pass(self, counted_run):
        _, _, _, effects = counted_run
        assert effects and set(effects.values()) == {1}

    def test_nodes_and_calls_are_the_functions_walk(self, counted_run):
        graph, _, _, _ = counted_run
        fn = graph.functions["repro.experiment.harness.run_session"]
        walked = list(ast.walk(fn.node))
        assert len(fn.nodes) == len(walked)
        assert all(a is b for a, b in zip(fn.nodes, walked))
        assert list(fn.calls) == [
            node for node in walked if isinstance(node, ast.Call)
        ]


# -- the subclass index ------------------------------------------------------
def scan_every_class(graph, class_qualname):
    """The definition the index replaced, kept frozen as the reference:
    every known class with *class_qualname* among its ancestors."""
    return sorted(
        qualname
        for qualname in graph.classes
        if class_qualname in graph.ancestors(qualname)
    )


def _mod(module, source):
    path = module.replace(".", "/") + ".py"
    text = f"# repro: module={module}\n" + textwrap.dedent(source)
    return parse_module(text, path)


HIERARCHY = [
    _mod(
        "pkg.shapes",
        """
        import ext

        class Base:
            def run(self):
                return self.step()

            def step(self):
                return 0

        class Left(Base):
            def step(self):
                return 1

        class Right(Base):
            def step(self):
                return 2

        class Bottom(Left, Right):
            def step(self):
                return 3

        class One:
            def go(self):
                return self.hop()

            def hop(self):
                return 0

        class Two(One):
            def hop(self):
                return 1

        class Three(Two):
            def hop(self):
                return 2

        class Orphan(Undefined):
            def step(self):
                return self.hop()

        class Stray(ext.Thing, Base):
            def run(self):
                return self.step()
        """,
    ),
    _mod(
        "pkg.cyc_a",
        """
        from pkg.cyc_b import B

        class A(B):
            def ping(self):
                return self.pong()

            def pong(self):
                return 0
        """,
    ),
    _mod(
        "pkg.cyc_b",
        """
        from pkg.cyc_a import A

        class B(A):
            def pong(self):
                return 1
        """,
    ),
]


class _NoScan(dict):
    """A class table that fails any full scan; lookups still work."""

    def _scan(self, *args):
        raise AssertionError("subclasses() scanned the class table")

    __iter__ = keys = values = items = _scan


class TestSubclassIndex:
    def test_subclasses_equal_the_scan_of_every_class(self):
        graph = CallGraph.build(HIERARCHY)
        for qualname in sorted(graph.classes):
            assert graph.subclasses(qualname) == scan_every_class(
                graph, qualname
            ), qualname
        assert graph.subclasses("pkg.shapes.Base") == [
            "pkg.shapes.Bottom",
            "pkg.shapes.Left",
            "pkg.shapes.Right",
            "pkg.shapes.Stray",
        ]
        assert graph.subclasses("pkg.shapes.One") == [
            "pkg.shapes.Three",
            "pkg.shapes.Two",
        ]
        # A base cycle makes each class its own subclass, and ends.
        assert graph.subclasses("pkg.cyc_a.A") == ["pkg.cyc_a.A", "pkg.cyc_b.B"]
        assert graph.subclasses("pkg.shapes.Orphan") == []
        assert graph.subclasses("pkg.shapes.Undefined") == []

    def test_self_call_edges_equal_the_scan_of_every_class(
        self, monkeypatch
    ):
        indexed = CallGraph.build(HIERARCHY)
        monkeypatch.setattr(CallGraph, "subclasses", scan_every_class)
        scanned = CallGraph.build(HIERARCHY)
        assert indexed.edges == scanned.edges
        assert indexed.edges["pkg.shapes.Base.run"] == (
            "pkg.shapes.Base.step",
            "pkg.shapes.Bottom.step",
            "pkg.shapes.Left.step",
            "pkg.shapes.Right.step",
        )
        assert indexed.edges["pkg.shapes.One.go"] == (
            "pkg.shapes.One.hop",
            "pkg.shapes.Three.hop",
            "pkg.shapes.Two.hop",
        )
        assert indexed.edges["pkg.cyc_a.A.ping"] == (
            "pkg.cyc_a.A.pong",
            "pkg.cyc_b.B.pong",
        )

    def test_subclasses_is_a_lookup_not_a_scan(self, monkeypatch):
        graph = CallGraph.build(HIERARCHY)
        expected = {q: scan_every_class(graph, q) for q in graph.classes}
        graph.classes = _NoScan(graph.classes)

        def no_ancestors(self, qualname):
            raise AssertionError("subclasses() walked ancestors")

        monkeypatch.setattr(CallGraph, "ancestors", no_ancestors)
        for qualname, subs in sorted(expected.items()):
            assert graph.subclasses(qualname) == subs

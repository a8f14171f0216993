"""One walk per function: what the whole-program phase derives once.

``CallGraph.build`` walks each function body once as it collects it
(``FunctionInfo.nodes`` and ``FunctionInfo.calls``), builds each module's
top-level name table once (``CallGraph.names``) and indexes every class's
direct subclasses once.  The same walk records each function's scope
facts (``FunctionInfo.scopes``: the defs that declare ``global`` or
``nonlocal``, what they declare and the names their own body stores; and
``FunctionInfo.local_names``), which PURE001 and CKPT002 read instead of
re-walking a scope.  These tests pin the counts over the real tree and the
checked-in contract, and pin the subclass index and the scope facts
against the scans they replaced.
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
from repro.lint.callgraph import FUNCTION_TYPES, CallGraph
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


# -- the scope facts ---------------------------------------------------------
def scope_nodes(scope):
    """The per-scope scan the scope facts replaced, kept frozen as the
    reference: *scope*'s own body, nested defs and classes pruned."""
    stack = list(scope.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (*FUNCTION_TYPES, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def scanned_scopes(fn):
    """Each def of *fn* whose own body declares ``global``/``nonlocal``,
    with the ids of its declarations and of its own ``Name`` stores."""
    out = []
    for node in fn.nodes:
        if not isinstance(node, FUNCTION_TYPES):
            continue
        own = list(scope_nodes(node))
        declarations = {
            id(sub) for sub in own
            if isinstance(sub, (ast.Global, ast.Nonlocal))
        }
        if declarations:
            stores = {
                id(sub) for sub in own
                if isinstance(sub, ast.Name)
                and isinstance(sub.ctx, ast.Store)
            }
            out.append((node, declarations, stores))
    return out


def scanned_local_names(fn):
    """The local-name scan the walk replaced, kept frozen as the reference
    (its ``for`` and ``with`` targets included)."""
    args = fn.node.args
    out = {
        arg.arg
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs,
                    args.vararg, args.kwarg]
        if arg is not None
    }
    declared_global = set()
    for sub in fn.nodes:
        if isinstance(sub, ast.Name) and isinstance(
            sub.ctx, (ast.Store, ast.Del)
        ):
            out.add(sub.id)
        elif isinstance(sub, (ast.For, ast.AsyncFor)):
            out.update(
                t.id for t in ast.walk(sub.target) if isinstance(t, ast.Name)
            )
        elif isinstance(sub, ast.withitem) and sub.optional_vars is not None:
            out.update(
                t.id for t in ast.walk(sub.optional_vars)
                if isinstance(t, ast.Name)
            )
        elif isinstance(sub, ast.Global):
            declared_global.update(sub.names)
    return out - declared_global


def facts_of(fn):
    return [
        (
            scope.node,
            {id(node) for node in scope.declarations},
            {id(node) for node in scope.stores},
        )
        for scope in fn.scopes
    ]


SCOPES = _mod(
    "pkg.scopes",
    """
    COUNT = 0

    def plain():
        def inner():
            return 1
        return inner

    def rebinds():
        global COUNT
        COUNT += 1

    def declares_in_a_branch(flag):
        if flag:
            for _ in range(2):
                global COUNT
                COUNT = 2

    def closure():
        total = 0
        def bump():
            nonlocal total
            total += 1
        def read():
            return total
        return bump, read

    def class_in_a_def():
        class Holder:
            global COUNT
            def method(self):
                return COUNT
        def one(): global COUNT; COUNT = 3
        return Holder, one

    def outer_declares_too():
        global COUNT
        def nested():
            def deeper():
                nonlocal_free = 1
                return nonlocal_free
            return deeper
        COUNT = 4
        return nested

    def defaults_run_outside(seed):
        global COUNT
        @wraps(hook := seed)
        def inner(x=(COUNT := 5)):
            del x
        with open(seed) as handle, lock as (a, b):
            pass
        return inner, hook
    """,
)


class TestScopeFacts:
    def test_scope_facts_name_each_declaration_and_store(self):
        graph = CallGraph.build([SCOPES])
        facts = {
            fn.name: [
                (
                    scope.node.name,
                    sorted(scope.declared(ast.Global)),
                    sorted(scope.declared(ast.Nonlocal)),
                    sorted(node.id for node in scope.stores),
                )
                for scope in fn.scopes
            ]
            for fn in graph.functions.values()
        }
        assert facts == {
            "plain": [],
            "rebinds": [("rebinds", ["COUNT"], [], ["COUNT"])],
            "declares_in_a_branch": [
                ("declares_in_a_branch", ["COUNT"], [], ["COUNT", "_"])
            ],
            "closure": [("bump", [], ["total"], ["total"])],
            "class_in_a_def": [("one", ["COUNT"], [], ["COUNT"])],
            "outer_declares_too": [
                ("outer_declares_too", ["COUNT"], [], ["COUNT"])
            ],
            # A nested def's decorators and defaults run in this scope.
            "defaults_run_outside": [
                (
                    "defaults_run_outside", ["COUNT"], [],
                    ["COUNT", "a", "b", "handle", "hook"],
                )
            ],
        }

    def test_local_names_are_the_stored_names_less_globals(self):
        # Parameters and ``Name`` stores and deletes, nested defs' included;
        # a ``def`` or ``class`` statement's own name is not a ``Name``.
        graph = CallGraph.build([SCOPES])
        local = {
            fn.name: sorted(fn.local_names)
            for fn in graph.functions.values()
        }
        assert local == {
            "plain": [],
            "rebinds": [],
            "declares_in_a_branch": ["_", "flag"],
            "closure": ["total"],
            "class_in_a_def": [],
            "outer_declares_too": ["nonlocal_free"],
            "defaults_run_outside": ["a", "b", "handle", "hook", "seed", "x"],
        }

    def test_scope_facts_equal_the_per_scope_scan(self):
        graph = CallGraph.build([SCOPES])
        for qualname, fn in sorted(graph.functions.items()):
            if fn.name == "defaults_run_outside":
                continue  # the scan left nested defaults in no scope
            assert facts_of(fn) == scanned_scopes(fn), qualname
            assert fn.local_names == scanned_local_names(fn), qualname

    def test_scope_facts_over_the_real_tree(self, counted_run):
        graph, _, _, _ = counted_run
        declaring = 0
        for qualname, fn in sorted(graph.functions.items()):
            assert facts_of(fn) == scanned_scopes(fn), qualname
            assert fn.local_names == scanned_local_names(fn), qualname
            declaring += len(fn.scopes)
        assert declaring > 0

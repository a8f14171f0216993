"""Unit tests for the whole-program call graph (``repro.lint.callgraph``).

The graph is the substrate of the purity phase: these tests pin down the
resolution rules — local calls, imports and aliases, constructors, virtual
dispatch, the unknown-receiver name match and its blocklist — plus BFS
reachability and witness paths, independent of any lint rule.
"""

import textwrap

from repro.lint.callgraph import (
    NAME_MATCH_BLOCKLIST,
    CallGraph,
    build_graph,
)
from repro.lint.engine import parse_module


def _mod(module, source):
    path = module.replace(".", "/") + ".py"
    text = f"# repro: module={module}\n" + textwrap.dedent(source)
    return parse_module(text, path)


def _graph(*parsed):
    return CallGraph.build(parsed)


class TestResolution:
    def test_local_function_call_edge(self):
        graph = _graph(
            _mod(
                "pkg.a",
                """
                def helper():
                    return 1

                def entry():
                    return helper()
                """,
            )
        )
        assert graph.edges["pkg.a.entry"] == ("pkg.a.helper",)

    def test_from_import_call_resolves_to_origin_module(self):
        lib = _mod(
            "pkg.lib",
            """
            def compute():
                return 1
            """,
        )
        app = _mod(
            "pkg.app",
            """
            from pkg.lib import compute

            def entry():
                return compute()
            """,
        )
        graph = _graph(lib, app)
        assert graph.edges["pkg.app.entry"] == ("pkg.lib.compute",)

    def test_module_alias_attribute_call(self):
        lib = _mod(
            "pkg.lib",
            """
            def compute():
                return 1
            """,
        )
        app = _mod(
            "pkg.app",
            """
            import pkg.lib as plib

            def entry():
                return plib.compute()
            """,
        )
        graph = _graph(lib, app)
        assert graph.edges["pkg.app.entry"] == ("pkg.lib.compute",)

    def test_constructor_call_targets_init(self):
        graph = _graph(
            _mod(
                "pkg.a",
                """
                class Widget:
                    def __init__(self):
                        self.state = 0

                def entry():
                    return Widget()
                """,
            )
        )
        assert graph.edges["pkg.a.entry"] == ("pkg.a.Widget.__init__",)

    def test_self_call_includes_subclass_overrides(self):
        graph = _graph(
            _mod(
                "pkg.a",
                """
                class Base:
                    def run(self):
                        return self.step()

                    def step(self):
                        return 0

                class Sub(Base):
                    def step(self):
                        return 1
                """,
            )
        )
        assert set(graph.edges["pkg.a.Base.run"]) == {
            "pkg.a.Base.step",
            "pkg.a.Sub.step",
        }

    def test_unknown_receiver_matches_methods_by_name(self):
        graph = _graph(
            _mod(
                "pkg.a",
                """
                class Engine:
                    def simulate(self):
                        return 1

                def entry(thing):
                    return thing.simulate()
                """,
            )
        )
        assert graph.edges["pkg.a.entry"] == ("pkg.a.Engine.simulate",)

    def test_blocklisted_names_do_not_name_match(self):
        assert "append" in NAME_MATCH_BLOCKLIST
        graph = _graph(
            _mod(
                "pkg.a",
                """
                class Archive:
                    def append(self, row):
                        return row

                def entry(rows, row):
                    rows.append(row)
                """,
            )
        )
        assert graph.edges["pkg.a.entry"] == ()


class TestReachability:
    def _chain_graph(self):
        return _graph(
            _mod(
                "pkg.chain",
                """
                def a():
                    return b()

                def b():
                    return c()

                def c():
                    return 1

                def orphan():
                    return 2
                """,
            )
        )

    def test_reachable_is_transitive_and_excludes_orphans(self):
        graph = self._chain_graph()
        region = graph.reachable(["pkg.chain.a"], "pure")
        assert region == {"pkg.chain.a", "pkg.chain.b", "pkg.chain.c"}

    def test_witness_path_runs_root_first(self):
        graph = self._chain_graph()
        region = graph.reachable(["pkg.chain.a"], "pure")
        assert region.witness_path("pkg.chain.c") == [
            "pkg.chain.a",
            "pkg.chain.b",
            "pkg.chain.c",
        ]

    def test_unknown_root_is_ignored(self):
        graph = self._chain_graph()
        assert graph.reachable(["pkg.chain.missing"], "pure") == set()


class TestQuarantine:
    def test_build_graph_drops_quarantined_modules(self):
        noisy = _mod(
            "pkg.noisy",
            """
            def leak():
                return 1
            """,
        )
        app = _mod(
            "pkg.app",
            """
            from pkg.noisy import leak

            def entry():
                return leak()
            """,
        )
        files = {p.path: p for p in (noisy, app)}
        graph = build_graph(files, exclude_prefixes=("pkg.noisy",))
        assert "pkg.noisy.leak" not in graph.functions
        # The edge terminates at the graph boundary.
        assert graph.edges["pkg.app.entry"] == ()
        full = build_graph(files)
        assert full.edges["pkg.app.entry"] == ("pkg.noisy.leak",)

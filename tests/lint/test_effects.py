"""Unit tests for the write-effect extraction pass (`repro.lint.effects`)."""

import ast

from repro.lint.base import collect_imports
from repro.lint.callgraph import FunctionInfo
from repro.lint.effects import (
    FSYNC_FILE,
    FSYNC_OTHER,
    HELPER,
    OPEN_READ,
    OPEN_UPDATE,
    OPEN_WRITE,
    PATH_READ,
    PATH_WRITE,
    RENAME,
    TRUNCATE,
    function_calls,
    function_effects,
)

HELPERS = frozenset({"repro.atomio.atomic_write_text"})


def _effects(source, helpers=HELPERS):
    tree = ast.parse(source)
    imports = collect_imports(ast.walk(tree))
    fn_node = next(
        n
        for n in tree.body
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    )
    fn = FunctionInfo(
        qualname=f"m.{fn_node.name}",
        module="m",
        path="m.py",
        node=fn_node,
        imports=imports,
    )
    return fn, function_effects(fn, helpers), imports


class TestOpenClassification:
    def test_write_modes(self):
        source = (
            "def f(p):\n"
            "    open(p, 'w')\n"
            "    open(p, 'ab')\n"
            "    open(p, mode='x')\n"
        )
        _, effects, _ = _effects(source)
        assert [e.kind for e in effects] == [OPEN_WRITE] * 3
        assert [e.detail for e in effects] == ["w", "ab", "x"]

    def test_update_read_and_default_modes(self):
        source = (
            "def f(p):\n"
            "    open(p, 'r+')\n"
            "    open(p, 'rb')\n"
            "    open(p)\n"
        )
        _, effects, _ = _effects(source)
        assert [e.kind for e in effects] == [OPEN_UPDATE, OPEN_READ, OPEN_READ]

    def test_target_text_is_recorded(self):
        _, effects, _ = _effects("def f(base):\n    open(base / 'a', 'w')\n")
        assert effects[0].target == "base / 'a'"


class TestOsLevelEffects:
    def test_rename_and_fsync_split(self):
        source = (
            "import os\n"
            "def f(tmp, dst, handle, dir_fd):\n"
            "    os.fsync(handle.fileno())\n"
            "    os.replace(tmp, dst)\n"
            "    os.fsync(dir_fd)\n"
        )
        _, effects, _ = _effects(source)
        assert [e.kind for e in effects] == [FSYNC_FILE, RENAME, FSYNC_OTHER]
        assert effects[1].detail == "os.replace"
        assert effects[1].target == "dst"

    def test_pathlib_and_truncate(self):
        source = (
            "def f(p):\n"
            "    p.write_text('x')\n"
            "    p.read_bytes()\n"
            "    handle = open(p, 'r+')\n"
            "    handle.truncate()\n"
        )
        _, effects, _ = _effects(source)
        kinds = [e.kind for e in effects]
        assert kinds == [PATH_WRITE, PATH_READ, OPEN_UPDATE, TRUNCATE]


class TestHelperRecognition:
    def test_imported_helper_shadows_other_kinds(self):
        source = (
            "from repro.atomio import atomic_write_text\n"
            "def f(p):\n"
            "    atomic_write_text(p, 'x')\n"
        )
        _, effects, _ = _effects(source)
        assert [e.kind for e in effects] == [HELPER]
        assert effects[0].detail == "repro.atomio.atomic_write_text"
        assert effects[0].target == "p"


class TestFunctionCalls:
    def test_self_calls_resolve_against_the_class(self):
        source = (
            "def f(self):\n"
            "    self._write_manifest()\n"
            "    other.save()\n"
        )
        tree = ast.parse(source)
        imports = collect_imports(ast.walk(tree))
        fn = FunctionInfo(
            qualname="m.Reg.f",
            module="m",
            path="m.py",
            node=tree.body[0],
            imports=imports,
            class_name="Reg",
        )
        sites = function_calls(fn)
        assert sites[0].resolved == "m.Reg._write_manifest"
        assert sites[0].name == "_write_manifest"
        assert sites[1].name == "save"

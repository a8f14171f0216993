"""One impure-stdlib table for both halves of the purity check.

``repro.sanitizer.IMPURE_SURFACE`` lists the wall-clock functions and the
stdlib's hidden-global-RNG functions, and ``impure_call`` adds the rule that
picks ``numpy.random``'s global draws.  DET001, DET002 and PURE002 read it,
and ``sanitizer.install`` wraps it.  These tests iterate the table itself:
a one-line call of each entry is flagged by its DET rule and by PURE002
inside a pure root, and calling an entry the running module has inside an
armed guard trips.  The static-only entries (methods of C types) are shown
to be left unwrapped rather than skipped.
"""

import importlib
import random

import numpy.random
import pytest

from repro import sanitizer
from repro.lint.contract import Contract
from repro.lint.engine import lint_source, lint_whole_program, parse_module
from repro.lint.purity import PurityConfig
from repro.sanitizer import (
    GLOBAL_RNG, IMPURE_SURFACE, STATIC_ONLY, WALL_CLOCK, SanitizerViolation,
    impure_call,
)

DET_RULE = {WALL_CLOCK: "DET002", GLOBAL_RNG: "DET001"}
MODULE = "fixturepkg.impure"


def _entries():
    """(module, name, kind) of every table entry: the listed stdlib names,
    then each ``numpy.random`` callable the global-draw rule picks."""
    for module, kind, names in IMPURE_SURFACE:
        for name in names:
            yield module, name, kind
    for name in dir(numpy.random):
        if impure_call(f"numpy.random.{name}") == GLOBAL_RNG and callable(
            getattr(numpy.random, name)
        ):
            yield "numpy.random", name, GLOBAL_RNG


ENTRIES = [
    pytest.param(
        module, name, kind,
        id=f"{module}.{name}" + (
            "-static-only" if module in STATIC_ONLY else ""
        ),
    )
    for module, name, kind in _entries()
]


def _source(module, name):
    return (
        f"# repro: module={MODULE}\n"
        f"import {module.split('.')[0]}\n\n\n"
        f"def root():\n"
        f"    return {module}.{name}()\n"
    )


@pytest.fixture
def armed():
    sanitizer.install(())
    yield
    sanitizer.uninstall()


def test_the_table_covers_numpy_and_the_stdlib():
    modules = {module for module, _, _ in _entries()}
    assert modules == {
        "time", "datetime.datetime", "datetime.date", "random",
        "numpy.random",
    }
    # Every lowercase numpy.random callable but the seeded constructor.
    numpy_names = {
        name for module, name, _ in _entries() if module == "numpy.random"
    }
    assert len(numpy_names) > 40 and numpy_names == {
        name
        for name in dir(numpy.random)
        if name[:1].islower() and callable(getattr(numpy.random, name))
    } - {"default_rng"}
    # Every stdlib random entry is a method of the hidden global instance
    # (read unwrapped: under REPRO_SANITIZE=1 an earlier session armed it).
    sanitizer.uninstall()
    for module, name, _ in _entries():
        if module == "random" and hasattr(random, name):
            assert getattr(random, name).__self__ is random._inst, name


@pytest.mark.parametrize("module, name, kind", ENTRIES)
def test_the_static_rules_flag_the_entry(module, name, kind):
    path = "fixturepkg/impure.py"
    source = _source(module, name)
    det = [f.rule for f in lint_source(source, path) if not f.suppressed]
    assert det == [DET_RULE[kind]]
    contract = Contract(PurityConfig(roots=(f"{MODULE}.root",)))
    pure = [
        f.rule
        for f in lint_whole_program([parse_module(source, path)], contract)
    ]
    assert pure == ["PURE002"]


@pytest.mark.parametrize("module, name, kind", ENTRIES)
def test_the_sanitizer_trips_on_the_entry(armed, module, name, kind):
    if module in STATIC_ONLY:
        # A method of a C type cannot be patched: the lint alone checks it.
        owner_name, _, attr = module.rpartition(".")
        owner = getattr(importlib.import_module(owner_name), attr)
        assert getattr(owner, name).__qualname__ == f"{attr}.{name}"
        return
    target = getattr(importlib.import_module(module), name, None)
    if target is None:
        # Not on this Python (``random.binomialvariate`` is 3.12's).
        assert f"{module}.{name}" not in sanitizer._STATE.originals
        return
    with pytest.raises(SanitizerViolation, match=kind):
        with sanitizer.guard("table"):
            target()


def test_the_sanitizer_wraps_exactly_the_table(armed):
    wrapped = set(sanitizer._STATE.originals) - {
        "numpy.random.default_rng", "repro.experiment.parallel.fork_map",
    }
    assert wrapped == {
        f"{module}.{name}"
        for module, name, _ in _entries()
        if module not in STATIC_ONLY
        and hasattr(importlib.import_module(module), name)
    }

"""repro.lint — AST-based determinism & correctness linter.

A zero-dependency static-analysis pass that enforces the reproduction's
*determinism contract* (see README "Determinism contract"): every random
draw flows from ``TrialConfig.seed``, no wall-clock value leaks into
simulated time, nothing iterates in hash order on an order-sensitive path,
and instrumentation stays behind the cheap ``obs.ENABLED`` guard.

Rules
-----
=======  ==================================================================
DET001   unseeded / module-global RNG (``np.random.default_rng()`` with no
         seed, bare ``random.*``, legacy ``np.random.<fn>`` global draws)
DET002   wall-clock reads (``time.time``/``perf_counter``/
         ``datetime.now``…) outside the quarantined ``repro.obs`` profiling
DET003   iteration over ``set(...)`` / ``.keys()`` views without
         ``sorted(...)``
SIM001   float ``==``/``!=`` in control-flow conditions in ``repro.net``,
         ``repro.streaming``, ``repro.core``
OBS001   metric/trace emission not guarded by ``if obs.ENABLED:``
API001   mutable default arguments
=======  ==================================================================

Findings are waived only inline, with a reasoned suppression comment::

    t0 = time.perf_counter()  # repro: allow-DET002(throughput report only)

Run it as ``repro lint [paths]``; ``--whole-program`` adds the
interprocedural families the sections of ``contract.json`` turn on
(:mod:`repro.lint.contract`): PURE, SEED, CKPT and DUR.  They register with
the same :func:`register`, as :class:`~repro.lint.base.ProgramRule`
subclasses, and share one :class:`~repro.lint.purity.ProgramContext`: one
call graph, one finding constructor, one contract resolver (a declared
name is checked only when its module was linted, so partial lints stay
quiet) and regions held as values.  The tier-1 suite gates on the tree
linting clean (``tests/lint/test_tree_clean.py``).
"""

from __future__ import annotations

from repro.lint.base import (
    FileContext,
    Rule,
    derive_module,
    make_rules,
    register,
    registered_rules,
)
from repro.lint.cli import main
from repro.lint.contract import Contract, ContractError, load_contract
from repro.lint.engine import (
    LintReport,
    discover_files,
    lint_paths,
    lint_source,
)
from repro.lint.findings import Finding
from repro.lint.suppressions import (
    MALFORMED_RULE_ID,
    Suppression,
    parse_suppressions,
)

__all__ = [
    "Contract",
    "ContractError",
    "FileContext",
    "Finding",
    "LintReport",
    "MALFORMED_RULE_ID",
    "Rule",
    "Suppression",
    "derive_module",
    "discover_files",
    "lint_paths",
    "lint_source",
    "load_contract",
    "main",
    "make_rules",
    "parse_suppressions",
    "register",
    "registered_rules",
]

"""Whole-program seed-lineage rules: SEED001–SEED004.

These interpret the :class:`repro.lint.dataflow.SeedFlow` event stream
computed once per whole-program run (see ``ProgramContext.seed_flow``).
Unlike the purity rules they scan **every** function in the graph, not
only the pure region: seed discipline is a tree-wide contract — a
correlated stream constructed outside the pure region still biases the
experiment arms it feeds.

=========  ===============================================================
SEED001    arithmetic seed derivation (``seed + k``, ``seed * p + i``)
           folding in a free variable without tuple /
           ``SeedSequence.spawn`` domain separation — injectivity of the
           derived stream depends on unchecked arithmetic over the free
           index
SEED002    one derived seed value reaching two or more independent
           RNG-consuming sinks — the streams are *identical*, not merely
           correlated (the ``insitu.py`` bug class)
SEED003    a tuple seed fold that omits a domain-separation constant
           (``(seed, i)``): two call sites folding different indices at
           the same position collide under permutation
SEED004    a ``numpy.random.Generator`` crossing a chunk/process boundary
           (``fork_map``, pool methods) — generators must cross as seed
           tuples and be rebuilt on the far side
=========  ===============================================================

Findings attribute to the *derivation* (SEED001/002), the *fold*
(SEED003), or the *crossing* (SEED004) — the line a developer must edit —
and carry the consumer sites in the message.  Waivers use the ordinary
inline suppression comments (``allow-SEED001(reason)`` and friends).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, Set, Tuple

from repro.lint.base import ProgramRule, register
from repro.lint.callgraph import Site
from repro.lint.dataflow import SeedEvent
from repro.lint.findings import Finding

if TYPE_CHECKING:
    from repro.lint.purity import ProgramContext


def _describe_site(site: Site) -> str:
    return f"{site[0]}:{site[1]}"


@register
class SeedArithmeticDerivationRule(ProgramRule):
    """SEED001 — arithmetic seed derivation over a free variable."""

    id = "SEED001"
    summary = (
        "seed derived arithmetically over a free index without domain "
        "separation — use a tuple seed with a stream constant "
        "(``(seed, _STREAM, i)``) or SeedSequence.spawn"
    )

    def check_program(self, program: ProgramContext) -> Iterator[Finding]:
        seen: Set[Tuple[Site, Tuple[str, ...]]] = set()
        for event in program.seed_flow.events:
            if event.kind not in ("sink", "handoff"):
                continue
            lin = event.lineage
            if (
                not lin.derived
                or lin.domain_separated
                or not lin.free_vars
                or lin.derive_site is None
            ):
                continue
            key = (lin.derive_site, lin.free_vars)
            if key in seen:
                continue
            seen.add(key)
            free = ", ".join(repr(v) for v in lin.free_vars)
            yield program.finding(
                self.id,
                lin.derive_site,
                f"seed {lin.root!r} is derived arithmetically over free "
                f"variable(s) {free} and reaches {event.target} at "
                f"{_describe_site(event.site)} without domain separation — "
                "collisions between derived streams are unchecked; fold the "
                "index into a tuple seed with a stream constant instead",
            )


@register
class SeedSharedConsumerRule(ProgramRule):
    """SEED002 — one derived seed feeding ≥2 independent sinks."""

    id = "SEED002"
    summary = (
        "one derived seed value reaches two or more independent "
        "RNG-consuming sinks — the streams are identical; give each "
        "consumer its own domain-separated seed"
    )

    def check_program(self, program: ProgramContext) -> Iterator[Finding]:
        by_derivation: Dict[
            Tuple[Site, str], Dict[Tuple[str, int], SeedEvent]
        ] = {}
        for event in program.seed_flow.events:
            if event.kind not in ("sink", "handoff"):
                continue
            lin = event.lineage
            if (
                not lin.derived
                or lin.domain_separated
                or lin.derive_site is None
            ):
                continue
            consumers = by_derivation.setdefault(
                (lin.derive_site, lin.root), {}
            )
            consumers.setdefault((event.site[0], event.site[1]), event)
        for (derive_site, root), consumers in sorted(by_derivation.items()):
            if len(consumers) < 2:
                continue
            ordered = sorted(consumers.values(), key=lambda e: e.site)
            described = "; ".join(
                f"{e.target} at {_describe_site(e.site)}" for e in ordered
            )
            yield program.finding(
                self.id,
                derive_site,
                f"seed {root!r} derived here feeds {len(ordered)} "
                f"independent RNG consumers ({described}) — they draw "
                "identical streams; derive a distinct tuple seed per "
                "consumer",
            )


@register
class SeedTupleFoldRule(ProgramRule):
    """SEED003 — tuple fold without a domain-separation constant."""

    id = "SEED003"
    summary = (
        "tuple seed fold omits a domain-separation constant — "
        "``(seed, i)`` collides with any other ``(seed, j)`` fold under "
        "permutation of the free indices"
    )

    def check_program(self, program: ProgramContext) -> Iterator[Finding]:
        seen: Set[Site] = set()
        for event in program.seed_flow.events:
            if event.kind not in ("sink", "handoff"):
                continue
            lin = event.lineage
            if lin.domain_separated or lin.fold_site is None:
                continue
            if lin.fold_site in seen:
                continue
            seen.add(lin.fold_site)
            yield program.finding(
                self.id,
                lin.fold_site,
                f"seed {lin.root!r} is folded into a tuple without a "
                f"domain-separation constant and reaches {event.target} at "
                f"{_describe_site(event.site)} — two such folds collide "
                "whenever their free indices permute; add a distinct "
                "stream constant element",
            )


@register
class GeneratorBoundaryRule(ProgramRule):
    """SEED004 — a Generator crossing a process boundary."""

    id = "SEED004"
    summary = (
        "numpy Generator crosses a chunk/process boundary — pass a seed "
        "tuple and rebuild the generator on the far side"
    )

    def check_program(self, program: ProgramContext) -> Iterator[Finding]:
        seen: Set[Tuple[Site, str]] = set()
        for event in program.seed_flow.events:
            if event.kind != "boundary":
                continue
            key = (event.site, event.lineage.root)
            if key in seen:
                continue
            seen.add(key)
            yield program.finding(
                self.id,
                event.site,
                f"RNG {event.lineage.root!r} crosses a process boundary via "
                f"{event.target} — a Generator cannot reproduce its stream "
                "identity across processes; pass a domain-separated seed "
                "tuple and construct the generator in the worker",
            )

#!/usr/bin/env python3
"""A/A check: run the suite twice on this checkout and compare.

    python3 perf/aa.py [--workload NAME] [--seed N] [--seconds S]

Prints metric / run A / run B / relative difference / bound / verdict for
every workload.  Two runs of the same commit must agree, so the exit code
is non-zero when

* an end-to-end metric differs by more than its bound (``DIFFERS``),
* a metric that is a count of simulated events is not identical (``DIFFERS``),
* or either run produced a wrong output.

A metric whose own repetitions — the two runs' readings of one draw, the
set-ups of one run — spread wider than its bound cannot tell "same" from
"changed" at that bound; it is reported ``unresolved``, never ``same``.
"""

from __future__ import annotations

import sys
from typing import Any, Dict, List

import run

EXACT = {
    "net.transmit.rounds_per_call",
    "core.ttp.predict.per_decide",
    "batch.fallback_share",
    "edge.cache.hit_ratio",
    "edge.shared_cell_share",
    "atomio.write.bytes",
    "data.archive.bytes",
    "core.train.samples",
}
"""Per-layer metrics that count simulated events (with every ``*.calls``):
the simulation is deterministic, so they repeat exactly."""


COMPANIONS = ("wall_s", "sessions_per_s", "failed_share")
"""Printed beside the declared end-to-end metrics and judged here too.  At
one seed the first two are the same walls as ``sim_hours_per_s`` under
counts that repeat exactly, so they take its bound; ``failed_share`` must
be 0 in both runs, which the wrong-output check enforces."""


def is_exact(name: str) -> bool:
    return name.endswith(".calls") or name in EXACT


def rows(outcome: Dict[str, Any], section: str) -> Dict[str, float]:
    """Every value of one run's section that the table shows."""
    values = {name: m["value"] for name, m in outcome["metrics"].items()}
    if section == "end_to_end":
        values.update({name: outcome["info"][name] for name in COMPANIONS})
    return values


def repetition_spread(
    name: str, info_a: Dict[str, Any], info_b: Dict[str, Any]
) -> float:
    """How far apart repetitions of the same measurement read: for a
    timing, the largest relative difference between the two runs' readings
    of one draw (same input, so the host alone moved); for set-up, the
    quartile distance over median of a run's own set-ups."""
    if name in ("sim_hours_per_s", "wall_s", "sessions_per_s"):
        return max(
            abs(x - y) / max(x, y)
            for x, y in zip(info_a["draw_rates"], info_b["draw_rates"])
        )
    if name == "setup_s":
        spreads = []
        for info in (info_a, info_b):
            q1, median, q3 = run.quartiles(info["setup_runs_s"])
            spreads.append((q3 - q1) / median)
        return max(spreads)
    return 0.0


def compare(
    bench: Dict[str, Any], a: Dict[str, Any], b: Dict[str, Any]
) -> List[str]:
    """Print the table; return the names of the metrics that disagree."""
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    bounds["wall_s"] = bounds["sessions_per_s"] = bounds["sim_hours_per_s"]
    bad: List[str] = []
    print(
        f"{'workload':<13} {'metric':<36} {'run A':>13} {'run B':>13} "
        f"{'rel diff':>9} {'bound':>6}  verdict"
    )
    for workload in a:
        for section in ("end_to_end", "per_layer"):
            run_a, run_b = a[workload][section], b[workload][section]
            if not (run_a["correct"] and run_b["correct"]):
                bad.append(f"{workload}: wrong output")
            values_b = rows(run_b, section)
            for name, va in rows(run_a, section).items():
                vb = values_b[name]
                base = max(abs(va), abs(vb))
                diff = abs(va - vb) / base if base else 0.0
                bound = bounds.get(name)
                if bound is not None:
                    spread = repetition_spread(name, run_a["info"], run_b["info"])
                    if diff > bound:
                        verdict = "DIFFERS"
                    elif spread > bound:
                        verdict = f"unresolved (spread {spread:.3f})"
                    else:
                        verdict = "same"
                elif is_exact(name) or name == "failed_share":
                    verdict = "same" if va == vb else "DIFFERS"
                else:
                    verdict = "-"  # host time of one layer: reported, not judged
                if verdict == "DIFFERS":
                    bad.append(f"{workload}: {name}")
                print(
                    f"{workload:<13} {name:<36} {va:>13.6g} {vb:>13.6g} "
                    f"{diff:>9.4f} {bound if bound is not None else '':>6}  {verdict}"
                )
    return bad


def main() -> int:
    args = run.parse_args()
    if run.program_missing():
        return 2
    bench = run.load_bench()
    suites = []
    for label in "AB":
        print(f"--- run {label} ---")
        suites.append(run.run_suite(args))
    print("--- A/A ---")
    bad = compare(bench, *suites)
    for name in bad:
        print(f"DISAGREE {name}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

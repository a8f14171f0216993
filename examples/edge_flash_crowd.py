"""A flash crowd through the edge contention tier (`repro.edge`).

Simulates two days of arrivals with an evening flash crowd, twice over
the *same* sessions: once on the classic private-link fleet (every
session gets its own bottleneck — the seed harness's assumption) and once
in cell mode, where consecutive arrivals are grouped into edge cells that
share a fluid fair-share bottleneck and a per-cell LRU chunk cache with
Zipf channel popularity.

The punchline is the paired comparison: identical workload, identical
trial seed, identical schemes — the only change is whether sessions
contend.  Two opposing forces move the deltas: the shared bottleneck
depresses quality when a crowd piles onto a cell, while the edge cache
claws quality back (popular channels hit in cache and skip the origin
path entirely).  Which force wins depends on cell capacity and cache
size — exactly the trade `benchmarks/test_edge_contention.py` sweeps.

Run:  python examples/edge_flash_crowd.py     (~1 minute; scale with --rate)
"""

import argparse

from repro.abr.bba import BBA
from repro.abr.mpc import MpcHm
from repro.edge.cells import EdgeConfig
from repro.experiment.presets import smoke_trial_config
from repro.experiment.schemes import SchemeSpec
from repro.fleet import (
    FlashCrowd,
    FleetConfig,
    WorkloadConfig,
    WorkloadGenerator,
    run_fleet,
)


def classical_specs():
    return [
        SchemeSpec(
            name="bba", control="classical", predictor="n/a",
            optimization_goal="+SSIM s.t. bitrate < limit",
            how_trained="n/a", factory=BBA,
        ),
        SchemeSpec(
            name="mpc_hm", control="classical", predictor="classical (HM)",
            optimization_goal="+SSIM, -stalls, -dSSIM",
            how_trained="n/a", factory=MpcHm,
        ),
    ]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rate", type=float, default=40.0,
                        help="mean sessions/hour")
    parser.add_argument("--cells", type=float, default=3.0,
                        help="mean sessions per edge cell")
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args()

    workload = WorkloadConfig(
        days=0.08,
        sessions_per_hour=args.rate,
        diurnal_amplitude=0.4,
        peak_hour=20.0,
        flash_crowds=(
            FlashCrowd(start_day=0.02, duration_hours=0.8, multiplier=4.0),
        ),
        seed=4,
    )
    specs = classical_specs()
    total = WorkloadGenerator(workload).count()
    print(
        f"Simulating {total} sessions twice: private links vs shared "
        f"edge cells (mean {args.cells:g} sessions/cell).\n"
    )

    # Leg 1: the classic harness — every session on a private bottleneck.
    private = run_fleet(
        specs,
        FleetConfig(
            workload=workload, trial=smoke_trial_config(seed=21),
            chunk_sessions=8,
        ),
        workers=args.workers,
    )
    print("private links (the seed harness's assumption):")
    print(private.format_table())

    # Leg 2: the same sessions through shared cells + edge caches.
    shared = run_fleet(
        specs,
        FleetConfig(
            workload=workload, trial=smoke_trial_config(seed=21),
            chunk_sessions=8,
            edge=EdgeConfig(mean_cell_sessions=args.cells, seed=11),
        ),
        workers=args.workers,
    )
    stats = shared.edge_stats
    lookups = stats["cache_hits"] + stats["cache_misses"]
    hit_ratio = stats["cache_hits"] / lookups if lookups else 0.0
    print(
        f"\nshared edge cells: {stats['cells']} cells "
        f"({stats['shared_cells']} with >1 session), "
        f"cache hit ratio {hit_ratio:.3f} "
        f"({stats['cache_hits']}/{lookups})"
    )
    print(shared.format_table())

    # The paired per-scheme deltas: what correlated contention costs.
    print(f"\n{'Scheme':<15}{'dSSIM dB':>10}{'dStall %':>10}")
    private_by = {s.scheme: s for s in private.summaries()}
    for summary in shared.summaries():
        base = private_by[summary.scheme]
        print(
            f"{summary.scheme:<15}"
            f"{summary.mean_ssim_db.point - base.mean_ssim_db.point:>10.2f}"
            f"{summary.stall_percent - base.stall_percent:>10.3f}"
        )


if __name__ == "__main__":
    main()

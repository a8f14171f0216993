"""Edge contention tier (`repro.edge`): cache curve and ranking deltas.

Two questions the private-link harness cannot ask:

* **How much QoE does the edge cache buy?**  Sweeping the per-cell LRU
  capacity from 0 (cache disabled, every chunk traverses the shared
  origin path) upward traces a cache-hit-ratio -> QoE curve: hits serve
  in one RTT and leave the bottleneck to the misses, so hit ratio climbs
  with capacity and quality follows.
* **Does correlated contention reorder the schemes?**  The paper's RCT
  compares schemes on *independent* sessions; a real deployment's
  sessions share access networks and CDN edges.  The paired comparison
  below runs the identical workload, trial seed and scheme set through
  private links and through shared cells, and reports the
  per-scheme deltas plus any rank inversions.

Scale knobs (environment variables):

* ``REPRO_EDGE_BENCH_RATE`` — mean sessions/hour (default 60).
* ``REPRO_EDGE_BENCH_DAYS`` — simulated days (default 0.05).

Run with ``PYTHONPATH=src python -m pytest benchmarks/test_edge_contention.py -s``.
"""

import os
from dataclasses import replace

from repro.abr.bba import BBA
from repro.abr.mpc import MpcHm
from repro.edge import EdgeConfig
from repro.experiment.presets import smoke_trial_config
from repro.experiment.schemes import SchemeSpec
from repro.fleet import FleetConfig, WorkloadConfig, run_fleet

RATE = float(os.environ.get("REPRO_EDGE_BENCH_RATE", "60"))
DAYS = float(os.environ.get("REPRO_EDGE_BENCH_DAYS", "0.05"))

CACHE_SWEEP = (0, 8, 64, 512)


def _specs():
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


def _workload():
    return WorkloadConfig(
        days=DAYS, sessions_per_hour=RATE, diurnal_amplitude=0.4,
        peak_hour=20.0, seed=4,
    )


def _fleet_config(edge):
    return FleetConfig(
        workload=_workload(), trial=smoke_trial_config(seed=21),
        chunk_sessions=8, edge=edge,
    )


def _qoe(result):
    """Per-scheme (mean SSIM dB, stall %) from a fleet result."""
    return {
        s.scheme: (s.mean_ssim_db.point, s.stall_percent)
        for s in result.summaries()
    }


def _hit_ratio(result):
    stats = result.edge_stats
    lookups = stats["cache_hits"] + stats["cache_misses"]
    return stats["cache_hits"] / lookups if lookups else 0.0


def test_cache_hit_ratio_qoe_curve():
    """Sweep per-cell cache capacity; hit ratio must climb monotonically
    and the fleet-mean SSIM at the largest cache must beat cache-off."""
    edge = EdgeConfig(mean_cell_sessions=4.0, seed=11)
    points = []
    for chunks in CACHE_SWEEP:
        result = run_fleet(
            _specs(), _fleet_config(replace(edge, cache_chunks=chunks)),
            workers=2,
        )
        qoe = _qoe(result)
        mean_ssim = sum(v[0] for v in qoe.values()) / len(qoe)
        points.append((chunks, _hit_ratio(result), mean_ssim, qoe))

    print("\nEdge cache: hit ratio -> QoE curve")
    print(f"{'Cache chunks':>13}{'Hit ratio':>11}{'Mean SSIM dB':>14}")
    for chunks, ratio, mean_ssim, _ in points:
        print(f"{chunks:>13}{ratio:>11.3f}{mean_ssim:>14.2f}")

    ratios = [ratio for _, ratio, _, _ in points]
    # Capacity 0 disables the cache entirely.
    assert ratios[0] == 0.0, ratios
    # More capacity never evicts anything sooner: the hit ratio is
    # monotone non-decreasing in LRU size, and the sweep must show the
    # cache actually engaging.
    assert all(a <= b for a, b in zip(ratios, ratios[1:])), ratios
    assert ratios[-1] > 0.05, ratios
    # Hits skip the shared bottleneck, so quality improves with them.
    assert points[-1][2] > points[0][2], points


def test_private_vs_shared_ranking_deltas():
    """The Fig.-5-style paired comparison: same workload, same trial
    seed, same schemes — private links vs shared cells — reported as
    per-scheme deltas and a ranking diff."""
    private = run_fleet(_specs(), _fleet_config(None), workers=2)
    shared = run_fleet(
        _specs(),
        _fleet_config(EdgeConfig(mean_cell_sessions=4.0, seed=11)),
        workers=2,
    )

    p, s = _qoe(private), _qoe(shared)
    assert set(p) == set(s)

    print("\nPrivate links vs shared edge cells (paired)")
    print(
        f"{'Scheme':<12}{'SSIM priv':>10}{'SSIM shr':>10}{'dSSIM':>8}"
        f"{'Stall% priv':>12}{'Stall% shr':>11}{'dStall':>8}"
    )
    for name in sorted(p):
        print(
            f"{name:<12}{p[name][0]:>10.2f}{s[name][0]:>10.2f}"
            f"{s[name][0] - p[name][0]:>8.2f}"
            f"{p[name][1]:>12.3f}{s[name][1]:>11.3f}"
            f"{s[name][1] - p[name][1]:>8.3f}"
        )

    rank_private = sorted(p, key=lambda n: p[n][0], reverse=True)
    rank_shared = sorted(s, key=lambda n: s[n][0], reverse=True)
    inversions = [
        (a, b) for a, b in zip(rank_private, rank_shared) if a != b
    ]
    print(
        f"SSIM ranking private: {' > '.join(rank_private)}   "
        f"shared: {' > '.join(rank_shared)}   "
        f"({'stable' if not inversions else f'{len(inversions)} moved'})"
    )

    # The two tiers genuinely differ: at least one scheme's QoE moves.
    assert any(p[name] != s[name] for name in p), (p, s)
    # Sanity on the shared tier itself.
    stats = shared.edge_stats
    assert stats["shared_cells"] > 0
    assert stats["cache_hits"] > 0
    assert private.edge_stats is None

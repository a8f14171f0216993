"""Differential guarantee of the edge tier's degenerate configuration.

A fleet of one-session cells models exactly what the classic fleet
models — every viewer alone behind a private bottleneck — so its metrics
dump must be *byte-identical* to the private-link fleet's, at any
worker count.  This pins the whole cell plumbing (partition, chunking,
checkpointing, sink folding) to the established determinism contract.
"""

import json

import pytest

from repro.edge.cells import EdgeConfig
from repro.fleet.runner import FleetConfig, run_fleet
from repro.fleet.workload import WorkloadConfig

from tests.fleet.conftest import classical_specs


@pytest.fixture(scope="module")
def specs():
    return classical_specs()


@pytest.fixture(scope="module")
def workload():
    return WorkloadConfig(days=0.01, sessions_per_hour=60.0, seed=7)


def _dump_bytes(result) -> bytes:
    return json.dumps(
        result.to_dump_dict(), sort_keys=True, indent=2
    ).encode()


class TestDegenerateEquivalence:
    def test_singleton_cells_match_private_executor_at_any_worker_count(
        self, specs, workload
    ):
        classic = run_fleet(
            specs, FleetConfig(workload=workload, chunk_sessions=4)
        )
        reference = _dump_bytes(classic)
        degenerate = FleetConfig(
            workload=workload,
            chunk_sessions=4,
            edge=EdgeConfig(
                mean_cell_sessions=1.0, cell_size_dist="fixed"
            ),
        )
        for workers in (1, 2, 3):
            result = run_fleet(specs, degenerate, workers=workers)
            assert _dump_bytes(result) == reference, (
                f"degenerate cell dump diverged at workers={workers}"
            )
            assert result.edge_stats is not None
            assert result.edge_stats["shared_cells"] == 0
            assert result.edge_stats["cache_hits"] == 0

    def test_edge_seed_is_irrelevant_when_degenerate(self, specs, workload):
        """Singleton cells never touch the shared link, cache, or
        popularity — the edge seed must not leak into results."""
        dumps = set()
        for edge_seed in (0, 1):
            config = FleetConfig(
                workload=workload,
                chunk_sessions=4,
                edge=EdgeConfig(
                    mean_cell_sessions=1.0,
                    cell_size_dist="fixed",
                    seed=edge_seed,
                ),
            )
            dumps.add(_dump_bytes(run_fleet(specs, config)))
        assert len(dumps) == 1


class TestSharedInvariance:
    def test_shared_cells_are_worker_invariant(self, specs, workload):
        config = FleetConfig(
            workload=workload,
            chunk_sessions=4,
            edge=EdgeConfig(mean_cell_sessions=3.0, seed=11),
        )
        results = [
            run_fleet(specs, config, workers=w) for w in (1, 2, 3)
        ]
        dumps = {_dump_bytes(r) for r in results}
        assert len(dumps) == 1
        stats = {json.dumps(r.edge_stats, sort_keys=True) for r in results}
        assert len(stats) == 1

    def test_shared_cells_change_the_dump(self, specs, workload):
        classic = run_fleet(
            specs, FleetConfig(workload=workload, chunk_sessions=4)
        )
        shared = run_fleet(
            specs,
            FleetConfig(
                workload=workload,
                chunk_sessions=4,
                edge=EdgeConfig(mean_cell_sessions=3.0, seed=11),
            ),
        )
        assert _dump_bytes(shared) != _dump_bytes(classic)
        assert shared.edge_stats["shared_cells"] > 0

    def test_finished_run_resumes_from_inside_its_truncated_last_cell(
        self, specs, workload, tmp_path
    ):
        # The workload ends mid-cell, so the final checkpoint's
        # next_session_id is not a cell boundary; resuming it has nothing
        # left to simulate and must be a no-op, not an alignment error.
        from repro.edge.cells import cell_covering

        edge = EdgeConfig(mean_cell_sessions=3.0, seed=11)
        config = FleetConfig(workload=workload, chunk_sessions=4, edge=edge)
        ckpt = str(tmp_path / "ckpt.json")
        first = run_fleet(specs, config, checkpoint_path=ckpt)
        last_cell = cell_covering(edge, first.next_session_id)
        assert last_cell.start_session_id < first.next_session_id
        again = run_fleet(specs, config, checkpoint_path=ckpt, resume=True)
        assert again.completed
        assert _dump_bytes(again) == _dump_bytes(first)
        assert again.edge_stats == first.edge_stats

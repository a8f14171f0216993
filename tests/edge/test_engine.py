"""The cell co-simulation engine: determinism, degenerate dispatch, obs."""

import math

import pytest

from repro import obs
from repro.edge.cells import Cell, EdgeConfig
from repro.edge.engine import run_cell
from repro.experiment.harness import TrialConfig, run_session

from tests.fleet.conftest import classical_specs


def _session_fingerprint(shard):
    """Everything a stream contributes, as a comparable value."""
    session = shard.session
    return (
        session.session_id,
        session.scheme,
        session.expt_id,
        [
            (
                stream.stream_id,
                stream.scheme_name,
                stream.startup_delay,
                stream.play_time,
                stream.stall_time,
                stream.total_time,
                stream.never_began,
                stream.excluded,
                [
                    (r.chunk_index, r.rung, r.ssim_db, r.transmission_time)
                    for r in stream.records
                ],
            )
            for stream in session.streams
        ],
    )


@pytest.fixture(scope="module")
def specs():
    return classical_specs()


@pytest.fixture(scope="module")
def trial():
    return TrialConfig(seed=3, n_sessions=1)


class TestDegenerateDispatch:
    def test_singleton_cell_is_bit_identical_to_run_session(
        self, specs, trial
    ):
        edge = EdgeConfig(mean_cell_sessions=1.0, cell_size_dist="fixed")
        for session_id in range(4):
            cell = Cell(
                cell_id=session_id, start_session_id=session_id, size=1
            )
            result = run_cell(specs, trial, cell, edge, offsets=[123.0])
            assert not result.shared
            assert result.cache_hits == 0 and result.cache_misses == 0
            direct = run_session(specs, trial, session_id)
            assert _session_fingerprint(
                result.shards[0]
            ) == _session_fingerprint(direct)


class TestSharedCell:
    def test_replay_is_deterministic(self, specs, trial):
        edge = EdgeConfig(mean_cell_sessions=3.0, seed=11)
        cell = Cell(cell_id=2, start_session_id=3, size=3)
        offsets = [0.0, 4.0, 20.0]

        def run():
            result = run_cell(specs, trial, cell, edge, offsets=offsets)
            return (
                [_session_fingerprint(s) for s in result.shards],
                result.cache_hits,
                result.cache_misses,
            )

        assert run() == run()

    def test_shared_cell_differs_from_private_links(self, specs, trial):
        """Contention and the popularity chooser must actually change
        outcomes — otherwise the tier models nothing."""
        edge = EdgeConfig(mean_cell_sessions=3.0, seed=11)
        cell = Cell(cell_id=2, start_session_id=3, size=3)
        result = run_cell(
            specs, trial, cell, edge, offsets=[0.0, 4.0, 20.0]
        )
        assert result.shared
        assert result.cache_hits + result.cache_misses > 0
        private = [
            _session_fingerprint(run_session(specs, trial, sid))
            for sid in cell.session_ids
        ]
        assert [_session_fingerprint(s) for s in result.shards] != private

    def test_scheme_assignment_is_cell_independent(self, specs, trial):
        """Randomization stays keyed on (seed, session_id): which arm a
        session lands in cannot depend on the cell partition."""
        edge = EdgeConfig(mean_cell_sessions=3.0, seed=11)
        cell = Cell(cell_id=2, start_session_id=3, size=3)
        result = run_cell(
            specs, trial, cell, edge, offsets=[0.0, 4.0, 20.0]
        )
        for sid, shard in zip(cell.session_ids, result.shards):
            assert shard.session.scheme == run_session(
                specs, trial, sid
            ).session.scheme

    def test_zero_capacity_cache_never_hits(self, specs, trial):
        edge = EdgeConfig(mean_cell_sessions=2.0, seed=1, cache_chunks=0)
        cell = Cell(cell_id=0, start_session_id=0, size=2)
        result = run_cell(specs, trial, cell, edge, offsets=[0.0, 1.0])
        assert result.cache_hits == 0
        assert result.cache_misses > 0

    def test_offsets_validation(self, specs, trial):
        edge = EdgeConfig(mean_cell_sessions=2.0)
        cell = Cell(cell_id=0, start_session_id=0, size=2)
        with pytest.raises(ValueError):
            run_cell(specs, trial, cell, edge, offsets=[0.0])
        with pytest.raises(ValueError):
            run_cell(specs, trial, cell, edge, offsets=[0.0, -1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("index", [0, 1])
    def test_non_finite_offsets_are_rejected_by_index(
        self, specs, trial, bad, index
    ):
        # A NaN passed the old ``o < 0`` check and the loop's clock spun
        # at NaN; inf escaped from the link as an OverflowError.
        edge = EdgeConfig(mean_cell_sessions=2.0)
        cell = Cell(cell_id=0, start_session_id=0, size=2)
        offsets = [0.0, 0.0]
        offsets[index] = bad
        with pytest.raises(
            ValueError, match=rf"offsets\[{index}\] must be finite"
        ):
            run_cell(specs, trial, cell, edge, offsets=offsets)


class TestObservability:
    def test_cache_counters_flow_through_obs(self, specs):
        trial = TrialConfig(seed=3, n_sessions=1, observability=True)
        edge = EdgeConfig(mean_cell_sessions=2.0, seed=1)
        cell = Cell(cell_id=0, start_session_id=0, size=2)
        # False by default, True on the REPRO_OBS=1 leg of CI.
        enabled_on_entry = obs.ENABLED
        result = run_cell(specs, trial, cell, edge, offsets=[0.0, 2.0])
        hits = misses = 0
        for shard in result.shards:
            assert shard.obs is not None
            hits += shard.obs.metrics.counters.get("edge.cache_hits", 0)
            misses += shard.obs.metrics.counters.get(
                "edge.cache_misses", 0
            )
        assert hits == result.cache_hits
        assert misses == result.cache_misses
        assert obs.ENABLED == enabled_on_entry

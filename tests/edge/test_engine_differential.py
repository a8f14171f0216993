"""The cell engine against its per-event predecessor, session for session.

``repro.edge.engine.run_cell`` reads each link through a capacity cursor,
rebuilds its active set only when a download begins or finishes, and skips
the fair-share solve when its inputs cannot have changed.
``tests/edge/engine_reference.py`` is the loop it replaced, which
re-evaluated all of that at every event. Each skip only avoids work whose
result is already known, so the two must agree on everything a cell
produces: every stream record, the cache's hits and misses, and every obs
counter a session carries.
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.edge import engine
from repro.edge.cells import Cell, EdgeConfig
from repro.edge.engine import run_cell
from repro.experiment.presets import smoke_trial_config
from repro.net.link import TraceLink
from repro.net.path import PopulationModel

from tests.edge.engine_reference import run_cell as reference_run_cell
from tests.edge.test_engine import _session_fingerprint
from tests.fleet.conftest import classical_specs

SPECS = classical_specs()

BOUNDARY_OFFSETS = [math.nextafter(float(k), -math.inf) for k in (1, 2, 7)]
"""Arrivals one ulp before one of the shared link's 1 s epoch boundaries."""

NON_DYADIC_OFFSETS = [0.1, 1 / 3]
"""Arrivals whose clock shift is not exact in binary. A flow's boundaries
map to cell time as ``offset + boundary``, rounded; at such an event the
flow's clock ``now - offset`` can read just below the boundary it was
placed at, and the strict re-query must step past it (three seeds of a
three-flow cell with these offsets do so 11 times)."""

offset_values = st.one_of(
    st.sampled_from([0.0, 2.5, *NON_DYADIC_OFFSETS, *BOUNDARY_OFFSETS]),
    st.floats(min_value=0.0, max_value=40.0),
)

offset_lists = st.integers(2, 8).flatmap(
    lambda n: st.lists(offset_values, min_size=n, max_size=n).flatmap(
        # Coincident arrivals: repeat some of what was drawn.
        lambda drawn: st.lists(
            st.sampled_from(drawn), min_size=n, max_size=n
        )
        | st.just(drawn)
    )
)


def _outcome(result):
    counters = {}
    for shard in result.shards:
        for name, value in shard.obs.metrics.counters.items():
            counters[name] = counters.get(name, 0.0) + value
    return (
        [_session_fingerprint(shard) for shard in result.shards],
        result.cache_hits,
        result.cache_misses,
        result.shared,
        counters,
    )


@given(
    offsets=offset_lists,
    # 1.5 Mbit/s is contended by two viewers; 200 Mbit/s by none.
    capacity=st.sampled_from([1.5e6, 6e6, 200e6]),
    cache_chunks=st.sampled_from([0, 3, 16]),
    cubic=st.booleans(),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=30, deadline=None)
def test_a_cell_matches_the_per_event_loop(
    offsets, capacity, cache_chunks, cubic, seed
):
    trial = dataclasses.replace(
        smoke_trial_config(seed=seed),
        observability=True,
        population=PopulationModel(cubic_fraction=0.5 if cubic else 0.0),
    )
    edge = EdgeConfig(
        mean_cell_sessions=len(offsets),
        cell_capacity_bps=capacity,
        cache_chunks=cache_chunks,
        cubic_weight=1.3,
        seed=seed,
    )
    cell = Cell(cell_id=seed % 7, start_session_id=seed, size=len(offsets))
    live = run_cell(SPECS, trial, cell, edge, offsets)
    frozen = reference_run_cell(SPECS, trial, cell, edge, offsets)
    assert live.shared
    assert _outcome(live) == _outcome(frozen)


CACHE_COUNTERS = ("edge.cache_hits", "edge.cache_misses", "edge.cache_hit_bytes")


def _observed_cell(seed, observability):
    """A contended four-session cell whose viewers arrive together, so
    their requests meet in the cache."""
    trial = dataclasses.replace(
        smoke_trial_config(seed=seed), observability=observability
    )
    edge = EdgeConfig(
        mean_cell_sessions=4,
        cell_capacity_bps=6e6,
        cache_chunks=64,
        zipf_alpha=3.0,
        seed=seed,
    )
    cell = Cell(cell_id=seed, start_session_id=4 * seed, size=4)
    return trial, cell, edge, [0.0, 0.0, 0.5, 2.0]


def _global_run(runner, *args):
    """``runner(*args)`` under a fresh process-global obs context, and the
    counters that context collected. Whatever was global before (under
    ``REPRO_OBS=1``, a context) is global again after."""
    before = obs.active()
    context = obs.enable()
    try:
        result = runner(*args)
    finally:
        if before is None:
            obs.disable()
        else:
            obs.enable(before)
    return result, dict(context.metrics.counters)


SEEDS = range(4)


@pytest.mark.parametrize("seed", SEEDS)
def test_sessions_with_their_own_context_count_what_the_reference_counts(seed):
    # A flow with a context must still resume and count inside it: every
    # counter a session carries — the cache's, and those its machine
    # counts while it runs — is the reference's.
    args = (SPECS, *_observed_cell(seed, observability=True))
    live, frozen = run_cell(*args), reference_run_cell(*args)
    assert len(live.shards) == len(frozen.shards)
    for mine, theirs in zip(live.shards, frozen.shards):
        assert _session_fingerprint(mine) == _session_fingerprint(theirs)
        assert mine.obs.metrics.counters == theirs.obs.metrics.counters
        assert "stream.chunks_sent" in mine.obs.metrics.counters
    assert (live.cache_hits, live.cache_misses) == (
        frozen.cache_hits,
        frozen.cache_misses,
    )


def test_the_observed_cells_hit_the_cache():
    hits = [run_cell(SPECS, *_observed_cell(s, True)).cache_hits for s in SEEDS]
    assert sum(hits) > 0, hits


@pytest.mark.parametrize("observability", [False, True])
@pytest.mark.parametrize("seed", SEEDS)
def test_a_process_global_context_counts_what_the_reference_counts(
    seed, observability
):
    # Flows without a context resume outside obs.activate and count into
    # the global context; flows with one count into their own and leave
    # the global context as the reference leaves it.
    args = (SPECS, *_observed_cell(seed, observability))
    live, live_global = _global_run(run_cell, *args)
    frozen, frozen_global = _global_run(reference_run_cell, *args)
    assert live_global == frozen_global
    counted = {name for name in CACHE_COUNTERS if name in live_global}
    if observability:
        assert not counted  # each session counted its own
    else:
        assert "edge.cache_misses" in counted
    assert [_session_fingerprint(s) for s in live.shards] == [
        _session_fingerprint(s) for s in frozen.shards
    ]
    if observability:
        assert [s.obs.metrics.counters for s in live.shards] == [
            s.obs.metrics.counters for s in frozen.shards
        ]


class TestCursor:
    def test_holds_until_the_next_change(self):
        cursor = engine._Cursor(TraceLink([1e6, 2e6, 3e6]), 0.25)
        assert cursor.advance(0.5)
        assert (cursor.capacity, cursor.boundary) == (1e6, 1.25)
        assert not cursor.advance(1.0)
        assert cursor.advance(1.25)
        assert (cursor.capacity, cursor.boundary) == (2e6, 2.25)

    def test_a_boundary_rounding_onto_now_is_stepped_past(self):
        # At cell time 4.1 the flow's clock reads 4.1 - 0.1, which rounds
        # to just below 4: epoch 3, ending at local 4.0 — and 0.1 + 4.0
        # rounds back to 4.1, which is now. The cursor holds epoch 3's
        # capacity until local 4.0 and reports the first boundary after
        # now.
        cursor = engine._Cursor(TraceLink([1e6, 2e6, 3e6, 4e6, 5e6]), 0.1)
        assert 4.1 - 0.1 < 4.0 and 0.1 + 4.0 == 4.1
        assert cursor.advance(4.1)
        assert (cursor.capacity, cursor.change_at) == (4e6, 4.0)
        assert cursor.boundary == 0.1 + 5.0
        # Past local 4.0 the capacity has changed, although the reported
        # boundary has not been reached.
        assert cursor.advance(4.5)
        assert (cursor.capacity, cursor.boundary) == (5e6, 0.1 + 5.0)

    def test_a_link_past_its_last_change_is_not_read_again(self):
        class Counting(TraceLink):
            reads = 0

            def capacity_at(self, t):
                Counting.reads += 1
                return super().capacity_at(t)

        cursor = engine._Cursor(Counting([5e6], loop=False), 0.0)
        for now in (0.0, 3.0, 1e9):
            cursor.advance(now)
        assert Counting.reads == 2  # epoch 0, then the held last rate
        assert cursor.boundary == math.inf

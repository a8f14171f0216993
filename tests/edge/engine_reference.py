"""``run_cell``'s event loop as it was before the capacity cursor, frozen.

``tests/edge/test_engine_differential.py`` holds the live engine in
``repro.edge.engine`` to this function: the same shards, cache counts and
obs counters for the same cell. The loop below re-reads every active
flow's capacity, recomputes every capacity boundary, re-runs the start
sweep and re-solves fair shares at every event; it and its helpers are
copied verbatim so that a later change to ``src/`` cannot move the
reference along with the code under test. The world around the loop —
session machines, fluid transports, the cache, the fair-share solver — is
imported from ``src/``: those have their own differentials.
"""

from __future__ import annotations

import math
from typing import List, Mapping, Optional, Sequence

import numpy as np

from repro import obs
from repro.abr.base import AbrAlgorithm
from repro.edge.cache import ChunkKey, EdgeCache
from repro.edge.cells import Cell, EdgeConfig
from repro.edge.engine import CellResult
from repro.edge.fairshare import max_min_shares
from repro.edge.transport import FluidFlow
from repro.edge.zipf import ZipfChannelPopularity
from repro.experiment.harness import (
    ChannelChooser,
    ConnectRequest,
    SessionMachine,
    SessionShard,
    TrialConfig,
    assign_expt_ids,
    run_session,
    session_machine,
)
from repro.experiment.schemes import SchemeSpec
from repro.media.source import Channel
from repro.net.link import LinkModel
from repro.net.tcp import TcpInfo, TransmissionResult
from repro.streaming.simulator import TransmitRequest

_COMPLETION_TOL_BYTES = 1e-6

_MAX_EVENTS = 50_000_000


class _Flow:
    """Engine-side state for one session in a shared cell.

    ``transport`` is assigned by :func:`run_cell` immediately after the
    machine's :class:`ConnectRequest` (before any other field is read),
    so it is declared non-optional.
    """

    __slots__ = (
        "session_id",
        "machine",
        "offset",
        "transport",
        "obs_ctx",
        "request",
        "start_at",
        "key",
        "remaining_bytes",
        "download_start",
        "info_at_send",
        "active",
        "done",
        "shard",
        "weight",
    )

    transport: FluidFlow

    def __init__(
        self, session_id: int, machine: SessionMachine, offset: float
    ) -> None:
        self.session_id = session_id
        self.machine = machine
        self.offset = float(offset)
        self.obs_ctx: Optional["obs.ObsContext"] = None
        self.request: Optional[TransmitRequest] = None
        self.start_at = math.inf
        self.key: Optional[ChunkKey] = None
        self.remaining_bytes = 0.0
        self.download_start = 0.0
        self.info_at_send: Optional[TcpInfo] = None
        self.active = False
        self.done = False
        self.shard: Optional[SessionShard] = None
        self.weight = 1.0


def _strict_boundary_after(
    link: LinkModel, now: float, offset: float
) -> float:
    """Next capacity boundary of ``link`` strictly after cell time ``now``.

    The link runs on a clock shifted by ``offset`` (session-relative).
    Mapping the boundary back to cell time (``offset + boundary``) can land
    at or before ``now`` through float rounding; the event loop must make
    strict progress, so re-query past the boundary until it does.
    """
    local = max(now - offset, 0.0)
    boundary = link.next_change_after(local)
    while offset + boundary <= now:
        boundary = link.next_change_after(boundary)
    return offset + boundary


def _popularity_chooser(
    popularity: ZipfChannelPopularity,
) -> ChannelChooser:
    """Channel chooser plugging the cell's Zipf popularity into the
    session machine (consumes one uniform from the session's own rng)."""

    def choose(
        rng: np.random.Generator, channels: Sequence[Channel]
    ) -> Channel:
        return channels[popularity.sample(rng)]

    return choose


def _resume(flow: _Flow, value: "FluidFlow | TransmissionResult") -> None:
    """Advance a session machine one step under its obs context.

    Stores the next pending transmit request on the flow, or the final
    shard when the machine finishes.
    """
    with obs.activate(flow.obs_ctx):
        try:
            request = flow.machine.send(value)
        except StopIteration as stop:
            flow.shard = stop.value
            flow.done = True
            flow.request = None
            flow.start_at = math.inf
            return
    assert isinstance(request, TransmitRequest)
    flow.request = request
    flow.start_at = flow.offset + request.send_at
    flow.key = (request.channel, request.chunk_index, request.rung)


def run_cell(
    specs: Sequence[SchemeSpec],
    config: TrialConfig,
    cell: Cell,
    edge: EdgeConfig,
    offsets: Sequence[float],
    expt_ids: Optional[Mapping[str, int]] = None,
    algorithms: Optional[Mapping[str, AbrAlgorithm]] = None,
) -> CellResult:
    """Simulate one edge cell — the pure, fork-safe unit of cell-mode work.

    Parameters
    ----------
    cell:
        The cell's identity and session-id block.
    edge:
        The edge tier's configuration (bottleneck, cache, popularity).
    offsets:
        Cell-relative arrival offsets (seconds), one per session in the
        cell, aligned with ``cell.session_ids``.  The fleet runner derives
        them from the workload's arrival times; only the gaps matter.
    expt_ids / algorithms:
        As in :func:`run_session` — blinded id assignment and a per-process
        scheme-instance cache.  Scheme assignment itself stays keyed on
        ``(config.seed, session_id)``, independent of the cell partition,
        so randomization remains valid *within* every cell.
    """
    if len(offsets) != cell.size:
        raise ValueError(
            f"expected {cell.size} offsets for cell {cell.cell_id}, "
            f"got {len(offsets)}"
        )
    if any(o < 0 for o in offsets):
        raise ValueError("offsets must be non-negative")

    if cell.size == 1:
        # Degenerate cell: a private bottleneck and a cache shared with
        # nobody.  The private-link path is the exact model — dispatching
        # to it is what makes singleton-cell fleets byte-identical to the
        # classic fleet.
        shard = run_session(
            specs, config, cell.start_session_id, expt_ids, algorithms
        )
        return CellResult(
            cell=cell,
            shards=[shard],
            cache_hits=0,
            cache_misses=0,
            shared=False,
        )

    if expt_ids is None:
        expt_ids = assign_expt_ids(specs, config.seed)
    if algorithms is None:
        algorithms = {spec.name: spec.build() for spec in specs}

    link = edge.shared_link(cell.cell_id)
    cache = EdgeCache(edge.cache_chunks)
    chooser = _popularity_chooser(
        edge.popularity(cell.cell_id, len(config.channels))
    )

    flows: List[_Flow] = []
    for index, session_id in enumerate(cell.session_ids):
        machine = session_machine(
            specs,
            config,
            session_id,
            expt_ids=expt_ids,
            algorithms=algorithms,
            channel_chooser=chooser,
        )
        flow = _Flow(session_id, machine, offsets[index])
        # First resume runs the machine's pre-connect setup (scheme
        # assignment, path sampling) — historically outside any obs
        # activation, and kept that way.
        connect = machine.send(None)  # type: ignore[arg-type]
        assert isinstance(connect, ConnectRequest)
        flow.obs_ctx = connect.obs_ctx
        flow.transport = FluidFlow(connect.path)
        if flow.transport.cc_name == "cubic":
            flow.weight = edge.cubic_weight
        flows.append(flow)

    # Answer the connects; each machine runs to its first transmit request
    # (or straight to completion for a zero-chunk session).
    for flow in flows:
        _resume(flow, flow.transport)

    def begin_download(flow: _Flow, now: float) -> None:
        """Start the pending request at its due time (cache probe first)."""
        request = flow.request
        assert request is not None
        if cache.lookup(flow.key):  # type: ignore[arg-type]
            # Edge hit: served from the cell cache in one RTT, never
            # touching the shared bottleneck or the origin path.
            transmission_time = flow.transport.base_rtt
            with obs.activate(flow.obs_ctx):
                if obs.ENABLED:
                    obs.counter_inc("edge.cache_hits")
                    obs.counter_inc(
                        "edge.cache_hit_bytes", float(request.size_bytes)
                    )
            info = flow.transport.tcp_info()
            flow.transport.record_download(
                request.size_bytes,
                transmission_time,
                request.send_at + transmission_time,
            )
            flow.request = None
            flow.start_at = math.inf
            _resume(
                flow,
                TransmissionResult(
                    transmission_time=transmission_time,
                    info_at_send=info,
                    rounds=1,
                ),
            )
            return
        with obs.activate(flow.obs_ctx):
            if obs.ENABLED:
                obs.counter_inc("edge.cache_misses")
        flow.remaining_bytes = float(request.size_bytes)
        flow.download_start = now
        flow.info_at_send = flow.transport.tcp_info()
        flow.transport.downloading = True
        flow.active = True

    def finish_download(flow: _Flow, now: float) -> None:
        """Complete the active download and hand the result back."""
        request = flow.request
        assert request is not None
        transmission_time = now - flow.download_start
        srtt = max(flow.transport.srtt, 1e-6)
        result = TransmissionResult(
            transmission_time=transmission_time,
            info_at_send=flow.info_at_send,  # type: ignore[arg-type]
            rounds=max(1, int(round(transmission_time / srtt))),
        )
        flow.transport.record_download(
            request.size_bytes,
            transmission_time,
            request.send_at + transmission_time,
        )
        cache.insert(flow.key)  # type: ignore[arg-type]
        flow.active = False
        flow.request = None
        flow.start_at = math.inf
        flow.remaining_bytes = 0.0
        _resume(flow, result)

    now = 0.0
    events = 0
    while True:
        events += 1
        if events > _MAX_EVENTS:
            raise RuntimeError(
                f"cell {cell.cell_id} exceeded {_MAX_EVENTS} events"
            )
        # 1. Start every pending download that is due (session-id order;
        #    a start may resolve instantly as a cache hit and produce a
        #    new pending request, so sweep until quiescent).
        started = True
        while started:
            started = False
            for flow in flows:
                if flow.request is not None and not flow.active:
                    if flow.start_at <= now:
                        begin_download(flow, now)
                        started = True

        active = [f for f in flows if f.active]
        if not active:
            pending = [f.start_at for f in flows if f.request is not None]
            if not pending:
                break  # every machine has finished
            now = min(pending)
            continue

        # 2. Re-solve fair shares at the current instant.  Each flow is
        #    capped by its private access link (evaluated on the session's
        #    own clock) and weighted by its congestion-control class.
        capacity = link.capacity_at(now)
        caps = [
            f.transport.path.link.capacity_at(max(now - f.offset, 0.0))
            for f in active
        ]
        weights = [f.weight for f in active]
        shares = max_min_shares(capacity, caps, weights)

        # 3. The advance horizon: the earliest of any completion at the
        #    current rates, any capacity-epoch boundary (shared or private
        #    per-flow), and any pending future start.  Boundary candidates
        #    are strictly after ``now`` by construction, so only completion
        #    candidates can land at (or, by underflow, before) the current
        #    instant.
        horizon = _strict_boundary_after(link, now, 0.0)
        for f in active:
            horizon = min(
                horizon,
                _strict_boundary_after(
                    f.transport.path.link, now, f.offset
                ),
            )
        for f in flows:
            if f.request is not None and not f.active and f.start_at > now:
                horizon = min(horizon, f.start_at)
        t_next = horizon
        for f, share in zip(active, shares):
            if share > 0:
                t_next = min(t_next, now + f.remaining_bytes * 8.0 / share)

        if not math.isfinite(t_next):
            raise RuntimeError(
                f"cell {cell.cell_id} stalled at t={now}: no capacity and "
                f"no future event (shared link dead forever?)"
            )
        if t_next <= now:
            # A completion candidate fell below float time resolution
            # (residual bytes under one ulp of ``now`` at the current
            # share).  Finish those downloads at the current instant
            # instead of spinning on a zero-length advance.
            t_next = now
            for f, share in zip(active, shares):
                if (
                    share > 0
                    and now + f.remaining_bytes * 8.0 / share <= now
                ):
                    f.remaining_bytes = 0.0

        # 4. Advance the fluid state to t_next and complete what finished.
        dt = t_next - now
        for f, share in zip(active, shares):
            if share > 0:
                f.remaining_bytes -= share * dt / 8.0
        now = t_next
        for f in active:
            if f.remaining_bytes <= _COMPLETION_TOL_BYTES:
                finish_download(f, now)

    shards = [f.shard for f in flows]
    assert all(shard is not None for shard in shards)
    return CellResult(
        cell=cell,
        shards=[s for s in shards if s is not None],
        cache_hits=cache.hits,
        cache_misses=cache.misses,
        shared=True,
    )

"""The cell co-simulation: N session machines over one shared bottleneck.

:func:`run_cell` is the edge tier's pure unit of work, the analogue of
:func:`repro.experiment.harness.run_session` with a cell as the grain.  It
is a pure function of ``(specs, config, cell, edge, offsets)`` — every
random draw inside is keyed on domain-separated tuple seeds derived from
those arguments — and a declared purity root (``contract.json``), which
is what lets the fleet runner fork it across workers and resume it after
``kill -9`` byte-identically.

Two execution paths:

* **degenerate** (``cell.size == 1``) — dispatches directly to
  :func:`run_session`: one viewer alone at an edge has a private
  bottleneck, no contention, and a cache shared with nobody, so the
  private-link path *is* the correct model and the results are
  bit-identical to it (the property ``tests/edge/test_degenerate_
  equivalence.py`` enforces).
* **shared** (``cell.size >= 2``) — event-driven fluid co-simulation.
  Each session runs as a :func:`~repro.experiment.harness.session_machine`
  generator; its transmit requests become fluid downloads over the cell's
  shared :class:`~repro.net.link.LinkModel`.  Active downloads advance at
  weighted max-min fair shares (:func:`repro.edge.fairshare
  .max_min_shares`), capped by each flow's private access link.  Chunk
  requests first probe the cell's LRU cache — hits serve in one RTT off
  the edge, misses traverse the origin path and are admitted on
  completion.

The shared path pays per change, not per event.  Every link — the cell's
shared one and each flow's private one — is read through a capacity
cursor (:class:`_Cursor`): one ``epoch_at`` read per capacity epoch,
held while the clock stays inside the span ``[t, next_change_after(t))``
over which the :class:`~repro.net.link.LinkModel` contract declares the
capacity constant.  The set of active downloads is rebuilt only when a
download begins or finishes, the start sweep runs only when the earliest
pending start is due, and fair shares are re-solved only when the active set
differs from the last solve's or some cursor has re-read its link since —
otherwise the solver's inputs, and so its shares, are the last solve's (a
download that finishes and is followed at once by the next one leaves the
active set as it was).  Each of these only skips work whose result is
already known, so every event sees the values the per-event
re-evaluation in ``tests/edge/engine_reference.py`` computes.

Time bookkeeping: each session machine keeps its own session-relative
clock (second 0 = the viewer arrives); the engine places session ``i`` at
``offsets[i]`` in cell time and converts at the boundary.  Events at equal
times resolve in session-id order, so the co-simulation is deterministic
by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence

import numpy as np

from repro import obs, sanitizer
from repro.abr.base import AbrAlgorithm
from repro.edge.cache import ChunkKey, EdgeCache
from repro.edge.cells import Cell, EdgeConfig
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
"""A download with fewer residual bytes than this has completed (absorbs
float rounding in the fluid advance)."""

_MAX_EVENTS = 50_000_000
"""Runaway guard on the event loop, far above any real cell."""


@dataclass
class CellResult:
    """Everything one cell contributes to a fleet."""

    cell: Cell
    shards: List[SessionShard]
    cache_hits: int
    cache_misses: int
    shared: bool
    """Whether the fluid co-simulation ran (``False`` for the degenerate
    private-link dispatch)."""


class _Flow:
    """Engine-side state for one session in a shared cell.

    ``transport`` and ``cursor`` (on the flow's private access link) are
    assigned by :func:`run_cell` immediately after the machine's
    :class:`ConnectRequest` (before any other field is read), so they are
    declared non-optional.  ``start_at`` is the cell time a pending request
    is due, and ``inf`` while the flow downloads or has nothing pending.
    """

    __slots__ = (
        "session_id",
        "machine",
        "offset",
        "transport",
        "cursor",
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
    cursor: _Cursor

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


class _Cursor:
    """One link's capacity, held for as long as the link says it holds.

    The link runs on a clock shifted by ``offset`` (session-relative; 0 for
    the cell's shared link).  :meth:`advance` re-reads the link (one
    ``epoch_at``) only when cell time leaves the span the last read
    covered: capacity is constant on ``[t, next_change_after(t))`` — the
    :class:`LinkModel` contract :meth:`repro.net.tcp.TcpConnection.transmit`
    relies on too — so between re-reads ``capacity`` is what
    ``capacity_at`` would return.
    ``boundary`` is the next change point in cell time, strictly after
    the instant of the last read.
    """

    __slots__ = ("link", "offset", "capacity", "change_at", "boundary")

    def __init__(self, link: LinkModel, offset: float) -> None:
        self.link = link
        self.offset = offset
        self.capacity = 0.0
        # Nothing read yet: the first advance re-reads.
        self.change_at = -math.inf
        self.boundary = -math.inf

    def advance(self, now: float) -> bool:
        """Bring the cursor to cell time ``now``; whether it re-read.

        :func:`run_cell` runs the no-reread test itself and calls this only
        when it fails.  It drops the floor at 0 there: a downloading flow
        has arrived, ``now >= offset``, so ``now - offset`` is never
        negative.
        """
        local = max(now - self.offset, 0.0)
        if local < self.change_at and now < self.boundary:
            return False
        link, offset = self.link, self.offset
        self.capacity, boundary = link.epoch_at(local)
        self.change_at = boundary
        # Mapping the boundary back to cell time (``offset + boundary``)
        # can land at or before ``now`` through float rounding; the event
        # loop must make strict progress, so re-query past the boundary
        # until it does.
        while offset + boundary <= now:
            boundary = link.next_change_after(boundary)
        self.boundary = offset + boundary
        return True


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


def _count(flow: _Flow, name: str, amount: float = 1.0) -> None:
    """``obs.counter_inc`` under the flow's obs context, as
    ``with obs.activate(flow.obs_ctx): if obs.ENABLED: ...`` would count it:
    into the flow's own context, or — with none — into whatever is active."""
    ctx = flow.obs_ctx
    if ctx is not None:
        ctx.metrics.inc(name, amount)
    elif obs.ENABLED:
        obs.counter_inc(name, amount)


def _resume(flow: _Flow, value: "FluidFlow | TransmissionResult") -> None:
    """Advance a session machine one step under its obs context.

    Stores the next pending transmit request on the flow, or the final
    shard when the machine finishes.  A flow without a context resumes
    without entering ``obs.activate``, whose ``None`` branch is a no-op.
    """
    ctx = flow.obs_ctx
    try:
        if ctx is None:
            request = flow.machine.send(value)
        else:
            with obs.activate(ctx):
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


@sanitizer.guarded("run_cell")
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
    for index, offset in enumerate(offsets):
        # isfinite first: a NaN passes ``offset < 0`` and would put the
        # event loop's clock at NaN, where no event is ever due.
        if not math.isfinite(offset):
            raise ValueError(f"offsets[{index}] must be finite, got {offset}")
        if offset < 0:
            raise ValueError(
                f"offsets[{index}] must be non-negative, got {offset}"
            )

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
        flow.cursor = _Cursor(connect.path.link, flow.offset)
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
            _count(flow, "edge.cache_hits")
            _count(flow, "edge.cache_hit_bytes", float(request.size_bytes))
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
        _count(flow, "edge.cache_misses")
        flow.remaining_bytes = float(request.size_bytes)
        flow.download_start = now
        flow.info_at_send = flow.transport.tcp_info()
        flow.transport.downloading = True
        flow.active = True
        flow.start_at = math.inf

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
        flow.remaining_bytes = 0.0
        _resume(flow, result)

    shared = _Cursor(link, 0.0)
    active: List[_Flow] = []
    # The last solve: the flows it was for and their shares.  ``resolve``
    # says some cursor has re-read its link since.
    solved: Optional[List[_Flow]] = None
    shares: List[float] = []
    resolve = False
    next_start = min([f.start_at for f in flows])
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
        if next_start <= now:
            started = True
            while started:
                started = False
                for flow in flows:
                    if flow.start_at <= now:
                        begin_download(flow, now)
                        started = True
            active = [f for f in flows if f.active]
            next_start = min([f.start_at for f in flows])

        if not active:
            if next_start == math.inf:
                break  # every machine has finished
            now = next_start
            continue

        # 2. Fair shares at the current instant.  Each flow is capped by
        #    its private access link (on the session's own clock) and
        #    weighted by its congestion-control class.  The solve re-runs
        #    only when its inputs may differ from the last solve's: another
        #    active set, or a cursor that has re-read its link since.
        #
        # 3. The advance horizon: the earliest of any capacity boundary
        #    (shared or private per-flow), any pending future start, and
        #    any completion at the current rates.  Boundaries are strictly
        #    after ``now`` and so are pending starts, so only completion
        #    candidates can land at (or, by underflow, before) the current
        #    instant.
        #
        #    A cursor is advanced only past the span its last read covers
        #    (:meth:`_Cursor.advance`'s own test, run here first; the
        #    shared link's offset is 0).
        if not (now < shared.change_at and now < shared.boundary):
            shared.advance(now)
            resolve = True
        horizon = shared.boundary
        if next_start < horizon:
            horizon = next_start
        for f in active:
            cursor = f.cursor
            if not (
                now - cursor.offset < cursor.change_at
                and now < cursor.boundary
            ):
                cursor.advance(now)
                resolve = True
            if cursor.boundary < horizon:
                horizon = cursor.boundary
        if resolve or active != solved:
            shares = max_min_shares(
                shared.capacity,
                [f.cursor.capacity for f in active],
                [f.weight for f in active],
            )
            solved = active
            resolve = False
        t_next = horizon
        for f, share in zip(active, shares):
            if share > 0:
                done_at = now + f.remaining_bytes * 8.0 / share
                if done_at < t_next:
                    t_next = done_at

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

        # 4. Advance the fluid state to t_next and complete what finished
        #    (a completion changes no other flow's fluid state, so each flow
        #    can advance and finish in one step, in session-id order).  A
        #    finish changes only its own flow's ``active`` and ``start_at``:
        #    the active list keeps the rest, in order, and the earliest
        #    pending start can only move down to the new request's.
        dt = t_next - now
        now = t_next
        finished = False
        for f, share in zip(active, shares):
            if share > 0:
                f.remaining_bytes -= share * dt / 8.0
            if f.remaining_bytes <= _COMPLETION_TOL_BYTES:
                finish_download(f, now)
                if f.start_at < next_start:
                    next_start = f.start_at
                finished = True
        if finished:
            active = [f for f in active if f.active]

    shards = [f.shard for f in flows]
    assert all(shard is not None for shard in shards)
    return CellResult(
        cell=cell,
        shards=[s for s in shards if s is not None],
        cache_hits=cache.hits,
        cache_misses=cache.misses,
        shared=True,
    )

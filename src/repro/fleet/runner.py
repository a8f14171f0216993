"""The fleet driver: open-ended deployment runs at constant memory.

Composes the other three fleet pieces with the existing trial machinery:

* sessions come from the :mod:`repro.fleet.workload` arrival process;
* each session is simulated by the **pure**
  :func:`repro.experiment.harness.run_session` (every draw keyed on
  ``(seed, session_id)``), through the trial's own session chunk
  :func:`repro.experiment.parallel.run_sessions`, so the fleet inherits the
  trial's independence and embarrassing parallelism;
* per-chunk results are folded into :class:`repro.fleet.sinks.FleetSink`
  deltas *in the worker* and discarded — only O(chunk) state ever exists;
* the driver commits chunks in session-id order, streams telemetry to the
  open-data archive (optional), and checkpoints after every commit
  (:mod:`repro.fleet.checkpoint`).

Execution is :func:`repro.experiment.parallel.fork_map` — the one process
pool — over :func:`_simulate_chunk`: chunks are contiguous session-id ranges
cut by :func:`repro.experiment.parallel.chunked` (per-process scheme
instances, fork-inherited payload) whose deltas come back in order, lazily,
so commits stream instead of materializing every result.  Because sink merging is exact (integer arithmetic), the final dump
is byte-identical at any worker count, any chunk size, and across
kill/resume at any point.  :func:`_drive_fleet` is the only commit loop:
:func:`run_fleet` runs it over one segment, the continual-retraining service
(:mod:`repro.fleet.retrain`) over one segment per simulated day.
"""

from __future__ import annotations

import json
import time
from contextlib import closing
from dataclasses import dataclass, field, replace
from itertools import islice
from typing import (
    Callable,
    Dict,
    Generator,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro import obs
from repro.atomio import atomic_write_text
from repro.crashpoints import crashpoint
from repro.analysis.bootstrap import ConfidenceInterval
from repro.analysis.summary import SchemeSummary
from repro.data.archive import ArchiveAppender, ArchiveError
from repro.edge.cells import Cell, EdgeConfig, iter_cells
from repro.edge.engine import run_cell
from repro.experiment import parallel
from repro.experiment.consort import classify_stream
from repro.experiment.harness import (
    SessionShard,
    TrialConfig,
    assign_expt_ids,
    checked_scheme_names,
)
from repro.experiment.schemes import SchemeSpec
from repro.fleet.checkpoint import (
    CheckpointManager,
    FleetCheckpoint,
    config_fingerprint,
)
from repro.fleet.sinks import FleetSink
from repro.fleet.workload import (
    SessionArrival,
    WorkloadConfig,
    WorkloadGenerator,
)
from repro.streaming.telemetry import TelemetryLog

DUMP_SCHEMA_VERSION = 1
"""Version of the ``repro fleet`` metrics-dump JSON layout."""

DEFAULT_CHUNK_SESSIONS = 16
"""Sessions per commit/checkpoint unit.  Grouping is irrelevant to the
result (sink merging is exact); this only trades checkpoint frequency
against pool overhead."""


@dataclass(frozen=True)
class FleetConfig:
    """One deployment simulation: offered load + per-session environment."""

    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    trial: TrialConfig = field(default_factory=TrialConfig)
    """Per-session knobs (seed, population, viewer, channels, probabilities).
    ``trial.n_sessions`` is ignored — the workload decides how many sessions
    arrive."""

    chunk_sessions: int = DEFAULT_CHUNK_SESSIONS
    """Sessions per commit (and per checkpoint).  Not part of the
    fingerprint: any cadence reproduces the same dump."""

    edge: Optional[EdgeConfig] = None
    """Cell mode: partition arrivals into shared-bottleneck edge cells and
    run each cell through :func:`repro.edge.engine.run_cell` (singleton
    cells dispatch to the private-link path bit-identically).  ``None``
    keeps the classic fleet of one private link per session.  Part of the
    fingerprint — cell mode changes the science."""

    def __post_init__(self) -> None:
        if self.chunk_sessions < 1:
            raise ValueError("chunk_sessions must be >= 1")

    def fingerprint(self, specs: Sequence[SchemeSpec]) -> str:
        """Configuration identity for checkpoint compatibility.

        Covers everything that changes the science: the workload, the
        per-session trial knobs (including the viewer/population models,
        via their stable dataclass reprs), the scheme set, and the edge
        tier when enabled (appended only then, so classic checkpoints keep
        their historical fingerprints).  Excludes pure execution knobs
        (workers, chunk size, checkpoint cadence).
        """
        trial = self.trial
        trial_knobs = {
            "seed": trial.seed,
            "population": repr(trial.population),
            "viewer": repr(trial.viewer),
            "channels": [c.name for c in trial.channels],
            "extra_stream_prob": trial.extra_stream_prob,
            "max_streams_per_session": trial.max_streams_per_session,
            "slow_decoder_prob": trial.slow_decoder_prob,
            "loss_of_contact_prob": trial.loss_of_contact_prob,
        }
        parts: List[object] = [
            self.workload.to_dict(),
            trial_knobs,
            [spec.name for spec in specs],
        ]
        if self.edge is not None:
            parts.append({"edge": self.edge.to_dict()})
        return config_fingerprint(*parts)


@dataclass
class FleetResult:
    """Outcome of a fleet run (possibly a paused partial run)."""

    sink: FleetSink
    config: FleetConfig
    scheme_names: List[str]
    next_session_id: int
    completed: bool
    throughput: Optional[parallel.Throughput] = None
    checkpoint_path: Optional[str] = None
    archive_dir: Optional[str] = None
    dump_path: Optional[str] = None
    edge_stats: Optional[dict] = None
    """Edge-tier accounting (cells, shared_cells, cache_hits, cache_misses)
    when cell mode is on.  Deliberately excluded from the dump: the dump
    surface is identical between a degenerate cell run and a classic run,
    which is what the byte-equivalence tests compare.  Cache behaviour is
    observable through :mod:`repro.obs` counters instead."""

    def summaries(self) -> List[SchemeSummary]:
        return self.sink.summaries()

    def to_dump_dict(self) -> dict:
        """The canonical metrics dump (the byte-identity surface).

        Contains only deterministic state: the configuration, the exact
        sink state, and summary statistics derived from it.  Wall-clock
        throughput is deliberately excluded.
        """
        summaries = {}
        for summary in self.summaries():
            duration = summary.mean_session_duration_s
            summaries[summary.scheme] = {
                "n_streams": summary.n_streams,
                "stream_years": summary.stream_years,
                "stall_ratio": _ci_dict(summary.stall_ratio),
                "mean_ssim_db": _ci_dict(summary.mean_ssim_db),
                "ssim_variation_db": summary.ssim_variation_db,
                "mean_bitrate_bps": summary.mean_bitrate_bps,
                "mean_session_duration_s": (
                    _ci_dict(duration) if duration is not None else None
                ),
                "startup_delay_s": summary.startup_delay_s,
                "first_chunk_ssim_db": summary.first_chunk_ssim_db,
                "fraction_streams_with_stall": (
                    summary.fraction_streams_with_stall
                ),
            }
        return {
            "schema_version": DUMP_SCHEMA_VERSION,
            "workload": self.config.workload.to_dict(),
            "trial_seed": self.config.trial.seed,
            "scheme_names": list(self.scheme_names),
            "next_session_id": self.next_session_id,
            "completed": self.completed,
            "sink": self.sink.to_dict(),
            "summaries": summaries,
        }

    def dump(self, path: str) -> str:
        """Write the canonical metrics dump (sorted keys, 2-space indent).

        Atomic + durable: a kill mid-dump must leave no torn file for a
        ``cmp``-based resume check to misread as corruption.
        """
        payload = json.dumps(self.to_dump_dict(), sort_keys=True, indent=2)
        atomic_write_text(path, payload + "\n")
        self.dump_path = path
        return path

    def format_table(self) -> str:
        """Human-readable per-scheme table (the ``repro fleet`` CLI)."""
        return format_sink_table(self.sink)


def format_sink_table(sink: FleetSink) -> str:
    """Per-scheme table for any :class:`FleetSink` (result, checkpoint,
    or metrics dump — ``repro fleet report`` prints all three)."""
    lines = [
        f"{'Scheme':<15}{'Stall %':>9}{'SSIM dB':>9}{'N':>8}"
        f"{'Str-years':>11}"
    ]
    for summary in sink.summaries():
        lines.append(
            f"{summary.scheme:<15}{summary.stall_percent:>9.3f}"
            f"{summary.mean_ssim_db.point:>9.2f}{summary.n_streams:>8}"
            f"{summary.stream_years:>11.4f}"
        )
    days = ", ".join(
        f"d{day}:{sink.sessions_by_day[day]}"
        for day in sorted(sink.sessions_by_day)
    )
    lines.append(
        f"sessions={sink.sessions} streams={sink.streams} "
        f"watch={sink.stream_years:.4f} stream-years "
        f"[{days or 'no sessions'}]"
    )
    return "\n".join(lines)


def _ci_dict(ci: ConfidenceInterval) -> dict:
    return {
        "point": ci.point,
        "low": ci.low,
        "high": ci.high,
        "confidence": ci.confidence,
    }


# ---------------------------------------------------------------------------
# Chunk execution (the fork_map chunk function, in-process or in a worker).
# ---------------------------------------------------------------------------
_EDGE_STATS = ("cells", "shared_cells", "cache_hits", "cache_misses")


@dataclass
class _FleetChunk:
    """One committed unit: the chunk's exact sink delta and its telemetry."""

    last_session_id: int
    delta: FleetSink
    telemetry: Optional[TelemetryLog]
    edge_stats: Dict[str, int]
    """Edge-tier accounting, keyed by :data:`_EDGE_STATS` (all zero in
    classic mode; never enters the dump)."""


def _fold_session(
    delta: FleetSink, shard: SessionShard, arrival: SessionArrival
) -> None:
    """Fold one finished session into a sink delta.

    This is where stream results die: after folding, nothing retains them,
    which is what makes fleet memory independent of run length.
    """
    session = shard.session
    delta.sessions += 1
    delta.streams += len(session.streams)
    day = arrival.day
    delta.sessions_by_day[day] = delta.sessions_by_day.get(day, 0) + 1
    delta.arrivals_by_hour[int(arrival.hour_of_day) % 24] += 1
    scheme_sink = delta.scheme(session.scheme)
    arm = shard.consort.arms[session.scheme]
    scheme_sink.observe_exclusions(
        streams_assigned=arm.streams_assigned,
        did_not_begin=arm.did_not_begin,
        watch_time_under_4s=arm.watch_time_under_4s,
        slow_video_decoder=arm.slow_video_decoder,
        truncated_loss_of_contact=arm.truncated_loss_of_contact,
    )
    scheme_sink.observe_session_duration(session.duration)
    for stream in session.streams:
        delta.sim_watch_s.add(stream.watch_time)
        if classify_stream(stream) == "considered":
            scheme_sink.observe_stream(stream)


@dataclass
class _ChunkPayload(parallel.SessionPayload):
    """The fleet's :func:`~repro.experiment.parallel.fork_map` payload: the
    session payload plus the edge tier, when the chunk's items are cells."""

    edge: Optional[EdgeConfig]


_CellItems = Tuple[int, List[Tuple[int, float]]]
"""One cell's share of a chunk: ``(cell_id, [(session_id, time_s), ...])``
with the arrivals contiguous and covering the whole (possibly truncated)
cell."""


def _simulate_chunk(payload: _ChunkPayload, items: Sequence) -> _FleetChunk:
    """Simulate one contiguous chunk of arrivals into one exact sink delta.

    The chunk function of every fleet run, in a pool worker or in-process.
    ``items`` is ``[(session_id, time_s), ...]``, or in cell mode a list of
    whole cells (:data:`_CellItems`).  The shards come from the trial's
    session chunk (:func:`~repro.experiment.parallel.run_sessions`) or from
    ``run_cell`` per cell, which agree where they overlap (a singleton cell
    *is* a ``run_session`` call).
    """
    edge_stats = dict.fromkeys(_EDGE_STATS, 0)
    if payload.edge is not None:
        # Each cell runs with offsets measured from its first arrival
        # (sessions in a cell contend in arrival order; cells are
        # independent, so absolute time never matters).
        arrivals: Sequence[Tuple[int, float]] = [
            arrival for _, cell_items in items for arrival in cell_items
        ]
        shards: List[SessionShard] = []
        for cell_id, cell_items in items:
            first_session_id, first_time_s = cell_items[0]
            result = run_cell(
                payload.specs,
                payload.config,
                Cell(
                    cell_id=cell_id,
                    start_session_id=first_session_id,
                    size=len(cell_items),
                ),
                payload.edge,
                offsets=[time_s - first_time_s for _, time_s in cell_items],
                expt_ids=payload.expt_ids,
                algorithms=payload.algorithms,
            )
            edge_stats["cells"] += 1
            edge_stats["shared_cells"] += 1 if result.shared else 0
            edge_stats["cache_hits"] += result.cache_hits
            edge_stats["cache_misses"] += result.cache_misses
            shards.extend(result.shards)
    else:
        arrivals = items
        shards = parallel.run_sessions(
            payload, [session_id for session_id, _ in items]
        )
    delta = FleetSink()
    telemetry = TelemetryLog() if payload.config.collect_telemetry else None
    for (session_id, time_s), shard in zip(arrivals, shards):
        _fold_session(
            delta, shard, SessionArrival(session_id=session_id, time_s=time_s)
        )
        if telemetry is not None and shard.telemetry is not None:
            telemetry.extend(shard.telemetry)
    return _FleetChunk(
        last_session_id=arrivals[-1][0],
        delta=delta,
        telemetry=telemetry,
        edge_stats=edge_stats,
    )


def _chunked_cells(
    arrivals: Iterator[SessionArrival],
    edge: EdgeConfig,
    size: int,
    start_session_id: int = 0,
) -> Iterator[List[_CellItems]]:
    """Group arrivals into commit-sized chunks of *whole* cells.

    The cell partition is a pure function of the edge config (sizes seeded
    per cell id), so any resume point recomputes the same boundaries.  A
    chunk closes at the first cell boundary at or past ``size`` sessions —
    every committed ``next_session_id`` is therefore itself a cell
    boundary, which is what makes kill/resume alignment automatic.  The
    final cell of a finite workload may be truncated by the arrival stream
    (fewer sessions than its seeded size); contention among the sessions
    that did arrive is unaffected.  Only a run with nothing left to
    simulate can therefore resume from inside a cell, which is why the
    alignment is checked against arrivals, not up front.
    """
    chunk: List[_CellItems] = []
    sessions_in_chunk = 0
    for cell in iter_cells(edge):
        if cell.end_session_id <= start_session_id:
            continue
        members = [(a.session_id, a.time_s) for a in islice(arrivals, cell.size)]
        if not members:
            break
        if members[0][0] != cell.start_session_id:
            raise ValueError(
                f"arrival stream out of step with cell partition: got "
                f"session {members[0][0]} where cell {cell.cell_id} starts at "
                f"{cell.start_session_id} — a resume point with sessions "
                "still to come must be a cell boundary"
            )
        chunk.append((cell.cell_id, members))
        sessions_in_chunk += len(members)
        if sessions_in_chunk >= size:
            yield chunk
            chunk = []
            sessions_in_chunk = 0
    if chunk:
        yield chunk


# ---------------------------------------------------------------------------
# The driver.
# ---------------------------------------------------------------------------
_Segment = Tuple[Sequence[SchemeSpec], Iterator[SessionArrival]]
"""One stretch of a run simulated against a fixed arm set: the specs and
the arrivals they serve.  Each segment gets its own pool, because the
payload (specs, expt ids) is fork-inherited at pool creation."""


def _drive_fleet(
    specs: Sequence[SchemeSpec],
    config: FleetConfig,
    fingerprint: str,
    plan: Callable[..., Generator[_Segment, None, None]],
    workers: int,
    checkpoint_path: Optional[str],
    resume: bool,
    archive_dir: Optional[str],
    stop_after_sessions: Optional[int],
    cli_args: Optional[dict],
    on_commit: Optional[Callable[[int, FleetSink], None]],
) -> FleetResult:
    """The one commit loop behind :func:`run_fleet` and
    :func:`repro.fleet.retrain.run_fleet_retrain`.

    Validates the arguments, loads the checkpoint and rolls the archive
    back to it, then for each segment of ``plan`` runs :func:`_simulate_chunk`
    over commit-sized chunks through
    :func:`~repro.experiment.parallel.fork_map` and commits the deltas in
    session-id order — merge into the sink, append telemetry, checkpoint —
    until the plan is exhausted or ``stop_after_sessions`` is reached.

    ``plan(arrivals, checkpoint, appender, extra, save_checkpoint)`` is a
    generator function yielding the run's segments in order.  ``arrivals``
    is the workload from the resume point on; ``checkpoint`` is the one
    being resumed (``None`` on a fresh start); ``appender`` is the open
    archive, already rolled back; ``extra`` is the dict every checkpoint
    stores verbatim — a plan with state of its own keeps it there;
    ``save_checkpoint(completed)`` makes the present state durable.  Code
    after a ``yield`` runs once that segment has fully committed, and not at
    all when the run pauses inside it.
    """
    specs = list(specs)
    names = checked_scheme_names(specs)
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if stop_after_sessions is not None and stop_after_sessions < 1:
        raise ValueError("stop_after_sessions must be >= 1")

    trial = replace(
        config.trial,
        n_sessions=1,  # unused by run_session; workload decides scale
        collect_telemetry=archive_dir is not None,
    )

    manager = (
        CheckpointManager(checkpoint_path)
        if checkpoint_path is not None
        else None
    )
    checkpoint: Optional[FleetCheckpoint] = None
    sink = FleetSink()
    next_session_id = 0
    extra: dict = {}
    if resume and manager is not None and manager.exists():
        checkpoint = manager.load(expected_fingerprint=fingerprint)
        sink = checkpoint.sink
        next_session_id = checkpoint.next_session_id
        extra = checkpoint.extra
    edge_stats = dict.fromkeys(_EDGE_STATS, 0)
    if config.edge is not None:
        edge_stats.update(
            {k: int(v) for k, v in extra.get("edge", {}).items()}
        )
        extra["edge"] = edge_stats  # tallied in place by commit()

    commits = 0
    resumed_sessions, resumed_streams = sink.sessions, sink.streams
    stopped = False
    # repro: allow-DET002(throughput report timing; never enters results)
    start_wall = time.perf_counter()

    appender = ArchiveAppender(archive_dir) if archive_dir is not None else None
    try:
        if appender is not None:
            if checkpoint is not None and checkpoint.archive_offsets is not None:
                # Roll the streamed archive back to the last durable commit:
                # rows appended after the surviving checkpoint belong to
                # sessions that will be re-simulated.
                appender.truncate_to(checkpoint.archive_offsets)
            elif resume and checkpoint is None:
                # Fresh start under --resume: the crash landed before the
                # first checkpoint ever committed, so every row a dead run
                # appended is uncommitted — clear them, or the restart would
                # append after leftovers and diverge from a clean run.
                appender.reset()
            elif not resume and appender.holds_rows():
                # A fresh run numbers its streams from session 0: appended to
                # another run's rows, the join would pair one run's acks with
                # the other's sends.
                raise ArchiveError(
                    f"archive {archive_dir} already holds rows; resume the "
                    "run that wrote them (--resume with its --checkpoint, or "
                    "resume=True), or use an empty directory"
                )

        def save_checkpoint(completed: bool) -> None:
            if manager is None:
                return
            offsets = None
            if appender is not None:
                appender.flush(sync=True)
                offsets = appender.offsets()
            # Commit order: archive rows must be durable before the
            # checkpoint durably records their byte offsets (DUR003 pair).
            crashpoint("fleet.checkpoint-boundary")
            manager.save(
                FleetCheckpoint(
                    fingerprint=fingerprint,
                    next_session_id=next_session_id,
                    sink=sink,
                    archive_offsets=offsets,
                    cli_args=cli_args,
                    completed=completed,
                    extra=extra,
                )
            )

        def commit(chunk_result: _FleetChunk) -> None:
            # repro: allow-CKPT002(the commit counter is wall-clock throughput accounting; a resumed run correctly restarts it at zero)
            nonlocal next_session_id, commits
            sink.merge(chunk_result.delta)
            if appender is not None and chunk_result.telemetry is not None:
                appender.append(chunk_result.telemetry)
            next_session_id = chunk_result.last_session_id + 1
            commits += 1
            for key, count in chunk_result.edge_stats.items():
                edge_stats[key] += count
            save_checkpoint(completed=False)
            if obs.ENABLED:
                obs.counter_inc("fleet.commits")
                obs.counter_inc(
                    "fleet.sessions", float(chunk_result.delta.sessions)
                )
            if on_commit is not None:
                on_commit(next_session_id, sink)

        def should_stop() -> bool:
            return (
                stop_after_sessions is not None
                and next_session_id >= stop_after_sessions
            )

        arrivals = WorkloadGenerator(config.workload).arrivals(
            start_session_id=next_session_id
        )
        # closing(): a pause or a failing chunk tears the pool down, and
        # abandons the plan at its yield, here instead of at GC time.
        with closing(
            plan(arrivals, checkpoint, appender, extra, save_checkpoint)
        ) as segments:
            for segment_specs, segment_arrivals in segments:
                payload = _ChunkPayload(
                    list(segment_specs),
                    trial,
                    assign_expt_ids(segment_specs, trial.seed),
                    edge=config.edge,
                )
                if config.edge is not None:
                    chunks: Iterator[List] = _chunked_cells(
                        segment_arrivals,
                        config.edge,
                        config.chunk_sessions,
                        start_session_id=next_session_id,
                    )
                else:
                    chunks = parallel.chunked(
                        ((a.session_id, a.time_s) for a in segment_arrivals),
                        config.chunk_sessions,
                    )
                with closing(
                    parallel.fork_map(_simulate_chunk, payload, chunks, workers)
                ) as chunk_results:
                    for chunk_result in chunk_results:
                        commit(chunk_result)
                        if should_stop():
                            stopped = True
                            break
                if stopped:
                    break

        completed = not stopped
        save_checkpoint(completed=completed)
    finally:
        if appender is not None:
            appender.close()
    # repro: allow-DET002(throughput report timing; never enters results)
    wall = time.perf_counter() - start_wall

    return FleetResult(
        sink=sink,
        config=config,
        scheme_names=names,
        next_session_id=next_session_id,
        completed=completed,
        throughput=parallel.Throughput(
            mode=parallel.pool_mode(workers),
            workers=workers,
            sessions=sink.sessions - resumed_sessions,
            streams=sink.streams - resumed_streams,
            wall_s=wall,
            commits=commits,
            checkpoints=manager.saves if manager is not None else 0,
        ),
        checkpoint_path=checkpoint_path,
        archive_dir=archive_dir,
        edge_stats=dict(edge_stats) if config.edge is not None else None,
    )


def run_fleet(
    specs: Sequence[SchemeSpec],
    config: FleetConfig,
    workers: int = 1,
    checkpoint_path: Optional[str] = None,
    resume: bool = False,
    archive_dir: Optional[str] = None,
    stop_after_sessions: Optional[int] = None,
    cli_args: Optional[dict] = None,
    on_commit: Optional[Callable[[int, FleetSink], None]] = None,
) -> FleetResult:
    """Run (or resume) a deployment simulation.

    Parameters
    ----------
    workers:
        ``1`` runs chunks in-process; ``N > 1`` shards them across a forked
        pool, streaming results back in session-id order.  The dump is
        byte-identical either way.
    checkpoint_path:
        Where to keep the crash-safe checkpoint.  With ``resume=True`` an
        existing checkpoint (same configuration fingerprint) is continued;
        a missing checkpoint starts fresh.
    archive_dir:
        Stream the open-data archive (Appendix B CSVs) here incrementally;
        on resume, files are truncated back to the last durable commit.
    stop_after_sessions:
        Pause the run once at least this many sessions (across all commits,
        including resumed state) have been committed — an operational
        budget; the returned result has ``completed=False`` and the run can
        be resumed later.
    cli_args:
        Recorded verbatim in the checkpoint so ``repro fleet resume`` can
        reconstruct the configuration without retyping it.
    on_commit:
        Called after every committed chunk with ``(next_session_id, sink)``
        — progress reporting hook.
    """
    specs = list(specs)

    def whole_run(
        arrivals: Iterator[SessionArrival], *_: object
    ) -> Generator[_Segment, None, None]:
        yield specs, arrivals

    return _drive_fleet(
        specs,
        config,
        config.fingerprint(specs),
        whole_run,
        workers,
        checkpoint_path,
        resume,
        archive_dir,
        stop_after_sessions,
        cli_args,
        on_commit,
    )

"""The randomized controlled trial harness (§3.4).

Reproduces Puffer's experimental design: each *session* (one visit to the
player) is randomly assigned, blinded, to one scheme; a session may contain
several *streams* (channel changes keep the TCP connection and the assigned
algorithm, Fig. A1); client telemetry is recorded; exclusions follow the
CONSORT flow.

Sessions are independent by construction: every random draw a session makes
is keyed on ``(config.seed, session_id)``, so one arm's behaviour (how long
its streams run, which channels it watches) cannot perturb the randomness
any other session sees — exactly as in the real trial, where users arrive
independently.  That independence is what makes the trial *embarrassingly
parallel*: :func:`run_session` is a pure function of
``(specs, config, session_id)`` and the trial engine in
:mod:`repro.experiment.parallel` shards sessions across workers and merges
the shards back bit-identically at any worker count.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Generator,
    List,
    Mapping,
    Optional,
    Sequence,
    Union,
)

import numpy as np

from repro import obs, sanitizer
from repro.atomio import atomic_write_text
from repro.abr.base import AbrAlgorithm
from repro.experiment.consort import (
    ConsortFlow,
    classify_stream,
    eligible_streams,
)
from repro.experiment.schemes import SchemeSpec
from repro.experiment.watch import ViewerModel
from repro.fields import check, probability, whole, whole_positive
from repro.media.encoder import CHUNK_DURATION
from repro.media.menus import DEFAULT_BLOCK_CHUNKS, MenuBlockSource
from repro.media.source import DEFAULT_CHANNELS, Channel
from repro.net.path import NetworkPath, PathSampler, PopulationModel
from repro.net.tcp import TransmissionResult
from repro.streaming.buffer import MAX_BUFFER_S
from repro.streaming.fastpath import fast_stream, reproduces
from repro.streaming.session import StreamResult
from repro.streaming.simulator import (
    DEFAULT_LOOKAHEAD,
    TransmitRequest,
    Transport,
    stream_machine,
)
from repro.streaming.telemetry import StreamRecorder, TelemetryLog

if TYPE_CHECKING:  # parallel imports this module
    from repro.experiment.parallel import Throughput

__all__ = [
    "ConnectRequest",
    "RandomizedTrial",
    "SessionResult",
    "SessionShard",
    "TrialConfig",
    "TrialResult",
    "assign_expt_ids",
    "checked_scheme_names",
    "connection_seed",
    "media_seed",
    "merge_shards",
    "run_session",
    "session_machine",
]


@dataclass(frozen=True)
class TrialConfig:
    """Scale and environment knobs for one randomized trial."""

    n_sessions: int = 500
    seed: int = 0
    population: PopulationModel = field(default_factory=PopulationModel)
    viewer: ViewerModel = field(default_factory=ViewerModel)
    channels: Sequence[Channel] = tuple(DEFAULT_CHANNELS)
    extra_stream_prob: float = 0.55
    max_streams_per_session: int = 8
    slow_decoder_prob: float = 0.0002
    loss_of_contact_prob: float = 0.01
    collect_telemetry: bool = False
    observability: bool = False
    """Collect per-session :class:`repro.obs.ObsContext` metrics/events and
    merge them (deterministically, by session id) onto the trial result.
    Instrumentation never perturbs the simulation — stream records are
    bit-identical with this on or off."""

    KINDS = {
        "n_sessions": whole_positive, "seed": whole,
        "extra_stream_prob": probability,
        "max_streams_per_session": whole_positive,
        "slow_decoder_prob": probability, "loss_of_contact_prob": probability,
    }

    def __post_init__(self) -> None:
        check(self)
        if self.extra_stream_prob >= 1.0:
            raise ValueError("extra_stream_prob must lie in [0, 1)")
        if len(self.channels) == 0:
            raise ValueError("channels must name at least one channel")


@dataclass
class SessionResult:
    """All streams of one randomized session."""

    session_id: int
    scheme: str
    expt_id: int
    streams: List[StreamResult] = field(default_factory=list)

    @property
    def duration(self) -> float:
        """Total time on the video player (Fig. 10's x-axis)."""
        return sum(stream.total_time for stream in self.streams)


@dataclass
class TrialResult:
    """Outcome of a randomized trial."""

    sessions: List[SessionResult]
    consort: ConsortFlow
    scheme_names: List[str]
    expt_ids: Dict[str, int]
    telemetry: Optional[TelemetryLog] = None
    throughput: Optional["Throughput"] = None
    """Populated by :meth:`RandomizedTrial.run`; not part of the scientific
    result (excluded from serial/parallel equivalence comparisons)."""

    obs: Optional["obs.ObsContext"] = None
    """Merged observability context (``TrialConfig.observability=True``).
    The deterministic part (``to_dict(include_wallclock=False)``) is
    bit-identical between the serial loop and any worker count."""

    metrics_path: Optional[str] = None
    """Where :meth:`dump_metrics` last wrote the metrics JSON, if it did."""

    def dump_metrics(
        self, path: str, include_wallclock: bool = True
    ) -> str:
        """Write the merged observability dump as JSON and record the path.

        The JSON layout (``schema_version``, ``metrics.counters/gauges/
        histograms``, ``events``) is the stable contract dashboards and
        regression tooling consume; see EXPERIMENTS.md.
        """
        if self.obs is None:
            raise ValueError(
                "no observability data collected "
                "(run with TrialConfig(observability=True))"
            )
        data = self.obs.to_dict(include_wallclock=include_wallclock)
        payload = json.dumps(data, sort_keys=True, indent=2)
        atomic_write_text(path, payload + "\n")
        self.metrics_path = path
        return path

    def sessions_for(self, scheme: str) -> List[SessionResult]:
        return [s for s in self.sessions if s.scheme == scheme]

    def all_streams_for(self, scheme: str) -> List[StreamResult]:
        return [
            stream
            for session in self.sessions_for(scheme)
            for stream in session.streams
        ]

    def streams_for(self, scheme: str) -> List[StreamResult]:
        """Streams eligible for the primary analysis (played >= 4 s)."""
        return eligible_streams(self.all_streams_for(scheme))

    def session_durations_for(self, scheme: str) -> List[float]:
        return [s.duration for s in self.sessions_for(scheme)]


@dataclass
class SessionShard:
    """Everything one simulated session contributes to a trial.

    The trial engine produces a stream of shards at any worker count;
    :func:`merge_shards` folds them into a :class:`TrialResult`
    deterministically (by session id), which is what makes every worker
    count bit-identical.
    """

    session: SessionResult
    consort: ConsortFlow
    telemetry: Optional[TelemetryLog]
    obs: Optional["obs.ObsContext"] = None
    """Per-session metrics/events (``TrialConfig.observability=True``)."""


def checked_scheme_names(specs: Sequence[SchemeSpec]) -> List[str]:
    """The arm names of an experiment; an empty or ambiguous arm set is an
    error every driver (trial, fleet, retrain service) rejects up front."""
    if not specs:
        raise ValueError("need at least one scheme")
    names = [spec.name for spec in specs]
    if len(set(names)) != len(names):
        raise ValueError("scheme names must be unique")
    return names


def assign_expt_ids(specs: Sequence[SchemeSpec], seed: int) -> Dict[str, int]:
    """Blinding: ``expt_id`` is a shuffled opaque id, not the list position,
    exactly as in the open data."""
    id_rng = np.random.default_rng(seed ^ 0x5EED)
    ids = id_rng.permutation(len(specs)) + 1
    return {spec.name: int(ids[i]) for i, spec in enumerate(specs)}


def media_seed(trial_seed: int, session_id: int, stream_no: int) -> tuple:
    """Seed of the generator that draws video content and encoder noise.

    Folds the trial seed in (two trials with different seeds must not replay
    identical video), and keys on ``(session, stream)`` so every stream sees
    fresh content regardless of how sessions are scheduled across workers.
    """
    return (trial_seed, 0x7E1E, session_id, stream_no)


def connection_seed(trial_seed: int, session_id: int) -> tuple:
    """Seed of the per-connection loss process (folds the trial seed in)."""
    return (trial_seed, 0x1055, session_id)


@dataclass(frozen=True)
class ConnectRequest:
    """First yield of :func:`session_machine`: the session's sampled path
    and the seed for its loss process.

    The driver answers with a transport — :meth:`NetworkPath.connect` for
    the classic private-link trial, or a shared-bottleneck fluid flow built
    from the same path in :mod:`repro.edge`.  ``obs_ctx`` is the session's
    observability context (``None`` when collection is off); drivers must
    activate it around every resume of the machine so what either stream
    loop reports at its seams (the stream recorder, the connection's idle
    handler, the per-chunk ``tcp.*`` totals) lands on the right shard.  The
    context never chooses the loop.
    """

    session_id: int
    path: NetworkPath
    seed: tuple
    obs_ctx: Optional["obs.ObsContext"] = None


SessionMachine = Generator[
    Union[ConnectRequest, TransmitRequest],
    Union[Transport, TransmissionResult],
    SessionShard,
]


ChannelChooser = Callable[[np.random.Generator, Sequence[Channel]], Channel]
"""Optional channel-selection hook for :func:`session_machine`: called with
the session's own generator and the trial's channel list.  ``None`` keeps
the historical uniform draw (one ``rng.integers`` call).  The edge tier
passes a cell-local Zipf popularity sampler here — viewers at the same
edge concentrate on locally hot channels, which is what gives the cell
cache its hit ratio."""


def session_machine(
    specs: Sequence[SchemeSpec],
    config: TrialConfig,
    session_id: int,
    expt_ids: Optional[Mapping[str, int]] = None,
    algorithms: Optional[Mapping[str, AbrAlgorithm]] = None,
    channel_chooser: Optional[ChannelChooser] = None,
) -> SessionMachine:
    """One randomized session as a resumable generator.

    Yields a single :class:`ConnectRequest` (answered with the session's
    transport), then :class:`~repro.streaming.simulator.TransmitRequest`
    objects forwarded from :func:`stream_machine` (each answered with a
    :class:`~repro.net.tcp.TransmissionResult`), and returns the
    :class:`SessionShard` via ``StopIteration.value``.

    Every random draw is keyed on ``(config.seed, session_id)`` in exactly
    the order of the historical ``run_session`` body, so a driver that
    answers requests the way a private connection would reproduces the old
    results bit for bit — that equivalence is what lets
    :func:`repro.edge.engine.run_cell` reuse this machine unchanged.
    """
    if expt_ids is None:
        expt_ids = assign_expt_ids(specs, config.seed)
    if algorithms is None:
        algorithms = {spec.name: spec.build() for spec in specs}

    consort = ConsortFlow()
    telemetry = TelemetryLog() if config.collect_telemetry else None
    # Shard-local observability: a fresh context per session, activated by
    # the driver around every resume, shipped back on the shard, and merged
    # by session id — which is what keeps the merged metrics bit-identical
    # between the serial loop and the process pool.
    obs_ctx = obs.ObsContext() if config.observability else None
    # repro: allow-DET002(wall-clock session cost; quarantined profile.* metric) repro: allow-PURE002(profiling only; value never reaches session results)
    wall_start = time.perf_counter()

    # repro: allow-SEED003(scheme-assignment fold; a stream constant would re-randomize every historical assignment)
    rng = np.random.default_rng((config.seed, session_id))
    spec = specs[int(rng.integers(len(specs)))]
    algorithm = algorithms[spec.name]
    arm = consort.arm(spec.name)
    arm.sessions_assigned += 1
    session = SessionResult(
        session_id=session_id,
        scheme=spec.name,
        expt_id=expt_ids[spec.name],
    )

    path = PathSampler(
        # repro: allow-SEED001(legacy path seed; all collected telemetry depends on this exact arithmetic form staying bit-identical)
        population=config.population, seed=config.seed * 1_000_003 + session_id
    ).next_path()
    transport = yield ConnectRequest(
        session_id=session_id,
        path=path,
        seed=connection_seed(config.seed, session_id),
        obs_ctx=obs_ctx,
    )
    assert not isinstance(transport, TransmissionResult)
    # Which stream kernel serves this session, decided once from the scheme
    # and the transport alone.  Telemetry and observability do not matter:
    # both loops report them at the same seams (the StreamRecorder, the idle
    # handler, one tcp.* count per chunk) and neither counts inside a round.
    kernel = reproduces(algorithm, transport)
    clock = 0.0  # connection time shared across the session's streams

    n_streams = 1
    while (
        n_streams < config.max_streams_per_session
        and rng.random() < config.extra_stream_prob
    ):
        n_streams += 1

    for stream_no in range(n_streams):
        kind = config.viewer.sample_stream_kind(rng)
        watch = config.viewer.sample_watch_time(kind, rng)
        if channel_chooser is None:
            channel = config.channels[int(rng.integers(len(config.channels)))]
        else:
            channel = channel_chooser(rng, config.channels)
        media_rng = np.random.default_rng(
            media_seed(config.seed, session_id, stream_no)
        )
        source = MenuBlockSource(
            channel,
            media_rng,
            # A short stream generates only the menus it can pull by its
            # intended watch time: the chunks played, a full buffer beyond
            # them and the lookahead window.  Never more than a default
            # block — a bigger one is no cheaper per chunk, and every live
            # stream of a cell holds its block.  Sizing is invisible in the
            # results (the generator feeds nothing but this sequence).
            first_block_chunks=min(
                int((watch + MAX_BUFFER_S) / CHUNK_DURATION)
                + DEFAULT_LOOKAHEAD
                + 1,
                DEFAULT_BLOCK_CHUNKS,
            ),
        )
        hook = (
            config.viewer.make_extension_hook(rng)
            if kind == "view"
            else None
        )
        stream_id = session_id * config.max_streams_per_session + stream_no
        recorder = StreamRecorder(telemetry, stream_id, session.expt_id, clock)
        if kernel:
            # A kernel stream never yields, so whether anything records is
            # settled for the whole stream here.
            result = fast_stream(
                source, algorithm, transport, watch, stream_id, hook, clock,
                recorder if telemetry is not None or obs.ENABLED else None,
            )
        else:
            result = yield from stream_machine(
                source.menus(),
                algorithm,
                transport,
                watch,
                recorder,
                stream_id=stream_id,
                extension_hook=hook,
                start_time=clock,
                channel_name=channel.name,
            )
        result.scheme_name = spec.name
        clock += result.total_time + float(rng.uniform(0.1, 2.0))
        # A viewer may change channels while a chunk is still in
        # flight; the connection must finish (or the kernel flush)
        # before the next stream's first chunk goes out.
        clock = max(clock, transport.busy_until + 1e-6)
        session.streams.append(result)

        arm.streams_assigned += 1
        category = classify_stream(result)
        if (
            category == "considered"
            and rng.random() < config.slow_decoder_prob
        ):
            result.excluded = True
            category = "slow_video_decoder"
        # Every category is a ConsortArm tally of the same name.
        setattr(arm, category, getattr(arm, category) + 1)
        if category == "considered":
            arm.considered_watch_time_s += result.watch_time
            if rng.random() < config.loss_of_contact_prob:
                arm.truncated_loss_of_contact += 1

    if obs_ctx is not None:
        obs_ctx.metrics.inc("trial.sessions")
        obs_ctx.metrics.inc("trial.streams", float(n_streams))
        obs_ctx.metrics.observe(
            "profile.session_wall_s",
            # repro: allow-DET002(wall-clock profiling, tagged wallclock=True) repro: allow-PURE002(profiling only; quarantined wallclock obs metric)
            time.perf_counter() - wall_start,
            spec=obs.TIME_SPEC,
            wallclock=True,
        )
    return SessionShard(
        session=session, consort=consort, telemetry=telemetry, obs=obs_ctx
    )


@sanitizer.guarded("run_session")
def run_session(
    specs: Sequence[SchemeSpec],
    config: TrialConfig,
    session_id: int,
    expt_ids: Optional[Mapping[str, int]] = None,
    algorithms: Optional[Mapping[str, AbrAlgorithm]] = None,
) -> SessionShard:
    """Simulate one randomized session — the pure unit of work every
    driver (trial engine, fleet, singleton cell) executes.

    Drives :func:`session_machine` against a private per-session TCP
    connection: the connect request is answered with
    ``path.connect(seed)`` and every transmit request with
    ``connection.transmit(...)`` — the exact call sequence of the
    historical inline implementation, so results are bit-identical to it.

    Every random draw is keyed on ``(config.seed, session_id)`` so the
    result depends only on the arguments, never on which sessions ran
    before it or on which process runs it.  This is also the declared
    purity root of the static analyzer (``contract.json``); under
    ``REPRO_SANITIZE=1`` the body runs inside a :mod:`repro.sanitizer`
    guard that turns any surviving impurity into a hard error.

    Parameters
    ----------
    expt_ids:
        The trial's blinded id assignment; derived from ``config.seed`` when
        omitted.
    algorithms:
        Cache of built scheme instances keyed by name.  Callers that run
        many sessions pass a long-lived cache (one per process — never
        shared across processes, which is what removes the shared-instance
        hazard); when omitted, fresh instances are built for this session.
    """
    machine = session_machine(
        specs, config, session_id, expt_ids=expt_ids, algorithms=algorithms
    )
    # The machine's pre-connect setup (scheme assignment, path sampling)
    # historically ran outside the observability activation; preserve that.
    connect = machine.send(None)  # type: ignore[arg-type]
    assert isinstance(connect, ConnectRequest)
    connection = connect.path.connect(seed=connect.seed)
    with obs.activate(connect.obs_ctx):
        response: "Transport | TransmissionResult" = connection
        while True:
            try:
                request = machine.send(response)
            except StopIteration as stop:
                shard: SessionShard = stop.value
                return shard
            assert isinstance(request, TransmitRequest)
            response = connection.transmit(request.size_bytes, request.send_at)


def merge_shards(
    specs: Sequence[SchemeSpec],
    config: TrialConfig,
    expt_ids: Mapping[str, int],
    shards: Sequence[SessionShard],
) -> TrialResult:
    """Fold session shards into a :class:`TrialResult`.

    Shards are merged in session-id order regardless of the order in which
    they arrive, so the result — including telemetry record order and the
    CONSORT arms' insertion order — is identical to the serial loop's.
    """
    ordered = sorted(shards, key=lambda shard: shard.session.session_id)
    ids = [shard.session.session_id for shard in ordered]
    if ids != list(range(config.n_sessions)):
        raise ValueError(
            f"expected shards for sessions 0..{config.n_sessions - 1}, "
            f"got {len(ids)} shards"
        )
    consort = ConsortFlow()
    telemetry = TelemetryLog() if config.collect_telemetry else None
    sessions: List[SessionResult] = []
    for shard in ordered:
        sessions.append(shard.session)
        consort.merge_from(shard.consort)
        if telemetry is not None and shard.telemetry is not None:
            telemetry.extend(shard.telemetry)
    consort.check()
    # Observability shards fold in the same session-id order as everything
    # else, so the merged registry/trace is bit-identical to the serial
    # loop's (counters and histogram sums see the exact same sequence of
    # additions on both paths).
    merged_obs = obs.merge_contexts(
        shard.obs for shard in ordered if shard.obs is not None
    )
    if merged_obs is not None:
        merged_obs.metrics.inc("trial.shards_merged", float(len(ordered)))
    return TrialResult(
        sessions=sessions,
        consort=consort,
        scheme_names=[spec.name for spec in specs],
        expt_ids=dict(expt_ids),
        telemetry=telemetry,
        obs=merged_obs,
    )


class RandomizedTrial:
    """Run a blinded randomized comparison of a set of schemes.

    Each process that simulates sessions builds one algorithm instance per
    scheme and reuses it across its sessions (``begin_stream`` resets
    per-stream state); the *viewer* cannot observe which scheme serves them
    — assignment is a uniform draw keyed only by the session id, and
    ``expt_id`` is an opaque integer as in the open data.

    ``run(workers=N)`` shards the sessions across ``N`` worker processes
    and merges the shards back by session id; the result is bit-identical
    at every ``N``, because ``N = 1`` is the same engine running in this
    process (see :mod:`repro.experiment.parallel`).
    """

    def __init__(self, specs: Sequence[SchemeSpec], config: TrialConfig) -> None:
        checked_scheme_names(specs)
        self.specs = list(specs)
        self.config = config

    def run(self, workers: int = 1) -> TrialResult:
        """Run the trial.

        ``workers`` is the number of worker processes: ``1`` (the default)
        runs the sessions in this process, ``N > 1`` shards them across
        ``N`` processes.  The result is bit-identical either way.
        """
        from repro.experiment.parallel import _run_trial

        return _run_trial(self.specs, self.config, workers)

"""Differential oracle: the stream kernel equals ``stream_machine`` bit for bit.

``session_machine`` picks :func:`repro.streaming.fastpath.fast_stream` for a
session whose scheme and transport the kernel reproduces, and
``stream_machine`` for every other; telemetry and observability ride along
on either.  Every case runs the same seeds both ways — the reference way by
making the kernel predicate answer no (:func:`reference_loop`, test-only:
production has no such switch) — and asserts dataclass equality of the
session and its CONSORT flow (every chunk record, every float, every
counter), equality of the ``TelemetryLog.to_json()`` bytes and, observed,
equality of the deterministic observability dump.  There is no tolerance.
"""

import ast
import gc
import inspect
import json
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from pathlib import Path
from textwrap import dedent

from repro.core.ttp import TtpConfig

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.experiment.harness as harness
from repro import obs
from repro.abr.bba import BBA
from repro.abr.bola import Bola
from repro.abr.mpc import MpcHm
from repro.abr.rate_based import RateBased
from repro.edge.cells import Cell, EdgeConfig
from repro.edge.engine import run_cell
from repro.experiment.harness import (
    RandomizedTrial,
    TrialConfig,
    run_session,
    session_machine,
)
from repro.experiment.presets import smoke_trial_config
from repro.experiment.schemes import SchemeSpec
from repro.experiment.watch import ViewerModel
from repro.fleet import (
    FleetConfig,
    RetrainConfig,
    WorkloadConfig,
    run_fleet,
    run_fleet_retrain,
)
from repro.media.menus import MenuBlockSource
from repro.media.source import DEFAULT_CHANNELS
from repro.net.cc.base import CongestionControl
from repro.net.cc.bbr import BbrLike
from repro.net.cc.cubic import CubicLike
from repro.net.link import ConstantLink
from repro.net.path import PopulationModel
from repro.net.tcp import TcpConnection
from repro.streaming import fastpath
from repro.streaming.simulator import simulate_stream
from repro.streaming.telemetry import StreamRecorder, TelemetryLog


@contextmanager
def reference_loop():
    """Every session inside streams through ``stream_machine``: the kernel
    predicate answers no (forked pool workers inherit the patch)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "reproduces", lambda algorithm, transport: False)
        yield


def obs_dump(context):
    return json.dumps(context.to_dict(include_wallclock=False), sort_keys=True)


def spec(name, factory):
    return SchemeSpec(
        name=name, control="classical", predictor="n/a",
        optimization_goal="per-scheme", how_trained="n/a", factory=factory,
    )


KERNEL_SCHEMES = [
    ("bba", BBA),
    ("bola", Bola),
    ("rate_based", RateBased),
]

TAIL_VIEWER = ViewerModel(
    view_log_mean_s=3.9,
    view_log_sigma=0.8,
    tail_threshold_s=20.0,
    tail_block_s=15.0,
    max_session_s=150.0,
)
"""The smoke viewer's ~50 s median views with the QoE-sensitive tail pulled
in under them: nearly every view asks the extension hook whether the viewer
stays, and chains of extensions run into the session cap.  Under the smoke
viewer itself (``tail_threshold_s=600``) no stream ever extends."""


class Spy:
    """Counts kernel streams and ``TcpConnection.transmit`` calls."""

    def __init__(self, monkeypatch):
        self.kernel_streams = 0
        self.transmits = 0
        fast_stream, transmit = harness.fast_stream, TcpConnection.transmit

        def counting_fast_stream(*args):
            self.kernel_streams += 1
            return fast_stream(*args)

        def counting_transmit(connection, size_bytes, at_time):
            self.transmits += 1
            return transmit(connection, size_bytes, at_time)

        monkeypatch.setattr(harness, "fast_stream", counting_fast_stream)
        monkeypatch.setattr(TcpConnection, "transmit", counting_transmit)


@pytest.fixture()
def spy(monkeypatch):
    return Spy(monkeypatch)


def assert_equivalent(specs, config, session_ids):
    """Every session — plain, with telemetry, and observed with telemetry —
    equals the observed run forced onto the reference loop; the telemetry
    and the observability dump it collects are that run's to the byte."""
    algorithms = {s.name: s.build() for s in specs}
    recorded = replace(config, observability=True, collect_telemetry=True)
    shards = []
    for sid in session_ids:
        shard = run_session(specs, config, sid, algorithms=algorithms)
        assert shard.telemetry is None and shard.obs is None
        logged = run_session(
            specs, replace(config, collect_telemetry=True), sid,
            algorithms=algorithms,
        )
        assert logged.telemetry is not None and logged.obs is None
        observed = run_session(specs, recorded, sid, algorithms=algorithms)
        with reference_loop():
            reference = run_session(specs, recorded, sid)
        assert reference.obs is not None and reference.telemetry is not None
        for candidate in (shard, logged, observed):
            assert candidate.session == reference.session, (
                f"kernel diverged from stream_machine for session {sid}"
            )
            assert candidate.consort == reference.consort
        assert len(logged.telemetry) > 0
        for candidate in (logged, observed):
            assert candidate.telemetry.to_json() == reference.telemetry.to_json()
        assert obs_dump(observed.obs) == obs_dump(reference.obs)
        shards.append(shard)
    return shards


class TestSchemeEquivalence:
    @pytest.mark.parametrize("name,factory", KERNEL_SCHEMES)
    def test_each_kernel_scheme(self, name, factory, spy):
        config = smoke_trial_config(seed=9)
        assert_equivalent([spec(name, factory)], config, range(10))
        assert spy.kernel_streams > 0

    @pytest.mark.parametrize("name,factory", KERNEL_SCHEMES)
    def test_each_scheme_under_tail_viewer(self, name, factory):
        config = TrialConfig(
            n_sessions=50, seed=9, viewer=TAIL_VIEWER, extra_stream_prob=0.5
        )
        shards = assert_equivalent([spec(name, factory)], config, range(24))
        # The premise: some streams were extended block by block up to the
        # cap, so the extension branches ran (loop head and mid-transmission).
        assert any(
            stream.total_time == TAIL_VIEWER.max_session_s
            for shard in shards
            for stream in shard.session.streams
        )

    def test_mixed_specs(self, spy):
        # mpc_hm has no mirror in the kernel: its sessions stream through
        # stream_machine beside the kernel's, from one algorithm cache.
        specs = [spec("bba", BBA), spec("mpc_hm", MpcHm)]
        config = smoke_trial_config(seed=2)
        shards = assert_equivalent(specs, config, range(12))
        assert {shard.session.scheme for shard in shards} == {"bba", "mpc_hm"}
        # Every bba stream took the kernel three times: plain, with
        # telemetry, and observed.
        assert spy.kernel_streams == 3 * sum(
            len(shard.session.streams)
            for shard in shards
            if shard.session.scheme == "bba"
        )

    def test_all_cubic_population_streams_on_the_kernel(self, spy):
        # The kernel runs the controller's own round: CUBIC's draws its loss
        # generator there exactly as stream_machine's transmit does.
        config = replace(
            smoke_trial_config(seed=4),
            population=PopulationModel(cubic_fraction=1.0),
        )
        assert_equivalent([spec("bba", BBA)], config, range(6))
        assert spy.kernel_streams > 0

    def test_unordered_ids_through_one_algorithm_cache(self):
        # A kernel stream leaves nothing on the shared scheme instance that
        # the next session (whichever it is) could see.
        config = smoke_trial_config(seed=1)
        assert_equivalent([spec("bola", Bola)], config, [5, 17, 2, 33])


class TestRandomizedConfigs:
    @given(
        seed=st.integers(0, 10_000),
        scheme=st.sampled_from(KERNEL_SCHEMES),
        median_rtt=st.floats(0.005, 0.2),
    )
    @settings(max_examples=15, deadline=None)
    def test_random_config_equivalence(self, seed, scheme, median_rtt):
        name, factory = scheme
        config = TrialConfig(
            n_sessions=200,
            seed=seed,
            population=PopulationModel(median_rtt=median_rtt),
            viewer=smoke_trial_config().viewer,
        )
        assert_equivalent([spec(name, factory)], config, range(3))


class TestSelection:
    """The predicate: what it selects, and that it still selects."""

    def test_kernel_session_never_calls_transmit(self, spy):
        # The guard against the predicate silently going false everywhere:
        # then every differential case above would compare the reference
        # path with itself and pass.
        specs = [spec("bba", BBA)]
        config = smoke_trial_config(seed=9)
        shard = run_session(specs, config, 0)
        assert spy.transmits == 0
        assert spy.kernel_streams == len(shard.session.streams) > 0
        with reference_loop():
            run_session(specs, config, 0)
        assert spy.transmits > 0
        assert spy.kernel_streams == len(shard.session.streams)

    def test_observability_does_not_keep_sessions_off_the_kernel(self, spy):
        config = replace(smoke_trial_config(seed=9), observability=True)
        shard = run_session([spec("bba", BBA)], config, 0)
        assert spy.transmits == 0
        assert spy.kernel_streams == len(shard.session.streams) > 0
        counters = shard.obs.metrics.counters
        assert counters["tcp.transmissions"] == counters["stream.chunks_sent"] > 0

    def test_telemetry_does_not_keep_sessions_off_the_kernel(self, spy):
        config = replace(smoke_trial_config(seed=9), collect_telemetry=True)
        shard = run_session([spec("bba", BBA)], config, 0)
        assert spy.transmits == 0
        assert spy.kernel_streams == len(shard.session.streams) > 0
        # One ack per completed chunk (a departure mid-chunk is sent only).
        assert len(shard.telemetry.video_acked) == sum(
            len(stream.records) for stream in shard.session.streams
        )

    def test_a_process_global_context_keeps_sessions_on_the_kernel(self, spy):
        with obs.activate(obs.ObsContext()) as context:
            shard = run_session([spec("bba", BBA)], smoke_trial_config(seed=9), 0)
        assert spy.transmits == 0
        assert spy.kernel_streams == len(shard.session.streams) > 0
        # What the kernel streams reported reached the global context.
        counters = context.metrics.counters
        assert counters["stream.streams"] == len(shard.session.streams)
        assert counters["tcp.transmissions"] == counters["stream.chunks_sent"] > 0

    def test_exact_types_only(self):
        class TunedBBA(BBA):
            pass

        class TunedConnection(TcpConnection):
            pass

        link = ConstantLink(5e6)
        plain = TcpConnection(link, 0.05)
        for algorithm in (BBA(), Bola(), RateBased()):
            assert fastpath.reproduces(algorithm, plain)
        assert not fastpath.reproduces(MpcHm(), plain)
        assert not fastpath.reproduces(TunedBBA(), plain)
        assert not fastpath.reproduces(BBA(), TunedConnection(link, 0.05))
        # The controller is not asked, whatever its type.
        assert fastpath.reproduces(BBA(), TcpConnection(link, 0.05, cc=CubicLike()))

    def test_a_bba_subclass_streams_through_the_reference_path(self, spy):
        class TunedBBA(BBA):
            pass

        config = smoke_trial_config(seed=9)
        tuned = run_session([spec("bba", TunedBBA)], config, 0)
        assert spy.kernel_streams == 0 and spy.transmits > 0
        assert tuned.session == run_session([spec("bba", BBA)], config, 0).session

    def test_a_bbr_subclass_streams_on_the_kernel(self, spy):
        # Both loops hand every chunk to the controller's run_rounds, so a
        # subclass — here one that narrows the gain and counts its chunks —
        # is the kernel's and the reference loop's alike.
        class TunedBbr(BbrLike):
            chunks = 0

            def __init__(self):
                super().__init__(cwnd_gain=1.5)

            def run_rounds(self, connection, size_bytes, at_time):
                TunedBbr.chunks += 1
                return super().run_rounds(connection, size_bytes, at_time)

        specs = [spec("bba", BBA)]
        config = smoke_trial_config(seed=9)
        runs = []
        for loop in (nullcontext, reference_loop):
            TunedBbr.chunks = 0
            with loop():
                shard, _ = drive(specs, config, 0, cc=TunedBbr)
            runs.append((shard.session, TunedBbr.chunks))
        kernel, reference = runs
        assert kernel == reference
        # Every chunk sent went through it (a departure mid-chunk is sent
        # but not recorded).
        assert kernel[1] >= sum(len(s.records) for s in kernel[0].streams) > 0
        assert spy.kernel_streams == len(kernel[0].streams)
        assert spy.transmits >= kernel[1]
        # The subclass's gain took effect: the session is not plain BBR's.
        assert kernel[0] != drive(specs, config, 0)[0].session


def drive(specs, config, session_id, cc=None):
    """``run_session`` by hand, keeping the connection; ``cc``, when given,
    builds the connection's controller in place of the path's."""
    machine = session_machine(specs, config, session_id)
    connect = machine.send(None)
    connection = connect.path.connect(seed=connect.seed)
    if cc is not None:
        connection = TcpConnection(
            connect.path.link, connect.path.base_rtt, cc=cc(),
            loss_rng=connection.loss_rng,
        )
    with obs.activate(connect.obs_ctx):
        response = connection
        while True:
            try:
                request = machine.send(response)
            except StopIteration as stop:
                return stop.value, connection
            response = connection.transmit(request.size_bytes, request.send_at)


class TestConnectionEndState:
    @pytest.mark.parametrize("name,factory", KERNEL_SCHEMES)
    def test_the_real_connection_ends_in_the_reference_state(
        self, name, factory, spy
    ):
        # The kernel runs the controller's round, as transmit() does: after
        # the last stream the connection, its controller and its loss
        # generator must be what transmit() would have left.
        specs = [spec(name, factory)]
        config = smoke_trial_config(seed=9)
        for sid in range(6):
            _, fast = drive(specs, config, sid)
            assert spy.transmits == 0
            with reference_loop():
                _, slow = drive(specs, config, sid)
            assert spy.transmits > 0
            spy.transmits = 0

            def state(connection):
                fields = dict(vars(connection))
                for handle in ("loss_rng", "link", "cc"):
                    del fields[handle]
                return fields

            assert state(fast) == state(slow)
            assert vars(fast.cc) == vars(slow.cc)
            assert (
                fast.loss_rng.bit_generator.state
                == slow.loss_rng.bit_generator.state
            )
            assert fast.tcp_info() == slow.tcp_info()
            assert fast.total_bytes_sent == slow.total_bytes_sent > 0
            assert fast.busy_until == slow.busy_until
            # The links were realized through the same instants: what they
            # draw next is the same.
            later = fast.busy_until + 600.0
            assert fast.link.capacity_at(later) == slow.link.capacity_at(later)


class TestGarbageCollector:
    def _stream(self, hook):
        rng = np.random.default_rng(3)
        return fastpath.fast_stream(
            MenuBlockSource(DEFAULT_CHANNELS[0], rng),
            BBA(),
            TcpConnection(ConstantLink(4e6), 0.04),
            30.0,
            0,
            hook,
            0.0,
            None,
        )

    def test_collection_is_suspended_inside_and_restored_after(self):
        seen = []

        def hook(t, result):
            seen.append(gc.isenabled())
            return 0.0

        assert gc.isenabled()
        self._stream(hook)
        assert seen and not any(seen)
        assert gc.isenabled()

    def test_restored_when_a_hook_raises_mid_stream(self):
        def hook(t, result):
            raise RuntimeError("viewer model failed")

        assert gc.isenabled()
        with pytest.raises(RuntimeError, match="viewer model failed"):
            self._stream(hook)
        assert gc.isenabled()

    def test_a_disabled_collector_stays_disabled(self):
        gc.disable()
        try:
            self._stream(None)
            assert not gc.isenabled()
        finally:
            gc.enable()


class TestStructure:
    SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

    @staticmethod
    def _imports(path):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                yield from (alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                yield node.module or ""

    def test_the_kernel_sits_below_the_experiment(self):
        # It is called from session_machine; importing upwards is a cycle.
        imported = set(self._imports(self.SRC / "streaming" / "fastpath.py"))
        assert not any(
            module.startswith(("repro.experiment", "repro.fleet", "repro.batch"))
            for module in imported
        )

    def test_nothing_in_src_imports_the_batch_stubs(self):
        # repro/batch/ survives for the frozen perf/seams.py alone.
        users = [
            path.relative_to(self.SRC).as_posix()
            for path in sorted(self.SRC.rglob("*.py"))
            if path.parent.name != "batch"
            and any(m.startswith("repro.batch") for m in self._imports(path))
        ]
        assert users == []
        assert sorted(
            p.name for p in (self.SRC / "batch").glob("*.py")
        ) == ["__init__.py", "engine.py", "menus.py"]

    def test_nothing_is_counted_inside_a_round(self):
        # Observability reports at seams both loops share; a counter inside
        # a controller's round loop would cost every round of every run.
        rounds = [
            node
            for function in (CongestionControl.run_rounds, BbrLike.run_rounds)
            for node in ast.walk(ast.parse(dedent(inspect.getsource(function))))
            if isinstance(node, ast.While)
        ]
        assert len(rounds) == 2
        for loop in rounds:
            assert not any(
                isinstance(node, ast.Name) and node.id == "obs"
                for node in ast.walk(loop)
            )

    def test_one_bbr_round(self):
        # BBR's update lives in its round loop and nowhere else; the kernel
        # has no round of its own.
        assert "on_round" not in vars(BbrLike)
        path = self.SRC / "streaming" / "fastpath.py"
        assert not any(
            module.startswith("repro.net.cc") for module in self._imports(path)
        )
        source = path.read_text()
        assert "run_rounds" in source
        assert not any(
            isinstance(node, ast.While)
            and any(
                isinstance(n, ast.Name) and n.id == "remaining"
                for n in ast.walk(node)
            )
            for node in ast.walk(ast.parse(source))
        )

    def test_kernel_signature_has_no_options(self):
        # No width, no mode, no hook: the session machine passes what
        # stream_machine would have been passed, positionally, and the
        # recorder both loops report to.
        assert list(inspect.signature(fastpath.fast_stream).parameters) == [
            "source", "abr", "connection", "watch_time_s", "stream_id",
            "extension_hook", "start_time", "recorder",
        ]


class TestDrivers:
    """Every driver of ``run_session`` gets the kernel, and its results are
    the reference path's."""

    @pytest.mark.parallel_smoke
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("cubic_fraction", [0.0, 0.3])
    @pytest.mark.parametrize(
        "arms",
        [[name] for name, _ in KERNEL_SCHEMES] + [["bba", "mpc_hm"]],
        ids=lambda arms: "+".join(arms),
    )
    def test_observed_trial_on_the_kernel_equals_the_reference_loop(
        self, arms, cubic_fraction, workers, spy, monkeypatch
    ):
        cubic_chunks = []
        run_rounds = CubicLike.run_rounds

        def counting_run_rounds(cc, connection, size_bytes, at_time):
            cubic_chunks.append(size_bytes)
            return run_rounds(cc, connection, size_bytes, at_time)

        monkeypatch.setattr(CubicLike, "run_rounds", counting_run_rounds)
        factories = dict(KERNEL_SCHEMES, mpc_hm=MpcHm)
        specs = [spec(name, factories[name]) for name in arms]
        base = smoke_trial_config(seed=3)
        config = replace(
            base,
            n_sessions=8,
            population=replace(base.population, cubic_fraction=cubic_fraction),
        )
        observed_config = replace(config, observability=True)
        trial = RandomizedTrial(specs, config).run(workers=workers)
        unobserved_streams = spy.kernel_streams
        observed = RandomizedTrial(specs, observed_config).run(workers=workers)
        if workers == 1:
            # The premise: observing kept every kernel stream on the kernel
            # (a forked worker's spy counts where the parent cannot see),
            # and CUBIC paths, when drawn, streamed there too.
            assert spy.kernel_streams == 2 * unobserved_streams > 0
            assert bool(cubic_chunks) == (cubic_fraction > 0)
            assert spy.transmits == 0 or "mpc_hm" in arms
        with reference_loop():
            reference = RandomizedTrial(specs, observed_config).run(
                workers=workers
            )
        assert trial.obs is None and observed.obs is not None
        assert trial.sessions == observed.sessions == reference.sessions
        assert trial.consort == observed.consort == reference.consort
        assert obs_dump(observed.obs) == obs_dump(reference.obs)

    def test_randomized_trial_reaches_the_kernel(self, spy):
        config = replace(smoke_trial_config(seed=3), n_sessions=4)
        trial = RandomizedTrial([spec("bba", BBA)], config).run()
        assert spy.transmits == 0
        assert spy.kernel_streams == sum(len(s.streams) for s in trial.sessions)


def _dump(specs, workers=1, observability=False, archive_dir=None, edge=None):
    config = FleetConfig(
        workload=WorkloadConfig(days=0.01, sessions_per_hour=120.0, seed=5),
        trial=replace(smoke_trial_config(seed=11), observability=observability),
        chunk_sessions=4,
        edge=edge,
    )
    result = run_fleet(
        specs, config, workers=workers,
        archive_dir=None if archive_dir is None else str(archive_dir),
    )
    return json.dumps(result.to_dump_dict(), sort_keys=True)


def _tree(directory):
    """Every file under ``directory``, byte-exact."""
    root = Path(directory)
    files = {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }
    assert files
    return files


@pytest.mark.parallel_smoke
class TestFleetByteIdentity:
    """Fleet dumps are byte-identical whichever stream kernel the sessions
    took, at any worker count (``pytest -m parallel_smoke``)."""

    def test_dump_identical_across_kernels_and_workers(self, tmp_path, spy):
        specs = [spec("bba", BBA), spec("mpc_hm", MpcHm)]
        with reference_loop():
            reference = _dump(
                specs, observability=True, archive_dir=tmp_path / "reference"
            )
        assert spy.kernel_streams == 0
        # An archiving fleet collects telemetry, and still takes the kernel;
        # so does an observed one.
        assert _dump(specs, archive_dir=tmp_path / "archive") == reference
        assert spy.kernel_streams > 0
        assert _tree(tmp_path / "archive") == _tree(tmp_path / "reference")
        assert _dump(specs) == reference
        assert _dump(specs, workers=2) == reference
        assert _dump(specs, observability=True) == reference

    def test_singleton_cells_reach_the_kernel(self, spy):
        # "Cell mode forces scalar" is gone: a singleton cell is a
        # run_session call like any other.
        specs = [spec("bba", BBA), spec("bola", Bola)]
        private = _dump(specs)
        streams = spy.kernel_streams
        assert streams > 0 and spy.transmits == 0
        singleton = EdgeConfig(mean_cell_sessions=1.0, cell_size_dist="fixed")
        assert _dump(specs, edge=singleton) == private
        assert spy.kernel_streams == 2 * streams and spy.transmits == 0
        assert _dump(specs, observability=True, edge=singleton) == private
        assert spy.kernel_streams == 3 * streams and spy.transmits == 0

    def test_shared_cells_take_the_reference_path(self, spy):
        # A FluidFlow is not a TcpConnection: sessions that contend stream
        # through stream_machine.
        result = run_cell(
            [spec("bba", BBA)],
            smoke_trial_config(seed=11),
            Cell(cell_id=0, start_session_id=0, size=3),
            EdgeConfig(mean_cell_sessions=3.0, cell_size_dist="fixed"),
            offsets=[0.0, 1.0, 2.0],
        )
        assert result.shared and len(result.shards) == 3
        assert spy.kernel_streams == 0


class TestRecorderSeams:
    """Both loops report to one recorder at the same seams: the rows it
    builds, the quarter-second reports included, are the same."""

    @staticmethod
    def _hook(t, result):
        # Extend twice, by less than a buffer: both extension branches run.
        return 7.0 if t < 80.0 else 0.0

    def _run(self, factory, rate_bps, seed, kernel):
        log = TelemetryLog()
        source = MenuBlockSource(
            DEFAULT_CHANNELS[seed % len(DEFAULT_CHANNELS)],
            np.random.default_rng(seed),
        )
        connection = TcpConnection(ConstantLink(rate_bps), 0.04)
        if kernel:
            recorder = StreamRecorder(
                log, 7, 3, 1.5, buffer_report_interval=0.25
            )
            result = fastpath.fast_stream(
                source, factory(), connection, 60.0, 7, self._hook, 1.5,
                recorder,
            )
        else:
            # stream_machine under its own driver, with the same recorder.
            result = simulate_stream(
                source.menus(), factory(), connection, 60.0, stream_id=7,
                expt_id=3, telemetry=log, extension_hook=self._hook,
                start_time=1.5, buffer_report_interval=0.25,
            )
        return result, log

    @pytest.mark.parametrize("name,factory", KERNEL_SCHEMES)
    # 0.4 Mbit/s sits under most rungs (rebuffers); 20 Mbit/s fills the
    # buffer (server pauses).
    @pytest.mark.parametrize("rate_bps", [4e5, 2e7])
    def test_same_rows_at_a_quarter_second_cadence(self, name, factory, rate_bps):
        for seed in range(3):
            fast, fast_log = self._run(factory, rate_bps, seed, kernel=True)
            slow, slow_log = self._run(factory, rate_bps, seed, kernel=False)
            assert fast == slow
            assert fast_log.to_json() == slow_log.to_json()
            events = {row.event for row in slow_log.client_buffer}
            assert "timer" in events and "startup" in events
            assert len(slow_log.video_acked) == len(slow.records) > 0


class TestRetrainReachesTheKernel:
    """A continual-retraining deployment archives every session's telemetry;
    its bba arm streams through the kernel, and the registry, the archive
    and the dump are the reference loop's to the byte."""

    def _retrain(self, root, observability):
        specs = [spec("bba", BBA), spec("mpc_hm", MpcHm)]
        config = FleetConfig(
            workload=WorkloadConfig(days=1.05, sessions_per_hour=2.0, seed=5),
            trial=replace(
                smoke_trial_config(seed=11), observability=observability
            ),
            chunk_sessions=8,
        )
        retrain = RetrainConfig(
            ttp=TtpConfig(horizon=2), window_days=2, recency_decay=0.9,
            epochs_per_day=1, seed=0,
        )
        result = run_fleet_retrain(
            specs, config, retrain,
            archive_dir=root / "archive", registry_dir=root / "registry",
        )
        assert result.completed
        return json.dumps(result.to_dump_dict(), sort_keys=True)

    def test_registry_and_archive_equal_the_reference_run(self, tmp_path, spy):
        with reference_loop():
            reference = self._retrain(
                tmp_path / "reference", observability=True
            )
        assert spy.kernel_streams == 0
        assert self._retrain(tmp_path / "kernel", observability=False) == reference
        assert spy.kernel_streams > 0
        for part in ("registry", "archive"):
            assert _tree(tmp_path / "kernel" / part) == _tree(
                tmp_path / "reference" / part
            )

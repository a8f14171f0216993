"""Tests for repro.experiment.parallel — the session-sharded trial engine.

The acceptance bar is *bit-identity*: for one :class:`TrialConfig`, the
parallel engine must reproduce the serial loop exactly — same stream
records, same CONSORT accounting, same telemetry records in the same order
— at any worker count.  That is what licenses running paper-scale trials
on many cores without changing the science.
"""

import numpy as np
import pytest

from repro.abr.bba import BBA
from repro.abr.mpc import MpcHm
from repro.experiment.harness import (
    RandomizedTrial,
    TrialConfig,
    assign_expt_ids,
    merge_shards,
    run_session,
)
from repro.experiment.insitu import deploy_and_collect
from repro.experiment.schemes import SchemeSpec


def classical_specs():
    """Cheap schemes (no trained models) for fast equivalence runs."""
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


def learned_specs():
    """The full primary-experiment registry with untrained models — its
    factories are lambdas closing over model objects, which exercises the
    fork-inheritance path (they do not pickle)."""
    from repro.abr.pensieve.model import ActorCritic
    from repro.core.ttp import TransmissionTimePredictor
    from repro.experiment.schemes import primary_experiment_schemes

    return primary_experiment_schemes(
        TransmissionTimePredictor(seed=0), ActorCritic(seed=0)
    )


def assert_trials_bit_identical(a, b):
    """Full structural equality of two TrialResults (minus throughput)."""
    assert a.scheme_names == b.scheme_names
    assert a.expt_ids == b.expt_ids
    assert len(a.sessions) == len(b.sessions)
    for sa, sb in zip(a.sessions, b.sessions):
        assert sa.session_id == sb.session_id
        assert sa.scheme == sb.scheme
        assert sa.expt_id == sb.expt_id
        assert len(sa.streams) == len(sb.streams)
        for ra, rb in zip(sa.streams, sb.streams):
            assert ra.stream_id == rb.stream_id
            assert ra.records == rb.records  # bit-identical chunk records
            assert ra.startup_delay == rb.startup_delay
            assert ra.play_time == rb.play_time
            assert ra.stall_time == rb.stall_time
            assert ra.total_time == rb.total_time
            assert ra.never_began == rb.never_began
            assert ra.excluded == rb.excluded
    assert list(a.consort.arms) == list(b.consort.arms)  # insertion order
    assert a.consort.arms == b.consort.arms
    if a.telemetry is None:
        assert b.telemetry is None
    else:
        assert a.telemetry.video_sent == b.telemetry.video_sent
        assert a.telemetry.video_acked == b.telemetry.video_acked
        assert a.telemetry.client_buffer == b.telemetry.client_buffer


@pytest.fixture(scope="module")
def serial_trial():
    config = TrialConfig(n_sessions=24, seed=7, collect_telemetry=True)
    return RandomizedTrial(classical_specs(), config).run()


def ragged_config(n_sessions):
    return TrialConfig(
        n_sessions=n_sessions, seed=7, collect_telemetry=True,
        observability=True,
    )


@pytest.fixture(scope="module")
def unchunked():
    """The reference of the ragged-chunk cases: every session in id order
    through one scheme-instance cache and one merge — no chunks, no pool."""
    trials = {}

    def reference(n_sessions):
        if n_sessions not in trials:
            specs = classical_specs()
            config = ragged_config(n_sessions)
            expt_ids = assign_expt_ids(specs, config.seed)
            algorithms = {spec.name: spec.build() for spec in specs}
            shards = [
                run_session(specs, config, session_id, expt_ids, algorithms)
                for session_id in range(n_sessions)
            ]
            trials[n_sessions] = merge_shards(specs, config, expt_ids, shards)
        return trials[n_sessions]

    return reference


class TestSerialParallelEquivalence:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_bit_identical_across_worker_counts(self, serial_trial, workers):
        config = TrialConfig(n_sessions=24, seed=7, collect_telemetry=True)
        trial = RandomizedTrial(classical_specs(), config).run(workers=workers)
        assert_trials_bit_identical(serial_trial, trial)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("n_sessions", [1, 5, 37])
    def test_ragged_chunks_do_not_change_result(
        self, unchunked, n_sessions, workers
    ):
        # 37 sessions cut into chunks of 10, 5 and 4 leave a short last
        # chunk at every worker count; 5 sessions at 3 workers are chunks
        # of one.
        trial = RandomizedTrial(
            classical_specs(), ragged_config(n_sessions)
        ).run(workers=workers)
        reference = unchunked(n_sessions)
        assert_trials_bit_identical(reference, trial)
        assert trial.obs.to_dict(include_wallclock=False) == (
            reference.obs.to_dict(include_wallclock=False)
        )

    def test_unpicklable_factories_survive_fork(self):
        # The real registry closes over model objects via lambdas.
        config = TrialConfig(n_sessions=6, seed=3)
        serial = RandomizedTrial(learned_specs(), config).run()
        parallel = RandomizedTrial(learned_specs(), config).run(workers=2)
        assert_trials_bit_identical(serial, parallel)

    def test_invalid_worker_count_rejected(self):
        trial = RandomizedTrial(classical_specs(), TrialConfig(n_sessions=2))
        with pytest.raises(ValueError, match="workers"):
            trial.run(workers=0)


@pytest.mark.parallel_smoke
class TestParallelSmoke:
    """Cheap CI coverage of the multiprocessing path: 2 workers x 8
    sessions (``pytest -m parallel_smoke``)."""

    def test_pool_matches_serial(self):
        config = TrialConfig(n_sessions=8, seed=1, collect_telemetry=True)
        serial = RandomizedTrial(classical_specs(), config).run()
        pooled = RandomizedTrial(classical_specs(), config).run(workers=2)
        assert_trials_bit_identical(serial, pooled)
        assert pooled.throughput is not None
        assert pooled.throughput.workers == 2

    def test_deploy_and_collect_matches_serial(self):
        algorithms = [BBA(), MpcHm()]
        serial = deploy_and_collect(
            algorithms, 8, seed=2, watch_time_s=60.0
        )
        pooled = deploy_and_collect(
            [BBA(), MpcHm()], 8, seed=2, watch_time_s=60.0, workers=2
        )
        assert len(serial) == len(pooled)
        for a, b in zip(serial, pooled):
            assert a.stream_id == b.stream_id
            assert a.scheme_name == b.scheme_name
            assert a.records == b.records


class TestThroughputReport:
    def test_serial_report_populated(self, serial_trial):
        report = serial_trial.throughput
        assert report is not None
        assert report.mode == "serial"
        assert report.workers == 1
        assert report.sessions == 24
        assert report.streams == sum(
            len(s.streams) for s in serial_trial.sessions
        )
        assert report.sessions_per_s > 0
        assert "sessions/s" in report.format()

    def test_parallel_report_accounts_all_work(self):
        config = TrialConfig(n_sessions=12, seed=0)
        trial = RandomizedTrial(classical_specs(), config).run(workers=2)
        report = trial.throughput
        assert report is not None
        assert report.workers == 2
        assert report.sessions == 12
        assert report.streams == sum(len(s.streams) for s in trial.sessions)


class TestRunSessionPurity:
    def test_run_session_is_deterministic(self):
        specs = classical_specs()
        config = TrialConfig(n_sessions=4, seed=11, collect_telemetry=True)
        ids = assign_expt_ids(specs, config.seed)
        a = run_session(specs, config, 2, ids)
        b = run_session(specs, config, 2, ids)
        assert a.session.scheme == b.session.scheme
        for ra, rb in zip(a.session.streams, b.session.streams):
            assert ra.records == rb.records
        assert a.consort.arms == b.consort.arms
        assert a.telemetry.video_sent == b.telemetry.video_sent

    def test_run_session_order_independent(self):
        # Simulating session 3 first (as a worker might) does not change
        # what session 1 sees — sessions share no RNG stream.
        specs = classical_specs()
        config = TrialConfig(n_sessions=4, seed=11)
        ids = assign_expt_ids(specs, config.seed)
        algorithms = {spec.name: spec.build() for spec in specs}
        run_session(specs, config, 3, ids, algorithms)
        reordered = run_session(specs, config, 1, ids, algorithms)
        fresh = run_session(specs, config, 1, ids)
        for ra, rb in zip(reordered.session.streams, fresh.session.streams):
            assert ra.records == rb.records

    def test_trial_validates_specs(self):
        with pytest.raises(ValueError, match="at least one"):
            RandomizedTrial([], TrialConfig(n_sessions=2)).run(workers=2)
        dup = classical_specs() + [classical_specs()[0]]
        with pytest.raises(ValueError, match="unique"):
            RandomizedTrial(dup, TrialConfig(n_sessions=2)).run(workers=2)


class TestSeedFolding:
    """Regression tests for the trial-seed bugs: media content and the
    connection loss process used to ignore ``config.seed``, so two trials
    with different seeds replayed identical video and losses."""

    def test_distinct_seeds_draw_distinct_media(self):
        specs = [classical_specs()[0]]  # single arm: assignment identical
        sizes = {}
        for seed in (0, 1):
            config = TrialConfig(n_sessions=2, seed=seed)
            shard = run_session(specs, config, 0)
            sizes[seed] = [
                r.size_bytes
                for stream in shard.session.streams
                for r in stream.records
            ]
        assert sizes[0] and sizes[1]
        assert sizes[0] != sizes[1], (
            "different trial seeds replayed identical video content"
        )

    def test_distinct_seeds_distinct_connection_draws(self):
        # The loss/connection seed must fold the trial seed in.
        from repro.experiment.harness import connection_seed, media_seed

        assert connection_seed(0, 5) != connection_seed(1, 5)
        assert media_seed(0, 5, 0) != media_seed(1, 5, 0)
        rng_a = np.random.default_rng(connection_seed(0, 5))
        rng_b = np.random.default_rng(connection_seed(1, 5))
        assert rng_a.random() != rng_b.random()

    def test_same_seed_still_reproducible(self):
        specs = classical_specs()
        config = TrialConfig(n_sessions=6, seed=4)
        a = RandomizedTrial(specs, config).run()
        b = RandomizedTrial(classical_specs(), config).run()
        assert_trials_bit_identical(a, b)

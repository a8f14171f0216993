"""Differential oracle: the batch fast path equals the scalar path bit for bit.

Every case replays identical seeds through ``run_session`` and
``run_session_batch`` and asserts dataclass equality of the shards — every
chunk record, every float, every CONSORT counter.  There is no tolerance:
any difference is either a fast-path bug or a latent scalar-path bug (see
EXPERIMENTS.md, "Batch execution backend").
"""

import gc
import inspect
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abr.bba import BBA
from repro.abr.bola import Bola
from repro.abr.mpc import MpcHm
from repro.abr.rate_based import RateBased
from repro.batch import is_vectorizable_algorithm, run_session_batch
from repro.experiment.harness import TrialConfig, run_session
from repro.experiment.presets import smoke_trial_config
from repro.experiment.schemes import SchemeSpec
from repro.experiment.watch import ViewerModel
from repro.fleet import FleetConfig, WorkloadConfig, run_fleet
from repro.net.path import PopulationModel


def spec(name, factory):
    return SchemeSpec(
        name=name, control="classical", predictor="n/a",
        optimization_goal="per-scheme", how_trained="n/a", factory=factory,
    )


VECTORIZABLE = [
    ("bba", BBA),
    ("bola", Bola),
    ("rate_based", RateBased),
]


def assert_equivalent(specs, config, session_ids):
    shards = run_session_batch(specs, config, session_ids)
    for sid, shard in zip(session_ids, shards):
        assert shard == run_session(specs, config, sid), (
            f"batch shard diverged from scalar for session {sid}"
        )
    return shards


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


class TestSchemeEquivalence:
    @pytest.mark.parametrize("name,factory", VECTORIZABLE)
    def test_each_vectorizable_scheme(self, name, factory):
        config = smoke_trial_config(seed=9)
        assert_equivalent([spec(name, factory)], config, range(10))

    @pytest.mark.parametrize("name,factory", VECTORIZABLE)
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

    def test_mixed_specs_with_fallback_scheme(self):
        # mpc_hm is not vectorizable: its sessions must transparently run
        # on the scalar path inside the same batch call.
        specs = [spec("bba", BBA), spec("mpc_hm", MpcHm)]
        config = smoke_trial_config(seed=2)
        assert_equivalent(specs, config, range(12))

    def test_all_cubic_population_falls_back(self):
        # CUBIC congestion control is not vectorized; every session takes
        # the scalar fallback and the result must still be identical.
        config = smoke_trial_config(seed=4)
        config = TrialConfig(
            n_sessions=config.n_sessions,
            seed=config.seed,
            population=PopulationModel(cubic_fraction=1.0),
            viewer=config.viewer,
        )
        assert_equivalent([spec("bba", BBA)], config, range(6))

    def test_vectorizability_classifier(self):
        assert is_vectorizable_algorithm(BBA())
        assert is_vectorizable_algorithm(Bola())
        assert is_vectorizable_algorithm(RateBased())
        assert not is_vectorizable_algorithm(MpcHm())


class TestBatchShapeInvariance:
    def test_non_contiguous_unordered_ids(self):
        config = smoke_trial_config(seed=1)
        specs = [spec("bola", Bola)]
        ids = [5, 17, 2, 33]
        shards = run_session_batch(specs, config, ids)
        for sid, shard in zip(ids, shards):
            assert shard == run_session(specs, config, sid)

    def test_empty_ids(self):
        assert run_session_batch(
            [spec("bba", BBA)], smoke_trial_config(seed=0), []
        ) == []

    def test_signature_has_no_width_parameter(self):
        # Sessions run one at a time; a lane/width option cannot return
        # unnoticed.
        assert list(inspect.signature(run_session_batch).parameters) == [
            "specs", "config", "session_ids", "expt_ids", "algorithms",
        ]

    @pytest.mark.parametrize("fails", [False, True])
    def test_gc_state_is_restored(self, fails):
        # The call suspends generational GC; it must hand it back enabled,
        # also when a session raises (no algorithm cached for the scheme).
        specs = [spec("bba", BBA)]
        config = smoke_trial_config(seed=0)
        assert gc.isenabled()
        if fails:
            with pytest.raises(KeyError):
                run_session_batch(specs, config, [0], algorithms={})
        else:
            run_session_batch(specs, config, [0])
        assert gc.isenabled()

    def test_telemetry_config_falls_back(self):
        config = smoke_trial_config(seed=6)
        config = TrialConfig(
            n_sessions=config.n_sessions,
            seed=config.seed,
            viewer=config.viewer,
            collect_telemetry=True,
        )
        specs = [spec("bba", BBA)]
        shards = run_session_batch(specs, config, range(3))
        for sid, shard in zip(range(3), shards):
            ref = run_session(specs, config, sid)
            assert shard == ref
            assert shard.telemetry is not None


class TestRandomizedConfigs:
    @given(
        seed=st.integers(0, 10_000),
        scheme=st.sampled_from(VECTORIZABLE),
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


@pytest.mark.parallel_smoke
class TestFleetByteIdentity:
    """Fleet dumps are byte-identical with the batch executor on and off,
    at any worker count (``pytest -m parallel_smoke``)."""

    def _dump(self, executor, workers):
        specs = [spec("bba", BBA), spec("mpc_hm", MpcHm)]
        config = FleetConfig(
            workload=WorkloadConfig(days=0.01, sessions_per_hour=120.0, seed=5),
            trial=smoke_trial_config(seed=11),
            chunk_sessions=4,
            executor=executor,
        )
        result = run_fleet(specs, config, workers=workers)
        assert result.throughput is not None
        assert result.throughput.executor == (
            "batch" if executor in ("batch", "auto") else "scalar"
        )
        return json.dumps(result.to_dump_dict(), sort_keys=True)

    def test_dump_identical_across_executors_and_workers(self):
        reference = self._dump("scalar", workers=1)
        assert self._dump("batch", workers=1) == reference
        assert self._dump("auto", workers=1) == reference
        assert self._dump("batch", workers=2) == reference

    def test_executor_validation(self):
        with pytest.raises(ValueError):
            FleetConfig(executor="gpu")

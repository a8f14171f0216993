"""Parallel-engine observability equivalence: merged metrics must be
bit-identical to the serial loop at any worker count.

The deterministic surface is ``ObsContext.to_dict(include_wallclock=False)``
— counters, gauges, histogram bin contents, and the (simulation-timestamped)
event trace.  Wall-clock ``profile.*`` metrics are quarantined by the
``wallclock`` tag and excluded from this comparison by construction.
"""

import json

import pytest

from repro.abr.bba import BBA
from repro.abr.mpc import MpcHm
from repro.experiment.harness import RandomizedTrial, TrialConfig
from repro.experiment.schemes import SchemeSpec


def classical_specs():
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


def obs_config(n_sessions=12, seed=3):
    return TrialConfig(n_sessions=n_sessions, seed=seed, observability=True)


def deterministic_dump(trial) -> str:
    assert trial.obs is not None
    return json.dumps(
        trial.obs.to_dict(include_wallclock=False), sort_keys=True
    )


class TestObsCollection:
    def test_trial_without_observability_has_no_obs(self):
        config = TrialConfig(n_sessions=2, seed=0)
        trial = RandomizedTrial(classical_specs(), config).run()
        assert trial.obs is None
        with pytest.raises(ValueError):
            trial.dump_metrics("/tmp/never-written.json")

    def test_trial_with_observability_collects_all_layers(self):
        trial = RandomizedTrial(classical_specs(), obs_config()).run()
        counters = trial.obs.metrics.counters
        # Every instrumented layer contributed.
        assert counters["trial.sessions"] == 12
        assert counters["trial.streams"] == sum(
            len(s.streams) for s in trial.sessions
        )
        assert counters["tcp.rounds"] > 0
        assert counters["stream.chunks_sent"] > 0
        # Whichever loop carried a chunk, it is one transmission.
        assert counters["tcp.transmissions"] == counters["stream.chunks_sent"]
        assert "stream.chunk_transmission_s" in trial.obs.metrics.histograms
        # Wall-clock session timing is collected but quarantined.
        assert "profile.session_wall_s" in trial.obs.metrics.histograms
        det = trial.obs.to_dict(include_wallclock=False)
        assert "profile.session_wall_s" not in det["metrics"]["histograms"]

    def test_events_are_simulation_timestamped_and_ordered_by_session(self):
        trial = RandomizedTrial(classical_specs(), obs_config()).run()
        events = trial.obs.tracer.events()
        assert events, "expected stream_end (and likely startup) events"
        kinds = {e.kind for e in events}
        assert "stream_end" in kinds
        # Events arrive in session-id order: the stream_id field (derived
        # from session id) must be non-decreasing across session boundaries.
        stream_ids = [dict(e.fields)["stream_id"] for e in events]
        assert stream_ids == sorted(stream_ids)


@pytest.mark.parallel_smoke
class TestParallelObsEquivalence:
    """`pytest -m parallel_smoke` — serial vs process-pool metric identity."""

    def test_merged_metrics_bit_identical_across_worker_counts(self):
        specs = classical_specs()
        config = obs_config(n_sessions=12, seed=3)
        serial = RandomizedTrial(specs, config).run()
        reference = deterministic_dump(serial)
        for workers in (1, 2, 4):
            parallel = RandomizedTrial(specs, config).run(workers=workers)
            assert deterministic_dump(parallel) == reference, (
                f"metrics dump diverged at workers={workers}"
            )

    def test_counter_and_bin_equality_in_detail(self):
        specs = classical_specs()
        config = obs_config(n_sessions=8, seed=5)
        serial = RandomizedTrial(specs, config).run()
        parallel = RandomizedTrial(specs, config).run(workers=4)
        assert (
            serial.obs.metrics.counters == parallel.obs.metrics.counters
        )
        assert sorted(serial.obs.metrics.histograms) == sorted(
            parallel.obs.metrics.histograms
        )
        for name, hist in serial.obs.metrics.histograms.items():
            if name in serial.obs.metrics._wallclock:
                continue
            other = parallel.obs.metrics.histograms[name]
            assert other.counts == hist.counts, name
            assert other.sum == hist.sum, name
            assert other.count == hist.count, name

    def test_event_order_matches_serial(self):
        specs = classical_specs()
        config = obs_config(n_sessions=8, seed=5)
        serial = RandomizedTrial(specs, config).run()
        parallel = RandomizedTrial(specs, config).run(workers=2)
        assert parallel.obs.tracer.events() == serial.obs.tracer.events()
        assert parallel.obs.tracer.dropped == serial.obs.tracer.dropped

    def test_dump_metrics_roundtrip(self, tmp_path):
        specs = classical_specs()
        config = obs_config(n_sessions=6, seed=7)
        trial = RandomizedTrial(specs, config).run(workers=2)
        path = tmp_path / "metrics.json"
        returned = trial.dump_metrics(str(path), include_wallclock=False)
        assert returned == str(path)
        assert trial.metrics_path == str(path)
        with open(path) as f:
            dump = json.load(f)
        assert dump == trial.obs.to_dict(include_wallclock=False)
        # And the serial engine writes the identical file.
        serial = RandomizedTrial(specs, config).run()
        serial_path = tmp_path / "serial.json"
        serial.dump_metrics(str(serial_path), include_wallclock=False)
        assert serial_path.read_bytes() == path.read_bytes()

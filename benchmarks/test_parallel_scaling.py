"""Serial-vs-parallel scaling of the session-sharded trial engine.

The paper's trial accumulated 38.6 client-years across ~500k streams; the
reproduction needs paper-scale trials (and the daily §5 retraining loop) to
be wall-clock-bound only by hardware.  This bench runs one >= 200-session
trial through the serial loop and through the process pool, records the
speedup, and — because the engine guarantees it — re-checks bit-identity at
scale.

Scale knobs (environment variables):

* ``REPRO_SCALING_SESSIONS`` — sessions in the timed trial (default 200).
* ``REPRO_SCALING_WORKERS`` — pool size for the timed run (default 4).
* ``REPRO_KERNEL_SESSIONS`` — sessions in the stream-kernel check
  (default 512).

The >= 2x bar applies at 4 or more workers, and only when the machine has a
core for each of them; at fewer workers (where the serial tail — pool
start-up, the in-order merge — is a larger share) or on smaller CI boxes the
bench still validates correctness and prints the measured speed-up.  The stream kernel is only checked for
bit-identity here, at a scale the tier-1 suite cannot afford; its speed is
measured by the ``bba_batch`` workload of ``perf/run.py``.
"""

import os
import time
from dataclasses import replace

import pytest

from repro.abr.bba import BBA
from repro.abr.mpc import MpcHm, RobustMpcHm
from repro.experiment.harness import RandomizedTrial, TrialConfig, run_session
from repro.experiment.schemes import SchemeSpec

SESSIONS = int(os.environ.get("REPRO_SCALING_SESSIONS", "200"))
WORKERS = int(os.environ.get("REPRO_SCALING_WORKERS", "4"))
KERNEL_SESSIONS = int(os.environ.get("REPRO_KERNEL_SESSIONS", "512"))


def scaling_specs():
    """Classical schemes only: no model training, so the bench times the
    session loop itself rather than setup."""
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
        SchemeSpec(
            name="robust_mpc_hm", control="classical",
            predictor="classical (HM)",
            optimization_goal="+SSIM, -stalls, -dSSIM",
            how_trained="n/a", factory=RobustMpcHm,
        ),
    ]


@pytest.fixture(scope="module")
def scaling_runs():
    config = TrialConfig(n_sessions=SESSIONS, seed=13)
    t0 = time.perf_counter()
    serial = RandomizedTrial(scaling_specs(), config).run()
    serial_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    parallel = RandomizedTrial(scaling_specs(), config).run(workers=WORKERS)
    parallel_s = time.perf_counter() - t0
    return serial, serial_s, parallel, parallel_s


class TestParallelScaling:
    def test_speedup(self, scaling_runs):
        serial, serial_s, parallel, parallel_s = scaling_runs
        speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
        print(
            f"\nscaling @ {SESSIONS} sessions: serial {serial_s:.2f}s "
            f"({serial.throughput.sessions_per_s:.1f} sess/s), "
            f"{WORKERS} workers {parallel_s:.2f}s "
            f"({parallel.throughput.sessions_per_s:.1f} sess/s) "
            f"-> speedup {speedup:.2f}x on {os.cpu_count()} cpus"
        )
        print(parallel.throughput.format())
        if WORKERS >= 4 and (os.cpu_count() or 1) >= WORKERS:
            assert speedup >= 2.0, (
                f"{WORKERS}-worker trial only {speedup:.2f}x faster than "
                f"serial on a {os.cpu_count()}-cpu machine"
            )
        else:
            pytest.skip(
                f"{WORKERS} worker(s) on {os.cpu_count()} cpu(s): recorded "
                f"speedup {speedup:.2f}x without asserting the >=2x bar "
                "(it applies at >= 4 workers with a core each)"
            )

    def test_bit_identical_at_scale(self, scaling_runs):
        serial, _, parallel, _ = scaling_runs
        assert len(serial.sessions) == len(parallel.sessions) == SESSIONS
        assert serial.consort.arms == parallel.consort.arms
        for sa, sb in zip(serial.sessions, parallel.sessions):
            assert sa.scheme == sb.scheme
            assert len(sa.streams) == len(sb.streams)
            for ra, rb in zip(sa.streams, sb.streams):
                assert ra.records == rb.records
                assert ra.total_time == rb.total_time

    def test_pool_overhead_accounted(self, scaling_runs):
        _, _, parallel, _ = scaling_runs
        report = parallel.throughput
        assert report is not None
        assert report.mode in ("fork", "spawn", "forkserver", "serial")
        assert report.sessions == SESSIONS


class TestStreamKernel:
    def test_bit_identical(self):
        """Identical session ids through the stream kernel and through
        ``stream_machine`` (the same sessions, observed), under the stock
        heavy-tailed viewer."""
        specs = [
            SchemeSpec(
                name="bba", control="classical", predictor="n/a",
                optimization_goal="+SSIM s.t. bitrate < limit",
                how_trained="n/a", factory=BBA,
            )
        ]
        config = TrialConfig(n_sessions=max(KERNEL_SESSIONS, 1000), seed=42)
        observed = replace(config, observability=True)
        for sid in range(KERNEL_SESSIONS):
            shard = run_session(specs, config, sid)
            reference = run_session(specs, observed, sid)
            assert shard.obs is None and reference.obs is not None
            assert (shard.session, shard.consort) == (
                reference.session, reference.consort
            ), f"kernel diverged for session {sid}"

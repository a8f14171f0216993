"""A pool worker that dies raises :class:`WorkerError` instead of hanging.

``multiprocessing.Pool.imap`` waits forever for the result of a task whose
worker was killed (the pool replaces the worker but not the task).  Each
case runs in a subprocess under a timeout, so a regression to that hang
fails the test instead of stalling the suite.
"""

import os
import re
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"
TIMEOUT_S = 60


def script_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_script(script: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        env=script_env(), capture_output=True, text=True, timeout=TIMEOUT_S,
    )


def running(pid: int) -> bool:
    """Whether ``pid`` is alive and not a zombie (an exited orphan whose
    new parent has not reaped it yet)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


def assert_worker_error(completed: subprocess.CompletedProcess, last: int):
    assert completed.returncode == 0, completed.stderr
    message = completed.stdout
    assert message.startswith("WorkerError:"), message
    # The first item left without a result: the one that killed its worker,
    # or an earlier one the other worker was still running.
    index = int(re.search(r"before item (\d+) returned", message).group(1))
    assert 0 <= index <= last, message
    assert "workers=1" in message


@pytest.mark.parallel_smoke
class TestDeadWorker:
    def test_fork_map_raises_instead_of_hanging(self):
        completed = run_script(
            """
            import os
            from repro.experiment.parallel import WorkerError, fork_map

            def fn(payload, item):
                if item == 3:
                    os._exit(7)
                return item

            try:
                list(fork_map(fn, None, range(6), 2))
            except WorkerError as exc:
                print("WorkerError:", exc)
            """
        )
        assert_worker_error(completed, last=3)

    def test_fleet_run_raises_instead_of_hanging(self):
        completed = run_script(
            """
            import os
            from repro.abr.bba import BBA
            from repro.experiment.parallel import WorkerError
            from repro.experiment.presets import smoke_trial_config
            from repro.experiment.schemes import SchemeSpec
            from repro.fleet import runner
            from repro.fleet.workload import WorkloadConfig

            simulate = runner._simulate_chunk

            def dying(payload, items):
                if items[0][0] >= 8:  # the second chunk
                    os._exit(9)
                return simulate(payload, items)

            runner._simulate_chunk = dying
            spec = SchemeSpec(
                name="bba", control="classical", predictor="n/a",
                optimization_goal="+SSIM s.t. bitrate < limit",
                how_trained="n/a", factory=BBA,
            )
            config = runner.FleetConfig(
                workload=WorkloadConfig(
                    days=0.02, sessions_per_hour=80.0, seed=5
                ),
                trial=smoke_trial_config(seed=11),
                chunk_sessions=8,
            )
            try:
                runner.run_fleet([spec], config, workers=2)
            except WorkerError as exc:
                print("WorkerError:", exc)
            """
        )
        assert_worker_error(completed, last=1)

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self"), reason="reads process states in /proc"
    )
    def test_workers_exit_when_the_run_is_killed(self):
        # The workers' siblings hold the task queue open, so only the
        # workers' own watchdog can see that nobody is left to feed them.
        script = """
            import os, time
            from repro.experiment.parallel import fork_map

            def fn(payload, item):
                time.sleep(0.05)
                return os.getpid()

            for pid in fork_map(fn, None, range(10 ** 6), 2):
                print(pid, flush=True)
        """
        run = subprocess.Popen(
            [sys.executable, "-c", textwrap.dedent(script)],
            env=script_env(), stdout=subprocess.PIPE, text=True,
        )
        try:
            workers = set()
            deadline = time.monotonic() + TIMEOUT_S
            while len(workers) < 2 and time.monotonic() < deadline:
                workers.add(int(run.stdout.readline()))
            assert len(workers) == 2
        finally:
            run.send_signal(signal.SIGKILL)
            run.wait(TIMEOUT_S)
            run.stdout.close()
        deadline = time.monotonic() + 10.0
        while any(map(running, workers)) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not any(map(running, workers)), "orphaned pool workers"

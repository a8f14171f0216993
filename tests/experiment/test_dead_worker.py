"""The pool's three ends: a worker that dies raises :class:`WorkerError`
naming it, a run that is killed takes its workers with it, and closing the
map kills and reaps every worker at once.

``multiprocessing.Pool.imap`` waits forever for the result of a task whose
worker was killed (the pool replaces the worker but not the task).  Each
case runs in a subprocess under a timeout, so a regression to that hang
fails the test instead of stalling the suite.
"""

import errno
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

NO_CHILD = """
    try:
        os.waitpid(-1, os.WNOHANG)
        print("child left")
    except ChildProcessError:
        print("no child")
"""
"""Script tail: every worker the script forked has been reaped."""


def script_env() -> dict:
    """The test's environment, minus ``PYTHONUNBUFFERED``: a script's
    stdout is a pipe, so it is block-buffered as a library caller's is."""
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_script(script: str, cwd=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        env=script_env(), capture_output=True, text=True, timeout=TIMEOUT_S,
        cwd=cwd,
    )


def run_lines(*parts: str, cwd=None) -> list:
    """The stdout lines of the script made of ``parts``; it must exit
    cleanly and leave no child behind."""
    script = "".join(textwrap.dedent(part) for part in (*parts, NO_CHILD))
    completed = run_script(script, cwd)
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.splitlines()
    assert lines[-1] == "no child", lines
    return lines[:-1]


def running(pid: int) -> bool:
    """Whether ``pid`` is alive and not a zombie (an exited orphan whose
    new parent has not reaped it yet)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


def assert_worker_error(lines: list, item: int, ending: str):
    """One ``WorkerError`` naming the worker, how it ended and the item.

    The error is raised in the place of the item its worker was on, and
    only the items that kill their worker lack a result, so the item named
    is always the first of those."""
    [message] = lines
    assert message.startswith("WorkerError:"), message
    match = re.search(
        r"pool worker (\d+) ended \((.+?)\) before item (\d+) returned",
        message,
    )
    assert match, message
    assert int(match.group(1)) > 0
    assert (match.group(2), int(match.group(3))) == (ending, item), message
    assert "workers=1" in message


FLEET_SETUP = """
    import filecmp, os
    from repro.abr.bba import BBA
    from repro.experiment.parallel import WorkerError
    from repro.experiment.presets import smoke_trial_config
    from repro.experiment.schemes import SchemeSpec
    from repro.fleet import runner
    from repro.fleet.workload import WorkloadConfig

    simulate = runner._simulate_chunk

    def dying(payload, items):
        if items[0][0] >= 8:  # the second chunk and every later one
            os._exit(9)
        return simulate(payload, items)

    spec = SchemeSpec(
        name="bba", control="classical", predictor="n/a",
        optimization_goal="+SSIM s.t. bitrate < limit",
        how_trained="n/a", factory=BBA,
    )
    config = runner.FleetConfig(
        workload=WorkloadConfig(days=0.02, sessions_per_hour=80.0, seed=5),
        trial=smoke_trial_config(seed=11),
        chunk_sessions=8,
    )
"""
"""A small fleet run and a chunk function whose second chunk kills its
worker."""


@pytest.mark.parallel_smoke
class TestDeadWorker:
    def test_fork_map_raises_instead_of_hanging(self):
        lines = run_lines(
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
        assert_worker_error(lines, item=3, ending="exit status 7")

    def test_a_worker_killed_by_a_signal_names_the_signal(self):
        lines = run_lines(
            """
            import os, signal
            from repro.experiment.parallel import WorkerError, fork_map

            def fn(payload, item):
                if item == 3:
                    os.kill(os.getpid(), signal.SIGKILL)
                return item

            try:
                list(fork_map(fn, None, range(6), 2))
            except WorkerError as exc:
                print("WorkerError:", exc)
            """
        )
        assert_worker_error(lines, item=3, ending="signal 9")

    def test_fleet_run_raises_instead_of_hanging(self):
        lines = run_lines(
            FLEET_SETUP,
            """
            runner._simulate_chunk = dying
            try:
                runner.run_fleet([spec], config, workers=2)
            except WorkerError as exc:
                print("WorkerError:", exc)
            """
        )
        assert_worker_error(lines, item=1, ending="exit status 9")

    def test_a_run_whose_worker_died_resumes_byte_identically(self, tmp_path):
        # The first chunk's commit is checkpointed before the second
        # chunk's worker dies; resuming with the chunk function restored
        # must give the uninterrupted run's dump at any worker count.
        lines = run_lines(
            FLEET_SETUP,
            """
            runner.run_fleet([spec], config, workers=2).dump("whole.json")
            for workers in (2, 1):
                checkpoint = f"w{workers}.ckpt"
                runner._simulate_chunk = dying
                try:
                    runner.run_fleet(
                        [spec], config, workers=2, checkpoint_path=checkpoint
                    )
                except WorkerError as exc:
                    print("WorkerError:", exc)
                runner._simulate_chunk = simulate
                resumed = runner.run_fleet(
                    [spec], config, workers=workers,
                    checkpoint_path=checkpoint, resume=True,
                )
                resumed.dump(f"resumed{workers}.json")
                print(
                    workers,
                    resumed.next_session_id,
                    filecmp.cmp("whole.json", f"resumed{workers}.json", False),
                )
            """,
            cwd=tmp_path,
        )
        assert len(lines) == 4, lines
        for error in lines[0::2]:
            assert_worker_error([error], item=1, ending="exit status 9")
        (w2, n2, same2), (w1, n1, same1) = (l.split() for l in lines[1::2])
        assert (w2, same2, w1, same1) == ("2", "True", "1", "True"), lines
        assert n1 == n2 and int(n2) > 8

    def test_exceptions_from_the_chunk_function_keep_their_type(self):
        lines = run_lines(
            """
            import os
            from repro.experiment.parallel import fork_map

            def fn(payload, item):
                if item == 3:
                    raise KeyError("seven")
                return item

            try:
                list(fork_map(fn, None, range(6), 2))
            except KeyError as exc:
                print("KeyError", exc.args)
            """
        )
        assert lines == ["KeyError ('seven',)"]

    @pytest.mark.parametrize("what", ["result", "exception"])
    def test_what_does_not_pickle_raises_the_pickling_error(self, what):
        # Not a WorkerError: the worker is alive and says why it cannot
        # answer.
        lines = run_lines(
            f"""
            import os, pickle
            from repro.experiment.parallel import fork_map

            def unpicklable():
                class Local:
                    pass
                if {what!r} == "result":
                    return Local()
                return ValueError(Local())

            def fn(payload, item):
                if item < 3:
                    return item
                if {what!r} == "result":
                    return unpicklable()
                raise unpicklable()

            try:
                pickle.dumps(unpicklable())
            except Exception as exc:
                print(type(exc).__name__, exc)
            try:
                list(fork_map(fn, None, range(6), 2))
            except Exception as exc:
                print(type(exc).__name__, exc)
            """
        )
        expected, raised = lines
        assert "Can't pickle local object" in expected
        assert raised == expected

    def test_output_before_a_map_is_written_once(self):
        # A worker forked with the parent's output still buffered would
        # write it again when it flushes.
        lines = run_lines(
            """
            import os
            from repro.experiment.parallel import fork_map

            def fn(payload, item):
                return item

            print("before the map")
            print(list(fork_map(fn, None, range(6), 2)))
            """
        )
        assert lines == ["before the map", "[0, 1, 2, 3, 4, 5]"]

    def test_large_items_and_results_do_not_deadlock(self):
        # Each would fill a pipe on its own: a parent blocked sending an
        # item to a worker that is blocked sending its result never returns.
        lines = run_lines(
            """
            import os
            from repro.experiment.parallel import fork_map

            def fn(payload, item):
                return bytes(4_000_000) + item[:1]

            items = [bytes([n]) * 500_000 for n in range(20)]
            results = list(fork_map(fn, None, items, 2))
            print([(len(r), r[-1]) for r in results] == [
                (4_000_001, n) for n in range(20)
            ])
            """
        )
        assert lines == ["True"]

    def test_a_long_item_does_not_hold_up_the_items_after_it(self):
        # The other worker takes every item while item 0 runs: it is never
        # queued behind the long one.
        lines = run_lines(
            """
            import os, time
            from repro.experiment.parallel import fork_map

            def fn(payload, item):
                if item == 0:
                    time.sleep(2.0)
                return os.getpid()

            first, *rest = fork_map(fn, None, range(8), 2)
            print(len(set(rest)), first in rest)
            """
        )
        assert lines == ["1 False"]

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self"), reason="counts open files in /proc"
    )
    def test_a_failed_fork_leaves_no_pipe_and_no_child(self):
        lines = run_lines(
            """
            import errno, os
            from repro.experiment.parallel import fork_map

            real_fork, forked = os.fork, []

            def fork():  # the second fork fails, as when out of processes
                if forked:
                    raise OSError(errno.EAGAIN, "no process left")
                forked.append(real_fork())
                return forked[-1]

            def fn(payload, item):
                return item

            before = len(os.listdir("/proc/self/fd"))
            os.fork = fork
            try:
                list(fork_map(fn, None, range(4), 2))
            except OSError as exc:
                # Counted while the error still holds the failed call's
                # frames, so a pipe closed only by garbage collection shows.
                print(exc.errno, len(os.listdir("/proc/self/fd")) - before)
            os.fork = real_fork
            """
        )
        assert lines == [f"{errno.EAGAIN} 0"]

    def test_closing_early_kills_and_reaps_at_once(self):
        lines = run_lines(
            """
            import os, time
            from repro.experiment.parallel import fork_map

            def fn(payload, item):
                if item >= 2:
                    time.sleep(30)
                return item

            results = fork_map(fn, None, range(100), 2)
            print([next(results), next(results)])
            start = time.monotonic()
            results.close()
            print(time.monotonic() - start)
            """
        )
        assert lines[0] == "[0, 1]"
        assert float(lines[1]) < 5.0, lines

    def test_a_worker_runs_no_helper_thread(self):
        lines = run_lines(
            """
            import os, threading
            from repro.experiment.parallel import fork_map

            def fn(payload, item):
                return threading.active_count()

            print(set(fork_map(fn, None, range(8), 2)))
            """
        )
        assert lines == ["{1}"]

    def test_back_to_back_maps_return_the_serial_results(self):
        lines = run_lines(
            """
            import os
            from repro.experiment.parallel import fork_map

            def fn(payload, item):
                return item * item

            expected = [item * item for item in range(10)]
            print(all(
                list(fork_map(fn, None, range(10), 2)) == expected
                for _ in range(50)
            ))
            """
        )
        assert lines == ["True"]

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self"), reason="reads process states in /proc"
    )
    def test_workers_exit_when_the_run_is_killed(self):
        # The killed run's ends of the workers' pipes close with it, and
        # no other process holds them, so each worker reads end-of-file.
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

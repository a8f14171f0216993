"""The one process pool in ``src/repro``, and the session chunk every driver
runs on it.

The paper's statistics rest on scale — 38.6 client-years of data from about
half a million streams — and a serial Python loop over sessions is the
bottleneck for anything paper-sized.  Sessions are independent by
construction (every draw is keyed on ``(config.seed, session_id)``; see
:func:`repro.experiment.harness.run_session`), so every result in the repo
is "run many pure sessions in id order and fold them":

1. work is cut into contiguous chunks by :func:`chunked` (several per
   worker, for load balance — sessions vary a lot in length, Fig. 10);
2. :func:`fork_map` runs a chunk function over them — on worker processes
   it forks itself, one pipe each, or in this process when ``workers <= 1``
   or the platform cannot fork — and hands the results back **in order,
   lazily**;
3. the caller folds them: the trial
   (:meth:`~repro.experiment.harness.RandomizedTrial.run`) merges the
   :class:`~repro.experiment.harness.SessionShard` lists of
   :func:`run_sessions` by session id, the fleet driver
   (:mod:`repro.fleet.runner`) folds the same shards into sink deltas and
   commits them, the in-situ collection loop keeps the eligible streams.
   Because the fold sees the same values in the same order at any worker
   count, the output is **bit-identical** to the in-process path.

Scheme factories often close over big model objects (a trained TTP, a
Pensieve policy) as lambdas, which do not pickle.  The pool therefore
never pickles its payload: workers inherit it by copy-on-write ``fork``,
and each builds its **own** scheme instances from it
(:class:`SessionPayload`) — instances are never shared across processes.

The pool has no helper thread.  A worker blocks on its pipe and a parent
that reads end-of-file from it knows the worker is gone; a worker that
reads end-of-file knows its parent is.  Whatever ends the map — the last
result, an exception, an early close — closes every pipe, kills every
worker and reaps it before :func:`fork_map` returns.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import sys
import time
import traceback
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice
from multiprocessing.connection import Connection, Pipe, wait
from typing import (
    Any,
    Callable,
    Dict,
    Generator,
    Iterable,
    Iterator,
    List,
    Sequence,
    TypeVar,
)

from repro.abr.base import AbrAlgorithm
from repro.experiment.harness import (
    SessionShard,
    TrialConfig,
    TrialResult,
    assign_expt_ids,
    merge_shards,
    run_session,
)
from repro.experiment.schemes import SchemeSpec

DEFAULT_CHUNKS_PER_WORKER = 4
"""Target number of chunks handed to each worker (load balancing: sessions
have heavy-tailed durations, so fine-grained chunks stop one long chunk from
straggling the whole pool).  Also the number of items :func:`fork_map`
keeps in flight per worker."""

_P = TypeVar("_P")
_T = TypeVar("_T")
_R = TypeVar("_R")


# ---------------------------------------------------------------------------
# The pool.
# ---------------------------------------------------------------------------
class WorkerError(RuntimeError):
    """A pool worker process died before :func:`fork_map` had an item's
    result (killed by a signal or the OOM killer, or ``os._exit`` in the
    chunk function): the pool is broken and the run cannot go on."""


def pool_mode(workers: int) -> str:
    """How :func:`fork_map` will run at this worker count: ``"fork"`` on a
    process pool, or ``"serial"`` in the calling process (a single worker,
    or a platform without ``os.fork``)."""
    return "fork" if workers > 1 and hasattr(os, "fork") else "serial"


def _flush_output() -> None:
    for stream in filter(None, (sys.stdout, sys.stderr)):
        stream.flush()


def _fork_worker(fn: Callable, payload: Any, pool: Dict[Connection, int]) -> None:
    """Fork one more worker into ``pool``, which maps the parent's end of
    each worker's pipe to the worker's pid.

    Output is flushed first, so the child does not inherit and repeat the
    parent's pending output.  The child keeps only its own end, so the
    parent's end closing — the parent finishing, closing the map, or dying
    — reaches it as end-of-file, and its own death reaches the parent the
    same way.  It answers each item with ``(True, result)`` or ``(False,
    exception)``; a reply that does not pickle is answered by its pickling
    error.  Output is flushed before each reply, so the ``SIGKILL`` that
    ends the map loses none of it."""
    parent_end, child_end = Pipe()
    _flush_output()
    try:
        pid = os.fork()
    except OSError:
        parent_end.close()
        child_end.close()
        raise
    if pid:
        child_end.close()
        pool[parent_end] = pid
        return
    # The worker: this is its top level, and it never returns into its
    # parent's frames.
    try:
        for conn in (parent_end, *pool):
            conn.close()
        while True:
            item = child_end.recv()
            try:
                reply = (True, fn(payload, item))
            except BaseException as exc:  # re-raised by the parent
                reply = (False, exc)
            _flush_output()
            try:
                child_end.send(reply)
            except Exception as exc:  # the reply does not pickle
                child_end.send((False, exc))
    except (EOFError, ConnectionError):
        os._exit(0)  # the parent's end closed
    except BaseException:
        traceback.print_exc()
    finally:
        os._exit(1)


def _collect(pool: Dict[Connection, int], busy: Dict[Connection, int]) -> Iterator:
    """Wait for the busy workers (``busy`` maps each one's end to its
    item's index) until one replies; yield ``(index, reply bytes)`` for
    each reply that is ready, which frees its worker.  End-of-file (or a
    reset pipe) means the worker died: it is reaped and dropped from
    ``pool``, and its reply is the :class:`WorkerError` naming it."""
    for conn in wait(list(busy)):
        index = busy.pop(conn)
        try:
            yield index, conn.recv_bytes()
        except (EOFError, OSError):
            pid = pool.pop(conn)
            conn.close()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            ending = f"signal {-code}" if code < 0 else f"exit status {code}"
            error = WorkerError(
                f"pool worker {pid} ended ({ending}) before item {index} "
                "returned a result; rerun with workers=1 to see why, or with "
                "more memory"
            )
            yield index, pickle.dumps((False, error))


def fork_map(
    fn: Callable[[_P, _T], _R], payload: _P, items: Iterable[_T], workers: int
) -> Generator[_R, None, None]:
    """``(fn(payload, item) for item in items)``, in order, across a pool.

    ``payload`` travels to the workers by fork inheritance (copy-on-write),
    so it may hold unpicklable objects such as scheme factories or live
    algorithm instances; each worker mutates only its own copy.  Items and
    results must pickle; an exception raised by ``fn`` is re-raised here.
    The ``workers`` workers are forked when the first result is asked
    for, and each item goes to a free one over its own pipe, one item at
    a time: an item is never queued behind a long one, and the parent
    never blocks sending to a worker that is itself blocked sending a
    result, so items and results may be any size.  ``items`` is read
    lazily, at most :data:`DEFAULT_CHUNKS_PER_WORKER` per worker ahead of
    the consumer, and results are yielded in item order, so a consumer
    can fold and discard them one at a time.  Finishing, raising or
    closing the generator early (a paused fleet run) closes every pipe,
    kills every worker and reaps it, there and then.  A worker that dies
    raises :class:`WorkerError` in the place of the item it was on,
    instead of leaving the consumer waiting for its result; no item is
    handed out after that, so the error names the first item that kills
    its worker.

    Runs in the calling process when :func:`pool_mode` says ``"serial"`` —
    then ``fn`` sees the caller's own ``payload`` object.
    """
    if pool_mode(workers) == "serial":
        yield from (fn(payload, item) for item in items)
        return
    pool: Dict[Connection, int] = {}
    busy: Dict[Connection, int] = {}
    replies: Dict[int, bytes] = {}  # by item: answered, not yet yielded
    returned, end = 0, object()
    try:
        while len(pool) < workers:
            _fork_worker(fn, payload, pool)
        for index, item in enumerate(chain(items, [end])):
            # Yield results until this item may go out — a worker is free,
            # none has died, and the consumer is not too far behind — or,
            # past the last item, until every result is out.
            while returned < index and (
                item is end
                or index - returned == workers * DEFAULT_CHUNKS_PER_WORKER
                or not len(busy) < len(pool) == workers
            ):
                if returned not in replies:
                    replies.update(_collect(pool, busy))
                    continue
                ok, value = pickle.loads(replies.pop(returned))
                if not ok:
                    raise value
                yield value
                returned += 1
            if item is not end:
                conn = next(conn for conn in pool if conn not in busy)
                with suppress(OSError):  # a dead worker: _collect says so
                    conn.send(item)
                busy[conn] = index
    finally:
        for conn, pid in pool.items():
            os.kill(pid, signal.SIGKILL)
            conn.close()
            os.waitpid(pid, 0)


def chunked(items: Iterable[_T], size: int) -> Iterator[List[_T]]:
    """Consecutive ``items`` in lists of ``size`` (the last may be short):
    the chunks every driver hands to :func:`fork_map`."""
    iterator = iter(items)
    while chunk := list(islice(iterator, size)):
        yield chunk


@dataclass(frozen=True)
class Throughput:
    """Wall-clock accounting of one run on :func:`fork_map` — a trial or a
    fleet run.  Never enters a result or a dump."""

    mode: str
    """``"serial"`` (in this process) or ``"fork"`` (process pool)."""

    workers: int
    sessions: int
    streams: int
    wall_s: float
    commits: int
    """Chunk results folded: the trial's session chunks, or the fleet's
    commits."""

    checkpoints: int = 0

    @property
    def sessions_per_s(self) -> float:
        return self.sessions / self.wall_s if self.wall_s > 0 else float("inf")

    def format(self) -> str:
        """One-line summary (for the CLI's stderr)."""
        return (
            f"throughput: {self.sessions} sessions "
            f"({self.streams} streams) in {self.wall_s:.2f}s "
            f"= {self.sessions_per_s:.1f} sessions/s "
            f"[{self.mode}, workers={self.workers}, "
            f"commits={self.commits}, checkpoints={self.checkpoints}]"
        )


@dataclass
class SessionPayload:
    """What :func:`run_sessions` needs to simulate sessions: the
    :func:`fork_map` payload of the trial and (extended) of the fleet
    driver.

    ``algorithms`` is the per-process scheme-instance cache.  A pool
    worker inherits the payload with the cache empty, builds its instances
    on the first chunk it executes and reuses them for every later chunk;
    the in-process path does the same on the caller's payload, which lives
    for one run.  Instances therefore never cross a process boundary —
    which is what removes the cross-session shared-instance hazard of the
    historical single-loop harness.
    """

    specs: List[SchemeSpec]
    config: TrialConfig
    expt_ids: Dict[str, int]

    @cached_property
    def algorithms(self) -> Dict[str, AbrAlgorithm]:
        return {spec.name: spec.build() for spec in self.specs}


def run_sessions(
    payload: SessionPayload, session_ids: Sequence[int]
) -> List[SessionShard]:
    """Simulate a contiguous chunk of sessions in this process, in id
    order: the session chunk of the trial and of the fleet's private-link
    runs, in a pool worker or in-process."""
    specs, config, expt_ids = payload.specs, payload.config, payload.expt_ids
    algorithms = payload.algorithms
    return [
        run_session(specs, config, session_id, expt_ids, algorithms)
        for session_id in session_ids
    ]


def _run_trial(
    specs: Sequence[SchemeSpec], config: TrialConfig, workers: int
) -> TrialResult:
    """The body of :meth:`~repro.experiment.harness.RandomizedTrial.run`:
    :func:`run_sessions` over chunks of session ids on :func:`fork_map`,
    folded by :func:`merge_shards`.

    Each worker gets about :data:`DEFAULT_CHUNKS_PER_WORKER` chunks.  The
    result — sessions, stream records, CONSORT counts, telemetry records
    and their order — is bit-identical at any ``workers``.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    n_sessions = config.n_sessions
    workers = min(workers, n_sessions)
    expt_ids = assign_expt_ids(specs, config.seed)
    size = math.ceil(n_sessions / (workers * DEFAULT_CHUNKS_PER_WORKER))
    chunks = list(chunked(range(n_sessions), size))
    payload = SessionPayload(list(specs), config, expt_ids)
    # repro: allow-DET002(throughput report timing; never enters results)
    start = time.perf_counter()
    shards = chain.from_iterable(fork_map(run_sessions, payload, chunks, workers))
    trial = merge_shards(specs, config, expt_ids, list(shards))
    trial.throughput = Throughput(
        mode=pool_mode(workers),
        workers=workers,
        sessions=n_sessions,
        streams=sum(len(session.streams) for session in trial.sessions),
        wall_s=time.perf_counter() - start,  # repro: allow-DET002(throughput report timing; never enters results)
        commits=len(chunks),
    )
    return trial

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
2. :func:`fork_map` runs a chunk function over them — on a forked process
   pool, or in this process when ``workers <= 1`` or the platform cannot
   fork — and hands the results back **in order, lazily**;
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
"""

from __future__ import annotations

import math
import multiprocessing
import os
import threading
import time
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Generator,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
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


_WORKER_CALL: Optional[Tuple[Callable[[Any, Any], Any], Any]] = None
"""``(fn, payload)`` of the pool this process is a worker of.  Written once,
by :func:`_adopt` as a worker is born; every parent's copy stays ``None``.
Pool tasks are pickled by name, so a worker needs one fixed place to find
the (unpicklable) function and payload it inherited."""


def _adopt(fn: Callable[[Any, Any], Any], payload: Any) -> None:
    """Pool initializer: its arguments reach the worker by fork, unpickled.

    Also starts the worker's watchdog.  A worker whose parent was killed
    (``kill -9`` of a run) has nobody to send it work or read its results,
    yet its siblings hold the task queue open, so it would wait on it
    forever."""
    global _WORKER_CALL
    _WORKER_CALL = (fn, payload)
    threading.Thread(
        target=_exit_with_parent, args=(os.getppid(),), daemon=True
    ).start()


def _exit_with_parent(parent: int) -> None:
    while os.getppid() == parent:
        time.sleep(0.5)
    os._exit(1)


def _call(item: Any) -> Any:
    if _WORKER_CALL is None:
        raise RuntimeError("fork_map worker state missing (pool misconfigured)")
    fn, payload = _WORKER_CALL
    return fn(payload, item)


def pool_mode(workers: int) -> str:
    """How :func:`fork_map` will run at this worker count: ``"fork"`` on a
    process pool, or ``"serial"`` in the calling process (a single worker,
    or a platform without the ``fork`` start method)."""
    if workers > 1 and "fork" in multiprocessing.get_all_start_methods():
        return "fork"
    return "serial"


def fork_map(
    fn: Callable[[_P, _T], _R], payload: _P, items: Iterable[_T], workers: int
) -> Generator[_R, None, None]:
    """``(fn(payload, item) for item in items)``, in order, across a pool.

    ``payload`` travels to the workers by fork inheritance (copy-on-write),
    so it may hold unpicklable objects such as scheme factories or live
    algorithm instances; each worker mutates only its own copy.  Items and
    results must pickle.  ``items`` is read lazily, at most
    :data:`DEFAULT_CHUNKS_PER_WORKER` per worker ahead of the consumer, and
    results are yielded in item order, so a consumer can fold and discard
    them one at a time; closing the generator early (a paused fleet run)
    cancels the items not yet started and shuts the pool down at that point
    instead of at GC time.  A worker that dies raises :class:`WorkerError`
    instead of leaving the consumer waiting for its result.

    Runs in the calling process when :func:`pool_mode` says ``"serial"`` —
    then ``fn`` sees the caller's own ``payload`` object.
    """
    if pool_mode(workers) == "serial":
        for item in items:
            yield fn(payload, item)
        return
    # Imported here: a serial run never pays for the executor's imports.
    from concurrent.futures import Future, ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    pool = ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_adopt,
        initargs=(fn, payload),
    )
    in_flight: Deque["Future[_R]"] = deque()
    returned = 0
    try:
        for item in items:
            in_flight.append(pool.submit(_call, item))
            if len(in_flight) == workers * DEFAULT_CHUNKS_PER_WORKER:
                yield in_flight.popleft().result()
                returned += 1
        while in_flight:
            yield in_flight.popleft().result()
            returned += 1
    except BrokenProcessPool as exc:
        raise WorkerError(
            f"a pool worker died before item {returned} returned a result "
            "(killed by a signal or out of memory, or os._exit in the chunk "
            "function); rerun with workers=1 to see the failure in this "
            "process, or give the run more memory"
        ) from exc
    finally:
        pool.shutdown(cancel_futures=True)


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

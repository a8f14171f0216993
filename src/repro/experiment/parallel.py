"""The one process pool in ``src/repro``, and the trial engine on it.

The paper's statistics rest on scale — 38.6 client-years of data from about
half a million streams — and a serial Python loop over sessions is the
bottleneck for anything paper-sized.  Sessions are independent by
construction (every draw is keyed on ``(config.seed, session_id)``; see
:func:`repro.experiment.harness.run_session`), so every result in the repo
is "run many pure sessions in id order and fold them":

1. work is cut into contiguous chunks (several per worker, for load
   balance — sessions vary a lot in length, Fig. 10);
2. :func:`fork_map` runs a chunk function over them — on a forked process
   pool, or in this process when ``workers <= 1`` or the platform cannot
   fork — and hands the results back **in order, lazily**;
3. the caller folds them: :func:`run_trial_parallel` merges
   :class:`~repro.experiment.harness.SessionShard` lists by session id,
   the fleet driver (:mod:`repro.fleet.runner`) commits sink deltas, the
   in-situ collection loop keeps the eligible streams.  Because the fold
   sees the same values in the same order at any worker count, the output
   is **bit-identical** to the in-process path.

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
import time
from dataclasses import dataclass
from functools import cached_property
from typing import (
    Any,
    Callable,
    Dict,
    Generator,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro import obs
from repro.abr.base import AbrAlgorithm
from repro.experiment.harness import (
    SessionShard,
    ThroughputReport,
    TrialConfig,
    TrialResult,
    WorkerTiming,
    assign_expt_ids,
    checked_scheme_names,
    merge_shards,
    run_session,
)
from repro.experiment.schemes import SchemeSpec

DEFAULT_CHUNKS_PER_WORKER = 4
"""Target number of chunks handed to each worker (load balancing: sessions
have heavy-tailed durations, so fine-grained chunks stop one long chunk from
straggling the whole pool)."""

_P = TypeVar("_P")
_T = TypeVar("_T")
_R = TypeVar("_R")


# ---------------------------------------------------------------------------
# The pool.
# ---------------------------------------------------------------------------
_WORKER_CALL: Optional[Tuple[Callable[[Any, Any], Any], Any]] = None
"""``(fn, payload)`` of the pool this process is a worker of.  Written once,
by :func:`_adopt` as a worker is born; every parent's copy stays ``None``.
Pool tasks are pickled by name, so a worker needs one fixed place to find
the (unpicklable) function and payload it inherited."""


def _adopt(fn: Callable[[Any, Any], Any], payload: Any) -> None:
    """Pool initializer: its arguments reach the worker by fork, unpickled."""
    global _WORKER_CALL
    _WORKER_CALL = (fn, payload)


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
    results must pickle.  Results are yielded as they become available, in
    item order, so a consumer can fold and discard them one at a time;
    closing the generator early (a paused fleet run) tears the pool down
    at that point instead of at GC time.

    Runs in the calling process when :func:`pool_mode` says ``"serial"`` —
    then ``fn`` sees the caller's own ``payload`` object.
    """
    if pool_mode(workers) == "serial":
        for item in items:
            yield fn(payload, item)
        return
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(
        processes=workers, initializer=_adopt, initargs=(fn, payload)
    ) as pool:
        yield from pool.imap(_call, items, chunksize=1)


@dataclass
class SessionPayload:
    """What a chunk function needs to simulate sessions: the
    :func:`fork_map` payload of the trial engine and (extended) of the
    fleet driver.

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


# ---------------------------------------------------------------------------
# The trial engine.
# ---------------------------------------------------------------------------
@dataclass
class _ChunkResult:
    """One chunk of sessions simulated by one worker."""

    worker: int
    shards: List[SessionShard]
    busy_s: float


def _run_chunk(
    payload: SessionPayload, session_ids: Sequence[int]
) -> _ChunkResult:
    """Simulate a contiguous chunk of sessions in this process."""
    algorithms = payload.algorithms
    # repro: allow-DET002(per-worker busy-time report; never enters results) repro: allow-PURE002(busy-time report only; never enters session results)
    start = time.perf_counter()
    shards = [
        run_session(
            payload.specs, payload.config, session_id, payload.expt_ids, algorithms
        )
        for session_id in session_ids
    ]
    return _ChunkResult(
        worker=os.getpid(),
        shards=shards,
        # repro: allow-DET002(per-worker busy-time report; never enters results) repro: allow-PURE002(busy-time report only; never enters session results)
        busy_s=time.perf_counter() - start,
    )


def plan_chunks(
    n_sessions: int, workers: int, chunk_size: Optional[int] = None
) -> List[range]:
    """Contiguous session-id chunks for the pool (deterministic)."""
    if n_sessions <= 0:
        raise ValueError("n_sessions must be positive")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if chunk_size is None:
        chunk_size = max(
            1, math.ceil(n_sessions / (workers * DEFAULT_CHUNKS_PER_WORKER))
        )
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    return [
        range(start, min(start + chunk_size, n_sessions))
        for start in range(0, n_sessions, chunk_size)
    ]


def run_trial_parallel(
    specs: Sequence[SchemeSpec],
    config: TrialConfig,
    workers: int,
    chunk_size: Optional[int] = None,
) -> TrialResult:
    """Run a randomized trial sharded across ``workers`` processes.

    The one trial engine: :meth:`RandomizedTrial.run` delegates here at
    every worker count.  The result — sessions, stream records, CONSORT
    counts, telemetry records and their order — is bit-identical at any
    ``workers`` and ``chunk_size``.  With one worker (or on a platform that
    cannot fork) the sessions run in this process as a single chunk and the
    throughput report says ``mode="serial"``.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    specs = list(specs)
    checked_scheme_names(specs)

    workers = min(workers, config.n_sessions)
    expt_ids = assign_expt_ids(specs, config.seed)
    mode = pool_mode(workers)
    chunks = plan_chunks(
        config.n_sessions,
        workers,
        chunk_size if mode == "fork" else config.n_sessions,
    )

    # repro: allow-DET002(throughput report timing; never enters results)
    start = time.perf_counter()
    chunk_results = list(
        fork_map(
            _run_chunk, SessionPayload(specs, config, expt_ids), chunks, workers
        )
    )
    wall = time.perf_counter() - start  # repro: allow-DET002(throughput report timing; never enters results)

    shards = [shard for result in chunk_results for shard in result.shards]
    per_worker: Dict[int, List[_ChunkResult]] = {}
    for result in chunk_results:
        per_worker.setdefault(result.worker, []).append(result)
    timings = [
        WorkerTiming(
            worker=worker,
            sessions=sum(len(r.shards) for r in results),
            streams=sum(
                len(shard.session.streams)
                for r in results
                for shard in r.shards
            ),
            busy_s=sum(r.busy_s for r in results),
            chunks=len(results),
        )
        for worker, results in sorted(per_worker.items())
    ]
    # repro: allow-DET002(throughput report timing; never enters results)
    merge_start = time.perf_counter()
    trial = merge_shards(specs, config, expt_ids, shards)
    merge_s = time.perf_counter() - merge_start  # repro: allow-DET002(throughput report timing; never enters results)
    trial.throughput = ThroughputReport(
        mode=mode,
        workers=workers,
        n_sessions=config.n_sessions,
        n_streams=sum(t.streams for t in timings),
        wall_s=wall,
        chunk_size=len(chunks[0]),
        merge_s=merge_s,
        per_worker=timings,
    )
    if trial.obs is not None:
        trial.obs.metrics.observe(
            "profile.trial_merge_s", merge_s, spec=obs.TIME_SPEC, wallclock=True
        )
    return trial

#!/usr/bin/env python3
"""The fleet benchmark: four workloads, end-to-end and per-layer metrics.

    python3 perf/run.py                      # every workload, both passes
    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perf/run.py --rebless            # rewrite reference_digests.json

``--trace 0`` measures the end-to-end metrics with no wrapper installed
anywhere; ``--trace 1`` makes one traced pass for the per-layer metrics.
Either way the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``, and the exit
code is non-zero when an output was wrong.  See ``perf/README.md``.

Every call into the program runs in a child process of this script, so
set-up (child start to the end of the warm-up) is timed from outside and
repeated; the benchmark is a closed loop with one caller: the child issues
the next call when the previous one has returned.  The only other processes
are the program's own pool workers, where a workload deploys on a pool.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
SRC = ROOT / "src"
WORK = PERF / ".work"
"""Scratch space for checkpoints, archives and registries; each call gets
a fresh directory and removes it.  Inside the checkout (and
git-ignored), not in the system's tmpdir: the benchmark may write nowhere
else."""

REFERENCE = PERF / "reference_digests.json"

SETUPS = 3
"""Set-ups per end-to-end run; ``setup_s`` is their median."""

DRAW_SECONDS = 4.0
MIN_DRAWS = 2
"""An end-to-end run measures one *draw* — the workload built from the
``k``-th word of ``--seed`` — per ``DRAW_SECONDS`` of ``--seconds``: the
workloads are sized so that a draw usually takes that long on this sandbox.
How many draws, and therefore which inputs, depends on the arguments alone,
not on how fast the host happens to be.

Draws, not repetitions of one call: under the stock heavy-tailed viewer the
cost of a stream-hour differs from one input to the next (how long the
sessions are, how many share a cell, which arm drew the long ones).  With
one input repeated for the whole run ``retrain_days`` read 0.09 to 0.15
apart between seeds (quartile distance over median) and ``cells_pool`` 0.09
to 0.16; as the median over four inputs in the same time, 0.05 to 0.06 and
0.09 to 0.12 (0.03 to 0.05 once its arms cost the same, see
``workloads.py``)."""
WARMUP_FRACTION = 0.125
WARMUP_SEED = 20200225
"""The warm-up is the same call at an eighth of the size: it fills lazy
caches and imports along the same code paths without costing a repetition.
Its seed is fixed: half a dozen sessions differ several-fold in work from
one seed to the next, and set-up time should not depend on ``--seed``."""

NOISE_LIMIT = 0.10
"""Calibration-loop drift beyond which a result is flagged ``noisy``."""

_clock = time.perf_counter


def load_bench() -> Dict[str, Any]:
    """``BENCHMARK.json``: the one place metric and workload names live."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def program_missing() -> bool:
    """True (after saying so) in a checkout without the program."""
    if (SRC / "repro").is_dir() and (ROOT / "BENCHMARK.json").is_file():
        return False
    print(f"no program to measure under {ROOT}", file=sys.stderr)
    return True


# ---------------------------------------------------------------------------
# Child side: set up, warm up, measure.
# ---------------------------------------------------------------------------
def spin() -> float:
    """Host seconds for one fixed unit of pure-Python work (about 6 ms).
    The simulator cannot change this number, so when it moves, the machine
    did: this sandbox runs the same unit 1.3x to 2.2x slower than its best,
    in spells of five to ten seconds, and process CPU time moves with the
    wall (no steal is visible to the guest).  No numpy here: the sampler
    below also fires while numpy is being imported."""
    start = _clock()
    acc = 0
    for i in range(120_000):
        acc += (i * i) % 7
    return _clock() - start


SPIN_REFERENCE_S = 0.0060
"""``spin()`` on the reference host: this sandbox at its fastest.  It fixes
the unit of the host-time metrics — seconds at that speed — and nothing
else: bounds are relative."""

SAMPLE_EVERY_S = 0.1


def calibrate() -> float:
    """Median host seconds of a fixed pure-Python + numpy unit over a
    25-unit burst, taken before and after a workload for ``host.calib_s``
    and the ``noisy`` flag."""
    import numpy as np

    def unit() -> float:
        start = _clock()
        spin()
        layer = np.full((64, 64), 0.01)
        for _ in range(150):
            layer = np.tanh(layer @ layer)
        return _clock() - start

    return statistics.median(unit() for _ in range(25))


class HostSpeed:
    """Samples the host's speed while this process works (a repetition, or
    set-up), so that host time can be read at one speed.

    A spell of slow host outlasts a repetition, so a median of repetitions
    does not filter it: the raw median of identical 20 s runs moved 17 %
    between seeds on one-arm ``fugu_scalar``.  Every 100 ms an interval
    timer interrupts the work for one ``spin()``.  The caller takes
    ``spent`` — the time spent spinning — out of the wall, and ``factor`` —
    the mean of reference/observed spin time over the evenly spaced samples
    — converts what is left into seconds at the reference host speed.

    Not used while a pool runs: with both cores busy the spin would compete
    with the program's own workers and measure them, not the host."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def _tick(self, signum: int, frame: Any) -> None:
        self.samples.append(spin())

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def spent(self) -> float:
        return sum(self.samples)

    @property
    def factor(self) -> float:
        if not self.samples:
            return 1.0
        return statistics.mean(SPIN_REFERENCE_S / s for s in self.samples)


@dataclass
class Repetition:
    """One timed call and what it returned."""

    expected: int = 0
    wall: float = 0.0
    host_factor: float = 1.0
    ok: bool = False
    sessions: int = 0
    sim_hours: float = 0.0
    digest: str = ""
    archive_bytes: int = 0
    edge_stats: Optional[dict] = None
    commit_times: List[float] = field(default_factory=list)


def repeat_once(
    case: Any,
    expected: int,
    workers: Optional[int] = None,
    root: Any = None,
    stamp_commits: bool = False,
    sample_host: bool = False,
) -> Repetition:
    """Run ``case`` once in a fresh work directory and check its output.

    ``root`` is the traced pass's root span, opened around the call.  An
    exception from the program is a failed repetition, not a crashed
    benchmark: the traceback goes to stderr and every session of the
    repetition counts as failed."""
    rep = Repetition(expected=expected)
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    on_commit = None
    if stamp_commits:
        on_commit = lambda next_id, sink: rep.commit_times.append(_clock())
    host = HostSpeed() if sample_host else None
    try:
        start = _clock()
        with root or nullcontext(), host or nullcontext():
            result = case.run(workdir, workers=workers, on_commit=on_commit)
        rep.wall = _clock() - start
        if host is not None:
            rep.wall -= host.spent
            rep.host_factor = host.factor
        rep.commit_times = [t - start for t in rep.commit_times]
        rep.sessions = result.sink.sessions
        rep.sim_hours = result.sink.sim_watch_s.value() / 3600.0
        rep.edge_stats = result.edge_stats
        rep.digest = case.digest(result, workdir)
        archive = Path(workdir) / "archive"
        if archive.is_dir():
            rep.archive_bytes = sum(
                p.stat().st_size for p in archive.iterdir() if p.is_file()
            )
        rep.ok = result.completed and rep.sessions == expected
    except Exception:
        traceback.print_exc()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return rep


def peak_rss_mb() -> float:
    """This process's peak RSS plus the largest reaped child's: a pool
    worker of the deployed repetition, where the workload has one."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0  # Linux reports KiB


def quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def check_digests(
    reps: List[Repetition], reference: Optional[str]
) -> None:
    """Fail every repetition whose dump differs from the first one's, or
    (at the blessed seed and size) from the checked-in reference."""
    expected = reference if reference is not None else reps[0].digest
    for rep in reps:
        if rep.digest != expected:
            if rep.ok:
                print(
                    f"digest mismatch: got {rep.digest}, expected {expected}",
                    file=sys.stderr,
                )
            rep.ok = False


def run_child(args: argparse.Namespace, emit: Callable[[dict], None]) -> None:
    """Set up, warm up, report ``ready``; then measure and report ``result``."""
    start = _clock()
    with HostSpeed() as host:
        for path in (str(SRC), str(PERF)):
            if path not in sys.path:
                sys.path.insert(0, path)
        import workloads

        imported = _clock()
        build = workloads.BUILDERS[args.workload]
        draws = max(MIN_DRAWS, round(args.seconds / DRAW_SECONDS))
        cases = [build(args.seed, args.scale, draw) for draw in range(draws)]
        warmup = build(WARMUP_SEED, args.scale * WARMUP_FRACTION)
        warmup_expected = warmup.expected_sessions()
        built = _clock()
        warm = repeat_once(warmup, warmup_expected, workers=1)
        warmed = _clock()
    setup = {
        "setup.import_s": imported - start,
        "setup.build_s": built - imported,
        "setup.warmup_s": warmed - built,
    }
    emit(
        {
            "event": "ready",
            "ok": warm.ok,
            "spent": host.spent,
            "host_factor": host.factor,
            **setup,
        }
    )
    if args.child == "setup":
        return

    reference = None
    if args.seed == workloads.DEFAULT_SEED and args.scale == 1.0:
        reference = json.loads(REFERENCE.read_text())[args.workload]
    calib_before = calibrate()
    if args.child == "measure":
        values, info, reps = measure_end_to_end(cases, reference)
    else:
        values, info, reps = measure_layers(args, cases[0], reference)
        values.update(setup)
    calib_after = calibrate()
    values["host.calib_s"] = statistics.median([calib_before, calib_after])
    drift = abs(calib_after - calib_before) / min(calib_after, calib_before)
    info["noisy"] = drift > NOISE_LIMIT
    info["calib_drift"] = drift
    info["digest"] = reps[0].digest
    emit(
        {
            "event": "result",
            "values": values,
            "info": info,
            "attempted": sum(rep.expected for rep in reps),
            "failed": sum(rep.expected for rep in reps if not rep.ok),
        }
    )


def measure_end_to_end(cases: List[Any], reference: Optional[str]) -> tuple:
    """One untraced one-process repetition of every draw; the timing is the
    median draw's, in seconds at the reference host speed.

    Timed at workers=1 also where the workload deploys on a pool: with both
    cores busy the host's speed cannot be sampled, and raw walls of
    identical 2-worker calls read 5.8 s and 7.3 s back to back on this
    sandbox (0.19 between seeds after a median of repetitions).  Draw 0 then
    runs once more, as deployed (on the pool where the workload has one):
    it must return the same dump, and its workers' memory counts in
    ``peak_rss_mb``.  How the pool scales is the traced run's
    ``fleet.pool.*``."""
    draws = [
        repeat_once(case, case.expected_sessions(), workers=1, sample_host=True)
        for case in cases
    ]
    again = repeat_once(cases[0], cases[0].expected_sessions())
    check_digests([draws[0], again], reference)
    walls = [rep.wall * rep.host_factor for rep in draws]
    done = [(rep, wall) for rep, wall in zip(draws, walls) if wall > 0]
    rates = [rep.sim_hours / wall for rep, wall in done] or [0.0]
    values = {
        "sim_hours_per_s": statistics.median(rates),
        "peak_rss_mb": peak_rss_mb(),
    }
    q1, _, q3 = quartiles(rates)
    reps = draws + [again]
    info = {
        "draws": len(draws),
        "draw_rates": rates,
        "rate_q1": q1,
        "rate_q3": q3,
        "wall_s": statistics.median(walls),
        "raw_wall_s": statistics.median(rep.wall for rep in draws),
        "host_speed": statistics.median(rep.host_factor for rep in draws),
        "sessions": sum(rep.sessions for rep in draws),
        "sessions_per_s": statistics.median(
            [rep.sessions / wall for rep, wall in done] or [0.0]
        ),
        "sim_hours": sum(rep.sim_hours for rep in draws),
        "again_wall_s": again.wall,
        "failed_share": sum(1 for rep in reps if not rep.ok) / len(reps),
    }
    return values, info, reps


def measure_layers(
    args: argparse.Namespace, case: Any, reference: Optional[str]
) -> tuple:
    """One traced pass at workers=1 (spans do not cross ``fork``) between
    two untraced ones, whose mean is the base of ``trace.overhead``; plus —
    where the workload uses a pool — one untraced pooled pass stamped
    through the public ``on_commit`` hook."""
    import seams
    from spans import Tracer

    expected = case.expected_sessions()
    before = repeat_once(case, expected, workers=1)
    tracer = Tracer()
    with seams.installed(tracer, case.specs):
        traced = repeat_once(
            case, expected, workers=1, root=tracer.span(seams.ROOT_SPAN)
        )
    after = repeat_once(case, expected, workers=1)
    reps = [before, traced, after]
    untraced_wall = (before.wall + after.wall) / 2.0

    values = seams.layer_metrics(tracer, traced.sessions)
    values["trace.overhead"] = traced.wall / untraced_wall
    values["data.archive.bytes"] = traced.archive_bytes
    edge = traced.edge_stats or {}
    probes = edge.get("cache_hits", 0) + edge.get("cache_misses", 0)
    values["edge.cache.hit_ratio"] = (
        edge.get("cache_hits", 0) / probes if probes else 0.0
    )
    values["edge.shared_cell_share"] = (
        edge["shared_cells"] / edge["cells"] if edge.get("cells") else 0.0
    )

    pool = dict.fromkeys(
        ("first_commit_s", "speedup", "efficiency", "commit_gap_p90_ms"), 0.0
    )
    if case.workers > 1:
        pooled = repeat_once(case, expected, stamp_commits=True)
        reps.append(pooled)
        stamps = pooled.commit_times
        gaps = [b - a for a, b in zip(stamps, stamps[1:])]
        pool["first_commit_s"] = stamps[0] if stamps else 0.0
        pool["commit_gap_p90_ms"] = 1e3 * seams.percentile(gaps, 0.9)
        pool["speedup"] = untraced_wall / pooled.wall if pooled.wall else 0.0
        pool["efficiency"] = pool["speedup"] / case.workers
    values.update({f"fleet.pool.{key}": value for key, value in pool.items()})

    check_digests(reps, reference)
    info = {
        "traced_wall_s": traced.wall,
        "untraced_wall_s": untraced_wall,
        "spans": len(tracer.spans),
    }
    if args.spans_out:
        Path(args.spans_out).write_text(json.dumps(tracer.to_rows()))
    return values, info, reps


# ---------------------------------------------------------------------------
# Parent side: spawn children, time set-up from outside, report.
# ---------------------------------------------------------------------------
def spawn_child(
    mode: str, args: argparse.Namespace, spans_out: Optional[str] = None
) -> Dict[str, Any]:
    """Run one child to completion; returns its events plus ``setup_s``,
    the host time from spawn to the child's ``ready`` line — less the
    child's host-speed spins, at the reference host speed — and the same
    uncorrected as ``raw_setup_s``."""
    command = [
        sys.executable,
        str(PERF / "run.py"),
        "--child", mode,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--scale", repr(args.scale),
    ]
    if spans_out:
        command += ["--spans-out", spans_out]
    events: Dict[str, Any] = {}
    start = _clock()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
        assert child.stdout is not None
        for line in child.stdout:
            try:
                event = json.loads(line)
                kind = event["event"]
            except (ValueError, TypeError, KeyError):
                sys.stderr.write(line)  # not ours: pass the program's print on
                continue
            if kind == "ready":
                raw = _clock() - start
                events["raw_setup_s"] = raw
                events["setup_s"] = (raw - event["spent"]) * event["host_factor"]
            events[kind] = event
    if child.returncode != 0:
        raise RuntimeError(f"benchmark child exited with {child.returncode}")
    return events


def measure(
    args: argparse.Namespace, spans_out: Optional[str] = None
) -> Dict[str, Any]:
    """One benchmark run of one workload: the values of every declared
    metric of the chosen pass, with units, and the correctness counts."""
    bench = load_bench()
    if args.seconds is None:
        args.seconds = float(bench["run_seconds"])
    if args.trace:
        events = spawn_child("trace", args, spans_out)
        declared = bench["per_layer"]
        setups_ok = events["ready"]["ok"]
    else:
        setups = [spawn_child("setup", args) for _ in range(SETUPS - 1)]
        events = spawn_child("measure", args)
        setups.append(events)
        events["result"]["values"]["setup_s"] = statistics.median(
            s["setup_s"] for s in setups
        )
        events["result"]["info"]["setup_runs_s"] = [s["setup_s"] for s in setups]
        events["result"]["info"]["raw_setup_s"] = statistics.median(
            s["raw_setup_s"] for s in setups
        )
        declared = bench["end_to_end"]
        setups_ok = all(s["ready"]["ok"] for s in setups)
    result = events["result"]
    values = result["values"]
    return {
        "correct": result["failed"] == 0 and setups_ok,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared
        },
        "info": result["info"],
    }


def print_metrics(workload: str, outcome: Dict[str, Any]) -> None:
    for name, metric in outcome["metrics"].items():
        print(f"{workload:<13} {name:<36} {metric['value']:>14.6g} {metric['unit']}")
    info = outcome["info"]
    notes = ", ".join(
        f"{key}={value:.4g}" if isinstance(value, float) else f"{key}={value}"
        for key, value in info.items()
        if key != "digest" and not isinstance(value, list)
    )
    print(f"{workload:<13} ({notes})")
    if info["noisy"]:
        print(
            f"{workload:<13} NOISY: the calibration loop moved "
            f"{info['calib_drift']:.0%} during this run; the machine was busy"
        )


def run_suite(args: argparse.Namespace) -> Dict[str, Any]:
    """Every workload (or ``--workload`` alone), both passes; the structure
    ``--out`` writes."""
    names = [w["name"] for w in load_bench()["workloads"]]
    if args.workload:
        names = [args.workload]
    suite: Dict[str, Any] = {}
    for name in names:
        suite[name] = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            one = argparse.Namespace(**{**vars(args), "workload": name, "trace": trace})
            spans_out = (
                f"{args.out}.{name}.spans.json" if args.out and trace else None
            )
            suite[name][key] = measure(one, spans_out)
            print_metrics(name, suite[name][key])
    return suite


def rebless(args: argparse.Namespace) -> None:
    """Rewrite the reference digests from one repetition per workload at
    the default seed (after a deliberate change to the simulation)."""
    sys.path[:0] = [str(SRC), str(PERF)]
    import workloads

    digests = {}
    for name, build in workloads.BUILDERS.items():
        case = build(workloads.DEFAULT_SEED, 1.0)
        rep = repeat_once(case, case.expected_sessions())
        if not rep.ok:
            sys.exit(f"{name}: the call failed; nothing blessed")
        digests[name] = rep.digest
        print(f"{name} {rep.digest}")
    REFERENCE.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=20200225)
    parser.add_argument(
        "--seconds", type=float,
        help="end-to-end measuring time (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--out", help="write every result to this JSON file")
    parser.add_argument("--rebless", action="store_true")
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="multiply every workload's session count (tests use 0.05)",
    )
    parser.add_argument("--child", choices=("setup", "measure", "trace"))
    parser.add_argument("--spans-out")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if program_missing():
        return 2
    if args.child:
        run_child(args, lambda event: print(json.dumps(event), flush=True))
        return 0
    if args.rebless:
        rebless(args)
        return 0
    if args.workload is not None and args.trace is not None:
        outcome = measure(args, args.out and f"{args.out}.spans.json")
        print_metrics(args.workload, outcome)
        outcome.pop("info")
        print(json.dumps(outcome))
        return 0 if outcome["correct"] else 1
    suite = run_suite(args)
    if args.out:
        Path(args.out).write_text(json.dumps(suite, indent=2, sort_keys=True))
    correct = all(
        outcome["correct"] for entry in suite.values() for outcome in entry.values()
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

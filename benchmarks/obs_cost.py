"""Wall time of each benchmark workload with observability off and on.

Builds draw 0 of every workload in ``perf/workloads.py`` at the default
seed, runs it once to warm up, then times ``--pairs`` alternating pairs
(off then on, on then off, ...) and prints the median time of each side and
the median over pairs of off/on — the observed run's rate as a share of
the unobserved run's (1.00 means observing is free).  A single-process
workload's time is host-corrected the way ``perf/run.py`` corrects it
(``HostSpeed``: spins sampled every 100 ms, their time taken out, the rest
read at the reference host speed); a pool workload's is plain wall time.

    PYTHONPATH=src python benchmarks/obs_cost.py --scale 1 --pairs 5
"""

from __future__ import annotations

import argparse
import statistics
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perf")]

import workloads  # noqa: E402
from run import HostSpeed  # noqa: E402


def run(case: "workloads.Case", observed: bool) -> float:
    trial = replace(case.config.trial, observability=observed)
    case = replace(case, config=replace(case.config, trial=trial))
    with tempfile.TemporaryDirectory() as workdir:
        if case.workers > 1:
            start = time.perf_counter()
            case.run(workdir)
            return time.perf_counter() - start
        with HostSpeed() as host:
            start = time.perf_counter()
            case.run(workdir)
            wall = time.perf_counter() - start
        return (wall - host.spent) * host.factor


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument(
        "--workloads", nargs="+", default=sorted(workloads.BUILDERS)
    )
    args = parser.parse_args()
    print(f"{'workload':<14}{'off s':>8}{'on s':>8}{'on/off rate':>13}")
    for name in args.workloads:
        case = workloads.BUILDERS[name](workloads.DEFAULT_SEED, args.scale)
        run(case, observed=False)
        off, on = [], []
        for pair in range(args.pairs):
            if pair % 2:
                on.append(run(case, observed=True))
                off.append(run(case, observed=False))
            else:
                off.append(run(case, observed=False))
                on.append(run(case, observed=True))
        ratio = statistics.median(a / b for a, b in zip(off, on))
        print(
            f"{name:<14}{statistics.median(off):>8.3f}"
            f"{statistics.median(on):>8.3f}{ratio:>13.2f}",
            flush=True,
        )


if __name__ == "__main__":
    main()

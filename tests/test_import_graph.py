"""Guard: the way to a session imports numpy and the standard library.

DESIGN.md, "Imports at the use site": a module on the fleet's import path
imports numpy and the standard library at module scope and nothing else —
every ``python -m repro …`` child, pool worker and benchmark child pays the
import graph before its first session.  A fresh interpreter imports the
packages, runs a small fleet to its dump (the sinks' intervals at their
default level) and summarises a list-based trial's streams; ``scipy`` must
not have been loaded by then, and must appear once a non-default level asks
``normal_z`` for it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_SCRIPT = r"""
import json
import sys
from dataclasses import replace

at_start = set(sys.modules)

import repro.analysis
import repro.edge
import repro.experiment
import repro.fleet
import repro.__main__
from repro.abr.bba import BBA
from repro.abr.mpc import MpcHm
from repro.analysis.summary import summarize_scheme
from repro.experiment.harness import RandomizedTrial
from repro.experiment.presets import smoke_trial_config
from repro.experiment.schemes import SchemeSpec
from repro.fleet import FleetConfig, WorkloadConfig, run_fleet


def third_party():
    # Top-level packages loaded from a site-packages directory since the
    # interpreter came up (which leaves out what a .pth file pulled in).
    found = set()
    for name, module in list(sys.modules.items()):
        origin = getattr(module, "__file__", None) or ""
        if name not in at_start and (
            "site-packages" in origin or "dist-packages" in origin
        ):
            found.add(name.partition(".")[0])
    return sorted(found)


def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")


specs = [
    SchemeSpec(
        name=name, control="classical", predictor="n/a",
        optimization_goal="n/a", how_trained="n/a", factory=factory,
    )
    for name, factory in (("bba", BBA), ("mpc_hm", MpcHm))
]
config = FleetConfig(
    workload=WorkloadConfig(days=0.01, sessions_per_hour=40.0, seed=5),
    trial=smoke_trial_config(seed=11),
    chunk_sessions=4,
)
dump = run_fleet(specs, config).to_dump_dict()
trial = RandomizedTrial(specs, replace(config.trial, n_sessions=8)).run()
rows = [
    summarize_scheme(
        spec.name, trial.streams_for(spec.name),
        session_durations=trial.session_durations_for(spec.name),
        n_resamples=50,
    )
    for spec in specs
]
print(json.dumps({
    "sessions": dump["next_session_id"],
    "rows": len(rows),
    "third_party": third_party(),
    "scipy": scipy_modules(),
}), flush=True)

from repro.analysis.stats import normal_z

print(json.dumps({
    "z_90": normal_z(0.9), "scipy_stats": "scipy.stats" in sys.modules,
}))
"""


def test_a_fleet_run_to_its_dump_imports_numpy_and_nothing_else():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        env=env, capture_output=True, text=True, timeout=120,
    )
    lines = done.stdout.splitlines()
    assert lines, done.stderr
    run = json.loads(lines[0])
    assert run["sessions"] > 0 and run["rows"] == 2
    assert run["scipy"] == []
    assert run["third_party"] == ["numpy"]
    # The one use site: a level other than 95 % imports scipy.stats there.
    assert done.returncode == 0, done.stderr
    asked = json.loads(lines[1])
    assert asked["scipy_stats"] is True
    assert 1.64 < asked["z_90"] < 1.65

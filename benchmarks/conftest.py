"""Shared fixtures for the figure-reproduction benchmarks.

The primary experiment (a blinded RCT over five schemes) backs Figures 1, 4,
8, 9, 10 and A1, so it is run once per pytest session and cached on disk;
likewise the trained models (Fugu's in-situ TTP, the emulation-trained TTP,
and the Pensieve policy).

Scale knobs (environment variables):

* ``REPRO_BENCH_SESSIONS`` — randomized sessions in the primary trial
  (default 1200; the paper has 337k, so absolute uncertainties here are
  wider, as the statistical benches themselves demonstrate).
* ``REPRO_BENCH_FRESH=1`` — ignore the on-disk cache.
"""

import os
import pickle
from pathlib import Path

import pytest

CACHE_DIR = Path(__file__).parent / ".cache"
BENCH_SESSIONS = int(os.environ.get("REPRO_BENCH_SESSIONS", "1200"))
FRESH = os.environ.get("REPRO_BENCH_FRESH", "0") == "1"


def _cached(name, builder):
    """Build-or-load a pickled artifact keyed by name and scale."""
    CACHE_DIR.mkdir(exist_ok=True)
    path = CACHE_DIR / f"{name}-s{BENCH_SESSIONS}.pkl"
    if path.exists() and not FRESH:
        with open(path, "rb") as f:
            return pickle.load(f)
    artifact = builder()
    with open(path, "wb") as f:
        pickle.dump(artifact, f)
    return artifact


@pytest.fixture(scope="session")
def fugu_predictor():
    """Fugu's TTP, trained in situ (bootstrap on BBA/MPC, then on-policy)."""

    def build():
        from repro.experiment.insitu import (
            InSituTrainingConfig,
            train_fugu_in_situ,
        )

        return train_fugu_in_situ(
            InSituTrainingConfig(
                bootstrap_streams=120,
                iteration_streams=120,
                iterations=2,
                epochs=12,
                seed=3,
            )
        )

    return _cached("fugu-ttp", build)


@pytest.fixture(scope="session")
def pensieve_model():
    """Pensieve policy trained with RL in the chunk simulator."""

    def build():
        from repro.experiment.insitu import train_pensieve_in_simulation

        return train_pensieve_in_simulation(episodes=800, seed=11)

    return _cached("pensieve", build)


@pytest.fixture(scope="session")
def emulation_environment():
    from repro.emulation.env import EmulationEnvironment

    return EmulationEnvironment(n_traces=25, seed=9)


@pytest.fixture(scope="session")
def emulation_fugu_predictor(emulation_environment):
    """Emulation-trained Fugu's TTP (Fig. 11)."""

    def build():
        from repro.emulation.env import train_fugu_in_emulation

        return train_fugu_in_emulation(emulation_environment, epochs=12, seed=5)

    return _cached("fugu-emulation-ttp", build)


@pytest.fixture(scope="session")
def primary_trial(fugu_predictor, pensieve_model):
    """The primary randomized experiment (Fig. 1/4/8/9/10/A1)."""

    def build():
        from repro.experiment.harness import RandomizedTrial, TrialConfig
        from repro.experiment.schemes import primary_experiment_schemes

        specs = primary_experiment_schemes(fugu_predictor, pensieve_model)
        config = TrialConfig(n_sessions=BENCH_SESSIONS, seed=42)
        return RandomizedTrial(specs, config).run()

    return _cached("primary-trial", build)


@pytest.fixture(scope="session")
def scheme_summaries(primary_trial):
    """Fig. 1 rows for every scheme in the primary trial."""
    from repro.analysis.summary import summarize_scheme

    summaries = {}
    for name in primary_trial.scheme_names:
        streams = primary_trial.streams_for(name)
        if streams:
            summaries[name] = summarize_scheme(
                name,
                streams,
                primary_trial.session_durations_for(name),
                n_resamples=500,
                seed=1,
            )
    return summaries

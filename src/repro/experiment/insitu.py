"""In-situ training orchestration — the paper's central recipe.

"The simplest way to obtain representative training data is to learn in
situ, on real data from the actual deployment environment" (§1). On Puffer,
Fugu's TTP is trained on telemetry from the deployment itself and retrained
daily. This module reproduces that loop against the simulated deployment:

1. *bootstrap*: run the deployment with the pre-Fugu schemes (BBA, MPC-HM)
   and collect telemetry;
2. *train*: fit the TTP on the collected (features, transmission-time)
   pairs;
3. *iterate*: deploy Fugu itself, collect on-policy telemetry, retrain —
   mirroring the daily retraining cycle in which most data comes from the
   environment Fugu actually operates in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.abr.base import AbrAlgorithm
from repro.abr.bba import BBA
from repro.abr.mpc import MpcHm
from repro.abr.pensieve.model import ActorCritic
from repro.abr.pensieve.train import (
    PensieveTrainer,
    PensieveTrainingConfig,
    SimpleChunkEnv,
)
from repro.core.fugu import Fugu
from repro.core.train import TtpTrainer, build_ttp_datasets
from repro.core.ttp import TransmissionTimePredictor, TtpConfig
from repro.experiment import parallel
from repro.experiment.consort import eligible_streams
from repro.experiment.harness import TrialConfig
from repro.media.encoder import VbrEncoder
from repro.media.source import DEFAULT_CHANNELS, VideoSource
from repro.net.path import PathSampler
from repro.streaming.session import StreamResult
from repro.streaming.simulator import simulate_stream
from repro.traces.fcc import generate_fcc_dataset

import numpy as np

# Domain-separation constants for the per-stream RNG families.  Each
# independent consumer of the trial seed folds a distinct constant into a
# tuple seed so no two families can ever draw the same stream, whatever
# the stream index ``i`` is (this replaced ``seed * 1_000_003 + i`` being
# reused verbatim for media, path, *and* connection — three identical
# streams).  The change is an intentional break in collected traces:
# telemetry gathered before it is not bit-comparable with telemetry after.
_MEDIA_STREAM = 0x3ED1A
_PATH_STREAM = 0x9A7B5
_CONN_STREAM = 0xC0881

# Candidate-training stream families for train_pensieve_in_simulation.
_ENV_STREAM = 0xE27
_POLICY_STREAM = 0x901C
_TRAIN_STREAM = 0x7217
_HOLDOUT_STREAM = 0x801D


def _collect_one_stream(payload, i: int) -> StreamResult:
    """One round-robin collection stream — pure in ``(payload, i)``.

    The :func:`~repro.experiment.parallel.fork_map` chunk function of the
    collection loop: ``payload`` carries the (possibly unpicklable)
    algorithm instances by fork inheritance, so each worker process
    operates on its own copies.
    """
    algorithms, population, watch_time_s, seed = payload
    algorithm = algorithms[i % len(algorithms)]
    rng = np.random.default_rng((seed, _MEDIA_STREAM, i))
    channel = DEFAULT_CHANNELS[i % len(DEFAULT_CHANNELS)]
    source = VideoSource(channel, rng=rng)
    encoder = VbrEncoder(rng=rng)
    path = PathSampler(
        population=population, seed=(seed, _PATH_STREAM, i)
    ).next_path()
    connection = path.connect(seed=(seed, _CONN_STREAM, i))
    return simulate_stream(
        encoder.stream(source),
        algorithm,
        connection,
        watch_time_s=watch_time_s,
        stream_id=i,
    )


def deploy_and_collect(
    algorithms: Sequence[AbrAlgorithm],
    n_streams: int,
    seed: int,
    config: Optional[TrialConfig] = None,
    watch_time_s: float = 240.0,
    workers: int = 1,
) -> List[StreamResult]:
    """Run a round-robin deployment of ``algorithms`` and return the
    eligible streams — the telemetry-collection half of the in-situ loop.

    A lighter-weight path than the full RCT harness: every stream is a
    "view" of fixed length so the collected dataset is dense.  Streams are
    seeded independently, so with ``workers > 1`` they are sharded across a
    process pool (each worker operating on fork-inherited copies of the
    algorithms) with results identical to the serial loop.
    """
    if not algorithms:
        raise ValueError("need at least one algorithm")
    if n_streams <= 0:
        raise ValueError("n_streams must be positive")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    population = config.population if config is not None else TrialConfig().population
    payload = (list(algorithms), population, watch_time_s, seed)
    results = parallel.fork_map(
        _collect_one_stream, payload, range(n_streams), min(workers, n_streams)
    )
    return eligible_streams(list(results))


@dataclass
class InSituTrainingConfig:
    """Knobs for the bootstrap-and-iterate training loop."""

    bootstrap_streams: int = 120
    iteration_streams: int = 120
    iterations: int = 2
    epochs: int = 15
    watch_time_s: float = 240.0
    ttp_config: TtpConfig = field(default_factory=TtpConfig)
    seed: int = 0
    workers: int = 1
    """Worker processes for the telemetry-collection phases (the training
    phases are already vectorized); results are identical at any count."""


def train_fugu_in_situ(
    config: InSituTrainingConfig = InSituTrainingConfig(),
    trial_config: Optional[TrialConfig] = None,
) -> TransmissionTimePredictor:
    """Produce a deployment-trained TTP (the "Fugu" arm of the experiments).

    Returns the trained predictor; wrap it with
    :class:`repro.core.fugu.Fugu` to obtain the scheme.
    """
    predictor = TransmissionTimePredictor(config.ttp_config, seed=config.seed)
    bootstrap_schemes: List[AbrAlgorithm] = [BBA(), MpcHm()]
    streams = deploy_and_collect(
        bootstrap_schemes,
        config.bootstrap_streams,
        seed=config.seed,
        config=trial_config,
        watch_time_s=config.watch_time_s,
        workers=config.workers,
    )
    all_streams = list(streams)
    predictor.calibrate_tail(all_streams)
    trainer = TtpTrainer(predictor, epochs=config.epochs, seed=config.seed)
    trainer.train(build_ttp_datasets(all_streams, predictor))
    for iteration in range(config.iterations):
        fugu = Fugu(predictor)
        on_policy = deploy_and_collect(
            [fugu],
            config.iteration_streams,
            seed=config.seed + 7919 * (iteration + 1),
            config=trial_config,
            watch_time_s=config.watch_time_s,
            workers=config.workers,
        )
        all_streams.extend(on_policy)
        predictor.calibrate_tail(all_streams)
        trainer.train(build_ttp_datasets(all_streams, predictor))
    return predictor


def _greedy_simulation_score(
    model: ActorCritic, traces, chunks_per_episode: int, seed
) -> float:
    """Mean greedy-episode QoE of a policy on held-out simulator traces."""
    env = SimpleChunkEnv(traces, chunks_per_episode=chunks_per_episode, seed=seed)
    total = 0.0
    n_episodes = max(len(traces), 10)
    for _ in range(n_episodes):
        state = env.reset()
        done = False
        while not done:
            state, reward, done = env.step(model.act(state, greedy=True))
            total += reward
    return total / n_episodes


def train_pensieve_in_simulation(
    episodes: int = 800,
    n_traces: int = 40,
    seed: int = 0,
    chunks_per_episode: int = 100,
    n_candidates: int = 6,
) -> ActorCritic:
    """Train the Pensieve policy the way the original was trained: RL in a
    chunk-level simulator over broadband-style traces (§3.3).

    The trace band spans the full 12 Mbit/s mahimahi cap. Policy-gradient
    training is high-variance across seeds, and the paper reports that the
    Pensieve authors' recommended procedure was to train several multi-video
    models (with entropy tuning) and select the best ("We wrote an automated
    tool to train 6 different models ... then selected the model with the
    best performance"). We reproduce that: ``n_candidates`` seeds are
    trained and the best by greedy QoE on held-out simulator traces wins.
    """
    if n_candidates <= 0:
        raise ValueError("need at least one candidate")
    from repro.traces.fcc import FccTraceConfig

    trace_config = FccTraceConfig(max_mean_bps=12e6)
    traces = generate_fcc_dataset(n_traces, trace_config, seed=seed)
    # Selection mirrors the authors testing candidates "manually over a few
    # real networks" — which are far faster than the FCC training band, so
    # the holdout draws from the upper part of the range.
    holdout_config = FccTraceConfig(min_mean_bps=2e6, max_mean_bps=12e6)
    holdout = generate_fcc_dataset(
        # repro: allow-SEED001(fixed offset from the training corpus seed; reseeding regenerates the holdout traces and changes which Pensieve candidate is selected)
        max(n_traces // 2, 5), holdout_config, seed=seed + 424_242
    )
    best_model: Optional[ActorCritic] = None
    best_score = -np.inf
    for candidate in range(n_candidates):
        # One tuple seed per RNG family, domain-separated by a stream
        # constant: the env, the policy init, the trainer, and the holdout
        # scorer previously all consumed the *same* ``seed + 1000 *
        # candidate`` value and therefore drew identical streams.
        env = SimpleChunkEnv(
            traces,
            chunks_per_episode=chunks_per_episode,
            seed=(seed, _ENV_STREAM, candidate),
        )
        model = ActorCritic(seed=(seed, _POLICY_STREAM, candidate))
        PensieveTrainer(
            model,
            env,
            PensieveTrainingConfig(
                episodes=episodes, seed=(seed, _TRAIN_STREAM, candidate)
            ),
        ).train()
        score = _greedy_simulation_score(
            model,
            holdout,
            chunks_per_episode,
            seed=(seed, _HOLDOUT_STREAM, candidate),
        )
        if score > best_score:
            best_score = score
            best_model = model
    assert best_model is not None
    return best_model

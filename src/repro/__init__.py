"""repro — reproduction of "Learning in situ: a randomized experiment in
video streaming" (Yan et al., NSDI 2020; the Puffer study and the Fugu ABR
algorithm).

Subpackages
-----------
``repro.learn``
    From-scratch numpy neural-network library (layers, losses, optimizers,
    trainer) standing in for PyTorch.
``repro.media``
    Video substrate: the ten-rung encoding ladder, VBR encoder model, SSIM.
``repro.net``
    Network substrate: heavy-tailed link models, fluid TCP with BBR/CUBIC
    congestion control, ``tcp_info`` telemetry.
``repro.traces``
    FCC-style synthetic traces and mahimahi trace format I/O.
``repro.streaming``
    Chunk-level streaming simulator: playback buffer, stall accounting,
    open-data telemetry.
``repro.abr``
    The comparison schemes: BBA, MPC-HM, RobustMPC-HM, Pensieve (numpy A2C),
    plus rate-based and BOLA baselines.
``repro.core``
    Fugu: the Transmission Time Predictor, stochastic MPC controller, QoE
    objective, in-situ training pipeline, and every §4.6 ablation.
``repro.experiment``
    The blinded randomized controlled trial harness with CONSORT accounting
    and viewer-behaviour models.
``repro.analysis``
    Bootstrap CIs, weighted standard errors, CCDFs, detectability analysis.
``repro.emulation``
    The mahimahi/FCC emulation environment of the Fig. 11 study.
``repro.obs``
    Zero-dependency observability: metrics registry (counters, gauges,
    exactly-mergeable log-binned histograms), structured event tracing, and
    ``@timed``/``span()`` profiling hooks — no-op-cheap when disabled.

Quick start
-----------
>>> from repro.core.fugu import Fugu
>>> from repro.experiment.insitu import InSituTrainingConfig, train_fugu_in_situ
>>> predictor = train_fugu_in_situ(InSituTrainingConfig(
...     bootstrap_streams=12, iteration_streams=12, iterations=1, epochs=3))
>>> fugu = Fugu(predictor)
"""

__version__ = "1.0.0"

__all__ = [
    "learn",
    "media",
    "net",
    "traces",
    "streaming",
    "abr",
    "core",
    "experiment",
    "analysis",
    "emulation",
    "obs",
]

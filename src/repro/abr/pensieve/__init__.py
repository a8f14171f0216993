"""Pensieve — RL-based ABR (Mao et al., SIGCOMM 2017 [23]).

Unlike Fugu, Pensieve's neural network makes *decisions* rather than
predictions, so it must be trained with reinforcement learning against a
training environment (§2). Following the paper's deployment notes (§3.3):

* the policy optimizes a bitrate-based QoE (it "considers the average
  bitrate of each Puffer stream", not per-chunk sizes or SSIM);
* it is trained in simulation over FCC-style traces (the original used the
  FCC and Norway trace sets in a chunk-level simulator);
* the multi-video model treats the stream as never-ending (the paper sets
  ``video_num_chunks`` to 24 hours of video).

The actor-critic (A2C) trainer lives in :mod:`repro.abr.pensieve.train`;
the deployable :class:`Pensieve` ABR wrapper in
:mod:`repro.abr.pensieve.policy`.
"""

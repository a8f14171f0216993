"""ABR algorithms evaluated in the Puffer study (Fig. 5), plus extensions.

* :class:`BBA` — buffer-based control [17], the "simple" scheme that proved
  hard to beat in the wild;
* :class:`MpcHm` / :class:`RobustMpcHm` — control-theoretic MPC with a
  harmonic-mean throughput predictor [43];
* :class:`Pensieve` — reinforcement-learned policy trained in simulation
  [23];
* :class:`RateBased` and :class:`Bola` — additional classical baselines;
* :class:`Cs2pMpc` — CS2P-style discrete-state HMM throughput prediction
  feeding the shared MPC controller [38];
* :class:`OboeRobustMpc` — Oboe-style per-network-state auto-tuning of
  RobustMPC [2].

Fugu itself lives in :mod:`repro.core` since it is the paper's contribution.
"""

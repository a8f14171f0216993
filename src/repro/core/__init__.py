"""Fugu — the paper's primary contribution (§4).

A classical stochastic MPC controller (:mod:`repro.core.controller`), the
Eq. 1 QoE objective (:mod:`repro.core.qoe`), the learned Transmission Time
Predictor (:mod:`repro.core.ttp`), its in-situ training pipeline
(:mod:`repro.core.train`), and the assembled ABR scheme with its ablations
(:mod:`repro.core.fugu`).
"""

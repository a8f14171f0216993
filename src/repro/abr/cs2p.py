"""CS2P-style throughput prediction (Sun et al., SIGCOMM 2016 [38]).

CS2P "models ... evolving throughput as a Markovian process with a small
number of discrete states" (§2) and feeds the prediction to an MPC
controller. This module implements that related-work system:

* :class:`DiscreteThroughputHmm` — a hidden Markov model over K discrete
  throughput states with log-normal emissions, trained by Baum–Welch (EM)
  on per-session chunk-throughput sequences;
* :class:`Cs2pPredictor` — forward-algorithm state tracking that turns the
  HMM into a transmission-time model for the shared MPC controller;
* :class:`Cs2pMpc` — the assembled ABR scheme.

The paper's Fig. 2 point — "we have not observed CS2P and Oboe's
observation of discrete throughput states" on Puffer — shows up here as a
model-mismatch: the HMM fits Markov-link worlds far better than the
heavy-tailed continuous evolution of the deployment (see the related-work
benchmark).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.abr.base import AbrAlgorithm, AbrContext
from repro.core.controller import (
    TimeDistribution,
    ValueIterationController,
    horizon_sizes,
)
from repro.core.qoe import DEFAULT_QOE, QoeParams
from repro.fields import whole_positive
from repro.media.chunk import ChunkMenu

_LOG_FLOOR = 1e-12
_MIN_THROUGHPUT = 1e3


@dataclass
class HmmFit:
    """Training diagnostics from Baum–Welch."""

    log_likelihood: float
    iterations: int
    converged: bool


class DiscreteThroughputHmm:
    """HMM over discrete throughput states with log-normal emissions.

    Observations are chunk-level throughput samples in bits/s; internally
    everything works on ``log(throughput)``.
    """

    def __init__(self, n_states: int = 3, seed: int = 0) -> None:
        if n_states < 1:
            raise ValueError("need at least one state")
        self.n_states = n_states
        rng = np.random.default_rng(seed)
        self.initial = np.full(n_states, 1.0 / n_states)
        # Sticky transitions: states persist (CS2P's dwell behaviour).
        self.transition = np.full((n_states, n_states), 0.1 / max(n_states - 1, 1))
        np.fill_diagonal(self.transition, 0.9)
        if n_states == 1:
            self.transition = np.ones((1, 1))
        # Spread initial means over a plausible log-throughput range.
        self.means = np.sort(rng.uniform(np.log(5e5), np.log(5e7), n_states))
        self.sigmas = np.full(n_states, 0.5)

    # ------------------------------------------------------------------
    # Inference primitives
    # ------------------------------------------------------------------
    def _emission_logpdf(self, log_obs: np.ndarray) -> np.ndarray:
        """log p(obs | state): shape (T, K)."""
        diff = log_obs[:, None] - self.means[None, :]
        return (
            -0.5 * (diff / self.sigmas[None, :]) ** 2
            - np.log(self.sigmas[None, :])
            - 0.5 * np.log(2 * np.pi)
        )

    def _forward(self, log_obs: np.ndarray):
        """Scaled forward pass; returns (alpha, scales, log_likelihood)."""
        T = len(log_obs)
        emissions = np.exp(self._emission_logpdf(log_obs))
        alpha = np.zeros((T, self.n_states))
        scales = np.zeros(T)
        alpha[0] = self.initial * emissions[0]
        scales[0] = alpha[0].sum() + _LOG_FLOOR
        alpha[0] /= scales[0]
        for t in range(1, T):
            alpha[t] = (alpha[t - 1] @ self.transition) * emissions[t]
            scales[t] = alpha[t].sum() + _LOG_FLOOR
            alpha[t] /= scales[t]
        return alpha, scales, float(np.log(scales).sum())

    def _backward(self, log_obs: np.ndarray, scales: np.ndarray) -> np.ndarray:
        T = len(log_obs)
        emissions = np.exp(self._emission_logpdf(log_obs))
        beta = np.zeros((T, self.n_states))
        beta[-1] = 1.0
        for t in range(T - 2, -1, -1):
            beta[t] = self.transition @ (emissions[t + 1] * beta[t + 1])
            beta[t] /= scales[t + 1]
        return beta

    def log_likelihood(self, series: Sequence[Sequence[float]]) -> float:
        """Mean per-observation log-likelihood across sequences."""
        total, count = 0.0, 0
        for seq in series:
            log_obs = np.log(np.maximum(np.asarray(seq, float), _MIN_THROUGHPUT))
            if len(log_obs) == 0:
                continue
            _, __, ll = self._forward(log_obs)
            total += ll
            count += len(log_obs)
        if count == 0:
            raise ValueError("no observations")
        return total / count

    # ------------------------------------------------------------------
    # Training (Baum–Welch)
    # ------------------------------------------------------------------
    def fit(
        self,
        series: Sequence[Sequence[float]],
        max_iterations: int = 40,
        tolerance: float = 1e-4,
    ) -> HmmFit:
        """EM over a set of per-session throughput sequences."""
        sequences = [
            np.log(np.maximum(np.asarray(s, float), _MIN_THROUGHPUT))
            for s in series
            if len(s) >= 2
        ]
        if not sequences:
            raise ValueError("need at least one sequence of length >= 2")
        previous_ll = -np.inf
        iterations = 0
        converged = False
        for iterations in range(1, max_iterations + 1):
            total_ll = 0.0
            gamma_sum = np.zeros(self.n_states)
            gamma_obs_sum = np.zeros(self.n_states)
            gamma_obs_sq = np.zeros(self.n_states)
            xi_sum = np.zeros((self.n_states, self.n_states))
            initial_sum = np.zeros(self.n_states)
            for log_obs in sequences:
                T = len(log_obs)
                emissions = np.exp(self._emission_logpdf(log_obs))
                alpha, scales, ll = self._forward(log_obs)
                beta = self._backward(log_obs, scales)
                total_ll += ll
                gamma = alpha * beta
                gamma /= gamma.sum(axis=1, keepdims=True) + _LOG_FLOOR
                initial_sum += gamma[0]
                gamma_sum += gamma.sum(axis=0)
                gamma_obs_sum += gamma.T @ log_obs
                gamma_obs_sq += gamma.T @ log_obs**2
                for t in range(T - 1):
                    xi = (
                        alpha[t][:, None]
                        * self.transition
                        * (emissions[t + 1] * beta[t + 1])[None, :]
                    )
                    xi /= xi.sum() + _LOG_FLOOR
                    xi_sum += xi
            # M step.
            self.initial = initial_sum / (initial_sum.sum() + _LOG_FLOOR)
            row_sums = xi_sum.sum(axis=1, keepdims=True) + _LOG_FLOOR
            self.transition = xi_sum / row_sums
            self.means = gamma_obs_sum / (gamma_sum + _LOG_FLOOR)
            variance = gamma_obs_sq / (gamma_sum + _LOG_FLOOR) - self.means**2
            self.sigmas = np.sqrt(np.maximum(variance, 1e-4))
            if abs(total_ll - previous_ll) < tolerance * max(abs(previous_ll), 1.0):
                converged = True
                previous_ll = total_ll
                break
            previous_ll = total_ll
        order = np.argsort(self.means)
        self.means = self.means[order]
        self.sigmas = self.sigmas[order]
        self.initial = self.initial[order]
        self.transition = self.transition[np.ix_(order, order)]
        return HmmFit(
            log_likelihood=float(previous_ll),
            iterations=iterations,
            converged=converged,
        )

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def state_belief(self, observations: Sequence[float]) -> np.ndarray:
        """Posterior over states given a session's recent throughputs."""
        if not len(observations):
            return self.initial.copy()
        log_obs = np.log(
            np.maximum(np.asarray(observations, float), _MIN_THROUGHPUT)
        )
        alpha, _, __ = self._forward(log_obs)
        return alpha[-1]

    def predict_throughput(
        self, belief: np.ndarray, steps_ahead: int = 1
    ) -> float:
        """Expected throughput ``steps_ahead`` transitions into the future."""
        if steps_ahead < 1:
            raise ValueError("steps_ahead must be positive")
        future = belief @ np.linalg.matrix_power(self.transition, steps_ahead)
        state_means = np.exp(self.means + 0.5 * self.sigmas**2)
        return float(future @ state_means)


class Cs2pPredictor:
    """TransmissionTimeModel adapter around the HMM.

    The HMM's forward belief is propagated ``step + 1`` transitions ahead
    and handed to the stochastic controller as a *mixture*: one
    transmission-time outcome per hidden state, weighted by the future
    state distribution. A mixed belief (e.g., 50/50 slow/fast) then
    penalizes risky rungs through the expected-stall term instead of being
    flattened into an optimistic mean throughput.
    """

    def __init__(self, hmm: DiscreteThroughputHmm, window: int = 20) -> None:
        self.hmm = hmm
        self.window = whole_positive("Cs2pPredictor", "window", window)

    def predict(
        self, context: AbrContext, menus: Sequence[ChunkMenu]
    ) -> TimeDistribution:
        observations = [
            r.observed_throughput_bps
            for r in context.history[-self.window :]
        ]
        belief = self.hmm.state_belief(observations)
        state_rates = np.maximum(
            np.exp(self.hmm.means + 0.5 * self.hmm.sigmas**2),
            _MIN_THROUGHPUT,
        )
        if len(belief) == 1:
            # One hidden state is certain, whatever the floored belief
            # says: a point mass, whose probability is exactly 1.
            futures = np.ones((len(menus), 1))
        else:
            # Step s's future is the belief s + 1 transitions on.
            futures = np.array(
                [
                    belief @ np.linalg.matrix_power(self.hmm.transition, n)
                    for n in range(1, len(menus) + 1)
                ]
            )
            futures /= futures.sum(axis=1, keepdims=True) + _LOG_FLOOR
        times = horizon_sizes(menus)[:, None] * 8.0 / state_rates[None, :]
        probs = np.repeat(futures, [len(menu.sizes) for menu in menus], axis=0)
        return TimeDistribution(times=times, probs=probs)


class Cs2pMpc(AbrAlgorithm):
    """MPC driven by the CS2P-style HMM throughput predictor."""

    name = "cs2p_mpc"

    def __init__(
        self,
        hmm: DiscreteThroughputHmm,
        qoe: QoeParams = DEFAULT_QOE,
        horizon: int = 5,
    ) -> None:
        self.controller = ValueIterationController(qoe=qoe, horizon=horizon)
        self.predictor = Cs2pPredictor(hmm)

    def choose(self, context: AbrContext) -> int:
        return self.controller.plan(context, self.predictor)


def throughput_series_from_streams(
    streams: Sequence,
) -> List[List[float]]:
    """Extract per-session chunk-throughput sequences for HMM training."""
    series = []
    for stream in streams:
        seq = [r.observed_throughput_bps for r in stream.records]
        if len(seq) >= 2:
            series.append(seq)
    return series

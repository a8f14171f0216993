"""Pensieve's actor-critic networks and state encoding.

The original uses 1-D convolutions over history; at our state sizes a dense
network is equivalent in capacity and far simpler, so both heads are MLPs
over a flat state vector:

* bitrate of the last selected version (normalized),
* current buffer level,
* throughput and download time of the past 8 chunks,
* the ladder's (average) bitrates — Pensieve on Puffer sees average
  bitrates, not per-chunk sizes (§3.3),
* a "chunks remaining" slot pinned to 1.0 (endless live video).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.abr.base import ChunkRecord
from repro.learn.network import MLP

HISTORY_LEN = 8
_BITRATE_SCALE = 6e6  # bits/s; top of the Puffer ladder
_BUFFER_SCALE = 10.0  # seconds
_THROUGHPUT_SCALE = 1.2e7  # bits/s; the 12 Mbit/s cap of the training traces
_TIME_SCALE = 10.0  # seconds

# Observations are clipped to the range the policy saw in training (the
# FCC-style traces are capped at 12 Mbit/s); without this, the fat paths of
# the real deployment put the network far outside its training manifold and
# its behaviour degenerates.
_FEATURE_CLIP = 1.0

PENSIEVE_STATE_DIM = 2 + 2 * HISTORY_LEN + 10 + 1


def encode_state(
    last_rung_bitrate_bps: Optional[float],
    buffer_s: float,
    history: Sequence[ChunkRecord],
    ladder_bitrates_bps: Sequence[float],
) -> np.ndarray:
    """Build Pensieve's flat state vector."""
    if len(ladder_bitrates_bps) != 10:
        raise ValueError("Pensieve's Puffer deployment uses a 10-rung ladder")
    throughputs = np.zeros(HISTORY_LEN)
    times = np.zeros(HISTORY_LEN)
    recent = history[-HISTORY_LEN:]
    offset = HISTORY_LEN - len(recent)
    for i, record in enumerate(recent):
        throughputs[offset + i] = min(
            record.observed_throughput_bps / _THROUGHPUT_SCALE, _FEATURE_CLIP
        )
        times[offset + i] = min(
            record.transmission_time / _TIME_SCALE, _FEATURE_CLIP
        )
    last_bitrate = (
        0.0
        if last_rung_bitrate_bps is None
        else last_rung_bitrate_bps / _BITRATE_SCALE
    )
    return np.concatenate(
        [
            [last_bitrate, buffer_s / _BUFFER_SCALE],
            throughputs,
            times,
            np.asarray(ladder_bitrates_bps) / _BITRATE_SCALE,
            [1.0],  # endless live stream: "chunks remaining" saturated
        ]
    )


class ActorCritic:
    """Policy and value networks sharing the state encoding."""

    def __init__(
        self,
        n_actions: int = 10,
        hidden: Sequence[int] = (64, 64),
        seed: int = 0,
    ) -> None:
        rng = np.random.default_rng(seed)
        self.n_actions = n_actions
        self.actor = MLP(PENSIEVE_STATE_DIM, list(hidden), n_actions, rng=rng)
        self.critic = MLP(PENSIEVE_STATE_DIM, list(hidden), 1, rng=rng)

    def action_probabilities(self, states: np.ndarray) -> np.ndarray:
        """π(a | s) for a batch of states."""
        return self.actor.predict_proba(np.atleast_2d(states))

    def values(self, states: np.ndarray) -> np.ndarray:
        """V(s) for a batch of states."""
        return self.critic.predict(np.atleast_2d(states)).ravel()

    def act(
        self,
        state: np.ndarray,
        rng: Optional[np.random.Generator] = None,
        greedy: bool = False,
    ) -> int:
        """Sample (training) or argmax (deployment) an action."""
        probs = self.action_probabilities(state)[0]
        if greedy or rng is None:
            return int(np.argmax(probs))
        return int(rng.choice(self.n_actions, p=probs))

    def state_dict(self) -> dict:
        return {
            "actor": self.actor.state_dict(),
            "critic": self.critic.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        self.actor.load_state_dict(state["actor"])
        self.critic.load_state_dict(state["critic"])

    def copy(self) -> "ActorCritic":
        clone = ActorCritic(n_actions=self.n_actions)
        # Architectures may differ from defaults; rebuild from state dicts.
        clone.actor = MLP(
            self.actor.in_features, self.actor.hidden, self.actor.out_features
        )
        clone.critic = MLP(
            self.critic.in_features, self.critic.hidden, self.critic.out_features
        )
        clone.load_state_dict(self.state_dict())
        return clone


def ladder_average_bitrates(ladder_bitrates_bps: Sequence[float]) -> List[float]:
    """Average bitrates per rung — the only size signal Pensieve receives."""
    return [float(b) for b in ladder_bitrates_bps]

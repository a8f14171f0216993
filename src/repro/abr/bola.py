"""BOLA — Lyapunov-based buffer control (Spiteri et al., INFOCOM 2016 [36]).

Cited by the paper as another buffer-based scheme; included as an extension
beyond the five primary-experiment algorithms. BOLA-BASIC picks, at each
decision, the version maximizing

    (V * (utility_m + gamma_p) - Q) / S_m

where Q is the buffer level in chunks, S_m the chunk size, ``utility_m`` a
concave utility of the version, and V, gamma_p control the buffer operating
point. We use the SSIM gain over the lowest rung as the utility so BOLA
competes on the same objective as Puffer's other schemes.
"""

from __future__ import annotations

import math

import numpy as np

from repro.abr.base import AbrAlgorithm, AbrContext
from repro.streaming.buffer import MAX_BUFFER_S


class Bola(AbrAlgorithm):
    """BOLA-BASIC with an SSIM utility."""

    name = "bola"

    def __init__(
        self,
        max_buffer_s: float = MAX_BUFFER_S,
        target_buffer_fraction: float = 0.6,
    ) -> None:
        if not 0.0 < max_buffer_s < math.inf:
            raise ValueError(
                f"max_buffer_s must be finite and positive, got {max_buffer_s!r}"
            )
        if not 0.0 < target_buffer_fraction <= 1.0:
            raise ValueError("target buffer fraction must lie in (0, 1]")
        self.max_buffer_s = max_buffer_s
        self.target_buffer_fraction = target_buffer_fraction

    def choose(self, context: AbrContext) -> int:
        menu = context.menu
        return self.pick(
            context.buffer_s,
            np.asarray(menu.sizes),
            np.asarray(menu.ssims_db),
            menu.duration,
        )

    def pick(
        self, buffer_s: float, sizes: np.ndarray, ssims: np.ndarray, duration: float
    ) -> int:
        """The rule on one chunk's ``float64`` rows: the version with the
        best BOLA score."""
        q_chunks = buffer_s / duration
        q_max = self.max_buffer_s / duration
        utilities = ssims - ssims[0]
        # Choose gamma_p so the score for the lowest rung crosses zero at
        # the target buffer level, and V to match the buffer scale
        # (BOLA-BASIC parameterization adapted to a finite buffer).
        gamma_p = self.target_buffer_fraction * q_max
        utility_span = max(float(utilities[-1]), 1e-9)
        v = (q_max - 1.0) / (utility_span + gamma_p)
        scores = (v * (utilities + gamma_p) - q_chunks) / sizes
        if float(scores.max()) <= 0.0:
            # All scores negative means the buffer is past BOLA's operating
            # point and the algorithm would pause downloads. The server
            # paces separately (it waits for buffer room), so the sensible
            # action when asked for a chunk anyway is the highest utility.
            return len(sizes) - 1
        return int(np.argmax(scores))

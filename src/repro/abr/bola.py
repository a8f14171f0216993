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
from typing import Sequence

from repro.abr.base import AbrAlgorithm, AbrContext
from repro.fields import positive
from repro.streaming.buffer import MAX_BUFFER_S


class Bola(AbrAlgorithm):
    """BOLA-BASIC with an SSIM utility."""

    name = "bola"

    def __init__(
        self,
        max_buffer_s: float = MAX_BUFFER_S,
        target_buffer_fraction: float = 0.6,
    ) -> None:
        positive("Bola", "max_buffer_s", max_buffer_s)
        if not 0.0 < target_buffer_fraction <= 1.0:
            raise ValueError("target buffer fraction must lie in (0, 1]")
        self.max_buffer_s = max_buffer_s
        self.target_buffer_fraction = target_buffer_fraction

    def choose(self, context: AbrContext) -> int:
        menu = context.menu
        return self.pick(context.buffer_s, menu.sizes, menu.ssims_db, menu.duration)

    def pick(
        self,
        buffer_s: float,
        sizes: Sequence[float],
        ssims: Sequence[float],
        duration: float,
    ) -> int:
        """The rule on one chunk's rows: the version with the best BOLA
        score, the lowest rung among equal scores.

        Each score is ``(v * (utility + gamma_p) - q) / size`` with the
        utility ``ssim - ssims[0]``, evaluated one double operation at a
        time in the order numpy evaluates the expression elementwise over
        ``float64`` rows, so every score is the double the array rule gives
        (``tests/abr/bola_reference.py`` keeps that rule).  A NaN score (a
        NaN size or SSIM in the row) raises, naming its rung, where
        ``argmax`` would stream the first NaN's rung.
        """
        q_chunks = buffer_s / duration
        q_max = self.max_buffer_s / duration
        base = ssims[0]
        # Choose gamma_p so the score for the lowest rung crosses zero at
        # the target buffer level, and V to match the buffer scale
        # (BOLA-BASIC parameterization adapted to a finite buffer).
        gamma_p = self.target_buffer_fraction * q_max
        utility_span = max(ssims[-1] - base, 1e-9)
        v = (q_max - 1.0) / (utility_span + gamma_p)
        best = 0
        best_score = -math.inf
        for k, size in enumerate(sizes):
            score = (v * ((ssims[k] - base) + gamma_p) - q_chunks) / size
            if score > best_score:
                best = k
                best_score = score
            elif not score <= best_score:
                raise ValueError(f"BOLA score is NaN at rung {k}")
        if best_score <= 0.0:
            # All scores negative means the buffer is past BOLA's operating
            # point and the algorithm would pause downloads. The server
            # paces separately (it waits for buffer room), so the sensible
            # action when asked for a chunk anyway is the highest utility.
            return len(sizes) - 1
        return best

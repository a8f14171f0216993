"""BOLA's rule as a ``float64`` array expression, frozen.

This is the rule ``repro.abr.bola.Bola.pick`` evaluated with numpy over
one chunk's rows, kept unchanged so ``test_bola_rule.py`` can hold the
float rule in the package to it bit for bit.  It has no NaN check: a NaN
score is streamed, because ``argmax`` returns the first NaN's index.
"""

import numpy as np


def bola_pick(
    max_buffer_s: float,
    target_buffer_fraction: float,
    buffer_s: float,
    sizes: np.ndarray,
    ssims: np.ndarray,
    duration: float,
) -> int:
    q_chunks = buffer_s / duration
    q_max = max_buffer_s / duration
    utilities = ssims - ssims[0]
    gamma_p = target_buffer_fraction * q_max
    utility_span = max(float(utilities[-1]), 1e-9)
    v = (q_max - 1.0) / (utility_span + gamma_p)
    scores = (v * (utilities + gamma_p) - q_chunks) / sizes
    if float(scores.max()) <= 0.0:
        return len(sizes) - 1
    return int(np.argmax(scores))

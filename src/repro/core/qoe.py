"""The QoE objective (Eq. 1).

    QoE(K_i^s, K_{i-1}) = Q(K_i^s)
                          - λ |Q(K_i^s) - Q(K_{i-1})|
                          - µ max{T(K_i^s) - B_i, 0}

where Q is SSIM in dB, T the uncertain transmission time, and B the playback
buffer. The paper sets λ = 1 and µ = 100 (§4.5) and uses the *exact same*
objective for MPC-HM, RobustMPC-HM, and Fugu (§4.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.fields import check, finite, non_negative


@dataclass(frozen=True)
class QoeParams:
    """Weights of the QoE linear combination (Eq. 1)."""

    quality_weight: float = 1.0
    variation_weight: float = 1.0  # λ
    stall_weight: float = 100.0  # µ

    KINDS = {
        "quality_weight": finite, "variation_weight": non_negative,
        "stall_weight": non_negative,
    }

    def __post_init__(self) -> None:
        check(self)


DEFAULT_QOE = QoeParams()


def chunk_qoe(
    params: QoeParams,
    quality_db: float,
    prev_quality_db: Optional[float],
    transmission_time: float,
    buffer_s: float,
) -> float:
    """Evaluate Eq. 1 for one chunk.

    ``prev_quality_db`` of None (stream start) drops the variation term,
    matching how the controller treats the first chunk.
    """
    if transmission_time < 0 or buffer_s < 0:
        raise ValueError("times must be non-negative")
    value = params.quality_weight * quality_db
    if prev_quality_db is not None:
        value -= params.variation_weight * abs(quality_db - prev_quality_db)
    value -= params.stall_weight * max(transmission_time - buffer_s, 0.0)
    return value

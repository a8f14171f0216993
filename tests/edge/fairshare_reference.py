"""``max_min_shares`` as it was when it ran on ``fractions.Fraction``, frozen.

``tests/edge/test_fairshare_differential.py`` holds the live integer solver
in ``repro.edge.fairshare`` to this function's ``float.hex()``, and swaps it
into ``repro.edge.engine`` for a fleet-level dump comparison. The body is the
old solver verbatim, so a later change to ``src/`` cannot move the reference
along with the code under test: every ``+ - * / <=`` is a ``Fraction``
operation on the lossless ``Fraction(float)`` of each input, and each share is
rounded to a float once, at the end.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence


def max_min_shares(
    capacity_bps: float,
    caps_bps: Sequence[float],
    weights: Optional[Sequence[float]] = None,
) -> List[float]:
    """Split ``capacity_bps`` across flows by weighted max-min fairness.

    Parameters
    ----------
    capacity_bps:
        The shared bottleneck's current capacity.
    caps_bps:
        Per-flow rate caps (each flow's private access-link capacity); a
        flow never receives more than its cap.
    weights:
        Optional positive fairness weights (CC aggressiveness: a CUBIC flow
        competing against BBR can be given a different weight).  Defaults
        to equal weights.

    Returns
    -------
    Per-flow shares in bits/s, aligned with ``caps_bps``.  Invariants
    (exact in the underlying rationals):

    * conservation — shares sum to ``min(capacity, sum(caps))``;
    * permutation invariance — shares follow their flow under any
      reordering of the input;
    * singleton collapse — one flow receives ``min(capacity, cap)``, the
      private-link rate.
    """
    n = len(caps_bps)
    if n == 0:
        return []
    if capacity_bps < 0:
        raise ValueError("capacity must be non-negative")
    if weights is None:
        weight_f = [Fraction(1)] * n
    else:
        if len(weights) != n:
            raise ValueError("weights must align with caps")
        weight_f = [Fraction(float(w)) for w in weights]
        if any(w <= 0 for w in weight_f):
            raise ValueError("weights must be positive")
    cap_f = [Fraction(float(c)) for c in caps_bps]
    if any(c < 0 for c in cap_f):
        raise ValueError("caps must be non-negative")

    shares: List[Fraction] = [Fraction(0)] * n
    remaining = Fraction(float(capacity_bps))
    active = list(range(n))
    # Water-filling: raise the common water level until some flows hit
    # their caps, freeze those, redistribute the rest.  Terminates in at
    # most n rounds (every round freezes >= 1 flow or exits).
    while active and remaining > 0:
        total_weight = sum(weight_f[i] for i in active)
        level = remaining / total_weight
        capped = [i for i in active if cap_f[i] <= level * weight_f[i]]
        if not capped:
            for i in active:
                shares[i] = level * weight_f[i]
            remaining = Fraction(0)
            break
        for i in capped:
            shares[i] = cap_f[i]
            remaining -= cap_f[i]
        active = [i for i in active if i not in set(capped)]
    return [float(s) for s in shares]

"""Exact weighted max-min fair share (water-filling).

The cell engine re-solves shares every time a flow joins, leaves, or the
shared link steps to a new epoch, so the solver must be *order independent*:
a checkpointed run that rebuilds its active set in session-id order has to
produce bit-identical shares to the original run.  Floating-point
water-filling is not order independent (the running remainder accumulates
differently under permutation), so the solve is exact — and exact here
needs only integers.  A finite float is ``m * 2**e``: capacity and caps are
brought to one power-of-two denominator, weights to another
(``float.as_integer_ratio``; the denominators are powers of two, so scaling
a numerator up to the common one is exact), and the water-filling runs on
Python ``int`` numerators.  Sums and differences are exact; the one
comparison, ``cap <= level * weight``, is cross-multiplied so that no
division happens; and each flow's share is rounded to a float once — a
capped flow gets its own input back, an uncapped one the single ``int / int``
of its exact share, which Python rounds correctly.  That rounding is a
per-flow function of exact rationals, hence permutation invariant.

Three cases need no water-filling, and the solver answers them first (after
the same validation, with the same messages):

* **One flow** gets ``min(capacity, cap)``: it is capped exactly when its
  cap is at most the whole capacity, and otherwise takes all of it.  Both
  are inputs, returned unrounded.
* **Caps that fit** — ``math.fsum(caps) < capacity`` — give every flow its
  own cap.  ``fsum`` is the correctly rounded exact sum, and rounding is
  monotone, so a rounded sum strictly below the capacity means the exact
  sum is too; then each water-filling round freezes at least one flow at
  its cap (were none capped, the caps would sum past the capacity) and the
  remainder stays above the caps still to come.  A rounded sum that lands
  on the capacity proves nothing, and takes the exact path.
* **Equal weights, no flow capped** — every weight the same and
  ``min(caps) * n > capacity`` — give every flow ``capacity / n``.  With
  equal weights the water-filling's first round caps flow ``i`` exactly
  when ``cap_i * n <= capacity`` (its test ``cap * total_weight <=
  remaining * weight`` with the common weight cancelled), and a flow with
  the smallest cap is capped if any is.  The product is rounded, but
  rounding is monotone and the capacity is a float: were the exact product
  at most the capacity, the rounded one would be too, so a rounded product
  strictly above the capacity proves the exact one is, and no flow is
  capped.  The round then hands each flow ``remaining * weight /
  (den * total_weight)``, the exact rational ``capacity / n``, rounded
  once; ``capacity / n`` is that rational correctly rounded, since ``n``
  converts to a float exactly.  (A zero capacity skips the round and
  leaves every share at ``0.0``, which is ``0.0 / n``.)  A rounded product
  that lands on the capacity proves nothing, and takes the exact path.

Each time the exact solve would have returned the same floats.  ``+ 0.0``
maps a ``-0.0`` input, or the ``-0.0`` quotient of a ``-0.0`` capacity, to
the ``0.0`` it returns: the exact path rounds only positive rationals and
otherwise leaves a share at ``0.0``.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple


def _floats(values: Sequence[float], name: str) -> List[float]:
    """``values`` as finite floats, or a ``ValueError`` naming them."""
    try:
        floats = [float(value) for value in values]
    except (ValueError, OverflowError):
        # float()'s own words for a non-number and for a huge int.
        raise ValueError(f"{name} must be finite") from None
    for value in floats:
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite")
    return floats


def _numerators(values: Sequence[float]) -> Tuple[List[int], int]:
    """Finite ``values`` as integer numerators over one power-of-two
    denominator, which is returned beside them."""
    ratios = [value.as_integer_ratio() for value in values]
    den = max([d for _, d in ratios])
    return [m * (den // d) for m, d in ratios], den


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
    if not math.isfinite(capacity_bps):
        raise ValueError("capacity_bps must be finite")
    if capacity_bps < 0:
        raise ValueError("capacity must be non-negative")
    capacity = float(capacity_bps)
    weight_f: Optional[List[float]] = None
    if weights is not None:
        if len(weights) != n:
            raise ValueError("weights must align with caps")
        weight_f = _floats(weights, "weights")
        if min(weight_f) <= 0:
            raise ValueError("weights must be positive")
    caps = _floats(caps_bps, "caps_bps")
    low = min(caps)
    if low < 0:
        raise ValueError("caps must be non-negative")

    # The three short cuts the module docstring proves exact.
    if n == 1:
        return [min(capacity, caps[0]) + 0.0]
    equal = weight_f is None or weight_f.count(weight_f[0]) == n
    if equal and low * n > capacity:
        return [capacity / n + 0.0] * n
    if math.fsum(caps) < capacity:
        return [cap + 0.0 for cap in caps]

    # Equal weights cancel from every comparison and every share.
    if weight_f is None or equal:
        weight_n = [1] * n
    else:
        weight_n = _numerators(weight_f)[0]
    # Capacity rides along with the caps: one denominator for every rate.
    (remaining, *cap_n), den = _numerators((capacity, *caps))
    shares = [0.0] * n
    active = list(range(n))
    # Water-filling: raise the common water level until some flows hit
    # their caps, freeze those, redistribute the rest.  Terminates in at
    # most n rounds (every round freezes >= 1 flow or exits).
    while active and remaining > 0:
        total_weight = sum([weight_n[i] for i in active])
        # level = remaining / total_weight, never formed: a flow is capped
        # when cap <= level * weight, i.e. cap * total_weight <= remaining
        # * weight (total_weight > 0), both sides exact integers.
        uncapped: List[int] = []
        frozen = 0
        for i in active:
            if cap_n[i] * total_weight <= remaining * weight_n[i]:
                # Exactly the flow's own cap, a float already (``+ 0.0``
                # as the short cuts: ``cap_n[i] / den`` is 0.0 for -0.0).
                shares[i] = caps[i] + 0.0
                frozen += cap_n[i]
            else:
                uncapped.append(i)
        if len(uncapped) == len(active):
            scale = den * total_weight
            for i in active:
                shares[i] = remaining * weight_n[i] / scale
            break
        remaining -= frozen
        active = uncapped
    return shares

"""Loss functions.

Each loss returns ``(value, grad)`` where ``grad`` is the derivative with
respect to the network's raw output (logits for classification losses).
Per-sample weights are supported throughout because the TTP's training
procedure weights recent days more heavily (§4.3 of the paper).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

Array = np.ndarray


def _normalize_weights(weights: Optional[Array], *shape: int) -> Array:
    """Return per-sample weights normalized to sum to ``n`` so that loss
    magnitudes stay comparable whether or not weighting is used. ``shape``
    is ``n``, or ``members, n`` for a stacked batch, whose members are
    normalized each on its own."""
    if weights is None:
        return np.ones(shape)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != shape:
        raise ValueError(
            f"expected {shape[-1]} sample weights, got shape {weights.shape}"
        )
    if np.any(weights < 0):
        raise ValueError("sample weights must be non-negative")
    total = weights.sum(axis=-1, keepdims=True)
    if np.any(total <= 0):
        raise ValueError("sample weights must not all be zero")
    scaled: Array = weights * (shape[-1] / total)
    return scaled


def first_bad_row(bad: Array, rule: str) -> None:
    """Raise ``ValueError`` naming the first row ``bad`` flags, if any."""
    rows = np.flatnonzero(bad)
    if rows.size:
        raise ValueError(f"{rule} (row {rows[0]})")


def log_softmax(logits: Array) -> Array:
    """Numerically stable log-softmax along the last axis."""
    logits = np.asarray(logits, dtype=float)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def softmax(logits: Array) -> Array:
    """Numerically stable softmax along the last axis."""
    return np.exp(log_softmax(logits))


class Loss:
    """Base class: callable returning ``(scalar_loss, grad_wrt_output)``."""

    def __call__(
        self, output: Array, target: Array, weights: Optional[Array] = None
    ) -> Tuple[float, Array]:
        raise NotImplementedError

    def validate(
        self, target: Array, weights: Optional[Array], width: int
    ) -> None:
        """Raise ``ValueError`` unless a whole dataset's ``target`` and
        ``weights`` suit an output ``width`` wide. The trainer asks once
        per fit, before its first step: a bad row found in a late batch
        would otherwise leave the model stepped on the earlier ones."""
        if weights is not None:
            weights = np.asarray(weights, dtype=float)
            first_bad_row(~np.isfinite(weights), "sample weights must be finite")
            first_bad_row(weights < 0, "sample weights must be non-negative")

    def stacked(
        self, output: Array, target: Array, weights: Array
    ) -> Tuple[Array, Array]:
        """One loss per member of a stacked batch: ``output`` is
        ``(members, n, k)``, ``target`` and ``weights`` carry the same two
        leading axes. Returns ``(losses (members,), grad (members, n, k))``,
        each member's exactly what ``__call__`` gives for its slice — which
        is how this default computes them."""
        pairs = [self(*member) for member in zip(output, target, weights)]
        return (
            np.array([value for value, _ in pairs]),
            np.stack([grad for _, grad in pairs]),
        )


class SoftmaxCrossEntropy(Loss):
    """Cross-entropy between softmax(logits) and integer class targets.

    This is the TTP's training loss: the actual transmission time is
    discretized into one of 21 bins and the network minimizes cross-entropy
    against that bin index.
    """

    def __init__(self) -> None:
        # Flat position of each row's bin 0, per (members, rows, bins):
        # the same few batch shapes recur every epoch.
        self._row_starts: Dict[Tuple[int, int, int], Array] = {}

    def __call__(
        self, output: Array, target: Array, weights: Optional[Array] = None
    ) -> Tuple[float, Array]:
        logits = np.atleast_2d(output)
        target = np.asarray(target, dtype=int).ravel()
        if weights is None:
            # Normalized, all-ones weights are all ones again, bit for bit.
            weights = np.ones(len(logits))
        values, grad = self.stacked(
            logits[None], target[None], np.asarray(weights, dtype=float)[None]
        )
        return float(values[0]), grad[0]

    def validate(
        self, target: Array, weights: Optional[Array], width: int
    ) -> None:
        super().validate(target, weights, width)
        target = np.asarray(target, dtype=int)
        if target.size and (target.min() < 0 or target.max() >= width):
            raise ValueError(f"targets must lie in [0, {width})")

    def stacked(
        self, output: Array, target: Array, weights: Array
    ) -> Tuple[Array, Array]:
        members, n, k = output.shape
        target = np.asarray(target, dtype=int)
        if target.shape != (members, n):
            raise ValueError(f"expected {n} targets, got shape {target.shape}")
        if target.min() < 0 or target.max() >= k:
            raise ValueError(f"targets must lie in [0, {k})")
        w = _normalize_weights(weights, members, n)
        logp = log_softmax(output)
        # Flat positions of each row's target bin.
        row_starts = self._row_starts.get(output.shape)
        if row_starts is None:
            row_starts = np.arange(0, members * n * k, k)
            self._row_starts[output.shape] = row_starts
        at_target = row_starts + target.ravel()
        picked = logp.ravel()[at_target].reshape(members, n)
        losses: Array = -(w * picked).mean(axis=1)
        # softmax(logits) is exp(log_softmax(logits)): the value the loss
        # just used, not a second pass over the logits.
        grad = np.exp(logp, out=logp)
        grad.ravel()[at_target] -= 1.0
        grad *= (w / n)[:, :, None]
        return losses, grad


class MeanSquaredError(Loss):
    """Mean squared error for regression heads (point-estimate TTP ablation)."""

    def __call__(
        self, output: Array, target: Array, weights: Optional[Array] = None
    ) -> Tuple[float, Array]:
        output = np.atleast_2d(output)
        target = np.asarray(target, dtype=float).reshape(output.shape)
        n = output.shape[0]
        w = _normalize_weights(weights, n)
        diff = output - target
        loss = float((w[:, None] * diff**2).mean())
        grad = 2.0 * diff * (w / n)[:, None] / output.shape[1]
        return loss, grad


class HuberLoss(Loss):
    """Huber loss — robust regression alternative used by the value head of
    the Pensieve critic, where occasional huge rewards (long stalls) would
    otherwise dominate the gradient."""

    def __init__(self, delta: float = 1.0) -> None:
        if delta <= 0:
            raise ValueError("delta must be positive")
        self.delta = delta

    def __call__(
        self, output: Array, target: Array, weights: Optional[Array] = None
    ) -> Tuple[float, Array]:
        output = np.atleast_2d(output)
        target = np.asarray(target, dtype=float).reshape(output.shape)
        n = output.shape[0]
        w = _normalize_weights(weights, n)
        diff = output - target
        abs_diff = np.abs(diff)
        quadratic = abs_diff <= self.delta
        per_elem = np.where(
            quadratic,
            0.5 * diff**2,
            self.delta * (abs_diff - 0.5 * self.delta),
        )
        loss = float((w[:, None] * per_elem).mean())
        grad_elem = np.where(quadratic, diff, self.delta * np.sign(diff))
        grad = grad_elem * (w / n)[:, None] / output.shape[1]
        return loss, grad

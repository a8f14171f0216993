"""Differentiable layers.

Each layer implements ``forward`` / ``backward`` with explicit caching of
whatever the backward pass needs. Parameters and their gradients are exposed
via ``parameters()`` as ``(name, value, grad)`` triples so optimizers can
update them in place without knowing the layer's structure.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np

Array = np.ndarray


class Layer:
    """Base class for a differentiable module."""

    def forward(self, x: Array) -> Array:
        raise NotImplementedError

    def infer(self, x: Array) -> Array:
        """``forward``'s value for a float matrix ``x`` of the right width,
        keeping nothing for ``backward``: the deployment-time pass."""
        raise NotImplementedError

    def backward(self, grad_out: Array) -> Array:
        """Propagate ``dL/d(output)`` to ``dL/d(input)``, accumulating
        parameter gradients along the way."""
        raise NotImplementedError

    def parameters(self) -> Iterator[Tuple[str, Array, Array]]:
        """Yield ``(name, value, grad)`` triples; value and grad are the
        live arrays (mutated in place by optimizers)."""
        return iter(())

    def zero_grad(self) -> None:
        for _, __, grad in self.parameters():
            grad.fill(0.0)

    def __call__(self, x: Array) -> Array:
        return self.forward(x)


DEFAULT_INIT_SEED = 0
"""Seed for weight initialization when no generator is supplied.

Initialization must be reproducible even for ad-hoc construction: an
unseeded fallback here was exactly the determinism-contract violation
DET001 exists to catch (every random draw flows from an explicit seed).
"""


class Linear(Layer):
    """Fully-connected layer ``y = x W + b``.

    Weights use He initialization, appropriate for the ReLU activations the
    TTP uses.  Pass a seeded ``numpy.random.Generator`` (what the training
    pipeline does, folding ``TrialConfig.seed``); without one the weights
    are drawn from ``seed``, so construction is deterministic either way —
    there is no unseeded path.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: Optional[np.random.Generator] = None,
        seed: int = DEFAULT_INIT_SEED,
    ) -> None:
        if in_features <= 0 or out_features <= 0:
            raise ValueError("layer dimensions must be positive")
        rng = rng if rng is not None else np.random.default_rng(seed)
        scale = np.sqrt(2.0 / in_features)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = rng.normal(0.0, scale, size=(in_features, out_features))
        self.bias = np.zeros(out_features)
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)
        self._input: Optional[Array] = None

    def forward(self, x: Array) -> Array:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.in_features:
            raise ValueError(
                f"expected input width {self.in_features}, got {x.shape[1]}"
            )
        self._input = x
        return self.infer(x)

    def infer(self, x: Array) -> Array:
        out: Array = x @ self.weight + self.bias
        return out

    def backward(self, grad_out: Array) -> Array:
        if self._input is None:
            raise RuntimeError("backward() called before forward()")
        grad_out = np.atleast_2d(grad_out)
        self.grad_weight += self._input.T @ grad_out
        self.grad_bias += grad_out.sum(axis=0)
        grad_in: Array = grad_out @ self.weight.T
        return grad_in

    def parameters(self) -> Iterator[Tuple[str, Array, Array]]:
        yield "weight", self.weight, self.grad_weight
        yield "bias", self.bias, self.grad_bias


class ReLU(Layer):
    """Rectified linear activation, without a data-dependent branch.

    ``np.where(x > 0, x, 0.0)`` selects element by element, and on
    activations of random sign the select loop mispredicts every other
    element. ``fmax`` and an integer mask give the same bit patterns for
    every float64 input — ``fmax`` drops a NaN for the 0.0 beside it, and
    adding 0.0 turns the -0.0 it may return into the +0.0 the select
    produced — at a fraction of the time.
    """

    def __init__(self) -> None:
        self._mask: Optional[Array] = None

    def forward(self, x: Array) -> Array:
        out = self.infer(np.asarray(x, dtype=float))
        self._mask = out > 0
        return out

    def infer(self, x: Array) -> Array:
        out: Array = np.fmax(x, 0.0)
        out += 0.0
        return out

    def backward(self, grad_out: Array) -> Array:
        if self._mask is None:
            raise RuntimeError("backward() called before forward()")
        grad_out = np.asarray(grad_out, dtype=float)
        # All-ones where the unit was active, zero elsewhere; ANDed with
        # the gradient's bit pattern that keeps it or leaves +0.0, also
        # for a NaN or infinite gradient (which a 0/1 product would keep).
        keep = np.negative(self._mask.view(np.int8), dtype=np.int64)
        grad_in: Array = (keep & grad_out.view(np.int64)).view(np.float64)
        return grad_in


class Sequential(Layer):
    """Composition of layers applied in order."""

    def __init__(self, layers: List[Layer]) -> None:
        self.layers = list(layers)

    def forward(self, x: Array) -> Array:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def infer(self, x: Array) -> Array:
        for layer in self.layers:
            x = layer.infer(x)
        return x

    def backward(self, grad_out: Array) -> Array:
        for layer in reversed(self.layers):
            grad_out = layer.backward(grad_out)
        return grad_out

    def parameters(self) -> Iterator[Tuple[str, Array, Array]]:
        for i, layer in enumerate(self.layers):
            for name, value, grad in layer.parameters():
                yield f"{i}.{name}", value, grad

"""Optimizers operating in place on layer parameters.

An optimizer is bound to one :class:`~repro.learn.layers.Layer` or to an
:class:`~repro.learn.network.MLPStack`. Either way it sees parameters with
the *members* along axis 0 — a stack's ``(n, P)`` buffers as they are, a
layer's own arrays as the one member they belong to — so one ``step`` serves
both, and ``step(members)`` advances just a run of a stack's members, each
on its own step count. All state is allocated on a parameter's first step
and updated in place after that.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, Tuple, Union

import numpy as np

from repro.learn.layers import Layer

if TYPE_CHECKING:  # typing only; the stack is told apart by not being a Layer
    from repro.learn.network import MLPStack

Array = np.ndarray

_EVERY_MEMBER = slice(None)


class Optimizer:
    """Base optimizer bound to a model's parameters."""

    def __init__(self, model: Union[Layer, MLPStack], lr: float) -> None:
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.model = model
        self.lr = lr
        self._state: Dict[str, Tuple[Array, ...]] = {}

    def _params(self) -> Iterator[Tuple[str, Array, Array]]:
        """``(name, value, grad)`` triples, members along axis 0. The views
        are taken anew on every call: re-homing a layer's arrays into a
        stack between two steps does not leave the optimizer behind."""
        if isinstance(self.model, Layer):
            for name, value, grad in self.model.parameters():
                yield name, value[None], grad[None]
        else:
            yield "stack", self.model.params, self.model.grads

    def _slots(self, name: str, like: Array, count: int) -> Tuple[Array, ...]:
        """The ``count`` state arrays of parameter ``name``, zero when new."""
        slots = self._state.get(name)
        if slots is None:
            slots = tuple(np.zeros_like(like) for _ in range(count))
            self._state[name] = slots
        return slots

    def zero_grad(self) -> None:
        for _, __, grad in self._params():
            grad.fill(0.0)

    def step(self, members: slice = _EVERY_MEMBER) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(
        self,
        model: Union[Layer, MLPStack],
        lr: float = 1e-2,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(model, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if weight_decay < 0:
            raise ValueError("weight decay must be non-negative")
        self.momentum = momentum
        self.weight_decay = weight_decay

    def step(self, members: slice = _EVERY_MEMBER) -> None:
        for name, value, grad in self._params():
            update = grad[members]
            if self.weight_decay:
                update = update + self.weight_decay * value[members]
            if self.momentum:
                vel = self._slots(name, value, 1)[0][members]
                vel *= self.momentum
                vel += update
                update = vel
            value = value[members]
            value -= self.lr * update


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba) with bias correction."""

    def __init__(
        self,
        model: Union[Layer, MLPStack],
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(model, lr)
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError("betas must lie in [0, 1)")
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._t = [0] * (
            1 if isinstance(model, Layer) else len(model.models)
        )

    def step(self, members: slice = _EVERY_MEMBER) -> None:
        steps = [t + 1 for t in self._t[members]]
        self._t[members] = steps
        # Python-float powers, as a scalar step count always took them;
        # one correction per member, broadcast along its row.
        bc1 = np.array([1.0 - self.beta1**t for t in steps])
        bc2 = np.array([1.0 - self.beta2**t for t in steps])
        for name, value, grad in self._params():
            m, v, first, second = (
                slot[members] for slot in self._slots(name, value, 4)
            )
            value, grad = value[members], grad[members]
            column = (-1,) + (1,) * (value.ndim - 1)
            if self.weight_decay:
                grad = grad + self.weight_decay * value
            # m = beta1 m + (1 - beta1) g;  v = beta2 v + (1 - beta2) g²
            np.multiply(grad, 1.0 - self.beta1, out=first)
            m *= self.beta1
            m += first
            np.square(grad, out=second)
            second *= 1.0 - self.beta2
            v *= self.beta2
            v += second
            # value -= lr (m / bc1) / (sqrt(v / bc2) + eps)
            np.divide(m, bc1.reshape(column), out=first)
            first *= self.lr
            np.divide(v, bc2.reshape(column), out=second)
            np.sqrt(second, out=second)
            second += self.eps
            first /= second
            value -= first

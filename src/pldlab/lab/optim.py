"""Adaptive-moment optimizer with decoupled weight decay and bias correction.

A step updates the parameter arrays and both moment arrays in place, with
two scratch buffers kept in the state, so it allocates no array of the
parameters' size.  Given one flat parameter vector (``MlpModel.params``)
and one flat gradient, a step is one pass over every layer at once; the
arithmetic is elementwise, so the bits do not depend on how the
parameters are split into arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["OptimizerConfig", "OptimizerState", "init_optimizer", "step_optimizer"]


@dataclass(frozen=True)
class OptimizerConfig:
    """Optimizer settings; construction rejects out-of-range fields."""

    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.01

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("betas must lie in [0, 1)")
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        if not self.weight_decay >= 0:
            raise ValueError("weight_decay must be nonnegative")


@dataclass
class OptimizerState:
    """Step count, one first- and one second-moment array per parameter
    array (updated in place), and two flat scratch buffers as long as the
    largest parameter array."""

    step: int
    m: list
    v: list
    scratch: tuple


def init_optimizer(params) -> OptimizerState:
    size = max((p.size for p in params), default=0)
    return OptimizerState(
        step=0,
        m=[np.zeros_like(p) for p in params],
        v=[np.zeros_like(p) for p in params],
        scratch=(np.empty(size), np.empty(size)),
    )


def step_optimizer(params, grads, state: OptimizerState, cfg: OptimizerConfig):
    """One update of the parameter arrays and moments in place; returns
    (params, state) with the same parameter list.

    The update is m = beta1*m + (1-beta1)*g, v = beta2*v + ((1-beta2)*g)*g,
    p -= lr * ((m/bc1) / (sqrt(v/bc2) + eps) + weight_decay*p), evaluated
    operation by operation into the state's scratch buffers.

    With zero moment state the first update direction for a parameter p with
    gradient g is -lr * (g / (|g| + eps) + weight_decay * p), i.e. a
    sign-scaled step: bias correction cancels the (1 - beta) factors.
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError("parameter, gradient, and state lists must align")
    state.step += 1
    t = state.step
    bc1 = 1.0 - cfg.beta1**t
    bc2 = 1.0 - cfg.beta2**t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if p.shape != g.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {p.shape}")
        a, b = (buf[: p.size].reshape(p.shape) for buf in state.scratch)
        m *= cfg.beta1
        np.multiply(g, 1.0 - cfg.beta1, out=a)
        m += a
        v *= cfg.beta2
        np.multiply(g, 1.0 - cfg.beta2, out=a)
        a *= g
        v += a
        np.divide(v, bc2, out=a)
        np.sqrt(a, out=a)
        a += cfg.eps  # the denominator
        np.divide(m, bc1, out=b)
        b /= a
        np.multiply(p, cfg.weight_decay, out=a)
        b += a  # the step
        b *= cfg.learning_rate
        p -= b
    return params, state

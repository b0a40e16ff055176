"""Adaptive-moment optimizer with decoupled weight decay and bias correction.

A step updates one flat parameter vector (``MlpModel.params``) and both
moment vectors in place from one flat gradient, with two scratch buffers
kept in the state, so it allocates no array of the parameters' size.  The
arithmetic is elementwise, so one pass covers every layer at once and the
bits do not depend on how the layers are laid out in the vector.
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
    """Step count, the first- and second-moment vectors (updated in place)
    and two scratch buffers, all shaped like the parameter vector."""

    step: int
    m: np.ndarray
    v: np.ndarray
    scratch: tuple


def init_optimizer(params: np.ndarray) -> OptimizerState:
    return OptimizerState(
        step=0,
        m=np.zeros_like(params),
        v=np.zeros_like(params),
        scratch=(np.empty_like(params), np.empty_like(params)),
    )


def step_optimizer(params, grad, state: OptimizerState, cfg: OptimizerConfig):
    """One update of the parameter vector and moments in place; returns
    (params, state).

    The update is m = beta1*m + (1-beta1)*g, v = beta2*v + ((1-beta2)*g)*g,
    p -= lr * ((m/bc1) / (sqrt(v/bc2) + eps) + weight_decay*p), evaluated
    operation by operation into the state's scratch buffers.

    With zero moment state the first update direction for a parameter p with
    gradient g is -lr * (g / (|g| + eps) + weight_decay * p), i.e. a
    sign-scaled step: bias correction cancels the (1 - beta) factors.
    """
    p, g, m, v = params, grad, state.m, state.v
    if not p.shape == g.shape == m.shape == v.shape:
        raise ValueError(f"gradient and moment shapes must equal parameter shape {p.shape}")
    state.step += 1
    t = state.step
    bc1 = 1.0 - cfg.beta1**t
    bc2 = 1.0 - cfg.beta2**t
    a, b = state.scratch
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

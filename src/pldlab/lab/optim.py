"""Adaptive-moment optimizer with decoupled weight decay and bias correction."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["OptimizerConfig", "OptimizerState", "init_optimizer", "step_optimizer"]


@dataclass(frozen=True)
class OptimizerConfig:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.01

    def validate(self) -> "OptimizerConfig":
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("betas must lie in [0, 1)")
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be nonnegative")
        return self


@dataclass
class OptimizerState:
    step: int
    m: list
    v: list


def init_optimizer(params) -> OptimizerState:
    return OptimizerState(
        step=0,
        m=[np.zeros_like(p) for p in params],
        v=[np.zeros_like(p) for p in params],
    )


def step_optimizer(params, grads, state: OptimizerState, cfg: OptimizerConfig):
    """One update of the parameter arrays and moments in place; returns
    (params, state) with the same parameter list.

    With zero moment state the first update direction for a parameter p with
    gradient g is -lr * (g / (|g| + eps) + weight_decay * p), i.e. a
    sign-scaled step: bias correction cancels the (1 - beta) factors.
    """
    cfg = cfg.validate()
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError("parameter, gradient, and state lists must align")
    state.step += 1
    t = state.step
    bc1 = 1.0 - cfg.beta1**t
    bc2 = 1.0 - cfg.beta2**t
    for i, (p, g) in enumerate(zip(params, grads)):
        if p.shape != g.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {p.shape}")
        state.m[i] = cfg.beta1 * state.m[i] + (1.0 - cfg.beta1) * g
        state.v[i] = cfg.beta2 * state.v[i] + (1.0 - cfg.beta2) * g * g
        m_hat = state.m[i] / bc1
        v_hat = state.v[i] / bc2
        step = m_hat / (np.sqrt(v_hat) + cfg.eps) + cfg.weight_decay * p
        p -= cfg.learning_rate * step
    return params, state

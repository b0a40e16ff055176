"""Dense feed-forward classifier with hand-written backpropagation.

Hidden layers use rectified-linear activations; the output layer is linear
and produces logits.  Initial weights and biases for a layer with fan_in
inputs are drawn uniformly from [-1/sqrt(fan_in), 1/sqrt(fan_in)], layer by
layer (weights row-major, then biases), from the caller's generator.

Models serialize to a versioned JSON document: layer sizes plus row-major
weight and bias arrays.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .io import atomic_write_text

__all__ = [
    "MlpModel",
    "init_mlp",
    "forward",
    "forward_trace",
    "backward",
    "model_to_dict",
    "model_from_dict",
    "save_model",
    "load_model",
    "MODEL_FORMAT_VERSION",
]

MODEL_FORMAT_VERSION = 1


@dataclass
class MlpModel:
    layer_sizes: tuple
    weights: list  # weights[l] has shape (layer_sizes[l], layer_sizes[l+1])
    biases: list

    @property
    def in_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def out_dim(self) -> int:
        return self.layer_sizes[-1]


def init_mlp(layer_sizes, rng: np.random.Generator) -> MlpModel:
    sizes = tuple(int(s) for s in layer_sizes)
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise ValueError(f"invalid layer sizes {sizes}")
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(rng.uniform(-bound, bound, size=fan_out))
    return MlpModel(layer_sizes=sizes, weights=weights, biases=biases)


def _check_input(model: MlpModel, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.in_dim:
        raise ValueError(f"expected input of shape (N, {model.in_dim}), got {x.shape}")
    return x


def forward_trace(model: MlpModel, x):
    """Logits plus the post-activation output of every layer (input first)."""
    x = _check_input(model, x)
    acts = [x]
    h = x
    last = len(model.weights) - 1
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        h = h @ w + b
        if l < last:
            h = np.maximum(h, 0.0)
        acts.append(h)
    return h, acts


def forward(model: MlpModel, x) -> np.ndarray:
    """Deterministic logits for a batch of feature rows."""
    return forward_trace(model, x)[0]


def backward(model: MlpModel, x, grad_logits):
    """Parameter gradients for an upstream gradient on the logits.

    Returns one (dW, db) pair per layer, matching the shapes of
    ``model.weights`` and ``model.biases``.
    """
    _, acts = forward_trace(model, x)
    g = np.asarray(grad_logits, dtype=np.float64)
    if g.shape != acts[-1].shape:
        raise ValueError(f"gradient shape {g.shape} != logits shape {acts[-1].shape}")
    grads = [None] * len(model.weights)
    for l in range(len(model.weights) - 1, -1, -1):
        grads[l] = (acts[l].T @ g, g.sum(axis=0))
        if l > 0:
            g = g @ model.weights[l].T
            g = np.where(acts[l] > 0, g, 0.0)  # relu mask
    return grads


def model_to_dict(model: MlpModel) -> dict:
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "layer_sizes": list(model.layer_sizes),
        "weights": [w.ravel().tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
    }


def model_from_dict(doc: dict) -> MlpModel:
    """The model a document describes; ValueError for any malformed document."""
    if not isinstance(doc, dict):
        raise ValueError("a model document must be a JSON object")
    if doc.get("format_version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {doc.get('format_version')!r}")
    try:
        sizes = tuple(int(s) for s in doc["layer_sizes"])
        weights, biases = [], []
        for l, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            w = np.asarray(doc["weights"][l], dtype=np.float64).reshape(fan_in, fan_out)
            b = np.asarray(doc["biases"][l], dtype=np.float64)
            if b.shape != (fan_out,):
                raise ValueError("bias length does not match layer sizes")
            weights.append(w)
            biases.append(b)
    except (KeyError, IndexError, TypeError) as exc:
        raise ValueError(f"malformed model document: missing or mistyped {exc}") from exc
    if not all(np.isfinite(w).all() for w in weights) or not all(
        np.isfinite(b).all() for b in biases
    ):
        raise ValueError("model parameters contain non-finite values")
    return MlpModel(layer_sizes=sizes, weights=weights, biases=biases)


def save_model(model: MlpModel, path) -> None:
    atomic_write_text(path, json.dumps(model_to_dict(model)))


def load_model(path) -> MlpModel:
    with open(path) as fh:
        return model_from_dict(json.load(fh))

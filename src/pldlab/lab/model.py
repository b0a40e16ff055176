"""Dense feed-forward classifier with hand-written backpropagation.

Hidden layers use rectified-linear activations; the output layer is linear
and produces logits.  Initial weights and biases for a layer with fan_in
inputs are drawn uniformly from [-1/sqrt(fan_in), 1/sqrt(fan_in)], layer by
layer (weights row-major, then biases), from the caller's generator.

A model keeps every parameter in one contiguous float64 vector,
``model.params``, laid out layer by layer as the row-major weights and then
the biases.  ``weights[l]`` and ``biases[l]`` are C-contiguous views into
it, so a write through either one is a write to the vector, and an optimizer
step on the vector updates every layer.  ``backward`` writes its gradient in
the same layout.

Models serialize to a versioned JSON document: layer sizes plus row-major
weight and bias arrays.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "MlpModel",
    "init_mlp",
    "forward",
    "forward_trace",
    "backward",
    "model_to_dict",
    "model_from_dict",
    "load_model",
    "MODEL_FORMAT_VERSION",
]

MODEL_FORMAT_VERSION = 1


def _layer_views(flat: np.ndarray, sizes: tuple):
    """(weights, biases): per-layer C-contiguous views into ``flat``."""
    weights, biases = [], []
    lo = 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        hi = lo + fan_in * fan_out
        weights.append(flat[lo:hi].reshape(fan_in, fan_out))
        biases.append(flat[hi : hi + fan_out])
        lo = hi + fan_out
    return weights, biases


@dataclass
class MlpModel:
    """Layer sizes and parameters.

    Construction copies the given weights (``weights[l]`` of shape
    ``(layer_sizes[l], layer_sizes[l+1])``) and biases into one new flat
    vector, ``params``, and rebinds both lists to views into it.
    """

    layer_sizes: tuple
    weights: list
    biases: list
    params: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        sizes = tuple(self.layer_sizes)
        n = sum(i * o + o for i, o in zip(sizes[:-1], sizes[1:]))
        self.params = np.empty(n)
        weights, biases = _layer_views(self.params, sizes)
        if len(self.weights) != len(weights) or len(self.biases) != len(biases):
            raise ValueError(f"expected {len(weights)} layers for layer sizes {sizes}")
        for view, given in zip(weights + biases, list(self.weights) + list(self.biases)):
            given = np.asarray(given, dtype=np.float64)
            if given.shape != view.shape:
                raise ValueError(f"parameter shape {given.shape} != {view.shape}")
            view[...] = given
        self.weights, self.biases = weights, biases

    @property
    def in_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def out_dim(self) -> int:
        return self.layer_sizes[-1]


def init_mlp(layer_sizes, rng: np.random.Generator) -> MlpModel:
    """A model with fresh uniform parameters in one flat vector."""
    sizes = tuple(int(s) for s in layer_sizes)
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise ValueError(f"invalid layer sizes {sizes}")
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(rng.uniform(-bound, bound, size=fan_out))
    return MlpModel(layer_sizes=sizes, weights=weights, biases=biases)


def forward_trace(model: MlpModel, x):
    """Logits plus the post-activation output of every layer (input first).

    Each layer's output is one new array, computed in place: the product,
    then the bias added and the ReLU applied to it.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.in_dim:
        raise ValueError(f"expected input of shape (N, {model.in_dim}), got {x.shape}")
    acts = [x]
    h = x
    last = len(model.weights) - 1
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        h = h @ w
        h += b
        if l < last:
            np.maximum(h, 0.0, out=h)
        acts.append(h)
    return h, acts


def forward(model: MlpModel, x) -> np.ndarray:
    """Deterministic logits for a batch of feature rows."""
    return forward_trace(model, x)[0]


def backward(model: MlpModel, grad_logits, acts, out=None):
    """Parameter gradients for an upstream gradient on the logits.

    ``acts`` is the activation list ``forward_trace`` returned for the batch
    whose logits ``grad_logits`` belongs to; no forward pass runs here.
    The gradient is written into ``out``, a flat vector laid out like
    ``model.params`` (a new one when ``out`` is None).  Returns one
    (dW, db) pair of views into it per layer, shaped like
    ``model.weights`` and ``model.biases``.
    """
    g = np.asarray(grad_logits, dtype=np.float64)
    if g.shape != acts[-1].shape:
        raise ValueError(f"gradient shape {g.shape} != logits shape {acts[-1].shape}")
    if out is None:
        out = np.empty_like(model.params)
    elif out.shape != model.params.shape:
        raise ValueError(f"gradient vector shape {out.shape} != {model.params.shape}")
    dws, dbs = _layer_views(out, model.layer_sizes)
    for l in range(len(dws) - 1, -1, -1):
        np.matmul(acts[l].T, g, out=dws[l])
        np.sum(g, axis=0, out=dbs[l])
        if l > 0:
            g = g @ model.weights[l].T
            g *= acts[l] > 0  # relu mask; a dead unit's gradient may be -0.0
    return list(zip(dws, dbs))


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
        shapes = list(zip(sizes[:-1], sizes[1:]))
        model = MlpModel(
            layer_sizes=sizes,
            weights=[
                np.asarray(doc["weights"][l], dtype=np.float64).reshape(shape)
                for l, shape in enumerate(shapes)
            ],
            biases=[doc["biases"][l] for l in range(len(shapes))],
        )
    except (KeyError, IndexError, TypeError) as exc:
        raise ValueError(f"malformed model document: missing or mistyped {exc}") from exc
    if not np.isfinite(model.params).all():
        raise ValueError("model parameters contain non-finite values")
    return model


def load_model(path) -> MlpModel:
    with open(path) as fh:
        return model_from_dict(json.load(fh))

"""Synthetic Gaussian-blob classification data.

Cluster centers sit at standard-normal positions in feature space, so class
overlap is controlled by ``spread`` (the within-cluster standard deviation)
relative to the typical center separation sqrt(2 * dim).  Label noise
reassigns a fraction of labels uniformly at random over all classes, which
caps the reachable test accuracy at (1 - rate) + rate / n_classes.

All draws come from one counter-based generator in a fixed order (centers,
train features, test features, train noise, test noise), so a given seed
reproduces the dataset bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..numerics import make_rng

__all__ = ["SyntheticDataset", "make_blobs"]


@dataclass(frozen=True)
class SyntheticDataset:
    train_features: np.ndarray
    train_labels: np.ndarray
    test_features: np.ndarray
    test_labels: np.ndarray
    centers: np.ndarray
    n_classes: int
    dim: int
    spread: float
    noise_rate: float
    seed: int


def make_blobs(
    n_classes: int = 10,
    dim: int = 16,
    train_per_class: int = 500,
    test_per_class: int = 200,
    spread: float = 1.0,
    noise_rate: float = 0.0,
    seed: int = 0,
) -> SyntheticDataset:
    """Deterministic train/test Gaussian blobs with optional label noise."""
    if n_classes < 2:
        raise ValueError("need at least 2 classes")
    if dim < 2:
        raise ValueError("need at least 2 feature dimensions")
    if train_per_class < 1 or test_per_class < 1:
        raise ValueError("per-class example counts must be positive")
    if spread < 0:
        raise ValueError("spread must be nonnegative")
    if not 0.0 <= noise_rate < 1.0:
        raise ValueError("noise_rate must lie in [0, 1)")

    rng = make_rng(seed)
    centers = rng.standard_normal((n_classes, dim))

    def split(per_class):
        rows = n_classes * per_class
        if rows >= 2**60:  # 2**63 bytes of labels; near 2**63 np.repeat's length overflows
            raise MemoryError(f"a split of {rows} rows is beyond numpy's largest array")
        labels = np.repeat(np.arange(n_classes), per_class)
        with np.errstate(over="ignore"):  # an overflowing spread is refused below
            feats = centers[labels] + spread * rng.standard_normal((labels.shape[0], dim))
        if not np.isfinite(feats).all():
            raise ValueError(f"spread {spread} puts features beyond the float64 range")
        return feats, labels

    train_x, train_y = split(train_per_class)
    test_x, test_y = split(test_per_class)

    def corrupt(labels):
        flip = rng.random(labels.shape[0]) < noise_rate
        drawn = rng.integers(0, n_classes, size=labels.shape[0])
        return np.where(flip, drawn, labels)

    train_y = corrupt(train_y)
    test_y = corrupt(test_y)

    return SyntheticDataset(
        train_features=train_x,
        train_labels=train_y,
        test_features=test_x,
        test_labels=test_y,
        centers=centers,
        n_classes=n_classes,
        dim=dim,
        spread=float(spread),
        noise_rate=float(noise_rate),
        seed=int(seed),
    )

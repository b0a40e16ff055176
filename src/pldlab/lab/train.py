"""Teacher training and student distillation loops.

Runs are deterministic functions of (config, seed): parameter init and
minibatch shuffling come from one counter-based generator, the data loader
walks a fixed order, and batch losses reduce sequentially.  A non-finite
batch loss or test logit, or an optimizer step that overflows, aborts the
run immediately rather than writing poisoned metrics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..losses import (DistillLossConfig, ce_loss, evaluate_loss, standardize_rows,
                      student_teacher_kl, teacher_targets)
from ..numerics import make_rng
from .data import SyntheticDataset
from .model import MlpModel, backward, forward, forward_trace, init_mlp
from .optim import OptimizerConfig, init_optimizer, step_optimizer

__all__ = [
    "TrainingFailure",
    "EpochRecord",
    "DistillRun",
    "train_teacher",
    "distill_student",
    "check_distill",
    "accuracy",
    "metrics_to_csv",
    "METRICS_HEADER",
]

METRICS_HEADER = "epoch,train_loss,test_top1,teacher_kl"


class TrainingFailure(RuntimeError):
    """Raised when a training run produces non-finite logits or a non-finite loss."""


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    test_top1: float
    teacher_kl: float | None = None


@dataclass
class DistillRun:
    records: list
    model: MlpModel
    step_losses: list


def _top1(logits, labels) -> float:
    return float((np.argmax(logits, axis=1) == np.asarray(labels)).mean())


def accuracy(model: MlpModel, features, labels) -> float:
    return _top1(forward(model, features), labels)


def _run_epochs(dataset: SyntheticDataset, layer_sizes, loss_fn, opt_cfg: OptimizerConfig | None,
                epochs: int, seed: int, batch_size: int, teacher_kl=None) -> DistillRun:
    """Train a freshly seeded model.  ``teacher_kl`` maps each epoch's test
    logits to its ``teacher_kl`` column; None leaves the column empty."""
    opt_cfg = opt_cfg or OptimizerConfig()
    rng = make_rng(seed)
    model = init_mlp(layer_sizes, rng)
    n = dataset.train_features.shape[0]
    grad = np.empty_like(model.params)
    state = init_optimizer(model.params)
    records = []
    step_losses = []
    for epoch in range(epochs):
        order = rng.permutation(n)
        first = len(step_losses)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            yb = dataset.train_labels[idx]
            with np.errstate(over="ignore", invalid="ignore"):
                logits, acts = forward_trace(model, dataset.train_features[idx])
            if not np.isfinite(logits).all():
                raise TrainingFailure(f"non-finite logits at epoch {epoch}")
            result = loss_fn(logits, idx, yb)
            if not np.isfinite(result.loss):
                raise TrainingFailure(f"non-finite loss at epoch {epoch}")
            backward(model, result.grad, acts, out=grad)
            try:  # a moment that overflows to inf would stall Adam without a failure
                with np.errstate(over="raise"):
                    step_optimizer(model.params, grad, state, opt_cfg)
            except FloatingPointError:
                raise TrainingFailure(f"optimizer step overflowed at epoch {epoch}") from None
            step_losses.append(result.loss)
        with np.errstate(over="ignore", invalid="ignore"):
            test_logits = forward(model, dataset.test_features)
        if not np.isfinite(test_logits).all():
            raise TrainingFailure(f"non-finite test logits at epoch {epoch}")
        records.append(
            EpochRecord(
                epoch=epoch,
                train_loss=float(np.mean(step_losses[first:])),
                test_top1=_top1(test_logits, dataset.test_labels),
                teacher_kl=None if teacher_kl is None else teacher_kl(test_logits),
            )
        )
    return DistillRun(records=records, model=model, step_losses=step_losses)


def train_teacher(
    dataset: SyntheticDataset,
    layer_sizes,
    opt_cfg: OptimizerConfig | None = None,
    epochs: int = 40,
    seed: int = 0,
    batch_size: int = 128,
):
    """Cross-entropy training from scratch; returns (model, epoch records)."""
    if int(layer_sizes[-1]) != dataset.n_classes:
        raise ValueError(
            f"output width {layer_sizes[-1]} != {dataset.n_classes} classes"
        )
    if batch_size < 1:
        raise ValueError(f"batch_size must be at least 1, got {batch_size}")

    def loss_fn(logits, idx, yb):
        return ce_loss(logits, yb)

    run = _run_epochs(dataset, layer_sizes, loss_fn, opt_cfg, epochs, seed, batch_size)
    return run.model, run.records


def _teacher_logits(teacher: MlpModel, x, block: int) -> np.ndarray:
    """Logits in index-order blocks of ``block`` rows (a batch's GEMM shape), all finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        blocks = [forward(teacher, x[lo : lo + block]) for lo in range(0, len(x), block)]
    logits = np.concatenate(blocks)
    if not np.isfinite(logits).all():
        raise TrainingFailure("non-finite teacher logits")
    return logits


def distill_student(
    dataset: SyntheticDataset,
    teacher: MlpModel,
    layer_sizes,
    loss_cfg: DistillLossConfig,
    opt_cfg: OptimizerConfig | None = None,
    epochs: int = 30,
    seed: int = 0,
    batch_size: int = 128,
) -> DistillRun:
    """Train a student under any configured objective against a frozen
    teacher, whose logits and loss targets are computed once per run."""
    check_distill(dataset, teacher, layer_sizes, loss_cfg, batch_size)
    test_t = _teacher_logits(teacher, dataset.test_features, len(dataset.test_features))
    if loss_cfg.standardize != "none":  # teacher_kl compares the logits the loss sees
        test_t = standardize_rows(test_t)
    both = loss_cfg.standardize == "both"
    train_t = None
    if loss_cfg.needs_teacher:
        train_t = _teacher_logits(teacher, dataset.train_features, batch_size)
    targets = teacher_targets(loss_cfg, train_t, dataset.train_labels)

    def loss_fn(logits, idx, yb):
        batch = None if targets is None else [a[idx] for a in targets]
        return evaluate_loss(loss_cfg, logits, None, yb, targets=batch)

    def teacher_kl(test_logits):
        return student_teacher_kl(standardize_rows(test_logits) if both else test_logits, test_t)

    return _run_epochs(
        dataset, layer_sizes, loss_fn, opt_cfg, epochs, seed, batch_size, teacher_kl
    )


def check_distill(
    dataset: SyntheticDataset,
    teacher: MlpModel,
    layer_sizes,
    loss_cfg: DistillLossConfig,
    batch_size: int,
) -> None:
    """Raise ValueError unless every batch of this distillation can be scored.

    The logit widths must match, and dist with an intra-class term (gamma >
    0) needs at least two rows in every batch, the last one included.
    """
    if teacher.out_dim != dataset.n_classes or int(layer_sizes[-1]) != dataset.n_classes:
        raise ValueError(
            f"logit widths must match: teacher {teacher.out_dim}, "
            f"student {layer_sizes[-1]}, dataset {dataset.n_classes}"
        )
    if teacher.in_dim != dataset.dim:
        raise ValueError(f"teacher input width {teacher.in_dim} != data dim {dataset.dim}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be at least 1, got {batch_size}")
    n = dataset.train_features.shape[0]
    if (n % batch_size or batch_size) < loss_cfg.min_batch_rows:  # the smallest batch
        raise ValueError(
            f"dist with dist_gamma > 0 needs batches of at least 2 rows; "
            f"{n} examples in batches of {batch_size} leave a batch of 1"
        )


def metrics_to_csv(records) -> str:
    """Render epoch records in the fixed metrics schema (repr-exact floats)."""
    lines = [METRICS_HEADER]
    for r in records:
        kl = "" if r.teacher_kl is None else repr(float(r.teacher_kl))
        lines.append(f"{r.epoch},{float(r.train_loss)!r},{float(r.test_top1)!r},{kl}")
    return "\n".join(lines) + "\n"

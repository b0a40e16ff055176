"""Teacher training and student distillation loops.

Runs are deterministic functions of (config, seed): parameter init and
minibatch shuffling come from one counter-based generator, the data loader
walks a fixed order, and batch losses reduce sequentially.  A non-finite
batch loss aborts the run immediately rather than writing poisoned metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..losses import DistillLossConfig, ce_loss, evaluate_loss, student_teacher_kl
from ..numerics import make_rng
from .data import SyntheticDataset
from .model import MlpModel, backward, forward, init_mlp
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
    """Raised when a training run produces a non-finite loss."""


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
    step_losses: list = field(default_factory=list)


def accuracy(model: MlpModel, features, labels) -> float:
    logits = forward(model, features)
    return float((np.argmax(logits, axis=1) == np.asarray(labels)).mean())


def _run_epochs(
    dataset: SyntheticDataset,
    model: MlpModel,
    loss_fn,
    opt_cfg: OptimizerConfig,
    epochs: int,
    batch_size: int,
    rng: np.random.Generator,
    teacher: MlpModel | None,
):
    n = dataset.train_features.shape[0]
    params = [p for layer in zip(model.weights, model.biases) for p in layer]
    state = init_optimizer(params)
    records = []
    step_losses = []
    test_teacher_logits = (
        forward(teacher, dataset.test_features) if teacher is not None else None
    )
    for epoch in range(epochs):
        order = rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            xb = dataset.train_features[idx]
            yb = dataset.train_labels[idx]
            with np.errstate(over="ignore", invalid="ignore"):
                logits = forward(model, xb)
            if not np.isfinite(logits).all():
                raise TrainingFailure(f"non-finite logits at epoch {epoch}")
            result = loss_fn(logits, xb, yb)
            if not np.isfinite(result.loss):
                raise TrainingFailure(f"non-finite loss at epoch {epoch}")
            grads = backward(model, xb, result.grad)
            step_optimizer(params, [g for layer in grads for g in layer], state, opt_cfg)
            epoch_losses.append(result.loss)
            step_losses.append(result.loss)
        test_top1 = accuracy(model, dataset.test_features, dataset.test_labels)
        kl = None
        if test_teacher_logits is not None:
            student_test = forward(model, dataset.test_features)
            kl = student_teacher_kl(student_test, test_teacher_logits)
        records.append(
            EpochRecord(
                epoch=epoch,
                train_loss=float(np.mean(epoch_losses)),
                test_top1=test_top1,
                teacher_kl=kl,
            )
        )
    return records, step_losses


def train_teacher(
    dataset: SyntheticDataset,
    layer_sizes,
    opt_cfg: OptimizerConfig | None = None,
    epochs: int = 40,
    seed: int = 0,
    batch_size: int = 128,
):
    """Cross-entropy training from scratch; returns (model, epoch records)."""
    opt_cfg = opt_cfg or OptimizerConfig()
    if int(layer_sizes[-1]) != dataset.n_classes:
        raise ValueError(
            f"output width {layer_sizes[-1]} != {dataset.n_classes} classes"
        )
    rng = make_rng(seed)
    model = init_mlp(layer_sizes, rng)

    def loss_fn(logits, xb, yb):
        return ce_loss(logits, yb)

    records, _ = _run_epochs(
        dataset, model, loss_fn, opt_cfg, epochs, batch_size, rng, teacher=None
    )
    return model, records


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
    """Train a student under any configured objective against a frozen teacher."""
    opt_cfg = opt_cfg or OptimizerConfig()
    check_distill(dataset, teacher, layer_sizes, loss_cfg, batch_size)
    rng = make_rng(seed)
    model = init_mlp(layer_sizes, rng)

    def loss_fn(logits, xb, yb):
        t_logits = forward(teacher, xb) if loss_cfg.needs_teacher else logits
        return evaluate_loss(loss_cfg, logits, t_logits, yb)

    records, step_losses = _run_epochs(
        dataset, model, loss_fn, opt_cfg, epochs, batch_size, rng, teacher=teacher
    )
    return DistillRun(records=records, model=model, step_losses=step_losses)


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
    n = dataset.train_features.shape[0]
    if loss_cfg.kind == "dist" and loss_cfg.dist_gamma > 0 and 1 in (batch_size, n % batch_size):
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

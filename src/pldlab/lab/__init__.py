"""Desk-scale distillation pipeline: data, model, optimizer, training loops."""

from .data import SyntheticDataset, make_blobs
from .io import atomic_write_text
from .model import (
    MODEL_FORMAT_VERSION,
    MlpModel,
    backward,
    forward,
    forward_trace,
    init_mlp,
    load_model,
    model_from_dict,
    model_to_dict,
)
from .optim import OptimizerConfig, OptimizerState, init_optimizer, step_optimizer
from .train import (
    METRICS_HEADER,
    DistillRun,
    EpochRecord,
    TrainingFailure,
    accuracy,
    distill_student,
    metrics_to_csv,
    train_teacher,
)

__all__ = [
    "SyntheticDataset",
    "make_blobs",
    "atomic_write_text",
    "MODEL_FORMAT_VERSION",
    "MlpModel",
    "backward",
    "forward",
    "forward_trace",
    "init_mlp",
    "load_model",
    "model_from_dict",
    "model_to_dict",
    "OptimizerConfig",
    "OptimizerState",
    "init_optimizer",
    "step_optimizer",
    "METRICS_HEADER",
    "DistillRun",
    "EpochRecord",
    "TrainingFailure",
    "accuracy",
    "distill_student",
    "metrics_to_csv",
    "train_teacher",
]

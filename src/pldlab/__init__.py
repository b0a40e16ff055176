"""Ranking-based knowledge distillation losses and their verification tools.

The package is organized bottom-up:

* ``numerics``  -- stable softmax / log-sum-exp primitives, deterministic
  sorting, seeded counter-based RNG.
* ``ranking``   -- the permutation model: teacher-optimal orderings, exact
  likelihoods, and a brute-force enumerator for small class counts.
* ``losses``    -- loss kernels with closed-form gradients (CE, label
  smoothing, KL/JS distillation, correlation matching, weighted ranking
  likelihood) plus a finite-difference gradient checker.
* ``lab``       -- a desk-scale distillation pipeline: synthetic blob data,
  a small MLP with hand-written backprop, one optimizer, teacher training
  and student distillation with per-epoch metrics.
* ``landscape`` -- 2-D loss surfaces over random orthonormal directions in
  logit space, with convexity probes and temperature sweeps.
* ``bench``     -- wall-clock loss+gradient timings.

The ``pldlab`` command line exposes the same capabilities; see the README.
"""

from .numerics import (
    argsort_stable,
    log_cumsum_exp,
    log_softmax,
    log_sum_exp,
    make_rng,
    softmax,
)
from .ranking import (
    EnumerationLimitError,
    pl_enumerate,
    pl_log_likelihood,
    teacher_optimal_permutation,
)
from .losses import (
    DistillLossConfig,
    LossResult,
    ce_loss,
    default_loss_config,
    dist_loss,
    evaluate_loss,
    grad_check,
    kd_loss,
    ls_loss,
    make_weights,
    pld_gradient_closed_form,
    pld_loss,
    standardize_rows,
    student_teacher_kl,
    teacher_targets,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "argsort_stable",
    "log_cumsum_exp",
    "log_softmax",
    "log_sum_exp",
    "make_rng",
    "softmax",
    "EnumerationLimitError",
    "pl_enumerate",
    "pl_log_likelihood",
    "teacher_optimal_permutation",
    "DistillLossConfig",
    "LossResult",
    "ce_loss",
    "default_loss_config",
    "dist_loss",
    "evaluate_loss",
    "grad_check",
    "kd_loss",
    "ls_loss",
    "make_weights",
    "pld_gradient_closed_form",
    "pld_loss",
    "standardize_rows",
    "student_teacher_kl",
    "teacher_targets",
]

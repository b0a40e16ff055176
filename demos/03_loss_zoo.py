"""Every distillation objective on one small batch.

The weighted ranking loss (pld) subsumes the classics through its weight
scheme: all mass on the first pick gives plain cross-entropy, uniform
weights give a scaled ranking likelihood, and the fixed position-decay
schedule gives the position-aware variant.
"""

import numpy as np

from pldlab import (
    ce_loss,
    default_loss_config,
    evaluate_loss,
    make_rng,
    make_weights,
    pld_loss,
    student_teacher_kl,
    teacher_optimal_permutation,
)

rng = make_rng(3)
N, C = 4, 6
s = rng.normal(size=(N, C))
t = rng.normal(size=(N, C)) * 2
y = rng.integers(0, C, size=N)

# --- the zoo -----------------------------------------------------------------
print(f"{'kind':<10} {'loss':>10}")
for kind in ("ce", "ls", "kd", "dist", "listmle", "plistmle", "pld"):
    res = evaluate_loss(default_loss_config(kind), s, t, y)
    print(f"{kind:<10} {res.loss:>10.4f}")

# --- special cases -----------------------------------------------------------
print("\npld with one-hot weights == cross-entropy:",
      abs(pld_loss(s, t, y, scheme='onehot-first').loss - ce_loss(s, y).loss) < 1e-12)

sharp = pld_loss(s, t, y, tau_T=0.5).loss
flat = pld_loss(s, t, y, tau_T=4.0).loss
print(f"teacher temperature reshapes the weights: tau_T=0.5 -> {sharp:.4f}, "
      f"tau_T=4 -> {flat:.4f}")

# --- inspect the weights for one example --------------------------------------
pi = teacher_optimal_permutation(t[0], y[0])
for scheme in ("teacher-softmax", "uniform", "plistmle-exponential", "onehot-first"):
    w = make_weights(t[0], pi, scheme)
    print(f"{scheme:<22} weights {np.round(w, 3)}")

# --- distribution alignment metric --------------------------------------------
print("\nKL(teacher || student) on this batch:", round(student_teacher_kl(s, t), 4))
print("KL of a batch against itself:", student_teacher_kl(s, s))

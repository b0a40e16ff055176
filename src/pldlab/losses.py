"""Distillation loss kernels with closed-form gradients.

Every public loss takes a batch of student logits (N x C) plus whatever
targets it needs and returns a `LossResult`: the batch-mean loss, the
exact gradient with respect to the student logits and, when rows do not
interact, the per-row losses whose mean is the loss.  Gradients are what the
finite-difference checker validates; none of the kernels rely on automatic
differentiation.

Loss family:

* ``ce_loss`` / ``ls_loss``      -- hard-label cross-entropy, optionally
  against a label-smoothed target.
* ``kd_loss``                    -- temperature-scaled divergence between
  teacher and student softmax outputs (forward KL, reverse KL, or
  Jensen-Shannon), mixed with cross-entropy.
* ``dist_loss``                  -- correlation matching: per-example
  (inter-class) and per-class (intra-class) Pearson terms plus CE.
* ``pld_loss``                   -- weighted ranking likelihood of the
  teacher-optimal permutation; the weight scheme selects the plain
  teacher-confidence form or its cross-entropy / uniform / position-decay
  special cases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import (
    _log_cumsum_exp_rows,
    as_finite_matrix,
    as_finite_vector,
    as_labels,
    log_cumsum_exp,
    log_softmax,
    softmax,
)
from .ranking import as_ranking, ascending_rankings

__all__ = [
    "LossResult",
    "DistillLossConfig",
    "LOSS_KINDS",
    "DIVERGENCES",
    "STANDARDIZE_MODES",
    "WEIGHT_SCHEMES",
    "default_loss_config",
    "ce_loss",
    "ls_loss",
    "kd_loss",
    "dist_loss",
    "make_weights",
    "pld_loss",
    "pld_gradient_closed_form",
    "standardize_rows",
    "grad_check",
    "student_teacher_kl",
    "evaluate_loss",
]

LOSS_KINDS = ("ce", "ls", "kd", "dist", "listmle", "plistmle", "pld")
DIVERGENCES = ("forward-kl", "reverse-kl", "js")
STANDARDIZE_MODES = ("none", "both", "teacher-only")
WEIGHT_SCHEMES = ("teacher-softmax", "uniform", "plistmle-exponential", "onehot-first")

_PEARSON_EPS = 1e-8
_STD_EPS = 1e-8


@dataclass(frozen=True)
class LossResult:
    """Batch-mean loss and its gradient with respect to student logits.

    ``rows`` holds the N per-row losses whose mean is ``loss``, each equal
    bit for bit to the ``loss`` of a one-row call on that row.  It is None
    when rows are coupled (dist with an intra-class term, gamma > 0), so a
    row's loss is not defined on its own.  ``loss`` is always the kernel's
    own reduction, not recomputed from ``rows``.
    """

    loss: float
    grad: np.ndarray
    rows: np.ndarray | None = None


@dataclass(frozen=True)
class DistillLossConfig:
    """Fully-resolved description of one training objective.

    ``kd_temperature`` softens both distributions for the kd and dist kinds;
    ``teacher_temperature`` softens only the position weights of the pld
    kind.  ``ce_mix`` is the cross-entropy weight for kd and dist (the
    ranking losses have no separate CE term).  Construction raises
    ValueError for any out-of-range field.
    """

    kind: str = "pld"
    ce_mix: float = 0.1
    kd_temperature: float = 2.0
    teacher_temperature: float = 1.0
    dist_beta: float = 0.45
    dist_gamma: float = 0.45
    ls_epsilon: float = 0.1
    divergence: str = "forward-kl"
    standardize: str = "none"
    pld_scheme: str = "teacher-softmax"

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if self.pld_scheme not in WEIGHT_SCHEMES:
            raise ValueError(f"unknown weight scheme {self.pld_scheme!r}")
        if not 0.0 <= self.ce_mix <= 1.0:
            raise ValueError("ce_mix must lie in [0, 1]")
        if not self.kd_temperature > 0:
            raise ValueError("kd_temperature must be positive")
        if not self.teacher_temperature > 0:
            raise ValueError("teacher_temperature must be positive")
        if not (self.dist_beta >= 0 and self.dist_gamma >= 0):
            raise ValueError("dist_beta and dist_gamma must be nonnegative")
        if not 0.0 <= self.ls_epsilon < 1.0:
            raise ValueError("ls_epsilon must lie in [0, 1)")
        if self.divergence not in DIVERGENCES:
            raise ValueError(f"unknown divergence {self.divergence!r}")
        if self.standardize not in STANDARDIZE_MODES:
            raise ValueError(f"unknown standardize mode {self.standardize!r}")

    @property
    def needs_teacher(self) -> bool:
        """Whether the loss reads teacher logits (every kind but ce and ls)."""
        return self.kind not in ("ce", "ls")


def default_loss_config(kind: str, **overrides) -> DistillLossConfig:
    """Tuned defaults per kind: the dataclass defaults, except that dist
    softens at kd_temperature 1 rather than 2."""
    if kind == "dist":
        overrides = {"kd_temperature": 1.0, **overrides}
    return DistillLossConfig(kind=kind, **overrides)


def _onehot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    out = np.zeros((labels.shape[0], n_classes))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def ce_loss(s_batch, labels) -> LossResult:
    """Cross-entropy on hard labels: mean of log-sum-exp(s) - s_y."""
    s = as_finite_matrix(s_batch, "student logits")
    n, c = s.shape
    y = as_labels(labels, c, n)
    logq = log_softmax(s)
    picked = logq[np.arange(n), y]
    loss = float(-picked.mean())
    grad = (np.exp(logq) - _onehot(y, c)) / n
    return LossResult(loss, grad, -picked)


def ls_loss(s_batch, labels, epsilon: float) -> LossResult:
    """Cross-entropy against the label-smoothed target (1-eps)*onehot + eps/C."""
    if not 0.0 <= epsilon < 1.0:
        raise ValueError(f"epsilon must lie in [0, 1), got {epsilon}")
    s = as_finite_matrix(s_batch, "student logits")
    n, c = s.shape
    y = as_labels(labels, c, n)
    target = (1.0 - epsilon) * _onehot(y, c) + epsilon / c
    logq = log_softmax(s)
    sums = (target * logq).sum(axis=1)
    loss = float(-sums.mean())
    grad = (np.exp(logq) - target) / n
    return LossResult(loss, grad, -sums)


def kd_loss(
    s_batch,
    t_batch,
    labels,
    alpha: float = 0.1,
    tau: float = 2.0,
    divergence: str = "forward-kl",
) -> LossResult:
    """Classic distillation: alpha*CE + (1-alpha)*tau^2*D(teacher, student).

    ``divergence`` picks D: forward KL (teacher || student), reverse KL
    (student || teacher), or the Jensen-Shannon divergence against the
    mixture.  Both distributions are softened by ``tau``; the tau^2 factor
    keeps gradient magnitudes comparable across temperatures.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if divergence not in DIVERGENCES:
        raise ValueError(f"unknown divergence {divergence!r}")
    s = as_finite_matrix(s_batch, "student logits")
    t = as_finite_matrix(t_batch, "teacher logits")
    if s.shape != t.shape:
        raise ValueError(f"shape mismatch: student {s.shape} vs teacher {t.shape}")
    n, c = s.shape
    y = as_labels(labels, c, n)

    logq = log_softmax(s, temperature=tau)
    logp = log_softmax(t, temperature=tau)
    q = np.exp(logq)
    p = np.exp(logp)

    if divergence == "forward-kl":
        div = (p * (logp - logq)).sum(axis=1)
        dgrad = (q - p) / tau
    elif divergence == "reverse-kl":
        r = logq - logp
        div = (q * r).sum(axis=1)
        dgrad = q * (r - (q * r).sum(axis=1, keepdims=True)) / tau
    else:  # js
        logm = np.logaddexp(logp, logq) - np.log(2.0)
        div = 0.5 * (p * (logp - logm)).sum(axis=1) + 0.5 * (q * (logq - logm)).sum(axis=1)
        v = 0.5 * (logq - logm)
        dgrad = q * (v - (q * v).sum(axis=1, keepdims=True)) / tau

    hard = ce_loss(s, y)
    loss = alpha * hard.loss + (1.0 - alpha) * tau**2 * float(div.mean())
    grad = alpha * hard.grad + (1.0 - alpha) * tau**2 * dgrad / n
    rows = alpha * hard.rows + (1.0 - alpha) * tau**2 * div
    return LossResult(loss, grad, rows)


def _pearson_terms(x: np.ndarray, ref: np.ndarray, axis: int):
    """1 - Pearson along ``axis``: (mean residual, residuals, d(mean)/dx).

    The denominator is floored at _PEARSON_EPS so near-constant slices stay
    finite; away from the floor the correlation (and its gradient) is the
    exact unguarded one, so identical slices give a residual of exactly 0.
    """
    xc = x - x.mean(axis=axis, keepdims=True)
    rc = ref - ref.mean(axis=axis, keepdims=True)
    a = (xc * xc).sum(axis=axis, keepdims=True)
    b = (rc * rc).sum(axis=axis, keepdims=True)
    base = np.sqrt(a * b)
    floored = base < _PEARSON_EPS
    denom = np.where(floored, _PEARSON_EPS, base)
    rho = (xc * rc).sum(axis=axis, keepdims=True) / denom
    k = x.shape[1 - axis]  # number of residuals being averaged
    residuals = (1.0 - rho).ravel()
    a_safe = np.where(floored, 1.0, a)
    dterm = -(rc / denom - np.where(floored, 0.0, rho * xc / a_safe)) / k
    return float(residuals.mean()), residuals, dterm


def dist_loss(
    s_batch,
    t_batch,
    labels,
    alpha: float = 0.1,
    beta: float = 0.45,
    gamma: float = 0.45,
    tau: float = 1.0,
) -> LossResult:
    """Correlation-matching distillation.

    ``beta`` weights the inter-class term (one minus Pearson correlation
    between each student and teacher probability row) and ``gamma`` the
    intra-class term (the same across the batch for each class column),
    both on probabilities softened by ``tau``; ``alpha`` weights CE.
    The intra-class term couples the rows, so with ``gamma > 0`` the
    result carries no per-row losses.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if beta < 0 or gamma < 0:
        raise ValueError("beta and gamma must be nonnegative")
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    s = as_finite_matrix(s_batch, "student logits")
    t = as_finite_matrix(t_batch, "teacher logits")
    if s.shape != t.shape:
        raise ValueError(f"shape mismatch: student {s.shape} vs teacher {t.shape}")
    n, c = s.shape
    if c < 2:
        raise ValueError("dist loss needs at least 2 classes")
    if gamma > 0 and n < 2:
        raise ValueError("intra-class correlation needs a batch of at least 2 rows")
    y = as_labels(labels, c, n)

    qs = softmax(s, temperature=tau)
    qt = softmax(t, temperature=tau)

    loss = 0.0
    rows = np.zeros(n)
    dq = np.zeros_like(qs)
    if beta > 0:
        inter, inter_rows, dinter = _pearson_terms(qs, qt, axis=1)
        loss += beta * inter
        rows += beta * inter_rows
        dq += beta * dinter
    if gamma > 0:
        intra, _, dintra = _pearson_terms(qs, qt, axis=0)
        loss += gamma * intra
        rows = None  # the intra-class term couples the rows
        dq += gamma * dintra

    # pull dL/dq back through the tempered softmax rows
    grad = qs * (dq - (qs * dq).sum(axis=1, keepdims=True)) / tau

    hard = ce_loss(s, y)
    loss += alpha * hard.loss
    grad = grad + alpha * hard.grad
    if rows is not None:
        rows += alpha * hard.rows
    return LossResult(float(loss), grad, rows)


def _plistmle_weights(n_classes: int) -> np.ndarray:
    """Normalized position-decay schedule (2^(C-k) - 1) / (2^C - C - 1).

    Evaluated as (2^-k - 2^-C) / (1 - (C+1) 2^-C) so it never overflows,
    however many classes there are.  Position k is 1-based; the last weight
    is exactly 0.
    """
    if n_classes < 2:
        raise ValueError("position-decay weights need at least 2 classes")
    k = np.arange(1, n_classes + 1, dtype=np.float64)
    tail = np.exp2(-float(n_classes))
    return (np.exp2(-k) - tail) / (1.0 - (n_classes + 1) * tail)


def make_weights(t, pi, scheme: str, tau_T: float = 1.0) -> np.ndarray:
    """Per-position weights for a weighted ranking loss, first pick first.

    teacher-softmax      softmax(t / tau_T) read off in ranking order
    uniform              1/C at every position
    onehot-first         all mass on the first pick (reduces to CE)
    plistmle-exponential normalized 2^(C-k) - 1 decay
    """
    t = as_finite_vector(t, "teacher logits")
    c = t.shape[0]
    pi = as_ranking(pi, c)
    if scheme == "teacher-softmax":
        if not tau_T > 0:
            raise ValueError(f"tau_T must be positive, got {tau_T}")
        alpha = softmax(t, temperature=tau_T)[pi]
    elif scheme == "uniform":
        alpha = np.full(c, 1.0 / c)
    elif scheme == "onehot-first":
        alpha = np.zeros(c)
        alpha[0] = 1.0
    elif scheme == "plistmle-exponential":
        alpha = _plistmle_weights(c)
    else:
        raise ValueError(f"unknown weight scheme {scheme!r}")
    return alpha


def _ascending_weights(
    t: np.ndarray, asc: np.ndarray, scheme: str, tau_T: float
) -> np.ndarray:
    """Weights aligned with the ascending evaluation order (first pick last)."""
    n, c = t.shape
    if scheme == "teacher-softmax":
        return np.take_along_axis(softmax(t, temperature=tau_T), asc, axis=1)
    if scheme == "uniform":
        return np.full((n, c), 1.0 / c)
    if scheme == "onehot-first":
        w = np.zeros((n, c))
        w[:, -1] = 1.0
        return w
    if scheme == "plistmle-exponential":
        return np.tile(_plistmle_weights(c)[::-1], (n, 1))
    raise ValueError(f"unknown weight scheme {scheme!r}")


def pld_loss(
    s_batch,
    t_batch,
    labels,
    tau_T: float = 1.0,
    scheme: str = "teacher-softmax",
) -> LossResult:
    """Weighted ranking likelihood of the teacher-optimal permutation.

    Per example the loss is sum_k alpha_k * [log sum_{l>=k} exp(s[pi*_l])
    - s[pi*_k]] where pi* puts the true label first and the remaining
    classes in descending teacher-logit order.  The student logits enter
    unsoftened; ``tau_T`` only reshapes the teacher-softmax weights.

    Evaluation sorts each row ascending (label last) and takes one running
    log-sum-exp, so prefix j of the sorted row is exactly the suffix term
    of rank C-1-j.  The gradient reuses those running sums: with Z_k the
    suffix normalizer, d/ds_i = exp(s_i) * sum_{k <= rank(i)} alpha_k / Z_k
    - alpha_rank(i), accumulated in log space so nothing overflows.
    """
    if not tau_T > 0:
        raise ValueError(f"tau_T must be positive, got {tau_T}")
    s = as_finite_matrix(s_batch, "student logits")
    t = as_finite_matrix(t_batch, "teacher logits")
    if s.shape != t.shape:
        raise ValueError(f"shape mismatch: student {s.shape} vs teacher {t.shape}")
    n, c = s.shape
    y = as_labels(labels, c, n)

    # The kernel allocates a dozen row-aligned temporaries; keeping a chunk's
    # working set near L2 size roughly halves large-batch wall time.
    rows_per_chunk = max(16, _PLD_CHUNK_ELEMENTS // c)
    grad = np.empty_like(s)
    rows = np.empty(n)
    total = 0.0
    for lo in range(0, n, rows_per_chunk):
        hi = min(n, lo + rows_per_chunk)
        total += _pld_chunk(
            s[lo:hi], t[lo:hi], y[lo:hi], tau_T, scheme, grad[lo:hi], rows[lo:hi]
        )
    grad /= n
    return LossResult(total / n, grad, rows)


_PLD_CHUNK_ELEMENTS = 1 << 15


def _pld_chunk(s, t, y, tau_T, scheme, grad_out, rows_out) -> float:
    """Loss sum over one chunk of rows; writes the per-row losses and the
    unscaled gradient rows."""
    asc = ascending_rankings(t, y)
    s_perm = np.take_along_axis(s, asc, axis=1)
    w = _ascending_weights(t, asc, scheme, tau_T)

    lc = _log_cumsum_exp_rows(s_perm)
    # flat sum and row sums of one product, so the loss keeps its bits
    terms = w * (lc - s_perm)
    loss_sum = float(terms.sum())
    terms.sum(axis=1, out=rows_out)

    # d/ds at sorted position j is exp(s_j) * sum_{m>=j} w_m / Z_m - w_j with
    # Z_m the running normalizer exp(lc_m).  When every lc is moderate the
    # suffix sum runs in linear space (sums of positives, fully accurate);
    # otherwise it moves to log space, which cannot over- or underflow.
    if abs(lc[:, 0]).max() < 500.0 and abs(lc[:, -1]).max() < 500.0:
        tail = np.cumsum((w * np.exp(-lc))[:, ::-1], axis=1)[:, ::-1]
        grad_perm = np.exp(s_perm)
        grad_perm *= tail
        grad_perm -= w
    else:
        with np.errstate(divide="ignore"):  # zero weights contribute log 0 = -inf
            u = np.log(w)
            u -= lc
        log_tail = _log_cumsum_exp_rows(np.ascontiguousarray(u[:, ::-1]))[:, ::-1]
        grad_perm = np.exp(s_perm + log_tail)
        grad_perm -= w
    np.put_along_axis(grad_out, asc, grad_perm, axis=1)
    return loss_sum


def pld_gradient_closed_form(s, pi, alpha) -> np.ndarray:
    """Exact single-example gradient of the weighted ranking loss.

    Direct evaluation in the first-pick-first convention: one reversed
    running log-sum-exp for the suffix normalizers Z_k, one forward running
    sum of alpha_k / Z_k, then d/ds_i = exp(s_i) * A_rank(i) - alpha_rank(i).
    """
    s = as_finite_vector(s, "logits")
    c = s.shape[0]
    pi = as_ranking(pi, c)
    w = np.asarray(alpha, dtype=np.float64)
    if w.shape != (c,):
        raise ValueError(f"expected {c} weights, got shape {w.shape}")
    if (w < 0).any() or not np.isfinite(w).all():
        raise ValueError("weights must be finite and nonnegative")
    s_perm = s[pi]
    suffix = log_cumsum_exp(s_perm[::-1])[::-1]
    with np.errstate(divide="ignore"):
        log_ratio = np.log(w) - suffix
    log_accum = log_cumsum_exp(log_ratio)
    grad_perm = np.exp(s_perm + log_accum) - w
    grad = np.empty(c)
    grad[pi] = grad_perm
    return grad


def standardize_rows(batch) -> np.ndarray:
    """Row-wise z-score: subtract the row mean, divide by population std + eps.

    Constant rows map to all zeros (the eps guard keeps the division finite).
    """
    x = as_finite_matrix(batch, "logits")
    if x.shape[1] < 2:
        raise ValueError("standardization needs at least 2 classes")
    mu = x.mean(axis=1, keepdims=True)
    sd = x.std(axis=1, keepdims=True)
    return (x - mu) / (sd + _STD_EPS)


def _standardize_vjp(x: np.ndarray, grad_z: np.ndarray) -> np.ndarray:
    """Pull a gradient in z = (x - mean) / (std + eps) back to x."""
    c = x.shape[1]
    mu = x.mean(axis=1, keepdims=True)
    sd = x.std(axis=1, keepdims=True)
    d = 1.0 / (sd + _STD_EPS)
    ctr = x - mu
    gbar = grad_z.mean(axis=1, keepdims=True)
    dot = (grad_z * ctr).sum(axis=1, keepdims=True)
    scale = np.where(sd > 0, d * d * dot / (c * np.where(sd > 0, sd, 1.0)), 0.0)
    return d * (grad_z - gbar) - scale * ctr


def grad_check(loss_fn, s0, h: float = 1e-5, floor: float = 1e-8) -> float:
    """Max per-coordinate relative error of the analytic gradient vs central
    differences.

    ``loss_fn`` maps a logit array to a LossResult.  Differences at or below
    the absolute ``floor`` count as exact: central differences carry roundoff
    of order eps*|loss|/h (~1e-11 for unit-scale losses), which would
    otherwise swamp the relative error on near-zero gradient coordinates.

    When the analytic result of an N x C batch carries per-row losses, each
    loss call shifts one logit column in every row at once; row i of the two
    shifted calls gives the central difference for coordinate (i, j) as
    (rows_plus[i] - rows_minus[i]) / (2h) / N.  That takes 2C + 1 calls in
    place of 2NC + 1.  A result without ``rows`` (coupled rows) gets one
    pair of calls per coordinate.

    A non-finite difference or analytic entry scores inf, never exact.
    """
    if not h > 0:
        raise ValueError(f"step size must be positive, got {h}")
    if not floor >= 0:
        raise ValueError(f"floor must be nonnegative, got {floor}")
    s0 = np.asarray(s0, dtype=np.float64)
    base = loss_fn(s0)
    analytic = base.grad
    fd = np.empty_like(s0)
    if base.rows is not None and s0.ndim == 2:
        n = s0.shape[0]
        for j in range(s0.shape[1]):
            sp = s0.copy()
            sp[:, j] += h
            sm = s0.copy()
            sm[:, j] -= h
            fd[:, j] = (loss_fn(sp).rows - loss_fn(sm).rows) / (2.0 * h) / n
    else:
        for idx in np.ndindex(*s0.shape):
            sp = s0.copy()
            sp[idx] += h
            sm = s0.copy()
            sm[idx] -= h
            fd[idx] = (loss_fn(sp).loss - loss_fn(sm).loss) / (2.0 * h)
    if not (np.isfinite(fd).all() and np.isfinite(analytic).all()):
        return float("inf")
    diff = np.abs(fd - analytic)
    scale = np.maximum(np.abs(fd), np.abs(analytic))
    above = diff > floor
    if not above.any():
        return 0.0
    return float((diff[above] / scale[above]).max())


def student_teacher_kl(s_batch, t_batch) -> float:
    """Mean KL(softmax(teacher row) || softmax(student row)) over the batch."""
    s = as_finite_matrix(s_batch, "student logits")
    t = as_finite_matrix(t_batch, "teacher logits")
    if s.shape != t.shape:
        raise ValueError(f"shape mismatch: student {s.shape} vs teacher {t.shape}")
    logq = log_softmax(s)
    logp = log_softmax(t)
    p = np.exp(logp)
    return float((p * (logp - logq)).sum(axis=1).mean())


def evaluate_loss(config: DistillLossConfig, s_batch, t_batch, labels) -> LossResult:
    """Dispatch a fully-resolved loss config on one batch.

    Handles the optional logit standardization: ``both`` z-scores student
    and teacher rows (the gradient is chained through the student's
    transform), ``teacher-only`` z-scores just the teacher.
    """
    s = as_finite_matrix(s_batch, "student logits")
    t = as_finite_matrix(t_batch, "teacher logits") if config.needs_teacher else None

    s_in = s
    chain = False
    if config.standardize == "both":
        s_in = standardize_rows(s)
        chain = True
        if t is not None:
            t = standardize_rows(t)
    elif config.standardize == "teacher-only" and t is not None:
        t = standardize_rows(t)

    if config.kind == "ce":
        res = ce_loss(s_in, labels)
    elif config.kind == "ls":
        res = ls_loss(s_in, labels, config.ls_epsilon)
    elif config.kind == "kd":
        res = kd_loss(s_in, t, labels, config.ce_mix, config.kd_temperature, config.divergence)
    elif config.kind == "dist":
        res = dist_loss(
            s_in, t, labels, config.ce_mix, config.dist_beta, config.dist_gamma,
            config.kd_temperature,
        )
    elif config.kind == "listmle":
        res = pld_loss(s_in, t, labels, scheme="uniform")
    elif config.kind == "plistmle":
        res = pld_loss(s_in, t, labels, scheme="plistmle-exponential")
    else:  # pld
        res = pld_loss(s_in, t, labels, tau_T=config.teacher_temperature, scheme=config.pld_scheme)

    if chain:
        return LossResult(res.loss, _standardize_vjp(s, res.grad), res.rows)
    return res

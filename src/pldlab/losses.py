"""Distillation loss kernels with closed-form gradients.

Every public loss takes a batch of student logits (N x C) plus whatever
targets it needs and returns a `LossResult`: the batch-mean loss, the
exact gradient with respect to the student logits and, when rows do not
interact, the per-row losses whose mean is the loss.  Gradients are what the
finite-difference checker validates; none of the kernels rely on automatic
differentiation.  A value-only call (keyword ``grad=False``) stops after the
loss and rows, with the bits of the default call, and returns no gradient.

The student logits may also be a stack (..., N, C) of batches.  The one
N x C teacher batch and the N labels broadcast over the leading axes, and
the result holds one loss, gradient and set of rows per batch, so a stack
is that many independent batches scored in one call.  ``grad_check``
scores its perturbed copies of a batch this way.

Each kernel checks its own arguments and raises ValueError on a malformed
one; ``evaluate_loss`` leaves its arrays to the kernel and ``standardize_rows``.

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
    _EXP_FLOOR,
    _log_cumsum_exp_rows,
    _row_starts,
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
    "teacher_targets",
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
_FD_STACK_ELEMENTS = 1 << 17  # logits per stacked loss call of grad_check


@dataclass(frozen=True)
class LossResult:
    """Batch-mean loss and its gradient with respect to student logits.

    ``rows`` holds the N per-row losses whose mean is ``loss``, each equal
    bit for bit to the ``loss`` of a one-row call on that row.  It is None
    when rows are coupled (dist with an intra-class term, gamma > 0), so a
    row's loss is not defined on its own.  ``loss`` is always the kernel's
    own reduction, not recomputed from ``rows``.

    For a stack (..., N, C) of batches, ``loss`` is an array of shape (...)
    with one loss per batch, ``grad`` has the stack's shape and ``rows`` has
    shape (..., N).  A batch's rows equal those of a call on that batch alone
    bit for bit; its loss and gradient agree with that call to a few ulps.
    ``grad`` is None on a value-only call (``grad=False``); loss and rows keep their bits.
    """

    loss: float | np.ndarray
    grad: np.ndarray | None
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
        _tau_squared(self.kd_temperature, "kd_temperature")
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

    @property
    def min_batch_rows(self) -> int:
        """Rows a batch needs: 2 for dist with an intra-class term (gamma > 0), else 1."""
        return 2 if self.kind == "dist" and self.dist_gamma > 0 else 1

    @property
    def pld_args(self) -> dict | None:
        """pld_loss's tau_T and scheme for listmle, plistmle and pld, else None."""
        tau = self.teacher_temperature if self.kind == "pld" else 1.0
        scheme = {"listmle": "uniform", "plistmle": "plistmle-exponential", "pld": self.pld_scheme}
        return {"tau_T": tau, "scheme": scheme[self.kind]} if self.kind in scheme else None


def default_loss_config(kind: str, **overrides) -> DistillLossConfig:
    """Tuned defaults per kind: the dataclass defaults, except that dist
    softens at kd_temperature 1 rather than 2."""
    if kind == "dist":
        overrides = {"kd_temperature": 1.0, **overrides}
    return DistillLossConfig(kind=kind, **overrides)


def _tau_squared(tau, name: str = "temperature") -> float:
    """tau * tau; ValueError unless tau > 0 and the square is a positive finite
    float64.  kd weighs its divergence by it, and tau ** 2 would raise OverflowError."""
    square = float(tau) * float(tau)
    if not (tau > 0 and 0.0 < square < np.inf):
        raise ValueError(f"{name} must be positive with a square in the float64 range, got {tau}")
    return square


def _per_batch(loss):
    """A batch's reduced loss as a float; a stack's as one loss per batch."""
    return loss if isinstance(loss, np.ndarray) else float(loss)


def _log_ratio(p, logp, logr):
    """logp - logr per class, 0 where p is 0.  With 0 log 0 = 0 a class of
    probability 0 adds nothing to p * (logp - logr) or to a gradient factor
    p * (...), also where a row wider than the float64 range gives it logp = -inf."""
    if p.all():  # no p is 0: skip the masked pass and the zeroed array it fills
        return logp - logr
    out = np.zeros(np.broadcast_shapes(logp.shape, logr.shape))  # either side may be a stack
    return np.subtract(logp, logr, out=out, where=p > 0)


def _kl_terms(p, logp, logr):
    """p * (logp - logr) per class, with 0 log 0 = 0."""
    return p * _log_ratio(p, logp, logr)


def _one_ranking(pi, n_classes: int) -> np.ndarray:
    """``pi`` checked as one ranking; as_ranking alone also accepts a stack."""
    pi = as_ranking(pi, n_classes)
    if pi.ndim != 1:
        raise ValueError(f"ranking must have length {n_classes}, got shape {pi.shape}")
    return pi


def _inputs(s_batch, t_batch, labels, teacher: bool = True):
    """The kernels' checked inputs: the student stack (..., N, C), the N x C
    teacher batch of the same shape (None without ``teacher``), the N labels."""
    s = as_finite_matrix(s_batch, "student logits", stack=True)
    n, c = s.shape[-2:]
    t = as_finite_matrix(t_batch, "teacher logits") if teacher else None
    if teacher and t.shape != (n, c):
        raise ValueError(f"shape mismatch: student {s.shape} vs teacher {t.shape}")
    return s, t, as_labels(labels, c, n)


def ce_loss(s_batch, labels, *, grad: bool = True) -> LossResult:
    """Cross-entropy on hard labels: mean of log-sum-exp(s) - s_y."""
    s, _, y = _inputs(s_batch, None, labels, teacher=False)
    n = s.shape[-2]
    logq = log_softmax(s)
    picked = logq[..., np.arange(n), y]
    with np.errstate(over="ignore"):  # a batch sum beyond the float64 range is +inf
        loss = -(picked.sum(axis=-1) / n)  # the bits of -picked.mean(axis=-1), with less overhead
    if not grad:
        return LossResult(_per_batch(loss), None, -picked)
    g = np.exp(logq)
    g[..., np.arange(n), y] -= 1.0
    g /= n
    return LossResult(_per_batch(loss), g, -picked)


def ls_loss(s_batch, labels, epsilon: float, *, grad: bool = True) -> LossResult:
    """Cross-entropy against the label-smoothed target (1-eps)*onehot + eps/C: CE
    plus eps*(s_y - mean(s)), scaled before the sum so a finite value stays finite."""
    if not 0.0 <= epsilon < 1.0:
        raise ValueError(f"epsilon must lie in [0, 1), got {epsilon}")
    s, _, y = _inputs(s_batch, None, labels, teacher=False)
    if epsilon == 0.0:
        return ce_loss(s, y, grad=grad)
    n, c = s.shape[-2:]
    g = np.full(s.shape, -epsilon / c / n) if grad else None  # eps * (onehot - 1/C) / n
    if grad:
        g[..., np.arange(n), y] += epsilon / n
    with np.errstate(over="ignore"):  # a term beyond the float64 range is +inf
        rows = epsilon * s[..., np.arange(n), y] - (epsilon / c * s).sum(axis=-1)
        loss = rows.sum(axis=-1) / n
    return _plus_ce(s, y, 1.0, loss, g, rows)


def _plus_ce(s, y, alpha: float, loss, grad, rows) -> LossResult:
    """alpha * CE plus a soft term's loss, gradient (added to in place, or None) and rows;
    0 skips CE."""
    if alpha > 0:
        hard = ce_loss(s, y, grad=grad is not None)
        with np.errstate(over="ignore"):  # a soft term beyond the float64 range is +inf
            loss = alpha * hard.loss + loss
            if grad is not None:
                grad += np.multiply(hard.grad, alpha, out=hard.grad)
            rows = None if rows is None else alpha * hard.rows + rows
    return LossResult(_per_batch(loss), grad, rows)


def _kd_targets(t: np.ndarray, tau: float):
    """kd's teacher side of an N x C batch: tempered log-probabilities and probabilities."""
    logp = log_softmax(t, temperature=tau)
    return logp, np.exp(logp)


def _given_targets(targets, shapes, kind: str):
    """``targets`` as float64 arrays of ``shapes``, else ValueError."""
    arrays = [np.asarray(a) for a in targets]
    if len(arrays) != len(shapes) or any(
        a.shape != shape or a.dtype != np.float64 for a, shape in zip(arrays, shapes)
    ):
        raise ValueError(f"{kind} targets need float64 arrays of shapes {shapes}")
    return arrays


def kd_loss(
    s_batch,
    t_batch,
    labels,
    alpha: float = 0.1,
    tau: float = 2.0,
    divergence: str = "forward-kl",
    targets=None,
    *,
    grad: bool = True,
) -> LossResult:
    """Classic distillation: alpha*CE + (1-alpha)*tau^2*D(teacher, student).

    ``divergence`` picks D: forward KL (teacher || student), reverse KL
    (student || teacher), or Jensen-Shannon against the mixture, of both
    distributions softened by ``tau`` (tau^2 keeps gradient magnitudes
    comparable across temperatures; a tau whose square overflows or is 0
    raises ValueError).  A class of probability 0 adds 0 to D
    and its gradient (0 log 0 = 0).  Reverse KL is +inf where the teacher
    gives 0 and the student does not, which is its value; that row's
    gradient is then not finite (NaN, without a warning), so training stops
    on it.  A forward-KL row whose tempered log q is -inf where p > 0 (a tau
    below 1 pushed it beyond the float64 range) is scored by _tempered_kl.
    At alpha 1 D is not evaluated: the result is ce_loss's bit for bit, even
    where D is +inf.  Given ``targets`` (teacher_targets rows: tempered log
    p and p, N x C, shared by every batch of a stack), t_batch is unread.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if divergence not in DIVERGENCES:
        raise ValueError(f"unknown divergence {divergence!r}")
    tau2 = _tau_squared(tau)
    if targets is None:
        s, t, y = _inputs(s_batch, t_batch, labels)
        logp, p = _kd_targets(t, tau)
    else:
        s, _, y = _inputs(s_batch, None, labels, teacher=False)
        logp, p = _given_targets(targets, 2 * [s.shape[-2:]], "kd")
    n = s.shape[-2]

    if alpha == 1.0:
        return ce_loss(s, y, grad=grad)
    logq = log_softmax(s, temperature=tau)

    dgrad = None
    if divergence == "forward-kl":
        div = _kl_terms(p, logp, logq).sum(axis=-1)
        if grad:
            dgrad = np.exp(logq)  # (q - p) / tau, in q's buffer
            dgrad -= p
            dgrad /= tau
    elif divergence == "reverse-kl":
        q = np.exp(logq)
        r = _log_ratio(q, logq, logp)
        div = (q * r).sum(axis=-1)
        if grad:
            with np.errstate(invalid="ignore"):  # inf - inf where div is +inf
                dgrad = _softmax_pullback(q, r, tau)
    else:  # js
        q = np.exp(logq)
        logm = np.logaddexp(logp, logq) - np.log(2.0)
        d = _log_ratio(q, logq, logm)
        div = 0.5 * _kl_terms(p, logp, logm).sum(axis=-1) + 0.5 * (q * d).sum(axis=-1)
        if grad:
            dgrad = _softmax_pullback(q, 0.5 * d, tau)

    mix = (1.0 - alpha) * tau2
    with np.errstate(over="ignore"):  # a divergence beyond the float64 range is +inf
        loss = mix * (div.sum(axis=-1) / n)
        if grad:
            dgrad *= mix  # mix * dgrad / n, in dgrad's buffer
            dgrad /= n
        rows = mix * div
    if divergence == "forward-kl" and tau < 1.0 and np.isinf(div).any():
        wide = (np.isneginf(logq) & (p > 0)).any(axis=-1)
        scaled = tau2 * div
        scaled[wide] = _tempered_kl(s[wide], np.broadcast_to(logp, s.shape)[wide],
                                    np.broadcast_to(p, s.shape)[wide], tau)
        rows[wide] = (1.0 - alpha) * scaled[wide]
        with np.errstate(over="ignore"):
            loss = np.where(wide.any(axis=-1), (1.0 - alpha) * (scaled.sum(axis=-1) / n), loss)[()]
    return _plus_ce(s, y, alpha, loss, dgrad, rows)


def _softmax_pullback(q: np.ndarray, g: np.ndarray, tau: float) -> np.ndarray:
    """Pull g, a gradient in q = softmax(s / tau), back to s in place: q * (g - <q, g>) / tau."""
    g -= (q * g).sum(axis=-1, keepdims=True)
    g *= q
    g /= tau
    return g


def _tempered_kl(s, logp, p, tau: float) -> np.ndarray:
    """tau^2 KL(p || softmax(s / tau)) of each row as tau * sum p * (tau log p -
    tau log q), with tau log q = z - tau * lse(z / tau) for z = s - max(s):
    finite where tau < 1 sends log q itself beyond the float64 range."""
    with np.errstate(over="ignore"):  # z / tau leaves the range: exp gives 0
        z = s - s.max(axis=-1, keepdims=True)
        tau_logq = z - tau * np.log(np.exp(z / tau).sum(axis=-1, keepdims=True))
        return tau * _kl_terms(p, tau * logp, tau_logq).sum(axis=-1)


def _pearson_terms(x: np.ndarray, rc: np.ndarray, b: np.ndarray, axis: int, grad: bool):
    """1 - Pearson along ``axis`` (-1: each row, -2: each column of a batch)
    between ``x`` and a reference given centred along ``axis`` (``rc``) with
    its squared norms ``b``: (mean residual, residuals, d(mean)/dx or None
    without ``grad``), per batch of a stack ``x``.

    The denominator is floored at _PEARSON_EPS so near-constant slices stay
    finite; away from the floor the correlation (and its gradient) is the
    exact unguarded one, so identical slices give a residual of exactly 0.
    Each mean is taken as sum / count, which is what np.mean computes.
    """
    xc = x - x.sum(axis=axis, keepdims=True) / x.shape[axis]
    buf = xc * xc
    a = buf.sum(axis=axis, keepdims=True)
    base = np.sqrt(a * b)
    dot = np.multiply(xc, rc, out=buf).sum(axis=axis, keepdims=True)
    k = x.shape[-3 - axis]  # number of residuals being averaged
    floored = base < _PEARSON_EPS
    denom = np.where(floored, _PEARSON_EPS, base)
    rho = dot / denom
    residuals = (1.0 - rho).squeeze(axis)
    mean = residuals.sum(axis=-1) / residuals.shape[-1]
    if not grad:
        return mean, residuals, None
    xc *= rho  # rho * xc / a, zero on floored slices, in xc's buffer
    xc /= np.where(floored, 1.0, a)
    if floored.any():
        np.copyto(xc, 0.0, where=floored)
    dterm = np.divide(rc, denom, out=buf)  # -(rc / denom - xc) / k: dividing by -k negates exactly
    dterm -= xc
    dterm /= -k
    return mean, residuals, dterm


def _dist_targets(t: np.ndarray, tau: float):
    """dist's teacher side of an N x C batch: tempered probabilities, each
    row centred, and the rows' squared norms (N x 1)."""
    qt = softmax(t, temperature=tau)
    rc = qt - qt.mean(axis=-1, keepdims=True)
    return qt, rc, (rc * rc).sum(axis=-1, keepdims=True)


def dist_loss(
    s_batch,
    t_batch,
    labels,
    alpha: float = 0.1,
    beta: float = 0.45,
    gamma: float = 0.45,
    tau: float = 1.0,
    targets=None,
    *,
    grad: bool = True,
) -> LossResult:
    """Correlation-matching distillation.

    ``beta`` weights the inter-class term (one minus Pearson correlation
    between each student and teacher probability row) and ``gamma`` the
    intra-class term (the same across the batch for each class column),
    both on probabilities softened by ``tau``; _plus_ce adds ``alpha`` * CE.
    The intra-class term couples the rows, so with ``gamma > 0`` the
    result carries no per-row losses.  Given ``targets`` (teacher_targets
    rows, shared by every batch of a stack), t_batch is unread.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if beta < 0 or gamma < 0:
        raise ValueError("beta and gamma must be nonnegative")
    s, t, y = _inputs(s_batch, t_batch, labels, teacher=targets is None)
    n, c = s.shape[-2:]
    if c < 2:
        raise ValueError("dist loss needs at least 2 classes")
    if gamma > 0 and n < 2:
        raise ValueError("intra-class correlation needs a batch of at least 2 rows")
    if targets is None:
        qt, rc, b = _dist_targets(t, tau)
    else:
        qt, rc, b = _given_targets(targets, [(n, c), (n, c), (n, 1)], "dist")

    qs = softmax(s, temperature=tau)

    loss = np.zeros(s.shape[:-2])[()]  # one loss per batch of a stack, even at weights 0
    rows = np.zeros(s.shape[:-1])
    dq = np.zeros_like(qs) if grad else None
    if beta > 0:
        inter, inter_rows, dinter = _pearson_terms(qs, rc, b, -1, grad)
        loss += beta * inter
        rows += beta * inter_rows
        if grad:
            dq += np.multiply(dinter, beta, out=dinter)
    if gamma > 0:
        cc = qt - qt.sum(axis=-2, keepdims=True) / n  # the teacher centred over the batch
        intra, _, dintra = _pearson_terms(qs, cc, (cc * cc).sum(axis=-2, keepdims=True), -2, grad)
        loss += gamma * intra
        rows = None  # the intra-class term couples the rows
        if grad:
            dq += np.multiply(dintra, gamma, out=dintra)

    return _plus_ce(s, y, alpha, loss, _softmax_pullback(qs, dq, tau) if grad else None, rows)


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
    pi = _one_ranking(pi, t.shape[0])
    return _ascending_weights(t[None], pi[None, ::-1], scheme, tau_T)[0, ::-1]


def _ascending_weights(t: np.ndarray, asc: np.ndarray, scheme: str, tau_T: float) -> np.ndarray:
    """Weights aligned with the ascending evaluation order (first pick last)."""
    n, c = t.shape
    if scheme == "teacher-softmax":
        return softmax(t, temperature=tau_T).reshape(-1)[asc + _row_starts(asc.shape)]
    if scheme == "uniform":
        return np.full((n, c), 1.0 / c)
    if scheme == "onehot-first":
        w = np.zeros((n, c))
        w[:, -1] = 1.0
        return w
    if scheme == "plistmle-exponential":
        return np.tile(_plistmle_weights(c)[::-1], (n, 1))
    raise ValueError(f"unknown weight scheme {scheme!r}")


def _pld_targets(t, y, tau_T, scheme):
    asc = ascending_rankings(t, y)
    return asc, _ascending_weights(t, asc, scheme, tau_T)


def pld_loss(
    s_batch,
    t_batch,
    labels,
    tau_T: float = 1.0,
    scheme: str = "teacher-softmax",
    targets=None,
    *,
    grad: bool = True,
) -> LossResult:
    """Weighted ranking likelihood of the teacher-optimal permutation.

    Per example the loss is sum_k alpha_k * [log sum_{l>=k} exp(s[pi*_l])
    - s[pi*_k]] where pi* puts the true label first and the remaining
    classes in descending teacher-logit order.  The student logits enter
    unsoftened; ``tau_T`` only reshapes the teacher-softmax weights.
    Given ``targets`` (teacher_targets rows: order and weights, N x C, shared by
    every batch of a stack), t_batch, labels, tau_T and scheme are unread.

    Evaluation sorts each row ascending (label last) and takes one running
    log-sum-exp, so prefix j of the sorted row is exactly the suffix term
    of rank C-1-j.  The gradient reuses those running sums: with Z_k the
    suffix normalizer, d/ds_i = exp(s_i) * sum_{k <= rank(i)} alpha_k / Z_k
    - alpha_rank(i), accumulated in log space so nothing overflows.  With
    ``grad=False`` the kernel stops after the rows: no tail, no scatter.
    """
    if targets is None:
        if not tau_T > 0:
            raise ValueError(f"tau_T must be positive, got {tau_T}")
        s, t, y = _inputs(s_batch, t_batch, labels)
        n, c = t.shape
    else:  # checked once per call: order rows permute range(C), weights finite and >= 0
        s = as_finite_matrix(s_batch, "student logits", stack=True)
        n, c = s.shape[-2:]
        order, tw = np.asarray(targets[0]), np.asarray(targets[1], dtype=np.float64)
        seen = np.zeros((n, c), dtype=bool)
        if order.shape == tw.shape == (n, c) and order.dtype.kind in "iu":
            if order.min() >= 0 and order.max() < c:
                seen[np.arange(n)[:, None], order] = True
        if not (seen.all() and tw.min() >= 0.0 and tw.max() < np.inf):
            raise ValueError(f"pld targets need {(n, c)} permutation rows, finite weights >= 0")
    built = targets is None and s.ndim == 2  # a batch's targets are built chunk by chunk
    if s.ndim > 2:  # the batches of a stack share one teacher's targets, built once
        if targets is None:
            order, tw = _pld_targets(t, y, tau_T, scheme)
        order, tw = (np.broadcast_to(a, s.shape).reshape(-1, c) for a in (order, tw))

    # The kernel allocates a dozen row-aligned temporaries; keeping a chunk's
    # working set near L2 size roughly halves large-batch wall time (targets too).
    rows_per_chunk = max(1, _PLD_CHUNK_ELEMENTS // c)
    flat = s.reshape(-1, c)
    g = np.empty(flat.shape) if grad else None  # C-contiguous: _pld_apply writes through flat views
    rows = np.empty(flat.shape[0])
    total = 0.0
    for lo in range(0, flat.shape[0], rows_per_chunk):
        part = slice(lo, lo + rows_per_chunk)
        asc, w = (_pld_targets(t[part], y[part], tau_T, scheme) if built
                  else (order[part], tw[part]))
        total += _pld_apply(flat[part], asc, w, g if g is None else g[part], rows[part])
    if grad:
        g /= n
    if s.ndim == 2:
        loss = total / n if total < np.inf else float(_scaled_mean(rows))  # sum overflowed
        return LossResult(loss, g, rows)
    rows = rows.reshape(s.shape[:-1])
    with np.errstate(over="ignore"):
        loss = rows.sum(axis=-1) / n
    over = np.isinf(loss)
    if over.any():
        loss[over] = _scaled_mean(rows[over])
    return LossResult(loss, g if g is None else g.reshape(s.shape), rows)


def _scaled_mean(rows: np.ndarray) -> np.ndarray:
    """Mean over the last axis of nonnegative row losses as m * ((rows / m).sum()
    / n), m the largest row.  Each ratio is at most 1, so the mean of finite rows
    stays finite where their plain sum overflows; a row of +inf gives +inf."""
    m = rows.max(axis=-1)
    with np.errstate(invalid="ignore"):  # inf / inf, replaced below
        mean = m * ((rows / m[..., None]).sum(axis=-1) / rows.shape[-1])
    return np.where(np.isinf(m), np.inf, mean)


_PLD_CHUNK_ELEMENTS = 1 << 15


def _pld_apply(s, asc, w, grad_out, rows_out) -> float:
    """Loss sum over one chunk of rows in evaluation order ``asc`` with
    weights ``w``; writes the per-row losses into ``rows_out`` and the unscaled
    gradient rows into ``grad_out``, a C-contiguous block of rows (None: no gradient)."""
    idx = asc + _row_starts(asc.shape)
    s_perm = s.reshape(-1)[idx]
    lc = _log_cumsum_exp_rows(s_perm)
    # flat sum and row sums of one product, so the loss keeps its bits
    terms = w * (lc - s_perm)
    with np.errstate(over="ignore"):  # huge finite rows: pld_loss rescales their mean
        loss_sum = float(terms.sum())
        terms.sum(axis=1, out=rows_out)
    if grad_out is None:
        return loss_sum

    # d/ds at sorted position j is exp(s_j) * sum_{m>=j} w_m / Z_m - w_j with
    # Z_m the running normalizer exp(lc_m).  When every lc is moderate the
    # suffix sum runs in linear space (sums of positives, fully accurate);
    # otherwise it moves to log space, which cannot over- or underflow.  There
    # exp's argument is floored at _EXP_FLOOR (a subnormal exp is ~200x slower)
    # and the entries below it are set to exactly 0.
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
        arg = s_perm + log_tail
        grad_perm = np.where(arg < _EXP_FLOOR, 0.0, np.exp(np.maximum(arg, _EXP_FLOOR)))
        grad_perm -= w
    grad_out.reshape(-1)[idx] = grad_perm
    return loss_sum


def pld_gradient_closed_form(s, pi, alpha) -> np.ndarray:
    """Exact single-example gradient of the weighted ranking loss.

    Direct evaluation in the first-pick-first convention: one reversed
    running log-sum-exp for the suffix normalizers Z_k, one forward running
    sum of alpha_k / Z_k, then d/ds_i = exp(s_i) * A_rank(i) - alpha_rank(i).
    """
    s = as_finite_vector(s, "logits")
    c = s.shape[0]
    pi = _one_ranking(pi, c)
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

    Constant rows map to all zeros (the eps guard keeps the division finite),
    and every finite row to a finite one, however wide.
    ``batch`` may be a stack (..., N, C) of batches.
    """
    x = as_finite_matrix(batch, "logits", stack=True)
    if x.shape[-1] < 2:
        raise ValueError("standardization needs at least 2 classes")
    ctr, sd, u = _row_stats(x)
    return ctr / (sd + _STD_EPS * u)


def _row_stats(x: np.ndarray, u=1.0):
    """Rows of x * u centred, their std, and u: 1 (np.std's bits), or 2^-600 where that overflows."""
    with np.errstate(over="ignore", invalid="ignore"):  # those rows are scaled and redone
        ctr = x - x.sum(axis=-1, keepdims=True) / x.shape[-1]
        sd = np.sqrt((ctr * ctr).sum(axis=-1, keepdims=True) / x.shape[-1])
    if np.isfinite(sd).all():
        return ctr, sd, u
    u = np.where(np.isfinite(sd), 1.0, 2.0**-600)
    return _row_stats(x * u, u)


def _standardize_vjp(x: np.ndarray, grad_z: np.ndarray) -> np.ndarray:
    """Pull a gradient in z = (x - mean) / (std + eps) back to x."""
    ctr, sd, u = _row_stats(x)  # z = ctr / (sd + eps * u), so dz/dx carries a factor u
    d = 1.0 / (sd + _STD_EPS * u)
    gbar = grad_z.mean(axis=-1, keepdims=True)
    dot = (grad_z * ctr).sum(axis=-1, keepdims=True)
    scale = np.where(sd > 0, d * d * dot / (x.shape[-1] * np.where(sd > 0, sd, 1.0)), 0.0)
    return u * (d * (grad_z - gbar) - scale * ctr)


def grad_check(loss_fn, s0, h: float = 1e-5, floor: float = 1e-8) -> float:
    """Max per-coordinate relative error of the analytic gradient vs central
    differences.

    ``loss_fn`` maps an N x C batch of logits to a LossResult, and a stack
    (B, N, C) of such batches to one result with a loss per batch (and rows
    per batch, when the batch's result has rows), as every loss kernel does.
    Only the batch's result is read for a gradient; a stack's may be a
    value-only result (``grad`` None), which is all the check needs.
    Differences at or below the absolute ``floor`` count as exact: central
    differences carry roundoff of order eps*|loss|/h (~1e-11 for unit-scale
    losses), which would otherwise swamp the relative error on near-zero
    gradient coordinates.

    Every coordinate gets one central difference with step ``h``.  The
    perturbed copies of ``s0`` go to ``loss_fn`` as stacks of at most about
    2^17 logits, so a check takes a few calls.  When the analytic result of
    the batch carries per-row losses, each copy shifts one logit column in
    every row at once; row i of the two copies shifted at column j gives the
    central difference for coordinate (i, j) as (rows_plus[i] -
    rows_minus[i]) / (2h) / N.  That takes 2C copies in place of 2NC.  A
    result without ``rows`` (coupled rows) gets one pair of copies per
    coordinate, read from their losses.

    A non-finite difference or analytic entry scores inf, never exact.  A
    stacked result whose losses or rows do not broadcast to one per copy
    raises ValueError.
    """
    if not h > 0:
        raise ValueError(f"step size must be positive, got {h}")
    if not floor >= 0:
        raise ValueError(f"floor must be nonnegative, got {floor}")
    s0 = np.asarray(s0, dtype=np.float64)
    if s0.ndim < 2 or s0.size == 0:
        raise ValueError(f"grad_check needs a nonempty N x C batch, got shape {s0.shape}")
    base = loss_fn(s0)
    analytic = base.grad
    by_column = base.rows is not None and s0.ndim == 2
    # flat indices of the coordinates each copy shifts: a column of every row
    # (read from the rows), or one coordinate (read from the loss)
    shifts = np.arange(s0.size).reshape(s0.shape).T if by_column else np.arange(s0.size)[:, None]
    n = shifts.shape[1]
    per_call = max(1, _FD_STACK_ELEMENTS // (2 * s0.size))
    fd = np.empty(s0.shape)
    for lo in range(0, len(shifts), per_call):
        idx = shifts[lo : lo + per_call]
        k = len(idx)
        stack = np.repeat(s0.reshape(1, -1), 2 * k, axis=0)  # k copies up, then k down
        copy = np.arange(k)[:, None]
        stack[copy, idx] += h
        stack[k + copy, idx] -= h
        res = loss_fn(stack.reshape((2 * k,) + s0.shape))
        got = res.rows if by_column else np.asarray(res.loss, dtype=np.float64)[..., None]
        got = np.broadcast_to(np.asarray(got, dtype=np.float64), (2 * k, n))
        fd.reshape(-1)[idx] = (got[:k] - got[k:]) / (2.0 * h) / n
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
    logp = log_softmax(t)
    return float(_kl_terms(np.exp(logp), logp, log_softmax(s)).sum(axis=1).mean())


def teacher_targets(config: DistillLossConfig, t_batch, labels):
    """The teacher side of evaluate_loss under ``config`` for N x C teacher
    logits, standardized as ``config`` says.  For the ranking kinds it is
    (order, weights): per row the teacher-optimal ranking reversed (label
    last) and its weights under ``config.pld_args``.  For kd it is the
    tempered (log p, p), and for dist the tempered p, its rows centred and
    their squared norms (N x 1); None for ce and ls.  Rows gathered by index
    from every array are the ``targets`` of evaluate_loss for those rows,
    and of the kind's kernel, with the bits of the plain call."""
    if not config.needs_teacher:
        return None
    t = t_batch if config.standardize == "none" else standardize_rows(t_batch)
    t = as_finite_matrix(t, "teacher logits")
    if config.pld_args is not None:
        return _pld_targets(t, as_labels(labels, t.shape[1], t.shape[0]), **config.pld_args)
    build = _kd_targets if config.kind == "kd" else _dist_targets
    return build(t, config.kd_temperature)


def evaluate_loss(config: DistillLossConfig, s_batch, t_batch, labels, targets=None, *,
                  grad: bool = True) -> LossResult:
    """Dispatch a fully-resolved loss config on one batch, or on a stack of
    batches (..., N, C) that share the N x C teacher batch and the labels.

    Handles the optional logit standardization: ``both`` z-scores student
    and teacher rows (the gradient is chained through the student's
    transform), ``teacher-only`` z-scores just the teacher.  Every kind that
    reads a teacher may take ``targets``, rows of teacher_targets under this
    config, in place of ``t_batch``.  ``grad=False`` skips every gradient,
    the pull-back through the student's z-score included.
    """
    if targets is not None and not config.needs_teacher:
        raise ValueError(f"loss kind {config.kind!r} takes no teacher targets")
    s = np.asarray(s_batch, dtype=np.float64)  # the kernel or standardize_rows checks s and t
    s_in = standardize_rows(s) if config.standardize == "both" else s
    t = t_batch
    if config.needs_teacher and targets is None and config.standardize != "none":
        t = standardize_rows(t)

    if config.kind == "ce":
        res = ce_loss(s_in, labels, grad=grad)
    elif config.kind == "ls":
        res = ls_loss(s_in, labels, config.ls_epsilon, grad=grad)
    elif config.kind == "kd":
        res = kd_loss(s_in, t, labels, config.ce_mix, config.kd_temperature, config.divergence,
                      targets=targets, grad=grad)
    elif config.kind == "dist":
        res = dist_loss(
            s_in, t, labels, config.ce_mix, config.dist_beta, config.dist_gamma,
            config.kd_temperature, targets=targets, grad=grad,
        )
    else:  # listmle, plistmle, pld
        res = pld_loss(s_in, t, labels, **config.pld_args, targets=targets, grad=grad)

    if config.standardize == "both" and grad:
        return LossResult(res.loss, _standardize_vjp(s, res.grad), res.rows)
    return res

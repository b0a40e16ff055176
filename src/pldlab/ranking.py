"""Plackett-Luce permutation model over class logits.

A ranking is stored first-pick-first: position 0 holds the class chosen
first.  Under the model, position k is chosen from the classes not yet
picked with probability exp(s_k) / sum of exp over the remaining classes,
so the log-likelihood of a full ranking ``pi`` is

    sum_k [ s[pi[k]] - log sum_{l >= k} exp(s[pi[l]]) ].

The O(C^2) reference oracle ``pl_position_nll`` sums each suffix on its own,
apart from the O(C) running log-sum-exp of ``pl_log_likelihood`` and the loss
kernels.  The exhaustive enumerator scores its table with that oracle; it is
deliberately capped at 8 classes (40320 orderings).
"""

from __future__ import annotations

import itertools

import numpy as np

from .numerics import _log_cumsum_exp_rows, argsort_stable, as_finite_vector, as_labels

__all__ = [
    "EnumerationLimitError",
    "teacher_optimal_permutation",
    "ascending_rankings",
    "as_ranking",
    "pl_log_likelihood",
    "pl_position_nll",
    "pl_enumerate",
    "ENUMERATION_MAX_CLASSES",
]

ENUMERATION_MAX_CLASSES = 8


class EnumerationLimitError(ValueError):
    """Raised when a factorial enumeration would exceed the class cap."""


def as_ranking(pi, n_classes: int) -> np.ndarray:
    """Validate ``pi`` as a permutation of 0..n_classes-1, or as a stack
    (..., n_classes) of rankings whose every row is such a permutation."""
    arr = np.asarray(pi)
    if arr.ndim == 0 or arr.shape[-1] != n_classes:
        raise ValueError(f"ranking must have length {n_classes}, got shape {arr.shape}")
    if arr.dtype.kind not in "iu":
        raise ValueError("ranking must contain integers")
    arr = arr.astype(np.int64)
    if not (np.sort(arr, axis=-1) == np.arange(n_classes)).all():
        raise ValueError("ranking is not a permutation of 0..C-1")
    return arr


def teacher_optimal_permutation(t, y: int) -> np.ndarray:
    """Ranking with the true label first, then classes by descending teacher logit.

    Ties among equal teacher logits break toward the lower class index.
    """
    t = as_finite_vector(t, "teacher logits")
    return ascending_rankings(t[None], as_labels(y, t.shape[0], 1))[0, ::-1]


def ascending_rankings(t_batch: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Row-wise evaluation orderings: teacher-ascending with the label last.

    This is exactly the reverse of the teacher-optimal ranking, so position
    j holds the class ranked C-1-j.  Inputs are assumed validated.  The
    teacher-optimal ranking is the tie-stable ascending sort of the negated
    logits with the label's key at -inf; a reversed view of it keeps the
    lower class index first among equals once read back in ranking order.
    """
    key = -t_batch
    key[np.arange(t_batch.shape[0]), labels] = -np.inf
    return argsort_stable(key)[:, ::-1]


def pl_log_likelihood(s, pi) -> float | np.ndarray:
    """Log-probability of drawing the full ranking ``pi`` from logits ``s``.

    ``pi`` may also be a stack (..., C) of rankings of the same C logits; the
    result then has shape ``pi.shape[:-1]``, one log-likelihood per ranking,
    each equal bit for bit to the float of a one-ranking call.

    Evaluated with a reversed running log-sum-exp, so the cost is O(C) after
    the permutation gather rather than O(C^2).
    """
    s = as_finite_vector(s, "logits")
    c = s.shape[0]
    pi = as_ranking(pi, c)
    s_perm = s[pi]
    # finite by the check above, so the running sums skip log_cumsum_exp's input scan
    suffix = _log_cumsum_exp_rows(s_perm.reshape(-1, c)[:, ::-1])[:, ::-1]
    ll = (s_perm - suffix.reshape(s_perm.shape)).sum(axis=-1)
    return float(ll) if pi.ndim == 1 else ll


def pl_position_nll(s_ranked: np.ndarray) -> np.ndarray:
    """Reference oracle: -log P(pick k) at each position k of ``s_ranked``, a
    stack (..., C) of finite logits in ranking order, as log sum_{l >= k}
    exp(s_l) - s_k with each suffix summed on its own after its max is
    subtracted.  O(C^2) per row, looping over k: no (..., C, C) temporary."""
    out = np.empty_like(s_ranked)
    for k in range(s_ranked.shape[-1]):
        suffix = s_ranked[..., k:]
        m = suffix.max(axis=-1)
        out[..., k] = (m - s_ranked[..., k]) + np.log(np.exp(suffix - m[..., None]).sum(axis=-1))
    return out


def pl_enumerate(s) -> list[tuple[tuple[int, ...], float]]:
    """All rankings of the classes with their model probabilities.

    Each is exp(-sum of pl_position_nll) of its ranking, so they sum to 1 up
    to rounding.  Refuses inputs with more than ENUMERATION_MAX_CLASSES classes.
    """
    s = as_finite_vector(s, "logits")
    c = s.shape[0]
    if c > ENUMERATION_MAX_CLASSES:
        raise EnumerationLimitError(
            f"enumeration over {c}! rankings exceeds the cap of "
            f"{ENUMERATION_MAX_CLASSES} classes"
        )
    perms = np.array(list(itertools.permutations(range(c))), dtype=np.int64)
    probs = np.exp(-pl_position_nll(s[perms]).sum(axis=1))
    return [(tuple(p), q) for p, q in zip(perms.tolist(), probs.tolist())]

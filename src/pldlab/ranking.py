"""Plackett-Luce permutation model over class logits.

A ranking is stored first-pick-first: position 0 holds the class chosen
first.  Under the model, position k is chosen from the classes not yet
picked with probability exp(s_k) / sum of exp over the remaining classes,
so the log-likelihood of a full ranking ``pi`` is

    sum_k [ s[pi[k]] - log sum_{l >= k} exp(s[pi[l]]) ].

The exhaustive enumerator below is the ground truth the efficient code is
checked against; it is deliberately capped at 8 classes (40320 orderings).
"""

from __future__ import annotations

import itertools

import numpy as np

from .numerics import argsort_stable, as_finite_vector, log_cumsum_exp

__all__ = [
    "EnumerationLimitError",
    "teacher_optimal_permutation",
    "ascending_rankings",
    "as_ranking",
    "pl_log_likelihood",
    "pl_enumerate",
    "ENUMERATION_MAX_CLASSES",
]

ENUMERATION_MAX_CLASSES = 8


class EnumerationLimitError(ValueError):
    """Raised when a factorial enumeration would exceed the class cap."""


def as_ranking(pi, n_classes: int) -> np.ndarray:
    """Validate ``pi`` as a permutation of 0..n_classes-1."""
    arr = np.asarray(pi)
    if arr.ndim != 1 or arr.shape[0] != n_classes:
        raise ValueError(f"ranking must have length {n_classes}, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError("ranking must contain integers")
    arr = arr.astype(np.int64)
    if not np.array_equal(np.sort(arr), np.arange(n_classes)):
        raise ValueError("ranking is not a permutation of 0..C-1")
    return arr


def teacher_optimal_permutation(t, y: int) -> np.ndarray:
    """Ranking with the true label first, then classes by descending teacher logit.

    Ties among equal teacher logits break toward the lower class index.
    """
    t = as_finite_vector(t, "teacher logits")
    c = t.shape[0]
    y = int(y)
    if not 0 <= y < c:
        raise ValueError(f"label {y} out of range for {c} classes")
    desc = argsort_stable(t, descending=True)
    return np.concatenate(([y], desc[desc != y])).astype(np.int64)


def ascending_rankings(t_batch: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Row-wise evaluation orderings: teacher-ascending with the label last.

    This is exactly the reverse of the teacher-optimal ranking, so position
    j holds the class ranked C-1-j.  Inputs are assumed validated.  The
    teacher-optimal ranking is the tie-stable ascending sort of the negated
    logits with the label's key at -inf; reversing it keeps the lower class
    index first among equals once read back in ranking order.
    """
    key = -t_batch
    key[np.arange(t_batch.shape[0]), labels] = -np.inf
    return np.ascontiguousarray(argsort_stable(key)[:, ::-1])


def pl_log_likelihood(s, pi) -> float:
    """Log-probability of drawing the full ranking ``pi`` from logits ``s``.

    Evaluated with a reversed running log-sum-exp, so the cost is O(C) after
    the permutation gather rather than O(C^2).
    """
    s = as_finite_vector(s, "logits")
    pi = as_ranking(pi, s.shape[0])
    s_perm = s[pi]
    suffix = log_cumsum_exp(s_perm[::-1])[::-1]
    return float((s_perm - suffix).sum())


def pl_enumerate(s) -> list[tuple[tuple[int, ...], float]]:
    """All rankings of the classes with their model probabilities.

    Probabilities are exact likelihood evaluations, so they sum to 1 up to
    rounding.  Refuses inputs with more than ENUMERATION_MAX_CLASSES classes.
    """
    s = as_finite_vector(s, "logits")
    c = s.shape[0]
    if c > ENUMERATION_MAX_CLASSES:
        raise EnumerationLimitError(
            f"enumeration over {c}! rankings exceeds the cap of "
            f"{ENUMERATION_MAX_CLASSES} classes"
        )
    perms = np.array(list(itertools.permutations(range(c))), dtype=np.int64)
    s_perm = s[perms]
    suffix = log_cumsum_exp(s_perm[:, ::-1])[:, ::-1]
    log_probs = (s_perm - suffix).sum(axis=1)
    probs = np.exp(log_probs)
    return [(tuple(int(i) for i in p), float(q)) for p, q in zip(perms, probs)]

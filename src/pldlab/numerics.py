"""Stable numerical primitives shared by every loss kernel.

All routines work in 64-bit floats, reject non-finite input at the
boundary, and are pure functions of their arguments.  Softmax-style
quantities are always computed after max-subtraction so that logits of
magnitude around 700 (the float64 exp limit) stay representable.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "as_finite_vector",
    "as_finite_matrix",
    "as_labels",
    "softmax",
    "log_softmax",
    "log_sum_exp",
    "log_cumsum_exp",
    "argsort_stable",
    "make_rng",
]

# Row spread below which exp(x - rowmax) keeps full relative precision in a
# plain cumulative sum; beyond it we fall back to pairwise log-add updates.
_FAST_LCSE_SPAN = 600.0


def _finite(arr: np.ndarray, name: str) -> np.ndarray:
    """``arr`` itself, once checked to be nonempty and finite."""
    if arr.size == 0:
        raise ValueError(f"{name} must be nonempty")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def as_finite_vector(v, name: str = "vector") -> np.ndarray:
    """Validate and return ``v`` as a 1-D float64 array (finite, length >= 1)."""
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    return _finite(arr, name)


def as_finite_matrix(m, name: str = "matrix", stack: bool = False) -> np.ndarray:
    """Validate and return ``m`` as a 2-D float64 array (finite, nonempty);
    with ``stack`` also as a stack (..., N, C) of such matrices."""
    arr = np.asarray(m, dtype=np.float64)
    if arr.ndim != 2 and not (stack and arr.ndim > 2):
        kind = "2-D or a stack of 2-D arrays" if stack else "2-D"
        raise ValueError(f"{name} must be {kind}, got shape {arr.shape}")
    return _finite(arr, name)


def as_labels(labels, n_classes: int, n_rows: int | None = None) -> np.ndarray:
    """Validate class labels: integer array with every entry in [0, n_classes)."""
    arr = np.asarray(labels)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError("labels must be integers")
    arr = arr.astype(np.int64)
    if arr.size and (arr.min() < 0 or arr.max() >= n_classes):
        raise ValueError(f"labels must lie in [0, {n_classes})")
    if n_rows is not None and arr.shape[0] != n_rows:
        raise ValueError(f"expected {n_rows} labels, got {arr.shape[0]}")
    return arr


def _shifted(v, temperature: float, name: str) -> np.ndarray:
    """v / temperature minus its row max, once both are checked.  Entries of
    a row wider than the float64 range go to -inf (probability 0) silently; a
    row whose scaled max overflows (temperature < 1) is shifted before the divide."""
    if not (np.isfinite(temperature) and temperature > 0):
        raise ValueError(f"temperature must be positive, got {temperature}")
    arr = _finite(np.asarray(v, dtype=np.float64), name)
    with np.errstate(over="ignore"):
        z = arr if temperature == 1.0 else arr / temperature
        m = z.max(axis=-1, keepdims=True)
        if temperature < 1.0 and np.isinf(m).any():  # v / temperature overflowed
            z = np.where(np.isinf(m), (arr - arr.max(axis=-1, keepdims=True)) / temperature, z)
            m[np.isinf(m)] = 0.0
        return z - m


def softmax(v, temperature: float = 1.0) -> np.ndarray:
    """Temperature-scaled softmax of each row (the last axis), via
    max-subtraction.

    Output rows are nonnegative and sum to 1 (entries more than ~745 nats
    below the row max underflow to exactly 0).
    """
    e = np.exp(_shifted(v, temperature, "softmax input"))
    e /= e.sum(axis=-1, keepdims=True)
    return e


def log_softmax(v, temperature: float = 1.0) -> np.ndarray:
    """log(softmax(v / temperature)) of each row; never produces -inf from
    underflow alone."""
    z = _shifted(v, temperature, "log_softmax input")
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def log_sum_exp(v) -> float:
    """log(sum(exp(v))) of a vector, with max-subtraction."""
    arr = as_finite_vector(v, "log_sum_exp input")
    m = arr.max()
    return float(m + np.log(np.exp(arr - m).sum()))


def log_cumsum_exp(v) -> np.ndarray:
    """Running log-sum-exp of each row: out[..., j] = log(sum_{i<=j} exp(v[..., i])).

    Entries equal to -inf are permitted (they contribute nothing); all other
    entries must be finite.  Each prefix is accurate to ~1e-13 relative even
    when later entries dominate earlier ones by hundreds of nats.
    """
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim == 0 or arr.size == 0:
        raise ValueError("log_cumsum_exp needs a nonempty array of at least one axis")
    if np.isnan(arr).any() or (arr == np.inf).any():
        raise ValueError("log_cumsum_exp input contains NaN or +inf")
    return _log_cumsum_exp_rows(arr.reshape(-1, arr.shape[-1])).reshape(arr.shape)


def _log_cumsum_exp_rows(x: np.ndarray) -> np.ndarray:
    """Row-wise running log-sum-exp of a 2-D array.

    Fast path: rows whose finite spread fits in _FAST_LCSE_SPAN are shifted
    by their max and cumulatively summed in linear space (a sum of positives,
    so every prefix keeps full relative precision).  Wide rows fall back to
    sequential np.logaddexp, which is exact for any spread.
    """
    m = x.max(axis=1, keepdims=True)
    m[np.isneginf(m)] = 0.0  # a row of all -inf: log(0) + 0 = -inf
    finite_min = np.where(np.isinf(x), np.inf, x).min(axis=1, keepdims=True)
    narrow = ((m - finite_min) < _FAST_LCSE_SPAN).ravel()
    every = narrow.all()
    xs, ms = (x, m) if every else (x[narrow], m[narrow])
    with np.errstate(divide="ignore"):  # log(0) = -inf for -inf prefixes
        lin = np.log(np.cumsum(np.exp(xs - ms), axis=1)) + ms
    if every:
        return lin
    out = np.empty_like(x)
    out[narrow] = lin
    out[~narrow] = np.logaddexp.accumulate(x[~narrow], axis=1)
    return out


def argsort_stable(v, descending: bool = False) -> np.ndarray:
    """Argsort of each row (the last axis) with deterministic ties: equal
    values keep lower index first.

    Uses the default (unstable) sort and re-sorts only the rows that actually
    contain duplicates, which is substantially faster on float data where
    ties are rare.
    """
    key = np.asarray(v, dtype=np.float64)
    if key.ndim == 0 or key.size == 0:
        raise ValueError("argsort_stable needs a nonempty array of at least one axis")
    if descending:
        key = -key
    order = np.argsort(key, axis=-1)
    sorted_vals = np.take_along_axis(key, order, axis=-1)
    ties = (sorted_vals[..., 1:] == sorted_vals[..., :-1]).any(axis=-1)
    if ties.any():
        order[ties] = np.argsort(key[ties], axis=-1, kind="stable")
    return order


def make_rng(seed: int) -> np.random.Generator:
    """Seeded counter-based random generator (Philox 4x64-10, keyed directly).

    The Philox stream is a pure function of the 64-bit key, so equal seeds
    give bitwise-equal draws on every platform.  Reference draws, frozen in
    the test suite:

        seed 0  -> first raw words 213000021201967259, 4455796210202625458
        seed 42 -> first raw words 15129985323320379406, 3490965594592278910

    Generators are single-owner: never share one instance across threads.
    """
    if not (0 <= int(seed) < 2**64):
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    return np.random.Generator(np.random.Philox(key=int(seed)))

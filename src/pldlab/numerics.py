"""Stable numerical primitives shared by every loss kernel.

All routines work in 64-bit floats, reject non-finite input at the
boundary, and are pure functions of their arguments.  Softmax-style
quantities are always computed after max-subtraction so that logits of
magnitude around 700 (the float64 exp limit) stay representable.
A running log-sum-exp row wider than _FAST_LCSE_SPAN is banded (exponents
floored at _EXP_FLOOR, its low prefix summed by np.logaddexp.accumulate) or,
when that prefix is over 1/8 of the row, summed whole by that scalar loop.
"""

from __future__ import annotations

import math

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
# plain cumulative sum; wider rows are banded or summed sequentially.
_FAST_LCSE_SPAN = 600.0
# Exponents are floored here before exp on the wide paths: exp of a smaller
# argument is subnormal or 0, which numpy computes ~200x slower.
_EXP_FLOOR = -700.0

# numpy's stable argsort costs about N*C*log2(C) (binary insertion and merges);
# the packed sort a fixed ~25 us for its dozen array passes plus a linear term.
# Below this N * C * C.bit_length() the former is faster (measured, C up to 2000).
_PACKED_SORT_MIN_WORK = 8192
_MAGNITUDE = np.int64(0x7FFF_FFFF_FFFF_FFFF)  # all bits but the sign
_INF_BITS = 0x7FF0_0000_0000_0000  # +inf, and -inf's magnitude


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
    if arr.dtype.kind not in "iu":
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
    when later entries dominate earlier ones by hundreds of nats (a wide row
    is banded or summed sequentially: see _log_cumsum_exp_rows).
    """
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim == 0 or arr.size == 0:
        raise ValueError("log_cumsum_exp needs a nonempty array of at least one axis")
    if np.isnan(arr).any() or (arr == np.inf).any():
        raise ValueError("log_cumsum_exp input contains NaN or +inf")
    return _log_cumsum_exp_rows(arr.reshape(-1, arr.shape[-1])).reshape(arr.shape)


def _log_cumsum_exp_rows(x: np.ndarray) -> np.ndarray:
    """Row-wise running log-sum-exp of a 2-D array, each row with its one-row call's bits.

    A batch with no -inf and every row's spread below _FAST_LCSE_SPAN is
    shifted by the row max and summed in linear space (a sum of positives: full
    relative precision).  Otherwise a row whose low prefix (its entries before
    the first within the span of its max) is at most 1/8 of it, or only -inf,
    is banded: the same sum with exponents floored at _EXP_FLOOR.  From the
    span on the sum is >= e^-600 and the floored terms add <= C*e^-700, under
    half an ulp, so a narrow row keeps its bits; the low prefix is summed again
    by np.logaddexp.accumulate.  Other rows, and rows of all -inf, take
    np.logaddexp.accumulate whole: it is exact for any spread.
    """
    m = x.max(axis=1, keepdims=True)
    lo = x.min(axis=1, keepdims=True)
    if lo.min() > -np.inf and ((m - lo) < _FAST_LCSE_SPAN).all():  # NaN fails both
        return np.log(np.cumsum(np.exp(x - m), axis=1)) + m
    start = np.argmax(x >= m - _FAST_LCSE_SPAN, axis=1)
    seq = 8 * start > x.shape[1]
    if seq.any():  # a low prefix of -inf alone sums to exactly 0 when banded
        seq[seq] = np.argmax(x[seq] > -np.inf, axis=1) < start[seq]
    seq |= np.isneginf(m[:, 0])
    band = np.flatnonzero(~seq)
    z = x[band]  # a copy: the rest runs in place
    z -= m[band]
    np.log(np.cumsum(np.exp(np.maximum(z, _EXP_FLOOR, out=z), out=z), axis=1, out=z), out=z)
    z += m[band]
    k = start[band]
    redo = np.flatnonzero(k)
    if redo.size:  # the low prefixes; a prefix sum reads only the entries before it
        k, w = k[redo], k.max()
        p = np.logaddexp.accumulate(x[band[redo], :w], axis=1)
        z[redo, :w] = np.where(np.arange(w) < k[:, None], p, z[redo, :w])
    if band.size == x.shape[0]:  # no row takes the sequential route
        return z
    out = np.empty_like(x)
    out[seq] = np.logaddexp.accumulate(x[seq], axis=1)
    out[band] = z
    return out


def _row_starts(shape: tuple) -> np.ndarray:
    """Flat offset of each row (the last axis) of a C-contiguous array of
    ``shape``, shaped to broadcast over the rows: ``a.reshape(-1)[idx +
    _row_starts(a.shape)]`` gathers a[..., idx[..., j]] row by row."""
    return np.arange(0, math.prod(shape), shape[-1]).reshape(shape[:-1] + (1,))


def argsort_stable(v, descending: bool = False) -> np.ndarray:
    """Argsort of each row (the last axis) with deterministic ties: equal
    values keep lower index first.

    The result equals ``np.argsort(-v if descending else v, axis=-1,
    kind="stable")``, NaN included (every NaN sorts last, in index order), and
    -0.0 ties with +0.0.  The key is negated once when descending; small keys
    (see _PACKED_SORT_MIN_WORK) then take that call as is, and larger ones
    take _packed_argsort, one sort of int64 keys.
    """
    key = np.asarray(v, dtype=np.float64)
    if key.ndim == 0 or key.size == 0:
        raise ValueError("argsort_stable needs a nonempty array of at least one axis")
    if descending:
        key = -key
    if key.size * key.shape[-1].bit_length() < _PACKED_SORT_MIN_WORK:
        return np.argsort(key, axis=-1, kind="stable")
    return _packed_argsort(key)


def _packed_argsort(key: np.ndarray) -> np.ndarray:
    """Ascending argsort_stable of a nonempty float64 array by one sort of packed keys.

    Each float maps to the int64 whose signed order is the float order (the
    sign-magnitude bits as two's complement, so -0.0 and +0.0 both map to
    0).  Its low b = (C-1).bit_length() bits are replaced by the column
    index, so equal floats sort by index.  Distinct floats within 2^b ulps
    can share the high bits and sort by index too: rows where two neighbours
    share them are checked by their values, as are rows holding a NaN, and a
    row that fails takes numpy's stable argsort.
    """
    key = np.ascontiguousarray(key)  # so flat offsets and reshapes are views
    c = key.shape[-1]
    b = (c - 1).bit_length()
    low = (1 << b) - 1
    u = key.view(np.int64)
    neg = u >> 63  # -1 where the sign bit is set, else 0
    k = u & _MAGNITUDE
    k ^= neg
    k -= neg
    k &= ~low
    k |= np.arange(c)
    k.sort(axis=-1)
    order = np.bitwise_and(k, low, out=neg)  # neg's buffer, no longer read
    # a NaN sorts below the -inf bucket, or above the +inf bucket unless it is
    # alone there, where it is last as in numpy
    check = (k[..., 0] < -_INF_BITS) | (k[..., -1] > _INF_BITS | low)
    k >>= b
    check |= (k[..., 1:] == k[..., :-1]).any(axis=-1)
    if check.any():
        rows = np.flatnonzero(check)
        flat = order.reshape(-1, c)
        idx = flat[rows]
        idx += (rows * c)[:, None]
        vals = key.reshape(-1)[idx]
        bad = rows[~(vals[:, 1:] >= vals[:, :-1]).all(axis=1)]  # NaN fails >=
        if bad.size:
            flat[bad] = np.argsort(key.reshape(-1, c)[bad], axis=-1, kind="stable")
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

"""Numerical primitive tests: analytic values, stability cases, and naive oracles."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pldlab.numerics import (
    _FAST_LCSE_SPAN,
    _PACKED_SORT_MIN_WORK,
    _log_cumsum_exp_rows,
    _packed_argsort,
    argsort_stable,
    as_finite_vector,
    log_cumsum_exp,
    log_softmax,
    log_sum_exp,
    make_rng,
    softmax,
)


def naive_log_cumsum_exp(v):
    """Per-prefix oracle: an independent log-sum-exp for every prefix (-inf
    for a prefix of -inf entries)."""
    v = np.asarray(v, dtype=np.float64)
    out = np.empty_like(v)
    for j in range(v.shape[0]):
        prefix = v[: j + 1]
        m = prefix.max()
        out[j] = m if m == -np.inf else m + math.log(np.exp(prefix - m).sum())
    return out


class TestSoftmax:
    def test_symmetric_pair(self):
        np.testing.assert_allclose(softmax([0.0, 0.0]), [0.5, 0.5], atol=1e-15)

    def test_analytic_pair(self):
        np.testing.assert_allclose(softmax([math.log(3.0), 0.0]), [0.75, 0.25], rtol=1e-14)

    def test_huge_logit_does_not_overflow(self):
        out = softmax([1000.0, 0.0])
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-12)

    def test_sums_to_one(self):
        rng = make_rng(1)
        for _ in range(50):
            v = rng.normal(size=rng.integers(1, 40)) * 100
            for tau in (0.25, 1.0, 7.5):
                assert abs(softmax(v, tau).sum() - 1.0) < 1e-12

    def test_translation_invariance(self):
        rng = make_rng(2)
        for _ in range(30):
            v = rng.normal(size=12) * 5
            c = rng.uniform(-100, 100)
            np.testing.assert_allclose(softmax(v + c), softmax(v), atol=1e-12)

    def test_matrix_rows(self):
        rng = make_rng(3)
        m = rng.normal(size=(6, 9))
        out = softmax(m)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(out[2], softmax(m[2]), rtol=1e-15)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            softmax([0.0, 1.0], temperature=0.0)
        with pytest.raises(ValueError):
            softmax([0.0, 1.0], temperature=-2.0)
        with pytest.raises(ValueError):
            softmax([0.0, np.nan])
        with pytest.raises(ValueError):
            softmax([])

    def test_log_softmax_matches_log_of_softmax(self):
        rng = make_rng(4)
        v = rng.normal(size=15) * 3
        np.testing.assert_allclose(log_softmax(v, 2.0), np.log(softmax(v, 2.0)), rtol=1e-12)

    def test_row_wider_than_float64_range_warns_nothing(self):
        """z - max(z) overflows to -inf for a finite row spanning more than
        the float64 range; that is the right answer, and no warning."""
        rows = [[1e308, -1e308, 0.0], [1.0, 2.0, 3.0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p, logp = softmax(rows), log_softmax(rows)
        np.testing.assert_array_equal(p[0], [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(logp[0], [0.0, -np.inf, -1e308])
        np.testing.assert_array_equal(p[1], softmax([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(logp[1], log_softmax([1.0, 2.0, 3.0]))

    def test_tiny_temperature_on_huge_logits_warns_nothing(self):
        """v / tau overflows to inf for finite logits above about 1.8e308 * tau:
        such a row is shifted by its max before the divide, and every other
        row keeps the bits of a one-row call."""
        rows = [[1e306, 0.0], [1e306, 1e306 - 2e303], [1.0, 2.0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p, logp = softmax(rows, 1e-3), log_softmax(rows, 1e-3)
            far = (rows[1][1] - rows[1][0]) / 1e-3
            np.testing.assert_array_equal(logp[:2], [[0.0, -np.inf], [0.0, far]])
            np.testing.assert_array_equal(p[:2], [[1.0, 0.0], [1.0, 0.0]])
            np.testing.assert_array_equal(p[2], softmax(rows[2], 1e-3))
            np.testing.assert_array_equal(logp[2], log_softmax(rows[2], 1e-3))


class TestLogSumExp:
    def test_pair_of_zeros(self):
        assert abs(log_sum_exp([0.0, 0.0]) - math.log(2.0)) < 1e-15

    def test_singleton_identity(self):
        for x in (-3.5, 0.0, 123.456):
            assert log_sum_exp([x]) == pytest.approx(x, abs=1e-15)

    def test_large_values(self):
        assert log_sum_exp([1000.0, 1000.0]) == pytest.approx(1000.0 + math.log(2.0), rel=1e-14)

    def test_relative_accuracy_wide_range(self):
        rng = make_rng(5)
        for _ in range(40):
            v = rng.uniform(-700, 700, size=8)
            m = v.max()
            expected = m + math.log(np.exp(v - m).sum())
            assert abs(log_sum_exp(v) - expected) <= 1e-12 * max(1.0, abs(expected))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            log_sum_exp([])


class TestLogCumsumExp:
    def test_two_zeros(self):
        np.testing.assert_allclose(log_cumsum_exp([0.0, 0.0]), [0.0, math.log(2.0)], atol=1e-15)

    def test_three_zeros(self):
        np.testing.assert_allclose(
            log_cumsum_exp([0.0, 0.0, 0.0]), [0.0, math.log(2.0), math.log(3.0)], atol=1e-15
        )

    def test_matches_naive_prefix_oracle(self):
        rng = make_rng(6)
        for _ in range(100):
            v = rng.normal(size=8) * rng.uniform(0.1, 50)
            np.testing.assert_allclose(log_cumsum_exp(v), naive_log_cumsum_exp(v), atol=1e-12)

    def test_wide_spread_hits_slow_path(self):
        # later entries dominate earlier ones by ~2000 nats; the global-shift
        # shortcut would return -inf for early prefixes here
        v = np.array([0.0, 0.5, 1000.0, -1000.0, 2000.0])
        np.testing.assert_allclose(log_cumsum_exp(v), naive_log_cumsum_exp(v), rtol=1e-13)

    def test_mixed_rows_choose_paths_independently(self):
        rows = np.array([[0.0, 1.0, 2.0], [0.0, 0.0, 1000.0]])
        out = log_cumsum_exp(rows)
        for i in range(2):
            np.testing.assert_allclose(out[i], naive_log_cumsum_exp(rows[i]), rtol=1e-13)

    def test_neg_inf_entries_contribute_nothing(self):
        v = np.array([-np.inf, 0.0, -np.inf, 0.0])
        np.testing.assert_allclose(log_cumsum_exp(v), [-np.inf, 0.0, 0.0, math.log(2.0)])

    def test_all_neg_inf_row(self):
        out = log_cumsum_exp(np.array([[-np.inf, -np.inf], [0.0, 0.0]]))
        assert np.isneginf(out[0]).all()
        np.testing.assert_allclose(out[1], [0.0, math.log(2.0)], atol=1e-15)

    def test_last_entry_equals_log_sum_exp(self):
        rng = make_rng(7)
        for _ in range(30):
            v = rng.normal(size=17) * 20
            assert log_cumsum_exp(v)[-1] == pytest.approx(log_sum_exp(v), abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            log_cumsum_exp(np.array([]))
        with pytest.raises(ValueError):
            log_cumsum_exp(np.float64(1.0))


ROW_KINDS = ("narrow", "wide", "mid", "some -inf", "all -inf", "banded", "ladder", "huge")


@st.composite
def banded_row(draw, c):
    """c entries: a top part within the span of its max, after a low prefix of
    at most c // 8 entries lying 600 to 2600 nats below it, itself drawn the
    same way (so a row of 64 can hold a second band), and maybe -inf entries
    in the top part (never at its max)."""
    k = draw(st.just(c // 8) | st.integers(0, c // 8))
    top = np.array(draw(st.lists(st.floats(-0.8 * _FAST_LCSE_SPAN, 0.0), min_size=c - k,
                                 max_size=c - k)))
    top[draw(st.integers(0, c - k - 1))] = 0.0
    if c - k > 1 and draw(st.booleans()):
        dead = np.array(draw(st.lists(st.booleans(), min_size=c - k, max_size=c - k)))
        top[dead & (top < 0.0)] = -np.inf
    if k == 0:
        return top
    low = draw(banded_row(k))
    low += -_FAST_LCSE_SPAN - draw(st.floats(0.0, 2000.0)) - low.max()
    return np.concatenate([low, top])


@st.composite
def mid_row(draw, c, shift):
    """c entries whose finite spread lies in [_FAST_LCSE_SPAN, 2 * _FAST_LCSE_SPAN)
    (c > 1): a least entry at ``shift`` and a largest one spread above it, in
    drawn places, the rest between them, maybe some (or a leading run) -inf."""
    spread = draw(st.floats(_FAST_LCSE_SPAN, 1.99 * _FAST_LCSE_SPAN))
    row = shift + np.array(draw(st.lists(st.floats(0.0, spread), min_size=c, max_size=c)))
    if c == 1:
        return row
    ends = draw(st.lists(st.integers(0, c - 1), min_size=2, max_size=2, unique=True))
    row[ends] = shift, shift + spread
    if draw(st.booleans()):
        lead = draw(st.integers(0, min(ends)))
        dead = np.array(draw(st.lists(st.booleans(), min_size=c, max_size=c)))
        dead[:lead] = True
        dead[ends] = False
        row[dead] = -np.inf
    return row


@st.composite
def lcse_rows(draw, kinds):
    """A batch of rows, each of a kind drawn from ``kinds``: narrow (finite
    spread below _FAST_LCSE_SPAN), wide (spread at least that), either with
    some -inf entries (maybe a leading run of them), mid (finite spread in
    [_FAST_LCSE_SPAN, 2 * _FAST_LCSE_SPAN), maybe with -inf entries), all -inf,
    banded (see banded_row), a ladder of steps of 600 to 1000 nats up or down,
    or huge (entries up to 1e300 apart)."""
    c = draw(st.just(64) | st.integers(1, 64))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(kinds))
        shift = draw(st.floats(-700.0, 700.0))
        if kind == "all -inf":
            rows.append(np.full(c, -np.inf))
            continue
        if kind == "banded":
            rows.append(shift + draw(banded_row(c)))
            continue
        if kind == "ladder":
            steps = draw(st.lists(st.floats(_FAST_LCSE_SPAN, 1000.0), min_size=c, max_size=c))
            rows.append(shift + np.cumsum(steps) * draw(st.sampled_from([1.0, -1.0])))
            continue
        if kind == "huge":
            rows.append(np.array(draw(st.lists(st.floats(-1e300, 1e300), min_size=c, max_size=c))))
            continue
        if kind == "mid":
            rows.append(draw(mid_row(c, shift)))
            continue
        width = (0.45 if kind == "narrow" or c == 1 else 3.0) * _FAST_LCSE_SPAN
        row = shift + np.array(
            draw(st.lists(st.floats(-width, width), min_size=c, max_size=c))
        )
        if kind == "wide" and c > 1:
            row[draw(st.integers(0, c - 1))] = row.max() - _FAST_LCSE_SPAN - draw(st.floats(0, 900))
        if kind == "some -inf" and c > 1:
            lead = draw(st.integers(0, c - 1))  # a leading run of -inf
            dead = [j < lead or d for j, d in enumerate(
                draw(st.lists(st.booleans(), min_size=c, max_size=c)))]
            keep = draw(st.integers(0, c - 1))
            row[[d and j != keep for j, d in enumerate(dead)]] = -np.inf
        rows.append(row)
    return np.array(rows)


@settings(max_examples=20, derandomize=True, deadline=None)
@pytest.mark.parametrize("kinds", [("narrow",), ("wide",), ("narrow", "wide"), ("some -inf",),
                                   ("all -inf",), ROW_KINDS, ("banded",), ("ladder",), ("huge",),
                                   ("banded", "ladder", "narrow"), ("mid",),
                                   ("mid", "ladder", "some -inf")])
@given(data=st.data())
def test_log_cumsum_exp_rows_properties(kinds, data):
    """Each route against np.logaddexp.accumulate and the per-prefix oracle:
    -inf in the same places, finite prefixes within 1e-13 relative, and every
    row equal bit for bit to its one-row call."""
    x = data.draw(lcse_rows(kinds))
    out = _log_cumsum_exp_rows(x)
    for ref in (np.logaddexp.accumulate(x, axis=1), np.array([naive_log_cumsum_exp(r) for r in x])):
        np.testing.assert_array_equal(np.isneginf(out), np.isneginf(ref))
        live = np.isfinite(ref)
        assert np.isfinite(out[live]).all()
        assert (np.abs(out[live] - ref[live]) <= 1e-13 * np.maximum(1.0, np.abs(ref[live]))).all()
    for i, row in enumerate(x):
        assert out[i].tobytes() == _log_cumsum_exp_rows(row[None])[0].tobytes()


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    rows=st.integers(1, 8).flatmap(
        lambda c: st.lists(
            st.lists(st.sampled_from([0.0, -0.0, np.inf, -np.inf, 1.0, -1.0, 2.5]),
                     min_size=c, max_size=c),
            min_size=1, max_size=4,
        )
    ),
    descending=st.booleans(),
)
def test_argsort_stable_matches_numpy_stable_sort(rows, descending):
    v = np.array(rows)
    want = np.argsort(-v if descending else v, axis=-1, kind="stable")
    np.testing.assert_array_equal(argsort_stable(v, descending=descending), want)


def numpy_stable(v, descending):
    return np.argsort(-v if descending else v, axis=-1, kind="stable")


def takes_packed_path(v):
    return v.size * v.shape[-1].bit_length() >= _PACKED_SORT_MIN_WORK


@st.composite
def sort_rows(draw):
    """A stack (..., N, C) drawn from a pool of up to 8 values that mixes near
    neighbours of one value (nextafter steps and low-mantissa offsets, which
    share the packed keys' high bits), +-0.0, +-inf, subnormals and a 0.5 grid."""
    c = draw(st.sampled_from([1, 2, 3, 4, 5, 8, 9, 16, 17, 64, 65]))
    shape = tuple(draw(st.lists(st.integers(1, 3), max_size=2))) + (draw(st.integers(1, 4)), c)
    base = draw(st.sampled_from([1.0, -1.0, 0.75, 1e-310, -3.0e300, 5e-324, 0.0]))
    ulp = np.spacing(abs(base))
    near = st.integers(-3, 3).map(lambda k: base + k * ulp)
    step = st.sampled_from([np.nextafter(base, np.inf), np.nextafter(base, -np.inf), base])
    special = st.sampled_from([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.2e-308])
    grid = st.integers(-6, 6).map(lambda k: k / 2)
    pool = draw(st.lists(st.one_of(near, step, special, grid), min_size=1, max_size=8))
    return np.random.default_rng(draw(st.integers(0, 2**32))).choice(pool, size=shape)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(v=sort_rows(), descending=st.booleans())
def test_packed_argsort_matches_numpy_stable_sort(v, descending):
    """The packed sort and the public call both give numpy's stable order."""
    want = numpy_stable(v, descending)
    np.testing.assert_array_equal(_packed_argsort(-v if descending else v), want)
    np.testing.assert_array_equal(argsort_stable(v, descending=descending), want)


class TestArgsortStable:
    def test_bucket_collision_takes_the_fallback(self):
        """1.0 and the next float differ only in the lowest mantissa bit, which
        a row of C = 2 replaces by the column index, so their packed keys sort
        by index and put the larger value first.  Only the checked fallback
        puts 1.0 first; in a wide stack it redoes that row alone."""
        up = np.nextafter(1.0, 2.0)
        np.testing.assert_array_equal(_packed_argsort(np.array([up, 1.0])), [1, 0])
        np.testing.assert_array_equal(_packed_argsort(-np.array([1.0, up])), [1, 0])
        rng = make_rng(12)
        m = np.round(2.0 * rng.normal(size=(3, 1000))) / 2.0
        m[1, 0], m[1, 999] = 1.0 + 2 * np.spacing(1.0), 1.0  # one bucket for C = 1000
        assert takes_packed_path(m)
        for desc in (False, True):
            np.testing.assert_array_equal(argsort_stable(m, descending=desc), numpy_stable(m, desc))

    @pytest.mark.parametrize("c", [3, 1000])
    def test_nan_sorts_last_in_index_order(self, c):
        """As in numpy: every NaN, of either sign, goes last, lower index first,
        ascending and descending; rows without a NaN are unaffected."""
        rng = make_rng(13)
        v = rng.normal(size=(3, c))
        v[0, :3] = [np.nan, -np.inf, -np.nan]
        v[2, -1] = np.nan
        for desc in (False, True):
            want = numpy_stable(v, desc)
            np.testing.assert_array_equal(argsort_stable(v, descending=desc), want)
            np.testing.assert_array_equal(_packed_argsort(-v if desc else v), want)

    def test_wide_input_takes_the_packed_path(self):
        """A 1-D row, a stack and a transposed (not C-contiguous) stack large
        enough for the packed sort, continuous, tied and with a fallback row,
        equal numpy's stable sort."""
        rng = make_rng(14)
        for shape in [(1000,), (2, 5, 300), (300, 5, 2)]:
            x = rng.normal(size=shape)
            if shape[0] == 300:
                x = x.transpose(2, 1, 0)
            x[(1,) * (x.ndim - 1)][[0, -1]] = 1.0 + 2 * np.spacing(1.0), 1.0
            assert takes_packed_path(x)
            for v in (x, np.round(2.0 * x) / 2.0, -np.abs(x), np.zeros(x.shape)):
                for desc in (False, True):
                    np.testing.assert_array_equal(
                        argsort_stable(v, descending=desc), numpy_stable(v, desc)
                    )

    def test_descending_example(self):
        np.testing.assert_array_equal(
            argsort_stable([0.1, 2.0, -1.0], descending=True), [1, 0, 2]
        )

    def test_stable_tie_break_lower_index_first(self):
        np.testing.assert_array_equal(
            argsort_stable([1.0, 1.0, 0.0], descending=True), [0, 1, 2]
        )

    def test_singleton(self):
        np.testing.assert_array_equal(argsort_stable([5.0]), [0])

    def test_empty_and_scalar_rejected(self):
        with pytest.raises(ValueError):
            argsort_stable(np.array([]))
        with pytest.raises(ValueError):
            argsort_stable(np.float64(1.0))

    def test_is_permutation_and_monotone(self):
        rng = make_rng(8)
        for _ in range(50):
            v = rng.normal(size=rng.integers(1, 30))
            for desc in (False, True):
                order = argsort_stable(v, descending=desc)
                assert sorted(order.tolist()) == list(range(v.shape[0]))
                sorted_v = v[order]
                diffs = np.diff(sorted_v)
                assert (diffs <= 0).all() if desc else (diffs >= 0).all()

    def test_many_ties_match_reference_stable_sort(self):
        rng = make_rng(9)
        for _ in range(50):
            v = rng.integers(0, 4, size=20).astype(float)
            got = argsort_stable(v, descending=True)
            want = np.argsort(-v, kind="stable")
            np.testing.assert_array_equal(got, want)

    def test_batched_rows_with_and_without_ties(self):
        m = np.array([[3.0, 1.0, 2.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        got = argsort_stable(m, descending=True)
        for i in range(3):
            np.testing.assert_array_equal(got[i], np.argsort(-m[i], kind="stable"))


class TestRng:
    def test_equal_seeds_equal_streams(self):
        a = make_rng(123).random(100)
        b = make_rng(123).random(100)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        assert make_rng(0).random(8).tolist() != make_rng(1).random(8).tolist()

    def test_frozen_raw_words(self):
        # reference vectors for the documented counter-based stream
        raw0 = np.random.Philox(key=0).random_raw(2)
        np.testing.assert_array_equal(
            raw0, np.array([213000021201967259, 4455796210202625458], dtype=np.uint64)
        )
        raw42 = np.random.Philox(key=42).random_raw(2)
        np.testing.assert_array_equal(
            raw42, np.array([15129985323320379406, 3490965594592278910], dtype=np.uint64)
        )

    def test_frozen_doubles(self):
        np.testing.assert_allclose(
            make_rng(0).random(3),
            [0.011546754286331562, 0.24154919656271812, 0.11142585551493822],
            rtol=0,
            atol=0,
        )

    def test_seed_range_validated(self):
        with pytest.raises(ValueError):
            make_rng(-1)
        with pytest.raises(ValueError):
            make_rng(2**64)


class TestValidators:
    def test_vector_rejects_nan_inf_empty(self):
        for bad in ([np.nan], [np.inf], [-np.inf], []):
            with pytest.raises(ValueError):
                as_finite_vector(bad)

    def test_vector_rejects_matrix(self):
        with pytest.raises(ValueError):
            as_finite_vector(np.zeros((2, 2)))


@settings(max_examples=30, derandomize=True, deadline=None)
@given(x=lcse_rows(("narrow",)), data=st.data())
def test_log_cumsum_exp_rows_shortcut_uses_the_general_formula(x, data):
    """A narrow batch without -inf takes the early return; with one more row
    holding a -inf it takes the general path.  Their shared rows agree bit for bit."""
    extra = x[:1].copy()
    extra[0, data.draw(st.integers(0, x.shape[1] - 1))] = -np.inf
    short = _log_cumsum_exp_rows(x)
    general = _log_cumsum_exp_rows(np.concatenate([x, extra]))
    assert short.tobytes() == general[:-1].tobytes()


def test_low_prefix_takes_the_route_of_its_own_length():
    """The low prefixes of a batch are summed again together, over the width of
    the longest: here one of 8 entries and others of 4, each led by an entry
    2000 nats further down.  Each row still equals its one-row call bit for
    bit."""
    rng = make_rng(8)
    rows = [np.r_[-1500.0 + rng.uniform(-50.0, 0.0, 8), rng.uniform(-300.0, 0.0, 56)]]
    rows += [np.r_[-3000.0, -1000.0 + rng.uniform(-50.0, 0.0, 3), rng.uniform(-300.0, 0.0, 60)]
             for _ in range(30)]
    x = np.array(rows)
    out = _log_cumsum_exp_rows(x)
    for i, row in enumerate(x):
        assert out[i].tobytes() == _log_cumsum_exp_rows(row[None])[0].tobytes()


def test_banded_low_prefix_is_summed_by_logaddexp():
    """A banded row's outputs over its low prefix are np.logaddexp.accumulate
    of that prefix, bit for bit, for prefixes of 1, C/16 and C/8 entries whose
    own spread is narrow or wide, all in one batch."""
    rng = make_rng(19)
    c = 256
    rows, lengths = [], []
    for k in (1, c // 16, c // 8):
        for width in (50.0, 1500.0):
            for _ in range(3):
                rows.append(np.r_[-1500.0 + rng.uniform(-width, 0.0, k),
                                  rng.uniform(-300.0, 0.0, c - k)])
                lengths.append(k)
    x = np.array(rows)
    out = _log_cumsum_exp_rows(x)
    for row, got, k in zip(x, out, lengths):
        assert got[:k].tobytes() == np.logaddexp.accumulate(row[:k]).tobytes()


def test_mid_row_is_summed_linearly_above_its_least_entry():
    """A row whose finite spread lies in [_FAST_LCSE_SPAN, 2 * _FAST_LCSE_SPAN)
    is shifted by its least entry plus the span, so every term lies in
    [e^-600, e^600], and summed by the plain linear formula.  It keeps those
    bytes behind a run of -inf and batched with a ladder row, without a warning."""
    rng = make_rng(24)
    row = rng.uniform(-500.0, 450.0, 200)
    row[[7, 120]] = -500.0, 450.0  # spread 950
    top = row.min() + _FAST_LCSE_SPAN
    alone = _log_cumsum_exp_rows(row[None])[0]
    assert alone.tobytes() == (np.log(np.cumsum(np.exp(row - top))) + top).tobytes()
    ladder = np.cumsum(rng.uniform(_FAST_LCSE_SPAN, 1000.0, 200))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        padded = _log_cumsum_exp_rows(np.r_[np.full(40, -np.inf), row][None])[0]
        batched = _log_cumsum_exp_rows(np.array([ladder, row, ladder[::-1]]))
    assert np.isneginf(padded[:40]).all()
    assert padded[40:].tobytes() == alone.tobytes()
    assert batched[1].tobytes() == alone.tobytes()


@settings(max_examples=30, derandomize=True, deadline=None)
@given(x=lcse_rows(("narrow",)), lead=st.integers(1, 64))
def test_leading_neg_inf_keeps_the_narrow_bits(x, lead):
    """A narrow batch behind a run of -inf entries of any length (beyond 1/8
    of the row, too) keeps the bits of the early return, with -inf in front."""
    padded = np.concatenate([np.full((x.shape[0], lead), -np.inf), x], axis=1)
    out = _log_cumsum_exp_rows(padded)
    assert np.isneginf(out[:, :lead]).all()
    assert out[:, lead:].tobytes() == _log_cumsum_exp_rows(x).tobytes()

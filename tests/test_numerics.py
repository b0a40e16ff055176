"""Numerical primitive tests: analytic values, stability cases, and naive oracles."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pldlab.numerics import (
    _FAST_LCSE_SPAN,
    _log_cumsum_exp_rows,
    argsort_stable,
    as_finite_vector,
    log_cumsum_exp,
    log_softmax,
    log_sum_exp,
    make_rng,
    softmax,
)


def naive_log_cumsum_exp(v):
    """Per-prefix oracle: an independent log-sum-exp for every prefix."""
    v = np.asarray(v, dtype=np.float64)
    out = np.empty_like(v)
    for j in range(v.shape[0]):
        prefix = v[: j + 1]
        m = prefix.max()
        out[j] = m + math.log(np.exp(prefix - m).sum())
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


ROW_KINDS = ("narrow", "wide", "some -inf", "all -inf")


@st.composite
def lcse_rows(draw, kinds):
    """A batch of rows, each of a kind drawn from ``kinds``: narrow (finite
    spread below _FAST_LCSE_SPAN), wide (spread at least that), either with
    some -inf entries, or all -inf."""
    c = draw(st.integers(1, 9))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(kinds))
        if kind == "all -inf":
            rows.append(np.full(c, -np.inf))
            continue
        width = (0.45 if kind == "narrow" or c == 1 else 3.0) * _FAST_LCSE_SPAN
        row = draw(st.floats(-700.0, 700.0)) + np.array(
            draw(st.lists(st.floats(-width, width), min_size=c, max_size=c))
        )
        if kind == "wide" and c > 1:
            row[draw(st.integers(0, c - 1))] = row.max() - _FAST_LCSE_SPAN - draw(st.floats(0, 900))
        if kind == "some -inf" and c > 1:
            dead = draw(st.lists(st.booleans(), min_size=c, max_size=c))
            keep = draw(st.integers(0, c - 1))
            row[[d and j != keep for j, d in enumerate(dead)]] = -np.inf
        rows.append(row)
    return np.array(rows)


@settings(max_examples=20, derandomize=True, deadline=None)
@pytest.mark.parametrize("kinds", [("narrow",), ("wide",), ("narrow", "wide"), ("some -inf",),
                                   ("all -inf",), ROW_KINDS])
@given(data=st.data())
def test_log_cumsum_exp_rows_properties(kinds, data):
    """Each branch against np.logaddexp.accumulate: -inf in the same places,
    finite prefixes within 1e-13 relative, and every row equal bit for bit to
    its one-row call."""
    x = data.draw(lcse_rows(kinds))
    out = _log_cumsum_exp_rows(x)
    ref = np.logaddexp.accumulate(x, axis=1)
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


class TestArgsortStable:
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

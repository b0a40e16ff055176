"""Permutation model tests against the factorial brute-force oracle."""

import itertools
import math

import numpy as np
import pytest

from pldlab.numerics import make_rng
from pldlab.ranking import (
    ENUMERATION_MAX_CLASSES,
    EnumerationLimitError,
    ascending_rankings,
    pl_enumerate,
    pl_log_likelihood,
    teacher_optimal_permutation,
)


def naive_pl_probability(s, pi):
    """Term-by-term product oracle for the ranking probability."""
    s = np.asarray(s, dtype=np.float64)
    prob = 1.0
    remaining = list(pi)
    for k in range(len(pi)):
        num = math.exp(s[pi[k]])
        den = sum(math.exp(s[j]) for j in remaining)
        prob *= num / den
        remaining.remove(pi[k])
    return prob


class TestTeacherOptimalPermutation:
    def test_label_already_first(self):
        np.testing.assert_array_equal(
            teacher_optimal_permutation([0.1, 2.0, -1.0], 0), [0, 1, 2]
        )

    def test_label_moved_to_front(self):
        np.testing.assert_array_equal(
            teacher_optimal_permutation([3.0, 1.0, 2.0], 1), [1, 0, 2]
        )

    def test_stable_ties_among_remaining(self):
        np.testing.assert_array_equal(
            teacher_optimal_permutation([1.0, 1.0, 0.0], 2), [2, 0, 1]
        )

    def test_label_first_even_when_not_teacher_top1(self):
        rng = make_rng(10)
        for _ in range(50):
            c = int(rng.integers(2, 12))
            t = rng.normal(size=c)
            y = int(rng.integers(0, c))
            pi = teacher_optimal_permutation(t, y)
            assert pi[0] == y
            rest = t[pi[1:]]
            assert (np.diff(rest) <= 0).all()

    def test_out_of_range_label(self):
        with pytest.raises(ValueError):
            teacher_optimal_permutation([1.0, 2.0], 2)
        with pytest.raises(ValueError):
            teacher_optimal_permutation([1.0, 2.0], -1)

    def test_batch_matches_single(self):
        rng = make_rng(11)
        t = rng.normal(size=(20, 7))
        y = rng.integers(0, 7, size=20)
        batch = ascending_rankings(t, y)[:, ::-1]
        for i in range(20):
            np.testing.assert_array_equal(batch[i], teacher_optimal_permutation(t[i], y[i]))


class TestPlLogLikelihood:
    def test_two_classes_uniform(self):
        assert pl_log_likelihood([0.0, 0.0], [0, 1]) == pytest.approx(-math.log(2.0), abs=1e-14)

    def test_three_classes_uniform_any_order(self):
        for pi in itertools.permutations(range(3)):
            ll = pl_log_likelihood([0.0, 0.0, 0.0], list(pi))
            assert ll == pytest.approx(-math.log(6.0), abs=1e-13)

    def test_matches_naive_product(self):
        rng = make_rng(12)
        for _ in range(50):
            s = rng.normal(size=4) * 3
            pi = rng.permutation(4)
            got = math.exp(pl_log_likelihood(s, pi))
            want = naive_pl_probability(s, pi)
            assert got == pytest.approx(want, rel=1e-12)

    def test_translation_invariance(self):
        rng = make_rng(13)
        for _ in range(50):
            s = rng.normal(size=6) * 4
            pi = rng.permutation(6)
            c = rng.uniform(-50, 50)
            assert pl_log_likelihood(s + c, pi) == pytest.approx(
                pl_log_likelihood(s, pi), abs=1e-10
            )

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pl_log_likelihood([0.0, 1.0, 2.0], [0, 1])
        with pytest.raises(ValueError):
            pl_log_likelihood([0.0, 1.0], [0, 0])


class TestPlEnumerate:
    def test_two_class_symmetric(self):
        out = dict(pl_enumerate([0.0, 0.0]))
        assert out[(0, 1)] == pytest.approx(0.5, abs=1e-14)
        assert out[(1, 0)] == pytest.approx(0.5, abs=1e-14)

    def test_two_class_analytic(self):
        out = dict(pl_enumerate([math.log(2.0), 0.0]))
        assert out[(0, 1)] == pytest.approx(2.0 / 3.0, rel=1e-13)
        assert out[(1, 0)] == pytest.approx(1.0 / 3.0, rel=1e-13)

    def test_probabilities_sum_to_one(self):
        rng = make_rng(14)
        for _ in range(10):
            s = rng.normal(size=5) * 2
            total = sum(p for _, p in pl_enumerate(s))
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_matches_likelihood_per_permutation(self):
        rng = make_rng(15)
        for c in (2, 3, 4, 6):
            s = rng.normal(size=c) * 2
            for pi, p in pl_enumerate(s):
                assert p == pytest.approx(
                    math.exp(pl_log_likelihood(s, list(pi))), abs=1e-10
                )

    def test_argmax_permutation_is_descending_sort(self):
        rng = make_rng(16)
        for _ in range(10):
            s = rng.normal(size=5)  # distinct with probability 1
            best = max(pl_enumerate(s), key=lambda kv: kv[1])[0]
            np.testing.assert_array_equal(best, np.argsort(-s, kind="stable"))

    def test_class_cap(self):
        with pytest.raises(EnumerationLimitError):
            pl_enumerate(np.zeros(ENUMERATION_MAX_CLASSES + 1))

"""Permutation model tests against the factorial brute-force oracle."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pldlab.numerics import make_rng
from pldlab.ranking import (
    ENUMERATION_MAX_CLASSES,
    EnumerationLimitError,
    ascending_rankings,
    pl_enumerate,
    pl_log_likelihood,
    pl_position_nll,
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

    def test_non_integer_label_is_refused(self):
        """A float or bool label is refused, as every loss kernel refuses it."""
        for y in (1.9, 1.0, True):
            with pytest.raises(ValueError):
                teacher_optimal_permutation([1.0, 2.0, 3.0], y)

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


@st.composite
def ranking_stacks(draw):
    """Logits of C = 2..12 classes, some with a spread above 600 (the
    log-space path of the running sums), and a stack (..., C) of rankings."""
    c = draw(st.integers(2, 12))
    s = np.array(draw(st.lists(st.floats(-50.0, 50.0), min_size=c, max_size=c)))
    if draw(st.booleans()):
        s[draw(st.integers(0, c - 1))] = s.max() + 600.0 + draw(st.floats(1.0, 900.0))
    lead = draw(st.sampled_from([(1,), (5,), (2, 3)]))
    perms = st.permutations(range(c))
    pis = np.array([draw(perms) for _ in range(math.prod(lead))]).reshape(lead + (c,))
    return s, pis


@settings(max_examples=60, derandomize=True, deadline=None)
@given(case=ranking_stacks())
def test_stacked_rankings_equal_one_ranking_calls(case):
    s, pis = case
    got = pl_log_likelihood(s, pis)
    assert isinstance(got, np.ndarray) and got.shape == pis.shape[:-1]
    for idx in np.ndindex(*pis.shape[:-1]):
        one = pl_log_likelihood(s, pis[idx])
        assert type(one) is float
        assert got[idx].tobytes() == np.float64(one).tobytes()


@settings(max_examples=30, derandomize=True, deadline=None)
@given(case=ranking_stacks(), data=st.data())
def test_stack_with_one_non_permutation_row_raises(case, data):
    s, pis = case
    c = pis.shape[-1]
    flat = pis.reshape(-1, c).copy()
    row = data.draw(st.integers(0, flat.shape[0] - 1))
    i, j = data.draw(st.lists(st.integers(0, c - 1), min_size=2, max_size=2, unique=True))
    flat[row, i] = flat[row, j]  # one class twice, another missing
    with pytest.raises(ValueError, match="permutation"):
        pl_log_likelihood(s, flat.reshape(pis.shape))


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


@st.composite
def extreme_logits(draw):
    """C = 2..6 logits within +-700: narrow rows, tied rows, and rows wider
    than 600, which take the logaddexp path of the running sums."""
    c = draw(st.integers(2, 6))
    kind = draw(st.sampled_from(["narrow", "tied", "wide"]))
    offset = draw(st.floats(-650.0, 650.0))
    near = st.floats(-50.0, 50.0)
    if kind == "narrow":
        s = offset + np.array(draw(st.lists(near, min_size=c, max_size=c)))
    elif kind == "tied":
        pool = [offset, offset + draw(near)]
        s = np.array(draw(st.lists(st.sampled_from(pool), min_size=c, max_size=c)))
    else:
        s = np.array(draw(st.lists(st.floats(-700.0, 700.0), min_size=c, max_size=c)))
        i, j = draw(st.permutations(range(c)))[:2]
        s[i], s[j] = 700.0 - draw(st.floats(0.0, 50.0)), -700.0 + draw(st.floats(0.0, 50.0))
    return s


@settings(max_examples=60, derandomize=True, deadline=None)
@given(s=extreme_logits())
def test_likelihood_matches_the_suffix_oracle(s):
    """The running sums of pl_log_likelihood against the per-suffix oracle,
    on the whole permutation stack; near-certain rankings have log-likelihoods
    near 0, so the relative tolerance has an absolute floor of the same size."""
    perms = np.array(list(itertools.permutations(range(s.shape[0]))))
    want = -pl_position_nll(s[perms]).sum(axis=1)
    np.testing.assert_allclose(pl_log_likelihood(s, perms), want, rtol=1e-12, atol=1e-12)


def test_enumeration_never_reaches_the_running_sums(monkeypatch):
    s = make_rng(17).normal(size=6) * 2
    want = pl_enumerate(s)

    def refuse(*args, **kwargs):
        raise AssertionError("pl_enumerate reached the running log-sum-exp")

    for name in ("pldlab.numerics._log_cumsum_exp_rows", "pldlab.numerics.log_cumsum_exp",
                 "pldlab.ranking._log_cumsum_exp_rows"):
        monkeypatch.setattr(name, refuse)
    monkeypatch.setattr("pldlab.ranking.log_cumsum_exp", refuse, raising=False)
    assert pl_enumerate(s) == want

"""Loss kernel tests: analytic examples, finite-difference oracles, reductions."""

import dataclasses
import decimal
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pldlab.losses as losses
import pldlab.numerics as numerics
from pldlab.losses import (
    DIVERGENCES,
    DistillLossConfig,
    LOSS_KINDS,
    STANDARDIZE_MODES,
    WEIGHT_SCHEMES,
    ce_loss,
    default_loss_config,
    dist_loss,
    evaluate_loss,
    grad_check,
    kd_loss,
    ls_loss,
    make_weights,
    pld_gradient_closed_form,
    pld_loss,
    standardize_rows,
    student_teacher_kl,
    teacher_targets,
)
from pldlab.numerics import log_softmax, make_rng, softmax
from pldlab.ranking import (
    pl_enumerate, pl_log_likelihood, pl_position_nll, teacher_optimal_permutation,
)


def random_batch(rng, n, c, scale=1.0):
    s = rng.normal(size=(n, c)) * scale
    t = rng.normal(size=(n, c)) * scale
    y = rng.integers(0, c, size=n)
    return s, t, y


def naive_pld_value(s, t, y, tau_T=1.0, weights=None):
    """Direct first-pick-first evaluation with explicit suffix sums (O(C^2))."""
    s = np.asarray(s, dtype=np.float64)
    pi = teacher_optimal_permutation(t, y)
    if weights is None:
        et = np.exp((np.asarray(t) - np.max(t)) / tau_T)
        weights = (et / et.sum())[pi]
    total = 0.0
    for k in range(len(pi)):
        suffix = s[pi[k:]]
        m = suffix.max()
        total += weights[k] * (-s[pi[k]] + m + math.log(np.exp(suffix - m).sum()))
    return total


class TestCrossEntropy:
    def test_symmetric_two_class(self):
        res = ce_loss([[0.0, 0.0]], [0])
        assert res.loss == pytest.approx(math.log(2.0), abs=1e-14)
        np.testing.assert_allclose(res.grad, [[-0.5, 0.5]], atol=1e-14)

    def test_near_perfect_confidence(self):
        res = ce_loss([[10.0, -10.0]], [0])
        assert res.loss == pytest.approx(2.0611536181902037e-09, rel=1e-6)

    def test_gradient_against_finite_differences(self):
        rng = make_rng(20)
        s, _, y = random_batch(rng, 4, 10)
        err = grad_check(lambda x: ce_loss(x, y), s)
        assert err < 1e-6

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            ce_loss([[0.0, 1.0]], [2])


class TestLabelSmoothing:
    def test_epsilon_zero_is_plain_ce(self):
        rng = make_rng(21)
        s, _, y = random_batch(rng, 5, 8)
        a = ls_loss(s, y, 0.0)
        b = ce_loss(s, y)
        assert a.loss == pytest.approx(b.loss, abs=1e-12)
        np.testing.assert_allclose(a.grad, b.grad, atol=1e-12)

    def test_epsilon_zero_on_a_row_wider_than_float64_is_ce(self):
        """A class of target 0 and log-probability -inf adds 0, not NaN."""
        s = [[1e308, -1e308, 0.0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a = ls_loss(s, [0], 0.0)
            b = ce_loss(s, [0])
        assert a.loss == b.loss
        np.testing.assert_array_equal(a.rows, b.rows)
        np.testing.assert_array_equal(a.grad, b.grad)

    def test_uniform_logits_value_is_target_independent(self):
        res = ls_loss([[0.0, 0.0]], [0], 0.1)
        assert res.loss == pytest.approx(math.log(2.0), abs=1e-14)

    def test_gradient_against_finite_differences(self):
        rng = make_rng(22)
        s, _, y = random_batch(rng, 3, 10)
        err = grad_check(lambda x: ls_loss(x, y, 0.1), s)
        assert err < 1e-6

    def test_epsilon_range(self):
        with pytest.raises(ValueError):
            ls_loss([[0.0, 1.0]], [0], 1.0)
        with pytest.raises(ValueError):
            ls_loss([[0.0, 1.0]], [0], -0.1)

    def test_epsilon_zero_has_the_bits_of_ce(self):
        rng = make_rng(27)
        s, _, y = random_batch(rng, 5, 8, scale=30.0)
        for batch, labels in ((s, y), (np.stack([s, -s]), y), ([[1e308, -1e308, 0.0]], [0])):
            a, b = ls_loss(batch, labels, 0.0), ce_loss(batch, labels)
            for got, want in zip((a.loss, a.grad, a.rows), (b.loss, b.grad, b.rows)):
                assert type(got) is type(want)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("row, value", [([1e308, -1e308, 0.0], 1e307),
                                            ([1e308, 1e308, -1e308], 1e307 - 1e308 / 30)],
                             ids=["ce-zero", "sum-overflows"])
    def test_row_wider_than_float64_stays_finite(self, row, value):
        """CE is at most log 2 on these rows, and eps*(s_y - mean(s)) is about
        1e307: each logit is scaled before the sum, so nothing overflows."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = ls_loss([row], [0], 0.1)
        assert res.loss == pytest.approx(value, rel=1e-12)
        np.testing.assert_allclose(res.rows, [value], rtol=1e-12)
        assert np.isfinite(res.grad).all()

    @pytest.mark.parametrize("epsilon", [0.05, 0.1, 0.5, 0.9])
    def test_matches_the_smoothed_target_formula(self, epsilon):
        """Against the explicit target t = (1-eps)*onehot + eps/C: rows
        -sum t*log q, gradient (q - t)/N, on batches and stacks of logits up
        to +-700 in size, to 1e-12 relative (gradients relative to 1/N)."""
        rng = make_rng(28)
        for trial in range(40):
            n, c = int(rng.integers(1, 7)), int(rng.integers(2, 12))
            shape = (n, c) if trial % 2 else (int(rng.integers(1, 4)), n, c)
            s = rng.uniform(-1.0, 1.0, size=shape) * [1e-3, 1.0, 30.0, 700.0][trial % 4]
            y = rng.integers(0, c, size=n)
            target = np.full((n, c), epsilon / c)
            target[np.arange(n), y] += 1.0 - epsilon
            logq = log_softmax(s)
            rows = -(target * logq).sum(axis=-1)
            res = ls_loss(s, y, epsilon)
            np.testing.assert_allclose(res.rows, rows, rtol=1e-12)
            np.testing.assert_allclose(res.loss, rows.mean(axis=-1), rtol=1e-12)
            np.testing.assert_allclose(res.grad, (np.exp(logq) - target) / n,
                                       rtol=1e-12, atol=1e-12 / n)


class TestKnowledgeDistillation:
    @pytest.mark.parametrize("divergence", ["forward-kl", "reverse-kl", "js"])
    def test_identical_logits_pure_distillation_is_zero(self, divergence):
        rng = make_rng(23)
        s, _, y = random_batch(rng, 4, 6)
        for tau in (0.5, 1.0, 3.0):
            res = kd_loss(s, s.copy(), y, alpha=0.0, tau=tau, divergence=divergence)
            assert abs(res.loss) < 1e-12
            np.testing.assert_allclose(res.grad, 0.0, atol=1e-12)

    def test_identical_logits_leaves_only_ce(self):
        rng = make_rng(24)
        s, _, y = random_batch(rng, 4, 6)
        res = kd_loss(s, s.copy(), y, alpha=0.1, tau=2.0)
        assert res.loss == pytest.approx(0.1 * ce_loss(s, y).loss, rel=1e-12)

    @pytest.mark.parametrize("divergence", ["forward-kl", "reverse-kl", "js"])
    def test_gradient_against_finite_differences(self, divergence):
        """Also at the CE weights 0 and 1, where one of the two terms is skipped."""
        rng = make_rng(25)
        s, t, y = random_batch(rng, 3, 10)
        for alpha in (0.3, 0.0, 1.0):
            err = grad_check(
                lambda x: kd_loss(x, t, y, alpha=alpha, tau=2.0, divergence=divergence), s
            )
            assert err < 1e-6, alpha

    @pytest.mark.parametrize("divergence", DIVERGENCES)
    def test_ce_weight_one_is_ce_bit_for_bit(self, divergence, monkeypatch):
        """At alpha 1 the divergence is not evaluated, so kd gives ce_loss's
        loss, gradient and rows, without a warning, also on rows whose
        divergence is +inf: reverse KL against a teacher class of probability
        0, and forward KL on a student row about 1e308 wide at tau 0.5.  With
        the teacher given as targets, the only softmax core taken is ce's, untempered."""
        rng = make_rng(31)
        s, t, y = random_batch(rng, 4, 3)
        s[1], t[1] = [0.0, 0.0, 0.0], [0.0, 0.0, -1e308]
        s[2], t[2] = [1e308, 0.0, -1e308 + 1e307], [0.0, 0.0, 0.0]
        targets = teacher_targets(default_loss_config("kd", kd_temperature=0.5), t, y)
        calls = []
        real = losses._softmax_parts
        monkeypatch.setattr(losses, "_softmax_parts",
                            lambda *a, **kw: calls.append((a[1:], kw)) or real(*a, **kw))
        for batch in (s, np.stack([s, -s])):
            for t_in, kw in ((t, {}), (None, {"targets": targets})):
                calls.clear()
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    res = kd_loss(batch, t_in, y, alpha=1.0, tau=0.5, divergence=divergence, **kw)
                if kw:
                    assert calls == [((), {})]
                ce = ce_loss(batch, y)
                for got, want in zip((res.loss, res.grad, res.rows), (ce.loss, ce.grad, ce.rows)):
                    assert type(got) is type(want)
                    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_ce_weight_zero_never_evaluates_ce(self, monkeypatch):
        """kd (every divergence, the wide forward-KL rows included) and dist (with
        and without the intra-class term) at alpha 0 call the CE core zero times."""
        calls = []
        real = losses._ce
        monkeypatch.setattr(losses, "_ce", lambda *a, **kw: calls.append(a) or real(*a, **kw))
        rng = make_rng(32)
        s, t, y = random_batch(rng, 4, 5)
        s[0] = [1e308, 0.0, -5e307, 1.0, 2.0]
        for divergence in DIVERGENCES:
            kd_loss(s, t, y, alpha=0.0, tau=0.5, divergence=divergence)
        dist_loss(s, t, y, alpha=0.0)
        dist_loss(np.stack([s, -s]), t, y, alpha=0.0, gamma=0.0)
        assert calls == []
        kd_loss(s, t, y, alpha=0.1)
        dist_loss(s, t, y, alpha=0.1)
        assert len(calls) == 2  # the counter sees the calls a CE weight above 0 makes

    @pytest.mark.parametrize("tau", [1e200, 1e-200])
    def test_temperature_whose_square_leaves_float64_is_refused(self, tau):
        """tau^2 weighs the divergence: it overflows to inf or underflows to 0."""
        rng = make_rng(33)
        s, t, y = random_batch(rng, 3, 4)
        for alpha in (0.0, 0.1, 1.0):
            with pytest.raises(ValueError, match="square"):
                kd_loss(s, t, y, alpha=alpha, tau=tau)

    def test_js_is_symmetric_and_bounded(self):
        rng = make_rng(26)
        s, t, y = random_batch(rng, 4, 7)
        ab = kd_loss(s, t, y, alpha=0.0, tau=1.0, divergence="js").loss
        ba = kd_loss(t, s, y, alpha=0.0, tau=1.0, divergence="js").loss
        assert ab == pytest.approx(ba, rel=1e-10)
        assert 0.0 <= ab <= math.log(2.0) + 1e-12

    def test_teacher_zero_probability_adds_nothing(self):
        """A teacher row wider than the float64 range gives two classes
        probability 0: forward KL and JS count 0 log 0 = 0 and stay finite,
        reverse KL is +inf there, which is its value."""
        s, t = [[0.0, 1.0, 2.0]], [[1e308, -1e308, 0.0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for divergence in ("forward-kl", "js"):
                res = kd_loss(s, t, [0], tau=1.0, divergence=divergence)
                assert np.isfinite(res.loss) and np.isfinite(res.grad).all()
        logq = np.log(np.exp(s[0]) / np.exp(s[0]).sum())
        assert kd_loss(s, t, [0], alpha=0.0, tau=1.0).loss == pytest.approx(-logq[0], rel=1e-15)
        with np.errstate(invalid="ignore"):
            assert kd_loss(s, t, [0], tau=1.0, divergence="reverse-kl").loss == np.inf

    def test_tiny_temperature_on_huge_teacher_logits(self):
        """t / tau overflows for tau < 1: the teacher row is shifted by its
        max first, so its softened distribution is one-hot, not NaN."""
        s, t = [[0.0, 1.0, 2.0]], [[1e306, 0.0, -1e306]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for divergence in ("forward-kl", "js"):
                res = kd_loss(s, t, [0], tau=1e-3, divergence=divergence)
                assert np.isfinite(res.loss) and np.isfinite(res.grad).all()
            res = dist_loss(s, t, [0], gamma=0.0, tau=1e-3)
            assert np.isfinite(res.loss) and np.isfinite(res.grad).all()

    def test_student_zero_probability_adds_nothing_to_js(self):
        """A student row wider than the float64 range gives two classes
        probability 0: JS counts 0 log 0 = 0 on the student side too, so it
        stays finite, below log 2, and warns nothing."""
        s, t = [[1e308, -1e308, 0.0]], [[0.0, 1.0, 2.0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = kd_loss(s, t, [0], alpha=0.0, tau=1.0, divergence="js")
            assert np.isfinite(res.grad).all()
            assert 0.0 < res.loss < math.log(2.0)
            assert kd_loss(s, t, [0], tau=1.0, divergence="js").loss == pytest.approx(
                0.9 * res.loss, rel=1e-15)  # CE on the label of probability 1 is 0

    def test_reverse_kl_infinite_row_has_non_finite_gradient(self):
        """Reverse KL is +inf where the teacher gives 0 and the student does
        not.  That row's gradient is not finite in any entry, and nothing warns."""
        s, t = [[0.0, 1.0, 2.0], [0.0, 1.0, 2.0]], [[1e308, -1e308, 0.0], [0.0, 1.0, 2.0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = kd_loss(s, t, [0, 0], tau=1.0, divergence="reverse-kl")
        assert res.loss == np.inf and res.rows[0] == np.inf
        assert not np.isfinite(res.grad[0]).any()
        assert np.isfinite(res.rows[1]) and np.isfinite(res.grad[1]).all()

    def test_reverse_kl_beyond_float_range_at_default_temperature_is_silent(self):
        """At tau 2 the teacher's far class keeps a log-probability near -1e308,
        so the divergence is finite but its tau^2-scaled mean and rows are beyond
        the float64 range: they are +inf, and nothing warns."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = kd_loss([[0.0, 1.0, 2.0, 3.0]], [[1e308, -1e308, 0.0, 0.0]], [0],
                          tau=2.0, divergence="reverse-kl")
        assert res.loss == np.inf and res.rows[0] == np.inf

    def test_tiny_temperature_on_a_student_row_beyond_the_float64_range(self):
        """At tau 0.1 a student row 1.5e308 wide has tempered log q = -inf at
        two classes the teacher keeps, but tau^2 KL, about 8e306, is finite:
        it is tau * sum p (tau log p - tau log q) with tau log q = s - max s
        here.  The gradient is finite, nothing warns, and the other row keeps
        the bits of a call on its own."""
        s = np.array([[1e308, 0.0, -5e307], [0.0, 1.0, 2.0]])
        t = np.zeros((2, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = kd_loss(s, t, [0, 2], tau=0.1)
            alone = kd_loss(s[1:], t[1:], [2], tau=0.1)
        tau_kl = 0.1 * (0.1 * math.log(1 / 3) + 1e308 / 3 + 1.5e308 / 3)
        assert np.isfinite(tau_kl) and np.isfinite(res.rows).all()
        assert res.rows[0] == pytest.approx(0.9 * tau_kl, rel=1e-12)  # CE is 0 on row 0
        assert res.rows[1].tobytes() == alone.rows[0].tobytes()
        assert res.loss == pytest.approx(res.rows.mean(), rel=1e-12)
        assert np.isfinite(res.grad).all()

    def test_reverse_kl_on_a_stack_with_student_probability_zero(self):
        """A stack whose student gives a class probability 0 broadcasts against
        the one teacher batch in reverse KL's masked log ratio."""
        s = np.array([[0.0, 1.0]])
        stack = np.stack([s, -s, s]) + 1500.0
        res = kd_loss(stack, [[0.0, 0.0]], [0], tau=1e-3, divergence="reverse-kl")
        for b, s_b in enumerate(stack):
            one = kd_loss(s_b, [[0.0, 0.0]], [0], tau=1e-3, divergence="reverse-kl")
            assert res.rows[b].tobytes() == one.rows.tobytes()

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            kd_loss([[0.0, 1.0]], [[0.0, 1.0]], [0], alpha=1.5)
        with pytest.raises(ValueError):
            kd_loss([[0.0, 1.0]], [[0.0, 1.0]], [0], tau=0.0)
        with pytest.raises(ValueError):
            kd_loss([[0.0, 1.0]], [[0.0, 1.0]], [0], divergence="hellinger")


class TestDistLoss:
    def test_identical_probabilities_zero_distillation(self):
        rng = make_rng(27)
        s, _, y = random_batch(rng, 5, 8)
        res = dist_loss(s, s.copy(), y, alpha=0.0)
        assert abs(res.loss) < 1e-9

    def test_row_affine_teacher_gives_zero_inter_term(self):
        # softmax of a*t + b equals a tempered softmax of t; correlation of a
        # row with itself is 1, so the inter term vanishes when probabilities
        # coincide
        rng = make_rng(28)
        t = rng.normal(size=(4, 6))
        s = 1.0 * t + rng.normal(size=(4, 1))  # per-row shift only
        y = rng.integers(0, 6, size=4)
        res = dist_loss(s, t, y, alpha=0.0, beta=1.0, gamma=0.0)
        assert abs(res.loss) < 1e-9

    def test_gradient_against_finite_differences(self):
        """Also at the CE weights 0 (CE skipped) and 1."""
        rng = make_rng(29)
        s, t, y = random_batch(rng, 8, 10, scale=2.0)
        for alpha in (0.1, 0.0, 1.0):
            err = grad_check(lambda x: dist_loss(x, t, y, alpha, 0.45, 0.45, 1.0), s)
            assert err < 1e-5, alpha

    def test_gradient_with_temperature(self):
        rng = make_rng(30)
        s, t, y = random_batch(rng, 6, 5, scale=2.0)
        err = grad_check(lambda x: dist_loss(x, t, y, 0.0, 1.0, 1.0, 4.0), s)
        assert err < 1e-5

    def test_single_row_needs_gamma_zero(self):
        with pytest.raises(ValueError):
            dist_loss([[0.0, 1.0]], [[0.0, 1.0]], [0], gamma=0.5)
        dist_loss([[0.0, 1.0]], [[0.0, 1.0]], [0], gamma=0.0)  # fine

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5), c=st.integers(2, 10),
           stack=st.integers(0, 3), alpha=st.sampled_from([0.1, 0.5, 1.0]),
           gamma=st.sampled_from([0.0, 0.45]), tau=st.sampled_from([1.0, 0.5, 2.0]),
           scale=st.sampled_from([1.0, 300.0]), grad=st.booleans())
    def test_ce_term_is_alpha_times_ce_loss(self, seed, n, c, stack, alpha, gamma, tau, scale,
                                            grad):
        """dist at alpha > 0 is, bit for bit, alpha * ce_loss added to dist at
        alpha 0 in _plus_ce's order, also at tau 1, where CE reuses dist's
        student softmax; on a batch or a stack, with or without the gradient."""
        rng = make_rng(seed)
        s, t, y = random_batch(rng, n, c, scale)
        if stack:
            s = np.stack([s + rng.normal(size=(n, c)) for _ in range(stack)])
        got = dist_loss(s, t, y, alpha, 0.45, gamma, tau, grad=grad)
        soft = dist_loss(s, t, y, 0.0, 0.45, gamma, tau, grad=grad)
        hard = ce_loss(s, y, grad=grad)
        want = [alpha * hard.loss + soft.loss,
                soft.grad + hard.grad * alpha if grad else None,
                None if gamma > 0 else alpha * hard.rows + soft.rows]
        assert type(got.loss) is type(soft.loss)
        for part, expected in zip((got.loss, got.grad, got.rows), want):
            assert (part is None) == (expected is None)
            assert np.asarray(part).tobytes() == np.asarray(expected).tobytes()


class TestMakeWeights:
    def test_teacher_softmax_uniform_teacher(self):
        w = make_weights([0.0, 0.0], [0, 1], "teacher-softmax", 1.0)
        np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-15)

    def test_teacher_softmax_is_permuted_softmax(self):
        rng = make_rng(31)
        t = rng.normal(size=7)
        pi = rng.permutation(7)
        for tau in (0.5, 1.0, 4.0):
            w = make_weights(t, pi, "teacher-softmax", tau)
            et = np.exp(t / tau - (t / tau).max())
            np.testing.assert_allclose(w, (et / et.sum())[pi], rtol=1e-12)

    def test_plistmle_three_classes(self):
        w = make_weights([0.0, 0.0, 0.0], [0, 1, 2], "plistmle-exponential")
        np.testing.assert_allclose(w, [0.75, 0.25, 0.0], atol=1e-15)

    def test_plistmle_matches_unnormalized_schedule(self):
        c = 12
        w = make_weights(np.zeros(c), np.arange(c), "plistmle-exponential")
        raw = np.array([2.0 ** (c - k) - 1.0 for k in range(1, c + 1)])
        np.testing.assert_allclose(w, raw / raw.sum(), rtol=1e-13)

    def test_plistmle_large_class_count_stays_finite(self):
        w = make_weights(np.zeros(64), np.arange(64), "plistmle-exponential")
        assert np.isfinite(w).all()
        assert abs(w.sum() - 1.0) < 1e-12
        w2 = make_weights(np.zeros(2048), np.arange(2048), "plistmle-exponential")
        assert np.isfinite(w2).all()
        assert abs(w2.sum() - 1.0) < 1e-12

    def test_uniform_and_onehot(self):
        u = make_weights(np.zeros(4), np.arange(4), "uniform")
        np.testing.assert_allclose(u, 0.25)
        o = make_weights(np.zeros(4), np.arange(4), "onehot-first")
        np.testing.assert_allclose(o, [1.0, 0.0, 0.0, 0.0])

    def test_bad_temperature(self):
        with pytest.raises(ValueError):
            make_weights([0.0, 1.0], [0, 1], "teacher-softmax", 0.0)

    def test_stack_of_rankings_rejected(self):
        """as_ranking takes stacks; make_weights and the closed-form gradient
        read one ranking and reject the rest."""
        pis = [[0, 1], [1, 0]]
        with pytest.raises(ValueError, match="length 2"):
            make_weights([0.0, 1.0], pis, "teacher-softmax")
        with pytest.raises(ValueError, match="length 2"):
            pld_gradient_closed_form([0.0, 1.0], pis, [0.5, 0.5])


class TestPldLoss:
    def test_tiny_teacher_temperature_on_huge_teacher_logits(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = pld_loss([[0.0, 1.0]], [[1e306, 0.0]], [0], tau_T=1e-3)
        assert np.isfinite(res.loss) and np.isfinite(res.grad).all()
        plain = pld_loss([[0.0, 1.0]], [[1.0, 0.0]], [0], scheme="onehot-first")
        assert res.loss == plain.loss  # the weights are one-hot on the label

    def test_rows_whose_sum_overflows_have_a_finite_mean(self):
        """Each row loss is about 4e307 (the label's logit 1.6e308 below the
        other), so the flat sum of 8 rows overflows: the batch loss is still the
        finite mean, and nothing warns, for a batch and for a stack."""
        s = np.tile([8e307, -8e307], (8, 1))
        s[1::2] *= 0.5  # rows of two sizes
        t, y = np.tile([1.0, 0.0], (8, 1)), np.ones(8, dtype=int)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = pld_loss(s, t, y)
            stack = pld_loss(np.stack([s, 0.25 * s, 0.5 * s]), t, y)
            small = pld_loss(0.25 * s, t, y)
        assert np.isfinite(res.rows).all() and res.rows.min() > 1e307
        np.testing.assert_allclose(res.loss, (res.rows / 8).sum(), rtol=1e-15)
        assert stack.rows[0].tobytes() == res.rows.tobytes()
        assert stack.loss[0] == res.loss and stack.loss[1] == small.loss
        assert np.isfinite(stack.loss).all()

    @pytest.mark.parametrize("scheme", WEIGHT_SCHEMES)
    def test_apply_on_targets_equals_pld_loss(self, scheme):
        """Targets of a 60-row table, gathered for 40 shuffled rows, reproduce
        pld_loss bit for bit over three 16-row chunks (C = 2048)."""
        rng = make_rng(40)
        table = rng.normal(size=(60, 2048))
        labels = rng.integers(0, 2048, 60)
        idx = rng.permutation(60)[:40]
        s = 30.0 * rng.normal(size=(40, 2048))
        cfg = default_loss_config("pld", teacher_temperature=0.5, pld_scheme=scheme)
        order, weights = teacher_targets(cfg, table, labels)
        res = pld_loss(s, None, None, targets=(order[idx], weights[idx]))
        ref = pld_loss(s, table[idx], labels[idx], 0.5, scheme)
        assert np.float64(res.loss).tobytes() == np.float64(ref.loss).tobytes()
        assert res.grad.tobytes() == ref.grad.tobytes()
        assert res.rows.tobytes() == ref.rows.tobytes()

    @pytest.mark.parametrize("kind", ["kd", "dist"])
    def test_teacher_targets_of_another_kind_rejected(self, kind):
        """kd takes two N x C float arrays and dist three arrays; targets of
        another kind, or of another batch size, are refused."""
        t, y = [[0.0, 1.0, 2.0], [2.0, 0.0, 1.0]], [0, 1]
        cfg = default_loss_config(kind)
        other = {"kd": "dist", "dist": "kd"}[kind]
        for targets in (teacher_targets(default_loss_config(other), t, y),
                        teacher_targets(default_loss_config("pld"), t, y),
                        [a[:1] for a in teacher_targets(cfg, t, y)]):
            with pytest.raises(ValueError, match="targets"):
                evaluate_loss(cfg, t, None, y, targets=targets)

    def test_kinds_without_teacher_take_no_targets(self):
        for kind in ("ce", "ls"):
            cfg = default_loss_config(kind)
            assert teacher_targets(cfg, None, [0]) is None
            with pytest.raises(ValueError, match="targets"):
                evaluate_loss(cfg, [[0.0, 1.0]], None, [0],
                              targets=teacher_targets(default_loss_config("kd"), [[0.0, 1.0]], [0]))

    def test_targets_shape_checked(self):
        order, weights = teacher_targets(default_loss_config("pld"), [[0.0, 1.0, 2.0]], [0])
        with pytest.raises(ValueError, match="targets"):
            pld_loss([[0.0, 1.0]], None, None, targets=(order, weights))
        with pytest.raises(ValueError, match="targets"):
            evaluate_loss(default_loss_config("kd"), [[0.0, 1.0, 2.0]], None, [0],
                          targets=(order, weights))

    @pytest.mark.parametrize(
        "order, weights",
        [
            ([[2, 0, 2]], [0.2, 0.3, 0.5]),  # repeated class
            ([[3, 1, 0]], [0.2, 0.3, 0.5]),  # class out of range
            ([[-1, 1, 0]], [0.2, 0.3, 0.5]),  # negative index would wrap
            ([[2.0, 1.0, 0.0]], [0.2, 0.3, 0.5]),  # not integers
            ([[2, 1, 0]], [0.2, np.nan, 0.5]),
            ([[2, 1, 0]], [0.2, np.inf, 0.5]),
            ([[2, 1, 0]], [0.2, -0.3, 0.5]),
        ],
    )
    def test_malformed_targets_rejected(self, order, weights):
        targets = (np.array(order), np.array([weights]))
        s = [[0.5, -1.0, 2.0]]
        with pytest.raises(ValueError, match="targets"):
            pld_loss(s, None, None, targets=targets)
        with pytest.raises(ValueError, match="targets"):
            evaluate_loss(default_loss_config("pld"), s, None, [0], targets=targets)

    def test_two_class_analytic(self):
        res = pld_loss([[0.0, 0.0]], [[0.0, 0.0]], [0], tau_T=1.0)
        assert res.loss == pytest.approx(0.5 * math.log(2.0), abs=1e-14)

    def test_onehot_first_reduces_to_ce(self):
        rng = make_rng(32)
        for _ in range(20):
            s, t, y = random_batch(rng, 6, 9)
            a = pld_loss(s, t, y, scheme="onehot-first")
            b = ce_loss(s, y)
            assert a.loss == pytest.approx(b.loss, abs=1e-10)
            np.testing.assert_allclose(a.grad, b.grad, atol=1e-10)

    def test_uniform_reduces_to_scaled_ranking_nll(self):
        rng = make_rng(33)
        for _ in range(20):
            c = int(rng.integers(2, 10))
            s, t, y = random_batch(rng, 1, c)
            pi = teacher_optimal_permutation(t[0], y[0])
            expected = -pl_log_likelihood(s[0], pi) / c
            got = pld_loss(s, t, y, scheme="uniform").loss
            assert got == pytest.approx(expected, abs=1e-10)

    def test_plistmle_matches_direct_weighted_evaluation(self):
        rng = make_rng(34)
        for _ in range(20):
            c = int(rng.integers(2, 12))
            s, t, y = random_batch(rng, 1, c)
            pi = teacher_optimal_permutation(t[0], y[0])
            w = make_weights(t[0], pi, "plistmle-exponential")
            expected = naive_pld_value(s[0], t[0], y[0], weights=w)
            got = pld_loss(s, t, y, scheme="plistmle-exponential").loss
            assert got == pytest.approx(expected, abs=1e-10)

    def test_matches_direct_suffix_formula(self):
        # ascending running-sum evaluation vs the O(C^2) first-pick-first oracle
        rng = make_rng(35)
        for trial in range(50):
            c = int(rng.integers(2, 15))
            s, t, y = random_batch(rng, 1, c)
            if trial % 2:
                y = np.array([int(np.argmin(t[0]))])  # teacher top-1 != label
            for tau in (0.5, 1.0, 2.0, 4.0):
                expected = naive_pld_value(s[0], t[0], y[0], tau_T=tau)
                got = pld_loss(s, t, y, tau_T=tau).loss
                assert got == pytest.approx(expected, abs=1e-10)

    def test_batch_mean_reduction(self):
        rng = make_rng(36)
        s, t, y = random_batch(rng, 5, 7)
        whole = pld_loss(s, t, y).loss
        singles = [pld_loss(s[i : i + 1], t[i : i + 1], y[i : i + 1]).loss for i in range(5)]
        assert whole == pytest.approx(np.mean(singles), rel=1e-12)

    @pytest.mark.parametrize("scheme", ["teacher-softmax", "uniform", "plistmle-exponential"])
    def test_gradient_against_finite_differences(self, scheme):
        rng = make_rng(37)
        s, t, y = random_batch(rng, 2, 12)
        err = grad_check(lambda x: pld_loss(x, t, y, tau_T=1.0, scheme=scheme), s)
        assert err < 1e-6

    @pytest.mark.parametrize("tau", [0.5, 1.0, 2.0, 4.0])
    def test_gradient_across_teacher_temperatures(self, tau):
        rng = make_rng(38)
        s, t, y = random_batch(rng, 2, 10)
        err = grad_check(lambda x: pld_loss(x, t, y, tau_T=tau), s)
        assert err < 1e-6

    def test_translation_invariance_and_zero_sum_gradient(self):
        rng = make_rng(39)
        for scheme in ("teacher-softmax", "uniform", "plistmle-exponential"):
            for _ in range(30):
                s, t, y = random_batch(rng, 3, 8)
                c = rng.uniform(-50, 50)
                a = pld_loss(s, t, y, scheme=scheme)
                b = pld_loss(s + c, t, y, scheme=scheme)
                assert abs(a.loss - b.loss) < 1e-8
                assert np.abs(a.grad.sum(axis=1)).max() < 1e-8

    def test_scaling_changes_the_loss(self):
        rng = make_rng(40)
        s, t, y = random_batch(rng, 4, 9)
        assert abs(pld_loss(2.0 * s, t, y).loss - pld_loss(s, t, y).loss) > 1e-6

    def test_extreme_logits_stay_finite(self):
        s = np.array([[800.0, 0.0, -800.0], [700.0, 700.0, -700.0]])
        t = np.array([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]])
        y = np.array([2, 0])
        res = pld_loss(s, t, y)
        assert np.isfinite(res.loss)
        assert np.isfinite(res.grad).all()

    def test_midpoint_convexity(self):
        rng = make_rng(41)
        violations = 0
        for _ in range(300):
            c = int(rng.integers(2, 16))
            t = rng.normal(size=(1, c)) * 3
            y = np.array([int(rng.integers(0, c))])
            s1 = rng.normal(size=(1, c)) * 5
            s2 = rng.normal(size=(1, c)) * 5
            lam = rng.uniform(0.0, 1.0)
            mid = pld_loss(lam * s1 + (1 - lam) * s2, t, y).loss
            bound = lam * pld_loss(s1, t, y).loss + (1 - lam) * pld_loss(s2, t, y).loss
            if mid > bound + 1e-9:
                violations += 1
        assert violations == 0

    def test_oracle_equivalence_against_enumeration(self):
        # unweighted ranking loss == -log of the ranking's enumerated probability
        rng = make_rng(42)
        for c in (2, 3, 4, 5, 6):
            s, t, y = random_batch(rng, 1, c)
            pi = teacher_optimal_permutation(t[0], y[0])
            table = dict(pl_enumerate(s[0]))
            expected = -math.log(table[tuple(pi.tolist())])
            got = c * pld_loss(s, t, y, scheme="uniform").loss
            assert got == pytest.approx(expected, abs=1e-9)


class TestPldClosedFormGradient:
    def test_components_sum_to_zero(self):
        rng = make_rng(43)
        for _ in range(30):
            c = int(rng.integers(2, 12))
            s = rng.normal(size=c) * 3
            pi = rng.permutation(c)
            w = rng.uniform(0, 1, size=c)
            g = pld_gradient_closed_form(s, pi, w)
            assert abs(g.sum()) < 1e-10

    def test_hand_algebra_two_classes(self):
        g = pld_gradient_closed_form([0.0, 0.0], [0, 1], [0.5, 0.5])
        np.testing.assert_allclose(g, [-0.25, 0.25], atol=1e-14)

    def test_matches_finite_differences(self):
        rng = make_rng(44)
        s = rng.normal(size=10) * 2
        pi = rng.permutation(10)
        w = rng.uniform(0, 1, size=10)

        def value(x):
            return naive_pld_value(x, np.zeros(10), 0, weights=w[np.argsort(pi)][pi])

        # direct FD on the weighted objective with this exact (pi, w)
        def direct(x):
            total = 0.0
            for k in range(10):
                suffix = x[pi[k:]]
                m = suffix.max()
                total += w[k] * (-x[pi[k]] + m + math.log(np.exp(suffix - m).sum()))
            return total

        g = pld_gradient_closed_form(s, pi, w)
        h = 1e-6
        for i in range(10):
            sp = s.copy()
            sp[i] += h
            sm = s.copy()
            sm[i] -= h
            fd = (direct(sp) - direct(sm)) / (2 * h)
            assert abs(fd - g[i]) / max(1e-8, abs(fd), abs(g[i])) < 1e-7

    def test_agrees_with_batch_kernel(self):
        rng = make_rng(45)
        for scheme in ("teacher-softmax", "uniform", "plistmle-exponential", "onehot-first"):
            for _ in range(10):
                c = int(rng.integers(2, 12))
                s, t, y = random_batch(rng, 1, c)
                pi = teacher_optimal_permutation(t[0], y[0])
                w = make_weights(t[0], pi, scheme, 1.0)
                g_closed = pld_gradient_closed_form(s[0], pi, w)
                g_batch = pld_loss(s, t, y, scheme=scheme).grad[0]
                np.testing.assert_allclose(g_closed, g_batch, atol=1e-10)

    def test_running_sums_do_not_share_the_kernels_route(self, monkeypatch):
        """The reference takes no running sum through _log_cumsum_exp_rows, so
        a defect there cannot pass on both sides of the kernel check."""
        calls = []
        real = numerics._log_cumsum_exp_rows

        def spy(x):
            calls.append(x.shape)
            return real(x)

        monkeypatch.setattr(numerics, "_log_cumsum_exp_rows", spy)
        monkeypatch.setattr(losses, "_log_cumsum_exp_rows", spy)
        s, t, y = random_batch(make_rng(46), 1, 8)
        pi = teacher_optimal_permutation(t[0], y[0])
        pld_gradient_closed_form(s[0], pi, make_weights(t[0], pi, "teacher-softmax", 1.0))
        assert calls == []
        pld_loss(s, t, y)  # the kernel's own running sums pass the spy
        assert calls


class TestStandardize:
    def test_simple_row(self):
        z = standardize_rows([[1.0, 2.0, 3.0]])
        assert abs(z.mean()) < 1e-12
        assert z[0].std() == pytest.approx(1.0, abs=1e-7)

    def test_constant_row_maps_to_zeros(self):
        z = standardize_rows([[5.0, 5.0, 5.0]])
        np.testing.assert_array_equal(z, np.zeros((1, 3)))

    def test_random_rows_recompute(self):
        rng = make_rng(46)
        x = rng.normal(size=(10, 20)) * 7
        z = standardize_rows(x)
        assert np.abs(z.mean(axis=1)).max() < 1e-12
        np.testing.assert_allclose(z.std(axis=1), 1.0, atol=1e-7)

    def test_needs_two_classes(self):
        with pytest.raises(ValueError):
            standardize_rows([[1.0]])

    @pytest.mark.parametrize("row, unit", [
        ([1e200, 0.0, -1e200], [1.0, 0.0, -1.0]),
        ([1e308, 1e308, -1e308], [1.0, 1.0, -1.0]),
        ([1.7e308, -1.7e308, 0.0], [1.0, -1.0, 0.0]),
    ], ids=["squares-overflow", "sum-overflows", "spread-overflows"])
    def test_row_beyond_the_float64_statistics_stays_finite(self, row, unit):
        """A row whose squares, sum or centred entries leave the float64 range
        standardizes silently to its unit-scale z-score, up to eps; the unit row
        beside it keeps the bits of the np.mean / np.std formula."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z = standardize_rows([row, unit])
        assert np.isfinite(z).all()
        np.testing.assert_allclose(z[0], z[1], rtol=0, atol=1e-7)
        u = np.array(unit)
        np.testing.assert_array_equal(z[1], (u - u.mean()) / (u.std() + 1e-8))

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), c=st.integers(2, 12),
           k=st.integers(0, 1000))
    def test_scaling_by_a_power_of_two_moves_only_eps(self, seed, n, c, k):
        """standardize_rows(x * 2^k) is finite, silent and within 1e-7 of
        standardize_rows(x) for unit-scale rows (eps is the only difference),
        and its pulled-back gradient is 2^-k times that of x."""
        rng = make_rng(seed)
        x = rng.uniform(-4.0, 4.0, size=(n, c))
        x[:, :2] = (-4.0, 4.0)  # a spread that keeps eps's share below 1e-7
        g = rng.uniform(-1.0, 1.0, size=(n, c))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z = standardize_rows(x * 2.0**k)
            grad = losses._standardize_vjp(x * 2.0**k, g)
        assert np.isfinite(z).all() and np.isfinite(grad).all()
        np.testing.assert_allclose(z, standardize_rows(x), rtol=0, atol=1e-7)
        np.testing.assert_allclose(grad * 2.0**k, losses._standardize_vjp(x, g), rtol=0, atol=1e-7)

    @pytest.mark.parametrize("kind", ["kd", "pld", "dist"])
    def test_gradient_chained_through_standardization(self, kind):
        rng = make_rng(47)
        s, t, y = random_batch(rng, 4, 8, scale=2.0)
        cfg = default_loss_config(kind, standardize="both")
        err = grad_check(lambda x: evaluate_loss(cfg, x, t, y), s)
        assert err < 1e-5

    def test_teacher_only_leaves_student_gradient_exact(self):
        rng = make_rng(48)
        s, t, y = random_batch(rng, 3, 6)
        cfg = default_loss_config("pld", standardize="teacher-only")
        err = grad_check(lambda x: evaluate_loss(cfg, x, t, y), s)
        assert err < 1e-6


class TestGradCheckHarness:
    def test_rejects_zero_step(self):
        with pytest.raises(ValueError):
            grad_check(lambda x: ce_loss(x, [0]), np.zeros((1, 3)), h=0.0)

    @pytest.mark.parametrize("shape", [(0, 3), (2, 0)])
    def test_rejects_an_empty_batch(self, shape):
        """An empty batch is a ValueError before the loss is called, not a
        division by its size."""
        from pldlab.losses import LossResult

        calls = []

        def loss(x):
            calls.append(1)
            return LossResult(float(x.sum()), np.ones(x.shape), np.zeros(x.shape[0]))

        with pytest.raises(ValueError, match="nonempty"):
            grad_check(loss, np.zeros(shape))
        assert calls == []

    def test_flags_a_wrong_gradient(self):
        from pldlab.losses import LossResult

        def broken(x):
            good = ce_loss(x, [0])
            return LossResult(good.loss, good.grad * 1.5)

        err = grad_check(broken, np.array([[0.3, -0.2, 0.5]]))
        assert err > 0.1

    def test_flags_a_wrong_gradient_on_the_column_path(self):
        from pldlab.losses import LossResult

        rng = make_rng(50)
        s, t, y = random_batch(rng, 4, 6)
        calls = []

        def broken(x):
            calls.append(1)
            good = pld_loss(x, t, y)
            return LossResult(good.loss, good.grad * 1.5, good.rows)

        err = grad_check(broken, s)
        assert len(calls) == 1 + 1  # the batch, then its 2 * 6 column-shifted copies in one stack
        assert err > 0.1

    def test_nan_gradient_on_the_column_path_is_not_exact(self):
        from pldlab.losses import LossResult

        def nan_grad(x):
            good = ce_loss(x, [0, 1])
            return LossResult(good.loss, good.grad * np.nan, good.rows)

        assert grad_check(nan_grad, np.array([[0.3, -0.2, 0.5], [0.1, 0.0, -0.4]])) == np.inf

    def test_nan_difference_on_the_per_coordinate_path_is_not_exact(self):
        from pldlab.losses import LossResult

        def nan_away_from_start(x):
            good = ce_loss(x, [0])
            loss = good.loss if np.array_equal(x, [[0.3, -0.2, 0.5]]) else np.nan
            return LossResult(loss, good.grad)  # no rows: one pair per coordinate

        assert grad_check(nan_away_from_start, np.array([[0.3, -0.2, 0.5]])) == np.inf

    @staticmethod
    def coupled_dist(t, y):
        return lambda x: dist_loss(x, t, y, 0.1, 0.45, 0.45, 1.0)

    def test_flags_a_wrong_gradient_on_the_coupled_path(self):
        from pldlab.losses import LossResult

        rng = make_rng(57)
        s, t, y = random_batch(rng, 8, 5)
        exact, shapes = self.coupled_dist(t, y), []

        def broken(x):
            shapes.append(x.shape)
            good = exact(x)
            return LossResult(good.loss, good.grad * 1.5)

        assert grad_check(exact, s) < 1e-6
        assert grad_check(broken, s) > 0.1
        assert shapes == [(8, 5), (2 * 8 * 5, 8, 5)]  # the batch, then all its copies

    def test_nan_difference_on_the_coupled_path_is_not_exact(self):
        from pldlab.losses import LossResult

        rng = make_rng(58)
        s, t, y = random_batch(rng, 8, 5)
        exact = self.coupled_dist(t, y)

        def nan_at_one_copy(x):
            good = exact(x)
            if x.ndim == 2:
                return good
            loss = good.loss.copy()
            loss[17] = np.nan
            return LossResult(loss, good.grad)

        assert grad_check(nan_at_one_copy, s) == np.inf

    @pytest.mark.parametrize("coupled", [False, True])
    def test_one_central_difference_per_coordinate(self, coupled):
        """The copies are s0 shifted by +h and by -h: at one coordinate each
        (coupled rows), or at one column of every row, each column once."""
        rng = make_rng(59)
        s, t, y = random_batch(rng, 3, 4)
        h, stacks = 1e-3, []

        def record(x):
            stacks.append(x)
            return dist_loss(x, t, y, 0.1, 0.45, 0.45 if coupled else 0.0, 1.0)

        grad_check(record, s, h=h)
        (copies,) = stacks[1:]
        masks = np.eye(s.size).reshape(-1, *s.shape)
        if not coupled:
            masks = np.stack([np.outer(np.ones(3), e) for e in np.eye(4)])
        k = len(masks)
        assert copies.shape == (2 * k, *s.shape)
        for mask, up, down in zip(masks, copies[:k], copies[k:]):
            np.testing.assert_array_equal(up, np.where(mask == 1, s + h, s))
            np.testing.assert_array_equal(down, np.where(mask == 1, s - h, s))

    def test_copies_go_in_a_few_bounded_stacks(self):
        rng = make_rng(60)
        s, t, y = random_batch(rng, 8, 100)
        sizes = []

        def record(x):
            sizes.append(x.size)
            return pld_loss(x, t, y)

        assert grad_check(record, s) < 1e-6
        assert sizes[0] == s.size and len(sizes) == 1 + 2  # 200 column copies of 800 logits
        assert sum(sizes[1:]) == 2 * 100 * s.size and max(sizes[1:]) <= 1 << 17

    @pytest.mark.parametrize("kernel", ["pld", "coupled dist"])
    def test_reads_no_gradient_of_a_stack(self, kernel):
        """A loss_fn whose stack results carry no gradient, as a value-only
        call returns them, checks to the same error as the full results: the
        column path reads only rows, the coupled path only losses."""
        from pldlab.losses import LossResult

        rng = make_rng(62)
        s, t, y = random_batch(rng, 4, 5)
        full = (lambda x: pld_loss(x, t, y)) if kernel == "pld" else self.coupled_dist(t, y)
        stacks = []

        def no_stack_grad(x):
            res = full(x)
            if x.ndim == 2:
                return res
            stacks.append(x.shape)
            return LossResult(res.loss, None, res.rows)

        assert grad_check(no_stack_grad, s) == grad_check(full, s) < 1e-6
        assert stacks

    def test_malformed_stack_raises(self):
        from pldlab.losses import LossResult

        rng = make_rng(61)
        s, t, y = random_batch(rng, 4, 6)
        bad = np.stack([s, s])
        bad[1, 2, 3] = np.nan
        for kernel in (lambda x: ce_loss(x, y), lambda x: kd_loss(x, t, y),
                       lambda x: dist_loss(x, t, y), lambda x: pld_loss(x, t, y)):
            with pytest.raises(ValueError):
                kernel(bad)  # non-finite
            with pytest.raises(ValueError):
                kernel(np.stack([s, s])[..., :5])  # trailing shape not the teacher's (or labels')
            with pytest.raises(ValueError):
                kernel(np.stack([s, s]).reshape(2, 6, 4))

        def short_rows(x):
            good = pld_loss(x, t, y)
            return LossResult(good.loss, good.grad, good.rows[..., :-1])

        def long_losses(x):
            good = dist_loss(x, t, y)
            return LossResult(np.append(good.loss, 0.0), good.grad)

        for fn in (short_rows, long_losses):
            with pytest.raises(ValueError):
                grad_check(fn, s)


class TestStudentTeacherKl:
    def test_identical_logits(self):
        rng = make_rng(49)
        s = rng.normal(size=(5, 6))
        assert student_teacher_kl(s, s.copy()) == pytest.approx(0.0, abs=1e-12)

    def test_per_row_shift_invariance(self):
        rng = make_rng(50)
        s = rng.normal(size=(5, 6))
        shifts = rng.uniform(-30, 30, size=(5, 1))
        assert student_teacher_kl(s + shifts, s) == pytest.approx(0.0, abs=1e-10)

    def test_matches_term_by_term_oracle(self):
        rng = make_rng(51)
        s = rng.normal(size=(4, 5)) * 2
        t = rng.normal(size=(4, 5)) * 2
        total = 0.0
        for i in range(4):
            p = np.exp(t[i]) / np.exp(t[i]).sum()
            q = np.exp(s[i]) / np.exp(s[i]).sum()
            total += sum(p[j] * math.log(p[j] / q[j]) for j in range(5))
        assert student_teacher_kl(s, t) == pytest.approx(total / 4, abs=1e-12)

    def test_teacher_row_wider_than_float64_range(self):
        """A class whose teacher probability is 0 adds nothing (0 log 0 = 0),
        also when its teacher log-probability overflows to -inf."""
        s = np.array([[0.5, -0.25, 0.0], [0.1, 0.2, 0.3]])
        t = np.array([[1e308, -1e308, 0.0], [1.0, 2.0, 3.0]])
        logq = s - np.log(np.exp(s).sum(axis=1, keepdims=True))
        kl = student_teacher_kl(s, t)
        assert np.isfinite(kl)
        wide_row = -logq[0, 0]
        assert kl == pytest.approx((wide_row + student_teacher_kl(s[1:], t[1:])) / 2, rel=1e-12)

    def test_rows_with_positive_probabilities_keep_their_bits(self):
        rng = make_rng(62)
        s = rng.normal(size=(6, 9)) * 4
        t = rng.normal(size=(6, 9)) * 4
        logq = s - s.max(axis=1, keepdims=True)
        logq = logq - np.log(np.exp(logq).sum(axis=1, keepdims=True))
        logp = t - t.max(axis=1, keepdims=True)
        logp = logp - np.log(np.exp(logp).sum(axis=1, keepdims=True))
        plain = float((np.exp(logp) * (logp - logq)).sum(axis=1).mean())
        assert student_teacher_kl(s, t) == plain

    def test_nonnegative(self):
        rng = make_rng(52)
        for _ in range(20):
            s = rng.normal(size=(3, 7)) * 5
            t = rng.normal(size=(3, 7)) * 5
            assert student_teacher_kl(s, t) >= 0.0


class TestEvaluateLossDispatch:
    def test_every_kind_runs_and_is_finite(self):
        rng = make_rng(53)
        s, t, y = random_batch(rng, 4, 6)
        for kind in LOSS_KINDS:
            res = evaluate_loss(default_loss_config(kind), s, t, y)
            assert np.isfinite(res.loss)
            assert np.isfinite(res.grad).all()
            assert res.grad.shape == s.shape

    def test_listmle_kind_is_uniform_pld(self):
        rng = make_rng(54)
        s, t, y = random_batch(rng, 3, 5)
        a = evaluate_loss(default_loss_config("listmle"), s, t, y)
        b = pld_loss(s, t, y, scheme="uniform")
        assert a.loss == b.loss

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DistillLossConfig(kind="nope")
        with pytest.raises(ValueError):
            DistillLossConfig(ce_mix=1.5)
        with pytest.raises(ValueError):
            DistillLossConfig(kd_temperature=-1.0)
        with pytest.raises(ValueError):
            DistillLossConfig(divergence="l2")
        with pytest.raises(ValueError):
            DistillLossConfig(standardize="student-only")
        with pytest.raises(ValueError):
            dataclasses.replace(DistillLossConfig(), ce_mix=1.5)
        with pytest.raises(ValueError):
            DistillLossConfig(dist_gamma=float("nan"))
        with pytest.raises(ValueError, match="teacher_temperature"):  # as pld_loss refuses it
            DistillLossConfig(teacher_temperature=float("inf"))


# -- checks at the boundary ------------------------------------------------------
#
# evaluate_loss does not check its arrays itself: the kernel it dispatches to
# does, and so does standardize_rows.  Every malformed input it reads must
# still raise ValueError, never another exception and never a result.

RANKING_KINDS = ("listmle", "plistmle", "pld")
GUARD_CASES = [
    (kind, standardize, targets)
    for kind in LOSS_KINDS
    for standardize in STANDARDIZE_MODES
    for targets in (False, True)
    if kind in RANKING_KINDS or not targets
]


def _malformed(s, t, y):
    """(name, s, t, labels) per malformed input, with the parts it reads."""
    n, c = s.shape
    for bad in (np.nan, np.inf, -np.inf):
        s_bad, t_bad = s.copy(), t.copy()
        s_bad[1, 2] = t_bad[0, 1] = bad
        yield f"s={bad}", s_bad, t, y, "s"
        yield f"t={bad}", s, t_bad, y, "t"
    yield "s 1-D", s[0], t, y, "s"
    yield "s 0-d", np.float64(1.0), t, y, "s"
    yield "s empty", np.zeros((0, c)), t, y, "s"
    yield "t rows", s, np.zeros((n + 1, c)), y, "t"
    yield "t classes", s, np.zeros((n, c + 1)), y, "t"
    yield "labels float", s, t, y.astype(np.float64), "y"
    yield "labels negative", s, t, np.where(np.arange(n) == 0, -1, y), "y"
    yield "labels out of range", s, t, np.where(np.arange(n) == 0, c, y), "y"
    yield "labels length", s, t, y[:-1], "y"


@pytest.mark.parametrize("kind,standardize,targets", GUARD_CASES)
def test_evaluate_loss_rejects_malformed_input(kind, standardize, targets):
    rng = make_rng(71)
    s, t, y = random_batch(rng, 3, 4)
    cfg = default_loss_config(kind, standardize=standardize)
    kw = {}
    if targets:
        kw = {"targets": teacher_targets(cfg, t, y)}
    reads = {"s"}
    if not targets:
        reads |= {"y", "t"} if cfg.needs_teacher else {"y"}
    for name, s_bad, t_bad, y_bad, part in _malformed(s, t, y):
        if part in reads:
            with pytest.raises(ValueError):
                evaluate_loss(cfg, s_bad, t_bad, y_bad, **kw)
                pytest.fail(f"{name} gave a result")


@pytest.mark.parametrize("kernel", [kd_loss, dist_loss])
@pytest.mark.parametrize("tau", [0.0, -1.0, np.nan])
def test_kernel_rejects_bad_temperature(kernel, tau):
    rng = make_rng(72)
    s, t, y = random_batch(rng, 3, 4)
    with pytest.raises(ValueError):
        kernel(s, t, y, tau=tau)


S2, T2, Y1 = [[0.0, 1.0]], [[0.0, 1.0]], [0]


@pytest.mark.parametrize("call, message", [
    (lambda: dist_loss(S2, T2, Y1, alpha=1.5, gamma=0.0), "alpha"),
    (lambda: dist_loss(S2, T2, Y1, beta=-1.0, gamma=0.0), "beta and gamma"),
    # nan > 0 is false: both terms would be skipped, leaving 0.1 * CE
    (lambda: dist_loss(S2, T2, Y1, alpha=0.1, beta=np.nan, gamma=np.nan), "beta and gamma"),
    (lambda: dist_loss([[0.0]], [[0.0]], Y1, gamma=0.0), "at least 2 classes"),
    (lambda: pld_loss(S2, T2, Y1, tau_T=0.0), "tau_T"),
    (lambda: pld_loss(S2, T2, Y1, tau_T=np.inf), "tau_T"),  # not the softmax's own refusal
    (lambda: pld_gradient_closed_form([0.0, 1.0], [0, 1], [1.0]), "expected 2 weights"),
    (lambda: pld_gradient_closed_form([0.0, 1.0], [0, 1], [1.5, -0.5]), "nonnegative"),
    (lambda: grad_check(lambda x: ce_loss(x, Y1), np.zeros((1, 2)), floor=-1.0), "floor"),
    (lambda: student_teacher_kl(np.zeros((2, 3)), np.zeros((2, 4))), "shape mismatch"),
], ids=["dist-alpha", "dist-beta", "dist-nan-weights", "dist-one-class", "pld-tau-zero",
        "pld-tau-inf", "closed-form-weight-count", "closed-form-weight-sign", "grad-check-floor",
        "kl-shapes"])
def test_out_of_range_argument_is_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@st.composite
def narrow_pld_cases(draw):
    """A pld batch whose student rows span at most a few tens of nats, with
    continuous or tied (0.5 grid) teacher logits, any labels, weight scheme
    and teacher temperature."""
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    n, c = draw(st.integers(1, 4)), draw(st.integers(2, 12))
    s = rng.normal(size=(n, c)) * draw(st.sampled_from([0.1, 1.0, 3.0]))
    t = rng.normal(size=(n, c)) * draw(st.sampled_from([0.5, 1.0, 4.0]))
    if draw(st.booleans()):
        t = np.round(2.0 * t) / 2.0
    y = rng.integers(0, c, size=n)
    return s, t, y, draw(st.sampled_from(WEIGHT_SCHEMES)), draw(st.sampled_from([0.5, 1.0, 4.0]))


def pld_loss_and_tail_calls(s, t, y, **kw):
    """pld_loss's result and its number of running log-sum-exp calls: one for
    a one-chunk batch on the linear gradient tail, two on the log-space tail."""
    lcse = losses._log_cumsum_exp_rows
    with mock.patch.object(losses, "_log_cumsum_exp_rows", wraps=lcse) as spy:
        res = pld_loss(s, t, y, **kw)
    return res, spy.call_count


@settings(max_examples=30, derandomize=True, deadline=None)
@given(case=narrow_pld_cases())
@pytest.mark.parametrize("shift", [600.0, -600.0])
def test_pld_matches_oracles_on_both_gradient_tails(shift, case):
    """Rows and loss against the O(C^2) oracle, gradient rows against the
    closed form: on a narrow batch (linear tail) and on the same batch shifted
    by +-600, where every |lc| >= 500 (log-space tail).  The shift moves the
    loss by less than 1e-8, and each gradient row still sums to 0."""
    s, t, y, scheme, tau = case
    n = len(y)
    results = []
    for x, tail_calls in ((s, 1), (s + shift, 2)):
        res, calls = pld_loss_and_tail_calls(x, t, y, tau_T=tau, scheme=scheme)
        assert calls == tail_calls
        expected = []
        for i in range(n):
            pi = teacher_optimal_permutation(t[i], y[i])
            w = make_weights(t[i], pi, scheme, tau)
            expected.append(naive_pld_value(x[i], t[i], y[i], weights=w))
            g = pld_gradient_closed_form(x[i], pi, w)
            np.testing.assert_allclose(res.grad[i], g / n, atol=1e-10)
        np.testing.assert_allclose(res.rows, expected, rtol=0, atol=1e-10)
        assert res.loss == pytest.approx(np.mean(expected), abs=1e-10)
        results.append(res)
    plain, shifted = results
    assert abs(plain.loss - shifted.loss) < 1e-8
    assert np.abs(shifted.grad.sum(axis=1)).max() < 1e-8



@settings(max_examples=25, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), c=st.integers(2, 48),
       tau=st.sampled_from([0.02, 1.0]))
@pytest.mark.parametrize("scheme", WEIGHT_SCHEMES)
def test_pld_on_wide_rows_matches_oracles(scheme, seed, n, c, tau):
    """Student rows x300 (the banded and sequential running log-sum-exp, the
    log-space tail with its exp floor), and weights of exactly 0 (onehot-first,
    or teacher-softmax at tau_T 0.02): rows and loss within 1e-12 of the O(C^2)
    oracle, relative to the value or the rows' largest logit; gradient rows
    within 1e-10 of their largest weight (the scale of each entry's terms)
    plus the exp(-700) below which entries are set to 0, and summing to 0;
    onehot-first equal to ce_loss; no warning."""
    rng = make_rng(seed)
    s, t = 300.0 * rng.normal(size=(n, c)), rng.normal(size=(n, c)) * 4.0
    y = rng.integers(0, c, size=n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = pld_loss(s, t, y, tau_T=tau, scheme=scheme)
        ce = ce_loss(s, y)
    scale = 1e-12 * np.abs(s).max()
    expected = np.empty(n)
    for i in range(n):
        pi = teacher_optimal_permutation(t[i], y[i])
        w = make_weights(t[i], pi, scheme, tau)
        expected[i] = w @ pl_position_nll(s[i][pi])
        g = pld_gradient_closed_form(s[i], pi, w)
        assert np.abs(res.grad[i] * n - g).max() <= 1e-10 * w.max() + np.exp(-700.0)
    np.testing.assert_allclose(res.rows, expected, rtol=1e-12, atol=scale)
    assert res.loss == pytest.approx(expected.mean(), rel=1e-12, abs=scale)
    assert np.abs(res.grad.sum(axis=1)).max() < 1e-8
    if scheme == "onehot-first":
        np.testing.assert_allclose(res.rows, ce.rows, rtol=1e-12, atol=scale)
        assert res.loss == pytest.approx(ce.loss, rel=1e-12, abs=scale)
        np.testing.assert_allclose(res.grad, ce.grad, rtol=0, atol=1e-12)


def decimal_pld_gradient(s, pi, w) -> np.ndarray:
    """One row's gradient in 50-digit decimal arithmetic, by the first-pick-first
    formula d/ds[pi_k] = exp(s[pi_k]) * sum_{m <= k} w_m / Z_m - w_k, with
    Z_m = sum_{l >= m} exp(s[pi_l]) summed directly: no log-sum-exp anywhere."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        e = [decimal.Decimal(float(s[j])).exp() for j in pi]
        z = [sum(e[m:], decimal.Decimal(0)) for m in range(len(e))]
        acc, grad = decimal.Decimal(0), np.empty(len(e))
        for k, j in enumerate(pi):
            acc += decimal.Decimal(float(w[k])) / z[k]
            grad[j] = float(e[k] * acc - decimal.Decimal(float(w[k])))
    return grad


@pytest.mark.parametrize("c", [8, 16, 32, 64])
def test_pld_gradient_on_wide_rows_matches_decimal_reference(c):
    """Student rows x300 (the banded, shifted and sequential running log-sum-exp
    and the log-space tail): pld_loss's gradient rows and the closed form within
    1e-12 of each row's largest entry of a 50-digit reference, which takes no
    log-sum-exp."""
    rng = make_rng(240 + c)
    n = 3
    s, t = 300.0 * rng.normal(size=(n, c)), rng.normal(size=(n, c))
    y = rng.integers(0, c, size=n)
    res = pld_loss(s, t, y)
    for i in range(n):
        pi = teacher_optimal_permutation(t[i], y[i])
        w = make_weights(t[i], pi, "teacher-softmax", 1.0)
        ref = decimal_pld_gradient(s[i], pi, w)
        bound = 1e-12 * np.abs(ref).max()
        assert np.abs(res.grad[i] * n - ref).max() <= bound
        assert np.abs(pld_gradient_closed_form(s[i], pi, w) - ref).max() <= bound

BASELINE_KERNELS = {
    **{f"kd {d}": lambda s, t, y, tau, d=d: kd_loss(s, t, y, tau=tau, divergence=d)
       for d in DIVERGENCES},
    "dist": lambda s, t, y, tau: dist_loss(s, t, y, tau=tau),
    "dist inter-class": lambda s, t, y, tau: dist_loss(s, t, y, gamma=0.0, tau=tau),
    "ce": lambda s, t, y, tau: ce_loss(s, y),
    "ls": lambda s, t, y, tau: ls_loss(s, y, 0.1),
}


@st.composite
def extreme_batches(draw):
    """Student and teacher logits up to +-700 (uniform at a drawn scale, some
    entries pinned to +-700), any labels, and a temperature down to 1e-3."""
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    n, c = draw(st.integers(2, 5)), draw(st.integers(2, 10))

    def logits():
        x = rng.uniform(-700.0, 700.0, size=(n, c)) * draw(st.sampled_from([1e-3, 0.1, 1.0]))
        pinned = rng.random((n, c)) < draw(st.sampled_from([0.0, 0.25, 0.5]))
        x[pinned] = rng.choice([-700.0, 700.0], size=int(pinned.sum()))
        return x

    tau = draw(st.one_of(st.sampled_from([1e-3, 1.0]), st.floats(1e-3, 10.0)))
    return logits(), logits(), rng.integers(0, c, size=n), tau


@settings(max_examples=60, derandomize=True, deadline=None)
@given(batch=extreme_batches())
def test_baselines_stay_finite_at_extreme_logits(batch):
    """kd (every divergence), dist, ce and ls never give NaN or a numpy
    RuntimeWarning, and every value is finite, except that reverse KL may be
    +inf in a row where the teacher gives a class probability 0 and the
    student does not (its documented value)."""
    s, t, y, tau = batch
    for name, kernel in BASELINE_KERNELS.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = kernel(s, t, y, tau)
        rows = np.full(len(y), res.loss) if res.rows is None else res.rows
        for part in (res.loss, res.grad, rows):
            assert not np.isnan(part).any(), name
        inf_allowed = np.zeros(len(y), dtype=bool)
        if name == "kd reverse-kl":
            inf_allowed = ((softmax(t, tau) == 0) & (softmax(s, tau) > 0)).any(axis=1)
        assert np.isfinite(rows[~inf_allowed]).all(), name
        assert np.isfinite(res.grad[~inf_allowed]).all(), name
        assert np.isfinite(res.loss) or inf_allowed.any(), name


# (config fields, logit scales) per kernel path; kd's rows near 1e308 wide at tau
# 1e-3 take forward KL's wide-row value patch
VALUE_ONLY_PATHS = {
    "ce": ({"kind": "ce"}, [1.0, 300.0]),
    "ls": ({"kind": "ls"}, [1.0, 300.0]),
    **{f"kd {d}": ({"kind": "kd", "divergence": d}, [1.0, 300.0]) for d in DIVERGENCES},
    **{f"kd {d} wide": ({"kind": "kd", "divergence": d, "standardize": "none",
                         "kd_temperature": 1e-3}, [4e307])
       for d in DIVERGENCES},
    "dist": ({"kind": "dist", "dist_gamma": 0.0}, [1.0, 300.0]),
    "dist coupled": ({"kind": "dist", "dist_gamma": 0.45}, [1.0, 300.0]),
    "listmle": ({"kind": "listmle"}, [1.0, 300.0]),
    "plistmle": ({"kind": "plistmle"}, [1.0, 300.0]),
    **{f"pld {w}": ({"kind": "pld", "pld_scheme": w}, [1.0, 300.0]) for w in WEIGHT_SCHEMES},
}


@st.composite
def value_only_cases(draw, path):
    """A config on ``path`` under any standardize mode, CE weight and kd, dist
    and pld temperatures (kd and dist down to 1e-3), logits at the path's
    scales, given targets or a teacher, and a batch or a stack."""
    fields, scales = VALUE_ONLY_PATHS[path]
    cfg = default_loss_config(**{
        "standardize": draw(st.sampled_from(STANDARDIZE_MODES)),
        "ce_mix": draw(st.sampled_from([0.0, 0.1, 1.0])),
        "kd_temperature": draw(st.sampled_from([1e-3, 0.5, 1.0, 2.0])),
        "teacher_temperature": draw(st.sampled_from([0.5, 1.0, 4.0])),
        **fields,
    })
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    n, c = max(draw(st.integers(1, 4)), cfg.min_batch_rows), draw(st.integers(2, 8))
    scale = draw(st.sampled_from(scales))
    s, t = (rng.uniform(-scale, scale, size=(n, c)) for _ in range(2))
    if draw(st.booleans()):
        s = np.stack([s + rng.normal(size=(n, c)) for _ in range(draw(st.integers(1, 3)))])
    return cfg, s, t, rng.integers(0, c, size=n), draw(st.booleans())


@pytest.mark.parametrize("path", sorted(VALUE_ONLY_PATHS))
@settings(max_examples=12, derandomize=True, deadline=None)
@given(data=st.data())
def test_value_only_call_keeps_the_loss_and_rows_bits(path, data):
    """evaluate_loss with grad=False, and so each kernel it dispatches to,
    returns the default call's loss and rows bit for bit and no gradient."""
    cfg, s, t, y, given = data.draw(value_only_cases(path))
    targets = teacher_targets(cfg, t, y) if given else None
    full = evaluate_loss(cfg, s, t, y, targets=targets)
    value = evaluate_loss(cfg, s, t, y, targets=targets, grad=False)
    assert value.grad is None and full.grad.shape == s.shape
    assert type(value.loss) is type(full.loss)
    assert np.asarray(value.loss).tobytes() == np.asarray(full.loss).tobytes()
    assert (value.rows is None) == (full.rows is None)
    if full.rows is not None:
        assert value.rows.shape == full.rows.shape
        assert value.rows.tobytes() == full.rows.tobytes()


@pytest.mark.parametrize("kind, given_targets", [
    ("ls", False), ("kd", False), ("kd", True), ("dist", False), ("dist", True),
    ("pld", False), ("pld", True),
])
def test_each_input_array_is_scanned_once(kind, given_targets, monkeypatch):
    """A kernel call scans the student stack and, without given targets, the
    teacher batch for non-finite entries once each: its cross-entropy term and
    softmaxes run on the checked arrays."""
    rng = make_rng(41)
    s, t, y = random_batch(rng, 4, 6)
    cfg = default_loss_config(kind)
    targets = teacher_targets(cfg, t, y) if given_targets else None
    scanned = []
    real = numerics._finite
    monkeypatch.setattr(numerics, "_finite", lambda arr, name: scanned.append(name) or real(arr, name))
    for batch in (s, np.stack([s, -s])):
        scanned.clear()
        evaluate_loss(cfg, batch, None if given_targets else t, y, targets=targets)
        want = ["student logits"] if given_targets or kind == "ls" else [
            "student logits", "teacher logits"]
        assert scanned == want

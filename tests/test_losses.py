"""Loss kernel tests: analytic examples, finite-difference oracles, reductions."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from pldlab.losses import (
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
    pld_targets,
    standardize_rows,
    student_teacher_kl,
)
from pldlab.numerics import make_rng
from pldlab.ranking import pl_enumerate, pl_log_likelihood, teacher_optimal_permutation


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
        rng = make_rng(25)
        s, t, y = random_batch(rng, 3, 10)
        err = grad_check(
            lambda x: kd_loss(x, t, y, alpha=0.3, tau=2.0, divergence=divergence), s
        )
        assert err < 1e-6

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
        rng = make_rng(29)
        s, t, y = random_batch(rng, 8, 10, scale=2.0)
        err = grad_check(lambda x: dist_loss(x, t, y, 0.1, 0.45, 0.45, 1.0), s)
        assert err < 1e-5

    def test_gradient_with_temperature(self):
        rng = make_rng(30)
        s, t, y = random_batch(rng, 6, 5, scale=2.0)
        err = grad_check(lambda x: dist_loss(x, t, y, 0.0, 1.0, 1.0, 4.0), s)
        assert err < 1e-5

    def test_single_row_needs_gamma_zero(self):
        with pytest.raises(ValueError):
            dist_loss([[0.0, 1.0]], [[0.0, 1.0]], [0], gamma=0.5)
        dist_loss([[0.0, 1.0]], [[0.0, 1.0]], [0], gamma=0.0)  # fine


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


class TestPldLoss:
    def test_tiny_teacher_temperature_on_huge_teacher_logits(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = pld_loss([[0.0, 1.0]], [[1e306, 0.0]], [0], tau_T=1e-3)
        assert np.isfinite(res.loss) and np.isfinite(res.grad).all()
        plain = pld_loss([[0.0, 1.0]], [[1.0, 0.0]], [0], scheme="onehot-first")
        assert res.loss == plain.loss  # the weights are one-hot on the label

    @pytest.mark.parametrize("scheme", WEIGHT_SCHEMES)
    def test_apply_on_targets_equals_pld_loss(self, scheme):
        """Targets of a 60-row table, gathered for 40 shuffled rows, reproduce
        pld_loss bit for bit over three 16-row chunks (C = 2048)."""
        rng = make_rng(40)
        table = rng.normal(size=(60, 2048))
        labels = rng.integers(0, 2048, 60)
        idx = rng.permutation(60)[:40]
        s = 30.0 * rng.normal(size=(40, 2048))
        order, weights = pld_targets(table, labels, 0.5, scheme)
        res = pld_loss(s, None, None, targets=(order[idx], weights[idx]))
        ref = pld_loss(s, table[idx], labels[idx], 0.5, scheme)
        assert np.float64(res.loss).tobytes() == np.float64(ref.loss).tobytes()
        assert res.grad.tobytes() == ref.grad.tobytes()
        assert res.rows.tobytes() == ref.rows.tobytes()

    def test_targets_shape_checked(self):
        order, weights = pld_targets([[0.0, 1.0, 2.0]], [0])
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
        t_in = t if standardize == "none" else standardize_rows(t)
        kw = {"targets": pld_targets(t_in, y, **cfg.pld_args)}
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

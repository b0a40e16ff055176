"""Pipeline tests: data generation, MLP backprop, optimizer, training loops."""

import dataclasses
import json

import numpy as np
import pytest

from pldlab.lab import (
    METRICS_HEADER,
    MlpModel,
    OptimizerConfig,
    TrainingFailure,
    accuracy,
    backward,
    distill_student,
    forward,
    init_mlp,
    init_optimizer,
    load_model,
    make_blobs,
    metrics_to_csv,
    model_from_dict,
    model_to_dict,
    save_model,
    step_optimizer,
    train_teacher,
)
from pldlab.losses import default_loss_config
from pldlab.numerics import make_rng

SMALL = dict(n_classes=4, dim=4, train_per_class=40, test_per_class=20)


class TestMakeBlobs:
    def test_same_seed_bitwise_identical(self):
        a = make_blobs(**SMALL, spread=1.0, noise_rate=0.2, seed=9)
        b = make_blobs(**SMALL, spread=1.0, noise_rate=0.2, seed=9)
        np.testing.assert_array_equal(a.train_features, b.train_features)
        np.testing.assert_array_equal(a.train_labels, b.train_labels)
        np.testing.assert_array_equal(a.test_features, b.test_features)
        np.testing.assert_array_equal(a.test_labels, b.test_labels)

    def test_zero_spread_nearest_centroid_is_perfect(self):
        ds = make_blobs(**SMALL, spread=0.0, noise_rate=0.0, seed=3)
        d2 = ((ds.train_features[:, None, :] - ds.centers[None, :, :]) ** 2).sum(axis=2)
        assert (np.argmin(d2, axis=1) == ds.train_labels).all()

    def test_label_noise_bounds_reachable_accuracy(self):
        # uniform reassignment caps the best predictor at (1-r) + r/C
        ds = make_blobs(
            n_classes=2, dim=4, train_per_class=50, test_per_class=1000,
            spread=0.0, noise_rate=0.5, seed=4,
        )
        clean = np.repeat(np.arange(2), 1000)
        best = (ds.test_labels == clean).mean()
        margin = 4 * np.sqrt(0.75 * 0.25 / clean.shape[0])
        assert best <= 0.75 + margin

    def test_labels_in_range_and_split_sizes(self):
        ds = make_blobs(**SMALL, spread=1.0, noise_rate=0.3, seed=5)
        assert ds.train_features.shape == (160, 4)
        assert ds.test_features.shape == (80, 4)
        assert set(np.unique(ds.train_labels)) <= set(range(4))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            make_blobs(n_classes=1)
        with pytest.raises(ValueError):
            make_blobs(dim=1)
        with pytest.raises(ValueError):
            make_blobs(spread=-0.5)
        with pytest.raises(ValueError):
            make_blobs(noise_rate=1.0)


class TestMlp:
    def test_zero_parameters_give_zero_logits(self):
        model = MlpModel(
            layer_sizes=(3, 5, 2),
            weights=[np.zeros((3, 5)), np.zeros((5, 2))],
            biases=[np.zeros(5), np.zeros(2)],
        )
        out = forward(model, np.ones((4, 3)))
        np.testing.assert_array_equal(out, np.zeros((4, 2)))

    def test_single_linear_layer_is_affine(self):
        rng = make_rng(60)
        w = rng.normal(size=(4, 3))
        b = rng.normal(size=3)
        model = MlpModel(layer_sizes=(4, 3), weights=[w], biases=[b])
        x = rng.normal(size=(6, 4))
        np.testing.assert_allclose(forward(model, x), x @ w + b, rtol=1e-14)

    def test_random_model_finite_output(self):
        rng = make_rng(61)
        model = init_mlp([8, 16, 16, 5], rng)
        out = forward(model, rng.normal(size=(10, 8)) * 100)
        assert np.isfinite(out).all()

    def test_backward_zero_upstream_gradient(self):
        rng = make_rng(62)
        model = init_mlp([4, 6, 3], rng)
        x = rng.normal(size=(5, 4))
        grads = backward(model, x, np.zeros((5, 3)))
        for dw, db in grads:
            np.testing.assert_array_equal(dw, np.zeros_like(dw))
            np.testing.assert_array_equal(db, np.zeros_like(db))

    def test_backward_linear_layer_analytic(self):
        rng = make_rng(63)
        model = init_mlp([4, 3], rng)
        x = rng.normal(size=(7, 4))
        g = rng.normal(size=(7, 3))
        (dw, db), = backward(model, x, g)
        np.testing.assert_allclose(dw, x.T @ g, rtol=1e-13)
        np.testing.assert_allclose(db, g.sum(axis=0), rtol=1e-13)

    def test_backward_matches_finite_differences(self):
        from pldlab.losses import ce_loss

        rng = make_rng(64)
        model = init_mlp([5, 8, 4], rng)
        x = rng.normal(size=(6, 5))
        y = rng.integers(0, 4, size=6)

        def total_loss(m):
            return ce_loss(forward(m, x), y).loss

        res = ce_loss(forward(model, x), y)
        grads = backward(model, x, res.grad)
        h = 1e-6
        checked = 0
        for layer in range(2):
            w = model.weights[layer]
            dw = grads[layer][0]
            for idx in [(0, 0), (w.shape[0] - 1, w.shape[1] - 1), (1, 1)]:
                orig = w[idx]
                w[idx] = orig + h
                up = total_loss(model)
                w[idx] = orig - h
                down = total_loss(model)
                w[idx] = orig
                fd = (up - down) / (2 * h)
                assert abs(fd - dw[idx]) / max(1e-8, abs(fd), abs(dw[idx])) < 1e-5
                checked += 1
        assert checked >= 5

    def test_shape_mismatch_rejected(self):
        rng = make_rng(65)
        model = init_mlp([4, 3], rng)
        with pytest.raises(ValueError):
            forward(model, np.zeros((2, 5)))
        with pytest.raises(ValueError):
            backward(model, np.zeros((2, 4)), np.zeros((2, 5)))


class TestSerialization:
    def test_round_trip_is_bitwise(self, tmp_path):
        rng = make_rng(66)
        model = init_mlp([6, 9, 3], rng)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.layer_sizes == model.layer_sizes
        for a, b in zip(loaded.weights, model.weights):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(loaded.biases, model.biases):
            np.testing.assert_array_equal(a, b)

    def test_format_version_checked(self):
        doc = model_to_dict(init_mlp([3, 2], make_rng(67)))
        doc["format_version"] = 99
        with pytest.raises(ValueError):
            model_from_dict(doc)

    @pytest.mark.parametrize(
        "doc",
        [
            [],
            {"format_version": 1},
            {"format_version": 1, "layer_sizes": [3, 2], "weights": [], "biases": []},
        ],
    )
    def test_malformed_document_is_a_value_error(self, doc):
        with pytest.raises(ValueError):
            model_from_dict(doc)

    def test_document_shape(self, tmp_path):
        model = init_mlp([3, 4, 2], make_rng(68))
        path = tmp_path / "m.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        assert doc["format_version"] == 1
        assert doc["layer_sizes"] == [3, 4, 2]
        assert len(doc["weights"][0]) == 12  # row-major 3x4


class TestOptimizer:
    def test_zero_gradients_no_decay_leave_params(self):
        p = [np.array([1.0, -2.0])]
        g = [np.zeros(2)]
        cfg = OptimizerConfig(weight_decay=0.0)
        state = init_optimizer(p)
        before = p[0].copy()
        updated = step_optimizer(p, g, state, cfg)[0]
        np.testing.assert_array_equal(updated[0], before)

    def test_first_step_closed_form_scalar(self):
        cfg = OptimizerConfig(learning_rate=0.1, weight_decay=0.0)
        p = [np.array([0.5])]
        g = [np.array([0.3])]
        state = init_optimizer(p)
        out = step_optimizer(p, g, state, cfg)[0][0][0]
        expected = 0.5 - 0.1 * (0.3 / (np.sqrt(0.3**2) + cfg.eps))
        assert out == pytest.approx(expected, rel=1e-12)

    def test_quadratic_bowl_monotone_decrease(self):
        cfg = OptimizerConfig(learning_rate=0.05, weight_decay=0.0)
        p = [np.array([3.0, -2.0])]
        state = init_optimizer(p)
        prev = np.inf
        for _ in range(100):
            val = 0.5 * (p[0] ** 2).sum()
            assert val <= prev + 1e-12
            prev = val
            p, state = step_optimizer(p, [p[0].copy()], state, cfg)

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            OptimizerConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            OptimizerConfig(beta1=1.0)
        with pytest.raises(ValueError):
            OptimizerConfig(weight_decay=-0.1)
        with pytest.raises(ValueError):
            dataclasses.replace(OptimizerConfig(), eps=0.0)
        with pytest.raises(ValueError):
            OptimizerConfig(weight_decay=float("nan"))


class TestTrainTeacher:
    def test_separable_blobs_reach_high_accuracy(self):
        ds = make_blobs(**SMALL, spread=0.1, noise_rate=0.0, seed=10)
        model, records = train_teacher(ds, [4, 32, 4], epochs=20, seed=0, batch_size=32)
        assert records[-1].test_top1 >= 0.95

    def test_zero_epochs_returns_initialized_model(self):
        ds = make_blobs(**SMALL, spread=1.0, noise_rate=0.0, seed=11)
        model, records = train_teacher(ds, [4, 8, 4], epochs=0, seed=0)
        assert records == []
        assert 0.0 <= accuracy(model, ds.test_features, ds.test_labels) <= 1.0

    def test_same_seed_identical_weights(self):
        ds = make_blobs(**SMALL, spread=1.0, noise_rate=0.1, seed=12)
        m1, _ = train_teacher(ds, [4, 8, 4], epochs=3, seed=5, batch_size=32)
        m2, _ = train_teacher(ds, [4, 8, 4], epochs=3, seed=5, batch_size=32)
        for a, b in zip(m1.weights, m2.weights):
            np.testing.assert_array_equal(a, b)

    def test_divergence_raises_training_failure(self):
        ds = make_blobs(**SMALL, spread=1.0, noise_rate=0.0, seed=13)
        huge = OptimizerConfig(learning_rate=1e30)
        with pytest.raises(TrainingFailure, match="epoch"):
            train_teacher(ds, [4, 8, 4], opt_cfg=huge, epochs=5, seed=0, batch_size=32)

    def test_output_width_must_match_classes(self):
        ds = make_blobs(**SMALL, seed=14)
        with pytest.raises(ValueError):
            train_teacher(ds, [4, 8, 3], epochs=1, seed=0)


@pytest.fixture(scope="module")
def small_setup():
    ds = make_blobs(**SMALL, spread=1.0, noise_rate=0.1, seed=20)
    teacher, _ = train_teacher(ds, [4, 32, 4], epochs=10, seed=1, batch_size=32)
    return ds, teacher


class TestDistillStudent:
    def test_ce_kind_matches_plain_training(self, small_setup):
        ds, teacher = small_setup
        run = distill_student(
            ds, teacher, [4, 8, 4], default_loss_config("ce"), epochs=4, seed=3, batch_size=32
        )
        model, records = train_teacher(ds, [4, 8, 4], epochs=4, seed=3, batch_size=32)
        for a, b in zip(run.records, records):
            assert a.train_loss == pytest.approx(b.train_loss, abs=1e-12)
            assert a.test_top1 == b.test_top1
        for wa, wb in zip(run.model.weights, model.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_pld_onehot_first_reproduces_ce_trajectory(self, small_setup):
        ds, teacher = small_setup
        ce = distill_student(
            ds, teacher, [4, 8, 4], default_loss_config("ce"), epochs=4, seed=6, batch_size=32
        )
        onehot = distill_student(
            ds,
            teacher,
            [4, 8, 4],
            default_loss_config("pld", pld_scheme="onehot-first"),
            epochs=4,
            seed=6,
            batch_size=32,
        )
        assert len(ce.step_losses) == len(onehot.step_losses) > 0
        diffs = np.abs(np.array(ce.step_losses) - np.array(onehot.step_losses))
        assert diffs.max() < 1e-8

    def test_teacher_parameters_frozen(self, small_setup):
        ds, teacher = small_setup
        before = [w.copy() for w in teacher.weights] + [b.copy() for b in teacher.biases]
        distill_student(
            ds, teacher, [4, 8, 4], default_loss_config("pld"), epochs=2, seed=0, batch_size=32
        )
        after = list(teacher.weights) + list(teacher.biases)
        for a, b in zip(before, after):
            np.testing.assert_array_equal(a, b)

    def test_deterministic_run_and_metrics_bytes(self, small_setup):
        ds, teacher = small_setup
        cfg = default_loss_config("kd")
        r1 = distill_student(ds, teacher, [4, 8, 4], cfg, epochs=3, seed=9, batch_size=32)
        r2 = distill_student(ds, teacher, [4, 8, 4], cfg, epochs=3, seed=9, batch_size=32)
        assert metrics_to_csv(r1.records) == metrics_to_csv(r2.records)
        for a, b in zip(r1.model.weights, r2.model.weights):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("kind", ["kd", "dist", "listmle", "plistmle", "pld"])
    def test_every_loss_kind_trains(self, small_setup, kind):
        ds, teacher = small_setup
        run = distill_student(
            ds, teacher, [4, 8, 4], default_loss_config(kind), epochs=2, seed=2, batch_size=32
        )
        assert len(run.records) == 2
        for rec in run.records:
            assert np.isfinite(rec.train_loss)
            assert rec.teacher_kl is not None and rec.teacher_kl >= 0.0

    def test_dimension_mismatch_rejected(self, small_setup):
        ds, teacher = small_setup
        with pytest.raises(ValueError):
            distill_student(ds, teacher, [4, 8, 5], default_loss_config("pld"), epochs=1, seed=0)

    def test_metrics_csv_schema(self, small_setup):
        ds, teacher = small_setup
        run = distill_student(
            ds, teacher, [4, 8, 4], default_loss_config("pld"), epochs=2, seed=0, batch_size=32
        )
        text = metrics_to_csv(run.records)
        lines = text.strip().split("\n")
        assert lines[0] == METRICS_HEADER
        assert len(lines) == 3
        assert lines[1].startswith("0,")

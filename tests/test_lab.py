"""Pipeline tests: data generation, MLP backprop, optimizer, training loops."""

import dataclasses
import json
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pldlab.lab.model as lab_model
import pldlab.lab.train as lab_train
import pldlab.losses as losses
from pldlab.lab import (
    METRICS_HEADER,
    MlpModel,
    OptimizerConfig,
    TrainingFailure,
    accuracy,
    backward,
    distill_student,
    forward,
    forward_trace,
    init_mlp,
    init_optimizer,
    load_model,
    make_blobs,
    metrics_to_csv,
    model_from_dict,
    model_to_dict,
    step_optimizer,
    train_teacher,
)
from pldlab.losses import STANDARDIZE_MODES, default_loss_config, standardize_rows
from pldlab.numerics import make_rng

SMALL = dict(n_classes=4, dim=4, train_per_class=40, test_per_class=20)


def write_model(model, path):
    path.write_text(json.dumps(model_to_dict(model)))


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

    def test_overflowing_spread_is_refused_without_a_warning(self):
        # 1e308 times a normal draw above 1.8 leaves the float64 range
        with pytest.raises(ValueError, match="beyond the float64 range"):
            make_blobs(**SMALL, spread=1e308)
        ds = make_blobs(**SMALL, spread=1e300)
        assert np.isfinite(ds.train_features).all() and np.isfinite(ds.test_features).all()


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
        grads = backward(model, np.zeros((5, 3)), forward_trace(model, x)[1])
        for dw, db in grads:
            np.testing.assert_array_equal(dw, np.zeros_like(dw))
            np.testing.assert_array_equal(db, np.zeros_like(db))

    def test_backward_linear_layer_analytic(self):
        rng = make_rng(63)
        model = init_mlp([4, 3], rng)
        x = rng.normal(size=(7, 4))
        g = rng.normal(size=(7, 3))
        (dw, db), = backward(model, g, forward_trace(model, x)[1])
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
        grads = backward(model, res.grad, forward_trace(model, x)[1])
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
        with pytest.raises(ValueError, match="gradient shape"):
            backward(model, np.zeros((2, 5)), forward_trace(model, np.zeros((2, 4)))[1])


class TestSerialization:
    def test_round_trip_is_bitwise(self, tmp_path):
        rng = make_rng(66)
        model = init_mlp([6, 9, 3], rng)
        path = tmp_path / "model.json"
        write_model(model, path)
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
            {"format_version": 1, "layer_sizes": [1, 2], "weights": [[1, 2]], "biases": [[0]]},
        ],
    )
    def test_malformed_document_is_a_value_error(self, doc):
        with pytest.raises(ValueError):
            model_from_dict(doc)

    def test_document_shape(self, tmp_path):
        model = init_mlp([3, 4, 2], make_rng(68))
        path = tmp_path / "m.json"
        write_model(model, path)
        doc = json.loads(path.read_text())
        assert doc["format_version"] == 1
        assert doc["layer_sizes"] == [3, 4, 2]
        assert len(doc["weights"][0]) == 12  # row-major 3x4


class TestOptimizer:
    def test_zero_gradients_no_decay_leave_params(self):
        p = np.array([1.0, -2.0])
        g = np.zeros(2)
        cfg = OptimizerConfig(weight_decay=0.0)
        state = init_optimizer(p)
        before = p.copy()
        updated = step_optimizer(p, g, state, cfg)[0]
        np.testing.assert_array_equal(updated, before)

    def test_first_step_closed_form_scalar(self):
        cfg = OptimizerConfig(learning_rate=0.1, weight_decay=0.0)
        p = np.array([0.5])
        g = np.array([0.3])
        state = init_optimizer(p)
        out = step_optimizer(p, g, state, cfg)[0][0]
        expected = 0.5 - 0.1 * (0.3 / (np.sqrt(0.3**2) + cfg.eps))
        assert out == pytest.approx(expected, rel=1e-12)

    def test_quadratic_bowl_monotone_decrease(self):
        cfg = OptimizerConfig(learning_rate=0.05, weight_decay=0.0)
        p = np.array([3.0, -2.0])
        state = init_optimizer(p)
        prev = np.inf
        for _ in range(100):
            val = 0.5 * (p**2).sum()
            assert val <= prev + 1e-12
            prev = val
            p, state = step_optimizer(p, p.copy(), state, cfg)

    def test_step_rejects_misshapen_gradient_or_moments(self):
        """A gradient or a moment vector not shaped like the parameter vector
        is refused before anything is updated."""
        p = np.array([1.0, -2.0, 3.0])
        state = init_optimizer(p)
        with pytest.raises(ValueError, match="parameter shape"):
            step_optimizer(p, np.ones(2), state, OptimizerConfig())
        for moment in ("m", "v"):
            bad = dataclasses.replace(state, **{moment: np.zeros((3, 1))})
            with pytest.raises(ValueError, match="parameter shape"):
                step_optimizer(p, np.ones(3), bad, OptimizerConfig())
        assert state.step == 0
        np.testing.assert_array_equal(p, [1.0, -2.0, 3.0])

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


@pytest.mark.parametrize("kind", [None, "pld"])
def test_one_student_forward_per_training_row(monkeypatch, small_setup, kind):
    """Each epoch pushes every training row through the student once (the
    backward pass reuses that trace) and the test split through it once."""
    ds, teacher = small_setup
    real = lab_model.forward_trace
    rows = []

    def counting(model, x):
        if model is not teacher:
            rows.append(len(x))
        return real(model, x)

    for module in (lab_model, lab_train):
        monkeypatch.setattr(module, "forward_trace", counting)
    epochs, batch = 3, 32
    if kind is None:
        train_teacher(ds, [4, 8, 4], epochs=epochs, seed=0, batch_size=batch)
    else:
        distill_student(ds, teacher, [4, 8, 4], default_loss_config(kind), epochs=epochs,
                        seed=0, batch_size=batch)
    n_train, n_test = len(ds.train_features), len(ds.test_features)
    assert n_train % batch == 0 and n_test != batch
    assert Counter(rows) == {batch: epochs * n_train // batch, n_test: epochs}


@pytest.mark.parametrize("kind", ["kd", "dist", "pld"])
def test_teacher_forwarded_once_per_split(monkeypatch, small_setup, kind):
    """The frozen teacher sees each train row once, in batch-size blocks, and
    the test split once, however many epochs run."""
    ds, teacher = small_setup
    real = lab_train.forward
    rows = []

    def counting(model, x):
        if model is teacher:
            rows.append(len(x))
        return real(model, x)

    monkeypatch.setattr(lab_train, "forward", counting)
    batch = 32
    distill_student(ds, teacher, [4, 8, 4], default_loss_config(kind), epochs=3, seed=0,
                    batch_size=batch)
    n_train, n_test = len(ds.train_features), len(ds.test_features)
    assert sum(rows) == n_train + n_test
    assert Counter(rows) == {batch: n_train // batch, n_test: 1}


@pytest.mark.parametrize("standardize", STANDARDIZE_MODES)
@pytest.mark.parametrize("kind", ["listmle", "plistmle", "pld"])
def test_ranking_targets_come_from_the_standardized_teacher(
    monkeypatch, small_setup, kind, standardize
):
    """A ranking distill builds its targets once, from the train split's
    teacher logits as the config standardizes them, under the config's
    temperature and scheme."""
    ds, teacher = small_setup
    real = losses._pld_targets  # teacher_targets looks it up here
    calls = []

    def spy(t, labels, **kwargs):
        calls.append((t.copy(), labels, kwargs))
        return real(t, labels, **kwargs)

    monkeypatch.setattr(losses, "_pld_targets", spy)
    cfg = default_loss_config(kind, standardize=standardize, teacher_temperature=0.5)
    distill_student(ds, teacher, [4, 8, 4], cfg, epochs=2, seed=0, batch_size=32)
    t = forward(teacher, ds.train_features)
    [(table, labels, kwargs)] = calls
    np.testing.assert_allclose(
        table, t if standardize == "none" else standardize_rows(t), rtol=1e-12, atol=1e-12
    )
    np.testing.assert_array_equal(labels, ds.train_labels)
    assert kwargs == cfg.pld_args


def test_overflowing_teacher_fails_before_training(small_setup):
    ds, teacher = small_setup
    weights = [*teacher.weights[:-1], teacher.weights[-1] * 1e308]
    loud = MlpModel(layer_sizes=teacher.layer_sizes, weights=weights, biases=teacher.biases)
    with pytest.raises(TrainingFailure, match="teacher"):
        distill_student(ds, loud, [4, 8, 4], default_loss_config("pld"), epochs=1, seed=0)


@pytest.mark.parametrize("kind", ["ce", "kd", "pld"])
def test_teacher_wider_than_float64_range_gives_finite_teacher_kl(small_setup, kind):
    """Finite teacher logits 2e308 apart: the classes the teacher gives
    probability 0 add nothing to teacher_kl, which stays finite."""
    ds, _ = small_setup
    biases = [np.array([1e308, -1e308, 0.0, 0.0])]
    wide = MlpModel(layer_sizes=(4, 4), weights=[np.zeros((4, 4))], biases=biases)
    with np.errstate(over="ignore"):
        run = distill_student(
            ds, wide, [4, 8, 4], default_loss_config(kind), epochs=2, seed=0, batch_size=32
        )
    assert all(np.isfinite(rec.teacher_kl) for rec in run.records)


@pytest.mark.parametrize("kind,temperature", [("pld", "teacher_temperature"),
                                              ("kd", "kd_temperature")])
def test_tiny_temperature_on_huge_teacher_logits_trains(small_setup, kind, temperature):
    """Teacher logits near 1e306 at temperature 1e-3: t / tau overflows, yet
    the softened teacher is one-hot and the run finishes with finite losses."""
    ds, _ = small_setup
    biases = [np.array([1e306, 0.0, -1e306, 5.0])]
    huge = MlpModel(layer_sizes=(4, 4), weights=[np.zeros((4, 4))], biases=biases)
    cfg = default_loss_config(kind, **{temperature: 1e-3})
    run = distill_student(ds, huge, [4, 8, 4], cfg, epochs=2, seed=0, batch_size=32)
    assert all(np.isfinite([rec.train_loss, rec.teacher_kl]).all() for rec in run.records)


# -- flat parameters and the in-place training step ---------------------------
#
# The oracle is the out-of-place arithmetic the in-place code replaced: a
# fresh array per layer output, an np.where ReLU mask, and a fresh array per
# Adam term.  The in-place step must reproduce its parameters bit for bit.


def _oracle_forward_trace(weights, biases, x):
    acts = [x]
    h = x
    for l, (w, b) in enumerate(zip(weights, biases)):
        h = h @ w + b
        if l < len(weights) - 1:
            h = np.maximum(h, 0.0)
        acts.append(h)
    return h, acts


def _oracle_backward(weights, g, acts):
    grads = [None] * len(weights)
    for l in range(len(weights) - 1, -1, -1):
        grads[l] = (acts[l].T @ g, g.sum(axis=0))
        if l > 0:
            g = g @ weights[l].T
            g = np.where(acts[l] > 0, g, 0.0)
    return grads


def _oracle_adam(params, grads, m, v, t, cfg):
    bc1 = 1.0 - cfg.beta1**t
    bc2 = 1.0 - cfg.beta2**t
    for i, (p, g) in enumerate(zip(params, grads)):
        m[i] = cfg.beta1 * m[i] + (1.0 - cfg.beta1) * g
        v[i] = cfg.beta2 * v[i] + (1.0 - cfg.beta2) * g * g
        step = (m[i] / bc1) / (np.sqrt(v[i] / bc2) + cfg.eps) + cfg.weight_decay * p
        p -= cfg.learning_rate * step


def _assert_bits_equal(a, b):
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(np.signbit(a), np.signbit(b))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 12), min_size=2, max_size=4),
    batch=st.integers(1, 64),
    dead=st.booleans(),
    zero_grad=st.booleans(),
    beta1=st.sampled_from([0.0, 0.9]),
    weight_decay=st.sampled_from([0.0, 0.01]),
    seed=st.integers(0, 2**16),
)
def test_in_place_step_matches_out_of_place_oracle(
    sizes, batch, dead, zero_grad, beta1, weight_decay, seed
):
    """Forward, backward and Adam over the flat vector against the oracle,
    for several steps: every parameter equal, signs of zeros included.
    Dead hidden units make the ReLU mask leave -0.0 in the gradient."""
    rng = make_rng(seed)
    model = init_mlp(sizes, rng)
    if dead:
        for b in model.biases[:-1]:
            b[::2] = -1e3
    weights = [w.copy() for w in model.weights]
    biases = [b.copy() for b in model.biases]
    ref = [p for layer in zip(weights, biases) for p in layer]
    ref_m = [np.zeros_like(p) for p in ref]
    ref_v = [np.zeros_like(p) for p in ref]
    cfg = OptimizerConfig(learning_rate=0.05, beta1=beta1, weight_decay=weight_decay)
    params, grad = model.params, np.empty_like(model.params)
    state = init_optimizer(params)
    for t in range(1, 5):
        x = rng.normal(size=(batch, sizes[0]))
        up = np.zeros((batch, sizes[-1])) if zero_grad else rng.normal(size=(batch, sizes[-1]))
        logits, acts = forward_trace(model, x)
        ref_logits, ref_acts = _oracle_forward_trace(weights, biases, x)
        _assert_bits_equal(logits, ref_logits)
        pairs = backward(model, up, acts, out=grad)
        ref_pairs = _oracle_backward(weights, up, ref_acts)
        for (dw, db), (ref_dw, ref_db) in zip(pairs, ref_pairs):
            np.testing.assert_array_equal(dw, ref_dw)  # -0.0 may stand for +0.0
            np.testing.assert_array_equal(db, ref_db)
        step_optimizer(params, grad, state, cfg)
        _oracle_adam(ref, [g for pair in ref_pairs for g in pair], ref_m, ref_v, t, cfg)
        for p, ref_p in zip([q for layer in zip(model.weights, model.biases) for q in layer], ref):
            _assert_bits_equal(p, ref_p)


def test_optimizer_step_allocates_no_parameter_sized_array():
    """After one warm-up step, a step on the default teacher's 72,714
    parameters allocates less than a tenth of one parameter vector."""
    params = init_mlp([16, 256, 256, 10], make_rng(70)).params
    assert params.size == 72_714
    grads = make_rng(71).normal(size=params.size)
    state = init_optimizer(params)
    step_optimizer(params, grads, state, OptimizerConfig())
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        step_optimizer(params, grads, state, OptimizerConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * params.nbytes


def test_layers_are_views_of_the_flat_vector(tmp_path):
    ds = make_blobs(**SMALL, spread=1.0, noise_rate=0.1, seed=72)
    model, _ = train_teacher(ds, [4, 8, 6, 4], epochs=2, seed=0, batch_size=32)
    for p in model.weights + model.biases:
        assert p.flags.c_contiguous and np.shares_memory(p, model.params)
    assert sum(p.size for p in model.weights + model.biases) == model.params.size
    model.weights[1][0, 0] = 7.0
    assert 7.0 in model.params
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    write_model(model, first)
    loaded = load_model(first)
    write_model(loaded, second)
    assert first.read_bytes() == second.read_bytes()
    assert all(np.shares_memory(p, loaded.params) for p in loaded.weights + loaded.biases)

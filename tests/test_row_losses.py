"""Per-row losses: each row equals a one-row call, and coupled rows carry none.
A stack of batches scores like its batches called one by one."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pldlab.losses import (
    _pld_targets,
    DIVERGENCES,
    STANDARDIZE_MODES,
    WEIGHT_SCHEMES,
    default_loss_config,
    dist_loss,
    evaluate_loss,
    kd_loss,
    pld_loss,
    standardize_rows,
    teacher_targets,
)

SEPARABLE = [
    ("ce", {}),
    ("ls", {}),
    *[("kd", {"divergence": d}) for d in DIVERGENCES],
    ("dist", {"dist_gamma": 0.0}),
    ("listmle", {}),
    ("plistmle", {}),
    *[("pld", {"pld_scheme": w}) for w in WEIGHT_SCHEMES],
]
RANKING = [("listmle", {}), ("plistmle", {}), *[("pld", {"pld_scheme": w}) for w in WEIGHT_SCHEMES]]
COUPLED = [
    ("dist", {}),
    ("dist", {"dist_beta": 0.0, "dist_gamma": 1.0}),
]
TEACHER = [
    *RANKING,
    *[("kd", {"divergence": d}) for d in DIVERGENCES],
    ("dist", {"dist_gamma": 0.0}),
    ("dist", {}),
]


@st.composite
def batches(draw, min_rows=1):
    """Teacher logits with or without ties, student logits scaled toward
    +-700 (wide log-sum-exp rows and the log-space gradient tail), and
    temperatures down to 1e-3."""
    n = draw(st.integers(min_rows, 5))
    c = draw(st.integers(2, 12))

    def matrix(elements):
        return np.array(draw(st.lists(elements, min_size=n * c, max_size=n * c))).reshape(n, c)

    if draw(st.booleans()):
        t = 0.5 * matrix(st.integers(-3, 3)).astype(np.float64)
    else:
        t = matrix(st.floats(-5.0, 5.0))
    s = draw(st.sampled_from([1.0, 40.0, 350.0, 700.0])) * matrix(st.floats(-1.0, 1.0))
    y = np.array(draw(st.lists(st.integers(0, c - 1), min_size=n, max_size=n)))
    tau = draw(st.sampled_from([1e-3, 0.05, 0.5, 1.0, 4.0]))
    return s, t, y, tau


def config(kind, overrides, standardize, tau):
    return default_loss_config(
        kind, standardize=standardize, teacher_temperature=tau, kd_temperature=tau, **overrides
    )


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    batch=batches(),
    case=st.sampled_from(SEPARABLE),
    standardize=st.sampled_from(STANDARDIZE_MODES),
)
def test_rows_equal_single_row_losses(batch, case, standardize):
    s, t, y, tau = batch
    cfg = config(*case, standardize, tau)
    res = evaluate_loss(cfg, s, t, y)
    assert res.rows is not None
    assert res.rows.shape == (s.shape[0],)
    for i in range(s.shape[0]):
        single = evaluate_loss(cfg, s[i : i + 1], t[i : i + 1], y[i : i + 1])
        assert res.rows[i].tobytes() == np.float64(single.loss).tobytes(), (i, single.loss)
    assert abs(res.loss - res.rows.mean()) <= 1e-12 * abs(res.loss)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(
    batch=batches(min_rows=2),
    case=st.sampled_from(COUPLED),
    standardize=st.sampled_from(STANDARDIZE_MODES),
)
def test_coupled_rows_carry_no_row_losses(batch, case, standardize):
    s, t, y, tau = batch
    res = evaluate_loss(config(*case, standardize, tau), s, t, y)
    assert res.rows is None
    assert np.isfinite(res.loss)


def same_bits(a, b):
    assert np.asarray(a.loss).tobytes() == np.asarray(b.loss).tobytes()
    assert a.grad.tobytes() == b.grad.tobytes()
    assert (a.rows is None and b.rows is None) or a.rows.tobytes() == b.rows.tobytes()


@settings(max_examples=120, derandomize=True, deadline=None)
@given(
    batch=batches(),
    case=st.sampled_from(TEACHER),
    standardize=st.sampled_from(STANDARDIZE_MODES),
    tiny_tau=st.booleans(),
    extra=st.integers(0, 6),
    data=st.data(),
)
def test_targets_path_equals_plain_path(batch, case, standardize, tiny_tau, extra, data):
    """Targets built once on a larger teacher table and gathered by shuffled
    indices give the plain path's loss, gradient and rows bit for bit, for
    every kind that reads a teacher: for pld with the gradient tail in linear
    space and, after a shift of 1500, in log space."""
    s, t, y, tau = batch
    n, c = t.shape
    assume(case not in COUPLED or n >= 2)
    table = np.resize(t[::-1] - 1.0, (n + extra, c))  # the batch's rows go in below
    labels = np.arange(n + extra) % c
    idx = np.array(data.draw(st.permutations(range(n + extra))))[:n]
    table[idx], labels[idx] = t, y
    cfg = config(*case, standardize, 1e-3 if tiny_tau else tau)
    targets = [a[idx] for a in teacher_targets(cfg, table, labels)]
    if cfg.pld_args is not None:
        ranked = table if standardize == "none" else standardize_rows(table)
        assert all(a.tobytes() == b[idx].tobytes()
                   for a, b in zip(targets, _pld_targets(ranked, labels, **cfg.pld_args)))
    for s_k in (s, s + 1500.0):
        same_bits(evaluate_loss(cfg, s_k, None, y, targets=targets), evaluate_loss(cfg, s_k, t, y))
        if standardize != "none":
            continue
        if cfg.pld_args is not None:
            same_bits(pld_loss(s_k, None, None, targets=targets),
                      pld_loss(s_k, t, y, **cfg.pld_args))
        elif cfg.kind == "kd":
            args = (cfg.ce_mix, cfg.kd_temperature, cfg.divergence)
            same_bits(kd_loss(s_k, None, y, *args, targets=targets), kd_loss(s_k, t, y, *args))
        else:
            args = (cfg.ce_mix, cfg.dist_beta, cfg.dist_gamma, cfg.kd_temperature)
            same_bits(dist_loss(s_k, None, y, *args, targets=targets), dist_loss(s_k, t, y, *args))


# A stacked batch's loss and gradient lie within this many units in the last
# place of the batch called on its own: of the loss, and of the batch's largest
# gradient entry.  (The rows match bit for bit.)
STACK_ULPS = 4


@pytest.mark.parametrize("case", SEPARABLE + COUPLED, ids=str)
@settings(max_examples=8, derandomize=True, deadline=None)
@given(batch=batches(), standardize=st.sampled_from(STANDARDIZE_MODES))
def test_stack_scores_like_its_batches(case, batch, standardize):
    """(3, N, C) stacks sharing one teacher batch and its labels.  pld picks
    its gradient tail per chunk of rows, so a stack keeps to one tail: log
    space after a shift of 1500, and linear space with every logit within
    +-400."""
    s, t, y, tau = batch
    assume(case not in COUPLED or s.shape[0] >= 2)
    cfg = config(*case, standardize, tau)
    plain = np.stack([s, -s[::-1], 0.5 * s])
    for stack in [plain + 1500.0] + ([plain] if np.abs(s).max() < 400.0 else []):
        res = evaluate_loss(cfg, stack, t, y)
        assert res.loss.shape == (3,) and res.grad.shape == stack.shape
        for b, s_b in enumerate(stack):
            one = evaluate_loss(cfg, s_b, t, y)
            if one.rows is None:
                assert res.rows is None
            else:
                assert res.rows[b].tobytes() == one.rows.tobytes()
            assert abs(res.loss[b] - one.loss) <= STACK_ULPS * np.spacing(abs(one.loss))
            ulp = np.spacing(abs(one.grad).max())
            assert (abs(res.grad[b] - one.grad) <= STACK_ULPS * ulp).all()
        if cfg.needs_teacher:  # the stack shares the teacher's targets, built once
            targets = teacher_targets(cfg, t, y)
            same_bits(evaluate_loss(cfg, stack, None, y, targets=targets), res)

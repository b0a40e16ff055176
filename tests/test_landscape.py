"""Loss-surface slice tests: geometry contracts, convexity, determinism."""

import dataclasses

import numpy as np
import pytest

from pldlab.landscape import (
    SLICE_CSV_HEADER,
    SliceSpec,
    _draw_directions,
    line_convexity_probe,
    make_slice,
    point_loss,
    slice_to_csv,
    temperature_sweep,
)
from pldlab.losses import ce_loss, dist_loss, kd_loss, pld_loss
from pldlab.numerics import make_rng

FAST = SliceSpec(n_classes=20, resolution=7, temperatures=(1.0,), loss_kinds=("pld",), seed=2)


class TestDirections:
    def test_orthonormality_and_unit_anchor(self):
        grid = make_slice(FAST)
        assert abs(np.linalg.norm(grid.anchor) - 1.0) < 1e-12
        assert abs(grid.d1 @ grid.d2) < 1e-10
        assert abs(grid.d1 @ grid.d1 - 1.0) < 1e-10
        assert abs(grid.d2 @ grid.d2 - 1.0) < 1e-10

    def test_grid_coordinates_symmetric_and_contain_origin(self):
        grid = make_slice(FAST)
        np.testing.assert_allclose(grid.alphas, -grid.alphas[::-1], atol=0)
        assert grid.alphas[len(grid.alphas) // 2] == 0.0

    def test_label_is_teacher_argmax(self):
        grid = make_slice(FAST)
        assert grid.label == int(np.argmax(grid.anchor))


class TestMakeSlice:
    def test_kd_loss_zero_at_origin(self):
        spec = SliceSpec(
            n_classes=15, resolution=5, temperatures=(2.0, 0.5), loss_kinds=("kd",), seed=4
        )
        grid = make_slice(spec)
        mid = spec.resolution // 2
        for key, vals in grid.values.items():
            assert abs(vals[mid, mid]) < 1e-12

    def test_all_values_finite(self):
        spec = SliceSpec(
            n_classes=10,
            resolution=5,
            temperatures=(2.0, 1.0, 0.5, 0.1),
            loss_kinds=("pld", "kd", "dist", "ce"),
            seed=5,
        )
        grid = make_slice(spec)
        assert len(grid.values) == 16
        for vals in grid.values.values():
            assert np.isfinite(vals).all()

    def test_span_near_the_float64_limit_stays_finite(self):
        """At span 8.9e307, tau 0.1 sends kd's tempered student log-probabilities
        beyond the float64 range on the far grid points; every value is still finite."""
        grid = make_slice(SliceSpec(span=8.9e307))
        assert all(np.isfinite(vals).all() for vals in grid.values.values())

    def test_pld_origin_below_corners(self):
        spec = SliceSpec(
            n_classes=100, resolution=9, temperatures=(2.0, 1.0), loss_kinds=("pld",), seed=0
        )
        grid = make_slice(spec)
        mid = spec.resolution // 2
        for vals in grid.values.values():
            origin = vals[mid, mid]
            for corner in (vals[0, 0], vals[0, -1], vals[-1, 0], vals[-1, -1]):
                assert origin <= corner

    def test_pld_grid_translation_invariant(self):
        grid = make_slice(FAST)
        t, d1, d2 = grid.anchor, grid.d1, grid.d2
        rng = np.random.default_rng(0)
        for _ in range(10):
            a, b = rng.uniform(-5, 5, size=2)
            s = t + a * d1 + b * d2
            v0 = point_loss("pld", s, t, grid.label, 1.0)
            v1 = point_loss("pld", s + 7.5, t, grid.label, 1.0)
            assert abs(v0 - v1) < 1e-8

    def test_deterministic(self):
        g1 = make_slice(FAST)
        g2 = make_slice(FAST)
        for key in g1.values:
            np.testing.assert_array_equal(g1.values[key], g2.values[key])

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SliceSpec(resolution=2)
        with pytest.raises(ValueError):
            SliceSpec(n_classes=1)
        with pytest.raises(ValueError):
            SliceSpec(temperatures=(0.0,))
        with pytest.raises(ValueError):
            SliceSpec(loss_kinds=("pld", "mystery"))
        with pytest.raises(ValueError):
            dataclasses.replace(SliceSpec(), resolution=2)
        with pytest.raises(ValueError):
            SliceSpec(temperatures=(float("nan"),))
        with pytest.raises(ValueError):
            SliceSpec(temperatures=(1.0, 1))
        with pytest.raises(ValueError):
            SliceSpec(loss_kinds=("pld", "pld"))
        with pytest.raises(ValueError):
            SliceSpec(seed=-1)
        with pytest.raises(ValueError):
            SliceSpec(seed=2**64)
        with pytest.raises(ValueError):
            dataclasses.replace(SliceSpec(), seed=-1)


def one_point_loss(kind, s, t, y, temperature):
    """Reference: the slice loss of a single point, as a one-row kernel call."""
    s2, t2, labels = s[None, :], t[None, :], [y]
    if kind == "pld":
        return pld_loss(s2, t2, labels, tau_T=temperature).loss
    if kind == "kd":
        return kd_loss(s2, t2, labels, alpha=0.0, tau=temperature).loss
    if kind == "dist":
        return dist_loss(s2, t2, labels, alpha=0.0, beta=1.0, gamma=0.0, tau=temperature).loss
    return ce_loss(s2, labels).loss


ALL_KINDS = SliceSpec(
    n_classes=12, resolution=5, temperatures=(2.0, 0.1), loss_kinds=("pld", "kd", "dist", "ce"),
    seed=11,
)


class TestBatchedEvaluation:
    def test_grid_equals_point_by_point_loop(self):
        grid = make_slice(ALL_KINDS)
        t, d1, d2, y = grid.anchor, grid.d1, grid.d2, grid.label
        for (kind, temp), vals in grid.values.items():
            for i, a in enumerate(grid.alphas):
                for j, b in enumerate(grid.betas):
                    ref = one_point_loss(kind, t + a * d1 + b * d2, t, y, temp)
                    assert vals[i, j].tobytes() == np.float64(ref).tobytes()

    @pytest.mark.parametrize("kind", ALL_KINDS.loss_kinds)
    @pytest.mark.parametrize("tolerance", [1e-9, -0.05])  # -0.05 makes every kind violate
    def test_probe_equals_point_by_point_loop(self, kind, tolerance):
        rng = make_rng(ALL_KINDS.seed)
        t, d1, d2 = _draw_directions(rng, ALL_KINDS.n_classes)
        y = int(np.argmax(t))
        half = ALL_KINDS.span

        def at(ab):
            return one_point_loss(kind, t + ab[0] * d1 + ab[1] * d2, t, y, 0.5)

        expected = 0
        for _ in range(40):
            p = rng.uniform(-half, half, size=2)
            q = rng.uniform(-half, half, size=2)
            lam = rng.uniform(0.0, 1.0)
            mid = at(lam * p + (1.0 - lam) * q)
            if mid > lam * at(p) + (1.0 - lam) * at(q) + tolerance:
                expected += 1
        got = line_convexity_probe(kind, ALL_KINDS, trials=40, temperature=0.5, tolerance=tolerance)
        assert got == expected

    def test_unsupported_kind_refused(self):
        t = np.array([1.0, 0.0])
        with pytest.raises(ValueError, match="unsupported slice loss kind 'ls'"):
            point_loss("ls", t, t, 0, 1.0)


class TestTemperatureSweep:
    def test_four_grids_share_directions(self):
        spec = SliceSpec(
            n_classes=30,
            resolution=5,
            temperatures=(2.0, 1.0, 0.5, 0.1),
            loss_kinds=("pld",),
            seed=6,
        )
        grids = temperature_sweep(spec)
        assert len(grids) == 4
        for g in grids[1:]:
            np.testing.assert_array_equal(g.anchor, grids[0].anchor)
            np.testing.assert_array_equal(g.d1, grids[0].d1)
            np.testing.assert_array_equal(g.d2, grids[0].d2)

    def test_each_grid_has_one_temperature(self):
        grids = temperature_sweep(FAST)
        assert [sorted(g.values)[0][1] for g in grids] == [1.0]


class TestConvexityProbe:
    def test_pld_zero_violations(self):
        spec = SliceSpec(n_classes=50, resolution=5, loss_kinds=("pld",), seed=7)
        for temp in (2.0, 1.0, 0.5):
            assert line_convexity_probe("pld", spec, trials=300, temperature=temp) == 0

    def test_kd_zero_violations_observed(self):
        # recorded as an observation, not a guarantee of the surrounding theory
        spec = SliceSpec(n_classes=50, resolution=5, loss_kinds=("kd",), seed=8)
        assert line_convexity_probe("kd", spec, trials=300, temperature=1.0) == 0

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            line_convexity_probe("pld", FAST, trials=0)


class TestCsvOutput:
    def test_header_and_row_order(self):
        spec = SliceSpec(
            n_classes=6, resolution=3, temperatures=(2.0, 1.0), loss_kinds=("pld", "kd"), seed=9
        )
        text = slice_to_csv(make_slice(spec))
        lines = text.strip().split("\n")
        assert lines[0] == SLICE_CSV_HEADER
        assert len(lines) == 1 + 3 * 3 * 2 * 2
        # loss kinds come in spec order, temperatures within a kind in spec order
        kinds = [line.split(",")[2] for line in lines[1:]]
        assert kinds == ["pld"] * 18 + ["kd"] * 18
        temps = [line.split(",")[3] for line in lines[1:19]]
        assert temps == ["2.0"] * 9 + ["1.0"] * 9

    def test_csv_parses_back(self):
        text = slice_to_csv(make_slice(FAST))
        for line in text.strip().split("\n")[1:]:
            alpha, beta, kind, temp, value = line.split(",")
            float(alpha), float(beta), float(temp), float(value)
            assert kind == "pld"

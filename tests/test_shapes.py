import math

import numpy as np
import pytest

from pdethick import shapes
from pdethick.errors import InvalidShapeError


class TestShapeValidation:
    def test_ordering_required(self):
        with pytest.raises(InvalidShapeError):
            shapes.interval_whole(1.0, 0.0)

    def test_degenerate_width_rejected(self):
        with pytest.raises(InvalidShapeError):
            shapes.interval_whole(1.0, 1.0 + 1e-16)

    def test_interval_general_ordering(self):
        with pytest.raises(InvalidShapeError):
            shapes.interval_general(0.0, 1.0, 0.5, 2.0)
        with pytest.raises(InvalidShapeError):
            shapes.interval_general(0.0, 1.0, -1.0, 0.9)

    def test_annulus_needs_positive_inner_radius(self):
        with pytest.raises(InvalidShapeError):
            shapes.annulus_whole(0.0, 1.0)
        with pytest.raises(InvalidShapeError):
            shapes.annulus_general(1.0, 2.0, 1.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_numbers_rejected(self, bad):
        # written so that NaN, which fails every comparison, cannot slip through
        for make in (
            lambda: shapes.interval_whole(bad, 1.0),
            lambda: shapes.interval_whole(0.0, bad),
            lambda: shapes.interval_general(0.0, 1.0, -1.0, abs(bad)),
            lambda: shapes.interval_general(0.0, 1.0, -abs(bad), 2.0),
            lambda: shapes.annulus_general(1.0, 2.0, abs(bad)),
            lambda: shapes.band_whole(0.0, 1.0, abs(bad)),
            lambda: shapes.band_general(0.0, 1.0, -abs(bad), 2.0, 1.0),
            lambda: shapes.PeriodicBoundary(period=1.0, mean=2.0, cosine_coeffs=(bad,)),
        ):
            with pytest.raises(InvalidShapeError):
                make()

    def test_band_needs_period(self):
        with pytest.raises(InvalidShapeError):
            shapes.ShapeSpec(shapes.Family.BAND_WHOLE, 0.0, 1.0)

    @pytest.mark.parametrize("family", list(shapes.Family))
    def test_each_required_field_is_checked(self, family):
        values = {"b_l": 0.0, "b_r": 3.0, "L": 1.0}
        needed = {name: values[name] for name in shapes.FIELDS[family]}
        shapes.ShapeSpec(family, 1.0, 2.0, **needed)
        for name in needed:
            with pytest.raises(InvalidShapeError, match=f"{family.value} needs .*{name}"):
                shapes.ShapeSpec(family, 1.0, 2.0, **{**needed, name: None})

    @pytest.mark.parametrize("family", list(shapes.Family))
    def test_each_stray_field_is_refused(self, family):
        # a stray field would be honoured downstream: oracle_grid widens its grid to a stray b_l
        values = {"b_l": 0.0, "b_r": 3.0, "L": 1.0}
        needed = {name: values[name] for name in shapes.FIELDS[family]}
        for name in values.keys() - needed.keys():
            with pytest.raises(InvalidShapeError, match=f"{family.value} takes no {name}"):
                shapes.ShapeSpec(family, 1.0, 2.0, **needed, **{name: values[name]})

    def test_band_general_boundary_clearance(self):
        with pytest.raises(InvalidShapeError):
            # wavy floor reaches up to f_l
            shapes.band_general(
                0.0,
                1.0,
                shapes.PeriodicBoundary(period=1.0, mean=-0.05, cosine_coeffs=(0.1,)),
                1.5,
                L=1.0,
            )

    def test_thickness_and_margin(self):
        s = shapes.interval_general(0.0, 1.0, -0.25, 1.5)
        assert s.thickness == 1.0
        assert s.margin == 0.25
        assert math.isinf(shapes.interval_whole(0.0, 1.0).margin)
        assert shapes.annulus_general(1.0, 2.0, 2.5).margin == 0.5


class TestPeriodicBoundary:
    def test_constant(self):
        b = shapes.PeriodicBoundary.constant(-0.5, 2.0)
        assert b.is_constant
        assert b.extremes() == (-0.5, -0.5)
        assert np.allclose(b(np.linspace(0, 2, 7)), -0.5)

    def test_single_harmonic(self):
        b = shapes.PeriodicBoundary(period=1.0, mean=1.5, cosine_coeffs=(0.1,))
        xs = np.linspace(0.0, 1.0, 5, endpoint=False)
        assert np.allclose(b(xs), 1.5 + 0.1 * np.cos(2 * np.pi * xs))
        lo, hi = b.extremes()
        assert lo == pytest.approx(1.4)
        assert hi == pytest.approx(1.6)

    def test_periodicity(self):
        b = shapes.PeriodicBoundary(
            period=2.0, mean=0.0, cosine_coeffs=(0.3, 0.1), sine_coeffs=(0.2,)
        )
        xs = np.linspace(0.0, 2.0, 17)
        assert np.allclose(b(xs), b(xs + 2.0), atol=1e-12)

    def test_band_general_margin_uses_extremes(self):
        band = shapes.band_general(
            0.0,
            1.0,
            shapes.PeriodicBoundary.constant(-0.5, 1.0),
            shapes.PeriodicBoundary(period=1.0, mean=1.5, cosine_coeffs=(0.1,)),
            L=1.0,
        )
        assert band.margin == pytest.approx(0.4)

    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_harmonic_between_samples_rejected(self, side):
        # sin(2 pi 4096 x) vanishes at all 8192 sample points, yet reaches 0.5
        hidden = (0.0,) * 4095 + (0.5,)
        if side == "lower":
            b_l, b_r = shapes.PeriodicBoundary(period=1.0, mean=0.0, sine_coeffs=hidden), 2.0
        else:
            b_l, b_r = -1.0, shapes.PeriodicBoundary(period=1.0, mean=1.25, sine_coeffs=hidden)
        sampled = (b_l if side == "lower" else b_r).extremes()
        assert max(abs(v - (0.0 if side == "lower" else 1.25)) for v in sampled) < 1e-9
        with pytest.raises(InvalidShapeError):
            shapes.band_general(0.25, 1.0, b_l, b_r, L=1.0)

    def test_sampling_gap_bounds_true_extremes(self, monkeypatch):
        # few samples, so the gap is wide enough to matter
        monkeypatch.setattr(shapes, "EXTREME_SAMPLES", 64)
        rng = np.random.default_rng(3)
        for _ in range(5):
            b = shapes.PeriodicBoundary(
                period=2.0,
                mean=0.0,
                cosine_coeffs=tuple(rng.standard_normal(40) / np.arange(1, 41)),
                sine_coeffs=tuple(rng.standard_normal(30)),
            )
            lo, hi = b.extremes()
            gap = b.sampling_gap()
            dense = b(np.linspace(0.0, 2.0, 1 << 16, endpoint=False))
            assert lo - gap <= dense.min() and dense.max() <= hi + gap
        assert shapes.PeriodicBoundary.constant(0.3).sampling_gap() == 0.0

    def test_zero_coefficients_skipped_byte_identically(self):
        cos, sin = (0.0, 0.1, 0.0, -0.2), (0.0, 0.0, 0.3)
        b = shapes.PeriodicBoundary(period=2.0, mean=0.25, cosine_coeffs=cos, sine_coeffs=sin)
        xs = np.linspace(-1.0, 3.0, 257)
        w = 2.0 * math.pi / 2.0
        full = np.full_like(xs, 0.25)
        for k, c in enumerate(cos, start=1):
            full = full + c * np.cos(k * w * xs)
        for k, s in enumerate(sin, start=1):
            full = full + s * np.sin(k * w * xs)
        assert b(xs).tobytes() == full.tobytes()

    def test_band_general_pipeline_samples_each_series_once(self, monkeypatch):
        """Shape, solve grid, classification and margin: 6 extremes() calls, one sampling each."""
        from pdethick import geometry, solver

        calls = []
        evaluate = shapes.PeriodicBoundary.__call__
        monkeypatch.setattr(
            shapes.PeriodicBoundary,
            "__call__",
            lambda self, x: calls.append((id(self), np.size(x))) or evaluate(self, x),
        )
        b_l = shapes.PeriodicBoundary(period=1.0, mean=-0.5, sine_coeffs=(0.0,) * 511 + (0.05,))
        b_r = shapes.PeriodicBoundary(period=1.0, mean=1.5, cosine_coeffs=(0.1,))
        shape = shapes.band_general(0.0, 1.0, b_l, b_r, L=1.0)
        grid = solver.problem_grid(shape, 0.04, 0.025)
        geometry.classify_cells(grid, shape)
        assert shape.margin == pytest.approx(0.4)
        for b in (b_l, b_r):
            assert calls.count((id(b), 8192)) == 1


class TestFamilyDispatch:
    @pytest.mark.parametrize(
        "family, kind",
        [
            (shapes.Family.INTERVAL_WHOLE, "interval"),
            (shapes.Family.INTERVAL_GENERAL, "interval"),
            (shapes.Family.BAND_WHOLE, "band"),
            (shapes.Family.BAND_GENERAL, "band"),
            (shapes.Family.ANNULUS_WHOLE, "annulus"),
            (shapes.Family.ANNULUS_GENERAL, "annulus"),
        ],
    )
    def test_kind(self, family, kind):
        assert family.kind == kind

    def test_interval_takes_x(self):
        shape = shapes.interval_general(0.0, 1.0, -1.0, 2.0)
        assert shape.across(0.3) == 0.3
        assert shape.across(-0.7, 9.0) == -0.7

    def test_band_takes_the_last_coordinate(self):
        shape = shapes.band_whole(0.0, 1.0, 1.0)
        assert shape.across(0.3) == 0.3
        assert shape.across(9.0, -0.7) == -0.7

    def test_annulus_takes_the_radius(self):
        shape = shapes.annulus_general(1.0, 2.0, 2.5)
        assert shape.across(3.0, -4.0) == 5.0
        # a lone coordinate is a radius, also when negative
        assert shape.across(1.5) == 1.5
        assert shape.across(-1.5) == 1.5

    def test_arrays_elementwise(self):
        x = np.array([[0.0, 3.0], [-1.0, 0.5]])
        y = np.array([[4.0, -4.0], [0.0, 0.25]])
        np.testing.assert_array_equal(shapes.interval_whole(0, 1).across(x, y), x)
        np.testing.assert_array_equal(shapes.band_whole(0, 1, 1).across(x, y), y)
        np.testing.assert_array_equal(shapes.annulus_whole(1, 2).across(x, y), np.hypot(x, y))
        np.testing.assert_array_equal(shapes.annulus_whole(1, 2).across(x), np.abs(x))

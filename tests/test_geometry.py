import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdethick import geometry, shapes
from pdethick.errors import CoverageError, GridError


class TestBuildGrid:
    def test_1d_basic(self):
        g = geometry.build_grid([(0, 1)], 8)
        assert g.h == 0.125
        assert g.node_counts() == (9,)
        assert np.allclose(g.node_coords(0), np.linspace(0, 1, 9))

    def test_2d_equal_spacing(self):
        g = geometry.build_grid([(0, 1), (-1, 2)], (8, 24))
        assert g.h == 0.125
        assert g.node_counts() == (9, 25)

    def test_anisotropic_rejected(self):
        with pytest.raises(GridError):
            geometry.build_grid([(0, 1), (0, 1)], (8, 16))

    def test_degenerate_box_rejected(self):
        with pytest.raises(GridError):
            geometry.build_grid([(1, 1)], 8)

    def test_minimum_resolution(self):
        with pytest.raises(GridError):
            geometry.build_grid([(0, 1)], 3)

    def test_periodic_node_count(self):
        g = geometry.build_grid([(0, 1), (0, 2)], (8, 16), periodic_x=True)
        assert g.node_counts() == (8, 17)


class TestClassifyCells:
    def test_1d_interval_labels(self):
        g = geometry.build_grid([(-1, 2)], 12)
        cls = geometry.classify_cells(g, shapes.interval_general(0, 1, -1, 2))
        assert np.count_nonzero(cls.shape_mask) == 4
        centers = g.cell_centers(0)
        expected = (centers > 0) & (centers < 1)
        assert np.array_equal(cls.shape_mask, expected)

    def test_annulus_cell_count(self):
        g = geometry.build_grid([(-3, 3), (-3, 3)], 60)
        cls = geometry.classify_cells(g, shapes.annulus_whole(1, 2))
        # brute-force recount, independently of the vectorized path
        count = 0
        for cy in g.cell_centers(1):
            for cx in g.cell_centers(0):
                if 1 < math.hypot(cx, cy) < 2:
                    count += 1
        assert np.count_nonzero(cls.shape_mask) == count
        assert abs(count - math.pi * 3 / g.h**2) <= 40

    def test_band_general_uses_boundary_functions(self):
        band = shapes.band_general(
            0.0,
            1.0,
            shapes.PeriodicBoundary.constant(-0.5, 1.0),
            shapes.PeriodicBoundary(period=1.0, mean=1.5, cosine_coeffs=(0.1,)),
            L=1.0,
        )
        g = geometry.StructuredGrid(
            dim=2, origin=(0.0, -0.75), h=1.0 / 16, cells=(16, 40), periodic_x=True
        )
        cls = geometry.classify_cells(g, band)
        outside = cls.labels == geometry.CellLabel.OUTSIDE
        assert outside.any()
        # outside cells sit only below b_l or above b_r
        cx = g.cell_centers(0)
        cy = g.cell_centers(1)
        for j, i in np.argwhere(outside):
            y = cy[j]
            assert y < band.b_l(cx[i]) or y > band.b_r(cx[i])

    def test_coverage_error(self):
        g = geometry.build_grid([(0, 1)], 8)
        with pytest.raises(CoverageError):
            geometry.classify_cells(g, shapes.interval_whole(0.5, 1.5))
        g2 = geometry.build_grid([(-2, 2), (-2, 2)], 16)
        with pytest.raises(CoverageError):
            geometry.classify_cells(g2, shapes.annulus_whole(1, 2))

    @pytest.mark.parametrize(
        "shape, box, cells",
        [
            # a 1D shape past either grid end, or touching it
            (shapes.interval_whole(0.5, 1.5), [(0, 1)], 8),
            (shapes.interval_whole(-0.5, 0.5), [(0, 1)], 8),
            (shapes.interval_general(0.0, 1.0, -1.0, 2.0), [(0, 2)], 8),
            # a band grid that does not cover (f_l, f_r) in y
            (shapes.band_whole(0.0, 1.0, 1.0), [(0, 1), (-0.5, 1.0)], (4, 6)),
            (shapes.band_whole(-0.5, 0.5, 1.0), [(0, 1), (-0.5, 1.0)], (4, 6)),
            # an annulus box short on one x edge only, or on one y edge only
            (shapes.annulus_whole(1.0, 2.0), [(-2.0, 3.0), (-3.0, 3.0)], (20, 24)),
            (shapes.annulus_whole(1.0, 2.0), [(-3.0, 2.0), (-3.0, 3.0)], (20, 24)),
            (shapes.annulus_whole(1.0, 2.0), [(-3.0, 3.0), (-2.0, 3.0)], (24, 20)),
            (shapes.annulus_whole(1.0, 2.0), [(-3.0, 3.0), (-3.0, 2.0)], (24, 20)),
        ],
    )
    def test_coverage_error_cases(self, shape, box, cells):
        with pytest.raises(CoverageError):
            geometry.classify_cells(geometry.build_grid(box, cells), shape)

    @pytest.mark.parametrize("f_r", [2.0, 2.5])
    def test_radial_grid_must_end_past_outer_radius(self, f_r):
        grid = geometry.StructuredGrid(dim=1, origin=(0.0,), h=0.25, cells=(8,), radial=True)
        with pytest.raises(CoverageError):
            geometry.classify_cells(grid, shapes.annulus_whole(1.0, f_r))
        cls = geometry.classify_cells(grid, shapes.annulus_whole(1.0, 1.75))
        assert np.count_nonzero(cls.shape_mask) == 3

    def test_covering_grids_pass(self):
        box = geometry.build_grid([(-3.0, 3.0), (-3.0, 3.0)], 24)
        cls = geometry.classify_cells(box, shapes.annulus_whole(1.0, 2.0))
        assert np.count_nonzero(cls.shape_mask) > 0
        band = geometry.build_grid([(0, 1), (-0.5, 1.0)], (4, 6))
        cls = geometry.classify_cells(band, shapes.band_whole(0.0, 0.75, 1.0))
        assert np.count_nonzero(cls.shape_mask) == 12

    def test_area_converges_first_order(self):
        shape = shapes.annulus_whole(1, 2)
        errs = []
        for n in (60, 120, 240):
            g = geometry.build_grid([(-3, 3), (-3, 3)], n)
            cls = geometry.classify_cells(g, shape)
            errs.append(abs(np.count_nonzero(cls.shape_mask) * g.h**2 - 3 * math.pi))
        assert errs[2] <= errs[0]
        assert errs[2] <= 3 * math.pi * (6.0 / 240) * 2  # O(h) with a lax constant


class TestSignedDistance:
    def test_trivial_points(self):
        assert geometry.signed_distance(shapes.annulus_whole(1, 2), (1.5, 0)) == 0.5
        assert geometry.signed_distance(shapes.interval_whole(0, 1), 0.25) == 0.25
        assert geometry.signed_distance(shapes.band_whole(0, 1, 1), (7.3, -0.2)) == pytest.approx(-0.2)

    @pytest.mark.parametrize(
        "shape, one, two",
        [
            (shapes.interval_general(0.0, 1.0, -1.0, 2.0), (0.25,), (0.25, 9.0)),
            (shapes.band_general(0.0, 1.0, -1.0, 2.0, L=1.0), (0.25,), (9.0, 0.25)),
            # a lone coordinate on an annulus is a radius: -1.25 is r = 1.25
            (shapes.annulus_whole(1.0, 2.0), (-1.25,), (0.75, -1.0)),
        ],
    )
    def test_one_and_two_coordinates(self, shape, one, two):
        assert geometry.signed_distance(shape, one) == 0.25
        assert geometry.signed_distance(shape, one[0]) == 0.25
        assert geometry.signed_distance(shape, two) == 0.25

    def test_negative_outside(self):
        assert geometry.signed_distance(shapes.interval_whole(0, 1), (1.5, 0.0)) == -0.5
        assert geometry.signed_distance(shapes.band_whole(0, 1, 1), (0.0, -0.5)) == -0.5
        assert geometry.signed_distance(shapes.annulus_whole(1, 2), (0.0, 0.0)) == -1.0
        assert geometry.signed_distance(shapes.annulus_whole(1, 2), -2.5) == -0.5

    def test_zero_on_boundary(self):
        ann = shapes.annulus_whole(1, 2)
        for theta in np.linspace(0, 2 * math.pi, 17):
            for r in (1.0, 2.0):
                p = (r * math.cos(theta), r * math.sin(theta))
                assert abs(geometry.signed_distance(ann, p)) <= 1e-12
        band = shapes.band_whole(0.25, 1.5, 1.0)
        for x in np.linspace(-5, 5, 7):
            assert abs(geometry.signed_distance(band, (x, 0.25))) <= 1e-12
            assert abs(geometry.signed_distance(band, (x, 1.5))) <= 1e-12

    @given(r=st.floats(0.0, 4.0), theta=st.floats(0.0, 2 * math.pi))
    @settings(max_examples=100, deadline=None)
    def test_annulus_formula_property(self, r, theta):
        ann = shapes.annulus_whole(1, 2)
        p = (r * math.cos(theta), r * math.sin(theta))
        assert geometry.signed_distance(ann, p) == pytest.approx(min(r - 1, 2 - r), abs=1e-12)


class TestThicknessOracle:
    def test_interval(self):
        g = geometry.build_grid([(-1, 2)], 300)
        f = geometry.geometric_thickness_oracle(g, shapes.interval_whole(0, 1))
        assert f.max_abs_deviation(1.0) <= 2 * g.h

    def test_flat_band(self):
        g = geometry.build_grid([(0, 1), (-1, 3)], (20, 80), periodic_x=True)
        f = geometry.geometric_thickness_oracle(g, shapes.band_whole(0, 2, 1))
        assert f.max_abs_deviation(2.0) <= 2 * g.h

    def test_annulus(self):
        g = geometry.build_grid([(-3, 3), (-3, 3)], 300)
        f = geometry.geometric_thickness_oracle(g, shapes.annulus_whole(1, 2))
        assert f.max_abs_deviation(1.0) <= 2 * g.h

    def test_refinement_does_not_worsen(self):
        shape = shapes.annulus_whole(1, 2)
        devs = []
        for n in (75, 150):
            g = geometry.build_grid([(-3, 3), (-3, 3)], n)
            f = geometry.geometric_thickness_oracle(g, shape)
            devs.append(f.max_abs_deviation(1.0))
        assert devs[1] <= devs[0] + 1e-12

    def test_values_only_on_shape_cells(self):
        g = geometry.build_grid([(-1, 2)], 60)
        f = geometry.geometric_thickness_oracle(g, shapes.interval_whole(0, 1))
        assert np.all(np.isnan(f.values[~f.mask]))
        assert np.all(f.values[f.mask] > 0)

    def test_size_cap(self):
        g = geometry.StructuredGrid(dim=2, origin=(-3.0, -3.0), h=6.0 / 1100, cells=(1100, 1100))
        with pytest.raises(GridError):
            geometry.geometric_thickness_oracle(g, shapes.annulus_whole(1, 2))


class TestThicknessCsv:
    def test_roundtrip(self, tmp_path, read_csv):
        g = geometry.build_grid([(-1, 2)], 60)
        f = geometry.geometric_thickness_oracle(g, shapes.interval_whole(0, 1))
        path = tmp_path / "thick.csv"
        geometry.write_thickness_csv(f, str(path))
        cols = read_csv(path)
        assert list(cols) == ["x", "thickness"]
        assert len(cols["x"]) == f.mask.sum()
        back = np.array(cols["thickness"])
        assert np.allclose(back, f.values[f.mask], rtol=0, atol=0)

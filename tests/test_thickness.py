import math

import numpy as np
import pytest

from pdethick import analytic, geometry, harness, shapes, solver, thickness
from pdethick.errors import DomainError, EmptyShapeError


def _field_1d(values, origin=0.0, h=0.1, radial=False):
    grid = geometry.StructuredGrid(
        dim=1, origin=(origin,), h=h, cells=(len(values) - 1,), radial=radial
    )
    return solver.DiscreteField(grid=grid, components=(np.asarray(values, float),))


class TestDivergence:
    def test_linear_1d(self):
        grid = geometry.StructuredGrid(dim=1, origin=(0.0,), h=0.1, cells=(10,))
        f = solver.DiscreteField(grid=grid, components=(3.0 * grid.node_coords(0),))
        assert np.allclose(thickness.divergence(f), 3.0, rtol=0, atol=1e-14)

    def test_radial_half_r(self):
        grid = geometry.StructuredGrid(dim=1, origin=(0.1,), h=0.1, cells=(10,), radial=True)
        f = solver.DiscreteField(grid=grid, components=(0.5 * grid.node_coords(0),))
        assert np.allclose(thickness.divergence(f), 1.0, rtol=0, atol=1e-14)

    def test_2d_identity_field(self):
        grid = geometry.StructuredGrid(dim=2, origin=(0.0, 0.0), h=0.25, cells=(4, 4))
        xs = grid.node_coords(0)
        ys = grid.node_coords(1)
        sx = np.tile(xs / 2, (5, 1))
        sy = np.tile((ys / 2)[:, None], (1, 5))
        f = solver.DiscreteField(grid=grid, components=(sx, sy))
        assert np.allclose(thickness.divergence(f), 1.0, rtol=0, atol=1e-14)

    def test_radial_profile_gives_exact_constant(self):
        # p* r/2 + E/r sampled on nodes yields p = p* exactly at midpoints
        sol = analytic.annulus_whole(1.0, 2.0, 0.04)
        grid = geometry.StructuredGrid(dim=1, origin=(1.0,), h=1.0 / 64, cells=(64,), radial=True)
        r = grid.node_coords(0)
        c = sol.coefficients
        S = c["mid_linear"] * r + c["mid_reciprocal"] / r
        f = solver.DiscreteField(grid=grid, components=(S,))
        p = thickness.divergence(f)
        assert np.max(np.abs(p - sol.p_star)) <= 1e-12 * sol.p_star


class TestEastColumn:
    """The wrapped east column gives the bytes of the old per-grid formulas."""

    @staticmethod
    def _random_field(periodic):
        grid = geometry.StructuredGrid(
            dim=2, origin=(0.0, -1.0), h=0.125, cells=(8, 6), periodic_x=periodic
        )
        nxn, nyn = grid.node_counts()
        rng = np.random.default_rng(11)
        comps = tuple(rng.standard_normal((nyn, nxn)) for _ in range(2))
        return solver.DiscreteField(grid=grid, components=comps)

    def test_open_grid_divergence(self):
        field = self._random_field(periodic=False)
        sx, sy = field.components
        h = field.grid.h
        dsx = ((sx[:-1, 1:] + sx[1:, 1:]) - (sx[:-1, :-1] + sx[1:, :-1])) / (2 * h)
        dsy = ((sy[1:, :-1] + sy[1:, 1:]) - (sy[:-1, :-1] + sy[:-1, 1:])) / (2 * h)
        assert thickness.divergence(field).tobytes() == (dsx + dsy).tobytes()

    def test_periodic_grid_divergence(self):
        field = self._random_field(periodic=True)
        sx, sy = field.components
        h = field.grid.h
        w = np.arange(8)
        e = np.roll(w, -1)
        dsx = ((sx[:, e][:-1] + sx[:, e][1:]) - (sx[:, w][:-1] + sx[:, w][1:])) / (2 * h)
        dsy = ((sy[:, w][1:] + sy[:, e][1:]) - (sy[:, w][:-1] + sy[:, e][:-1])) / (2 * h)
        assert thickness.divergence(field).tobytes() == (dsx + dsy).tobytes()

    @pytest.mark.parametrize("periodic", [False, True])
    def test_cell_magnitude(self, periodic):
        field = self._random_field(periodic)
        east = np.roll(np.arange(8), -1) if periodic else np.arange(1, 9)
        ref = np.zeros((6, 8))
        for c in field.components:
            center = 0.25 * (c[:-1, :8] + c[1:, :8] + c[:-1, east] + c[1:, east])
            ref += center * center
        assert harness._cell_magnitude_sq(field).tobytes() == ref.tobytes()


def _line_grid(h):
    """The line [-1, 2] at spacing h, around the unit interval (0, 1)."""
    return geometry.StructuredGrid(dim=1, origin=(-1.0,), h=h, cells=(round(3.0 / h),))


class TestInverseThickness:
    def test_definition(self):
        shape = shapes.interval_whole(0.0, 1.0)
        grid = _line_grid(1.0 / 8)
        cls = geometry.classify_cells(grid, shape)
        a = 0.04
        div = np.full(grid.cells[0], 7.142857142857143)
        inv = thickness.inverse_thickness(div, a, cls)
        vals = inv.shape_values()
        assert np.allclose(vals, 0.7142857142857143, rtol=1e-15)
        assert np.isnan(inv.values[~inv.mask]).all()

    def test_zero_divergence_is_kept_as_zero(self):
        shape = shapes.interval_whole(0.0, 1.0)
        grid = _line_grid(1.0 / 8)
        cls = geometry.classify_cells(grid, shape)
        inv = thickness.inverse_thickness(np.zeros(grid.cells[0]), 0.04, cls)
        assert np.all(inv.shape_values() == 0.0)

    @pytest.mark.parametrize("a", [math.nan, math.inf, 0.0])
    def test_rejects_non_finite_or_nonpositive_a(self, a):
        # NaN and inf a would give an all-NaN or all-inf field
        shape = shapes.interval_whole(0.0, 1.0)
        grid = _line_grid(1.0 / 8)
        cls = geometry.classify_cells(grid, shape)
        with pytest.raises(DomainError):
            thickness.inverse_thickness(np.full(grid.cells[0], 2.0), a, cls)

    def test_analytic_solutions_give_constant_inverse(self):
        # closed-form profiles sampled on grids: cellwise inverse thickness
        # is constant across the shape to machine precision
        a = 0.01
        cases = []
        ishape = shapes.interval_whole(0.0, 1.0)
        igrid = solver.problem_grid(ishape, a, 1.0 / 128)
        isol = analytic.interval_whole(0.0, 1.0, a)
        nodes = igrid.node_coords(0)
        s = np.array([analytic.eval_solution(isol, float(x)) for x in nodes])
        cases.append((igrid, ishape, s, isol))
        gshape = shapes.interval_general(0.0, 1.0, -1.0, 2.0)
        ggrid = solver.problem_grid(gshape, a, 1.0 / 128)
        gsol = analytic.interval_general(0.0, 1.0, -1.0, 2.0, a)
        nodes = ggrid.node_coords(0)
        s = np.array([analytic.eval_solution(gsol, float(x)) for x in nodes])
        cases.append((ggrid, gshape, s, gsol))
        for grid, shape, nodal, sol in cases:
            cls = geometry.classify_cells(grid, shape)
            f = solver.DiscreteField(grid=grid, components=(nodal,))
            inv = thickness.inverse_thickness(thickness.divergence(f), a, cls)
            vals = inv.shape_values()
            ref = 1.0 / sol.thickness_pde
            assert np.max(np.abs(vals - ref)) <= 1e-12 * ref


class TestErrorNorms:
    def test_zero_for_exact_reference(self):
        shape = shapes.interval_whole(0.0, 1.0)
        grid = _line_grid(1.0 / 16)
        cls = geometry.classify_cells(grid, shape)
        inv = thickness.inverse_thickness(np.full(grid.cells[0], 2.0), 0.04, cls)
        norms = thickness.error_norms(inv, inv.shape_values().copy())
        assert norms.l2_on_omega == 0.0
        assert norms.linf_on_omega == 0.0

    def test_constant_offset(self):
        shape = shapes.interval_whole(0.0, 1.0)
        grid = _line_grid(1.0 / 64)
        cls = geometry.classify_cells(grid, shape)
        inv = thickness.inverse_thickness(np.full(grid.cells[0], 2.0), 0.04, cls)
        c = 0.3
        norms = thickness.error_norms(inv, inv.shape_values() - c)
        area = np.count_nonzero(cls.shape_mask) * grid.h
        assert norms.l2_on_omega == pytest.approx(c * math.sqrt(area), rel=1e-12)
        assert norms.linf_on_omega == pytest.approx(c, rel=1e-12)

    def test_interval_value_example(self):
        # analytic inverse thickness vs 1/T_bar at a = 0.01: |1/1.2 - 1| = 1/6
        a = 0.01
        shape = shapes.interval_whole(0.0, 1.0)
        grid = solver.problem_grid(shape, a, 1.0 / 512)
        cls = geometry.classify_cells(grid, shape)
        sol = analytic.interval_whole(0.0, 1.0, a)
        div = np.full(grid.cells[0], sol.p_star)
        inv = thickness.inverse_thickness(div, a, cls)
        norms = thickness.error_norms(inv, 1.0)
        assert norms.l2_on_omega == pytest.approx(1.0 / 6.0, rel=1e-9)

    def test_triangle_inequality(self):
        a = 0.04
        band = harness.canonical_wavy_band()
        res_grid = solver.problem_grid(band, a, math.sqrt(a) / 8)
        system = solver.assemble(res_grid, band, a)
        field = solver.solve_spd(system)
        inv = thickness.inverse_thickness(
            thickness.divergence(field), a, system.classification
        )
        whole = analytic.band_whole(band.f_l, band.f_r, a, band.L)
        d_total = thickness.error_norms(inv, 1.0 / band.thickness).l2_on_omega
        d_whole = thickness.error_norms(inv, 1.0 / whole.thickness_pde).l2_on_omega
        d_between = abs(1.0 / whole.thickness_pde - 1.0 / band.thickness) * math.sqrt(
            np.count_nonzero(system.classification.shape_mask) * res_grid.h**2
        )
        assert d_total <= d_whole + d_between + 1e-12

    def test_empty_shape_rejected(self):
        shape = shapes.interval_whole(0.0, 1.0)
        grid = _line_grid(1.0 / 16)
        cls = geometry.classify_cells(grid, shape)
        inv = thickness.inverse_thickness(np.full(grid.cells[0], 2.0), 0.04, cls)
        empty = thickness.InverseThicknessField(
            grid=grid, values=inv.values, mask=np.zeros_like(inv.mask), a=0.04
        )
        with pytest.raises(EmptyShapeError):
            thickness.error_norms(empty, 1.0)


class TestCsv:
    def test_roundtrip_with_thickness_column(self, tmp_path, read_csv):
        a = 0.04
        shape = shapes.interval_whole(0.0, 1.0)
        grid = _line_grid(1.0 / 32)
        cls = geometry.classify_cells(grid, shape)
        sol = analytic.interval_whole(0.0, 1.0, a)
        inv = thickness.inverse_thickness(np.full(grid.cells[0], sol.p_star), a, cls)
        path = tmp_path / "inv.csv"
        thickness.write_inverse_thickness_csv(inv, str(path), shape.thickness)
        cols = read_csv(path)
        assert list(cols) == ["x", "inv_thickness", "thickness"]
        assert np.allclose(cols["inv_thickness"], 1.0 / sol.thickness_pde, rtol=1e-14)
        assert np.allclose(cols["thickness"], sol.thickness_pde, rtol=1e-12)

    def test_singular_cells_marked_nan(self, tmp_path, read_csv):
        shape = shapes.interval_whole(0.0, 1.0)
        grid = _line_grid(1.0 / 32)
        cls = geometry.classify_cells(grid, shape)
        inv = thickness.inverse_thickness(np.zeros(grid.cells[0]), 0.04, cls)
        path = tmp_path / "sing.csv"
        thickness.write_inverse_thickness_csv(inv, str(path), shape.thickness)
        cols = read_csv(path)
        assert all(math.isnan(v) for v in cols["thickness"])
        assert all(v == 0.0 for v in cols["inv_thickness"])

"""Byte identity of the CSV and triplet writers against per-row f-string loops.

The reference formatters below write one f-string per line, the way the
writers did before they were vectorized.  The round-trip tests elsewhere
compare parsed floats, so only these catch a change in formatting.
"""

import io
import math

import numpy as np
import pytest

from pdethick import geometry, shapes, solver, thickness

# -- reference formatters ------------------------------------------------------


def ref_field_csv(field):
    grid = field.grid
    out = io.StringIO()
    if grid.dim == 1:
        out.write("x,s_x\n")
        x = grid.node_coords(0)
        s = field.components[0]
        for i in range(len(x)):
            out.write(f"{x[i]:.17g},{s[i]:.17g}\n")
    else:
        out.write("x,y,s_x,s_y\n")
        xs = grid.node_coords(0)
        ys = grid.node_coords(1)
        sx, sy = field.components
        for j in range(len(ys)):
            for i in range(len(xs)):
                out.write(f"{xs[i]:.17g},{ys[j]:.17g},{sx[j, i]:.17g},{sy[j, i]:.17g}\n")
    return out.getvalue()


def ref_inverse_thickness_csv(field, geometric_thickness):
    grid = field.grid
    floor = thickness.DIV_FLOOR_REL * (2.0 / (math.sqrt(field.a) * geometric_thickness))
    floor_inv = 0.5 * math.sqrt(field.a) * floor

    def thickness_of(inv):
        return 1.0 / inv if abs(inv) > floor_inv else math.nan

    out = io.StringIO()
    if grid.dim == 1:
        out.write("x,inv_thickness,thickness\n")
        x = grid.cell_centers(0)
        for i in np.flatnonzero(field.mask):
            inv = field.values[i]
            out.write(f"{x[i]:.17g},{inv:.17g},{thickness_of(inv):.17g}\n")
    else:
        out.write("x,y,inv_thickness,thickness\n")
        cx = grid.cell_centers(0)
        cy = grid.cell_centers(1)
        for j, i in np.argwhere(field.mask):
            inv = field.values[j, i]
            out.write(f"{cx[i]:.17g},{cy[j]:.17g},{inv:.17g},{thickness_of(inv):.17g}\n")
    return out.getvalue()


def ref_thickness_csv(field):
    grid = field.grid
    out = io.StringIO()
    if grid.dim == 1:
        out.write("x,thickness\n")
        x = grid.cell_centers(0)
        for i in np.flatnonzero(field.mask):
            out.write(f"{x[i]:.17g},{field.values[i]:.17g}\n")
    else:
        out.write("x,y,thickness\n")
        cx = grid.cell_centers(0)
        cy = grid.cell_centers(1)
        for j, i in np.argwhere(field.mask):
            out.write(f"{cx[i]:.17g},{cy[j]:.17g},{field.values[j, i]:.17g}\n")
    return out.getvalue()


def ref_triplets(system):
    coo = system.matrix.tocoo()
    return "".join(f"{r + 1} {c + 1} {v:.17g}\n" for r, c, v in zip(coo.row, coo.col, coo.data))


# -- fixtures -------------------------------------------------------------------


@pytest.fixture(params=[7, geometry.CSV_CHUNK_LINES], ids=["chunk7", "chunk-default"])
def chunk(request, monkeypatch):
    """Run each test with chunks that split rows, and with the default size."""
    monkeypatch.setattr(geometry, "CSV_CHUNK_LINES", request.param)
    return request.param


def _wavy_band():
    return shapes.band_general(
        0.0,
        1.0,
        -0.5,
        shapes.PeriodicBoundary(period=1.0, mean=1.5, cosine_coeffs=(0.1,), sine_coeffs=(0.03,)),
        L=1.0,
    )


def _system(kind):
    if kind == "interval":
        shape = shapes.interval_general(0.0, 1.0, -1.0, 2.0)
        return solver.assemble(solver.problem_grid(shape, 0.04, 3.0 / 48), shape, 0.04)
    if kind == "radial":
        shape = shapes.annulus_whole(1.0, 2.0)
        return solver.assemble(solver.problem_grid(shape, 0.04, 1.0 / 64), shape, 0.04)
    if kind == "annulus-box":
        shape = shapes.annulus_general(1.0, 2.0, 2.5)
        return solver.assemble(solver.problem_grid(shape, 0.04, 0.1), shape, 0.04)
    shape = _wavy_band()
    return solver.assemble(solver.problem_grid(shape, 0.02, 1.0 / 16), shape, 0.02)


def _check(tmp_path, write, expected):
    """``write`` gives ``expected`` both to a path and to an open handle."""
    path = tmp_path / "out.csv"
    write(str(path))
    assert path.read_bytes() == expected.encode()
    handle = io.StringIO()
    write(handle)
    assert handle.getvalue() == expected


# -- tests ------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["interval", "radial", "annulus-box", "wavy-band"])
def test_field_csv_bytes(tmp_path, chunk, kind):
    field = solver.solve_spd(_system(kind))
    _check(tmp_path, lambda t: solver.write_field_csv(field, t), ref_field_csv(field))


def test_field_csv_bytes_special_values(tmp_path, chunk):
    """NaN, infinities, -0.0 and subnormals format as the f-string does."""
    system = _system("wavy-band")
    field = solver.solve_spd(system)
    sx, sy = (c.copy() for c in field.components)
    specials = [math.nan, -0.0, 0.0, math.inf, -math.inf, 5e-324, -1e-300, 1e300, 0.1, 1.0, -2.0]
    sx.ravel()[: len(specials)] = specials
    sy.ravel()[-len(specials):] = specials
    odd = solver.DiscreteField(grid=field.grid, components=(sx, sy))
    _check(tmp_path, lambda t: solver.write_field_csv(odd, t), ref_field_csv(odd))


def _inverse_field_1d():
    shape = shapes.interval_general(0.0, 1.0, -1.0, 2.0)
    grid = solver.problem_grid(shape, 0.04, 3.0 / 48)
    cls = geometry.classify_cells(grid, shape)
    div = np.linspace(-3.0, 3.0, grid.cells[0])
    return thickness.inverse_thickness(div, 0.04, cls), shape


def _inverse_field_2d():
    shape = shapes.annulus_general(1.0, 2.0, 2.5)
    system = _system("annulus-box")
    div = thickness.divergence(solver.solve_spd(system))
    return thickness.inverse_thickness(div, 0.04, system.classification), shape


@pytest.mark.parametrize("make", [_inverse_field_1d, _inverse_field_2d], ids=["1d", "2d"])
def test_inverse_thickness_csv_bytes(tmp_path, chunk, make):
    inv, shape = make()
    values = inv.values.copy()
    shape_cells = np.flatnonzero(inv.mask.ravel())
    # singular cells (NaN thickness): exact zeros, -0.0, and a value at the floor
    floor_inv = thickness.DIV_FLOOR_REL / shape.thickness
    for k, v in zip(shape_cells[:4], [0.0, -0.0, floor_inv, -floor_inv / 2]):
        values.ravel()[k] = v
    values.ravel()[shape_cells[4]] = math.nan
    field = thickness.InverseThicknessField(grid=inv.grid, values=values, mask=inv.mask, a=inv.a)
    if inv.grid.dim == 2:
        assert not field.mask[0].any(), "the box needs a grid row with no shape cells"
    expected = ref_inverse_thickness_csv(field, shape.thickness)
    assert ",nan\n" in expected and ",-0," in expected
    _check(
        tmp_path,
        lambda t: thickness.write_inverse_thickness_csv(field, t, shape.thickness),
        expected,
    )


@pytest.mark.parametrize("dim", [1, 2])
def test_thickness_csv_bytes(tmp_path, chunk, dim):
    if dim == 1:
        grid = geometry.build_grid([(-1, 2)], 60)
        field = geometry.geometric_thickness_oracle(grid, shapes.interval_whole(0, 1))
    else:
        grid = solver.problem_grid(shapes.annulus_general(1.0, 2.0, 2.5), 0.04, 0.1)
        field = geometry.geometric_thickness_oracle(grid, shapes.annulus_whole(1.0, 2.0))
    _check(tmp_path, lambda t: geometry.write_thickness_csv(field, t), ref_thickness_csv(field))


@pytest.mark.parametrize("kind", ["interval", "annulus-box", "wavy-band"])
def test_triplets_bytes(tmp_path, chunk, kind):
    system = _system(kind)
    _check(tmp_path, lambda t: solver.dump_triplets(system, t), ref_triplets(system))

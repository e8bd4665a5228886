"""Bit identity of the vectorized assemblers against their reference forms.

The 1D and radial reference assemblers below loop over the elements in
Python, the way ``assemble_1d`` and ``assemble_radial`` did before they were
vectorized.  They emit the same COO triplets in the same order, so the CSR
arrays that scipy sums from them must agree bit for bit, not just to a
tolerance.  The 2D reference sums one fused 4x4 element matrix per active
cell from COO triplets, the way ``assemble_2d`` did before it built the
9-point stencil directly.  The grid test pins ``solver.problem_grid`` to the
per-family grids the ``solve`` command built before it.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from pdethick import geometry, harness, shapes, solver
from pdethick.geometry import CellLabel
from pdethick.shapes import Family

# -- reference assemblers --------------------------------------------------------


def ref_assemble_1d(grid, shape, a):
    nodes = grid.node_coords(0)
    n = len(nodes)
    h = grid.h
    if shape is None:
        labels = np.full(grid.cells[0], CellLabel.VOID, dtype=np.uint8)
    else:
        labels = geometry.classify_cells(grid, shape).labels
    rows, cols, vals = [], [], []
    stiff = a / h
    for e in range(grid.cells[0]):
        i, j = e, e + 1
        rows += [i, i, j, j]
        cols += [i, j, i, j]
        vals += [stiff, -stiff, -stiff, stiff]
        if labels[e] == CellLabel.VOID:
            m = h / 6.0
            rows += [i, i, j, j]
            cols += [i, j, i, j]
            vals += [2 * m, m, m, 2 * m]
    matrix = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    rhs = np.zeros(n)
    if shape is not None:
        rhs[int(round((shape.f_r - nodes[0]) / h))] += 1.0
        rhs[int(round((shape.f_l - nodes[0]) / h))] -= 1.0
    mask = np.zeros(n, dtype=bool)
    mask[0] = mask[-1] = True
    outside = labels == CellLabel.OUTSIDE
    for i in range(1, n - 1):
        if outside[i - 1] and outside[i]:
            mask[i] = True
    return matrix, rhs, mask


def ref_assemble_radial(grid, shape, a):
    labels = geometry.classify_cells(grid, shape).labels
    nodes = grid.node_coords(0)
    n = len(nodes)
    h = grid.h
    offset = 0.5 / math.sqrt(3.0)
    rows, cols, vals = [], [], []
    for e in range(grid.cells[0]):
        r0, r1 = nodes[e], nodes[e + 1]
        mid = 0.5 * (r0 + r1)
        g = (mid - offset * h, mid + offset * h)
        w = 0.5 * h
        k_fac = a * (w * (g[0] + g[1])) / (h * h)
        local = [[k_fac, -k_fac], [-k_fac, k_fac]]
        for gp in g:
            phi = ((r1 - gp) / h, (gp - r0) / h)
            c = a * w / gp
            for li in range(2):
                for lj in range(2):
                    local[li][lj] += c * phi[li] * phi[lj]
        if labels[e] == CellLabel.VOID:
            for gp in g:
                phi = ((r1 - gp) / h, (gp - r0) / h)
                c = w * gp
                for li in range(2):
                    for lj in range(2):
                        local[li][lj] += c * phi[li] * phi[lj]
        for li, gi in ((0, e), (1, e + 1)):
            for lj, gj in ((0, e), (1, e + 1)):
                rows.append(gi)
                cols.append(gj)
                vals.append(local[li][lj])
    matrix = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    rhs = np.zeros(n)
    rhs[int(round((shape.f_r - nodes[0]) / h))] += shape.f_r
    rhs[int(round((shape.f_l - nodes[0]) / h))] -= shape.f_l
    mask = np.zeros(n, dtype=bool)
    mask[0] = mask[-1] = True
    return matrix, rhs, mask


def ref_assemble_2d(grid, shape, a):
    """The scalar 2D block from one COO triplet per cell entry, summed by tocsr."""
    return ref_block_2d(grid, geometry.classify_cells(grid, shape).labels, a)


def ref_block_2d(grid, labels, a):
    labels = labels.ravel()
    conn, n_nodes = solver._node_ids_2d(grid)
    h = grid.h
    active = labels != CellLabel.OUTSIDE
    void = labels[active] == CellLabel.VOID
    stiff = (a * solver._K2).ravel()
    vals = np.where(void[:, None], stiff + (h * h * solver._M2).ravel(), stiff).ravel()
    rows = np.repeat(conn[active], 4, axis=1).ravel()
    cols = np.tile(conn[active], (1, 4)).ravel()
    return sp.coo_matrix((vals, (rows, cols)), shape=(n_nodes, n_nodes)).tocsr()


def ref_block_1d(grid, labels, a):
    """The 1D block on arbitrary labels from COO triplets, summed by tocsr.

    Each element emits its stiffness, then its mass if it is void.
    """
    h = grid.h
    stiff, m = a / h, h / 6.0
    rows, cols, vals = [], [], []
    for e, label in enumerate(labels):
        for values, carried in (
            ([stiff, -stiff, -stiff, stiff], True),
            ([2 * m, m, m, 2 * m], label == CellLabel.VOID),
        ):
            if carried:
                rows += [e, e, e + 1, e + 1]
                cols += [e, e + 1, e, e + 1]
                vals += values
    n = len(labels) + 1
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def _assert_same_csr(got, want):
    for name in ("data", "indices", "indptr"):
        assert getattr(got, name).dtype == getattr(want, name).dtype, name
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert got.indices.dtype == np.int32


def _assert_same(system, reference):
    matrix, rhs, mask = reference
    for name in ("data", "indices", "indptr"):
        got, want = getattr(system.matrix, name), getattr(matrix, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name
    assert system.rhs.tobytes() == rhs.tobytes()
    assert np.array_equal(system.dirichlet_mask, mask)


# -- assembly --------------------------------------------------------------------


def _interval_case(kind):
    if kind == "general":
        shape = shapes.interval_general(0.0, 1.0, -1.0, 2.0)
        return solver.build_interval_grid(shape, 1.0 / 64, (-1.0, 2.0)), shape
    if kind == "general-outside":  # box not commensurate with h: Outside end cells
        shape = shapes.interval_general(0.0, 1.0, -0.95, 2.04)
        return solver.build_interval_grid(shape, 0.1, (shape.b_l, shape.b_r)), shape
    if kind == "general-padded":  # grid beyond the box: nodes between Outside cells
        shape = shapes.interval_general(0.0, 1.0, -0.95, 2.04)
        return solver.build_interval_grid(shape, 0.1, (-1.25, 2.3)), shape
    if kind == "whole":
        shape = shapes.interval_whole(-0.3, 0.9)
        return solver.build_interval_grid(shape, 0.03, solver.whole_line_box(shape, 0.01)), shape
    shape = shapes.interval_general(0.0, 1.0, -1.0, 2.0)
    return solver.build_interval_grid(shape, 1.0 / 48, (-1.0, 2.0)), None


@pytest.mark.parametrize("kind", ["general", "general-outside", "general-padded", "whole", "no-shape"])
@pytest.mark.parametrize("a", [0.04, 1e-4])
def test_assemble_1d_bits(kind, a):
    grid, shape = _interval_case(kind)
    system = solver.assemble_1d(grid, shape, a)
    outside = system.classification.outside_mask
    assert outside.any() == kind.startswith("general-")
    assert system.dirichlet_mask[1:-1].any() == (kind == "general-padded")
    _assert_same(system, ref_assemble_1d(grid, shape, a))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("a", [0.05, 0.003])
def test_assemble_1d_bits_on_random_labels(monkeypatch, seed, a):
    # Outside cells inside the grid, between Shape and Void ones, which no shape gives;
    # at these a, summing a node's stiffness before its mass moves its diagonal's last bit
    shape = shapes.interval_general(0.0, 1.0, -1.0, 2.0)
    grid = solver.build_interval_grid(shape, 1.0 / 64, (-1.0, 2.0))
    labels = np.random.default_rng(seed).integers(0, 3, size=grid.cells[0]).astype(np.uint8)
    monkeypatch.setattr(
        solver, "classify_cells", lambda g, s: geometry.CellClassification(grid=g, labels=labels)
    )
    system = solver.assemble_1d(grid, shape, a)
    _assert_same_csr(system.block, ref_block_1d(grid, labels, a))
    outside = labels == CellLabel.OUTSIDE
    flanked = [outside[i - 1] and outside[i] for i in range(1, len(labels))]
    assert system.dirichlet_mask.tolist() == [True, *flanked, True]


@pytest.mark.parametrize("h", [1.0 / 64, 1.0 / 200])
@pytest.mark.parametrize("a", [0.04, 0.0025])
def test_assemble_radial_bits(h, a):
    shape = shapes.annulus_whole(1.0, 2.0)
    grid = solver.build_radial_grid(shape, h, a=a)
    _assert_same(solver.assemble_radial(grid, shape, a), ref_assemble_radial(grid, shape, a))


def _case_2d(kind, a):
    if kind == "annulus":
        shape = shapes.annulus_general(1.0, 2.0, 2.5)
        return solver.annulus_general_grid(shape, math.sqrt(a) / 8), shape
    if kind == "wavy-band":
        shape = harness.canonical_wavy_band()
        return solver.band_general_grid(shape, math.sqrt(a) / 8), shape
    shape = shapes.band_whole(0.0, 1.0, 0.25 if kind == "narrow-band" else 1.0)
    return solver.band_whole_grid(shape, 1.0 / 16, a), shape


@pytest.mark.parametrize(
    "kind, a",
    [
        ("annulus", 0.04),
        ("annulus", 0.005),
        ("wavy-band", 0.02),
        ("wavy-band", 0.001),
        ("flat-band", 0.04),
        ("narrow-band", 0.04),
    ],
)
def test_assemble_2d_bits(kind, a):
    grid, shape = _case_2d(kind, a)
    system = solver.assemble_2d(grid, shape, a)
    assert grid.periodic_x == (kind != "annulus")
    assert system.classification.outside_mask.any() == (kind == "wavy-band")
    if kind == "narrow-band":
        assert grid.cells[0] == 4
    _assert_same_csr(system.block, ref_assemble_2d(grid, shape, a))


@pytest.mark.parametrize("periodic", [True, False])
@pytest.mark.parametrize("nx", [4, 23])
def test_stencil_block_bits_on_random_labels(periodic, nx):
    # arbitrary labels put unequal cells on both sides of the periodic seam, where
    # the order of the sum over the four cells around a node shows in the last bit
    ny = 31
    grid = geometry.StructuredGrid(dim=2, origin=(0.0, 0.0), h=0.05, cells=(nx, ny), periodic_x=periodic)
    labels = np.random.default_rng(nx).integers(0, 3, size=(ny, nx)).astype(np.uint8)
    a = 0.0123
    tables = np.array([a * solver._K2 + grid.h * grid.h * solver._M2, a * solver._K2])
    _assert_same_csr(solver._stencil_block(grid, [(tables, labels)]), ref_block_2d(grid, labels, a))


# -- solve grids -----------------------------------------------------------------


def ref_grid_for_solve(shape, a, cells):
    """The per-family grid of the ``solve`` command before ``problem_grid``."""
    h = shape.thickness / cells
    if shape.family == Family.INTERVAL_WHOLE:
        return solver.build_interval_grid(shape, h, solver.whole_line_box(shape, a))
    if shape.family == Family.INTERVAL_GENERAL:
        return solver.build_interval_grid(shape, h, (shape.b_l, shape.b_r))
    if shape.family == Family.ANNULUS_WHOLE:
        return solver.build_radial_grid(shape, h, a=a)
    if shape.family == Family.BAND_WHOLE:
        return solver.band_whole_grid(shape, h, a)
    if shape.family == Family.BAND_GENERAL:
        return solver.band_general_grid(shape, h)
    return solver.annulus_general_grid(shape, h)


SOLVE_CASES = {
    "interval-whole": (shapes.interval_whole(0.0, 1.0), 0.04, 32),
    "interval-general": (shapes.interval_general(0.0, 1.0, -0.95, 2.0), 0.04, 10),
    "band-whole": (shapes.band_whole(0.0, 1.0, 1.0), 0.04, 16),
    "band-general": (
        shapes.band_general(
            0.0, 1.0, -0.5, shapes.PeriodicBoundary(period=1.0, mean=1.5, cosine_coeffs=(0.1,)), L=1.0
        ),
        0.02,
        16,
    ),
    "annulus-whole": (shapes.annulus_whole(1.0, 2.0), 0.04, 64),
    "annulus-general": (shapes.annulus_general(1.0, 2.0, 2.5), 0.04, 10),
}


@pytest.mark.parametrize("family", [f.value for f in Family])
def test_problem_grid_matches_solve_grid(family):
    shape, a, cells = SOLVE_CASES[family]
    assert shape.family.value == family
    got = solver.problem_grid(shape, a, shape.thickness / cells)
    want = ref_grid_for_solve(shape, a, cells)
    for attr in ("dim", "origin", "h", "cells", "periodic_x", "radial"):
        assert getattr(got, attr) == getattr(want, attr), attr

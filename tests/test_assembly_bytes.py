"""Bit identity of the vectorized assemblers against their reference forms.

The 1D and radial reference assemblers below loop over the elements in
Python and emit one element matrix per element as COO triplets, in element
order: the radial one the way ``assemble_radial`` did before it was
vectorized, the 1D one with a void element's stiffness and mass added
before any node sum, as the fused tables of every assembler add them.  So
the CSR arrays that scipy sums from them must agree bit for bit, not just
to a tolerance, with the diagonal-stored block read as CSR
(``block.tocsr()``).
The 2D reference sums one fused 4x4 element matrix per active cell from COO
triplets over a (cells, 4) connectivity array, the way ``assemble_2d`` did
before it built the 9-point stencil directly, and scatters the load with
``np.add.at`` and marks the Outside cells' nodes with ``np.unique`` over the
same array, the way it did before one per-node sum wrote the load and the
Dirichlet nodes too.  The references' loads are the node loads every
assembler stored before a system kept per-cell load tables alone, so
``rhs``, summed from those tables on each read, must give their bytes.  The
grid test pins ``solver.problem_grid`` to the per-family grids the ``solve``
command built before it, which the per-family grid builders gave.
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
    matrix = ref_block_1d(grid, labels, a)
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


def ref_node_ids_2d(grid):
    """(cells, 4) int32 array of global node ids in SW, SE, NE, NW order."""
    nx, ny = grid.cells
    nxn, nyn = grid.node_counts()
    ii = np.arange(nx, dtype=np.int32)
    jj = np.arange(ny, dtype=np.int32)
    i_east = (ii + 1) % nxn  # wraps only on a periodic x axis, where nxn = nx
    jje = jj + 1
    sw = jj[:, None] * nxn + ii[None, :]
    se = jj[:, None] * nxn + i_east[None, :]
    ne = jje[:, None] * nxn + i_east[None, :]
    nw = jje[:, None] * nxn + ii[None, :]
    conn = np.stack([sw, se, ne, nw], axis=-1).reshape(-1, 4)
    return conn, nxn * nyn


def ref_assemble_2d(grid, shape, a):
    """The scalar 2D block, the load and the Dirichlet nodes of ``shape`` by reference."""
    labels = geometry.classify_cells(grid, shape).labels
    return (ref_block_2d(grid, labels, a),) + ref_load_and_mask_2d(grid, labels)


def ref_load_and_mask_2d(grid, labels):
    """The load scattered by ``np.add.at``; the box boundary and, by ``np.unique``,
    every node of an Outside cell."""
    labels = labels.ravel()
    conn, n_nodes = ref_node_ids_2d(grid)
    h = grid.h
    rhs = np.zeros(2 * n_nodes)
    c_s = conn[labels == CellLabel.SHAPE]
    if len(c_s):
        np.add.at(rhs, c_s.ravel(), np.tile(h * solver._GRAD_X, len(c_s)))
        np.add.at(rhs[n_nodes:], c_s.ravel(), np.tile(h * solver._GRAD_Y, len(c_s)))
    nxn, nyn = grid.node_counts()
    mask = np.zeros(n_nodes, dtype=bool)
    jj = np.arange(n_nodes) // nxn
    ii = np.arange(n_nodes) % nxn
    mask |= (jj == 0) | (jj == nyn - 1)
    if not grid.periodic_x:
        mask |= (ii == 0) | (ii == nxn - 1)
    out_cells = np.flatnonzero(labels == CellLabel.OUTSIDE)
    if len(out_cells):
        mask[np.unique(conn[out_cells].ravel())] = True
    return rhs, mask


def ref_block_2d(grid, labels, a):
    """The scalar 2D block from one COO triplet per cell entry, summed by tocsr."""
    labels = labels.ravel()
    conn, n_nodes = ref_node_ids_2d(grid)
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

    Each element emits one element matrix: its stiffness, plus its mass if
    it is void, added entry by entry before any node sum.
    """
    h = grid.h
    stiff, m = a / h, h / 6.0
    rows, cols, vals = [], [], []
    for e, label in enumerate(labels):
        values = [stiff, -stiff, -stiff, stiff]
        if label == CellLabel.VOID:
            values = [stiff + 2 * m, -stiff + m, -stiff + m, stiff + 2 * m]
        rows += [e, e, e + 1, e + 1]
        cols += [e, e + 1, e, e + 1]
        vals += values
    n = len(labels) + 1
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def _assert_same_csr(block, want):
    """The DIA ``block`` read as CSR: the reference's arrays, a stored zero dropped or not."""
    assert block.format == "dia"
    got = block.tocsr()
    for name in ("data", "indices", "indptr"):
        assert getattr(got, name).dtype == getattr(want, name).dtype, name
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert got.indices.dtype == np.int32


def _assert_same_loads(system, rhs):
    """The system's loads, summed from one load table per element matrix on
    each read and never kept, have the bytes of the reference's node loads."""
    assert system.loads.shape == (len(system.tables), system.grid.dim, 2**system.grid.dim)
    first, second = system.rhs, system.rhs
    assert first is not second and "rhs" not in vars(system)
    assert first.tobytes() == second.tobytes() == rhs.tobytes()
    assert system.n == len(rhs)


def _assert_same(system, reference):
    matrix, rhs, mask = reference
    _assert_same_csr(system.block, matrix)
    _assert_same_loads(system, rhs)
    assert np.array_equal(system.dirichlet_mask, mask)


# -- assembly --------------------------------------------------------------------


def _interval_case(kind):
    # the grid of a whole line is truncated 28 sqrt(0.01) out, whatever a is assembled
    if kind == "general":
        shape = shapes.interval_general(0.0, 1.0, -1.0, 2.0)
        return solver.problem_grid(shape, 0.01, 1.0 / 64), shape
    if kind == "general-outside":  # box not commensurate with h: Outside end cells
        shape = shapes.interval_general(0.0, 1.0, -0.95, 2.04)
        return solver.problem_grid(shape, 0.01, 0.1), shape
    if kind == "general-padded":  # grid [-1.3, 2.3] beyond the box: nodes between Outside cells
        shape = shapes.interval_general(0.0, 1.0, -0.95, 2.04)
        return geometry.StructuredGrid(dim=1, origin=(-1.3,), h=0.1, cells=(36,)), shape
    if kind == "whole":
        shape = shapes.interval_whole(-0.3, 0.9)
        return solver.problem_grid(shape, 0.01, 0.03), shape
    shape = shapes.interval_general(0.0, 1.0, -1.0, 2.0)
    return solver.problem_grid(shape, 0.01, 1.0 / 48), None


@pytest.mark.parametrize("kind", ["general", "general-outside", "general-padded", "whole", "no-shape"])
@pytest.mark.parametrize("a", [0.04, 1e-4])
def test_assemble_1d_bits(kind, a):
    grid, shape = _interval_case(kind)
    system = solver.assemble_1d(grid, shape, a)
    outside = system.classification.labels == CellLabel.OUTSIDE
    assert outside.any() == kind.startswith("general-")
    assert system.dirichlet_mask[1:-1].any() == (kind == "general-padded")
    _assert_same(system, ref_assemble_1d(grid, shape, a))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("a", [0.05, 0.003])
def test_assemble_1d_bits_on_random_labels(monkeypatch, seed, a):
    # Outside cells inside the grid, between Shape and Void ones, which no shape gives;
    # at these a, adding a void cell's mass to its stiffness after the node sum, not before,
    # moves the last bit of 36 to 43 entries, so the one fused element matrix per cell shows
    shape = shapes.interval_general(0.0, 1.0, -1.0, 2.0)
    grid = solver.problem_grid(shape, a, 1.0 / 64)
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
    grid = solver.problem_grid(shape, a, h)
    _assert_same(solver.assemble_radial(grid, shape, a), ref_assemble_radial(grid, shape, a))


def _case_2d(kind, a):
    if kind == "annulus":
        shape = shapes.annulus_general(1.0, 2.0, 2.5)
        return solver.problem_grid(shape, a, math.sqrt(a) / 8), shape
    if kind == "wavy-band":
        shape = harness.canonical_wavy_band()
        return solver.problem_grid(shape, a, math.sqrt(a) / 8), shape
    shape = shapes.band_whole(0.0, 1.0, 0.25 if kind == "narrow-band" else 1.0)
    return solver.problem_grid(shape, a, 1.0 / 16), shape


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
    assert (system.classification.labels == CellLabel.OUTSIDE).any() == (kind == "wavy-band")
    if kind == "narrow-band":
        assert grid.cells[0] == 4
    _assert_same_2d(system, ref_assemble_2d(grid, shape, a))


def _assert_same_2d(system, reference):
    block, rhs, mask = reference
    _assert_same_csr(system.block, block)
    _assert_same_loads(system, rhs)
    assert system.dirichlet_nodes.dtype == bool
    assert system.dirichlet_nodes.tobytes() == mask.tobytes()


@pytest.mark.parametrize("periodic", [True, False])
@pytest.mark.parametrize("nx", [4, 5, 23])
def test_stencil_block_bits_on_random_labels(monkeypatch, periodic, nx):
    # arbitrary labels put unequal cells on both sides of the periodic seam, where
    # the order of the sum over the four cells around a node shows in the last bit
    ny = 31
    grid = geometry.StructuredGrid(dim=2, origin=(0.0, 0.0), h=0.05, cells=(nx, ny), periodic_x=periodic)
    labels = np.random.default_rng(nx).integers(0, 3, size=(ny, nx)).astype(np.uint8)
    monkeypatch.setattr(
        solver, "classify_cells", lambda g, s: geometry.CellClassification(grid=g, labels=labels)
    )
    a = 0.0123
    system = solver.assemble_2d(grid, shapes.band_whole(0.0, 1.0, 1.0), a)
    assert system.rhs.any() and system.dirichlet_nodes[grid.node_counts()[0]:-grid.node_counts()[0]].any()
    _assert_same_2d(system, (ref_block_2d(grid, labels, a),) + ref_load_and_mask_2d(grid, labels))


# -- solve grids -----------------------------------------------------------------


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

# the grid of each case above as the per-family builders gave it before ``problem_grid``
SOLVE_GRIDS = {
    "interval-whole": geometry.StructuredGrid(dim=1, origin=(-5.625,), h=0.03125, cells=(392,)),
    "interval-general": geometry.StructuredGrid(dim=1, origin=(-1.0,), h=0.1, cells=(30,)),
    "band-whole": geometry.StructuredGrid(
        dim=2, origin=(0.0, -5.625), h=0.0625, cells=(16, 196), periodic_x=True
    ),
    "band-general": geometry.StructuredGrid(
        dim=2, origin=(0.0, -0.5625), h=0.0625, cells=(16, 36), periodic_x=True
    ),
    "annulus-whole": geometry.StructuredGrid(dim=1, origin=(0.015625,), h=0.015625, cells=(486,), radial=True),
    "annulus-general": geometry.StructuredGrid(dim=2, origin=(-2.5, -2.5), h=0.1, cells=(50, 50)),
}


@pytest.mark.parametrize("family", [f.value for f in Family])
def test_problem_grid_matches_solve_grid(family):
    shape, a, cells = SOLVE_CASES[family]
    assert shape.family.value == family
    got = solver.problem_grid(shape, a, shape.thickness / cells)
    want = SOLVE_GRIDS[family]
    for attr in ("dim", "origin", "h", "cells", "periodic_x", "radial"):
        assert getattr(got, attr) == getattr(want, attr), attr

import copy
import dataclasses
import itertools
import math
import os
import pathlib
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from pdethick import analytic, geometry, harness, shapes, solver, thickness
from pdethick.errors import GridError, NonConvergenceError, NonNodalInterfaceError, PdeThickError


def _symmetry_defect(system):
    """Largest absolute entry of ``block - block.T``."""
    A = system.block.tocsr()
    return abs(A - A.T).max()


def _diagonal(block, offset):
    """The stored diagonal ``offset`` of a DIA block, indexed by column."""
    (k,) = np.flatnonzero(block.offsets == offset)
    return block.data[k]


def _line_system(m, diagonal, off, b):
    """A system of ``m`` nodes on a bare 1D grid, none fixed, whose block has
    ``diagonal`` on every row and ``off`` beside it, and whose loads are
    ``b``, from per-cell tables: each end cell carries its end node's whole
    diagonal, and every other node's diagonal is halved over its two cells,
    whose sum gives it back.  Each cell has a table of its own, so it
    carries its left node's load, and the last cell its right node's too."""
    half = 0.5 * diagonal
    ends = np.array([[[diagonal, off], [off, half]], [[half, off], [off, half]], [[half, off], [off, diagonal]]])
    tables = ends[np.concatenate([[0], np.ones(m - 3, int), [2]])]
    loads = np.zeros((m - 1, 1, 2))
    loads[:, 0, 0] = b[:-1]
    loads[-1, 0, 1] = b[-1]
    grid = geometry.StructuredGrid(dim=1, origin=(0.0,), h=1.0, cells=(m - 1,))
    system = solver.SparseSystem(tables, np.arange(m - 1), loads, np.zeros(m, bool), grid)
    assert system.rhs.tobytes() == np.asarray(b, float).tobytes()
    return system


def _interval_system(n=96, a=0.04):
    shape = shapes.interval_general(0.0, 1.0, -1.0, 2.0)
    grid = solver.problem_grid(shape, a, 3.0 / n)
    return solver.assemble(grid, shape, a), grid, shape


class TestAssemble1d:
    def test_rhs_is_interface_functional(self):
        shape = shapes.interval_general(0.0, 1.0, -1.0, 2.0)
        grid = solver.problem_grid(shape, 0.5, 1.0)
        system = solver.assemble_1d(grid, shape, 0.5)
        nz = np.flatnonzero(system.rhs)
        nodes = grid.node_coords(0)
        assert len(nz) == 2
        assert dict(zip(nodes[nz], system.rhs[nz])) == {0.0: -1.0, 1.0: 1.0}

    def test_symmetry_exact(self):
        system, _, _ = _interval_system()
        assert _symmetry_defect(system) == 0.0

    def test_quadratic_form_positive(self):
        system, _, _ = _interval_system()
        rng = np.random.default_rng(7)
        free = ~system.dirichlet_mask
        A = system.matrix[free][:, free]
        for v in rng.standard_normal((10, A.shape[0])):
            assert v @ (A @ v) > 0

    def test_non_nodal_interface_rejected(self):
        shape = shapes.interval_general(0.0, 1.0, -1.0, 2.0)
        grid = geometry.StructuredGrid(dim=1, origin=(-1.02,), h=3.0 / 96, cells=(96,))
        with pytest.raises(NonNodalInterfaceError):
            solver.assemble_1d(grid, shape, 0.04)

    def test_void_only_variant(self):
        shape = shapes.interval_general(0.0, 1.0, -1.0, 2.0)
        grid = solver.problem_grid(shape, 0.04, 1.0 / 16)
        system = solver.assemble_1d(grid, None, 0.04)
        assert not system.rhs.any()
        assert (system.classification.labels == geometry.CellLabel.VOID).all()


class TestAssembleRadial:
    def test_rhs_entries(self):
        shape = shapes.annulus_whole(1.0, 2.0)
        grid = solver.problem_grid(shape, 0.04, 1.0 / 64)
        system = solver.assemble_radial(grid, shape, 0.04)
        nz = np.flatnonzero(system.rhs)
        nodes = grid.node_coords(0)
        vals = dict(zip(np.round(nodes[nz], 12), system.rhs[nz]))
        assert vals == {1.0: -1.0, 2.0: 2.0}

    def test_symmetry_and_spd(self):
        shape = shapes.annulus_whole(1.0, 2.0)
        grid = solver.problem_grid(shape, 0.04, 1.0 / 64)
        system = solver.assemble_radial(grid, shape, 0.04)
        assert _symmetry_defect(system) == 0.0
        free = ~system.dirichlet_mask
        A = system.matrix[free][:, free]
        rng = np.random.default_rng(11)
        for v in rng.standard_normal((10, A.shape[0])):
            assert v @ (A @ v) > 0

    @pytest.mark.parametrize("a", [math.nan, math.inf, 0.0, -1.0])
    def test_a_must_be_positive_and_finite(self, a):
        interval, annulus = shapes.interval_whole(0.0, 1.0), shapes.annulus_whole(1.0, 2.0)
        band = shapes.band_whole(0.0, 1.0, 1.0)
        for shape in (interval, annulus, band):
            with pytest.raises(GridError, match="need a finite a > 0"):
                solver.problem_grid(shape, a, 0.05)
        for assemble, shape, grid in (
            (solver.assemble_1d, interval, solver.problem_grid(interval, 0.04, 0.1)),
            (solver.assemble_radial, annulus, solver.problem_grid(annulus, 0.04, 0.1)),
            (solver.assemble_2d, band, solver.problem_grid(band, 0.04, 0.1)),
        ):
            with pytest.raises(GridError, match="need a finite a > 0"):
                assemble(grid, shape, a)

    def test_axis_resolution_guard(self):
        # f_l lands on a node but sits closer than 10 h to the axis
        shape = shapes.annulus_whole(0.125, 1.125)
        with pytest.raises(GridError):
            solver.problem_grid(shape, 0.04, 1.0 / 16)

    def test_non_nodal_inner_radius_rejected(self):
        shape = shapes.annulus_whole(0.3, 1.3)
        with pytest.raises(NonNodalInterfaceError):
            solver.problem_grid(shape, 0.04, 1.0 / 64)


class TestAssemble2d:
    def test_flat_band_x_rhs_zero(self):
        band = shapes.band_general(0.0, 1.0, -1.0, 2.0, L=1.0)
        grid = solver.problem_grid(band, 0.04, 1.0 / 16)
        system = solver.assemble_2d(grid, band, 0.04)
        n_nodes = system.n // 2
        assert np.max(np.abs(system.rhs[:n_nodes])) == 0.0

    def test_annulus_y_rhs_sums_to_zero(self):
        ann = shapes.annulus_general(1.0, 2.0, 2.5)
        grid = solver.problem_grid(ann, 0.04, 0.05)
        system = solver.assemble_2d(grid, ann, 0.04)
        n_nodes = system.n // 2
        assert abs(system.rhs[n_nodes:].sum()) < 1e-12
        assert abs(system.rhs[:n_nodes].sum()) < 1e-12

    def test_symmetry_and_spd(self):
        ann = shapes.annulus_general(1.0, 2.0, 2.5)
        grid = solver.problem_grid(ann, 0.04, 0.1)
        system = solver.assemble_2d(grid, ann, 0.04)
        assert _symmetry_defect(system) == 0.0
        free = ~system.dirichlet_mask
        A = system.matrix[free][:, free]
        rng = np.random.default_rng(3)
        for v in rng.standard_normal((10, A.shape[0])):
            assert v @ (A @ v) > 0

    def test_under_resolved_shape_rejected(self):
        ann = shapes.annulus_general(1.0, 2.0, 2.5)
        grid = solver.problem_grid(ann, 0.04, 0.5)
        with pytest.raises(GridError):
            solver.assemble_2d(grid, ann, 0.04)


    @pytest.mark.parametrize("periodic, east", [(False, 4), (True, 0)])
    def test_east_corners_wrap_only_on_periodic_grids(self, periodic, east):
        grid = geometry.StructuredGrid(dim=2, origin=(0.0, 0.0), h=0.25, cells=(4, 2), periodic_x=periodic)
        nxn = grid.node_counts()[0]
        node_ids = np.arange(3 * nxn).reshape(3, nxn)
        corners = solver._cell_corners(grid, node_ids)
        assert [c.shape for c in corners] == [(2, 4)] * 4
        # the last cell of the first row: SW, SE, NE, NW
        assert [int(c[0, 3]) for c in corners] == [3, east, nxn + east, nxn + 3]
        # and the first cell of the second row
        assert [int(c[1, 0]) for c in corners] == [nxn, nxn + 1, 2 * nxn + 1, 2 * nxn]


@pytest.mark.parametrize("h", [-0.1, 0.0, math.inf, math.nan])
@pytest.mark.parametrize(
    "shape",
    [
        shapes.interval_general(0.0, 1.0, -1.0, 2.0),
        shapes.annulus_whole(1.0, 2.0),
        shapes.annulus_general(1.0, 2.0, 2.5),
    ],
    ids=["interval-general", "annulus-whole", "annulus-general"],
)
def test_problem_grid_refuses_h_outside_the_positive_reals(shape, h):
    with pytest.raises(GridError, match=f"^need a finite h > 0, got {h}$"):
        solver.problem_grid(shape, 0.04, h)


@pytest.mark.parametrize(
    "shape, a, h",
    [
        # 28 sqrt(a) of padding on each side of the line: 2.24e152 nodes
        (shapes.interval_whole(0.0, 1.0), 1e300, 0.25),
        # a 1e5-cell half-width of the box: about 4e10 nodes
        (shapes.annulus_general(1.0, 2.0, 2.5), 0.04, 2.5e-5),
    ],
    ids=["interval-whole-huge-a", "annulus-general-tiny-h"],
)
def test_problem_grid_refuses_a_grid_above_the_node_cap(shape, a, h):
    with pytest.raises(GridError, match=f"^solve grid capped at {solver.MAX_NODES} nodes, got [0-9]+$"):
        solver.problem_grid(shape, a, h)


def test_problem_grid_node_cap_is_inclusive(monkeypatch):
    shape = shapes.interval_general(0.0, 1.0, -1.0, 2.0)
    nodes = solver.problem_grid(shape, 0.04, 0.01).node_counts()[0]
    monkeypatch.setattr(solver, "MAX_NODES", nodes)
    assert solver.problem_grid(shape, 0.04, 0.01).node_counts() == (nodes,)
    monkeypatch.setattr(solver, "MAX_NODES", nodes - 1)
    with pytest.raises(GridError, match=f"^solve grid capped at {nodes - 1} nodes, got {nodes}$"):
        solver.problem_grid(shape, 0.04, 0.01)


@pytest.mark.parametrize(
    "shape",
    [
        # h = L/5 = 0.06 at the target 1/16, so f_r = 1 lies 2/3 of a cell off the nodes
        shapes.band_whole(0.0, 1.0, 0.3),
        # h = L/16 and a thickness of 11.2 cells
        shapes.band_general(0.0, 0.7, -0.5, shapes.PeriodicBoundary(1.0, 1.5, (0.1,)), L=1.0),
    ],
    ids=["band-whole-L0.3", "wavy-band-fr0.7"],
)
def test_band_grid_refuses_an_interface_off_the_nodes(shape):
    with pytest.raises(NonNodalInterfaceError, match=r"^band thickness [0-9.]+ is not a node multiple of h = L/"):
        solver.problem_grid(shape, 0.04, 1.0 / 16)


@pytest.mark.parametrize(
    "shape", [shapes.band_whole(0.0, 1.0, 0.25), harness.canonical_wavy_band()], ids=["band-whole-L0.25", "wavy-band"]
)
def test_band_grid_puts_both_interfaces_on_nodes(shape):
    y = solver.problem_grid(shape, 0.04, 1.0 / 16).node_coords(1)
    for interface in (shape.f_l, shape.f_r):
        assert np.min(np.abs(y - interface)) < 1e-12


def _observed_orders(errors):
    """log2 of each successive error ratio, h halving between the errors."""
    return [math.log2(coarse / fine) for coarse, fine in zip(errors, errors[1:])]


# the observed-order window of the solver-1d-convergence check; at h = sqrt(a)/k the
# boundary layers keep k cells per sqrt(a), so the order must hold at every a
ORDER_WINDOW = (1.7, 2.3)
SMALL_A_CELLS = (8, 16, 32)


@pytest.mark.parametrize("a", [0.04, 0.01, 0.0025, 6.25e-4, 1.5625e-4, 3.90625e-5])
def test_line_converges_at_second_order_down_to_small_a(a):
    shape = shapes.interval_general(0.0, 1.0, -1.0, 2.0)
    sol = analytic.interval_general(0.0, 1.0, -1.0, 2.0, a)
    errors = []
    for k in SMALL_A_CELLS:
        system = solver.assemble(solver.problem_grid(shape, a, math.sqrt(a) / k), shape, a)
        field = solver.solve_spd(system)
        exact = analytic.profile(sol, system.grid.node_coords(0))
        errors.append(float(np.max(np.abs(field.components[0] - exact))))
    for order in _observed_orders(errors):
        assert ORDER_WINDOW[0] <= order <= ORDER_WINDOW[1], (errors, order)


@pytest.mark.parametrize("a", [0.04, 0.01, 0.0025, 6.25e-4, 1.5625e-4])
def test_radial_p_star_converges_at_second_order_down_to_small_a(a):
    shape = shapes.annulus_whole(1.0, 2.0)
    p_star = analytic.annulus_whole(1.0, 2.0, a).p_star
    errors = []
    for k in SMALL_A_CELLS:
        system = solver.assemble(solver.problem_grid(shape, a, math.sqrt(a) / k), shape, a)
        p = thickness.divergence(solver.solve_spd(system))
        p_mean = float(np.mean(p[system.classification.shape_mask]))
        errors.append(abs(p_mean - p_star) / p_star)
    for order in _observed_orders(errors):
        assert ORDER_WINDOW[0] <= order <= ORDER_WINDOW[1], (errors, order)


def _sine_band(L=1.0):
    """The canonical wavy band with a sine term on its ceiling, which mirrors it
    about no node line."""
    ceiling = shapes.PeriodicBoundary(period=L, mean=1.5, cosine_coeffs=(0.1,), sine_coeffs=(0.05,))
    return shapes.band_general(0.0, 1.0, shapes.PeriodicBoundary.constant(-0.5, L), ceiling, L=L)


class TestSolveSpd:
    def test_identity_single_iteration(self):
        n = 40
        rng = np.random.default_rng(5)
        b = rng.standard_normal(n)
        system = _line_system(n, 1.0, 0.0, b)
        assert (system.block != sp.identity(n)).nnz == 0
        field = solver.solve_spd(system)
        assert field.iterations == 1
        assert np.allclose(field.components[0], b, rtol=0, atol=1e-14)

    def test_deterministic_iterations_and_bits(self):
        sys1, _, _ = _interval_system()
        sys2, _, _ = _interval_system()
        f1 = solver.solve_spd(sys1)
        f2 = solver.solve_spd(sys2)
        assert f1.iterations == f2.iterations
        assert np.array_equal(f1.components[0], f2.components[0])

    def test_nonconvergence_reported(self, monkeypatch):
        system, _, _ = _interval_system(n=3072)
        monkeypatch.setattr(solver, "MAX_ITERATIONS", 3)
        with pytest.raises(NonConvergenceError, match="within the cap of 3 iterations"):
            solver.solve_spd(system)

    def test_nonpositive_free_diagonal_is_refused(self):
        system, _, _ = _interval_system()
        tables = system.tables[system.index]  # one table per cell, and so one load table
        loads = system.loads[system.index]
        index = np.arange(len(tables))
        tables[0, 0, 0] = -1.0  # node 0, a Dirichlet node, lies in cell 0 alone: not checked
        solver.solve_spd(dataclasses.replace(system, tables=tables, index=index, loads=loads))
        tables[4, 1, 1] = tables[5, 0, 0] = 0.0  # node 5's diagonal, from cells 4 and 5
        with pytest.raises(NonConvergenceError, match="^nonpositive diagonal entry; system not SPD$"):
            solver.solve_spd(dataclasses.replace(system, tables=tables, index=index, loads=loads))

    def test_corrupted_stencil_corner_stops_at_the_cap(self):
        # every node's NE corner entry with the wrong sign, as one wrong corner in
        # the stencil builder gives: CG stalls on the unsymmetric block and must
        # stop at the fixed cap, not at one that grows with the grid
        ann = shapes.annulus_general(1.0, 2.0, 2.5)
        grid = solver.problem_grid(ann, 0.04, 0.05)
        system = solver.assemble_2d(grid, ann, 0.04)
        tables = system.tables.copy()
        tables[:, 0, 2] *= -1.0  # the SW corner's coupling to the NE corner
        broken = dataclasses.replace(system, tables=tables)
        with pytest.raises(NonConvergenceError, match="cap of 100 iterations"):
            solver.solve_spd(broken)
        # every node's NE entry, the diagonal at nx + 1, and nothing else
        want = system.block.data.copy()
        want[system.block.offsets.tolist().index(grid.node_counts()[0] + 1)] *= -1.0
        assert np.array_equal(broken.block.data, want)

    def test_second_solve_reuses_the_hierarchy(self, built_hierarchies):
        band = _sine_band()
        system = solver.assemble_2d(solver.problem_grid(band, 0.02, np.sqrt(0.02) / 8), band, 0.02)
        first = solver.solve_spd(system)
        second = solver.solve_spd(system)
        # a band with a sine term mirrors about no node line: it solves on the whole
        # grid, under the one hierarchy it keeps
        assert built_hierarchies == [system.multigrid]
        assert first.iterations == second.iterations > 0
        assert all(c1.tobytes() == c2.tobytes() for c1, c2 in zip(first.components, second.components))
        with pytest.raises(dataclasses.FrozenInstanceError):
            system.loads = np.zeros_like(system.loads)

    def test_boxed_annulus_folds_anew_for_each_solve(self, built_hierarchies):
        ann = shapes.annulus_general(1.0, 2.0, 2.5)
        system = solver.assemble_2d(solver.problem_grid(ann, 0.04, 0.05), ann, 0.04)
        first = solver.solve_spd(system)
        assert len(built_hierarchies) == 1
        second = solver.solve_spd(system)
        # each solve builds its quadrant's hierarchy and keeps nothing on the system
        c = system.grid.node_counts()[0] // 2
        assert len(built_hierarchies) == 2
        assert all(mg.levels[0][0].shape == ((c + 1) ** 2,) * 2 for mg in built_hierarchies)
        assert not {"block", "multigrid"} & set(vars(system))
        assert first.iterations == second.iterations > 0
        assert all(c1.tobytes() == c2.tobytes() for c1, c2 in zip(first.components, second.components))

    @pytest.mark.parametrize("scale", [1e-40, 1e-36, 2.0**-130, 1e38])
    def test_loads_outside_the_float32_range_solve(self, scale):
        # the V-cycle runs in float32, whose normal range is about 1e-38 to 3e38;
        # each load is scaled by a power of two before it, so a power-of-two
        # scale of the load scales the solution's bits exactly
        ann = shapes.annulus_general(1.0, 2.0, 2.5)
        system = solver.assemble(solver.problem_grid(ann, 0.04, 0.025), ann, 0.04)
        field = solver.solve_spd(system)
        scaled_system = dataclasses.replace(system, loads=system.loads * scale)
        # the scaled load tables sum to the scaled loads, bit for bit
        assert scaled_system.rhs.tobytes() == (system.rhs * scale).tobytes()
        scaled = solver.solve_spd(scaled_system)
        assert scaled.iterations == field.iterations == 7
        for c, c_scaled in zip(field.components, scaled.components):
            if math.frexp(scale)[0] == 0.5:
                assert c_scaled.tobytes() == (c * scale).tobytes()
            else:
                assert np.max(np.abs(c_scaled / scale - c)) <= 1e-8 * np.max(np.abs(c))

    def test_matches_analytic_interval(self):
        a = 0.04
        system, grid, shape = _interval_system(n=512 * 3, a=a)
        field = solver.solve_spd(system)
        sol = analytic.interval_general(0.0, 1.0, -1.0, 2.0, a)
        nodes = grid.node_coords(0)
        exact = np.array([analytic.eval_solution(sol, float(x)) for x in nodes])
        assert np.max(np.abs(field.components[0] - exact)) <= 5e-5

    def test_second_order_convergence(self):
        a = 0.04
        shape = shapes.interval_general(0.0, 1.0, -1.0, 2.0)
        sol = analytic.interval_general(0.0, 1.0, -1.0, 2.0, a)
        errs = []
        for n in (128, 256, 512):
            grid = solver.problem_grid(shape, a, 1.0 / n)
            field = solver.solve_spd(solver.assemble(grid, shape, a))
            nodes = grid.node_coords(0)
            exact = np.array([analytic.eval_solution(sol, float(x)) for x in nodes])
            errs.append((1.0 / n, float(np.max(np.abs(field.components[0] - exact)))))
        order, _ = harness.fit_rate(errs)
        assert 1.7 <= order <= 2.3

    def test_radial_reproduces_p_star(self):
        a = 0.04
        shape = shapes.annulus_whole(1.0, 2.0)
        grid = solver.problem_grid(shape, a, 1.0 / 1024)
        system = solver.assemble(grid, shape, a)
        field = solver.solve_spd(system)
        p = thickness.divergence(field)
        p_shape = p[system.classification.shape_mask]
        ref = analytic.annulus_whole(1.0, 2.0, a)
        assert abs(p_shape.mean() - ref.p_star) / ref.p_star <= 1e-4
        assert (p_shape.max() - p_shape.min()) / abs(p_shape.mean()) <= 1e-3

    def test_whole_line_truncation(self):
        a = 0.04
        shape = shapes.interval_whole(0.0, 1.0)
        grid = solver.problem_grid(shape, a, 1.0 / 256)
        field = solver.solve_spd(solver.assemble(grid, shape, a))
        sol = analytic.interval_whole(0.0, 1.0, a)
        nodes = grid.node_coords(0)
        exact = np.array([analytic.eval_solution(sol, float(x)) for x in nodes])
        assert np.max(np.abs(field.components[0] - exact)) <= 5e-5


class TestBandReduction:
    def test_flat_band_matches_1d(self):
        a = 0.04
        h = 1.0 / 64
        band = shapes.band_general(0.0, 1.0, -1.0, 2.0, L=1.0)
        grid2 = solver.problem_grid(band, a, h)
        field2 = solver.solve_spd(solver.assemble(grid2, band, a))
        ishape = shapes.interval_general(0.0, 1.0, -1.0, 2.0)
        grid1 = solver.problem_grid(ishape, a, h)
        field1 = solver.solve_spd(solver.assemble(grid1, ishape, a))
        sx, sy = field2.components
        scale = max(float(np.max(np.abs(sx))), float(np.max(np.abs(sy))))
        assert np.max(np.abs(sx)) <= 1e-8 * scale
        assert np.max(np.abs(sy - field1.components[0][:, None])) <= 1e-8 * scale


def _box(a):
    ann = shapes.annulus_general(1.0, 2.0, 2.5)
    return solver.assemble(solver.problem_grid(ann, a, np.sqrt(a) / 8), ann, a)


def _refuse_every_mirror(monkeypatch):
    """Make the gate refuse every mirror and the transpose: each component
    solves on the whole grid."""
    monkeypatch.setattr(solver, "_parity", lambda system, b, axis: 0)
    monkeypatch.setattr(solver, "_is_transposed", lambda system, loads: False)


def _folded_blocks(monkeypatch):
    """The list each folded block a solve forms is appended to, kept past the solve."""
    blocks = []
    fold = solver._folded_block
    monkeypatch.setattr(solver, "_folded_block", lambda *args: (lambda out: blocks.append(out[0]) or out)(fold(*args)))
    return blocks


def _node_loads(system):
    return system.rhs.reshape((system.n_components,) + system.grid.node_counts()[::-1])


class TestQuadrantSolve:
    @pytest.mark.parametrize("a", [0.04, 0.005])
    def test_boxed_annulus_solves_once_on_its_quadrant(self, a, built_hierarchies, monkeypatch):
        folded = _folded_blocks(monkeypatch)
        system = _box(a)
        field = solver.solve_spd(system)
        s_x, s_y = field.components
        assert s_y.flags.c_contiguous and s_y.tobytes() == s_x.T.tobytes()
        assert np.array_equal(s_x, 0.0 - s_x[:, ::-1]) and np.array_equal(s_x, s_x[::-1])
        assert not any(np.any(np.signbit(c) & (c == 0.0)) for c in field.components)
        c = system.grid.node_counts()[0] // 2
        assert len(folded) == len(built_hierarchies) == 1
        assert built_hierarchies[0].levels[0][0].shape == ((c + 1) ** 2,) * 2
        folded = folded[0].tocsr()
        assert abs(folded - folded.T).max() == 0.0
        # the per-component solve on the whole grid
        _refuse_every_mirror(monkeypatch)
        full_system = _box(a)
        full = solver.solve_spd(full_system)
        assert built_hierarchies[1:] == [full_system.multigrid]
        assert field.iterations < full.iterations
        scale = max(float(np.max(np.abs(c))) for c in full.components)
        for c, c_full in zip(field.components, full.components):
            assert np.max(np.abs(c - c_full)) <= 1e-8 * scale

    def test_symmetric_solve_folds_without_the_block(self):
        # the quadrant's stencils are summed over its own nodes; the fold as it was read
        # off the whole block, built only after the solve, has the same bits
        system = _box(0.005)
        solver.solve_spd(system)
        assert "block" not in vars(system)
        mirrors, _, fixed, _ = solver._mirror_fold(system, _node_loads(system)[0])
        got = solver._folded_block(system, mirrors, fixed)[0]
        assert "block" not in vars(system)
        counts = system.grid.node_counts()[::-1]
        c = counts[0] // 2
        free = ~system.dirichlet_nodes.reshape(counts)
        places = solver._dia_layout(counts, False)[1]
        stencils = {delta: solver._read_stencil(system.block, here, free)[c:, c:].copy() for delta, here in places.items()}
        for d_x in (-1, 0, 1):
            stencils[1, d_x][0] += stencils[-1, d_x][0]
        for stencil in stencils.values():
            stencil[0] *= 0.5
        fixed = ~free[c:, c:]
        fixed[:, 0] = True
        want = solver._dia_block((c + 1, c + 1), False, stencils.values(), ~fixed)
        assert got.offsets.tolist() == want.offsets.tolist() and got.data.tobytes() == want.data.tobytes()

    def test_assembly_and_symmetric_solve_peak_below_one_block(self):
        """tracemalloc peak of ``assemble_2d`` and ``solve_spd`` on the 284^2 boxed
        annulus, in units of the whole block's 9 diagonals, 72 bytes a node.

        Assembly writing the block and the fold reading it back peaked at 2.1,
        and a quadrant kept while the field was unfolded beside it at 1.1; a
        quadrant freed before the field is allocated peaks at 0.9.
        """
        ann = shapes.annulus_general(1.0, 2.0, 2.5)
        grid = solver.problem_grid(ann, 0.02, np.sqrt(0.02) / 8)
        assert grid.cells == (284, 284)
        tracemalloc.start()
        try:
            system = solver.assemble_2d(grid, ann, 0.02)
            solver.solve_spd(system)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "block" not in vars(system)
        assert peak < 1.0 * 72 * math.prod(grid.node_counts())

    def test_gate_needs_mirrored_labels_and_dirichlet_nodes(self):
        system = _box(0.04)
        b_x = _node_loads(system)[0]
        assert [solver._parity(system, b_x, axis) for axis in (0, 1)] == [1, -1]
        labels = system.index.copy()
        labels[0, 1] = geometry.CellLabel.OUTSIDE
        assert [solver._parity(dataclasses.replace(system, index=labels), b_x, axis) for axis in (0, 1)] == [0, 0]
        dirichlet = system.dirichlet_nodes.copy()
        dirichlet[np.flatnonzero(~dirichlet)[0]] = True
        assert [solver._parity(dataclasses.replace(system, dirichlet_nodes=dirichlet), b_x, axis) for axis in (0, 1)] == [0, 0]
        # an even node count puts the mirror line mid-cell: the gate passes it too
        ann = shapes.annulus_general(1.0, 2.0, 2.5)
        even = solver.assemble(geometry.StructuredGrid(dim=2, origin=(-2.5, -2.5), h=5.0 / 51, cells=(51, 51)), ann, 0.04)
        assert [solver._parity(even, _node_loads(even)[0], axis) for axis in (0, 1)] == [1, -1]

    @pytest.mark.parametrize("case", ["wavy-band", "one-entry", "constant-probe"])
    def test_other_systems_and_loads_solve_on_the_whole_grid(self, case, built_hierarchies):
        if case == "wavy-band":
            band = _sine_band()
            system = solver.assemble(solver.problem_grid(band, 0.02, np.sqrt(0.02) / 8), band, 0.02)
        else:
            system = _box(0.04)
        if case == "one-entry":
            # double one nonzero x load entry, off both center lines, and its transposed
            # y entry: the loads mirror on neither axis, and the second is the first's
            # transpose, solved on the whole grid
            b_x, b_y = _node_loads(system).copy()
            j, i = np.argwhere(b_x != 0.0)[0]
            b_x[j, i] *= 2.0
            b_y[i, j] *= 2.0
            # no load table on this symmetric index gives these node loads, so they go
            # to the one solve behind solve_spd and the probes as they are
            loads = np.concatenate([b_x.ravel(), b_y.ravel()])
            iterations = solver._solve(system, lambda: loads)[1]
        elif case == "constant-probe":
            iterations = solver.homogeneous_boundary_probe(system, np.ones(system.n)).iterations
        else:
            iterations = solver.solve_spd(system).iterations
        assert iterations > 0
        assert built_hierarchies == [system.multigrid]

    @pytest.mark.parametrize("case", ["flat-band", "not-odd-in-x", "not-even-in-y", "not-transposed", "even-grid"])
    def test_a_load_folds_on_the_axes_it_mirrors(self, case, monkeypatch):
        # per component solved, its parity per axis, y then x: 0 where it does not fold
        if case == "flat-band":
            band = shapes.band_general(0.0, 1.0, -1.0, 2.0, L=1.0)
            system = solver.assemble(solver.problem_grid(band, 0.04, 1.0 / 16), band, 0.04)
        elif case == "even-grid":
            ann = shapes.annulus_general(1.0, 2.0, 2.5)
            grid = geometry.StructuredGrid(dim=2, origin=(-2.5, -2.5), h=5.0 / 51, cells=(51, 51))
            system = solver.assemble(grid, ann, 0.04)
        else:
            system = _box(0.04)
        b_x, b_y = _node_loads(system).copy()
        if case in ("not-odd-in-x", "not-even-in-y", "not-transposed"):
            # double one nonzero x load entry, off both center lines, with the mirror
            # images that keep every symmetry but the one the case names
            j, i = np.argwhere(b_x != 0.0)[0]
            if case == "not-transposed":
                b_y[i, j] *= 2.0
            else:
                for node in [(j, i), {"not-odd-in-x": (-1 - j, i), "not-even-in-y": (j, -1 - i)}[case]]:
                    b_x[node] *= 2.0
                b_y = b_x.T
        want = {
            "flat-band": [[1, 1], [-1, 1]],  # no x load, and a y load odd in y
            "not-odd-in-x": [[1, 0]],
            "not-even-in-y": [[0, -1]],
            "not-transposed": [[1, -1], [0, 0]],
            "even-grid": [[1, -1]],  # both mirror lines mid-cell
        }[case]
        loads = np.stack([b_x, b_y])
        solved = loads[:1] if solver._is_transposed(system, loads) else loads
        assert [[solver._parity(system, b, axis) for axis in (0, 1)] for b in solved] == want
        x = solver._solve(system, lambda: loads.ravel().copy())[0]
        _refuse_every_mirror(monkeypatch)
        full = solver._solve(system, lambda: loads.ravel().copy())[0]
        assert np.max(np.abs(x - full)) <= 1e-8 * np.max(np.abs(full))


class TestMirrorFold:
    @pytest.mark.parametrize("a, nx", [(0.1, 26), (0.02, 57)])
    def test_cosine_band_solves_on_half_a_period(self, a, nx, built_hierarchies, monkeypatch):
        # an even nx keeps nodes 0 to nx/2, both mirror lines on nodes; an odd nx keeps
        # nodes 0 to (nx - 1)/2, its second mirror line half a cell beyond
        band = harness.canonical_wavy_band()
        system = solver.assemble(solver.problem_grid(band, a, harness.target_h(a)), band, a)
        ny = system.grid.node_counts()[1]
        assert system.grid.node_counts()[0] == nx
        folded = _folded_blocks(monkeypatch)
        field = solver.solve_spd(system)
        s_x, s_y = field.components
        assert not np.any(s_x) and not np.signbit(s_x).any()
        # s_y even about node 0 of the ring, bit for bit, and no -0.0
        assert np.array_equal(s_y[:, 1:], s_y[:, :0:-1]) and s_y[:, 1:].tobytes() == s_y[:, :0:-1].tobytes()
        assert not np.any(np.signbit(s_y) & (s_y == 0.0))
        # one fold, of s_y onto an open grid of 9 diagonals; s_x's zero load builds none
        assert len(folded) == len(built_hierarchies) == 1 and "block" not in vars(system)
        assert folded[0].shape == ((nx // 2 + 1) * ny,) * 2 and len(folded[0].offsets) == 9
        block = folded[0].tocsr()
        assert abs(block - block.T).max() == 0.0
        assert _component_iterations(system)[0] == 0
        _refuse_every_mirror(monkeypatch)
        full = solver.solve_spd(solver.assemble(system.grid, band, a))
        scale = max(float(np.max(np.abs(c))) for c in full.components)
        for c, c_full in zip(field.components, full.components):
            assert np.max(np.abs(c - c_full)) <= 1e-8 * scale

    def test_narrow_cosine_band_converges_on_both_paths(self, monkeypatch):
        # the period of 0.01 keeps 4 ring nodes, and the fold 3 open ones; neither
        # axis coarsens below 5 nodes, so both paths carry the anisotropy of a narrow
        # strip, and both converge (a period of 0.001 does not)
        band = shapes.band_general(
            0.0, 1.0, shapes.PeriodicBoundary.constant(-0.5, 0.01), shapes.PeriodicBoundary(0.01, 1.5, (0.1,)), L=0.01
        )
        grid = solver.problem_grid(band, 0.01, harness.target_h(0.01))
        assert grid.node_counts() == (4, 843)
        folded = solver.solve_spd(solver.assemble(grid, band, 0.01))
        _refuse_every_mirror(monkeypatch)
        whole = solver.solve_spd(solver.assemble(grid, band, 0.01))
        assert folded.iterations == whole.iterations == 23
        scale = np.max(np.abs(whole.components[1]))
        assert np.max(np.abs(folded.components[1] - whole.components[1])) <= 1e-8 * scale


class TestHomogeneousProbes:
    def test_zero_data_gives_zero_field(self):
        system, _, _ = _interval_system()
        field = solver.homogeneous_boundary_probe(system, np.zeros(system.n))
        assert field.iterations == 0
        assert not np.any(field.components[0])
        assert "multigrid" not in vars(system)  # a zero load builds no hierarchy

    def test_constant_data_max_principle(self):
        shape = shapes.interval_general(0.0, 1.0, -1.0, 2.0)
        grid = solver.problem_grid(shape, 0.04, 1.0 / 64)
        system = solver.assemble_1d(grid, None, 0.04)
        field = solver.homogeneous_boundary_probe(system, np.ones(system.n))
        assert np.max(np.abs(field.components[0])) <= 1.0 + 1e-10

    def test_tail_data_max_principle(self):
        a = 0.04
        shape = shapes.interval_general(0.0, 1.0, -1.0, 2.0)
        grid = solver.problem_grid(shape, a, 1.0 / 64)
        system = solver.assemble(grid, shape, a)
        tail = analytic.interval_whole(0.0, 1.0, a)
        nodes = grid.node_coords(0)
        data = np.array([analytic.eval_solution(tail, float(x)) for x in nodes])
        field = solver.homogeneous_boundary_probe(system, data)
        boundary_sup = max(abs(data[0]), abs(data[-1]))
        interior = field.components[0][~system.dirichlet_mask]
        assert np.max(np.abs(interior)) <= boundary_sup + 1e-10

    def test_dirichlet_values_keep_their_bits_but_negative_zero(self):
        # CG iterates in the solution's storage and adds +0.0 to its Dirichlet
        # values each step: a -0.0 there becomes +0.0, every other value stays
        ann = shapes.annulus_general(1.0, 2.0, 2.5)
        system = solver.assemble_2d(solver.problem_grid(ann, 0.04, 0.05), ann, 0.04)
        mask = system.dirichlet_mask
        data = np.random.default_rng(11).standard_normal(system.n) * 1e-3
        negative_zero = np.flatnonzero(mask)[[0, -1]]
        data[negative_zero] = -0.0
        field = solver.homogeneous_boundary_probe(system, data)
        assert field.iterations > 0
        flat = np.concatenate([c.ravel() for c in field.components])
        kept = mask.copy()
        kept[negative_zero] = False
        assert flat[kept].tobytes() == data[kept].tobytes()
        assert flat[negative_zero].tobytes() == np.zeros(2).tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_data_is_refused_on_fixed_nodes_only(self, bad):
        system, _, _ = _interval_system()
        data = np.ones(system.n)
        data[0] = bad  # a Dirichlet node
        with pytest.raises(GridError, match="^boundary data must be finite on the Dirichlet nodes$"):
            solver.homogeneous_boundary_probe(system, data)
        assert "multigrid" not in vars(system)  # refused before any solve
        data[0], data[5] = 1.0, bad  # a free node's entry is ignored
        field = solver.homogeneous_boundary_probe(system, data)
        ones = solver.homogeneous_boundary_probe(system, np.ones(system.n))
        assert field.components[0].tobytes() == ones.components[0].tobytes()

    def test_interior_h1_estimate_band(self):
        lhs, rhs, h = harness.interior_h1_check("band")
        assert lhs <= rhs * (1.0 + 10.0 * h)

    def test_interior_h1_estimate_annulus(self):
        lhs, rhs, h = harness.interior_h1_check("annulus")
        assert lhs <= rhs * (1.0 + 10.0 * h / 0.5)

    @pytest.mark.parametrize("kind", ["disk", "Band", "interval", ""])
    def test_interior_h1_estimate_refuses_an_unknown_case(self, kind, monkeypatch):
        def no_system(*args):
            raise AssertionError("an unknown case must be refused before any system is built")

        monkeypatch.setattr(harness, "_system", no_system)
        with pytest.raises(PdeThickError, match=f"^unknown interior-estimate case {kind}$"):
            harness.interior_h1_check(kind)


class TestSerialization:
    def test_triplet_dump_is_one_based(self, tmp_path):
        system, _, _ = _interval_system(n=12)
        path = tmp_path / "matrix.txt"
        solver.dump_triplets(system, str(path))
        rows = [line.split() for line in path.read_text().splitlines()]
        coo = system.matrix.tocoo()
        assert len(rows) == coo.nnz
        assert int(rows[0][0]) == coo.row[0] + 1
        assert int(rows[0][1]) == coo.col[0] + 1
        assert float(rows[0][2]) == coo.data[0]

    def test_field_csv_roundtrip_1d(self, tmp_path, read_csv):
        system, grid, _ = _interval_system(n=24)
        field = solver.solve_spd(system)
        path = tmp_path / "field.csv"
        solver.write_field_csv(field, str(path))
        cols = read_csv(path)
        assert np.allclose(cols["x"], grid.node_coords(0), rtol=0, atol=0)
        assert np.allclose(cols["s_x"], field.components[0], rtol=0, atol=0)

    def test_field_csv_roundtrip_2d(self, tmp_path, read_csv):
        band = shapes.band_general(0.0, 1.0, -1.0, 2.0, L=1.0)
        grid = solver.problem_grid(band, 0.04, 1.0 / 8)
        field = solver.solve_spd(solver.assemble(grid, band, 0.04))
        path = tmp_path / "field2.csv"
        solver.write_field_csv(field, str(path))
        cols = read_csv(path)
        nxn, nyn = grid.node_counts()
        assert len(cols["x"]) == nxn * nyn
        back = np.array(cols["s_y"]).reshape(nyn, nxn)
        assert np.array_equal(back, field.components[1])


def _component_iterations(system):
    """Iterations of each component, solved with the other loads zeroed."""
    m = system.n // system.n_components
    counts = []
    for c in range(system.n_components):
        rhs = np.zeros(system.n)
        rhs[c * m:(c + 1) * m] = system.rhs[c * m:(c + 1) * m]
        loads = np.zeros_like(system.loads)
        loads[:, c] = system.loads[:, c]
        alone = dataclasses.replace(system, loads=loads)
        assert alone.rhs.tobytes() == rhs.tobytes()
        counts.append(solver.solve_spd(alone).iterations)
    return counts


def _direct_reference(system, values=None):
    """Sparse direct solve of every component on the reduced block."""
    from scipy.sparse.linalg import spsolve

    m = system.n // system.n_components
    mask = system.dirichlet_mask[:m]
    free = ~mask
    A = system.block.tocsr()
    A_ff = A[free][:, free].tocsc()
    x = np.zeros(system.n) if values is None else np.where(system.dirichlet_mask, values, 0.0)
    for c in range(system.n_components):
        xc = x[c * m:(c + 1) * m]
        b = system.rhs[c * m:(c + 1) * m][free] - A[free][:, mask] @ xc[mask]
        xc[free] = spsolve(A_ff, b)
    return x


def _narrow_band_system(a=0.04):
    # 7 periodic x nodes: after one coarsening the x axis has 4 nodes and
    # only y is coarsened further
    band = shapes.band_general(0.0, 1.0, -1.0, 2.0, L=0.05)
    grid = solver.problem_grid(band, a, 1.0 / 128)
    assert grid.node_counts()[0] == 7
    return solver.assemble(grid, band, a)


def _interval_holes_system(a=0.04):
    # the grid [-1.25, 2.30078125] reaches past the box (-0.95, 2.04), so the
    # nodes between its Outside cells are Dirichlet holes inside the node range
    shape = shapes.interval_general(0.0, 1.0, -0.95, 2.04)
    grid = geometry.StructuredGrid(dim=1, origin=(-1.25,), h=1.0 / 256, cells=(909,))
    system = solver.assemble(grid, shape, a)
    assert system.dirichlet_mask[1:-1].any()
    return system


def _radial_system(h, a=0.04):
    ann = shapes.annulus_whole(1.0, 2.0)
    return solver.assemble(solver.problem_grid(ann, a, h), ann, a)


def _void_probe_system(a=0.04):
    """The all-void 1D system, probed with Dirichlet data 1 at both ends."""
    grid = solver.problem_grid(shapes.interval_general(0.0, 1.0, -1.0, 2.0), a, 1.0 / 256)
    return solver.assemble_1d(grid, None, a)


def _csr_bytes(block):
    csr = block.tocsr()
    return csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes


def _box_284():
    ann = shapes.annulus_general(1.0, 2.0, 2.5)
    grid = solver.problem_grid(ann, 0.02, np.sqrt(0.02) / 8)
    assert grid.cells == (284, 284)
    return solver.assemble(grid, ann, 0.02)


def _wavy_253():
    band = harness.canonical_wavy_band()
    grid = solver.problem_grid(band, 0.001, np.sqrt(0.001) / 8)
    assert grid.cells == (253, 534) and grid.periodic_x
    return solver.assemble(grid, band, 0.001)


def _float64_levels(system, count):
    """The first ``count`` levels of ``system``'s hierarchy as ``_galerkin`` forms
    them in float64 from ``system.block`` down: per level its operator, free
    nodes, axis factors, coarse free nodes and coarse operator."""
    grid = system.grid
    periodic = [False] * (grid.dim - 1) + [grid.periodic_x]
    A = system.block.todia()
    free = ~system.dirichlet_nodes.reshape(grid.node_counts()[::-1])
    levels = []
    for _ in range(count):
        factors, keep = zip(*(solver._axis_prolongation(n, p) for n, p in zip(free.shape, periodic)))
        coarse_free = free[np.ix_(*keep)]
        C = solver._galerkin(A, factors, periodic, free, coarse_free)
        levels.append((A, free, factors, coarse_free, C))
        A, free = C, coarse_free
    return levels


#: (node count, periodic) of axes: odd and even, open and ring, too short to coarsen,
#: and the long interval and radial lines of the 1D hierarchies
_AXES = [(9, False), (571, False), (10, False), (286, False), (9, True), (253, True),
         (10, True), (50, True), (4, False), (4, True), (3, True), (3073, False), (7783, False)]


def _upcast(mg):
    """``mg`` with every stored level and the coarse inverse in float64."""
    up = copy.copy(mg)
    up.levels = [
        (A.astype(np.float64), w.astype(np.float64), fixed, tuple(P.astype(np.float64) for P in factors),
         tuple(R.astype(np.float64) for R in restrictions))
        for A, w, fixed, factors, restrictions in mg.levels
    ]
    up.coarse_inverse = mg.coarse_inverse.astype(np.float64)
    return up


class TestDiagonalBlock:
    def test_stored_block_is_smaller_than_its_csr(self):
        # 9 diagonals store 72 bytes a node against CSR's 12 a stored entry plus 4 a row;
        # the periodic band's 11 diagonals pay for 2 wrap diagonals and its empty Outside rows
        for system, bound in ((_box_284(), 0.65), (_wavy_253(), 0.83)):
            block = system.block
            assert block.format == "dia"
            assert block.data.nbytes + block.offsets.nbytes <= bound * _csr_bytes(block)

    @pytest.mark.parametrize("case", ["box", "wavy", "interval", "radial"])
    def test_product_has_the_bits_of_the_csr_product(self, case):
        # each row adds its diagonals in ascending offset, CSR's ascending column order,
        # and a stored 0 adds +-0.0, which leaves a partial sum as it is
        if case == "box":
            system = _box_284()
        elif case == "wavy":
            system = _wavy_253()
        elif case == "interval":
            system, _, _ = _interval_system(n=3072)
        else:
            system = _radial_system(1.0 / 1024)
        block = system.block
        assert block.format == "dia" and np.all(np.diff(block.offsets) > 0)
        x = np.random.default_rng(11).standard_normal(block.shape[0])
        assert (block @ x).tobytes() == (block.tocsr() @ x).tobytes()


def _neighbours(counts, periodic, delta):
    """Flat row and column node of every coupling at ``delta``, and which exist."""
    node = np.indices(counts).reshape(len(counts), -1)
    other = node + np.array(delta)[:, None]
    if periodic:
        other[-1] %= counts[-1]
    valid = np.all((0 <= other) & (other < np.array(counts)[:, None]), axis=0)
    flat = lambda idx: np.ravel_multi_index(np.clip(idx, 0, np.array(counts)[:, None] - 1), counts)
    return flat(node), flat(other), valid


class TestDiaLayout:
    @pytest.mark.parametrize("case", ["interval", "box", "wavy"])
    def test_reading_the_block_gives_its_stencil_sums(self, case):
        # every entry of the CSR block sits at one stencil offset of its row node
        if case == "interval":
            system, _, _ = _interval_system(n=96)
        elif case == "box":
            ann = shapes.annulus_general(1.0, 2.0, 2.5)
            system = solver.assemble(solver.problem_grid(ann, 0.04, 0.1), ann, 0.04)
        else:
            band = harness.canonical_wavy_band()
            system = solver.assemble(solver.problem_grid(band, 0.1, np.sqrt(0.1) / 8), band, 0.1)
        grid = system.grid
        counts = grid.node_counts()[::-1]
        csr = system.block.tocsr()
        offsets, places = solver._dia_layout(counts, grid.periodic_x)
        assert system.block.offsets.tolist() == offsets
        if grid.periodic_x:  # the NW and SE wrap entries of the band's 11 diagonals
            nx = counts[-1]
            assert {1 - 2 * nx, 2 * nx - 1} < set(offsets)
            for offset in (1 - 2 * nx, 2 * nx - 1):
                assert np.count_nonzero(_diagonal(system.block, offset))
        free = np.ones(counts, bool)
        stored = 0
        for delta, here in places.items():
            got = solver._read_stencil(system.block, here, free)
            rows, cols, valid = _neighbours(counts, grid.periodic_x, delta)
            want = np.zeros(rows.size)
            want[valid] = np.asarray(csr[rows[valid], cols[valid]]).ravel()
            assert got.tobytes() == want.reshape(counts).tobytes(), delta
            stored += np.count_nonzero(got)
        assert stored == csr.count_nonzero()

    @pytest.mark.parametrize("counts, periodic", [((11,), False), ((7, 9), False), ((7, 9), True), ((5, 3), True)])
    def test_writing_then_reading_is_the_identity(self, counts, periodic):
        rng = np.random.default_rng(13)
        stencils, masked = [], []
        free = rng.random(counts) < 0.8
        for delta in itertools.product((-1, 0, 1), repeat=len(counts)):
            rows, cols, valid = _neighbours(counts, periodic, delta)
            stencil = np.where(valid, rng.standard_normal(rows.size), 0.0)
            stencils.append(stencil.reshape(counts))
            both = valid & free.ravel()[rows] & free.ravel()[cols]
            masked.append(np.where(both, stencil, 0.0).reshape(counts))
        offsets, places = solver._dia_layout(counts, periodic)
        block = solver._dia_block(counts, periodic, stencils)
        assert block.format == "dia" and block.offsets.tolist() == offsets
        everywhere = np.ones(counts, bool)
        for stencil, want, here in zip(stencils, masked, places.values()):
            assert np.array_equal(solver._read_stencil(block, here, everywhere), stencil)
            assert np.array_equal(solver._read_stencil(block, here, free), want)
        # a free mask on writing zeros the same couplings
        written = solver._dia_block(counts, periodic, stencils, free)
        for want, here in zip(masked, places.values()):
            assert np.array_equal(solver._read_stencil(written, here, everywhere), want)


class TestMultigrid:
    @pytest.mark.parametrize("a", [0.04, 0.01])
    def test_annulus_iterations_flat_in_h(self, a):
        ann = shapes.annulus_general(1.0, 2.0, 2.5)
        grid = solver.problem_grid(ann, a, np.sqrt(a) / 8)
        counts = _component_iterations(solver.assemble(grid, ann, a))
        assert all(0 < k <= 12 for k in counts), counts

    @pytest.mark.parametrize("a", [0.02, 0.004])
    def test_wavy_band_iterations_flat_in_h(self, a):
        band = harness.canonical_wavy_band()
        grid = solver.problem_grid(band, a, np.sqrt(a) / 8)
        assert grid.node_counts()[0] % 2 == 1
        counts = _component_iterations(solver.assemble(grid, band, a))
        assert counts[0] == 0  # flat interfaces: no x load
        assert 0 < counts[1] <= 12, counts

    def test_axis_prolongation(self):
        for n, periodic in ((9, False), (10, False), (9, True), (10, True), (4, True)):
            P, coarse = solver._axis_prolongation(n, periodic)
            assert P.shape == (n, len(coarse))
            assert np.allclose(np.asarray(P.sum(axis=1)).ravel(), 1.0)
            assert np.array_equal(P.toarray()[coarse], np.eye(len(coarse)))
        assert solver._axis_prolongation(4, True)[1].tolist() == [0, 1, 2, 3]
        assert solver._axis_prolongation(10, False)[1].tolist() == [0, 2, 4, 6, 8, 9]
        assert solver._axis_prolongation(10, True)[0].toarray()[9].tolist() == [0.5, 0, 0, 0, 0.5]

    def test_semi_coarsening(self):
        # 421 x 7 nodes: level 0 halves both axes; below level 1 the x axis stays
        # at 4 nodes and only y halves, an open axis of n nodes to n // 2 + 1
        system = _narrow_band_system()
        free = ~system.dirichlet_mask[: system.n // 2]
        mg = solver._Multigrid(system.block, system.grid, free)
        assert [f.shape for f in mg.levels[0][3]] == [(421, 211), (7, 4)]
        assert len(mg.levels) >= 3
        for (_, _, _, (py, px), _), below in zip(mg.levels[1:], mg.levels[2:] + [None]):
            assert px.shape == (4, 4) and not (px != sp.identity(4)).nnz
            assert py.shape[1] == py.shape[0] // 2 + 1
            if below is not None:
                assert below[3][0].shape[0] == py.shape[1]
        assert _component_iterations(system)[1] <= 12

    @pytest.mark.parametrize("case", ["annulus", "wavy", "narrow", "interval-holes", "radial", "void-probe"])
    def test_matches_sparse_direct(self, case):
        if case == "annulus":
            ann = shapes.annulus_general(1.0, 2.0, 2.5)
            system = solver.assemble(solver.problem_grid(ann, 0.04, 0.025), ann, 0.04)
        elif case == "wavy":
            band = harness.canonical_wavy_band()
            system = solver.assemble(solver.problem_grid(band, 0.02, np.sqrt(0.02) / 8), band, 0.02)
        elif case == "narrow":
            system = _narrow_band_system()
        elif case == "interval-holes":
            system = _interval_holes_system()
        elif case == "radial":
            system = _radial_system(1.0 / 1024)
        else:
            system = _void_probe_system()
        if system.grid.dim == 1:  # large enough to reach the 1D hierarchy
            assert np.count_nonzero(~system.dirichlet_mask) > solver._COARSEST_UNKNOWNS
        if case == "void-probe":
            data = np.ones(system.n)
            field = solver.homogeneous_boundary_probe(system, data)
        else:
            data = None
            field = solver.solve_spd(system)
        ref = _direct_reference(system, data)
        flat = np.concatenate([c.ravel() for c in field.components])
        assert np.max(np.abs(flat - ref)) <= 1e-8 * np.max(np.abs(ref))

    @pytest.mark.parametrize(
        "case, h", [("radial", 1 / 256), ("radial", 1 / 1024), ("interval", 1 / 512), ("interval", 1 / 4096)]
    )
    def test_1d_iterations_flat_in_h(self, case, h):
        if case == "radial":
            system = _radial_system(h)
        else:
            system, _, _ = _interval_system(n=round(3 / h))
        assert np.count_nonzero(~system.dirichlet_mask) > solver._COARSEST_UNKNOWNS  # above the dense coarse solve
        assert 0 < solver.solve_spd(system).iterations <= 12

    @pytest.mark.parametrize("case", ["interval", "radial", "wavy", "annulus", "narrow"])
    def test_dense_level_is_the_first_within_the_coarsest_size(self, case):
        # coarsening stops at the first level of at most _COARSEST_UNKNOWNS free nodes
        if case == "interval":
            system, _, _ = _interval_system(n=3072)
        elif case == "radial":
            system = _radial_system(1.0 / 1024)
        elif case == "wavy":
            band = harness.canonical_wavy_band()
            system = solver.assemble(solver.problem_grid(band, 0.004, np.sqrt(0.004) / 8), band, 0.004)
        elif case == "annulus":
            ann = shapes.annulus_general(1.0, 2.0, 2.5)
            system = solver.assemble(solver.problem_grid(ann, 0.04, 0.025), ann, 0.04)
        else:
            system = _narrow_band_system()
        mask = system.dirichlet_mask[: system.n // system.n_components]
        mg = solver._Multigrid(system.block, system.grid, ~mask)
        assert mg.coarse_inverse.shape == (len(mg.coarse_free),) * 2
        assert 0 < len(mg.coarse_free) <= solver._COARSEST_UNKNOWNS
        above, _, fixed, _, _ = mg.levels[-1]
        assert above.shape[0] - len(fixed) > solver._COARSEST_UNKNOWNS

    def test_gridless_block_coarsens_as_one_axis(self):
        # a 1D Laplacian with a small shift that no assembler built, on a bare
        # 1D grid of m nodes: (m,) node counts
        m = 2000
        b = np.random.default_rng(3).standard_normal(m)
        system = _line_system(m, 2.001, -1.0, b)
        block = system.block
        assert (block != sp.diags([-1.0, 2.001, -1.0], [-1, 0, 1], shape=(m, m))).nnz == 0
        mg = solver._Multigrid(block, system.grid, np.ones(m, bool))
        # an open even axis keeps its last node: 2000 -> 1001 -> 501 -> 251 nodes
        assert [lv[0].shape[0] for lv in mg.levels] == [2000, 1001, 501]
        assert mg.coarse_inverse.shape == (251, 251)
        field = solver.solve_spd(system)
        assert 0 < field.iterations <= 12
        assert np.max(np.abs(block @ field.components[0] - b)) <= 1e-8 * np.max(np.abs(b))

    def test_2d_prolongation_is_the_kron_of_the_axes(self):
        # every level's axis-by-axis transfers against kron(P_y, P_x) with the fixed
        # fine rows and fixed coarse columns emptied; the wavy band's x axis is
        # periodic, and its open y axis has 108 nodes at h = 0.02 and 87 at 0.025
        band = harness.canonical_wavy_band()
        rng = np.random.default_rng(7)
        for h, ny in ((0.02, 108), (0.025, 87)):
            grid = solver.problem_grid(band, 0.02, h)
            system = solver.assemble(grid, band, 0.02)
            free = ~system.dirichlet_mask[: system.n // 2].reshape(grid.node_counts()[::-1])
            mg = solver._Multigrid(system.block, grid, free.ravel())
            assert len(mg.levels) >= 2 and free.shape[0] == ny
            for _, _, fixed, factors, restrictions in mg.levels:
                keep = [solver._axis_prolongation(n, p)[1] for n, p in zip(free.shape, (False, True))]
                coarse_free = free[np.ix_(*keep)]
                assert np.array_equal(fixed, np.flatnonzero(~free))
                P = sp.kron(*factors, format="csr").multiply(free.reshape(-1, 1))
                P = P.multiply(coarse_free.reshape(1, -1)).tocsr()
                # positive entries, so no sum cancels and both orders agree to rounding
                e = rng.random(coarse_free.size) * coarse_free.ravel()
                got = solver._along_axes(factors, e)
                got[fixed] = 0.0
                np.testing.assert_allclose(got, P @ e, rtol=1e-14, atol=0)
                r = rng.random(free.size) * free.ravel()
                got = solver._along_axes(restrictions, r)[coarse_free.ravel()]
                np.testing.assert_allclose(got, (P.T @ r)[coarse_free.ravel()], rtol=1e-14, atol=0)
                free = coarse_free

    def test_finest_coarse_operator_matches_the_reduced_product(self):
        # the level-1 operator on the odd ring of 253 nodes, formed in float64 and
        # stored in float32, against the product with the reduced block, to rounding
        band = harness.canonical_wavy_band()
        grid = solver.problem_grid(band, 0.001, np.sqrt(0.001) / 8)
        system = solver.assemble(grid, band, 0.001)
        free = ~system.dirichlet_mask[: system.n // 2]
        mg = solver._Multigrid(system.block, grid, free)
        nx, ny = grid.node_counts()
        assert nx == 253
        px, keep_x = solver._axis_prolongation(nx, True)
        py, keep_y = solver._axis_prolongation(ny, False)
        coarse_free = free.reshape(ny, nx)[np.ix_(keep_y, keep_x)].ravel()
        P = sp.kron(py, px, format="csr")[free][:, coarse_free]
        want = P.T @ system.block.tocsr()[free][:, free] @ P
        bound = abs(P).T @ abs(system.block.tocsr()[free][:, free]) @ abs(P)
        ((_, _, _, _, level_1),) = _float64_levels(system, 1)
        assert mg.levels[1][0].format == level_1.format == "dia"
        assert mg.levels[1][0].data.tobytes() == level_1.data.astype(np.float32).tobytes()
        level_1 = level_1.tocsr()
        assert level_1[~coarse_free].count_nonzero() == level_1[:, ~coarse_free].count_nonzero() == 0
        got = level_1[coarse_free][:, coarse_free]
        assert (abs(got - want) > 1e-14 * bound).nnz == 0

    @pytest.mark.parametrize("n, periodic", _AXES)
    def test_axis_prolongation_is_a_canonical_csr(self, n, periodic):
        # each row's columns strictly ascending (sorted, no duplicates), the ring's
        # last node included, and no stored zeros
        factor = solver._axis_prolongation(n, periodic)[0]
        assert factor.format == "csr" and factor.shape[0] == n
        assert all(np.all(np.diff(row) > 0) for row in np.split(factor.indices, factor.indptr[1:-1]))
        assert np.all(factor.data != 0)

    @pytest.mark.parametrize("n, periodic", _AXES)
    def test_axis_weights_are_the_products_of_the_factor_entries(self, n, periodic):
        # W_d[(D + 1) nc + I, i] = P[i, I] P[i + d, I + D], wrapped on a ring, exactly,
        # in CSR rows that a product sums in column order, with no stored zeros
        P = solver._axis_prolongation(n, periodic)[0]
        nc = P.shape[1]
        i, I = np.arange(n), np.arange(nc)
        weights = solver._axis_weights(P, periodic)
        assert sorted(weights) == [-1, 0, 1]
        for d, W in weights.items():
            want = []
            for D in (-1, 0, 1):
                j, J = i + d, I + D
                on_j = periodic | (0 <= j) & (j < n)
                on_J = periodic | (0 <= J) & (J < nc)
                # [I, i] = P[i, I] P[i + d, I + D], 0 where i + d or I + D is off an open axis;
                # sparse, so the long 1D axes need no dense (3 nc, n) array
                shifted = sp.diags(on_j * 1.0) @ P[j % n][:, J % nc] @ sp.diags(on_J * 1.0)
                want.append(P.multiply(shifted).T)
            assert W.format == "csr" and W.dtype == np.float64 and W.shape == (3 * nc, n)
            assert (W != sp.vstack(want).tocsr()).nnz == 0, d
            assert W.has_sorted_indices and np.all(W.data != 0)

    @pytest.mark.parametrize("case", ["box", "wavy-even", "narrow", "interval", "radial", "gridless"])
    def test_coarse_operators_match_the_kron_product(self, case):
        """Every level's ``P^T A P`` against the product with ``kron`` transfers.

        The boxed annulus at a = 0.005 has odd open axes of 571 nodes and an
        even open axis of 286 on level 1, whose last node is kept; the wavy
        band at h = 0.02 has an even ring of 50 nodes; the narrow band keeps
        its 4-node ring below level 1 (an identity factor).
        """
        if case == "box":
            ann = shapes.annulus_general(1.0, 2.0, 2.5)
            system = solver.assemble(solver.problem_grid(ann, 0.005, 1.0 / 114), ann, 0.005)
            assert system.grid.node_counts() == (571, 571)
        elif case == "wavy-even":
            band = harness.canonical_wavy_band()
            system = solver.assemble(solver.problem_grid(band, 0.02, 0.02), band, 0.02)
            assert system.grid.node_counts()[0] == 50
        elif case == "narrow":
            system = _narrow_band_system()
        elif case == "interval":
            system, _, _ = _interval_system(n=3072)
        elif case == "radial":
            system = _radial_system(1.0 / 1024)
        else:
            system = _line_system(2000, 2.001, -1.0, np.ones(2000))
        grid = system.grid
        periodic = [False] * (grid.dim - 1) + [grid.periodic_x]
        mg = solver._Multigrid(system.block, grid, ~system.dirichlet_nodes)
        if case == "box":
            assert [lv[0].shape[0] for lv in mg.levels[:2]] == [571**2, 286**2]
        assert system.block.dtype == np.float64 and mg.coarse_inverse.dtype == np.float32
        levels = _float64_levels(system, len(mg.levels))
        for k, ((A, free, factors, coarse_free, C), stored) in enumerate(zip(levels, mg.levels)):
            # each level is stored as the float32 copy of the float64 operator
            assert stored[0].format == "dia" and stored[0].offsets.tolist() == A.offsets.tolist()
            assert all(e.dtype == np.float32 for e in (stored[0], stored[1], *stored[3], *stored[4]))
            assert stored[0].data.tobytes() == A.data.astype(np.float32).tobytes()
            assert np.array_equal(stored[2], np.flatnonzero(~free))
            assert all((S != F).nnz == 0 for S, F in zip(stored[3], factors))
            assert C.offsets.tolist() == solver._dia_layout(coarse_free.shape, periodic[-1])[0]
            P = factors[0] if len(factors) == 1 else sp.kron(*factors, format="csr")
            P = (sp.diags(free.ravel() * 1.0) @ P @ sp.diags(coarse_free.ravel() * 1.0)).tocsr()
            want = P.T @ A.tocsr() @ P
            bound = abs(P).T @ abs(A.tocsr()) @ abs(P)
            C = C.tocsr()
            assert (abs(C - want) > 1e-14 * bound).nnz == 0, k
            fixed_coarse = ~coarse_free.ravel()
            assert C[fixed_coarse].count_nonzero() == C[:, fixed_coarse].count_nonzero() == 0

    @pytest.mark.parametrize("case, counts", [("annulus", [7, 7]), ("wavy", [0, 7])])
    def test_iterations_no_higher_than_with_product_formed_coarse_operators(self, case, counts, monkeypatch):
        # the per-component counts with coarse operators formed as CSR products
        # P^T A P, on the whole grid; a wrongly masked coarse stencil raises them first
        _refuse_every_mirror(monkeypatch)
        if case == "annulus":
            shape, a = shapes.annulus_general(1.0, 2.0, 2.5), 0.04
        else:
            shape, a = harness.canonical_wavy_band(), 0.004
        grid = solver.problem_grid(shape, a, np.sqrt(a) / 8)
        if case == "annulus":
            assert grid.node_counts() == (201, 201)
        got = _component_iterations(solver.assemble(grid, shape, a))
        assert all(g <= c for g, c in zip(got, counts)), got

    def test_free_block_matvec_matches_the_reduced_block(self):
        band = harness.canonical_wavy_band()
        system = solver.assemble(solver.problem_grid(band, 0.02, 0.02), band, 0.02)
        mask = system.dirichlet_mask[: system.n // 2]
        free = ~mask
        x = np.where(free, np.random.default_rng(5).standard_normal(free.size), 0.0)
        # CG's product: the whole block's, zeroed on the fixed rows
        got = system.block @ x
        got[mask] = 0.0
        assert got[free].tobytes() == (system.block.tocsr()[free][:, free] @ x[free]).tobytes()
        assert not got[mask].any()

    def test_vcycle_is_symmetric_and_zero_on_fixed_nodes(self):
        # CG needs a symmetric preconditioner; a residual left nonzero on the
        # Dirichlet rows before restriction breaks the symmetry at about 1e-2.
        # In float64 the cycle is symmetric to 1e-12; the shipped float32 cycle
        # is symmetric up to float32 rounding
        band = harness.canonical_wavy_band()
        wavy = solver.assemble(solver.problem_grid(band, 0.02, 0.02), band, 0.02)
        rng = np.random.default_rng(3)
        for system in (wavy, _interval_holes_system()):
            mask = system.dirichlet_mask[: system.n // system.n_components]
            mg = solver._Multigrid(system.block, system.grid, ~mask)
            assert mg.levels
            u, v = (np.where(mask, 0.0, rng.standard_normal(mask.size)) for _ in range(2))
            for cycle, tolerance in ((_upcast(mg), 1e-12), (mg, 16 * np.finfo(np.float32).eps)):
                Mu, Mv = cycle(u), cycle(v)
                assert Mu.dtype == Mv.dtype == np.float64
                assert abs(u @ Mv - v @ Mu) <= tolerance * abs(u @ Mv)
                assert u @ Mu > 0 and not Mu[mask].any()

    @pytest.mark.parametrize("case", ["annulus", "wavy", "interval"])
    def test_coarse_inverse_inverts_the_free_block_bit_for_bit(self, case):
        # the inverse of the float64 coarsest operator's free block, cast once: the
        # open boxed annulus, the periodic wavy band, and a line with no levels,
        # whose inverse stays in float64
        if case == "annulus":
            ann = shapes.annulus_general(1.0, 2.0, 2.5)
            system = solver.assemble(solver.problem_grid(ann, 0.04, 0.025), ann, 0.04)
        elif case == "wavy":
            band = harness.canonical_wavy_band()
            system = solver.assemble(solver.problem_grid(band, 0.02, 0.02), band, 0.02)
        else:
            system, _, _ = _interval_system(n=96)
        mg = solver._Multigrid(system.block, system.grid, ~system.dirichlet_nodes)
        assert bool(mg.levels) == (case != "interval")
        A = _float64_levels(system, len(mg.levels))[-1][-1] if mg.levels else system.block.todia()
        cf = mg.coarse_free
        want = np.linalg.inv(A.tocsr()[cf][:, cf].toarray()).astype(mg.coarse_inverse.dtype)
        assert mg.coarse_inverse.tobytes() == want.tobytes()

    def test_hierarchy_without_levels_keeps_a_float64_inverse(self):
        # at most _COARSEST_UNKNOWNS free unknowns: the dense inverse is the whole
        # cycle, so it stays in float64 and solves in 1 CG iteration (2 in float32)
        system, _, _ = _interval_system(n=96)
        free = ~system.dirichlet_nodes
        assert np.count_nonzero(free) <= solver._COARSEST_UNKNOWNS
        mg = solver._Multigrid(system.block, system.grid, free)
        assert mg.levels == [] and mg.coarse_inverse.dtype == np.float64
        field = solver.solve_spd(system)
        assert field.iterations == 1 and field.components[0].dtype == np.float64

    def test_hierarchy_keeps_less_than_half_a_block(self):
        """tracemalloc on the 284^2 boxed annulus, in units of the CSR block's bytes.

        With stored prolongations and free-node weights the hierarchy kept
        0.85 blocks; with transfers from the axis factors it kept 0.50, and
        0.43 with CSR coarse operators formed strip by strip; with coarse
        stencils in diagonals it keeps 0.33.  The build peaked 19.9 node
        vectors above its entry while ``_galerkin`` built the whole ``kron``
        prolongation and its transpose, 8.8 with strip-local transfers, and
        7.5 stencil by stencil.
        """
        system = _box_284()
        grid = system.grid
        free = ~system.dirichlet_mask[: system.n // 2]
        block = system.block  # formed on its first read, outside the trace
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            mg = solver._Multigrid(block, grid, free)
            kept, peak = (m - held for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert kept < 0.6 * _csr_bytes(system.block)
        assert peak < 10 * 8 * system.block.shape[0]
        # no level holds a fine-by-coarse matrix; the dense inverse covers free nodes only
        assert all(e.shape[0] == e.shape[1] for level in mg.levels for e in level if sp.issparse(e))
        assert mg.coarse_inverse.shape == (len(mg.coarse_free),) * 2

    def test_assembly_and_solve_memory_scale_with_the_block(self):
        """tracemalloc peaks on the 284^2 boxed annulus, in units of the CSR block's bytes.

        Summing COO triplets peaked at 4.42 blocks in ``assemble_2d``, and the
        reduced copy of the block at 3.09 in ``solve_spd``; the 9-point sums
        into CSR peaked at 2.21, and the solve peaked at 1.85 on free-node
        vectors with stored prolongations and at 1.58 on node-length vectors
        without them.  Sums written straight into diagonals peak at 1.23, the
        solve with strip-local transfers at 1.14, and with every level in
        diagonals at 1.04.  From before the assembly through the symmetric
        solve, the peak was 0.58 blocks while the system kept both node loads
        through the quadrant CG, and is 0.42 with per-cell load tables alone.
        """
        ann = shapes.annulus_general(1.0, 2.0, 2.5)
        grid = solver.problem_grid(ann, 0.02, np.sqrt(0.02) / 8)
        assert grid.cells == (284, 284)
        tracemalloc.start()
        try:
            system = solver.assemble_2d(grid, ann, 0.02)
            assemble_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            solver.solve_spd(system)
            solve_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        through_peak = max(assemble_peak, held + solve_peak)
        block_bytes = _csr_bytes(system.block)
        assert assemble_peak < 3.0 * block_bytes
        assert solve_peak < 2.5 * block_bytes
        assert through_peak < 0.5 * block_bytes

    def test_probe_with_data_on_both_components(self):
        ann = shapes.annulus_general(1.0, 2.0, 2.5)
        grid = solver.problem_grid(ann, 0.04, 0.05)
        system = solver.assemble_2d(grid, ann, 0.04)
        X, Y = np.meshgrid(grid.node_coords(0), grid.node_coords(1))
        data = np.concatenate([(np.cos(X) * Y).ravel(), (X + Y**2).ravel()])
        field = solver.homogeneous_boundary_probe(system, data)
        assert field.iterations > 0
        flat = np.concatenate([c.ravel() for c in field.components])
        assert np.array_equal(flat[system.dirichlet_mask], data[system.dirichlet_mask])
        ref = _direct_reference(dataclasses.replace(system, loads=np.zeros_like(system.loads)), data)
        assert np.max(np.abs(flat - ref)) <= 1e-8 * np.max(np.abs(ref))

    def test_repeat_solves_bit_identical(self):
        band = harness.canonical_wavy_band()
        system = solver.assemble(solver.problem_grid(band, 0.02, 0.02), band, 0.02)
        f1 = solver.solve_spd(system)
        f2 = solver.solve_spd(system)
        assert f1.iterations == f2.iterations
        assert all(np.array_equal(c1, c2) for c1, c2 in zip(f1.components, f2.components))

    def test_zero_load_component_is_exactly_zero(self):
        band = shapes.band_general(0.0, 1.0, -1.0, 2.0, L=1.0)
        system = solver.assemble(solver.problem_grid(band, 0.04, 1.0 / 32), band, 0.04)
        field = solver.solve_spd(system)
        assert not np.any(field.components[0])
        assert np.any(field.components[1])
        assert field.iterations == _component_iterations(system)[1]

    def test_full_matrix_is_block_diagonal(self):
        system = _narrow_band_system()
        m = system.n // 2
        A = system.matrix
        assert A.shape == (system.n, system.n)
        block = system.block.tocsr()
        assert (A[:m, :m] != block).nnz == 0
        assert (A[m:, m:] != block).nnz == 0
        assert A[:m, m:].nnz == 0


def test_solve_imports_no_scipy_linalg():
    """A fresh ``import pdethick`` and a 2D solve leave both linalg modules unloaded.

    Importing ``scipy.linalg`` or ``scipy.sparse.linalg`` costs 8-10 MiB of
    RSS and 0.16-0.2 s of start-up, and the V-cycle needs neither.
    """
    code = textwrap.dedent("""
        import sys
        import pdethick
        from pdethick import shapes, solver
        ann = shapes.annulus_general(1.0, 2.0, 2.5)
        system = solver.assemble(solver.problem_grid(ann, 0.04, 0.05), ann, 0.04)
        assert solver.solve_spd(system).iterations > 0
        print(sorted(m for m in ("scipy.linalg", "scipy.sparse.linalg") if m in sys.modules))
    """)
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(solver.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def _digests_at_one_and_two_blas_threads(code):
    """What ``code`` prints, run in a fresh process at one and at two OpenBLAS threads."""
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(solver.__file__).parents[1]), OPENBLAS_NUM_THREADS=threads)
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout.strip())
    return digests


def test_probe_bytes_do_not_depend_on_the_blas_thread_count():
    """The boxed-annulus tail probe of ``max-principle`` gives the same field
    bytes in fresh processes at one and two OpenBLAS threads: CG's reductions
    run in NumPy's own loop, whose summation order no thread count changes."""
    if harness._cpus() < 2:
        pytest.skip("one CPU: OpenBLAS runs one thread at any setting")
    code = textwrap.dedent("""
        import hashlib
        from pdethick import harness, shapes, solver
        a = 0.04
        shape = shapes.annulus_general(1.0, 2.0, 2.5)
        system = harness._system(shape, a, harness.target_h(a))
        field = solver.homogeneous_boundary_probe(system, harness._tail_data(system, shape, a))
        print(hashlib.sha256(b"".join(c.tobytes() for c in field.components)).hexdigest())
    """)
    digests = _digests_at_one_and_two_blas_threads(code)
    assert digests[0] == digests[1]


def test_folded_probe_bytes_do_not_depend_on_the_blas_thread_count():
    """The flat band's tail probe of ``max-principle`` folds its second component
    on both axes onto 207 free unknowns, too few for a coarse level: its dense
    float64 inverse, which OpenBLAS factors over its threads from 100 unknowns
    up, is formed on one thread, so the field bytes match at one and two."""
    if harness._cpus() < 2:
        pytest.skip("one CPU: OpenBLAS runs one thread at any setting")
    code = textwrap.dedent("""
        import hashlib
        from pdethick import harness, solver
        (_, system, data), = [p for p in harness._max_principle_probes(0.04) if p[0] == "band-tail"]
        field = solver.homogeneous_boundary_probe(system, data)
        print(field.iterations, hashlib.sha256(b"".join(c.tobytes() for c in field.components)).hexdigest())
    """)
    digests = _digests_at_one_and_two_blas_threads(code)
    assert digests[0] == digests[1]

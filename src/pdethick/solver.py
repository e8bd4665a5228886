"""Finite element discretization of the weak form in three flavors.

  * 1D intervals: piecewise-linear elements on [b_l, b_r] (or a truncated
    whole line), stiffness a/h, consistent void mass, right-hand side
    +1 / -1 at the interface nodes (the shape functional integrates to the
    boundary values when the interfaces are nodal).  Outside cells, left
    where a box end is not a node, carry stiffness and no mass, and only a
    node flanked by Outside cells on both sides is Dirichlet, beside the
    two ends.
  * Radial annulus: weighted P1 elements on (0, R] with stiffness weight r,
    singular mass weight 1/r and void mass weight r, all by 2-point Gauss
    quadrature per element; right-hand side +f_r / -f_l at the interface
    nodes.  The innermost node sits at r = h and carries a homogeneous
    Dirichlet value (the true solution behaves like r near the axis, and the
    O(h) closure error is exponentially damped before it reaches f_l); the
    grid must satisfy f_l >= 10 h.
  * Full 2D: bilinear quadrilaterals with one scalar operator shared by the
    two vector components (the bilinear form decouples componentwise),
    cellwise characteristic function from the classification, exact per-cell
    integration of the basis gradients over shape cells for the load, and
    Dirichlet values on the box boundary plus every node touching an Outside
    cell (staircase boundary); Outside cells carry nothing.

A solve has one way in: ``problem_grid(shape, a, h)`` is the one place
that builds each family's solve grid, and ``assemble(grid, shape, a)`` picks
the 1D, radial or 2D assembler from the grid and returns a
:class:`SparseSystem` bound to that grid, which ``solve_spd`` solves.

Whole-space problems are truncated at distance 28 sqrt(a) beyond the shape
boundary; the homogeneous-equation decay makes the truncation error at most
~exp(-28) < 1e-12, below solver tolerance.

Every system is solved by one preconditioned conjugate-gradient loop, one
vector component at a time, except where a 2D system and its loads are
symmetric under both reflections and the transpose, as the boxed annulus's
are: there CG runs once, on the first component folded onto a quarter of the
grid by its parity, odd in x and even in y, and the second component is the
first's transpose (Bossavit, *SIAM J. Appl. Math.* 53, 1993).  CG is
preconditioned by a geometric multigrid V-cycle on its uniform grid, whether
1D, radial or 2D (Briggs, Henson & McCormick,
*A Multigrid Tutorial*, 2nd ed., SIAM 2000): linear or bilinear
prolongation, Galerkin coarse operators, damped-Jacobi smoothing and a dense
solve on the coarsest level, so the iteration count stays flat as h shrinks.
The V-cycle runs in float32 under float64 CG (Goeddeke, Strzodka & Turek,
*IJPEDS* 22, 2007), which halves the bytes its memory-bound products move.

Every level's operator is a nearest-neighbour stencil per node, stored as
diagonals in one layout (DIA; Saad, *Iterative Methods for Sparse Linear
Systems*, 2nd ed., SIAM 2003, section 3.4).  Every assembler hands it one
``(tables, index)`` pair, one element matrix per cell, and each block row
sums the element matrices of the cells around its node in the order a COO
sum over the cells adds them, so the block and its products have the bits of
that CSR block;
the same per-node sum writes the 2D load and Dirichlet nodes, and one
corner gather hands each cell its corner values, so only these two know the
corner order and the periodic seam.  Coarse operators are formed stencil
by stencil, axis by axis.  CG and every level work on vectors over all
nodes of their grid, 0 on the fixed nodes, so no block restricted to the
free nodes and no 2D prolongation is stored.  A system forms its block on
the first read, which a quadrant solve never makes, and keeps its whole-grid
hierarchy, so its element matrices and Dirichlet nodes must not change after
its first solve; a quadrant and its hierarchy live for one solve.  CG sums in
NumPy's einsum loop, not BLAS, so repeated solves get the same bits on one
platform at any thread count, whatever runs beside them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, TextIO, Tuple, Union

import numpy as np
import scipy.sparse as sp

from .errors import GridError, NonConvergenceError, NonNodalInterfaceError
from .geometry import CellClassification, CellLabel, StructuredGrid, classify_cells
from .geometry import write_csv, write_grid_csv
from .shapes import Family, ShapeSpec

#: Truncation distance (in units of sqrt(a)) for whole-space domains.
TRUNCATION_LAYERS = 28.0

#: Minimum number of cells across the shape thickness in 2D.
MIN_CELLS_ACROSS = 4

#: Hard cap on the nodes of a solve grid (documented limit, checked before any
#: array exists): a 2D solve on the whole grid at the cap peaks near 3.5 GB,
#: at about 103 bytes per unknown (2 a node) above the import; a boxed annulus
#: solved on its quadrant at about 33 (38 at 0.6M unknowns, a = 0.005).
MAX_NODES = 1 << 24

_GAUSS_OFFSET = 0.5 / math.sqrt(3.0)  # 2-point Gauss offsets from the midpoint


@dataclass(frozen=True, eq=False)
class SparseSystem:
    """Assembled symmetric system on its grid, with Dirichlet bookkeeping.

    The operator is block diagonal: one copy of the scalar ``block`` per
    vector component, ``n_components == grid.dim`` of them, since the
    bilinear form decouples componentwise; ``index``, shaped like the cells,
    picks each cell's element matrix from ``tables`` (:func:`_node_sums`).
    ``rhs`` stacks the components' loads.  ``dirichlet_nodes`` marks the
    constrained grid nodes, the same in every component.  The block
    restricted to the free nodes is symmetric positive definite; the solver
    applies it through the whole block and never builds it.  ``block`` is
    formed on its first read (:func:`_stencil_block`) and kept, in
    :func:`_dia_layout`'s diagonals, 0 wherever no cell carries an entry,
    so on a 2D grid the rows at nodes touching only Outside cells are 0;
    ``block.tocsr()`` is the int32 CSR block with sorted columns and no
    stored zeros.  ``multigrid``, the V-cycle hierarchy, is built on the
    first solve that runs on the whole grid and reused, so neither the
    element matrices nor the Dirichlet nodes may change after that solve.
    On a 2D system whose ``index`` and Dirichlet nodes are symmetric under
    both reflections and the transpose (:func:`_is_symmetric`), a solve
    whose loads have that symmetry folds the system onto the quadrant
    x, y >= 0 (:func:`_fold`) for that solve alone, keeps nothing of it,
    and never forms ``block``.

    ``matrix`` (the full operator as that CSR, built anew on each read) and
    the full-length ``dirichlet_mask`` stay because the benchmark's span
    tracer (``perfbench/spans.py``) reads them; the solver works on
    ``block`` and ``dirichlet_nodes`` alone.
    """

    tables: np.ndarray
    index: np.ndarray
    rhs: np.ndarray
    dirichlet_nodes: np.ndarray
    grid: StructuredGrid
    classification: Optional[CellClassification] = None

    @cached_property
    def block(self) -> sp.dia_matrix:
        return _stencil_block(self.grid, self.tables, self.index)

    @cached_property
    def multigrid(self) -> "_Multigrid":
        return _Multigrid(self.block, self.grid, ~self.dirichlet_nodes)

    @property
    def n_components(self) -> int:
        return self.grid.dim

    @property
    def n(self) -> int:
        return len(self.rhs)

    @property
    def dirichlet_mask(self) -> np.ndarray:
        return np.tile(self.dirichlet_nodes, self.n_components)

    @property
    def matrix(self) -> sp.csr_matrix:
        block = self.block.tocsr()
        if self.n_components == 1:
            return block
        return sp.block_diag([block] * self.n_components, format="csr")


@dataclass
class DiscreteField:
    """Nodal solution values; one array per vector component.

    2D components are shaped (ny_nodes, nx_nodes); 1D fields hold a single
    flat array.  ``iterations`` counts the CG iterations run, summed over
    the solves; a component derived by symmetry from another adds none.
    """

    grid: StructuredGrid
    components: Tuple[np.ndarray, ...]
    iterations: Optional[int] = None


def _locate_node(coords: np.ndarray, value: float, h: float, what: str) -> int:
    idx = int(round((value - coords[0]) / h))
    if idx < 0 or idx >= len(coords) or abs(coords[idx] - value) > 1e-9 * max(h, 1.0):
        raise NonNodalInterfaceError(
            f"{what} = {value} does not coincide with a grid node (h = {h})"
        )
    return idx


def _interval_grid(shape: ShapeSpec, a: float, h_target: float) -> StructuredGrid:
    """1D grid over (b_l, b_r), or the whole line truncated 28 sqrt(a) out,
    whose nodes hit f_l and f_r exactly.

    h is snapped to divide the shape width; the box ends are moved outward to
    the nearest node if they are not commensurate.
    """
    T = shape.thickness
    n_shape = max(1, round(T / h_target))
    h = T / n_shape
    if shape.family == Family.INTERVAL_WHOLE:
        pad = TRUNCATION_LAYERS * math.sqrt(a)
        lo, hi = shape.f_l - pad, shape.f_r + pad
    else:
        lo, hi = shape.b_l, shape.b_r
    n_left = max(1, math.ceil((shape.f_l - lo) / h - 1e-9))
    n_right = max(1, math.ceil((hi - shape.f_r) / h - 1e-9))
    origin = shape.f_l - n_left * h
    cells = n_left + n_shape + n_right
    return StructuredGrid(dim=1, origin=(origin,), h=h, cells=(cells,))


def _radial_grid(shape: ShapeSpec, a: float, h_target: float) -> StructuredGrid:
    """Radial grid on (0, f_r + 28 sqrt(a)] with nodes at multiples of h,
    innermost node at r = h.

    Requires f_l and f_r to be integer multiples of the snapped spacing
    (h = T / round(T/h_target)) and f_l >= 10 h; raises otherwise.
    """
    T = shape.thickness
    n_shape = max(1, round(T / h_target))
    h = T / n_shape
    ratio = shape.f_l / h
    if abs(ratio - round(ratio)) > 1e-9:
        raise NonNodalInterfaceError(
            f"inner radius {shape.f_l} is not a node multiple of h = {h}"
        )
    if shape.f_l < 10 * h - 1e-12:
        raise GridError(f"grid too coarse near the axis: need f_l >= 10 h, got h = {h}")
    n_total = math.ceil((shape.f_r + TRUNCATION_LAYERS * math.sqrt(a)) / h - 1e-9)
    # nodes at h, 2h, ..., n_total * h
    return StructuredGrid(dim=1, origin=(h,), h=h, cells=(n_total - 1,), radial=True)


def _band_grid(shape: ShapeSpec, a: float, h_target: float) -> StructuredGrid:
    """Periodic-x grid over one period, f_l/f_r on nodes.

    ``h = L/nx``, so a band whose thickness is not a whole number of such
    steps raises :class:`NonNodalInterfaceError`.  A whole band is truncated
    28 sqrt(a) beyond the band.  Constant, h-commensurate boundaries produce
    the exact strip (no Outside cells); wavy boundaries get one padding row
    beyond their extremes and a staircase Dirichlet boundary.
    """
    nx = max(4, math.ceil(shape.L / h_target - 1e-9))
    h = shape.L / nx
    n_shape = shape.thickness / h
    if abs(n_shape - round(n_shape)) > 1e-9:
        raise NonNodalInterfaceError(f"band thickness {shape.thickness} is not a node multiple of h = L/{nx} = {h}")
    if shape.family == Family.BAND_WHOLE:
        n_down = n_up = math.ceil(TRUNCATION_LAYERS * math.sqrt(a) / h - 1e-9)
    else:
        min_bl, max_bl = shape.b_l.extremes()
        min_br, max_br = shape.b_r.extremes()
        flat = shape.b_l.is_constant and shape.b_r.is_constant
        down = (shape.f_l - min_bl) / h
        up = (max_br - shape.f_r) / h
        if flat and abs(down - round(down)) < 1e-9 and abs(up - round(up)) < 1e-9:
            n_down = round(down)
            n_up = round(up)
        else:
            n_down = math.ceil(down + 1.0 - 1e-9)
            n_up = math.ceil(up + 1.0 - 1e-9)
    origin_y = shape.f_l - n_down * h
    ny = n_down + round(n_shape) + n_up
    return StructuredGrid(
        dim=2, origin=(0.0, origin_y), h=h, cells=(nx, ny), periodic_x=True
    )


def _box_grid(shape: ShapeSpec, a: float, h_target: float) -> StructuredGrid:
    """Square box [-b_r, b_r]^2; the box is the fictitious domain itself."""
    half = shape.b_r
    n_half = max(4, math.ceil(half / h_target - 1e-9))
    h = half / n_half
    n = 2 * n_half
    return StructuredGrid(dim=2, origin=(-half, -half), h=h, cells=(n, n))


def _check_positive(what: str, value: float) -> None:
    if not 0 < value < math.inf:  # NaN fails too
        raise GridError(f"need a finite {what} > 0, got {value}")


# each family's solve grid from (shape, a, target spacing)
_PROBLEM_GRIDS = {
    Family.INTERVAL_WHOLE: _interval_grid,
    Family.INTERVAL_GENERAL: _interval_grid,
    Family.BAND_WHOLE: _band_grid,
    Family.BAND_GENERAL: _band_grid,
    Family.ANNULUS_WHOLE: _radial_grid,
    Family.ANNULUS_GENERAL: _box_grid,
}


def problem_grid(shape: ShapeSpec, a: float, h: float) -> StructuredGrid:
    """The solve grid of ``shape`` at target spacing ``h``.

    Intervals get a 1D grid (whole lines truncated 28 sqrt(a) out), whole
    annuli a radial grid, bands and boxed annuli a 2D grid.  ``a`` and ``h``
    outside ``(0, inf)``, and a grid of more than ``MAX_NODES`` nodes, raise
    :class:`GridError`.
    """
    _check_positive("a", a)
    _check_positive("h", h)
    grid = _PROBLEM_GRIDS[shape.family](shape, a, h)
    nodes = math.prod(grid.node_counts())
    if nodes > MAX_NODES:
        raise GridError(f"solve grid capped at {MAX_NODES} nodes, got {nodes}")
    return grid


def assemble(grid: StructuredGrid, shape: ShapeSpec, a: float) -> SparseSystem:
    """The system of ``shape`` on ``grid``: 2D, radial or 1D as the grid is."""
    if grid.dim == 2:
        return assemble_2d(grid, shape, a)
    if grid.radial:
        return assemble_radial(grid, shape, a)
    return assemble_1d(grid, shape, a)


def _line_dirichlet_mask(labels: np.ndarray) -> np.ndarray:
    """Dirichlet nodes of a line: both ends, and any node flanked only by Outside cells."""
    outside = labels == CellLabel.OUTSIDE
    return np.concatenate([[True], outside[:-1] & outside[1:], [True]])


def assemble_1d(grid: StructuredGrid, shape: Optional[ShapeSpec], a: float) -> SparseSystem:
    """P1 assembly of  a int s'u' + int_void s u = u(f_r) - u(f_l).

    ``shape = None`` assembles the all-void homogeneous operator (every cell
    carries the mass term, zero right-hand side), used by boundary probes.
    Each cell's label picks one fused element matrix: Void cells carry
    stiffness plus void mass, Shape and Outside cells stiffness alone.  Both
    ends are Dirichlet, and so is a node flanked by Outside cells on both
    sides; unlike the 2D staircase, a node with one Outside cell stays free.
    """
    _check_positive("a", a)
    nodes = grid.node_coords(0)
    n = len(nodes)
    h = grid.h
    rhs = np.zeros(n)
    if shape is None:
        labels = np.full(grid.cells[0], CellLabel.VOID, dtype=np.uint8)
        cls = CellClassification(grid=grid, labels=labels)
    else:
        cls = classify_cells(grid, shape)
        idx_l = _locate_node(nodes, shape.f_l, h, "f_l")
        idx_r = _locate_node(nodes, shape.f_r, h, "f_r")
        rhs[idx_r] += 1.0
        rhs[idx_l] -= 1.0

    stiff, m = a / h, h / 6.0
    stiffness = np.array([[stiff, -stiff], [-stiff, stiff]])
    # one element matrix per label: Void cells add the void mass, Shape and Outside cells carry stiffness alone
    tables = np.array([stiffness + [[2 * m, m], [m, 2 * m]], stiffness, stiffness])
    return SparseSystem(tables, cls.labels, rhs, _line_dirichlet_mask(cls.labels), grid, classification=cls)


def assemble_radial(grid: StructuredGrid, shape: ShapeSpec, a: float) -> SparseSystem:
    """Weighted P1 assembly of the radial weak form.

      a int (r S_r U_r + S U / r) dr + int_void r S U dr
          = f_r U(f_r) - f_l U(f_l)

    with 2-point Gauss quadrature for all three weights, summed into one
    element matrix per cell: stiffness, then the singular mass at each
    Gauss point, then on void cells the void mass at each Gauss point.
    """
    _check_positive("a", a)
    if not grid.radial:
        raise GridError("assemble_radial needs a radial grid")
    cls = classify_cells(grid, shape)
    nodes = grid.node_coords(0)
    n = len(nodes)
    h = grid.h
    if shape.f_l < 10 * h - 1e-12:
        raise GridError(f"grid too coarse near the axis: need f_l >= 10 h, got h = {h}")
    idx_l = _locate_node(nodes, shape.f_l, h, "f_l")
    idx_r = _locate_node(nodes, shape.f_r, h, "f_r")
    rhs = np.zeros(n)
    rhs[idx_r] += shape.f_r
    rhs[idx_l] -= shape.f_l

    r0, r1 = nodes[:-1], nodes[1:]
    mid = 0.5 * (r0 + r1)
    g = (mid - _GAUSS_OFFSET * h, mid + _GAUSS_OFFSET * h)
    w = 0.5 * h

    def weighted_mass(c, gp):  # c phi_i phi_j at Gauss point gp
        phi = ((r1 - gp) / h, (gp - r0) / h)
        return np.stack([c * phi[i] * phi[j] for i in range(2) for j in range(2)], axis=1)

    # stiffness: a * int r phi_i' phi_j', phi' = -/+ 1/h
    k_fac = a * (w * (g[0] + g[1])) / (h * h)
    local = np.stack([k_fac, -k_fac, -k_fac, k_fac], axis=1)
    # singular mass: a * int (1/r) phi_i phi_j
    for gp in g:
        local = local + weighted_mass(a * w / gp, gp)
    # void mass: int r phi_i phi_j on void cells
    void = (cls.labels == CellLabel.VOID)[:, None]
    for gp in g:
        local = np.where(void, local + weighted_mass(w * gp, gp), local)

    tables = local.reshape(-1, 2, 2)
    return SparseSystem(tables, np.arange(grid.cells[0]), rhs, _line_dirichlet_mask(cls.labels), grid, classification=cls)


# bilinear element matrices on an h x h cell, node order SW, SE, NE, NW
_K2 = np.array(
    [
        [4.0, -1.0, -2.0, -1.0],
        [-1.0, 4.0, -1.0, -2.0],
        [-2.0, -1.0, 4.0, -1.0],
        [-1.0, -2.0, -1.0, 4.0],
    ]
) / 6.0
_M2 = np.array(
    [
        [4.0, 2.0, 1.0, 2.0],
        [2.0, 4.0, 2.0, 1.0],
        [1.0, 2.0, 4.0, 2.0],
        [2.0, 1.0, 2.0, 4.0],
    ]
) / 36.0
# exact integrals of the basis gradients over one cell, divided by h
_GRAD_X = np.array([-0.5, 0.5, 0.5, -0.5])
_GRAD_Y = np.array([-0.5, -0.5, 0.5, 0.5])


# each corner of a cell in element order, as its node's offset from the cell's
# first node, slowest axis first: left, right on a line; SW, SE, NE, NW in 2D
_CORNERS = {1: [(0,), (1,)], 2: [(0, 0), (0, 1), (1, 1), (1, 0)]}


def _node_sums(grid: StructuredGrid, tables: np.ndarray, index: np.ndarray, entries, lower=()) -> np.ndarray:
    """Each node's sum of the entries of the cells around it, node-shaped,
    over the nodes from the node indices ``lower`` (slowest axis first,
    none for the whole grid) up, at node column 0 on a periodic grid.

    ``index``, shaped like the cells slowest axis first, picks each cell's
    table; an index of ``len(tables)`` carries nothing.  ``entries(tables,
    cell, corner)`` gives per table what the cell at offset ``cell`` adds to
    the node, its corner ``corner``, or None where no table adds anything.
    Each sum adds the cells in cell order, lower row first and west before
    east, except on node column 0 of a periodic grid, whose west cells are
    the last of their row: the sums that scattering the entries cell by cell
    (COO triplets, ``np.add.at``) gives bit for bit.  An empty cell adds
    +0.0, which leaves every partial sum as it is.
    """
    counts = grid.node_counts()[::-1]
    corners = _CORNERS[grid.dim]
    # cell (node + offset) is padded[node + 1 + offset]: empty cells around the grid,
    # the last cell column again on a periodic grid
    padded = np.full(tuple(n + 1 for n in counts), len(tables), dtype=index.dtype)
    padded[tuple(slice(1, 1 + c) for c in index.shape)] = index
    if grid.periodic_x:
        padded[1:-1, 0] = index[:, -1]
    padded = padded[tuple(slice(start, None) for start in lower)]
    counts = tuple(n - 1 for n in padded.shape)
    tables = np.concatenate([tables, np.zeros((1,) + tables.shape[1:])])
    terms = []
    for cell in itertools.product((-1, 0), repeat=grid.dim):
        corner = corners.index(tuple(-c for c in cell))
        view = tuple(slice(1 + c, 1 + c + n) for c, n in zip(cell, counts))
        values = entries(tables, cell, corner)
        if values is not None:
            terms.append((cell, values, padded[view]))
    sums = np.zeros(counts)
    for _, values, cells in terms:
        sums += values[cells]
    if grid.periodic_x:
        sums[:, 0] = 0.0
        for _, values, cells in sorted(terms, key=lambda t: (t[0][0], -t[0][1])):
            sums[:, 0] += values[cells[:, 0]]
    return sums


def _cell_corners(grid: StructuredGrid, nodal: np.ndarray) -> Tuple[np.ndarray, ...]:
    """The SW, SE, NE, NW corner values of every cell of a 2D grid, each
    shaped like the cells, from node-shaped values; the east corners of the
    last cell column are node column 0 on a periodic grid."""
    west = nodal[:, :grid.cells[0]]
    east = np.concatenate([nodal[:, 1:], nodal[:, :1]], axis=1) if grid.periodic_x else nodal[:, 1:]
    return west[:-1], east[:-1], east[1:], west[1:]


def _dia_layout(counts: Tuple[int, ...], periodic: bool):
    """The one DIA layout of a nearest-neighbour operator on ``counts`` nodes,
    slowest axis first: the ascending diagonal offsets (3 on a line, 9 in
    2D) and, by stencil offset in ``itertools.product((-1, 0, 1))`` order,
    its places ``(offset, rows, cols)``: row nodes ``rows`` couple to column
    nodes ``cols`` (node-shaped slices) in diagonal ``offset``, by column.
    On a periodic grid the wrap entries of node column 0 fill its unused W
    and NW slots, those of column nx - 1 its SE and E slots, and the rest the
    diagonals at +-(2 nx - 1), 11 in all."""
    strides = [math.prod(counts[axis + 1:]) for axis in range(len(counts))]
    nx = counts[-1]
    places = {}
    for delta in itertools.product((-1, 0, 1), repeat=len(counts)):
        offset = sum(d * s for d, s in zip(delta, strides))
        rows = tuple(slice(max(0, -d), n - max(0, d)) for d, n in zip(delta, counts))
        cols = tuple(slice(max(0, d), n + min(0, d)) for d, n in zip(delta, counts))
        places[delta] = [(offset, rows, cols)]
        if periodic and delta[-1]:  # the wrap column: node column 0 west, nx - 1 east
            edge = 0 if delta[-1] < 0 else nx - 1
            places[delta].append((offset - delta[-1] * nx, rows[:-1] + (edge,), cols[:-1] + (nx - 1 - edge,)))
    return sorted({offset for here in places.values() for offset, _, _ in here}), places


def _dia_block(counts: Tuple[int, ...], periodic: bool, stencils, free: Optional[np.ndarray] = None) -> sp.dia_matrix:
    """The operator of the node-shaped ``stencils``, one per stencil offset of
    :func:`_dia_layout`, 0 where the row or the column node is not ``free``.
    A row's product adds its entries in ascending offset order, as CSR does."""
    offsets, places = _dia_layout(counts, periodic)
    data = np.zeros((len(offsets), math.prod(counts)))
    for here, vals in zip(places.values(), stencils):
        for offset, rows, cols in here:
            diagonal = data[offsets.index(offset)].reshape(counts)
            np.copyto(diagonal[cols], vals[rows], where=True if free is None else free[rows] & free[cols])
    return sp.dia_matrix((data, np.array(offsets, dtype=np.int32)), shape=(data.shape[1],) * 2)


def _read_stencil(A: sp.dia_matrix, here, free: np.ndarray) -> np.ndarray:
    """The entries of ``A``, in :func:`_dia_layout`'s layout, at one stencil
    offset's places ``here``, 0 where the row or the column node is not free."""
    vals = np.zeros(free.shape)
    for offset, rows, cols in here:
        diagonal = A.data[A.offsets.tolist().index(offset)].reshape(free.shape)
        np.copyto(vals[rows], diagonal[cols], where=free[rows] & free[cols])
    return vals


def _stencil_sums(grid: StructuredGrid, tables: np.ndarray, index: np.ndarray, lower=()):
    """Each node's stencil entries, one node-shaped sum (:func:`_node_sums`,
    from ``lower`` up) per stencil offset in ``itertools.product((-1, 0, 1))``
    order, formed one at a time as they are read."""
    corners = _CORNERS[grid.dim]

    def sums(delta):  # each node's entry towards its neighbour at delta
        def entries(tables, cell, corner):  # the column node's entry, if it is a corner of the cell too
            node = tuple(d - c for d, c in zip(delta, cell))
            return tables[:, corner, corners.index(node)] if node in corners else None

        return _node_sums(grid, tables, index, entries, lower)

    return map(sums, itertools.product((-1, 0, 1), repeat=grid.dim))


def _stencil_block(grid: StructuredGrid, tables: np.ndarray, index: np.ndarray) -> sp.dia_matrix:
    """The scalar block as per-node stencil sums of the adjacent cells' entries.

    ``tables`` holds element matrices over a cell's corners in ``_CORNERS``
    order and ``index`` each cell's pick, as :func:`_node_sums` reads them,
    so each entry is the COO triplet sum of one element matrix per cell, bit
    for bit.  They go straight into their diagonals (:func:`_dia_block`), 0
    where no cell carries an entry, so ``tocsr()`` is the triplet sum's
    sorted CSR block.
    """
    return _dia_block(grid.node_counts()[::-1], grid.periodic_x, _stencil_sums(grid, tables, index))


def assemble_2d(grid: StructuredGrid, shape: ShapeSpec, a: float) -> SparseSystem:
    """Bilinear-quad assembly of the vector weak form on a 2D grid.

    The operator decouples componentwise, so both components share one
    scalar block  a * stiffness + void mass,  per-node 9-point sums of the
    fused 4x4 element matrices of the active cells around each node
    (:func:`_stencil_block`, on the block's first read);  the load
    integrates the basis gradients exactly over shape cells (x gradients for the first
    component, y gradients for the second).  The load and the Outside
    cells' Dirichlet nodes are per-node sums (:func:`_node_sums`) too.
    """
    _check_positive("a", a)
    if grid.dim != 2:
        raise GridError("assemble_2d needs a 2D grid")
    cellsacross = shape.thickness / grid.h
    if cellsacross < MIN_CELLS_ACROSS:
        raise GridError(
            f"under-resolved shape: {cellsacross:.1f} cells across the thickness"
        )
    cls = classify_cells(grid, shape)
    h = grid.h
    # fused element matrices of Void and Shape cells; Outside, the last label, carries none
    tables = np.array([a * _K2 + h * h * _M2, a * _K2])
    # Shape cells add their basis gradients' integrals, Void cells 0 and Outside cells nothing
    rhs = np.concatenate([
        _node_sums(grid, np.array([np.zeros(4), h * grad]), cls.labels, lambda t, cell, corner: t[:, corner]).ravel()
        for grad in (_GRAD_X, _GRAD_Y)
    ])
    # Outside cells pick table 0, a 1 at every corner; the other cells carry nothing
    outside = (cls.labels != CellLabel.OUTSIDE).astype(np.uint8)
    mask = _node_sums(grid, np.ones(1), outside, lambda t, cell, corner: t) > 0
    mask[[0, -1]] = True
    if not grid.periodic_x:
        mask[:, [0, -1]] = True
    return SparseSystem(tables, cls.labels, rhs, mask.ravel(), grid, classification=cls)


#: Damped-Jacobi weight of the multigrid smoother.
_SMOOTH_OMEGA = 0.8
#: Smoothing sweeps before and after each coarse correction.
_SMOOTH_SWEEPS = 2
#: Coarsening stops at the first level of at most this many free unknowns,
#: which is inverted densely once per hierarchy.  The inverse costs about
#: 8n^3/3 flops, so a few hundred keep it below a small system's CG solve.
_COARSEST_UNKNOWNS = 256
#: An axis with fewer nodes than this is not coarsened.
_MIN_COARSEN_NODES = 5
#: CG stops once ||r|| <= REL_TOL * ||b|| for each component.
REL_TOL = 1e-10
#: Cap on the CG iterations of each component.
MAX_ITERATIONS = 100


def _field_from_vector(system: SparseSystem, x: np.ndarray, iterations: int) -> DiscreteField:
    counts = system.grid.node_counts()[::-1]  # slowest axis first
    comps = tuple(c.reshape(counts) for c in x.reshape(system.n_components, -1))
    return DiscreteField(grid=system.grid, components=comps, iterations=iterations)


def _axis_prolongation(n: int, periodic: bool) -> Tuple[sp.csr_matrix, np.ndarray]:
    """Linear interpolation along one axis from its even-indexed nodes.

    Returns the (n, n_coarse) prolongation, in float32, which holds its 1 and
    0.5 exactly, and the fine index of each coarse node.  An open axis also
    keeps its last node; a periodic axis is a ring, so for even n its last
    node interpolates from nodes n - 2 and 0.  An axis shorter than
    ``_MIN_COARSEN_NODES`` is not coarsened.
    """
    if n < _MIN_COARSEN_NODES:
        return sp.identity(n, dtype=np.float32, format="csr"), np.arange(n)
    coarse = np.arange(0, n, 2)
    odd = np.arange(1, n, 2)
    if not periodic and n % 2 == 0:
        coarse = np.append(coarse, n - 1)
        odd = odd[:-1]
    nc = len(coarse)
    rows = np.concatenate([coarse, odd, odd])
    cols = np.concatenate([np.arange(nc), (odd - 1) // 2, (odd + 1) // 2 % nc])
    vals = np.concatenate([np.ones(nc, np.float32), np.full(2 * len(odd), 0.5, np.float32)])
    return _csr(vals, rows, cols, (n, nc)), coarse


def _csr(data: np.ndarray, rows: np.ndarray, cols: np.ndarray, shape: Tuple[int, int]) -> sp.csr_matrix:
    """The canonical CSR of a COO list free of duplicates: each row's columns ascending."""
    order = np.argsort(rows.astype(np.int64) * shape[1] + cols, kind="stable")
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=shape[0]))])
    return sp.csr_matrix((data[order], cols[order], indptr), shape=shape)


def _along_axes(factors, x: np.ndarray) -> np.ndarray:
    """A flat node vector of a tensor grid with factor k applied along axis k."""
    x = x.reshape([f.shape[1] for f in factors])
    for axis, factor in enumerate(factors):
        moved = x.swapaxes(0, axis)
        x = (factor @ moved.reshape(len(moved), -1)).reshape((-1,) + moved.shape[1:]).swapaxes(0, axis)
    return x.ravel()


def _axis_weights(factor: sp.csr_matrix, periodic: bool) -> dict:
    """One axis's Galerkin weights of its factor ``P``: maps the fine offset d
    to the CSR ``W_d`` of shape (3 nc, n) whose row (D + 1) nc + I holds
    P[i, I] P[i + d, I + D] in column i, ``i + d`` and ``I + D`` wrapped on a
    ring.  Built from each fine node's one or two coarse nodes as one COO
    list, sorted by column within a row and with no stored zeros; the rows of
    coarse offsets that never occur are empty."""
    n, nc = factor.shape
    first, last = factor.indptr[:-1], factor.indptr[1:] - 1  # each fine node's one or two coarse nodes
    parent = np.stack([factor.indices[first], factor.indices[last]])
    weight = np.stack([factor.data[first], np.where(last > first, factor.data[last], 0.0)])
    i = np.arange(n)
    weights = {}
    for d in (-1, 0, 1):
        j = (i + d) % n
        w = weight[:, None] * weight[:, j] * (periodic | (j == i + d))  # [slot of I, slot of J, i]
        D1 = parent[:, j] - parent[:, None] + 1  # D + 1 = J - I + 1
        rows = (D1 % nc if periodic else D1) * nc + parent[:, None]
        nz = w != 0
        weights[d] = _csr(w[nz].astype(float), rows[nz], np.broadcast_to(i, w.shape)[nz], (3 * nc, n))
    return weights


def _galerkin(A: sp.dia_matrix, factors, periodic, free: np.ndarray, coarse_free: np.ndarray) -> sp.dia_matrix:
    """The coarse operator  P^T A P  over every coarse node, stencil by stencil.

    ``A`` is a nearest-neighbour operator in :func:`_dia_layout`'s layout on
    the node grid of ``free``, ``P`` the ``kron`` of the axis ``factors``
    with fixed fine rows and fixed coarse columns empty, and so is the
    product (Dendy, "Black box multigrid", *J. Comput. Phys.* 48, 1982):
    C[I, I + D] = sum over i, d of P[i, I] A[i, i + d] P[i + d, I + D].
    Each fine stencil, its fixed nodes' couplings zeroed, is contracted along
    the slowest axis, summed over its offsets, and contracted along the
    fastest into the coarse stencils, each contraction one CSR product with
    the axis's table for the fine offset (:func:`_axis_weights`).
    """
    counts, coarse_counts = free.shape, coarse_free.shape
    places = _dia_layout(counts, periodic[-1])[1]
    weights = [_axis_weights(f, p) for f, p in zip(factors, periodic)]
    nc = coarse_counts[0]
    coarse = np.zeros((3,) * len(counts) + coarse_counts[::-1])  # [D_y, D_x, I_x, I_y] in 2D
    for d_fast in itertools.product((-1, 0, 1), repeat=len(counts) - 1):  # (d_x,) in 2D, () on a line
        half = np.zeros((3, nc) + counts[1:])  # [D_y, I_y, i_x]
        for d in (-1, 0, 1):
            S = _read_stencil(A, places[(d,) + d_fast], free).reshape(counts[0], -1)
            half += (weights[0][d] @ S).reshape(half.shape)
        if d_fast:  # contract the fastest axis
            for D_y in range(3):
                coarse[D_y] += (weights[1][d_fast[0]] @ half[D_y].T).reshape(coarse.shape[1:])
        else:
            coarse = half
        del half
    stencils = (coarse[D].T for D in itertools.product(range(3), repeat=len(counts)))
    return _dia_block(coarse_counts, periodic[-1], stencils, coarse_free)


class _Multigrid:
    """Galerkin multigrid V-cycle on vectors over every node of each level.

    Each level is a tensor grid, node counts slowest axis first, whose
    vectors are 0 on its fixed nodes: the Dirichlet nodes, then the coarse
    nodes whose injected fine node is fixed.  A level keeps its operator in
    :func:`_dia_layout`'s diagonals, smoother weights (0 on fixed nodes),
    the fixed nodes and its per-axis prolongation factors, applied one axis
    at a time, transposed to restrict.  So the transfers are the ``kron`` of
    the factors with fixed fine rows and fixed coarse columns empty, of full
    column rank, and each ``P^T A P`` (:func:`_galerkin`) is SPD on the free
    nodes.  Each is formed in float64 from the float64 level above (the
    block, a CSR one through ``todia()``, on the finest); every level is then
    stored, and the cycle run, in float32.  The coarsest level has a dense
    inverse over its free nodes, in float64 where it is the whole hierarchy.
    Equal sweeps before and after each coarse correction keep the cycle
    symmetric to float32 rounding.  A free node whose diagonal entry
    is not positive raises :class:`NonConvergenceError`: not SPD.
    """

    def __init__(self, block: sp.spmatrix, grid: StructuredGrid, free: np.ndarray):
        A = block.todia()
        free = free.reshape(grid.node_counts()[::-1])
        periodic = [False] * (free.ndim - 1) + [grid.periodic_x]
        if np.any(A.diagonal()[free.ravel()] <= 0):
            raise NonConvergenceError("nonpositive diagonal entry; system not SPD")
        self.levels = []
        while np.count_nonzero(free) > _COARSEST_UNKNOWNS and max(free.shape) >= _MIN_COARSEN_NODES:
            factors, keep = zip(*(_axis_prolongation(n, p) for n, p in zip(free.shape, periodic)))
            coarse_free = free[np.ix_(*keep)]
            coarse = _galerkin(A, factors, periodic, free, coarse_free)  # in float64, before A is stored in float32
            weight = (_SMOOTH_OMEGA / np.where(free.ravel(), A.diagonal(), np.inf)).astype(np.float32)
            self.levels.append((A.astype(np.float32), weight, np.flatnonzero(~free), factors, tuple(P.T for P in factors)))
            A, free = coarse, coarse_free
        self.coarse_free = np.flatnonzero(free)
        inverse = np.linalg.inv(A.tocsr()[self.coarse_free][:, self.coarse_free].toarray())
        self.coarse_inverse = inverse.astype(np.float32 if self.levels else np.float64, copy=False)

    def __call__(self, r: np.ndarray) -> np.ndarray:
        """The cycle on a float64 ``r``, run in the levels' float32 (float64 with no levels)."""
        return self._cycle(r.astype(self.coarse_inverse.dtype, copy=False), 0).astype(np.float64, copy=False)

    def _cycle(self, r: np.ndarray, level: int) -> np.ndarray:
        if level == len(self.levels):
            x = np.zeros_like(r)
            x[self.coarse_free] = self.coarse_inverse @ r[self.coarse_free]
            return x
        A, weight, fixed, factors, restrictions = self.levels[level]
        x = weight * r
        for _ in range(_SMOOTH_SWEEPS - 1):
            _smooth(A, weight, r, x)
        residual = _residual(A, r, x)
        residual[fixed] = 0.0
        coarse = _along_axes(restrictions, residual)
        del residual  # before the prolongation's temporaries
        correction = _along_axes(factors, self._cycle(coarse, level + 1))
        correction[fixed] = 0.0
        x += correction
        del correction
        for _ in range(_SMOOTH_SWEEPS):
            _smooth(A, weight, r, x)
        return x


def _residual(A: sp.spmatrix, r: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``r - A @ x`` in the product's own storage."""
    t = A @ x
    np.subtract(r, t, out=t)
    return t


def _smooth(A: sp.spmatrix, weight: np.ndarray, r: np.ndarray, x: np.ndarray) -> None:
    """One damped-Jacobi sweep  x += weight * (r - A @ x),  in one temporary."""
    t = _residual(A, r, x)
    t *= weight
    x += t


@dataclass(frozen=True, eq=False)
class _Quadrant:
    """A system's block folded onto its quadrant (:func:`_fold`), on the
    quadrant's own grid, Dirichlet nodes flat; built for one solve, which
    builds its ``multigrid``, and freed with it once that solve returns."""

    block: sp.dia_matrix
    dirichlet_nodes: np.ndarray
    grid: StructuredGrid

    @cached_property
    def multigrid(self) -> _Multigrid:
        return _Multigrid(self.block, self.grid, ~self.dirichlet_nodes)


def _is_symmetric(system: SparseSystem) -> bool:
    """Whether ``system`` is 2D on an open grid of equal, odd node counts, with
    ``index`` and Dirichlet nodes equal to their x-mirror, y-mirror and transpose."""
    grid = system.grid
    counts = grid.node_counts()[::-1]
    if grid.dim != 2 or grid.periodic_x or counts[0] != counts[1] or counts[0] % 2 == 0:
        return False
    masks = (system.index, system.dirichlet_nodes.reshape(counts))
    return all(np.array_equal(m, image) for m in masks for image in (m[:, ::-1], m[::-1], m.T))


def _fold(system: SparseSystem) -> _Quadrant:
    """The block of a symmetric system on its quadrant ``[c:, c:]``, ``c = n // 2``,
    for a component odd in x and even in y: ``E^T A E / 4``, where ``E``
    unfolds the quadrant by that parity, so the folded block is symmetric.

    Its stencils are the block's stencil sums over the quadrant's nodes
    (:func:`_stencil_sums`), so the whole block is never formed.  On the
    y = 0 row each y - h entry is folded onto its y + h mirror, and the row
    is halved.  The x = 0 column, where the component is 0, is fixed.
    Couplings to fixed nodes are dropped as the block is written, the folded
    ones with their mirrors', which are fixed alike by the gate's symmetry.
    """
    grid = system.grid
    counts = grid.node_counts()[::-1]
    c = counts[0] // 2
    fixed = system.dirichlet_nodes.reshape(counts)[c:, c:].copy()
    fixed[:, 0] = True
    stencils = dict(zip(itertools.product((-1, 0, 1), repeat=2), _stencil_sums(grid, system.tables, system.index, (c, c))))
    for d_x in (-1, 0, 1):  # :func:`_dia_block` drops the y = 0 row's y - h entries
        stencils[1, d_x][0] += stencils[-1, d_x][0]
    for stencil in stencils.values():
        stencil[0] *= 0.5
    block = _dia_block((c + 1, c + 1), False, stencils.values(), ~fixed)
    origin = tuple(o + c * grid.h for o in grid.origin)
    return _Quadrant(block, fixed.ravel(), StructuredGrid(dim=2, origin=origin, h=grid.h, cells=(c, c)))


def _pcg(A, fixed, b, b_norm, precondition, x) -> int:
    """CG on ``x`` until ||r|| <= REL_TOL * b_norm; returns the iterations.

    Vectors but ``x`` are 0 on the ``fixed`` nodes, where ``A @ p`` is zeroed
    to give the free block's product; ``b`` is overwritten by the residual."""
    r = b
    p = precondition(r)
    rz = float(np.einsum("i,i", r, p))
    for iterations in range(1, MAX_ITERATIONS + 1):
        Ap = A @ p
        Ap[fixed] = 0.0
        pAp = float(np.einsum("i,i", p, Ap))
        if pAp <= 0:
            raise NonConvergenceError("nonpositive curvature; system not SPD")
        alpha = rz / pAp
        Ap *= alpha
        r -= Ap
        x += np.multiply(p, alpha, out=Ap)
        del Ap  # before the V-cycle's temporaries
        if math.sqrt(np.einsum("i,i", r, r)) <= REL_TOL * b_norm:
            return iterations
        z = precondition(r)
        rz_new = float(np.einsum("i,i", r, z))
        p *= rz_new / rz
        z += p  # the next direction, in z's storage, so no vector is left over
        p = z
        rz = rz_new
    raise NonConvergenceError(
        f"CG did not reach {REL_TOL} within the cap of {MAX_ITERATIONS} iterations per component"
    )


def _solve_load(system: Union[SparseSystem, _Quadrant], load: np.ndarray, x: np.ndarray) -> int:
    """CG on one node load of ``system``, fixed rows ignored, into ``x``; returns
    the iterations.  The load is scaled by a power of two to a norm in
    [0.5, 1), and its solution back, exactly, so the float32 cycle keeps its
    range at any scale."""
    b = np.where(system.dirichlet_nodes, 0.0, load)
    b_norm = math.sqrt(np.einsum("i,i", b, b))
    if b_norm == 0.0:  # a zero load takes no iteration and builds no hierarchy
        return 0
    e = math.frexp(b_norm)[1]
    np.ldexp(b, -e, out=b)
    iterations = _pcg(system.block, np.flatnonzero(system.dirichlet_nodes), b, math.ldexp(b_norm, -e), system.multigrid, x)
    np.ldexp(x, e, out=x)
    return iterations


def _solve(system: SparseSystem, loads: np.ndarray) -> Tuple[np.ndarray, int]:
    """CG on the stacked node loads, fixed rows ignored: the solution, 0 on
    the Dirichlet nodes, and the summed iterations.

    Where :func:`_is_symmetric` holds, the first load is odd in x and even
    in y, and the second is its transpose, CG runs on the first load folded
    onto a quadrant (:func:`_fold`) freed before the output is allocated;
    the solution is unfolded by that parity, the odd half written as
    ``0.0 - u`` so no -0.0 appears, and the second component is its
    transpose.  Any other loads are solved one component at a time.
    """
    if system.n_components == 2:
        counts = system.grid.node_counts()[::-1]
        b_x, b_y = loads.reshape((2,) + counts)
        symmetric = np.array_equal(b_y, b_x.T) and np.array_equal(b_x, 0.0 - b_x[:, ::-1]) and np.array_equal(b_x, b_x[::-1])
        if symmetric and _is_symmetric(system):
            c = counts[0] // 2
            load = b_x[c:, c:].copy()
            load[0] *= 0.5  # the y = 0 row, halved as the folded block's
            v = np.zeros(load.shape)
            iterations = _solve_load(_fold(system), load.ravel(), v.ravel())
            x = np.zeros(system.n)  # once the quadrant and its hierarchy are freed
            s_x, s_y = x.reshape((2,) + counts)
            s_x[c:, c:] = v
            s_x[:c, c:] = v[:0:-1]
            np.subtract(0.0, s_x[:, :c:-1], out=s_x[:, :c])
            s_y[...] = s_x.T
            return x, iterations
    x = np.zeros(system.n)
    pairs = zip(loads.reshape(system.n_components, -1), x.reshape(system.n_components, -1))
    return x, sum(_solve_load(system, load, xc) for load, xc in pairs)


def solve_spd(system: SparseSystem) -> DiscreteField:
    """Preconditioned conjugate gradients on the free nodes, per component.

    CG (:func:`_pcg`) runs on vectors over every node, 0 on the Dirichlet
    nodes, in the solution's own storage, under the system's V-cycle
    hierarchy ``system.multigrid``, so the element matrices and Dirichlet
    nodes must not change after the first solve; the first such solve
    forms ``system.block``.  Where the system and its loads have the boxed
    annulus's symmetry, CG runs once, on a quadrant folded for this solve
    alone under its own hierarchy, neither kept, the rest of the field is
    unfolded from it (:func:`_solve`), and the whole block is never formed.
    Each solve iterates until ||r_k|| <= REL_TOL * ||b_k||, 0 times for a
    zero load; more than ``MAX_ITERATIONS``, at any size, raise
    :class:`NonConvergenceError`: a healthy V-cycle needs far fewer, so it
    means an assembly bug or an indefinite system.  The iterations returned
    are summed over the solves run.
    """
    x, iterations = _solve(system, system.rhs)
    return _field_from_vector(system, x, iterations)


def homogeneous_boundary_probe(
    system: SparseSystem, boundary_values: np.ndarray
) -> DiscreteField:
    """Solve the homogeneous equation with prescribed Dirichlet data.

    ``boundary_values`` is a full-length nodal vector; only its entries at
    constrained nodes are used, and they must be finite.  The right-hand
    side is zeroed, which turns the assembled system into the homogeneous
    equation used by the maximum-principle and interior-estimate checks.
    It reuses the whole-grid hierarchy as :func:`solve_spd` does; -0.0 data
    give +0.0.  The lifted loads ``0 - block @ g`` seldom keep the exact
    symmetry the quadrant solve needs, since the diagonal product sums
    mirrored rows in another order, so a probe mostly solves on the whole
    grid; where one keeps it, its quadrant is folded anew and not kept.
    """
    values = np.asarray(boundary_values, dtype=float).ravel()
    if values.size != system.n:
        raise GridError(
            f"boundary data length {values.size} does not match system size {system.n}"
        )
    g = np.where(system.dirichlet_nodes, values.reshape(system.n_components, -1), 0.0)
    if not np.all(np.isfinite(g)):
        raise GridError("boundary data must be finite on the Dirichlet nodes")
    lift = [0.0 - system.block @ gc for gc in g]
    x, iterations = _solve(system, np.concatenate(lift))
    return _field_from_vector(system, x + g.ravel(), iterations)


def dump_triplets(system: SparseSystem, target: Union[str, TextIO]) -> None:
    """Debug dump ``row col value`` with 1-based indices.

    Entries follow ``system.matrix.tocoo()``: component ``k`` repeats the
    shared block's CSR entries shifted by ``k*m`` rows and columns, so the
    full operator is never built.
    """
    coo = system.block.tocsr().tocoo()
    m = coo.shape[0]
    blocks = (
        ("%d %d %.17g\n", [coo.row + (k * m + 1), coo.col + (k * m + 1), coo.data])
        for k in range(system.n_components)
    )
    write_csv(target, "", blocks)


def write_field_csv(field: DiscreteField, target: Union[str, TextIO]) -> None:
    """CSV dump ``x[,y],s_x[,s_y]`` over nodes, 17 significant digits."""
    grid = field.grid
    axes = [grid.node_coords(d) for d in range(grid.dim)]
    write_grid_csv(target, axes, ["s_x", "s_y"][: grid.dim], field.components)

"""Finite element discretization of the weak form in three flavors.

  * 1D intervals: piecewise-linear elements on [b_l, b_r] (or a truncated
    whole line), stiffness a/h, consistent void mass, right-hand side
    +1 / -1 at the interface nodes (the shape functional integrates to the
    boundary values when the interfaces are nodal).
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
    cell (staircase boundary).

A solve has one way in: ``problem_grid(shape, a, h)`` is the one place
that builds each family's solve grid, and ``assemble(grid, shape, a)`` picks
the 1D, radial or 2D assembler from the grid and returns a
:class:`SparseSystem` bound to that grid, which ``solve_spd`` solves.

Whole-space problems are truncated at distance 28 sqrt(a) beyond the shape
boundary; the homogeneous-equation decay makes the truncation error at most
~exp(-28) < 1e-12, below solver tolerance.

Every system is solved by one preconditioned conjugate-gradient loop, one
vector component at a time, preconditioned by a geometric multigrid V-cycle
on its uniform grid, whether 1D, radial or 2D (Briggs, Henson & McCormick,
*A Multigrid Tutorial*, 2nd ed., SIAM 2000): linear or bilinear
prolongation, Galerkin coarse operators, damped-Jacobi smoothing and a dense
solve on the coarsest level, so the iteration count stays flat as h shrinks.

Every assembler writes its block directly with one stencil builder, as
diagonals (DIA; Saad, *Iterative Methods for Sparse Linear Systems*, 2nd
ed., SIAM 2003, section 3.4): each node's row sums the element matrices of
the cells around it (two on a line, four in 2D), in the order a COO sum over
the cells adds them, so the block is bit-identical to one summed from
triplets without building them, and its products to those of that CSR
block.  The solve never copies the block reduced to its free nodes: CG and
each multigrid level work on vectors over every node of their grid, held at
0 on the fixed nodes, and no level stores a 2D prolongation; the coarse
operators are formed strip by strip of coarse rows.  Both orders are fixed
(deterministic regardless of any outer parallelism over distinct systems),
and the solver performs the same floating-point operations on every run, so
repeated solves of one system reproduce bit-identical results on a fixed
platform and BLAS thread count.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
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

_GAUSS_OFFSET = 0.5 / math.sqrt(3.0)  # 2-point Gauss offsets from the midpoint


@dataclass(eq=False)
class SparseSystem:
    """Assembled symmetric system on its grid, with Dirichlet bookkeeping.

    The operator is block diagonal: one copy of the scalar ``block`` per
    vector component, ``n_components == grid.dim`` of them, since the
    bilinear form decouples componentwise.  ``rhs`` stacks the components'
    loads.  ``dirichlet_nodes`` marks the constrained grid nodes, the same in
    every component, and ``dirichlet_values`` (full length, zero unless a
    boundary probe sets them) their prescribed values.  The block restricted
    to the free nodes is symmetric positive definite; the solver applies it
    through the whole block and never builds it.  ``block`` is stored as
    diagonals (DIA, 3 on a line, 9 in 2D and 11 on a periodic grid), with 0
    wherever no cell carries an entry, so the rows at nodes touching only
    Outside cells are 0.  ``block.tocsr()`` is the int32 CSR block with
    sorted columns and no stored zeros.

    ``matrix`` (the full operator as that CSR, built anew on each read) and
    the full-length ``dirichlet_mask`` stay because the benchmark's span
    tracer (``perfbench/spans.py``) reads them; the solver works on
    ``block`` and ``dirichlet_nodes`` alone.
    """

    block: sp.dia_matrix
    rhs: np.ndarray
    dirichlet_nodes: np.ndarray
    grid: StructuredGrid
    classification: Optional[CellClassification] = None
    dirichlet_values: Optional[np.ndarray] = None

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
    flat array.  ``iterations`` is the solver's iteration count summed over
    the components.
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

    A whole band is truncated 28 sqrt(a) beyond the band.  Constant,
    h-commensurate boundaries produce the exact strip (no Outside cells);
    wavy boundaries get one padding row beyond their extremes and a
    staircase Dirichlet boundary.
    """
    nx = max(4, math.ceil(shape.L / h_target - 1e-9))
    h = shape.L / nx
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
    ny = n_down + round(shape.thickness / h) + n_up
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


def _check_a(a: float) -> None:
    if not 0 < a < math.inf:  # NaN fails too
        raise GridError(f"need a finite a > 0, got {a}")


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
    annuli a radial grid, bands and boxed annuli a 2D grid.
    """
    _check_a(a)
    return _PROBLEM_GRIDS[shape.family](shape, a, h)


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
    Stiffness on every cell and mass on void cells are two blocks, so each
    entry adds a cell's stiffness, then its mass, before the next cell's.
    """
    _check_a(a)
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

    stiff = a / h
    m = h / 6.0
    stiffness = (np.array([[[stiff, -stiff], [-stiff, stiff]]]), np.zeros_like(cls.labels))
    mass = (np.array([[[2 * m, m], [m, 2 * m]]]), (cls.labels != CellLabel.VOID).astype(np.uint8))
    block = _stencil_block(grid, [stiffness, mass])
    return SparseSystem(block, rhs, _line_dirichlet_mask(cls.labels), grid, classification=cls)


def assemble_radial(grid: StructuredGrid, shape: ShapeSpec, a: float) -> SparseSystem:
    """Weighted P1 assembly of the radial weak form.

      a int (r S_r U_r + S U / r) dr + int_void r S U dr
          = f_r U(f_r) - f_l U(f_l)

    with 2-point Gauss quadrature for all three weights, summed into one
    element matrix per cell: stiffness, then the singular mass at each
    Gauss point, then on void cells the void mass at each Gauss point.
    """
    _check_a(a)
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

    block = _stencil_block(grid, [(local.reshape(-1, 2, 2), np.arange(grid.cells[0]))])
    return SparseSystem(block, rhs, _line_dirichlet_mask(cls.labels), grid, classification=cls)


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


def _node_ids_2d(grid: StructuredGrid) -> Tuple[np.ndarray, int]:
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


# each corner of a cell in element order, as its node's offset from the cell's
# first node, slowest axis first: left, right on a line; SW, SE, NE, NW in 2D
_CORNERS = {1: [(0,), (1,)], 2: [(0, 0), (0, 1), (1, 1), (1, 0)]}


def _stencil_block(grid: StructuredGrid, blocks: list[tuple[np.ndarray, np.ndarray]]) -> sp.dia_matrix:
    """The scalar block as per-node stencil sums of the adjacent cells' entries.

    ``blocks`` lists ``(tables, index)``: ``tables`` holds k element
    matrices over a cell's corners in ``_CORNERS`` order, and ``index``,
    shaped like the cells slowest axis first, picks each cell's matrix; a
    cell whose index is k carries nothing in that block.  Each sum adds the
    cells around the node in cell order, lower row first and west before
    east, and each cell's blocks in list order, except on the first node
    column of a periodic grid, whose west cells are the last of their row.
    These are the sums that summing the element matrices from COO triplets,
    cell by cell and block by block, gives bit for bit.

    Each stencil sum goes straight into its diagonal, in ascending offset
    order: 3 diagonals on a line, 9 in 2D.  On a periodic grid the wrap
    entries of node column 0 fill its unused W and NW slots and those of
    node column nx - 1 its unused SE and E slots, and the rest go to the two
    diagonals at +-(2 nx - 1), 11 in all.  An entry no cell carries is 0, so
    ``tocsr()`` gives the sorted int32 CSR block that the triplet sum gives;
    a product adds each row's terms in ascending column order, as CSR does.
    """
    counts = grid.node_counts()[::-1]
    corners = _CORNERS[grid.dim]
    stencil = list(itertools.product((-1, 0, 1), repeat=grid.dim))
    # the cells around a node as cell offsets, in cell order, with the node's corner in each
    around = [(c, corners.index(tuple(-d for d in c))) for c in itertools.product((-1, 0), repeat=grid.dim)]
    # cell (node + offset) is padded[node + 1 + offset]: empty cells around the grid,
    # the last cell column again on a periodic grid
    padded = []
    for tables, index in blocks:
        pad = np.full(tuple(n + 1 for n in counts), len(tables), dtype=index.dtype)
        pad[tuple(slice(1, 1 + c) for c in index.shape)] = index
        if grid.periodic_x:
            pad[1:-1, 0] = index[:, -1]
        padded.append((np.concatenate([tables, np.zeros((1,) + tables.shape[1:])]), pad))
    strides = [math.prod(counts[axis + 1:]) for axis in range(grid.dim)]
    stencil_offsets = [sum(d * s for d, s in zip(delta, strides)) for delta in stencil]
    nx = counts[-1]
    offsets = sorted(stencil_offsets + ([1 - 2 * nx, 2 * nx - 1] if grid.periodic_x else []))
    n_nodes = math.prod(counts)
    data = np.zeros((len(offsets), n_nodes))

    def diagonal(offset):  # the diagonal as node-shaped, indexed by the column's node
        return data[offsets.index(offset)].reshape(counts)

    for delta, offset in zip(stencil, stencil_offsets):
        terms = []
        for cell, corner in around:
            node = tuple(d - c for d, c in zip(delta, cell))
            if node in corners:
                view = tuple(slice(1 + c, 1 + c + n) for c, n in zip(cell, counts))
                terms += [(cell, tables[:, corner, corners.index(node)], pad[view]) for tables, pad in padded]
        # an empty cell adds +0.0, which leaves every partial sum as it is
        vals = np.zeros(counts)
        for _, entries, cells in terms:
            vals += entries[cells]
        if grid.periodic_x:
            vals[:, 0] = 0.0
            for _, entries, cells in sorted(terms, key=lambda t: (t[0][0], -t[0][1])):
                vals[:, 0] += entries[cells[:, 0]]
        # row node + delta is column node: node-shaped slices of the rows and of their columns
        rows = tuple(slice(max(0, -d), n - max(0, d)) for d, n in zip(delta, counts))
        cols = tuple(slice(max(0, d), n + min(0, d)) for d, n in zip(delta, counts))
        diagonal(offset)[cols] = vals[rows]
        dx = delta[-1]
        if grid.periodic_x and dx:  # the wrap column: node column 0 west, nx - 1 east
            edge = 0 if dx < 0 else nx - 1
            diagonal(offset - dx * nx)[cols[:-1] + (nx - 1 - edge,)] = vals[rows[:-1] + (edge,)]
    return sp.dia_matrix((data, np.array(offsets, dtype=np.int32)), shape=(n_nodes, n_nodes))


def assemble_2d(grid: StructuredGrid, shape: ShapeSpec, a: float) -> SparseSystem:
    """Bilinear-quad assembly of the vector weak form on a 2D grid.

    The operator decouples componentwise, so both components share one
    scalar block  a * stiffness + void mass,  built as per-node 9-point
    sums of the fused 4x4 element matrices of the active cells around each
    node (``_stencil_block``);  the load integrates the basis
    gradients exactly over shape cells (x gradients for the first
    component, y gradients for the second).
    """
    _check_a(a)
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
    block = _stencil_block(grid, [(tables, cls.labels)])
    labels = cls.labels.ravel()
    conn, n_nodes = _node_ids_2d(grid)
    shape_cells = labels == CellLabel.SHAPE

    rhs = np.zeros(2 * n_nodes)
    c_s = conn[shape_cells]
    if len(c_s):
        np.add.at(rhs, c_s.ravel(), np.tile(h * _GRAD_X, len(c_s)))
        np.add.at(rhs[n_nodes:], c_s.ravel(), np.tile(h * _GRAD_Y, len(c_s)))

    # Dirichlet: box boundary + any node of an Outside cell
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
    return SparseSystem(block, rhs, mask, grid, classification=cls)


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
#: A Galerkin product is formed in strips of whole coarse rows of the slowest
#: axis.  A strip's temporaries scale with it, and each strip costs about
#: 2 ms of scipy calls, so a strip holds at least this many coarse nodes (a
#: small level is one strip) and a level has at most _GALERKIN_STRIPS strips.
_GALERKIN_STRIP = 3072
_GALERKIN_STRIPS = 16
#: CG stops once ||r|| <= REL_TOL * ||b|| for each component.
REL_TOL = 1e-10
#: Default cap on the CG iterations of each component.
MAX_ITERATIONS = 100


def _field_from_vector(system: SparseSystem, x: np.ndarray, iterations: int) -> DiscreteField:
    counts = system.grid.node_counts()[::-1]  # slowest axis first
    comps = tuple(c.reshape(counts) for c in x.reshape(system.n_components, -1))
    return DiscreteField(grid=system.grid, components=comps, iterations=iterations)


def _axis_prolongation(n: int, periodic: bool) -> Tuple[sp.csr_matrix, np.ndarray]:
    """Linear interpolation along one axis from its even-indexed nodes.

    Returns the (n, n_coarse) prolongation and the fine index of each coarse
    node.  An open axis also keeps its last node; a periodic axis is a ring,
    so for even n its last node interpolates from nodes n - 2 and 0.  An
    axis shorter than ``_MIN_COARSEN_NODES`` is not coarsened.
    """
    if n < _MIN_COARSEN_NODES:
        return sp.identity(n, format="csr"), np.arange(n)
    coarse = np.arange(0, n, 2)
    odd = np.arange(1, n, 2)
    if not periodic and n % 2 == 0:
        coarse = np.append(coarse, n - 1)
        odd = odd[:-1]
    nc = len(coarse)
    rows = np.concatenate([coarse, odd, odd])
    cols = np.concatenate([np.arange(nc), (odd - 1) // 2, (odd + 1) // 2 % nc])
    vals = np.concatenate([np.ones(nc), np.full(2 * len(odd), 0.5)])
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, nc)), coarse


def _along_axes(factors, x: np.ndarray) -> np.ndarray:
    """A flat node vector of a tensor grid with factor k applied along axis k."""
    x = x.reshape([f.shape[1] for f in factors])
    for axis, factor in enumerate(factors):
        moved = x.swapaxes(0, axis)
        x = (factor @ moved.reshape(len(moved), -1)).reshape((-1,) + moved.shape[1:]).swapaxes(0, axis)
    return x.ravel()


def _masked_kron(slow: sp.csr_matrix, fast, row_free: np.ndarray, col_free: np.ndarray) -> sp.csr_matrix:
    """``kron(slow, fast)`` without the triplets of a fixed row or a fixed column."""
    K = sp.kron(slow, fast, format="coo")
    keep = row_free[K.row] & col_free[K.col]
    return sp.csr_matrix((K.data[keep], (K.row[keep], K.col[keep])), shape=K.shape)


def _band(A: sp.spmatrix, r0: int, r1: int, c0: int, c1: int) -> sp.csr_matrix:
    """Rows ``r0:r1`` of ``A`` over columns ``c0:c1``, which hold all their
    entries, as CSR in the order of ``A``'s product: ascending columns
    without stored zeros for a DIA block, the stored order for CSR."""
    if A.format == "dia":  # the rows as diagonals over the whole stored data, which is not copied
        rows = sp.dia_matrix((A.data, A.offsets + r0), shape=(r1 - r0, A.shape[1])).tocsr()
        data, indices, indptr = rows.data, rows.indices, rows.indptr
    else:  # views of the rows' stored entries
        lo, hi = A.indptr[r0], A.indptr[r1]
        data, indices, indptr = A.data[lo:hi], A.indices[lo:hi], A.indptr[r0:r1 + 1] - lo
    return sp.csr_matrix((data, indices - c0, indptr), shape=(r1 - r0, c1 - c0))


def _galerkin(A: sp.spmatrix, factors, free: np.ndarray, coarse_free: np.ndarray) -> sp.csr_matrix:
    """The coarse operator  P^T A P  over every coarse node, in strips of coarse rows.

    ``P`` is the ``kron`` of the axis factors without the triplets of a
    fixed fine row or a fixed coarse column; a fixed column of ``A`` meets
    an empty row of ``P``, so each sum adds the free-node product's terms in
    order.  No whole ``P`` is built, and a DIA ``A`` is never converted
    whole.  A strip of coarse rows along the slowest axis reads the fine
    rows it interpolates from and the rows next to them; every operator
    couples neighbouring rows of that axis only (a 9-point stencil, 3-point
    on a line).  The strip's ``P`` is the ``kron`` of a slice of that axis's
    factor over those rows, its ``P^T`` the transpose of a slice of it,
    and its rows of ``A`` a band (:func:`_band`).  Each strip's rows hold
    the terms, in the stored order, of the whole product.
    """
    slow, fast = factors[0], (factors[1] if len(factors) == 2 else sp.identity(1, format="csr"))
    free, coarse_free = free.ravel(), coarse_free.ravel()
    (n_slow, nc_slow), (n_fast, nc_fast) = slow.shape, fast.shape
    slow_t = slow.T.tocsr()
    step = max(1, _GALERKIN_STRIP // nc_fast, -(-nc_slow // _GALERKIN_STRIPS))
    strips = []
    for J0 in range(0, nc_slow, step):
        J1 = min(J0 + step, nc_slow)
        rows_t = slow_t[J0:J1]
        j0, j1 = int(rows_t.indices.min()), int(rows_t.indices.max()) + 1  # fine rows of the strip
        k0, k1 = max(0, j0 - 1), min(n_slow, j1 + 1)  # and the rows next to them
        P = _masked_kron(slow[k0:k1], fast, free[k0 * n_fast:k1 * n_fast], coarse_free)
        PT = P[(j0 - k0) * n_fast:(j1 - k0) * n_fast, J0 * nc_fast:J1 * nc_fast].T.tocsr()
        # the band is a temporary, freed before the product with P
        strips.append(PT @ _band(A, j0 * n_fast, j1 * n_fast, k0 * n_fast, k1 * n_fast) @ P)
    return sp.vstack(strips, format="csr")


class _Multigrid:
    """Galerkin multigrid V-cycle on vectors over every node of each level.

    Each level is a tensor grid, node counts slowest axis first (``(ny,
    nx)`` or ``(n,)``), whose vectors are 0 on its fixed nodes: the Dirichlet nodes, then the coarse nodes
    whose injected fine node is fixed.  A level keeps its operator (the
    whole block on the finest), smoother weights (0 on fixed nodes), the
    fixed nodes and its per-axis prolongation factors, applied one axis at
    a time, transposed to restrict.  Zeroing the residual and the prolonged
    correction on fixed nodes makes the transfers the ``kron`` of the
    factors with fixed fine rows and fixed coarse columns empty, of full
    column rank, so each ``P^T A P`` stays SPD on the free nodes.  The
    coarsest level has a dense inverse over its free nodes.  The same
    sweeps before and after each coarse correction keep the cycle
    symmetric, a valid CG preconditioner.  A free node whose diagonal entry
    is not positive raises :class:`NonConvergenceError` before any level
    is built: the block is not SPD.
    """

    def __init__(self, block: sp.spmatrix, grid: StructuredGrid, free: np.ndarray):
        counts = grid.node_counts()[::-1]
        periodic = [False] * (len(counts) - 1) + [grid.periodic_x]
        A = block
        free = free.reshape(counts)
        diagonal = A.diagonal()
        if np.any(diagonal[free.ravel()] <= 0):
            raise NonConvergenceError("nonpositive diagonal entry; system not SPD")
        self.levels = []
        while np.count_nonzero(free) > _COARSEST_UNKNOWNS and max(counts) >= _MIN_COARSEN_NODES:
            factors, keep = zip(*(_axis_prolongation(n, p) for n, p in zip(counts, periodic)))
            coarse_free = free[np.ix_(*keep)]
            weight = _SMOOTH_OMEGA / np.where(free.ravel(), diagonal, np.inf)
            self.levels.append((A, weight, np.flatnonzero(~free), factors, tuple(P.T for P in factors)))
            A = _galerkin(A, factors, free, coarse_free)
            counts, free = coarse_free.shape, coarse_free
            diagonal = A.diagonal()
        self.coarse_free = np.flatnonzero(free)
        # with no level, the coarsest operator is the DIA block itself
        self.coarse_inverse = np.linalg.inv(A.tocsr()[self.coarse_free][:, self.coarse_free].toarray())

    def __call__(self, r: np.ndarray, level: int = 0) -> np.ndarray:
        if level == len(self.levels):
            x = np.zeros(len(r))
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
        correction = _along_axes(factors, self(coarse, level + 1))
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


def _free_product(A: sp.spmatrix, fixed: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``A @ x`` with the ``fixed`` rows zeroed: for an ``x`` that is 0 on
    the fixed nodes, the product with ``A`` restricted to the free nodes."""
    y = A @ x
    y[fixed] = 0.0
    return y


def _pcg(A, fixed, b, b_norm, precondition, max_iterations) -> Tuple[np.ndarray, int]:
    """CG from x = 0 until ||r|| <= REL_TOL * b_norm; returns x and the iterations.

    Vectors are 0 on the ``fixed`` nodes; ``b`` is overwritten by the residual."""
    x = np.zeros(len(b))
    r = b
    p = precondition(r)
    rz = float(r @ p)
    for iterations in range(1, max_iterations + 1):
        Ap = _free_product(A, fixed, p)
        pAp = float(p @ Ap)
        if pAp <= 0:
            raise NonConvergenceError("nonpositive curvature; system not SPD")
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        if float(np.linalg.norm(r)) <= REL_TOL * b_norm:
            return x, iterations
        z = precondition(r)
        rz_new = float(r @ z)
        p *= rz_new / rz
        z += p  # the next direction, in z's storage, so no vector is left over
        p = z
        rz = rz_new
    raise NonConvergenceError(
        f"CG did not reach {REL_TOL} within the cap of {max_iterations} iterations per component"
    )


def solve_spd(system: SparseSystem, max_iterations: int = MAX_ITERATIONS) -> DiscreteField:
    """Preconditioned conjugate gradients on the free nodes, per component.

    No reduced copy of the block is made: CG runs on vectors over every
    node, 0 on the Dirichlet nodes (:func:`_free_product`).  Each load, the
    right-hand side less  block @ x_dirichlet  on the free rows, is formed
    when its component is solved.  One V-cycle hierarchy (:class:`_Multigrid`)
    on the system's grid serves every component.  Each component iterates
    until ||r_k|| <= REL_TOL * ||b_k||, 0 times for a zero load.  More than
    ``max_iterations`` per component, by default ``MAX_ITERATIONS`` at any
    size, raise :class:`NonConvergenceError`: a healthy V-cycle needs far
    fewer, so it means an assembly bug or an indefinite system.  The
    iteration count returned is the sum over components, deterministic for
    fixed inputs.
    """
    k = system.n_components
    mask = system.dirichlet_nodes
    m = mask.size
    free = ~mask
    x_full = np.zeros(system.n)
    x_comps = x_full.reshape(k, m)
    if system.dirichlet_values is not None:
        np.copyto(x_comps, system.dirichlet_values.reshape(k, m), where=mask)
    if not free.any():
        return _field_from_vector(system, x_full, 0)
    fixed = np.flatnonzero(mask)
    precondition = None
    iterations = 0
    for c in range(k):
        b = np.where(mask, 0.0, system.rhs[c * m:(c + 1) * m])
        if np.any(x_comps[c][mask] != 0.0):
            b = np.where(mask, 0.0, b - system.block @ x_comps[c])
        b_norm = float(np.linalg.norm(b))
        if b_norm == 0.0:
            continue
        if precondition is None:
            precondition = _Multigrid(system.block, system.grid, free)
        x, its = _pcg(system.block, fixed, b, b_norm, precondition, max_iterations)
        np.copyto(x_comps[c], x, where=free)
        iterations += its
        del x, b  # before the next load, which would otherwise sit beside them
    return _field_from_vector(system, x_full, iterations)


def homogeneous_boundary_probe(
    system: SparseSystem, boundary_values: np.ndarray
) -> DiscreteField:
    """Solve the homogeneous equation with prescribed Dirichlet data.

    ``boundary_values`` is a full-length nodal vector; only the entries at
    constrained nodes are used.  The right-hand side is zeroed, which turns
    the assembled system into the homogeneous equation used by the
    maximum-principle and interior-estimate checks.
    """
    values = np.asarray(boundary_values, dtype=float).ravel()
    if values.size != system.n:
        raise GridError(
            f"boundary data length {values.size} does not match system size {system.n}"
        )
    return solve_spd(replace(system, rhs=np.zeros(system.n), dirichlet_values=values))


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

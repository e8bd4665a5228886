"""Structured grids, cell classification and the inscribed-ball oracle.

Grids are uniform with equal spacing on both axes.  Cells are classified by
their center point: Shape if the center lies in the shape domain, Void if it
lies in the rest of the fictitious domain, Outside otherwise.  Cell-center
classification carries an O(h) geometry error, which the verification layer
accounts for explicitly instead of hiding it behind cut cells.

The geometric-thickness oracle is a brute-force sweep over inscribed balls:
for a source cell center c the ball of radius rho(c) (signed distance to the
shape boundary) is inscribed in the shape, so every covered cell receives the
candidate diameter 2 rho(c); the field is the max over candidates.  The max
reduction is associative and commutative, so the sweep order cannot change
the result; the implementation below stamps many balls at once, grouped by
reach and in batches of at most ``ORACLE_BATCH`` (source, target) pairs, so
its scratch memory is bounded whatever the grid.  Cost is
O(n_cells * ball cells) and refuses grids beyond 1024^2 cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from itertools import chain
from typing import Iterable, Optional, Sequence, TextIO, Tuple, Union

import numpy as np

from .errors import CoverageError, GridError
from .shapes import Family, ShapeSpec

#: Hard cap on oracle grid size (documented limit, not a silent truncation).
ORACLE_MAX_CELLS = 1024 * 1024

#: Candidate (source, target) pairs the oracle stamps at once; caps its scratch memory.
ORACLE_BATCH = 1 << 17

_SPACING_RTOL = 1e-12


class CellLabel(IntEnum):
    VOID = 0
    SHAPE = 1
    OUTSIDE = 2


@dataclass(frozen=True)
class StructuredGrid:
    """Uniform grid on a box, optionally periodic in x, optionally radial.

    1D grids have ``cells = (n,)`` and nodes ``origin + i*h``; 2D grids have
    ``cells = (nx, ny)``.  On a periodic axis the node count equals the cell
    count (the wrap node is not duplicated); otherwise it is cells + 1.
    Radial grids are 1D grids whose coordinate is the radius.
    """

    dim: int
    origin: Tuple[float, ...]
    h: float
    cells: Tuple[int, ...]
    periodic_x: bool = False
    radial: bool = False

    def __post_init__(self):
        if self.h <= 0:
            raise GridError(f"spacing must be positive, got {self.h}")
        if self.dim not in (1, 2):
            raise GridError(f"only 1D/2D grids supported, got dim={self.dim}")
        if len(self.cells) != self.dim or len(self.origin) != self.dim:
            raise GridError("origin/cells do not match the grid dimension")
        if any(c < 1 for c in self.cells):
            raise GridError(f"cell counts must be positive, got {self.cells}")
        if self.periodic_x and self.dim != 2:
            raise GridError("periodic_x applies to 2D grids only")

    def node_counts(self) -> Tuple[int, ...]:
        counts = []
        for axis, c in enumerate(self.cells):
            periodic = self.periodic_x and axis == 0
            counts.append(c if periodic else c + 1)
        return tuple(counts)

    def node_coords(self, axis: int) -> np.ndarray:
        n = self.node_counts()[axis]
        return self.origin[axis] + self.h * np.arange(n)

    def cell_centers(self, axis: int) -> np.ndarray:
        return self.origin[axis] + self.h * (np.arange(self.cells[axis]) + 0.5)

    @property
    def extent(self) -> Tuple[float, ...]:
        return tuple(c * self.h for c in self.cells)

    def n_cells(self) -> int:
        return int(np.prod(self.cells))


def build_grid(
    domain_box: Sequence[Sequence[float]],
    resolution: Union[int, Sequence[int]],
    periodic_x: bool = False,
) -> StructuredGrid:
    """Uniform grid over ``domain_box`` with ``resolution`` cells per axis.

    The per-axis spacings must agree to within 1e-12 relative, otherwise an
    anisotropic-spacing error is raised.
    """
    box = [(float(lo), float(hi)) for lo, hi in domain_box]
    dim = len(box)
    if dim not in (1, 2):
        raise GridError(f"only 1D/2D boxes supported, got {dim} axes")
    if np.isscalar(resolution):
        resolution = [int(resolution)] * dim
    resolution = [int(r) for r in resolution]
    if len(resolution) != dim:
        raise GridError("resolution does not match the box dimension")
    for lo, hi in box:
        if not hi > lo:
            raise GridError(f"degenerate box axis [{lo}, {hi}]")
    for r in resolution:
        if r < 4:
            raise GridError(f"need at least 4 cells per axis, got {r}")
    spacings = [(hi - lo) / r for (lo, hi), r in zip(box, resolution)]
    h = spacings[0]
    for other in spacings[1:]:
        if abs(other - h) > _SPACING_RTOL * max(abs(h), abs(other)):
            raise GridError(f"anisotropic spacing: {spacings}")
    return StructuredGrid(
        dim=dim,
        origin=tuple(lo for lo, _ in box),
        h=h,
        cells=tuple(resolution),
        periodic_x=periodic_x,
    )


@dataclass(frozen=True)
class CellClassification:
    """Per-cell labels; ``shape_mask`` is the characteristic function chi."""

    grid: StructuredGrid
    labels: np.ndarray  # CellLabel values; shape (nx,) in 1D, (ny, nx) in 2D

    @property
    def shape_mask(self) -> np.ndarray:
        return self.labels == CellLabel.SHAPE


def signed_distance(shape: ShapeSpec, point) -> float:
    """Exact signed distance to the shape boundary, positive inside.

    ``point`` holds one or two coordinates, read by :meth:`ShapeSpec.across`.
    """
    t = shape.across(*np.asarray(point, dtype=float).reshape(-1))
    return float(min(t - shape.f_l, shape.f_r - t))


def _cross_coordinate(shape: ShapeSpec, grid: StructuredGrid) -> np.ndarray:
    """:meth:`ShapeSpec.across` at every cell center, shaped like the cell labels."""
    if grid.dim == 1:
        return shape.across(grid.cell_centers(0))
    return shape.across(*np.meshgrid(grid.cell_centers(0), grid.cell_centers(1)))


def _signed_distance_grid(shape: ShapeSpec, grid: StructuredGrid) -> np.ndarray:
    """Vectorized signed distance at all cell centers."""
    t = _cross_coordinate(shape, grid)
    return np.minimum(t - shape.f_l, shape.f_r - t)


def _check_coverage(shape: ShapeSpec, grid: StructuredGrid) -> None:
    """Raise :class:`CoverageError` unless the grid box holds the shape strictly inside.

    On a 2D box around an annulus the outer circle must clear every edge.  On
    any other grid the last axis runs across the shape (x on a line, r on a
    radial grid, y on a band) and must reach past both interfaces.
    """
    lo = grid.origin
    hi = tuple(o + e for o, e in zip(grid.origin, grid.extent))
    if shape.family.kind == "annulus" and grid.dim == 2:
        if not shape.f_r < min(-lo[0], hi[0], -lo[1], hi[1]):
            raise CoverageError(f"annulus radius {shape.f_r} not strictly inside the grid box")
    elif not (lo[-1] < shape.f_l and shape.f_r < hi[-1]):
        raise CoverageError(
            f"shape ({shape.f_l}, {shape.f_r}) not strictly inside [{lo[-1]}, {hi[-1]}] across it"
        )


def classify_cells(grid: StructuredGrid, shape: ShapeSpec) -> CellClassification:
    """Label every cell Shape / Void / Outside by its center point."""
    _check_coverage(shape, grid)
    t = _cross_coordinate(shape, grid)
    in_omega = (t > shape.f_l) & (t < shape.f_r)
    # the fictitious domain: the grid box itself unless the family bounds it
    in_domain = True
    if shape.family == Family.INTERVAL_GENERAL:
        in_domain = (t > shape.b_l) & (t < shape.b_r)
    elif shape.family == Family.BAND_GENERAL:
        cx = grid.cell_centers(0)
        in_domain = (t > shape.b_l(cx)[None, :]) & (t < shape.b_r(cx)[None, :])
    labels = np.where(
        in_omega, CellLabel.SHAPE, np.where(in_domain, CellLabel.VOID, CellLabel.OUTSIDE)
    )
    return CellClassification(grid=grid, labels=labels.astype(np.uint8))


@dataclass(frozen=True)
class ThicknessField:
    """Per-cell geometric thickness, defined on Shape cells only."""

    grid: StructuredGrid
    values: np.ndarray  # NaN off the shape
    mask: np.ndarray

    def max_abs_deviation(self, reference: float) -> float:
        return float(np.max(np.abs(self.values[self.mask] - reference)))


def geometric_thickness_oracle(grid: StructuredGrid, shape: ShapeSpec) -> ThicknessField:
    """Brute-force inscribed-ball thickness on the cell centers.

    For every shape cell center c the ball of radius rho(c) around c lies in
    the shape; every covered shape cell records the candidate 2 rho(c) and
    keeps the maximum.  The result is within 2h of the exact constant
    thickness for the shapes handled here.

    The balls are stamped in batches.  Sources are grouped by their reach
    ``int(rho/h) + 1``, and a group's windows of ``2 reach + 1`` cells per
    axis are stamped together, at most ``ORACLE_BATCH`` (source, target)
    pairs at a time (one source when its window alone is larger), so the
    scratch arrays stay that size on any grid.  A periodic axis wraps the
    window and takes the shortest periodic distance; any other axis clips it
    to the grid, which only repeats its edge cells.
    """
    if grid.n_cells() > ORACLE_MAX_CELLS:
        raise GridError(
            f"oracle capped at {ORACLE_MAX_CELLS} cells, got {grid.n_cells()}"
        )
    cls = classify_cells(grid, shape)
    rho = _signed_distance_grid(shape, grid)
    mask = cls.shape_mask
    values = np.full(rho.shape, np.nan)
    values[mask] = 0.0
    # (centers, period or None) per axis, slowest first like the cell arrays
    axes = [
        (grid.cell_centers(axis), grid.extent[axis] if grid.periodic_x and axis == 0 else None)
        for axis in reversed(range(grid.dim))
    ]
    sources = np.flatnonzero(mask)
    radii = rho.reshape(-1)[sources]
    reaches = (radii / grid.h).astype(int) + 1
    for reach in np.unique(reaches):
        group = reaches == reach
        group_sources, group_radii = sources[group], radii[group]
        offsets = np.arange(-reach, reach + 1)
        step = max(1, ORACLE_BATCH // len(offsets) ** grid.dim)
        for lo in range(0, len(group_sources), step):
            batch = group_sources[lo:lo + step]
            r = group_radii[lo:lo + step].reshape((-1,) + (1,) * grid.dim)
            target, dist2 = 0, 0.0
            for axis, ((c, period), s) in enumerate(zip(axes, np.unravel_index(batch, mask.shape))):
                view = [len(batch)] + [1] * grid.dim
                view[axis + 1] = len(offsets)
                t = s[:, None] + offsets
                t = np.clip(t, 0, len(c) - 1) if period is None else t % len(c)
                d = c[t] - c[s][:, None]
                if period is not None:  # shortest periodic distance
                    d = (d + 0.5 * period) % period - 0.5 * period
                target = target * len(c) + t.reshape(view)
                dist2 = dist2 + d.reshape(view) ** 2
            covered = (dist2 <= r * r) & mask.reshape(-1)[target]
            # a clipped window repeats its edge cells and a wrapped one its
            # periodic images, each time at the same distance, so max-reduce
            np.maximum.at(
                values.reshape(-1), target[covered], np.broadcast_to(2.0 * r, covered.shape)[covered]
            )
    return ThicknessField(grid=grid, values=values, mask=mask)


#: Lines formatted by one ``%`` operation in ``write_csv``.
CSV_CHUNK_LINES = 4096


def write_csv(target: Union[str, TextIO], header: str, blocks: Iterable[tuple]) -> None:
    """Write ``header``, then blocks of lines, to a path or an open text handle.

    A block ``(line, columns)`` is one line per row of ``columns``, equal-length
    1D arrays whose row ``i`` fills the ``%`` fields of the template ``line``.
    Lines are formatted ``CSV_CHUNK_LINES`` at a time by one ``%`` operation
    and written as they are formed, so the file is never held whole.
    ``"%.17g" % v`` gives the bytes of ``f"{v:.17g}"``, ``nan`` and ``-0`` included.
    """
    if isinstance(target, str):
        with open(target, "w") as handle:
            return write_csv(handle, header, blocks)
    target.write(header)
    for line, columns in blocks:
        n = len(columns[0])
        for lo in range(0, n, CSV_CHUNK_LINES):
            rows = zip(*(c[lo:lo + CSV_CHUNK_LINES].tolist() for c in columns))
            target.write(line * min(CSV_CHUNK_LINES, n - lo) % tuple(chain.from_iterable(rows)))


def write_grid_csv(
    target: Union[str, TextIO],
    axes: Sequence[np.ndarray],
    names: Sequence[str],
    columns: Sequence[np.ndarray],
    mask: Optional[np.ndarray] = None,
) -> None:
    """CSV ``x[,y],<names>`` over grid points, x fastest, 17 significant digits.

    ``axes`` holds the x and, in 2D, the y coordinates; ``columns`` and the
    selecting ``mask`` are shaped ``(nx,)`` or ``(ny, nx)``.  Each coordinate is
    formatted once: x values enter the lines as strings, and each y value goes
    into its row's template as text, since a formatted float holds no ``%``.
    """
    xs = np.array(["%.17g" % x for x in axes[0].tolist()], dtype=object)
    fields = ",%.17g" * len(columns) + "\n"
    if len(axes) == 1:  # one row: the whole 1D grid
        rows = [(Ellipsis, "%s" + fields)]
    else:
        rows = [(j, "%s," + "%.17g" % y + fields) for j, y in enumerate(axes[1].tolist())]
    if mask is None:
        mask = np.ones(columns[0].shape, dtype=bool)
    blocks = (
        (line, [v[mask[row]] for v in [xs, *(c[row] for c in columns)]]) for row, line in rows
    )
    write_csv(target, ",".join(["x", "y"][: len(axes)] + list(names)) + "\n", blocks)


def write_thickness_csv(field: ThicknessField, target: Union[str, TextIO]) -> None:
    """CSV dump ``x[,y],thickness`` over shape cells, 17 significant digits."""
    grid = field.grid
    axes = [grid.cell_centers(d) for d in range(grid.dim)]
    write_grid_csv(target, axes, ["thickness"], [field.values], field.mask)

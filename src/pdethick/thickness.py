"""Divergence extraction, inverse thickness and error norms.

The PDE thickness is ``2 / (sqrt(a) div s)``; to avoid the singular points
where the divergence vanishes, the primary quantity is the inverse thickness
``sqrt(a)/2 * div s``, which is square-integrable on the shape.  Direct
thickness values are emitted only where the divergence is safely away from
zero.

Everything is evaluated at cell centers: P1/bilinear gradients are naturally
cellwise, and nodal averaging would both mask superconvergence and muddy the
order checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TextIO, Union

import numpy as np

from .errors import DomainError, EmptyShapeError
from .geometry import CellClassification, StructuredGrid, write_grid_csv
from .solver import DiscreteField, _cell_corners

#: |div| below DIV_FLOOR_REL * (2 / (sqrt(a) T_bar)) counts as singular.
DIV_FLOOR_REL = 1e-12


def divergence(field: DiscreteField) -> np.ndarray:
    """Cellwise divergence of a discrete field.

    1D: the elementwise slope.  Radial: p(r) = S_r + S/r at cell midpoints.
    2D: the cell-center divergence from the bilinear basis gradients.
    """
    grid = field.grid
    if grid.dim == 1:
        s = field.components[0]
        slope = np.diff(s) / grid.h
        if not grid.radial:
            return slope
        r = grid.node_coords(0)
        r_mid = 0.5 * (r[:-1] + r[1:])
        s_mid = 0.5 * (s[:-1] + s[1:])
        return slope + s_mid / r_mid
    # ((se + ne) - (sw + nw)) / (2h) + ((nw + ne) - (sw + se)) / (2h), in that
    # order, accumulated in place so that three cell arrays are alive at most
    h = grid.h
    sw, se, ne, nw = _cell_corners(grid, field.components[0])
    div = se + ne
    part = sw + nw
    div -= part
    div /= 2 * h
    sw, se, ne, nw = _cell_corners(grid, field.components[1])
    np.add(sw, se, out=part)
    dsy = nw + ne
    dsy -= part
    del part
    dsy /= 2 * h
    div += dsy
    return div


@dataclass(frozen=True)
class InverseThicknessField:
    """sqrt(a)/2 * div s restricted to shape cells (NaN elsewhere)."""

    grid: StructuredGrid
    values: np.ndarray
    mask: np.ndarray
    a: float

    def shape_values(self) -> np.ndarray:
        return self.values[self.mask]


def inverse_thickness(
    div_cells: np.ndarray, a: float, classification: CellClassification
) -> InverseThicknessField:
    """Inverse PDE thickness sqrt(a)/2 * div on the shape cells."""
    if not 0 < a < math.inf:  # NaN fails too
        raise DomainError(f"need a finite a > 0, got {a}")
    mask = classification.shape_mask
    values = np.full(div_cells.shape, np.nan)
    values[mask] = 0.5 * math.sqrt(a) * div_cells[mask]
    return InverseThicknessField(
        grid=classification.grid, values=values, mask=mask, a=a
    )


def _cell_measures(field: InverseThicknessField) -> np.ndarray:
    grid = field.grid
    if grid.dim == 2:
        return np.full(np.count_nonzero(field.mask), grid.h**2)
    if grid.radial:
        r = grid.node_coords(0)
        r_mid = 0.5 * (r[:-1] + r[1:])
        return 2.0 * math.pi * r_mid[field.mask] * grid.h
    return np.full(np.count_nonzero(field.mask), grid.h)


@dataclass(frozen=True)
class NormReport:
    l2_on_omega: float
    linf_on_omega: float


def error_norms(
    field: InverseThicknessField, reference: Union[float, np.ndarray]
) -> NormReport:
    """L2(Omega) and Linf(Omega) distance of the field to a reference.

    ``reference`` is a constant (e.g. 1/T_bar) or a per-shape-cell array
    (e.g. the analytic 1/T^a).  Radial grids weight cells with the annular
    measure 2 pi r h so the L2 norm is the plane L2 norm over the annulus.
    """
    vals = field.shape_values()
    if vals.size == 0:
        raise EmptyShapeError("no shape cells in the field")
    ref = np.asarray(reference, dtype=float)
    diff = vals - ref
    measures = _cell_measures(field)
    l2 = math.sqrt(float(np.sum(diff * diff * measures)))
    linf = float(np.max(np.abs(diff)))
    return NormReport(l2_on_omega=l2, linf_on_omega=linf)


def write_inverse_thickness_csv(
    field: InverseThicknessField,
    target: Union[str, TextIO],
    geometric_thickness: float,
) -> None:
    """CSV dump ``x[,y],inv_thickness[,thickness]`` over shape cells.

    Direct thickness is written only where |div| exceeds
    DIV_FLOOR_REL * 2/(sqrt(a) T_bar); singular cells get NaN there.
    """
    grid = field.grid
    floor = DIV_FLOOR_REL * (2.0 / (math.sqrt(field.a) * geometric_thickness))
    floor_inv = 0.5 * math.sqrt(field.a) * floor
    inv = field.values
    with np.errstate(divide="ignore"):
        direct = np.where(np.abs(inv) > floor_inv, 1.0 / inv, math.nan)
    axes = [grid.cell_centers(d) for d in range(grid.dim)]
    write_grid_csv(target, axes, ["inv_thickness", "thickness"], [inv, direct], field.mask)

"""PDE-based shape thickness.

Solves -a lap(s) + (1 - chi) s = -grad(chi) on a fictitious domain around a
shape, extracts the thickness 2/(sqrt(a) div s), and verifies the closed-form
solutions and convergence bounds for intervals, straight bands and annuli.
"""

from .analytic import (
    AnalyticSolution,
    annulus_general_bound,
    annulus_whole,
    band_general_bound,
    band_whole,
    eval_solution,
    interface_jumps,
    interval_general,
    interval_whole,
)
from .bessel import (
    BesselKind,
    ScaledBessel,
    bessel_scaled,
    check_ratio_inequalities,
    i0_scaled,
    i1_scaled,
    k0_scaled,
    k1_scaled,
)
from .geometry import (
    CellClassification,
    CellLabel,
    StructuredGrid,
    ThicknessField,
    build_grid,
    classify_cells,
    geometric_thickness_oracle,
    signed_distance,
)
from .harness import (
    ConvergenceReport,
    VerifyReport,
    fit_rate,
    sweep_a,
    verify_theorems,
)
from .shapes import Family, PeriodicBoundary, ShapeSpec
from .solver import (
    DiscreteField,
    SparseSystem,
    assemble_1d,
    assemble_2d,
    assemble_radial,
    homogeneous_boundary_probe,
    solve_spd,
)
from .thickness import (
    InverseThicknessField,
    divergence,
    error_norms,
    inverse_thickness,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyticSolution",
    "BesselKind",
    "CellClassification",
    "CellLabel",
    "ConvergenceReport",
    "DiscreteField",
    "Family",
    "InverseThicknessField",
    "PeriodicBoundary",
    "ScaledBessel",
    "ShapeSpec",
    "SparseSystem",
    "StructuredGrid",
    "ThicknessField",
    "VerifyReport",
    "annulus_general_bound",
    "annulus_whole",
    "assemble_1d",
    "assemble_2d",
    "assemble_radial",
    "band_general_bound",
    "band_whole",
    "bessel_scaled",
    "build_grid",
    "check_ratio_inequalities",
    "classify_cells",
    "divergence",
    "error_norms",
    "eval_solution",
    "fit_rate",
    "geometric_thickness_oracle",
    "homogeneous_boundary_probe",
    "i0_scaled",
    "i1_scaled",
    "interface_jumps",
    "interval_general",
    "interval_whole",
    "inverse_thickness",
    "k0_scaled",
    "k1_scaled",
    "signed_distance",
    "solve_spd",
    "sweep_a",
    "verify_theorems",
]

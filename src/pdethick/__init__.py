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
    interval_general,
    interval_whole,
)
from .bessel import (
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
    classify_cells,
    geometric_thickness_oracle,
    oracle_grid,
)
from .harness import (
    TheoremCheck,
    VerifyReport,
    fit_rate,
    sweep_a,
    verify_theorems,
)
from .shapes import Family, PeriodicBoundary, ShapeSpec
from .solver import (
    DiscreteField,
    SparseSystem,
    assemble,
    homogeneous_boundary_probe,
    problem_grid,
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
    "CellClassification",
    "CellLabel",
    "DiscreteField",
    "Family",
    "InverseThicknessField",
    "PeriodicBoundary",
    "ShapeSpec",
    "SparseSystem",
    "StructuredGrid",
    "TheoremCheck",
    "ThicknessField",
    "VerifyReport",
    "annulus_general_bound",
    "annulus_whole",
    "assemble",
    "band_general_bound",
    "band_whole",
    "classify_cells",
    "divergence",
    "error_norms",
    "eval_solution",
    "fit_rate",
    "geometric_thickness_oracle",
    "homogeneous_boundary_probe",
    "i0_scaled",
    "i1_scaled",
    "interval_general",
    "interval_whole",
    "inverse_thickness",
    "k0_scaled",
    "k1_scaled",
    "oracle_grid",
    "problem_grid",
    "solve_spd",
    "sweep_a",
    "verify_theorems",
]

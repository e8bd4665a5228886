"""Parameter sweeps, rate fitting and automated verification of every bound.

Each verification check is registered once, with its name, its statement and
whether the closed-form ``analytic`` suite runs it; registration order is
report order, and the ``default`` suite runs every check.  Every check runs
in a forked worker process, on its own generator seeded by the run's seed
and the check's name.  A check that raises, or whose worker dies, is
recorded as failed, with statement ``(errored)`` and no samples, and the run
goes on.  Each sample states only the sides its bound has: a sample
``{a, error, bound, slack, passed}`` passes iff ``error <= bound + slack``,
and two-sided analytic bounds also record ``lower_bound`` and require
``lower_bound <= error``.  Discrete 2D cases add the slack ``2 h / T^2`` to
the L2 envelope, which has no lower side; analytic cases get zero slack.  A
check passes iff it has no error message and every sample passes.  Sweeps and
checks share one record: :func:`sweep_a` returns a :class:`TheoremCheck` of
the family's bound, the closed-form bracket or the L2 envelope, so a sweep's
verdict is read off its samples as a check's is.

Resolution floor: boundary layers decay like exp(-dist/sqrt(a)), so 2D
general-domain solves mesh at ``h = target_h(a) = sqrt(a)/8``; a grid coarser
than that raises :class:`UnderResolvedError` before any solve happens
(flagged in reports, no false passes).  a-grids are fixed geometric
sequences, never auto-chosen.

Every PDE solve gets its system from ``_system``, through ``solver.problem_grid``
and ``solver.assemble``; the one direct assembler call is the all-void probe's
``solver.assemble_1d(grid, None, a)``, which has no shape.  Every tail probe
gets its boundary data from ``_tail_data``.

Reports serialize deterministically: fixed key order, floats at 17
significant digits; identical configuration yields byte-identical JSON.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field as dataclass_field
from typing import TYPE_CHECKING, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import analytic, bessel, geometry, solver, thickness
from .errors import DegenerateFitError, PdeThickError, UnderResolvedError
from .shapes import Family, PeriodicBoundary, ShapeSpec
from . import shapes as _shapes

if TYPE_CHECKING:  # the pool's modules load only where a pool starts, so solve and sweep skip them
    from concurrent.futures import Future

#: Default seed for the randomized shape draws in the verification suites.
DEFAULT_SEED = 20260809


# ---------------------------------------------------------------------------
# deterministic serialization


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(float(x), ".17g")


def dumps_json(obj, indent: int = 0) -> str:
    """JSON text with floats at 17 significant digits and stable key order."""
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {dumps_json(v, indent + 2)}' for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join(f"{pad}  {dumps_json(v, indent + 2)}" for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    return json.dumps(str(obj))


# ---------------------------------------------------------------------------
# rate fitting


def fit_rate(points: Sequence[Tuple[float, float]]) -> Tuple[float, float]:
    """Least-squares slope/intercept of log(error) against log(a).

    Points with nonpositive error are dropped; at least three positive points
    and at least two distinct a values are required.  Natural logarithms, so
    errors = 2 sqrt(a) fit to slope 1/2 and intercept log 2.
    """
    usable = [(float(a), float(e)) for a, e in points if e > 0]
    if len(usable) < 3:
        raise DegenerateFitError(f"need at least 3 positive-error points, got {len(usable)}")
    a_vals = {a for a, _ in usable}
    if len(a_vals) < 2:
        raise DegenerateFitError("all a values are equal")
    la = np.log([a for a, _ in usable])
    le = np.log([e for _, e in usable])
    design = np.vstack([la, np.ones_like(la)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, le, rcond=None)
    return float(slope), float(intercept)


# ---------------------------------------------------------------------------
# resolution floor and discrete case runner


#: Hard resolution floor: at least this many cells per boundary-layer width.
REQUIRED_LAYERS_PER_SQRT_A = 8.0


def target_h(a: float) -> float:
    """The mesh spacing that puts the floor's cells across one layer width sqrt(a)."""
    return math.sqrt(a) / REQUIRED_LAYERS_PER_SQRT_A


def _system(shape: ShapeSpec, a: float, h: float) -> solver.SparseSystem:
    """The system of ``shape`` on its solve grid at target spacing ``h``."""
    return solver.assemble(solver.problem_grid(shape, a, h), shape, a)


def run_general_l2_case(shape: ShapeSpec, a: float) -> SweepSample:
    """One 2D solve of a general band/annulus; returns its envelope sample.

    Error: || 1/T^a - 1/T_bar ||_{L2(shape)} from the discrete inverse
    thickness; bound: the theorem envelope; slack: 2 h / T^2.  The theorem
    gives no lower side, so the sample records none.  A grid coarser than the
    floor raises :class:`UnderResolvedError` before the solve.
    """
    # raises DomainError, before any solve, for a family without an L2 envelope
    bound = analytic.general_bound(shape, a)
    limit = target_h(a)
    system = _system(shape, a, limit)
    h = system.grid.h
    if h > limit * (1 + 1e-12):
        raise UnderResolvedError(
            f"h = {h} violates the resolution floor h <= sqrt(a)/{REQUIRED_LAYERS_PER_SQRT_A} = {limit}"
        )
    field = solver.solve_spd(system)
    classification = system.classification
    del system  # and any whole-grid block and hierarchy it keeps
    # each stage frees the one before as it forms, so the thickness stage holds no field
    div = thickness.divergence(field)
    del field
    inv = thickness.inverse_thickness(div, a, classification)
    del div
    norms = thickness.error_norms(inv, 1.0 / shape.thickness)
    del inv
    slack = 2.0 * h / shape.thickness**2
    return SweepSample(a=a, error=norms.l2_on_omega, bound=bound, slack=slack)


# ---------------------------------------------------------------------------
# samples, checks and sweeps


@dataclass
class SweepSample:
    a: float
    error: float
    bound: float
    slack: float
    lower_bound: Optional[float] = None

    @classmethod
    def bracketing(cls, sol: analytic.AnalyticSolution) -> "SweepSample":
        """The closed-form sample: T^a - T_bar between the solution's two bounds."""
        return cls(
            a=sol.a, error=sol.thickness_error, bound=sol.upper_bound, slack=0.0,
            lower_bound=sol.lower_bound,
        )

    @property
    def passed(self) -> bool:
        """``error <= bound + slack``, and ``lower_bound <= error`` where one is given."""
        above = self.lower_bound is None or self.lower_bound <= self.error
        return bool(above and self.error <= self.bound + self.slack)

    def to_dict(self) -> dict:
        out = {
            "a": self.a,
            "error": self.error,
            "bound": self.bound,
            "slack": self.slack,
            "passed": self.passed,
        }
        if self.lower_bound is not None:
            out["lower_bound"] = self.lower_bound
        return out


@dataclass
class TheoremCheck:
    case: str
    statement: str
    samples: List[SweepSample] = dataclass_field(default_factory=list)
    slope: Optional[float] = None
    intercept: Optional[float] = None
    error_message: Optional[str] = None

    def add(self, sample: SweepSample) -> None:
        self.samples.append(sample)

    @property
    def passed(self) -> bool:
        return self.error_message is None and all(s.passed for s in self.samples)

    def to_dict(self) -> dict:
        return {
            "case": self.case,
            "statement": self.statement,
            "samples": [s.to_dict() for s in self.samples],
            "slope": self.slope,
            "intercept": self.intercept,
            "passed": self.passed,
            "error": self.error_message,
        }


def sweep_a(shape: ShapeSpec, a_values: Sequence[float]) -> TheoremCheck:
    """Sweep the diffusion parameter and check each sample against the family's bound.

    Families with pointwise bounds use the analytic ``T^a - T_bar`` directly;
    general band/annulus families run the 2D solver and measure the
    inverse-thickness L2 error.  Requires at least four positive a values
    spanning at least two decades.  The fitted slope and intercept are
    ``None`` where the fit is degenerate.
    """
    a_values = sorted(float(a) for a in a_values)
    if len(a_values) < 4:
        raise PdeThickError(f"need at least 4 a values, got {len(a_values)}")
    if not all(0 < a < math.inf for a in a_values):  # NaN fails too
        raise PdeThickError("a values must be positive and finite")
    if a_values[-1] / a_values[0] < 99.0:
        raise PdeThickError("a values must span at least two decades")
    if shape.family in analytic.L2_ENVELOPES:
        statement = "L2 error of 1/T^a vs 1/T_bar within the theorem envelope"
        samples = [run_general_l2_case(shape, a) for a in a_values]
    else:
        statement = "T^a - T_bar between the closed-form lower and upper bounds"
        samples = [SweepSample.bracketing(analytic.solve_family(shape, a)) for a in a_values]
    label = f"{shape.family.value}(f_l={shape.f_l:g}, f_r={shape.f_r:g})"
    check = TheoremCheck(case=label, statement=statement, samples=samples)
    with contextlib.suppress(DegenerateFitError):
        check.slope, check.intercept = fit_rate([(s.a, s.error) for s in samples])
    return check


def write_report_json(report, path: str) -> None:
    with open(path, "w") as handle:
        handle.write(dumps_json(report.to_dict()))
        handle.write("\n")


def _csv_text(rows: Iterable[Sequence[str]]) -> str:
    """CSV lines, a field quoted only where it holds ``,``, ``"`` or a newline (RFC 4180)."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _sample_fields(s: SweepSample) -> List[str]:
    return [_fmt_float(s.a), _fmt_float(s.error), _fmt_float(s.bound), _fmt_float(s.slack), str(s.passed)]


def report_csv_text(report: TheoremCheck) -> str:
    """A sweep's samples, one row each, the fitted slope and intercept repeated on every row."""
    fit = ["" if v is None else _fmt_float(v) for v in (report.slope, report.intercept)]
    return _csv_text([
        ("case", "a", "error", "bound", "slack", "passed", "slope", "intercept"),
        *([report.case, *_sample_fields(s), *fit] for s in report.samples),
    ])


# ---------------------------------------------------------------------------
# theorem checks


@dataclass
class VerifyReport:
    suite: str
    checks: List[TheoremCheck]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }

    def csv_text(self) -> str:
        return _csv_text([
            ("case", "a", "error", "bound", "slack", "passed"),
            *([check.case, *_sample_fields(s)] for check in self.checks for s in check.samples),
        ])


_CheckFn = Callable[[TheoremCheck, np.random.Generator], None]

#: name -> (statement, in the analytic suite, function adding the samples), in report order
_CHECKS: Dict[str, Tuple[str, bool, _CheckFn]] = {}


def _check(name: str, statement: str, analytic: bool = False) -> Callable[[_CheckFn], _CheckFn]:
    """Register a check; ``analytic`` puts it in the closed-form suite too, and decides nothing else."""

    def register(fn: _CheckFn) -> _CheckFn:
        _CHECKS[name] = (statement, analytic, fn)
        return fn

    return register


def _errored(name: str, exc: Exception) -> TheoremCheck:
    return TheoremCheck(case=name, statement="(errored)", error_message=f"{type(exc).__name__}: {exc}")


def _run_check(name: str, seed: int) -> TheoremCheck:
    """Run one registered check; a raising check is a failed check, not an aborted run.

    The check draws from ``default_rng([seed, *name.encode()])``, so its
    samples depend on the run's seed and its name alone.
    """
    statement, _, fn = _CHECKS[name]
    check = TheoremCheck(case=name, statement=statement)
    try:
        fn(check, np.random.default_rng([seed, *name.encode()]))
    except Exception as exc:
        return _errored(name, exc)
    return check


def _fit_slope(
    check: TheoremCheck, points: Sequence[Tuple[float, float]], window: Tuple[float, float], what: str
) -> None:
    """Record the log-log slope of ``points``; outside ``window`` the check fails.

    ``what`` formats the slope in the failure message, e.g. ``"fitted slope {:.4f}"``.
    """
    check.slope, check.intercept = fit_rate(points)
    lo, hi = window
    if not lo <= check.slope <= hi:
        check.error_message = f"{what.format(check.slope)} outside [{lo}, {hi}]"


@_check("interval-whole-equality", "T^a - T_bar = 2 sqrt(a) exactly on the whole line", analytic=True)
def _check_interval_whole_equality(check: TheoremCheck, rng: np.random.Generator) -> None:
    a_grid = [10.0**e for e in range(-8, 1)]
    for _ in range(20):
        f_l = float(rng.uniform(-3.0, 3.0))
        width = float(rng.uniform(0.05, 4.0))
        for a in a_grid:
            sol = analytic.interval_whole(f_l, f_l + width, a)
            err = abs(sol.thickness_error - 2.0 * math.sqrt(a))
            check.add(SweepSample(a=a, error=err, bound=1e-12 * width, slack=0.0))


@_check(
    "interval-general-bounds",
    "2 sqrt(a) <= T^a - T_bar <= 2 sqrt(a) + 4 T exp(-2m/sqrt(a)); and in logs, "
    "the excess E = T^a - T_bar - 2 sqrt(a) has finite log E <= log(4 T) - 2m/sqrt(a)",
    analytic=True,
)
def _check_interval_general_bounds(check: TheoremCheck, rng: np.random.Generator) -> None:
    # the upper envelope is only valid for margins above (log 2 / 2) sqrt(a)
    # (it is exactly tight there for equal margins), so the draws keep
    # m >= 0.5 while a <= 1.  Where 4 T exp(-2m/sqrt(a)) is below an ulp of
    # 2 sqrt(a), only the second sample of a draw sees the upper side.
    for _ in range(50):
        f_l = float(rng.uniform(-2.0, 2.0))
        width = float(rng.uniform(0.1, 3.0))
        m_l = float(rng.uniform(0.5, 3.0))
        m_r = float(rng.uniform(0.5, 3.0))
        a = float(10.0 ** rng.uniform(-6.0, 0.0))
        sol = analytic.interval_general(f_l, f_l + width, f_l - m_l, f_l + width + m_r, a)
        check.add(SweepSample.bracketing(sol))
        # the most negative double as lower bound: a finite log proves E > 0
        log_bound = math.log(4.0 * width) - 2.0 * min(m_l, m_r) / math.sqrt(a)
        check.add(
            SweepSample(
                a=a, error=sol.log_excess, bound=log_bound, slack=0.0,
                lower_bound=-sys.float_info.max,
            )
        )


@_check(
    "band-whole-equality",
    "straight band reduces to the 1D problem: T^a = T_bar + 2 sqrt(a)",
    analytic=True,
)
def _check_band_whole_equality(check: TheoremCheck, rng: np.random.Generator) -> None:
    for a in (1e-6, 1e-4, 1e-2, 1.0):
        for (f_l, f_r, L) in ((0.0, 1.0, 1.0), (-1.0, 1.0, 2.0)):
            sol = analytic.band_whole(f_l, f_r, a, L)
            err = abs(sol.thickness_error - 2.0 * math.sqrt(a))
            T = f_r - f_l
            check.add(SweepSample(a=a, error=err, bound=1e-12 * T, slack=0.0))


@_check(
    "annulus-whole-bounds",
    "(3 f_r + f_l)/(2 f_r) sqrt(a) <= T^a - T_bar <= 2 (f_r/f_l) sqrt(a)",
    analytic=True,
)
def _check_annulus_whole_bounds(check: TheoremCheck, rng: np.random.Generator) -> None:
    for _ in range(50):
        f_r = float(rng.uniform(0.5, 5.0))
        f_l = float(rng.uniform(0.05 * f_r, 0.95 * f_r))
        T = f_r - f_l
        a = float(T * T * 10.0 ** rng.uniform(-8.0, 0.0))
        check.add(SweepSample.bracketing(analytic.annulus_whole(f_l, f_r, a)))


@_check("bessel-ratio-bounds", "K and I ratio envelopes and decay of sqrt(x) e^x K_1(x)", analytic=True)
def _check_bessel_ratio_bounds(check: TheoremCheck, rng: np.random.Generator) -> None:
    """Worst margins of the three ratio properties over 1000 sampled x."""
    xs = np.logspace(-6, 6, 1000)  # annulus_whole reaches arguments of about 2e5
    deficits = np.array([bessel.ratio_deficits(x) for x in xs.tolist()])
    # the worst deficit of each property (k, i, decay) at its first argument; a NaN counts as worst
    for k, i in enumerate(np.argmax(deficits, axis=0)):
        check.add(SweepSample(a=float(xs[i]), error=float(deficits[i, k]), bound=0.0, slack=0.0))


def canonical_wavy_band() -> ShapeSpec:
    """The canonical verification band: flat floor, one wavy ceiling (m = 0.4)."""
    return _shapes.band_general(
        0.0,
        1.0,
        PeriodicBoundary.constant(-0.5, 1.0),
        PeriodicBoundary(period=1.0, mean=1.5, cosine_coeffs=(0.1,)),
        L=1.0,
    )


@_check("band-flat-reduction", "flat-band 2D solve carries no x component and matches the 1D profile")
def _check_band_flat_reduction(check: TheoremCheck, rng: np.random.Generator) -> None:
    a = 0.04
    h = 1.0 / 64
    band = _shapes.band_general(0.0, 1.0, -1.0, 2.0, L=1.0)
    field2 = solver.solve_spd(_system(band, a, h))
    field1 = solver.solve_spd(_system(_shapes.interval_general(0.0, 1.0, -1.0, 2.0), a, h))
    sx, sy = field2.components
    scale = max(float(np.max(np.abs(sx))), float(np.max(np.abs(sy))))
    x_err = float(np.max(np.abs(sx)))
    y_err = float(np.max(np.abs(sy - field1.components[0][:, None])))
    for err in (x_err, y_err):
        check.add(SweepSample(a=a, error=err, bound=1e-8 * scale, slack=0.0))


@_check("band-general-envelope", "L2 error of 1/T^a vs 1/T_bar within the wavy-band envelope")
def _check_band_general_envelope(check: TheoremCheck, rng: np.random.Generator) -> None:
    shape = canonical_wavy_band()
    for a in (0.04, 0.02, 0.01):
        check.add(run_general_l2_case(shape, a))
    _fit_slope(check, [(s.a, s.error) for s in check.samples], (0.4, 0.6), "fitted slope {:.4f}")


@_check("annulus-general-envelope", "L2 error of 1/T^a vs 1/T_bar within the boxed-annulus envelope")
def _check_annulus_general_envelope(check: TheoremCheck, rng: np.random.Generator) -> None:
    shape = _shapes.annulus_general(1.0, 2.0, 2.5)
    for a in (0.04, 0.02):
        check.add(run_general_l2_case(shape, a))


def _tail_data(system: solver.SparseSystem, shape: ShapeSpec, a: float) -> np.ndarray:
    """Boundary data ``S(t) grad t`` at the Dirichlet nodes of ``system``, 0.0 elsewhere.

    ``t = shape.across(...)`` is the coordinate across the shape and ``S`` the
    closed form of the same shape in the whole space: ``S`` on a line or radial
    grid, ``(0, S(y))`` on a band and ``S(r) (x, y)/r`` on a box, whose
    Dirichlet nodes lie on its edge, where ``r > 0``.  A probe reads its data
    only at the Dirichlet nodes, so ``S`` is evaluated there alone.
    """
    whole = ShapeSpec(Family(f"{shape.family.kind}-whole"), shape.f_l, shape.f_r, L=shape.L)
    grid, fixed = system.grid, system.dirichlet_nodes
    coords = [c.ravel()[fixed] for c in np.meshgrid(*map(grid.node_coords, range(grid.dim)))]
    t = shape.across(*coords)
    s_of_t = analytic.profile(analytic.solve_family(whole, a), t)
    data = np.zeros((grid.dim, fixed.size))
    if grid.dim == 1 or shape.family.kind == "band":
        data[-1, fixed] = s_of_t
    else:
        data[:, fixed] = [s_of_t * (c / t) for c in coords]
    return data.ravel()


def _max_principle_probes(a: float = 0.04) -> List[Tuple[str, "solver.SparseSystem", np.ndarray]]:
    """The ten homogeneous probes: (label, system, boundary data)."""
    # 1-4: 1D interval-general with constant, tail and smooth data, and the all-void domain
    ishape = _shapes.interval_general(0.0, 1.0, -1.0, 2.0)
    sys1 = _system(ishape, a, 1.0 / 64)
    sys_v = solver.assemble_1d(sys1.grid, None, a)
    probes = [
        ("interval-const", sys1, np.ones(sys1.n)),
        ("interval-tail", sys1, _tail_data(sys1, ishape, a)),
        ("interval-cosine", sys1, np.cos(3.0 * sys1.grid.node_coords(0))),
        ("void-const", sys_v, np.ones(sys_v.n)),
    ]
    # 5-10: radial annulus, 2D flat band and annulus box, each with constant and tail data
    for label, shape, h in (
        ("radial", _shapes.annulus_whole(1.0, 2.0), 1.0 / 128),
        ("band", _shapes.band_general(0.0, 1.0, -1.0, 2.0, L=1.0), 1.0 / 16),
        ("annulus-box", _shapes.annulus_general(1.0, 2.0, 2.5), target_h(a)),
    ):
        system = _system(shape, a, h)
        probes.append((f"{label}-const", system, np.ones(system.n)))
        probes.append((f"{label}-tail", system, _tail_data(system, shape, a)))
    return probes


def _vector_magnitude(field: solver.DiscreteField) -> np.ndarray:
    return np.sqrt(sum(np.asarray(c, dtype=float) ** 2 for c in field.components)).ravel()


@_check("max-principle", "homogeneous solutions: sup over the domain <= sup over its boundary")
def _check_max_principle(check: TheoremCheck, rng: np.random.Generator) -> None:
    a = 0.04
    for _label, system, data in _max_principle_probes(a):
        field = solver.homogeneous_boundary_probe(system, data)
        mag = _vector_magnitude(field)
        mask = system.dirichlet_nodes
        boundary_sup = float(np.max(mag[mask]))
        interior = mag[~mask]
        interior_sup = float(np.max(interior)) if interior.size else 0.0
        slack = 10.0 * solver.REL_TOL * max(boundary_sup, 1.0)
        check.add(SweepSample(a=a, error=interior_sup, bound=boundary_sup, slack=slack))


@_check("solver-1d-convergence", "1D discrete solution converges to the closed form at second order")
def _check_solver_1d_convergence(check: TheoremCheck, rng: np.random.Generator) -> None:
    a = 0.04
    shape = _shapes.interval_general(0.0, 1.0, -1.0, 2.0)
    sol = analytic.interval_general(0.0, 1.0, -1.0, 2.0, a)
    cells = (128, 256, 512)
    errors = []
    for n in cells:
        field = solver.solve_spd(_system(shape, a, 1.0 / n))
        exact = analytic.profile(sol, field.grid.node_coords(0))
        errors.append((cells[-1] / n, float(np.max(np.abs(field.components[0] - exact)))))
    check.add(SweepSample(a=a, error=errors[-1][1], bound=5e-5, slack=0.0))
    # error vs h / h_finest: the slope is the observed order, and the intercept
    # the log of the fitted error at the finest h, not extrapolated to h = 1
    _fit_slope(check, errors, (1.7, 2.3), "observed order {:.3f}")


@_check("radial-cross-check", "radial solve reproduces the scaled-Bessel slope p* and its constancy")
def _check_radial_cross_check(check: TheoremCheck, rng: np.random.Generator) -> None:
    a = 0.04
    shape = _shapes.annulus_whole(1.0, 2.0)
    system = _system(shape, a, 1.0 / 1024)
    field = solver.solve_spd(system)
    p = thickness.divergence(field)
    mask = system.classification.shape_mask
    p_shape = p[mask]
    p_mean = float(np.mean(p_shape))
    ref = analytic.annulus_whole(1.0, 2.0, a)
    rel = abs(p_mean - ref.p_star) / ref.p_star
    spread = float((np.max(p_shape) - np.min(p_shape)) / abs(p_mean))
    check.add(SweepSample(a=a, error=rel, bound=1e-4, slack=0.0))
    check.add(SweepSample(a=a, error=spread, bound=1e-3, slack=0.0))


@_check("geometric-oracle", "inscribed-ball sweep reproduces the constant thickness within 2h")
def _check_geometric_oracle(check: TheoremCheck, rng: np.random.Generator) -> None:
    # (shape, cells across it) on the grids of the oracle command
    cases = [
        (_shapes.interval_whole(0.0, 1.0), 100),
        (_shapes.band_whole(0.0, 2.0, 1.0), 40),
        (_shapes.annulus_whole(1.0, 2.0), 50),
    ]
    for shape, cells in cases:
        grid = geometry.oracle_grid(shape, cells)
        fieldt = geometry.geometric_thickness_oracle(grid, shape)
        dev = fieldt.max_abs_deviation(shape.thickness)
        check.add(SweepSample(a=grid.h, error=dev, bound=2.0 * grid.h, slack=0.0))


# the interior gradient-energy estimate


def gradient_energy_on_shape(field: solver.DiscreteField, classification) -> float:
    """sum over shape cells of int_cell |grad d_h|^2, exactly (element matrices)."""
    mask = classification.shape_mask
    total = 0.0
    K = solver._K2
    for comp in field.components:
        vals = np.stack([corner[mask] for corner in solver._cell_corners(field.grid, comp)], axis=1)
        total += float(np.einsum("ei,ij,ej->", vals, K, vals))
    return total


def _cell_magnitude_sq(field: solver.DiscreteField) -> np.ndarray:
    """|d|^2 of the average of each cell's four corner values, per cell."""
    mag2 = np.zeros(field.grid.cells[::-1])
    for comp in field.components:
        sw, se, ne, nw = solver._cell_corners(field.grid, comp)
        center = 0.25 * (sw + nw + se + ne)
        mag2 += center * center
    return mag2


def _band_cutoff_energy(shape: ShapeSpec, grid: geometry.StructuredGrid, mag2: np.ndarray) -> float:
    """sum over the cells of |c''| |d|^2, with |c''| = 4/m^2 on each ramp of a flat band's cutoff."""
    y = grid.cell_centers(1)
    lap = np.zeros_like(y)
    for lo, hi in ((shape.b_l.mean, shape.f_l), (shape.f_r, shape.b_r.mean)):
        lap[(y > lo) & (y < hi)] = 4.0 / ((hi - lo) * (hi - lo))
    return float(np.sum(lap[:, None] * mag2))


def _annulus_cutoff_energy(shape: ShapeSpec, grid: geometry.StructuredGrid, mag2: np.ndarray) -> float:
    """sum over the cells of |lap c| |d|^2, for the radial cutoff from 1 at r = f_r to 0 at r = b_r."""
    f, b = shape.f_r, shape.b_r
    # |lap c| = 2 / (f^2 log f + b^2 log b - 2 p^2 log p) on the ramp, with p^2 = (f^2 + b^2)/2
    p_sq = 0.5 * (f * f + b * b)
    lap = 2.0 / (f * f * math.log(f) + b * b * math.log(b) - p_sq * math.log(p_sq))
    cr = np.hypot(*np.meshgrid(grid.cell_centers(0), grid.cell_centers(1)))
    return lap * float(np.sum(mag2[(cr > f) & (cr < b)]))


#: interior-estimate case -> (shape, its cutoff energy from the grid and the per-cell |d|^2)
_INTERIOR_CASES = {
    "band": (_shapes.band_general(0.0, 1.0, -1.0, 2.0, L=1.0), _band_cutoff_energy),
    "annulus": (_shapes.annulus_general(1.0, 2.0, 2.5), _annulus_cutoff_energy),
}


def interior_h1_check(kind: str, a: float = 0.04) -> Tuple[float, float, float]:
    """Gradient energy on the shape vs the cutoff bound, for a probe solution.

    Returns (lhs, rhs, h): lhs = int_shape |grad d|^2 of the homogeneous probe
    driven by the whole-space tail, rhs = 1/2 int |lap c| |d|^2 with the
    explicit cutoff of the case ``kind``, ``"band"`` or ``"annulus"``.  The
    discrete inequality is asserted by callers with an O(h) slack.
    """
    if kind not in _INTERIOR_CASES:
        raise PdeThickError(f"unknown interior-estimate case {kind}")
    shape, cutoff_energy = _INTERIOR_CASES[kind]
    system = _system(shape, a, target_h(a))
    field = solver.homogeneous_boundary_probe(system, _tail_data(system, shape, a))
    lhs = gradient_energy_on_shape(field, system.classification)
    rhs = 0.5 * cutoff_energy(shape, system.grid, _cell_magnitude_sq(field)) * system.grid.h**2
    return lhs, rhs, system.grid.h


@_check("interior-h1-estimate", "gradient energy on the shape bounded by the cutoff functional")
def _check_interior_h1(check: TheoremCheck, rng: np.random.Generator) -> None:
    for kind, (shape, _) in _INTERIOR_CASES.items():
        lhs, rhs, h = interior_h1_check(kind)
        check.add(SweepSample(a=h, error=lhs, bound=rhs, slack=rhs * 10.0 * h / shape.margin))


SUITES = {
    "analytic": [name for name, (_, in_analytic, _) in _CHECKS.items() if in_analytic],
    "default": list(_CHECKS),
}

#: the long checks, longest first as timed in a fresh pooled pass: the pool starts
#: them before the others, so the short ones fill the workers' ends (Graham's LPT rule, 1969)
_LONGEST_FIRST = ("annulus-general-envelope", "max-principle", "interior-h1-estimate", "band-general-envelope")


#: the variables that set OpenBLAS's thread count, in the order it reads them
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _cpus() -> int:
    """The CPUs this process may run on: its affinity set where the OS keeps one, else all."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _blas_threads(cpus: int) -> int:
    """The BLAS threads of each process, as numpy's OpenBLAS reads them at start-up.

    The first variable whose leading integer (C ``atoi``) is positive wins,
    capped at ``cpus``; with none, OpenBLAS runs one thread per CPU.  Other
    BLAS libraries read other variables, and a limit set at run time is not
    seen.
    """
    for key in _BLAS_THREAD_VARIABLES:
        match = re.match(r"\s*[+-]?\d+", os.environ.get(key, ""))
        if match and int(match.group()) > 0:
            return min(int(match.group()), cpus)
    return cpus


@contextlib.contextmanager
def _in_workers(names: Sequence[str], seed: int) -> Iterator[Dict[str, Future]]:
    """Start the checks ``names`` in forked workers, in order, on the run's ``seed``; yields name -> future.

    One worker per available CPU, divided by the BLAS threads of each
    process and at most one per check.  Every worker has exited, and every
    future is done, when the block is left.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    cpus = _cpus()
    # a forked worker keeps the parent's BLAS threads, so the pool splits the CPUs among them
    workers = min(len(names), cpus // _blas_threads(cpus))
    # fork: the workers inherit the imported modules, monkeypatches included
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        yield {name: pool.submit(_run_check, name, seed) for name in names}


def _worker_result(name: str, future: Future, seed: int, rerun: bool = True) -> TheoremCheck:
    """The check its worker returned, or the check errored where its worker died.

    A dying worker breaks its whole pool, which fails every unfinished check
    with it; so a check whose pool broke runs once more, alone in a fresh
    worker, and is errored only if that worker dies too.
    """
    from concurrent.futures.process import BrokenProcessPool

    try:
        return future.result()
    except Exception as exc:
        if rerun and isinstance(exc, BrokenProcessPool):
            with _in_workers([name], seed) as alone:
                pass
            return _worker_result(name, alone[name], seed, rerun=False)
        return _errored(name, exc)


def verify_theorems(suite: str = "default", seed: int = DEFAULT_SEED) -> VerifyReport:
    """Run every check of ``suite``; a failing or raising check never aborts the run.

    Every check runs in a forked worker, on the generator :func:`_run_check`
    seeds from ``seed`` and its name; ``_LONGEST_FIRST`` start first, the
    others in registration order.  The report lists the checks in
    registration order, byte-identical to running them in one process in any
    order.  A check whose worker dies is run once more alone and, if its
    worker dies again, reported as errored; no worker outlives the call.
    The pool needs the ``fork`` start method, so verify runs on POSIX only.
    """
    if suite not in SUITES:
        raise PdeThickError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):  # as default_rng takes it
        raise PdeThickError(f"seed must be a nonnegative integer, got {seed!r}")
    names = SUITES[suite]
    # the sort is stable: the checks outside _LONGEST_FIRST keep registration order
    order = sorted(names, key=lambda name: _LONGEST_FIRST.index(name) if name in _LONGEST_FIRST else len(_LONGEST_FIRST))
    with _in_workers(order, seed) as pending:
        pass
    return VerifyReport(suite=suite, checks=[_worker_result(name, pending[name], seed) for name in names])

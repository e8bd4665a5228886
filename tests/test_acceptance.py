"""Acceptance gate: one test per criterion, each at its stated tolerance.

Every test prints one ``[acceptance] criterion N ... PASS/FAIL`` line (visible
with ``pytest -s`` or on failure).  Criteria 5 and 10 run 2D solves and are
the heaviest entries; criterion 10 is additionally tagged slow.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from pdethick import analytic, bessel, geometry, harness, shapes, solver, thickness

SOLVER_TOL = 1e-10


@contextmanager
def criterion(number, title):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:2d} ({title}): FAIL")
        raise
    print(f"[acceptance] criterion {number:2d} ({title}): PASS  [{time.time() - start:.1f}s]")


def test_c01_interval_whole_equality():
    with criterion(1, "interval whole-line equality"):
        rng = np.random.default_rng(101)
        a_grid = [10.0**e for e in range(-8, 1)]
        for _ in range(20):
            f_l = float(rng.uniform(-5.0, 5.0))
            width = float(rng.uniform(0.01, 6.0))
            for a in a_grid:
                sol = analytic.interval_whole(f_l, f_l + width, a)
                assert abs(sol.thickness_error - 2.0 * math.sqrt(a)) <= 1e-12 * width


def test_c02_interval_general_bounds():
    with criterion(2, "interval general two-sided bound"):
        rng = np.random.default_rng(202)
        for _ in range(50):
            f_l = float(rng.uniform(-2.0, 2.0))
            width = float(rng.uniform(0.1, 3.0))
            m_l = float(rng.uniform(0.5, 3.0))
            m_r = float(rng.uniform(0.5, 3.0))
            a = float(10.0 ** rng.uniform(-6.0, 0.0))
            sol = analytic.interval_general(f_l, f_l + width, f_l - m_l, f_l + width + m_r, a)
            assert sol.lower_bound <= sol.thickness_error <= sol.upper_bound


def test_c03_discrete_vs_analytic_1d():
    with criterion(3, "1D discrete vs closed form, order 2"):
        a = 0.04
        shape = shapes.interval_general(0.0, 1.0, -1.0, 2.0)
        sol = analytic.interval_general(0.0, 1.0, -1.0, 2.0, a)
        errors = []
        for n in (128, 256, 512):
            grid = solver.problem_grid(shape, a, 1.0 / n)
            field = solver.solve_spd(solver.assemble(grid, shape, a))
            nodes = grid.node_coords(0)
            exact = np.array([analytic.eval_solution(sol, float(x)) for x in nodes])
            errors.append((1.0 / n, float(np.max(np.abs(field.components[0] - exact)))))
        assert errors[-1][1] <= 5e-5
        order, _ = harness.fit_rate(errors)
        assert 1.7 <= order <= 2.3


def test_c04_band_reduction():
    with criterion(4, "flat band reduces to the 1D solve"):
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
        assert float(np.max(np.abs(sx))) <= 1e-8 * scale
        assert float(np.max(np.abs(sy - field1.components[0][:, None]))) <= 1e-8 * scale


def test_c05_band_general_envelope():
    with criterion(5, "wavy band L2 envelope and rate"):
        shape = harness.canonical_wavy_band()
        assert shape.margin >= 0.4 - 1e-12
        results = []
        for a in (0.04, 0.02, 0.01):
            res = harness.run_general_l2_case(shape, a)
            assert res.error <= res.bound + res.slack
            results.append((a, res.error))
        slope, _ = harness.fit_rate(results)
        assert 0.4 <= slope <= 0.6


def test_c06_bessel_accuracy(oracle):
    with criterion(6, "scaled Bessel accuracy vs oracles"):
        grid = oracle["grid"]
        fns = {
            "i0e": bessel.i0_scaled,
            "i1e": bessel.i1_scaled,
            "k0e": bessel.k0_scaled,
            "k1e": bessel.k1_scaled,
        }
        assert len(grid["x"]) == 200
        for key, fn in fns.items():
            for xs, ref in zip(grid["x"], grid[key]):
                x, ref = float(xs), float(ref)
                assert abs(fn(x) - ref) <= 1e-12 * ref
        for xs in grid["x"]:
            x = float(xs)
            w = bessel.i0_scaled(x) * bessel.k1_scaled(x) + bessel.i1_scaled(x) * bessel.k0_scaled(x)
            assert abs(w - 1.0 / x) <= 1e-10 / x


def test_c07_bessel_inequalities():
    with criterion(7, "Bessel ratio envelopes and K1 decay"):
        for x in np.logspace(-6, 3, 1000):
            assert all(d <= 0 for d in bessel.ratio_deficits(float(x)))


def test_c08_annulus_whole_bounds():
    with criterion(8, "annulus whole-plane two-sided bound"):
        rng = np.random.default_rng(808)
        for _ in range(50):
            f_r = float(rng.uniform(0.5, 5.0))
            f_l = float(rng.uniform(0.05 * f_r, 0.95 * f_r))
            T = f_r - f_l
            a = float(T * T * 10.0 ** rng.uniform(-8.0, 0.0))
            sol = analytic.annulus_whole(f_l, f_r, a)
            assert sol.lower_bound <= sol.thickness_error <= sol.upper_bound
        probe = analytic.annulus_whole(1.0, 2.0, 0.01)
        assert probe.lower_bound == pytest.approx(0.175)
        assert probe.upper_bound == pytest.approx(0.4)
        assert 0.175 <= probe.thickness_error <= 0.4


def test_c09_radial_solver_cross_check():
    with criterion(9, "radial solver vs scaled-Bessel closed form"):
        a = 0.04
        shape = shapes.annulus_whole(1.0, 2.0)
        grid = solver.problem_grid(shape, a, 1.0 / 1024)
        system = solver.assemble(grid, shape, a)
        field = solver.solve_spd(system)
        p = thickness.divergence(field)
        p_shape = p[system.classification.shape_mask]
        ref = analytic.annulus_whole(1.0, 2.0, a)
        assert abs(float(np.mean(p_shape)) - ref.p_star) / ref.p_star <= 1e-4
        assert float(np.max(p_shape) - np.min(p_shape)) / abs(float(np.mean(p_shape))) <= 1e-3


@pytest.mark.slow
def test_c10_annulus_general_envelope():
    with criterion(10, "boxed annulus L2 envelope (heaviest case)"):
        shape = shapes.annulus_general(1.0, 2.0, 2.5)
        for a in (0.04, 0.02):
            res = harness.run_general_l2_case(shape, a)
            assert res.error <= res.bound + res.slack


def test_c11_maximum_principle():
    with criterion(11, "discrete maximum principle, 10 probes"):
        probes = harness._max_principle_probes(0.04)
        assert len(probes) == 10
        for label, system, data in probes:
            field = solver.homogeneous_boundary_probe(system, data)
            mag = harness._vector_magnitude(field)
            mask1 = system.dirichlet_mask[: system.n // system.n_components]
            boundary_sup = float(np.max(mag[mask1]))
            interior = mag[~mask1]
            interior_sup = float(np.max(interior)) if interior.size else 0.0
            assert interior_sup <= boundary_sup + 10.0 * SOLVER_TOL * max(boundary_sup, 1.0), label


def test_c12_geometric_oracle():
    with criterion(12, "inscribed-ball oracle within 2h"):
        cases = [
            (shapes.interval_whole(0.0, 1.0), geometry.StructuredGrid(dim=1, origin=(-1.0,), h=0.01, cells=(300,)), 1.0),
            (
                shapes.band_whole(0.0, 2.0, 1.0),
                geometry.StructuredGrid(
                    dim=2, origin=(0.0, -1.0), h=0.05, cells=(20, 80), periodic_x=True
                ),
                2.0,
            ),
            (
                shapes.annulus_whole(1.0, 2.0),
                geometry.StructuredGrid(dim=2, origin=(-3.0, -3.0), h=0.02, cells=(300, 300)),
                1.0,
            ),
        ]
        for shape, grid, t_ref in cases:
            field = geometry.geometric_thickness_oracle(grid, shape)
            assert field.max_abs_deviation(t_ref) <= 2.0 * grid.h

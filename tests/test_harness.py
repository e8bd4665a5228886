import dataclasses
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from pdethick import analytic, bessel, geometry, harness, shapes, solver
from pdethick.errors import DegenerateFitError, PdeThickError, UnderResolvedError


class TestFitRate:
    def test_exact_sqrt_law(self):
        pts = [(a, 2 * math.sqrt(a)) for a in (1e-4, 1e-3, 1e-2, 1e-1)]
        slope, intercept = harness.fit_rate(pts)
        assert slope == pytest.approx(0.5, abs=1e-12)
        assert intercept == pytest.approx(math.log(2), abs=1e-12)

    def test_linear_law(self):
        pts = [(a, 3 * a) for a in (1e-4, 1e-3, 1e-2, 1e-1)]
        slope, _ = harness.fit_rate(pts)
        assert slope == pytest.approx(1.0, abs=1e-12)

    def test_exponential_pollution_negligible(self):
        pts = [
            (a, 2 * math.sqrt(a) + 4 * math.exp(-2 * 0.5 / math.sqrt(a)))
            for a in np.logspace(-4, -2, 6)
        ]
        slope, _ = harness.fit_rate(pts)
        assert slope == pytest.approx(0.5, abs=0.01)

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateFitError):
            harness.fit_rate([(0.1, 1.0), (0.1, 2.0), (0.1, 3.0)])
        with pytest.raises(DegenerateFitError):
            harness.fit_rate([(0.1, 1.0), (0.2, 0.0)])


class TestSweep:
    def test_interval_whole_slope_exact(self):
        report = harness.sweep_a(
            shapes.interval_whole(0.0, 1.0), [1e-4, 1e-3, 1e-2, 1e-1]
        )
        assert report.passed
        assert report.slope == pytest.approx(0.5, abs=1e-10)
        assert [s.a for s in report.samples] == sorted(s.a for s in report.samples)
        for s in report.samples:
            assert s.error == pytest.approx(2 * math.sqrt(s.a), rel=1e-13)
            assert s.slack == 0.0

    def test_annulus_whole_slope(self):
        report = harness.sweep_a(
            shapes.annulus_whole(1.0, 2.0), [1e-4, 1e-3, 1e-2, 1e-1]
        )
        assert report.passed
        assert 0.45 <= report.slope <= 0.55

    def test_requires_enough_values(self):
        with pytest.raises(Exception):
            harness.sweep_a(shapes.interval_whole(0, 1), [1e-3, 1e-2])
        with pytest.raises(Exception):
            harness.sweep_a(shapes.interval_whole(0, 1), [1e-3, 2e-3, 3e-3, 4e-3])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
    def test_a_values_must_be_positive_and_finite(self, bad):
        with pytest.raises(PdeThickError, match="a values must be positive and finite"):
            harness.sweep_a(shapes.annulus_general(1.0, 2.0, 2.5), [0.1, 0.01, 0.001, bad])

    @pytest.mark.slow
    def test_band_general_discrete_sweep(self):
        report = harness.sweep_a(
            harness.canonical_wavy_band(), [0.08, 0.04, 0.01, 0.0008]
        )
        assert report.passed
        for s in report.samples:
            assert s.slack > 0.0
            assert s.error <= s.bound + s.slack
        # an L2 envelope has no lower side, so no sample states one
        assert all("lower_bound" not in s for s in report.to_dict()["samples"])

    def test_l2_envelope_sample_has_no_lower_bound(self):
        assert harness.run_general_l2_case(harness.canonical_wavy_band(), 0.04).lower_bound is None


class TestResolutionPolicy:
    def test_policy_enforced(self, monkeypatch):
        shape = harness.canonical_wavy_band()
        assert harness.target_h(0.04) == 0.025  # the floor h <= sqrt(a)/8
        assert harness.run_general_l2_case(shape, 0.04).passed  # meshed at the floor
        original = solver.problem_grid
        monkeypatch.setattr(solver, "problem_grid", lambda shape, a, h: original(shape, a, 0.1))
        with pytest.raises(UnderResolvedError):
            harness.run_general_l2_case(shape, 0.04)  # needs h <= 0.025

    def test_under_resolution_flagged_not_passed(self, monkeypatch):
        shape = harness.canonical_wavy_band()
        original = solver.problem_grid
        # a grid four times coarser than the floor asks for
        monkeypatch.setattr(solver, "problem_grid", lambda shape, a, h: original(shape, a, 4.0 * h))
        monkeypatch.setattr(solver, "solve_spd", lambda *args: pytest.fail("solved an under-resolved grid"))
        with pytest.raises(UnderResolvedError):
            harness.run_general_l2_case(shape, 0.04)


class TestVerify:
    def test_suites_list_every_check_once_in_run_order(self):
        assert harness.SUITES["default"] == [
            "interval-whole-equality",
            "interval-general-bounds",
            "band-whole-equality",
            "annulus-whole-bounds",
            "bessel-ratio-bounds",
            "band-flat-reduction",
            "band-general-envelope",
            "annulus-general-envelope",
            "max-principle",
            "solver-1d-convergence",
            "radial-cross-check",
            "geometric-oracle",
            "interior-h1-estimate",
        ]
        assert harness.SUITES["analytic"] == harness.SUITES["default"][:5]

    def test_every_pde_solve_gets_its_grid_from_problem_grid(self, monkeypatch):
        # with problem_grid refusing, every check that solves a PDE errors on it,
        # and the closed-form checks and the oracle, which solve none, still pass
        def refuse(shape, a, h):
            raise RuntimeError("no solve grid")

        monkeypatch.setattr(solver, "problem_grid", refuse)
        report = harness.verify_theorems("default")
        errored = {c.case for c in report.checks if c.statement == "(errored)"}
        assert errored == {
            "band-flat-reduction",
            "band-general-envelope",
            "annulus-general-envelope",
            "max-principle",
            "solver-1d-convergence",
            "radial-cross-check",
            "interior-h1-estimate",
        }
        for check in report.checks:
            if check.case in errored:
                assert check.error_message == "RuntimeError: no solve grid", check.case
            else:
                assert check.passed, check.case

    def test_every_grid_comes_from_problem_grid_or_oracle_grid(self, monkeypatch):
        # with both grid builders refusing, exactly the checks that use a grid
        # error on it, and the closed-form checks still pass
        def refuse(*args):
            raise RuntimeError("no grid")

        monkeypatch.setattr(solver, "problem_grid", refuse)
        monkeypatch.setattr(geometry, "oracle_grid", refuse)
        report = harness.verify_theorems("default")
        errored = {c.case for c in report.checks if c.statement == "(errored)"}
        assert errored == {
            "band-flat-reduction",
            "band-general-envelope",
            "annulus-general-envelope",
            "max-principle",
            "solver-1d-convergence",
            "radial-cross-check",
            "interior-h1-estimate",
            "geometric-oracle",
        }
        passed = [c.case for c in report.checks if c.case not in errored]
        assert passed == harness.SUITES["analytic"]
        for check in report.checks:
            if check.case in errored:
                assert check.error_message == "RuntimeError: no grid", check.case
            else:
                assert check.passed, check.case

    def test_max_principle_builds_one_hierarchy_per_system(self, built_hierarchies, monkeypatch):
        # ten probes over five systems: each system's probes share its whole-grid
        # hierarchy, with every mirror refused (a folded probe builds its own)
        monkeypatch.setattr(solver, "_parity", lambda system, b, axis: 0)
        check = harness._run_check("max-principle", harness.DEFAULT_SEED)
        assert check.passed and len(check.samples) == 10
        assert len(built_hierarchies) == 5

    def test_analytic_suite_passes(self):
        report = harness.verify_theorems("analytic")
        assert report.passed
        names = [c.case for c in report.checks]
        assert "interval-whole-equality" in names
        assert "bessel-ratio-bounds" in names

    def test_1d_convergence_intercept_is_the_fitted_finest_error(self):
        # the fit is centred at the finest h, so it does not extrapolate to h = 1
        check = harness._run_check("solver-1d-convergence", 0)
        assert check.passed
        assert math.exp(check.intercept) == pytest.approx(check.samples[-1].error, rel=1e-3)

    def test_reports_are_byte_identical(self):
        r1 = harness.dumps_json(harness.verify_theorems("analytic").to_dict())
        r2 = harness.dumps_json(harness.verify_theorems("analytic").to_dict())
        assert r1 == r2

    def test_every_sample_states_both_sides(self):
        report = harness.verify_theorems("analytic")
        for check in report.checks:
            for s in check.samples:
                assert math.isfinite(s.error)
                assert math.isfinite(s.bound)
                assert s.passed == (s.error <= s.bound + s.slack) or s.lower_bound is not None

    def test_fault_injection_flags_only_k_ratio(self, monkeypatch):
        # flip the sign of the K lower envelope: k_lower must fail, the rest pass
        original = bessel.k_ratio_lower_bound
        monkeypatch.setattr(
            bessel, "k_ratio_lower_bound", lambda x: -original(x) + 2.0
        )
        report = harness.verify_theorems("analytic")
        by_name = {c.case: c for c in report.checks}
        assert not by_name["bessel-ratio-bounds"].passed
        for name, check in by_name.items():
            if name != "bessel-ratio-bounds":
                assert check.passed, name

    def test_interval_general_log_samples_see_the_upper_side(self):
        report = harness.verify_theorems("analytic")
        (check,) = [c for c in report.checks if c.case == "interval-general-bounds"]
        direct, logs = check.samples[0::2], check.samples[1::2]
        assert len(direct) == len(logs) == 50
        # the direct samples include ones with no room on either side...
        assert any(s.lower_bound == s.error == s.bound for s in direct)
        # ...while every log sample is finite and strictly inside its bound
        for d, s in zip(direct, logs):
            assert s.a == d.a
            assert math.isfinite(s.error) and s.error < s.bound
            assert s.passed

    @pytest.mark.parametrize("log_excess, passed", [(-math.inf, False), (math.nan, False), (-1e300, True)])
    def test_interval_general_excess_must_be_positive(self, monkeypatch, log_excess, passed):
        original = analytic.interval_general
        monkeypatch.setattr(
            analytic,
            "interval_general",
            lambda *args: dataclasses.replace(original(*args), log_excess=log_excess),
        )
        check = harness._run_check("interval-general-bounds", 1)
        assert check.error_message is None
        assert check.passed == passed

    def test_nan_ratio_deficit_fails_the_bessel_check(self, monkeypatch):
        monkeypatch.setattr(bessel, "k_ratio_lower_bound", lambda x: math.nan)
        report = harness.verify_theorems("analytic")
        (check,) = [c for c in report.checks if c.case == "bessel-ratio-bounds"]
        assert not check.passed
        assert math.isnan(check.samples[0].error)
        assert [s.passed for s in check.samples] == [False, True, True]

    @pytest.mark.parametrize(
        "name, message",
        [
            ("band-general-envelope", "fitted slope 1.0000 outside [0.4, 0.6]"),
            ("solver-1d-convergence", "observed order 1.000 outside [1.7, 2.3]"),
        ],
    )
    def test_slope_outside_its_window_fails_the_check(self, monkeypatch, name, message):
        # error = a on the envelope and every fit reading slope 1: outside both windows
        monkeypatch.setattr(
            harness, "run_general_l2_case",
            lambda shape, a: harness.SweepSample(a=a, error=a, bound=1.0, slack=0.0),
        )
        monkeypatch.setattr(harness, "fit_rate", lambda points: (1.0, 0.25))
        check = harness._run_check(name, 0)
        assert (check.slope, check.intercept) == (1.0, 0.25)
        assert all(s.passed for s in check.samples) and check.samples
        assert not check.passed
        assert check.error_message == message

    def test_raising_check_is_recorded_not_fatal(self, monkeypatch):
        def broken(check, rng):
            check.add(harness.SweepSample(a=1.0, error=0.0, bound=1.0, slack=0.0))
            raise ValueError("injected")

        checks = dict(harness._CHECKS)
        statement, in_analytic, _ = checks["band-whole-equality"]
        checks["band-whole-equality"] = (statement, in_analytic, broken)
        monkeypatch.setattr(harness, "_CHECKS", checks)
        report = harness.verify_theorems("analytic")
        by_name = {c.case: c for c in report.checks}
        assert list(by_name) == harness.SUITES["analytic"]
        assert by_name["band-whole-equality"].statement == "(errored)"
        assert by_name["band-whole-equality"].samples == []
        assert not report.passed
        assert not by_name["band-whole-equality"].passed
        assert by_name["band-whole-equality"].error_message == "ValueError: injected"
        for name, check in by_name.items():
            if name != "band-whole-equality":
                assert check.passed, name

    @pytest.mark.parametrize(
        "suite, seed", [("default", harness.DEFAULT_SEED), ("default", 7), ("analytic", harness.DEFAULT_SEED)]
    )
    def test_report_bytes_match_a_one_process_run(self, suite, seed):
        # a check's draws depend on the seed and its name alone, so neither the
        # process nor the order the checks run in moves a byte
        names = harness.SUITES[suite]
        forward = [harness._run_check(name, seed) for name in names]
        backward = [harness._run_check(name, seed) for name in reversed(names)][::-1]
        pooled = harness.dumps_json(harness.verify_theorems(suite, seed).to_dict())
        for serial in (forward, backward):
            assert harness.dumps_json(harness.VerifyReport(suite, serial).to_dict()) == pooled

    @pytest.mark.parametrize(
        "env, threads",
        [
            ({}, 4),
            ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, 1),
            ({"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "x", "OMP_NUM_THREADS": "2"}, 2),
            ({"OMP_NUM_THREADS": "16"}, 4),
            ({"OPENBLAS_NUM_THREADS": "-1", "OMP_NUM_THREADS": "3"}, 3),
            ({"OPENBLAS_NUM_THREADS": " 1x"}, 1),
            ({"OMP_NUM_THREADS": "1,2"}, 1),
        ],
    )
    def test_blas_threads_as_openblas_reads_them(self, monkeypatch, env, threads):
        for key in harness._BLAS_THREAD_VARIABLES:
            monkeypatch.delenv(key, raising=False)
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        assert harness._blas_threads(4) == threads

    @pytest.mark.parametrize(
        "env", [{}, {"OMP_NUM_THREADS": "1"}, {"OPENBLAS_NUM_THREADS": " 1x", "OMP_NUM_THREADS": "2"}]
    )
    def test_blas_threads_match_the_linked_openblas(self, monkeypatch, env):
        # ask numpy's own OpenBLAS, in a fresh process, how many threads it started
        probe = """
import ctypes, glob, os, numpy
for path in glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")):
    for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
        if hasattr(ctypes.CDLL(path), symbol):
            print(getattr(ctypes.CDLL(path), symbol)())
"""
        for key in harness._BLAS_THREAD_VARIABLES:
            monkeypatch.delenv(key, raising=False)
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True).stdout
        if not out:
            pytest.skip("no OpenBLAS in numpy.libs")
        assert int(out.split()[0]) == harness._blas_threads(harness._cpus())

    def test_cpus_without_an_affinity_set(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity")
        assert harness._cpus() == os.cpu_count()
        assert harness.verify_theorems("default").passed

    def test_analytic_suite_runs_in_the_pool(self, monkeypatch):
        # with the pool refusing to start, no check of the suite can run
        import concurrent.futures

        def refuse(*args, **kwargs):
            raise RuntimeError("no pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        with pytest.raises(RuntimeError, match="no pool"):
            harness.verify_theorems("analytic")

    def test_pool_starts_the_longest_checks_first(self, monkeypatch):
        import concurrent.futures

        submitted = []

        class Recording(concurrent.futures.ProcessPoolExecutor):
            def submit(self, fn, name, *args):
                submitted.append(name)
                return super().submit(fn, name, *args)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        report = harness.verify_theorems("default")
        rest = [name for name in harness.SUITES["default"] if name not in harness._LONGEST_FIRST]
        assert submitted == list(harness._LONGEST_FIRST) + rest
        assert [c.case for c in report.checks] == harness.SUITES["default"]
        assert report.passed

    def test_longest_first_names_only_discrete_checks_once(self):
        discrete = [name for name, (_, in_analytic, _) in harness._CHECKS.items() if not in_analytic]
        assert len(set(harness._LONGEST_FIRST)) == len(harness._LONGEST_FIRST)
        assert set(harness._LONGEST_FIRST) <= set(discrete)

    def test_every_check_gets_a_generator(self, monkeypatch):
        # a closed-form and a discrete check alike draw from a generator of the
        # seed and their name, in the pool
        def draws(check, rng):
            check.add(harness.SweepSample(a=float(rng.uniform()), error=0.0, bound=1.0, slack=0.0))

        names = ["interval-whole-equality", "geometric-oracle"]
        checks = dict(harness._CHECKS)
        for name in names:
            statement, in_analytic, _ = checks[name]
            checks[name] = (statement, in_analytic, draws)
        monkeypatch.setattr(harness, "_CHECKS", checks)
        monkeypatch.setitem(harness.SUITES, "default", names)
        report = harness.verify_theorems("default", 7)
        assert report.passed
        for name, check in zip(names, report.checks):
            (sample,) = check.samples
            assert sample.a == np.random.default_rng([7, *name.encode()]).uniform()
        assert report.checks[0].samples[0].a != report.checks[1].samples[0].a

    def test_closed_form_checks_draw_alike_in_either_suite(self):
        default = harness.verify_theorems("default").to_dict()["checks"]
        analytic_suite = harness.verify_theorems("analytic").to_dict()["checks"]
        assert analytic_suite == [c for c in default if c["case"] in harness.SUITES["analytic"]]
        assert all(c["samples"] for c in analytic_suite)

    def test_dead_worker_is_an_errored_check(self, monkeypatch):
        import multiprocessing

        checks = dict(harness._CHECKS)
        statement, in_analytic, _ = checks["band-flat-reduction"]
        checks["band-flat-reduction"] = (statement, in_analytic, lambda check, rng: os._exit(3))
        monkeypatch.setattr(harness, "_CHECKS", checks)
        start = time.monotonic()
        report = harness.verify_theorems("default")
        assert time.monotonic() - start < 30.0
        assert [c.case for c in report.checks] == harness.SUITES["default"]
        by_name = {c.case: c for c in report.checks}
        dead = by_name["band-flat-reduction"]
        assert (dead.statement, dead.passed, dead.samples) == ("(errored)", False, [])
        assert dead.error_message.startswith("BrokenProcessPool: ")
        for name in harness.SUITES["default"]:
            assert by_name[name].passed or name == "band-flat-reduction", name
        assert not report.passed
        assert multiprocessing.active_children() == []

    def test_unknown_suite_rejected(self):
        with pytest.raises(Exception):
            harness.verify_theorems("nope")

    @pytest.mark.parametrize("seed", [-1, 1.5, "7"])
    def test_seed_outside_the_nonnegative_integers_is_refused(self, seed):
        # refused before any worker starts, not reported as thirteen errored checks
        with pytest.raises(PdeThickError, match="^seed must be a nonnegative integer, got "):
            harness.verify_theorems("default", seed)

    def test_json_float_format(self):
        text = harness.dumps_json({"x": 1.0 / 3.0, "flag": True, "none": None})
        assert "0.33333333333333331" in text
        assert "true" in text and "null" in text


def _check_of(samples, message=None):
    check = harness.TheoremCheck(case="c", statement="s", error_message=message)
    for sample in samples:
        check.add(sample)
    return check


def _check_off_its_slope_window():
    # error = a reads slope 1, outside the envelope's window, on passing samples
    check = _check_of([harness.SweepSample(a=a, error=a, bound=1.0, slack=0.0) for a in (0.01, 0.02, 0.04)])
    harness._fit_slope(check, [(s.a, s.error) for s in check.samples], (0.4, 0.6), "fitted slope {:.4f}")
    return check


_PASS = harness.SweepSample(a=0.01, error=1.0, bound=2.0, slack=0.0)
_FAIL = harness.SweepSample(a=0.01, error=3.0, bound=2.0, slack=0.0)


class TestTheoremCheck:
    @pytest.mark.parametrize(
        "build, passed",
        [
            (lambda: _check_of([_PASS, _PASS]), True),
            (lambda: _check_of([_PASS, _FAIL, _PASS]), False),
            (lambda: _check_of([_PASS, _PASS], "ValueError: injected"), False),
            (lambda: _check_of([]), True),
            (_check_off_its_slope_window, False),
        ],
        ids=["all-pass", "one-fails", "error-message", "no-samples", "slope-off-window"],
    )
    def test_verdict_is_read_off_the_samples(self, build, passed):
        check = build()
        assert check.passed is passed
        assert check.to_dict()["passed"] is passed
        assert harness.VerifyReport("s", [check]).passed is passed


class TestSweepSample:
    @pytest.mark.parametrize(
        "error, bound, slack, lower_bound, passed",
        [
            (1.0, 1.0, 0.0, None, True),
            (1.5, 1.0, 0.5, None, True),
            (1.5, 1.0, 0.25, None, False),
            (0.5, 1.0, 0.0, 0.5, True),
            (0.5, 1.0, 0.0, 0.75, False),
            (math.nan, 1.0, 0.0, None, False),
            (math.nan, 1.0, 0.0, 0.0, False),
        ],
    )
    def test_passed(self, error, bound, slack, lower_bound, passed):
        sample = harness.SweepSample(
            a=0.01, error=error, bound=bound, slack=slack, lower_bound=lower_bound
        )
        assert sample.passed is passed
        assert sample.to_dict()["passed"] is passed

    def test_numpy_values_give_a_json_boolean(self):
        sample = harness.SweepSample(a=0.01, error=np.float64(0.5), bound=np.float64(1.0), slack=0.0)
        assert harness.dumps_json(sample.to_dict()).count("true") == 1


class TestCsvReports:
    def test_sweep_csv_and_json(self, tmp_path):
        report = harness.sweep_a(shapes.interval_whole(0.0, 1.0), [1e-4, 1e-3, 1e-2, 1e-1])
        # a sweep is a check: the verify record, with its verdict
        assert isinstance(report, harness.TheoremCheck)
        jpath = tmp_path / "sweep.json"
        harness.write_report_json(report, str(jpath))
        back = json.loads(jpath.read_text())
        assert list(back) == ["case", "statement", "samples", "slope", "intercept", "passed", "error"]
        assert (back["passed"], back["error"]) == (True, None)
        assert back["statement"] == "T^a - T_bar between the closed-form lower and upper bounds"
        assert back["slope"] == pytest.approx(0.5, abs=1e-10)
        assert back["intercept"] == pytest.approx(math.log(2.0), abs=1e-10)
        assert len(back["samples"]) == 4
        # the errors 2 sqrt(a) are correctly rounded; the fit's last digits are the LAPACK's
        fit = f"{harness._fmt_float(report.slope)},{harness._fmt_float(report.intercept)}"
        case = '"interval-whole(f_l=0, f_r=1)"'
        assert harness.report_csv_text(report) == (
            "case,a,error,bound,slack,passed,slope,intercept\n"
            f"{case},0.0001,0.02,0.02,0,True,{fit}\n"
            f"{case},0.001,0.063245553203367583,0.063245553203367583,0,True,{fit}\n"
            f"{case},0.01,0.20000000000000001,0.20000000000000001,0,True,{fit}\n"
            f"{case},0.10000000000000001,0.63245553203367588,0.63245553203367588,0,True,{fit}\n"
        )

    def test_csv_quotes_only_fields_that_need_it(self):
        rows = [("case", "a"), ("x,y", "1"), ('say "hi"', ""), ("two\nlines", "plain text")]
        assert harness._csv_text(rows) == (
            'case,a\n"x,y",1\n"say ""hi""",\n"two\nlines",plain text\n'
        )

    def test_verify_csv_mirror(self, tmp_path):
        report = harness.verify_theorems("analytic")
        text = report.csv_text()
        lines = text.splitlines()
        assert lines[0] == "case,a,error,bound,slack,passed"
        n_samples = sum(len(c.samples) for c in report.checks)
        assert len(lines) == n_samples + 1

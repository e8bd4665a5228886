import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdethick import analytic, bessel, shapes
from pdethick.errors import DomainError, InvalidShapeError


class TestIntervalWhole:
    def test_thickness_examples(self):
        assert analytic.interval_whole(0, 1, 0.04).thickness_pde == pytest.approx(1.4, abs=1e-14)
        sol = analytic.interval_whole(0, 2, 1.0)
        assert sol.thickness_pde == pytest.approx(4.0, abs=1e-14)
        assert sol.p_star == pytest.approx(0.5, abs=1e-15)

    def test_vanishing_a_limit(self):
        sol = analytic.interval_whole(0, 1, 1e-12)
        assert sol.thickness_error == pytest.approx(2e-6, rel=1e-12)

    def test_equality_exact_over_a_range(self):
        for a in [10.0**e for e in range(-12, 3)]:
            sol = analytic.interval_whole(-0.3, 0.9, a)
            assert abs(sol.thickness_error - 2 * math.sqrt(a)) <= 1e-12 * 1.2

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidShapeError):
            analytic.interval_whole(1, 0, 0.1)
        with pytest.raises(InvalidShapeError):
            analytic.interval_whole(0, 1, -0.1)

    def test_definition_roundtrip(self):
        # thickness_pde = 2 / (sqrt(a) p*) by definition, for every family
        sols = [
            analytic.interval_whole(0.2, 1.7, 0.3),
            analytic.interval_general(0, 1, -1, 2, 0.04),
            analytic.interval_general(0, 1, -1, 2, 1e-6),
            analytic.band_whole(0, 1, 0.04, 1.0),
            analytic.annulus_whole(1, 2, 0.04),
            analytic.annulus_whole(1, 2, 1e-8),
        ]
        for sol in sols:
            assert 2.0 / (math.sqrt(sol.a) * sol.p_star) == pytest.approx(
                sol.thickness_pde, rel=1e-12
            )


class TestIntervalGeneral:
    def test_derived_value(self, oracle):
        case = oracle["cases"]["interval_general"][0]
        sol = analytic.interval_general(
            case["f_l"], case["f_r"], case["b_l"], case["b_r"], float(case["a"])
        )
        assert sol.thickness_error == pytest.approx(float(case["t_diff"]), rel=1e-13)

    def test_bound_envelope_spec_case(self):
        sol = analytic.interval_general(0, 1, -1, 2, 0.04)
        assert sol.lower_bound == pytest.approx(0.4, abs=1e-15)
        assert sol.upper_bound == pytest.approx(0.4 + 4 * math.exp(-10.0), rel=1e-12)
        assert sol.lower_bound <= sol.thickness_error <= sol.upper_bound

    def test_wide_margins_recover_whole_line(self):
        sol = analytic.interval_general(0, 1, -20, 21, 0.04)
        assert abs(sol.thickness_error - 0.4) <= 1e-12

    def test_second_frozen_case(self, oracle):
        case = oracle["cases"]["interval_general"][1]
        sol = analytic.interval_general(
            case["f_l"], case["f_r"], case["b_l"], case["b_r"], float(case["a"])
        )
        assert sol.thickness_error == pytest.approx(float(case["t_diff"]), rel=1e-13)

    def test_rejects_bad_ordering(self):
        with pytest.raises(InvalidShapeError):
            analytic.interval_general(0, 1, 0.5, 2, 0.1)


class TestIntervalGeneralExcess:
    # (f_l, width, m_l, m_r, a): the default-seed verify draw at a = 1.29e-5,
    # where 4 T exp(-2m/sqrt(a)) is below an ulp of 2 sqrt(a); alpha = 1e6;
    # and a moderate a where the excess is visible in the thickness itself
    CASES = [
        (0.4822677279818701, 0.3387841052153493, 2.772901983936029, 2.1123995246083695, 1.2893156705856797e-05),
        (0.0, 1.0, 1.0, 1.5, 1e-12),
        (0.0, 1.0, 0.5, 0.7, 0.3),
    ]

    @staticmethod
    def _solve(f_l, width, m_l, m_r, a):
        return analytic.interval_general(f_l, f_l + width, f_l - m_l, f_l + width + m_r, a)

    @pytest.mark.parametrize("case", CASES)
    def test_log_excess_matches_mpmath(self, case):
        mp = pytest.importorskip("mpmath")
        sol = self._solve(*case)
        s = sol.shape
        with mp.workdps(40):
            sqrt_a = mp.sqrt(mp.mpf(sol.a))
            alpha = (mp.mpf(s.f_l) - mp.mpf(s.b_l)) / sqrt_a
            beta = (mp.mpf(s.b_r) - mp.mpf(s.f_r)) / sqrt_a
            T = mp.mpf(s.f_r) - mp.mpf(s.f_l)
            # 1 - tanh x = e^(-x) / cosh x, free of cancellation at any precision
            excess = T * (mp.exp(-alpha) / mp.cosh(alpha) + mp.exp(-beta) / mp.cosh(beta))
            ref = float(mp.log(excess / (mp.tanh(alpha) + mp.tanh(beta))))
        assert math.isfinite(sol.log_excess)
        assert sol.log_excess == pytest.approx(ref, rel=1e-13, abs=1e-14)

    def test_excess_below_an_ulp_is_still_seen(self):
        f_l, width, m_l, m_r, a = self.CASES[0]
        sol = self._solve(*self.CASES[0])
        assert sol.lower_bound == sol.thickness_error == sol.upper_bound
        m = min(m_l, m_r)
        assert sol.log_excess < math.log(4.0 * width) - 2.0 * m / math.sqrt(a)

    def test_alpha_near_a_million(self):
        sol = self._solve(*self.CASES[1])
        assert sol.coefficients["alpha"] == pytest.approx(1e6)
        assert sol.log_excess == pytest.approx(-2e6, rel=1e-12)

    def test_visible_excess_matches_the_thickness(self):
        sol = self._solve(*self.CASES[2])
        direct = sol.thickness_error - 2.0 * math.sqrt(sol.a)
        assert math.exp(sol.log_excess) == pytest.approx(direct, rel=1e-12)

    def test_other_closed_forms_give_no_excess(self):
        assert analytic.interval_whole(0, 1, 0.04).log_excess is None
        assert analytic.annulus_whole(1, 2, 0.04).log_excess is None


class TestProfile:
    def test_bits_of_the_pointwise_calls(self):
        sol = analytic.annulus_whole(1.0, 2.0, 0.04)
        xx, yy = np.meshgrid(np.linspace(-2.5, 2.5, 41), np.linspace(-2.5, 2.5, 41))
        rr = np.hypot(xx, yy)
        ref = np.array([analytic.eval_solution(sol, float(r)) for r in rr.ravel()])
        out = analytic.profile(sol, rr)
        assert out.shape == rr.shape
        assert out.tobytes() == ref.reshape(rr.shape).tobytes()

    def test_one_call_per_distinct_value(self, monkeypatch):
        calls = []
        original = analytic.eval_solution

        def counting(sol, t):
            calls.append(t)
            return original(sol, t)

        monkeypatch.setattr(analytic, "eval_solution", counting)
        sol = analytic.interval_general(0.0, 1.0, -1.0, 2.0, 0.04)
        out = analytic.profile(sol, np.array([0.5, -0.5, 0.5, 1.5, -0.5]))
        assert sorted(calls) == [-0.5, 0.5, 1.5]
        assert out[0] == out[2] and out[1] == out[4]
        assert out[3] == original(sol, 1.5)


class TestBandWhole:
    def test_delegation_examples(self):
        assert analytic.band_whole(0, 1, 0.04, 1.0).thickness_pde == pytest.approx(1.4)
        assert analytic.band_whole(0, 1, 0.01, 2.0).thickness_pde == pytest.approx(1.2)
        sol = analytic.band_whole(-1, 1, 1e-12, 1.0)
        assert sol.thickness_error == pytest.approx(2e-6, rel=1e-12)

    def test_period_recorded(self):
        assert analytic.band_whole(0, 1, 0.04, 2.5).shape.L == 2.5


class TestFamilyTables:
    def test_every_family_has_a_closed_form_or_an_envelope(self):
        closed, envelopes = set(analytic.CLOSED_FORMS), set(analytic.L2_ENVELOPES)
        assert closed | envelopes == set(shapes.Family)
        assert not closed & envelopes

    def test_band_whole_is_the_interval_record_on_the_band(self):
        band = analytic.band_whole(-1, 1, 0.04, 2.0)
        line = analytic.interval_whole(-1, 1, 0.04)
        assert band.shape == shapes.band_whole(-1, 1, 2.0)
        assert dataclasses.replace(band, shape=line.shape) == line

    def test_solve_family_matches_the_constructors(self):
        shape = shapes.interval_general(0, 1, -1, 2)
        assert analytic.solve_family(shape, 0.04) == analytic.interval_general(0, 1, -1, 2, 0.04)
        shape = shapes.annulus_general(1, 2, 3)
        assert analytic.general_bound(shape, 0.01) == analytic.annulus_general_bound(1, 2, 3, 0.01)

    def test_lookups_refuse_other_families(self):
        with pytest.raises(DomainError, match="no closed-form solution"):
            analytic.solve_family(shapes.annulus_general(1, 2, 3), 0.01)
        with pytest.raises(DomainError, match="no L2 envelope"):
            analytic.general_bound(shapes.annulus_whole(1, 2), 0.01)


class TestBandGeneralBound:
    def test_value_examples(self):
        assert analytic.band_general_bound(1, 0, 1, 0.5, 0.01) == pytest.approx(
            0.2 + 2 * math.sqrt(2) * math.exp(-5), rel=1e-12
        )
        assert analytic.band_general_bound(4, 0, 2, 1, 0.04) == pytest.approx(
            2 * (math.sqrt(8) / 4) * 0.2 + 4 * math.exp(-5), rel=1e-12
        )

    def test_vanishing_a(self):
        assert analytic.band_general_bound(1, 0, 1, 0.5, 1e-10) == pytest.approx(
            2e-5, rel=1e-6
        )

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            analytic.band_general_bound(1, 0, 1, -0.5, 0.01)
        with pytest.raises(DomainError):
            analytic.band_general_bound(1, 0, 1, 0.5, 0.0)
        for a in (math.nan, math.inf):
            with pytest.raises(DomainError):
                analytic.band_general_bound(1, 0, 1, 0.5, a)

    def test_rejects_non_finite_period_and_interfaces(self):
        # L = inf gives an infinite envelope that passes any error, f_l = nan a NaN one
        bad = [(math.inf, 0, 1), (math.nan, 0, 1), (1, math.nan, 1), (1, 0, math.nan), (1, -math.inf, 1)]
        for L, f_l, f_r in bad:
            with pytest.raises(DomainError):
                analytic.band_general_bound(L, f_l, f_r, 0.5, 0.01)

    def test_infinite_margin_is_the_whole_band_limit(self):
        bound = analytic.band_general_bound(1, 0, 1, math.inf, 0.01)
        assert bound == 2.0 * math.sqrt(0.01)


class TestAnnulusWhole:
    def test_bound_envelope_1_2(self):
        sol = analytic.annulus_whole(1, 2, 0.01)
        assert sol.lower_bound == pytest.approx(0.175)
        assert sol.upper_bound == pytest.approx(0.4)
        assert sol.lower_bound <= sol.thickness_error <= sol.upper_bound

    def test_derived_values(self, oracle):
        for case in oracle["cases"]["annulus_whole"]:
            sol = analytic.annulus_whole(case["f_l"], case["f_r"], float(case["a"]))
            assert sol.p_star == pytest.approx(float(case["p_star"]), rel=1e-13)
            assert sol.thickness_error == pytest.approx(float(case["t_diff"]), rel=1e-12)

    def test_thin_annulus_pinches_to_interval(self):
        eps = 1e-6
        sol = analytic.annulus_whole(1.0 - eps, 1.0, 1.0)
        assert sol.lower_bound <= sol.thickness_error <= sol.upper_bound
        # both bounds pinch to 2 sqrt(a) = 2
        assert sol.lower_bound == pytest.approx(2.0, rel=1e-6)
        assert sol.upper_bound == pytest.approx(2.0, rel=3e-6)

    def test_small_a_stability(self):
        # scaled carriers keep the formula finite down to a ~ 1e-8 T^2
        sol = analytic.annulus_whole(1, 2, 1e-8)
        assert sol.lower_bound <= sol.thickness_error <= sol.upper_bound
        assert sol.thickness_error == pytest.approx(2e-4, rel=1e-3)

    def test_rejects_nonpositive_inner_radius(self):
        with pytest.raises(InvalidShapeError):
            analytic.annulus_whole(0.0, 1.0, 0.1)


class TestAnnulusGeneralBound:
    def test_value_examples(self):
        v = analytic.annulus_general_bound(1, 2, 3, 0.01)
        expect = 0.4 * math.sqrt(3 * math.pi) + 2 * math.sqrt(2 * math.pi) * math.exp(-10)
        assert v == pytest.approx(expect, rel=1e-12)
        assert analytic.annulus_general_bound(1, 2, 3, 1e-10) == pytest.approx(
            1.2283e-4, rel=1e-3
        )
        far = analytic.annulus_general_bound(1, 2, 100, 0.04)
        assert far == pytest.approx(4 * math.sqrt(3 * math.pi) * 0.2, rel=1e-12)

    def test_rejects_bad_ordering(self):
        with pytest.raises(DomainError):
            analytic.annulus_general_bound(2, 1, 3, 0.01)
        with pytest.raises(DomainError):
            analytic.annulus_general_bound(1, 2, 1.5, 0.01)
        for a in (math.nan, math.inf, 0.0):
            with pytest.raises(DomainError):
                analytic.annulus_general_bound(1, 2, 3, a)


class TestEvalSolution:
    def test_interval_symmetry_and_interface_value(self):
        sol = analytic.interval_whole(0, 1, 0.04)
        assert analytic.eval_solution(sol, 0.5) == 0.0
        assert analytic.eval_solution(sol, 1.0) == pytest.approx(
            sol.p_star * 0.5, rel=1e-14
        )

    def test_interval_tail_decay(self):
        sol = analytic.interval_whole(0, 1, 0.04)
        s1 = analytic.eval_solution(sol, 1.2)
        assert s1 == pytest.approx(sol.p_star * 0.5 * math.exp(-1.0), rel=1e-13)
        s_far = analytic.eval_solution(sol, 0.0 - 50.0)
        assert abs(s_far) < 1e-100

    def test_interval_general_continuity(self):
        sol = analytic.interval_general(0, 1, -1, 2, 0.04)
        for x in (0.0, 1.0):
            inner = analytic.eval_solution(sol, x)
            shifted = analytic.eval_solution(sol, x + (1e-9 if x == 1.0 else -1e-9))
            assert inner == pytest.approx(shifted, abs=1e-7)
        assert analytic.eval_solution(sol, -1.0) == 0.0
        assert analytic.eval_solution(sol, 2.0) == 0.0

    def test_interval_general_out_of_domain(self):
        sol = analytic.interval_general(0, 1, -1, 2, 0.04)
        with pytest.raises(DomainError):
            analytic.eval_solution(sol, 2.5)

    def test_annulus_continuity_at_interfaces(self):
        sol = analytic.annulus_whole(1, 2, 0.04)
        c = sol.coefficients
        sqrt_a = math.sqrt(sol.a)
        s_mid_fr = c["mid_linear"] * 2.0 + c["mid_reciprocal"] / 2.0
        s_out_fr = c["outer_amp_scaled"] * bessel.k1_scaled(2.0 / sqrt_a)
        assert abs(s_mid_fr - s_out_fr) <= 1e-10 * abs(s_out_fr)
        s_mid_fl = c["mid_linear"] * 1.0 + c["mid_reciprocal"] / 1.0
        s_in_fl = c["inner_amp_scaled"] * bessel.i1_scaled(1.0 / sqrt_a)
        assert abs(s_mid_fl - s_in_fl) <= 1e-10 * abs(s_in_fl)


def interface_jumps(sol):
    """The interface relations produced by the distributional right-hand side.

    For interval families returns a * (s'(f+0) - s'(f-0)) at both interfaces
    (each should equal 1); for the annulus returns a * (p* - p(f_l-0)) and
    a * (p* - p(f_r+0)) computed from the Bessel branches.
    """
    shape = sol.shape
    a = sol.a
    sqrt_a = math.sqrt(a)
    c = sol.coefficients
    fam = shape.family
    if fam in (shapes.Family.INTERVAL_WHOLE, shapes.Family.BAND_WHOLE):
        slope_out_l = c["amp_left"] / sqrt_a  # d/dx of amp_left * exp((x-f_l)/sqrt a)
        slope_out_r = -c["amp_right"] / sqrt_a
        return {
            "left": a * (c["slope"] - slope_out_l),
            "right": a * (c["slope"] - slope_out_r),
        }
    if fam == shapes.Family.INTERVAL_GENERAL:
        k = shape.thickness / sqrt_a
        denom = c["tanh_alpha"] + c["tanh_beta"] + k
        # s'(f_l - 0) = -(C_l/sqrt a) cosh(alpha) = -k / (a * denom)
        slope_out_l = -k / (a * denom)
        slope_out_r = -k / (a * denom)
        return {
            "left": a * (c["slope"] - slope_out_l),
            "right": a * (c["slope"] - slope_out_r),
        }
    if fam == shapes.Family.ANNULUS_WHOLE:
        x_l = shape.f_l / sqrt_a
        x_r = shape.f_r / sqrt_a
        # p(r) = (C/sqrt a) I_0 inside the hole, -(D/sqrt a) K_0 outside
        p_inner = c["inner_amp_scaled"] / sqrt_a * bessel.i0_scaled(x_l)
        p_outer = -c["outer_amp_scaled"] / sqrt_a * bessel.k0_scaled(x_r)
        return {
            "left": a * (sol.p_star - p_inner),
            "right": a * (sol.p_star - p_outer),
        }
    raise DomainError(f"no interface jumps for family {fam}")


class TestInterfaceJumps:
    def test_unit_jumps_everywhere(self):
        cases = [
            analytic.interval_whole(0, 1, 0.04),
            analytic.interval_whole(-2, 3.5, 1e-6),
            analytic.interval_general(0, 1, -1, 2, 0.04),
            analytic.interval_general(0.25, 1.75, -0.5, 2.25, 0.01),
            analytic.annulus_whole(1, 2, 0.04),
            analytic.annulus_whole(0.5, 3, 0.09),
        ]
        for sol in cases:
            jumps = interface_jumps(sol)
            assert jumps["left"] == pytest.approx(1.0, abs=1e-10)
            assert jumps["right"] == pytest.approx(1.0, abs=1e-10)


class TestConsistencyProperties:
    @given(
        f_l=st.floats(-3, 3),
        width=st.floats(0.05, 4.0),
        log_a=st.floats(-12, 2),
    )
    @settings(max_examples=150, deadline=None)
    def test_whole_line_equality_property(self, f_l, width, log_a):
        a = 10.0**log_a
        sol = analytic.interval_whole(f_l, f_l + width, a)
        assert abs(sol.thickness_error - 2 * math.sqrt(a)) <= 1e-12 * width

    @given(
        width=st.floats(0.1, 3.0),
        m_l=st.floats(0.5, 3.0),
        m_r=st.floats(0.5, 3.0),
        log_a=st.floats(-6, 0),
    )
    @settings(max_examples=150, deadline=None)
    def test_general_interval_bounds_property(self, width, m_l, m_r, log_a):
        # upper envelope needs margins above (log 2 / 2) sqrt(a); see module docs
        a = 10.0**log_a
        sol = analytic.interval_general(0.0, width, -m_l, width + m_r, a)
        assert sol.lower_bound <= sol.thickness_error <= sol.upper_bound

    @given(
        f_r=st.floats(0.5, 5.0),
        ratio=st.floats(0.05, 0.95),
        log_scale=st.floats(-8, 0),
    )
    @settings(max_examples=150, deadline=None)
    def test_annulus_bounds_property(self, f_r, ratio, log_scale):
        f_l = ratio * f_r
        T = f_r - f_l
        a = T * T * 10.0**log_scale
        sol = analytic.annulus_whole(f_l, f_r, a)
        assert sol.lower_bound <= sol.thickness_error <= sol.upper_bound

    def test_general_approaches_whole(self):
        # as m/sqrt(a) grows the general interval answer approaches T + 2 sqrt(a)
        for m in (0.5, 1.0, 2.0, 4.0):
            a = 0.04
            sol = analytic.interval_general(0, 1, -m, 1 + m, a)
            gap = sol.thickness_error - 2 * math.sqrt(a)
            assert 0 <= gap <= 4 * math.exp(-2 * m / math.sqrt(a))

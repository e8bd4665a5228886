import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdethick import bessel
from pdethick.errors import DomainError

FUNCS = {
    "i0e": bessel.i0_scaled,
    "i1e": bessel.i1_scaled,
    "k0e": bessel.k0_scaled,
    "k1e": bessel.k1_scaled,
}


def all_hold(x: float) -> bool:
    """Every ratio property holds at ``x``; a NaN deficit fails."""
    return all(d <= 0 for d in bessel.ratio_deficits(x))


class TestTrivialValues:
    def test_i0_at_zero(self):
        assert bessel.i0_scaled(0.0) == 1.0

    def test_i1_at_zero(self):
        assert bessel.i1_scaled(0.0) == 0.0

    def test_k_rejects_zero(self):
        with pytest.raises(DomainError):
            bessel.k0_scaled(0.0)

    def test_negative_argument_rejected(self):
        for fn in (bessel.i0_scaled, bessel.k0_scaled):
            with pytest.raises(DomainError):
                fn(-1.0)


class TestSpotValues:
    """The classic x = 1 values, frozen from the independent oracles."""

    def test_against_frozen_spots(self, oracle):
        for key, fn in FUNCS.items():
            ref = float(oracle["spots"][f"{key}_at_1"])
            assert fn(1.0) == pytest.approx(ref, rel=1e-14)


class TestOracleGrid:
    def test_accuracy_on_200_points(self, oracle):
        grid = oracle["grid"]
        for key, fn in FUNCS.items():
            for xs, ref in zip(grid["x"], grid[key]):
                x = float(xs)
                ref = float(ref)
                assert abs(fn(x) - ref) <= 1e-12 * abs(ref), (key, x)

    def test_wronskian_identity(self, oracle):
        # I0(x) K1(x) + I1(x) K0(x) = 1/x; exponentials cancel in scaled form
        for xs in oracle["grid"]["x"]:
            x = float(xs)
            w = bessel.i0_scaled(x) * bessel.k1_scaled(x) + bessel.i1_scaled(
                x
            ) * bessel.k0_scaled(x)
            assert abs(w - 1.0 / x) <= 1e-10 / x


@pytest.mark.slow
class TestLiveOracle:
    """Recompute a few oracle points from scratch to pin the frozen data."""

    XS = [1e-6, 0.03, 1.0, 1.9999, 2.0001, 7.9999, 8.0001, 250.0, 1e4]

    def test_i_series_oracle(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        for x in self.XS:
            xm = mp.mpf(x)
            for order, fn in ((0, bessel.i0_scaled), (1, bessel.i1_scaled)):
                term = (xm / 2) ** order / mp.factorial(order) * mp.exp(-xm)
                total = term
                m = 0
                while True:
                    m += 1
                    term *= (xm / 2) ** 2 / (m * (m + order))
                    total += term
                    if m > x / 2 + 8 and term < total * mp.mpf("1e-30"):
                        break
                assert abs(fn(x) - float(total)) <= 1e-12 * float(total)

    def test_k_quadrature_oracle(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        for x in self.XS:
            xm = mp.mpf(x)
            t_decay = mp.acosh(1 + 60 / xm)
            t_cut = mp.acosh(1 + 200 / xm)
            for order, fn in ((0, bessel.k0_scaled), (1, bessel.k1_scaled)):
                val = mp.quad(
                    lambda t: mp.exp(-xm * (mp.cosh(t) - 1)) * mp.cosh(order * t),
                    [0, t_decay / 8, t_decay / 2, t_decay, t_cut],
                )
                assert abs(fn(x) - float(val)) <= 1e-12 * float(val)


class TestRatioInequalities:
    def test_spec_point_x1(self, oracle):
        k0 = float(oracle["spots"]["k0e_at_1"])
        k1 = float(oracle["spots"]["k1e_at_1"])
        i0 = float(oracle["spots"]["i0e_at_1"])
        i1 = float(oracle["spots"]["i1e_at_1"])
        assert k0 / k1 == pytest.approx(0.6994839356, rel=1e-9)
        assert bessel.k_ratio_lower_bound(1.0) == pytest.approx(0.618034, rel=1e-5)
        assert i0 / i1 == pytest.approx(2.2401937, rel=1e-6)
        assert bessel.i_ratio_upper_bound(1.0) == pytest.approx(2.3027756, rel=1e-6)
        assert all_hold(1.0)

    def test_asymptotic_and_tiny_regimes(self):
        assert all_hold(100.0)
        assert all_hold(1e-4)

    def test_thousand_samples(self):
        for x in np.logspace(-6, 3, 1000):
            assert all_hold(float(x))

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            bessel.ratio_deficits(0.0)

    def test_deficit_signs_are_the_comparisons(self):
        step = bessel.K1_DECAY_PROBE_STEP
        for x in np.logspace(-6, 3, 200).tolist():
            k0, k1 = bessel.k0_scaled(x), bessel.k1_scaled(x)
            i0, i1 = bessel.i0_scaled(x), bessel.i1_scaled(x)
            decay = math.sqrt(step * x) * bessel.k1_scaled(step * x)
            deficits = (
                bessel.k_ratio_lower_bound(x) - k0 / k1,
                i0 / i1 - bessel.i_ratio_upper_bound(x),
                decay - math.sqrt(x) * k1,
            )
            assert bessel.ratio_deficits(x) == deficits
            holds = (
                k0 / k1 >= bessel.k_ratio_lower_bound(x),
                i0 / i1 <= bessel.i_ratio_upper_bound(x),
                decay <= math.sqrt(x) * k1,
            )
            assert tuple(d <= 0 for d in deficits) == holds

    def test_deficits_at_one(self):
        dk, di, dd = bessel.ratio_deficits(1.0)
        assert dk == pytest.approx(0.618034 - 0.6994839356, rel=1e-5)
        assert di == pytest.approx(2.2401937 - 2.3027756, rel=1e-5)
        assert dd < 0


class TestDerivedRelations:
    def test_i2_recurrence(self):
        # I2 = I0 - (2/x) I1, with I2 from its own series (independent route)
        for x in np.logspace(math.log10(0.1), math.log10(50.0), 40):
            x = float(x)
            term = (x / 2) ** 2 / 2.0
            total = term
            m = 0
            while True:
                m += 1
                term *= (x / 2) ** 2 / (m * (m + 2))
                total += term
                if m > x / 2 + 8 and term < 1e-17 * total:
                    break
            i2_scaled = math.exp(-x) * total
            combo = bessel.i0_scaled(x) - (2.0 / x) * bessel.i1_scaled(x)
            assert abs(combo - i2_scaled) <= 1e-10 * i2_scaled

    def test_k_difference_inequality(self):
        # (K0 - K1)/K1 >= -1/(2x)
        for x in np.logspace(-6, 4, 300):
            x = float(x)
            k0 = bessel.k0_scaled(x)
            k1 = bessel.k1_scaled(x)
            assert (k0 - k1) / k1 >= -0.5 / x

    def test_i_difference_inequality(self):
        # (I0 - I1)/I1 <= 2/x
        for x in np.logspace(-6, 4, 300):
            x = float(x)
            i0 = bessel.i0_scaled(x)
            i1 = bessel.i1_scaled(x)
            assert (i0 - i1) / i1 <= 2.0 / x

    def test_no_overflow_up_to_1e4(self):
        for x in np.logspace(-6, 4, 200):
            for fn in FUNCS.values():
                v = fn(float(x))
                assert math.isfinite(v) and v > 0.0


@given(x=st.floats(min_value=1e-6, max_value=1e4))
@settings(max_examples=200, deadline=None)
def test_scaled_invariants(x):
    i0 = bessel.i0_scaled(x)
    i1 = bessel.i1_scaled(x)
    k0 = bessel.k0_scaled(x)
    k1 = bessel.k1_scaled(x)
    assert 0.0 < i0 <= 1.0
    assert 0.0 < i1 < i0
    assert 0.0 < k0 <= k1
    assert bessel.i0_scaled(x) * k1 + i1 * k0 == pytest.approx(1.0 / x, rel=1e-10)


@given(x=st.floats(min_value=1e-5, max_value=1e3))
@settings(max_examples=100, deadline=None)
def test_ratio_properties_hold_everywhere(x):
    assert all_hold(x)

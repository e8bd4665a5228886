"""Closed-form solutions, slopes and convergence bounds for the six families.

The elliptic problem -a * lap(s) + (1 - chi) s = -grad(chi) has exact
solutions for intervals (exponentials), straight bands (the 1D solution in
the cross direction) and annuli (modified Bessel functions).  Each
constructor returns an :class:`AnalyticSolution` holding the constant slope
``p_star`` on the shape, the PDE thickness ``2 / (sqrt(a) p_star)`` and the
theorem bounds on ``T^a - T_bar``.  The general band/annulus families have no
closed form; for those only the L2 error envelopes are provided.

Overflow policy: every hyperbolic/Bessel expression is rewritten so that only
``exp`` of nonpositive arguments, ``tanh`` and scaled Bessel carriers are ever
evaluated; the common factor ``exp(-(f_r - f_l)/sqrt(a))`` in the annulus
formulas cancels analytically.  Arguments like ``(f_l - b_l)/sqrt(a)`` reach
1e6 for small ``a``, where naive cosh/sinh overflow immediately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Optional

import numpy as np

from . import bessel
from .errors import DomainError, InvalidShapeError
from .shapes import Family, ShapeSpec
from . import shapes as _shapes


@dataclass(frozen=True)
class AnalyticSolution:
    """Exact solution record for one (shape, a) pair.

    ``coefficients`` holds the piecewise amplitudes keyed by what they do:

      * intervals/bands: ``amp_left``/``amp_right`` are the solution values at
        the interfaces ``f_l``/``f_r`` (the void tails decay away from there),
        ``slope`` is the linear slope inside the shape.
      * annuli: ``inner_amp_scaled``/``outer_amp_scaled`` multiply the scaled
        Bessel carriers with the exponential offset folded into the distance
        from the adjacent interface, ``mid_linear`` is ``p*/2`` and
        ``mid_reciprocal`` the coefficient of ``1/r`` inside the shape.

    ``thickness_error`` is ``thickness_pde - thickness`` computed in its
    cancellation-free closed form (never by subtraction), and
    ``lower_bound``/``upper_bound`` bracket it.  ``log_excess`` is the log of
    ``thickness_error - 2 sqrt(a)``, where a constructor gives it (the
    general interval), so the excess stays visible where it falls below an
    ulp of ``2 sqrt(a)``.
    """

    shape: ShapeSpec
    a: float
    p_star: float
    coefficients: Mapping[str, float]
    thickness_pde: float
    thickness_error: float
    lower_bound: float
    upper_bound: float
    log_excess: Optional[float] = None


def _require_positive_a(a: float) -> float:
    a = float(a)
    if a <= 0 or not math.isfinite(a):
        raise InvalidShapeError(f"diffusion parameter a must be positive, got {a}")
    return a


def interval_whole(f_l: float, f_r: float, a: float) -> AnalyticSolution:
    """Interval shape in the whole line: T^a = T + 2 sqrt(a) exactly."""
    shape = _shapes.interval_whole(f_l, f_r)
    a = _require_positive_a(a)
    sqrt_a = math.sqrt(a)
    T = shape.thickness
    p_star = 2.0 / (sqrt_a * (T + 2.0 * sqrt_a))
    thickness_error = 2.0 * sqrt_a
    coeffs = {
        "slope": p_star,
        "amp_right": 0.5 * p_star * T,
        "amp_left": -0.5 * p_star * T,
    }
    return AnalyticSolution(
        shape=shape,
        a=a,
        p_star=p_star,
        coefficients=coeffs,
        thickness_pde=T + thickness_error,
        thickness_error=thickness_error,
        lower_bound=2.0 * sqrt_a,
        upper_bound=2.0 * sqrt_a,
    )


def interval_general(f_l: float, f_r: float, b_l: float, b_r: float, a: float) -> AnalyticSolution:
    """Interval shape in a bounding interval (b_l, b_r).

    With alpha = (f_l - b_l)/sqrt(a), beta = (b_r - f_r)/sqrt(a) and
    k = T/sqrt(a), the slope is

        sqrt(a) p* = k (tanh alpha + tanh beta) / (T (tanh alpha + tanh beta + k))

    and  T^a - T = 2 sqrt(a) + T (2 - tanh alpha - tanh beta) / (tanh alpha + tanh beta),
    which stays finite for alpha, beta up to 1e6 where cosh/sinh would overflow.
    The thickness is computed through the second expression: the correction
    term is nonnegative, so the lower bound 2 sqrt(a) survives rounding.

    The companion upper bound 2 sqrt(a) + 4 T exp(-2 m / sqrt(a)) is tight at
    m = (log 2 / 2) sqrt(a) for equal margins and fails below it, so it is
    meaningful only for margins above that threshold.

    The excess over 2 sqrt(a) is kept as its log: with
    1 - tanh x = 2 e^(-2x) / (1 + e^(-2x)), the log of 2 - tanh alpha - tanh beta
    is a log-sum of two terms that neither overflow nor underflow.
    """
    shape = _shapes.interval_general(f_l, f_r, b_l, b_r)
    a = _require_positive_a(a)
    sqrt_a = math.sqrt(a)
    T = shape.thickness
    alpha = (shape.f_l - shape.b_l) / sqrt_a
    beta = (shape.b_r - shape.f_r) / sqrt_a
    k = T / sqrt_a
    ta = math.tanh(alpha)
    tb = math.tanh(beta)
    denom = ta + tb + k
    p_star = k * (ta + tb) / (sqrt_a * T * denom)
    thickness_error = 2.0 * sqrt_a + T * (2.0 - ta - tb) / (ta + tb)
    log_one_minus = [math.log(2.0) - 2.0 * x - math.log1p(math.exp(-2.0 * x)) for x in (alpha, beta)]
    log_excess = math.log(T) + float(np.logaddexp(*log_one_minus)) - math.log(ta + tb)
    # interface values: s(f_l) = -C_l sinh(alpha), s(f_r) = C_r sinh(beta),
    # with C_l = k sech(alpha) / (sqrt(a) denom) etc.; products folded to tanh.
    amp_left = -k * ta / (sqrt_a * denom)
    amp_right = k * tb / (sqrt_a * denom)
    m = shape.margin
    coeffs = {
        "slope": p_star,
        "amp_left": amp_left,
        "amp_right": amp_right,
        "tanh_alpha": ta,
        "tanh_beta": tb,
        "alpha": alpha,
        "beta": beta,
    }
    return AnalyticSolution(
        shape=shape,
        a=a,
        p_star=p_star,
        coefficients=coeffs,
        thickness_pde=T + thickness_error,
        thickness_error=thickness_error,
        lower_bound=2.0 * sqrt_a,
        upper_bound=2.0 * sqrt_a + 4.0 * T * math.exp(-2.0 * m / sqrt_a),
        log_excess=log_excess,
    )


def band_whole(f_l: float, f_r: float, a: float, L: float) -> AnalyticSolution:
    """Straight band in the whole plane.

    The solution is (0, S(y)) with S the whole-line interval solution, so the
    record is that of :func:`interval_whole` on the band shape; the period L
    is recorded for grid construction.
    """
    shape = _shapes.band_whole(f_l, f_r, L)
    return replace(interval_whole(f_l, f_r, a), shape=shape)


def annulus_whole(f_l: float, f_r: float, a: float) -> AnalyticSolution:
    """Annulus in the whole plane, via scaled modified Bessel functions.

    Every Bessel product pairs I_n(f_l/sqrt(a)) with K_n(f_r/sqrt(a)); the
    common factor exp(-(f_r-f_l)/sqrt(a)) cancels between numerator and
    denominator, so the scaled carriers are used throughout and the formula is
    stable down to a ~ 1e-8 * T^2.
    """
    shape = _shapes.annulus_whole(f_l, f_r)
    a = _require_positive_a(a)
    sqrt_a = math.sqrt(a)
    f_l, f_r = shape.f_l, shape.f_r
    T = shape.thickness
    k = T / sqrt_a
    x_l = f_l / sqrt_a
    x_r = f_r / sqrt_a
    i0 = bessel.i0_scaled(x_l)
    i1 = bessel.i1_scaled(x_l)
    k0 = bessel.k0_scaled(x_r)
    k1 = bessel.k1_scaled(x_r)
    cross = f_l * i1 * k0 + f_r * i0 * k1
    denom_hat = k * (f_r + f_l) * i0 * k0 + 2.0 * cross
    p_star = (2.0 / sqrt_a) * k * cross / denom_hat / T
    # direct error form: T^a - T = 2 sqrt(a) + T (f_r I0 (K0-K1) + f_l (I0-I1) K0) / cross
    correction = (f_r * i0 * (k0 - k1) + f_l * (i0 - i1) * k0) / cross
    thickness_error = 2.0 * sqrt_a + T * correction
    # 2x2 solve: (C, D) = k^2 (f_r+f_l)^2 / (sqrt(a) d) * (-K_0, I_0); stored
    # with the neutralizing offsets exp(-x_l) (inner) and exp(+x_r) (outer)
    # factored out, i.e. C = inner_amp_scaled * exp(-x_l).
    inner_amp = -k * (f_r + f_l) * k0 / (sqrt_a * denom_hat)
    outer_amp = k * (f_r + f_l) * i0 / (sqrt_a * denom_hat)
    # continuity at f_r fixes the 1/r coefficient inside the shape
    s_at_fr = outer_amp * k1
    mid_reciprocal = f_r * (s_at_fr - 0.5 * p_star * f_r)
    coeffs = {
        "inner_amp_scaled": inner_amp,
        "outer_amp_scaled": outer_amp,
        "mid_linear": 0.5 * p_star,
        "mid_reciprocal": mid_reciprocal,
    }
    return AnalyticSolution(
        shape=shape,
        a=a,
        p_star=p_star,
        coefficients=coeffs,
        thickness_pde=T + thickness_error,
        thickness_error=thickness_error,
        lower_bound=(3.0 * f_r + f_l) / (2.0 * f_r) * sqrt_a,
        upper_bound=2.0 * f_r / f_l * sqrt_a,
    )


def band_general_bound(L: float, f_l: float, f_r: float, m: float, a: float) -> float:
    """L2(Omega_L) envelope for the general band:

        2 sqrt(|Omega_L|)/T^2 * sqrt(a) + 2 sqrt(L/m) * exp(-m/sqrt(a))

    with |Omega_L| = L * T.  This is the acceptance envelope for the measured
    L2 error of 1/T^a - 1/T_bar from the 2D solver.
    """
    if not (0 < L < math.inf and m > 0 and 0 < a < math.inf):  # NaN fails too
        raise DomainError(f"need finite positive L and a, positive m; got {L}, {m}, {a}")
    if not -math.inf < f_l < f_r < math.inf:
        raise DomainError(f"need finite f_l < f_r, got {f_l}, {f_r}")
    T = f_r - f_l
    sqrt_a = math.sqrt(a)
    area = L * T
    return 2.0 * math.sqrt(area) / T**2 * sqrt_a + 2.0 * math.sqrt(L / m) * math.exp(-m / sqrt_a)


def annulus_general_bound(f_l: float, f_r: float, b_r: float, a: float) -> float:
    """L2(Omega) envelope for the annulus in a general domain:

        2 (f_r/f_l) sqrt(|Omega|)/T^2 * sqrt(a)
          + 2 sqrt(pi) sqrt(f_r/m) * exp(-m/sqrt(a))

    with |Omega| = pi (f_r^2 - f_l^2) and m = b_r - f_r.
    """
    if not (0 < f_l < f_r < b_r):
        raise DomainError(f"need 0 < f_l < f_r < b_r, got {f_l}, {f_r}, {b_r}")
    if not 0 < a < math.inf:  # NaN fails too
        raise DomainError(f"need a finite a > 0, got {a}")
    T = f_r - f_l
    m = b_r - f_r
    sqrt_a = math.sqrt(a)
    area = math.pi * (f_r**2 - f_l**2)
    return (
        2.0 * f_r / f_l * math.sqrt(area) / T**2 * sqrt_a
        + 2.0 * math.sqrt(math.pi) * math.sqrt(f_r / m) * math.exp(-m / sqrt_a)
    )


#: The closed-form solution of each family that has one, from ``(shape, a)``.
#: The lambdas look the constructors up at call time, so wrapping one wraps it here too.
CLOSED_FORMS = {
    Family.INTERVAL_WHOLE: lambda s, a: interval_whole(s.f_l, s.f_r, a),
    Family.INTERVAL_GENERAL: lambda s, a: interval_general(s.f_l, s.f_r, s.b_l, s.b_r, a),
    Family.BAND_WHOLE: lambda s, a: band_whole(s.f_l, s.f_r, a, s.L),
    Family.ANNULUS_WHOLE: lambda s, a: annulus_whole(s.f_l, s.f_r, a),
}

#: The theorem L2 envelope of each general 2D family, from ``(shape, a)``.
L2_ENVELOPES = {
    Family.BAND_GENERAL: lambda s, a: band_general_bound(s.L, s.f_l, s.f_r, s.margin, a),
    Family.ANNULUS_GENERAL: lambda s, a: annulus_general_bound(s.f_l, s.f_r, s.b_r, a),
}


def general_bound(shape: ShapeSpec, a: float) -> float:
    """Theorem L2 envelope for a general band/annulus shape."""
    if shape.family not in L2_ENVELOPES:
        raise DomainError(f"no L2 envelope for family {shape.family}")
    return L2_ENVELOPES[shape.family](shape, a)


def solve_family(shape: ShapeSpec, a: float) -> AnalyticSolution:
    """Closed-form solution for any family that has one."""
    if shape.family not in CLOSED_FORMS:
        raise DomainError(f"family {shape.family} has no closed-form solution, only bounds")
    return CLOSED_FORMS[shape.family](shape, a)


def _sinh_over_cosh(xi: float, alpha: float) -> float:
    # sinh(xi)/cosh(alpha) for 0 <= xi <= alpha without overflow
    return math.exp(xi - alpha) * (1.0 - math.exp(-2.0 * xi)) / (1.0 + math.exp(-2.0 * alpha))


def _eval_interval_scalar(sol: AnalyticSolution, x: float) -> float:
    shape = sol.shape
    sqrt_a = math.sqrt(sol.a)
    c = sol.coefficients
    if shape.family in (Family.INTERVAL_WHOLE, Family.BAND_WHOLE):
        if x <= shape.f_l:
            return c["amp_left"] * math.exp((x - shape.f_l) / sqrt_a)
        if x >= shape.f_r:
            return c["amp_right"] * math.exp(-(x - shape.f_r) / sqrt_a)
        return c["slope"] * (x - 0.5 * (shape.f_l + shape.f_r))
    # general interval: -C_l sinh((x-b_l)/sqrt(a)) on the left void, the
    # mirrored expression on the right, linear in between
    if x < shape.b_l or x > shape.b_r:
        raise DomainError(f"point {x} outside the domain [{shape.b_l}, {shape.b_r}]")
    k = shape.thickness / sqrt_a
    denom = c["tanh_alpha"] + c["tanh_beta"] + k
    if x <= shape.f_l:
        xi = (x - shape.b_l) / sqrt_a
        return -(k / (sqrt_a * denom)) * _sinh_over_cosh(xi, c["alpha"])
    if x >= shape.f_r:
        xi = (shape.b_r - x) / sqrt_a
        return (k / (sqrt_a * denom)) * _sinh_over_cosh(xi, c["beta"])
    return c["amp_left"] + c["slope"] * (x - shape.f_l)


def _eval_annulus_scalar(sol: AnalyticSolution, r: float) -> float:
    shape = sol.shape
    if r < 0:
        raise DomainError(f"radius must be nonnegative, got {r}")
    sqrt_a = math.sqrt(sol.a)
    c = sol.coefficients
    if r == 0.0:
        return 0.0
    if r <= shape.f_l:
        # C I_1(r/sqrt(a)) = inner_amp_scaled * exp((r - f_l)/sqrt(a)) * i1_scaled
        return c["inner_amp_scaled"] * math.exp((r - shape.f_l) / sqrt_a) * bessel.i1_scaled(
            r / sqrt_a
        )
    if r >= shape.f_r:
        return c["outer_amp_scaled"] * math.exp(-(r - shape.f_r) / sqrt_a) * bessel.k1_scaled(
            r / sqrt_a
        )
    return c["mid_linear"] * r + c["mid_reciprocal"] / r


def eval_solution(sol: AnalyticSolution, t: float) -> float:
    """Evaluate the piecewise scalar closed form at ``t``.

    ``t`` is the 1D coordinate (intervals), the cross coordinate y (bands) or
    the radius (annuli).
    """
    if sol.shape.family.kind == "annulus":
        return _eval_annulus_scalar(sol, float(t))
    return _eval_interval_scalar(sol, float(t))


def profile(sol: AnalyticSolution, coords: np.ndarray) -> np.ndarray:
    """The scalar closed form at every entry of ``coords``, shaped like it.

    Each distinct coordinate is evaluated once by :func:`eval_solution`, so
    every entry gets the bits of its own scalar call.
    """
    coords = np.asarray(coords, dtype=float)
    distinct, inverse = np.unique(coords.ravel(), return_inverse=True)
    values = np.array([eval_solution(sol, t) for t in distinct.tolist()])
    return values[inverse].reshape(coords.shape)

"""Scaled modified Bessel functions of orders 0 and 1.

The canonical stored form is overflow-free:

    i_n_scaled(x) = exp(-x) * I_n(x)      (bounded by 1)
    k_n_scaled(x) = exp(+x) * K_n(x)      (decays like sqrt(pi/2x))

Raw ``I_n`` overflows double precision near ``x = 713`` and raw ``K_n``
underflows around the same point, while the thickness formulas need arguments
as large as ``f/sqrt(a) ~ 1e6``.  Every product ``I_m(x_l) K_n(x_r)`` that
enters those formulas carries the common factor ``exp(x_l - x_r)``, which the
callers cancel analytically, so only the scaled carriers are ever evaluated.

Branches:

  * ``I_n``, ``x <= I_SERIES_CUTOFF``: ascending power series (all terms
    positive, no cancellation), then multiplied by ``exp(-x)``.
  * ``K_n``, ``x <= K_SERIES_CUTOFF``: ascending series with the logarithmic
    term.  The cutoff sits at 2, not 8: at ``x = 8`` the log series cancels
    about seven digits, which would blow the 1e-12 accuracy budget.
  * Above the cutoffs: Chebyshev expansions of ``sqrt(x) * scaled(x)`` in the
    reciprocal variable (tables in :mod:`pdethick._bessel_tables`, accurate to
    below 1e-14 over the whole branch).

All functions are pure and touch no shared state; they are safe to call from
any number of threads concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from ._bessel_tables import (
    I0_TAIL,
    I1_TAIL,
    I_TAIL_SCALE,
    K0_TAIL,
    K1_TAIL,
    K_TAIL_SCALE,
)
from .errors import DomainError

#: Series / Chebyshev-tail crossover for the I functions.
I_SERIES_CUTOFF = 8.0
#: Series / Chebyshev-tail crossover for the K functions.
K_SERIES_CUTOFF = 2.0

_EULER_GAMMA = 0.5772156649015328606


class BesselKind(str, Enum):
    I = "I"
    K = "K"


def _chebyshev(coeffs, w: float) -> float:
    # Clenshaw recurrence; coeffs[0] is stored doubled.
    b0 = 0.0
    b1 = 0.0
    for c in reversed(coeffs[1:]):
        b0, b1 = c + 2.0 * w * b0 - b1, b0
    return 0.5 * coeffs[0] + w * b0 - b1


def _i_series(order: int, x: float) -> float:
    # sum_m (x/2)^(2m+order) / (m! (m+order)!), x <= 8 so all is well scaled
    half = 0.5 * x
    term = 1.0 if order == 0 else half
    if term == 0.0:
        return 0.0
    total = term
    q = half * half
    m = 0
    while True:
        m += 1
        term *= q / (m * (m + order))
        total += term
        if term <= 1e-17 * total:
            return total


def i0_scaled(x: float) -> float:
    """exp(-x) I_0(x) for x >= 0."""
    if x < 0:
        raise DomainError(f"negative argument {x}")
    if x <= I_SERIES_CUTOFF:
        return math.exp(-x) * _i_series(0, x)
    return _chebyshev(I0_TAIL, I_TAIL_SCALE / x - 1.0) / math.sqrt(x)


def i1_scaled(x: float) -> float:
    """exp(-x) I_1(x) for x >= 0."""
    if x < 0:
        raise DomainError(f"negative argument {x}")
    if x <= I_SERIES_CUTOFF:
        return math.exp(-x) * _i_series(1, x)
    return _chebyshev(I1_TAIL, I_TAIL_SCALE / x - 1.0) / math.sqrt(x)


def k0_scaled(x: float) -> float:
    """exp(x) K_0(x) for x > 0."""
    if x <= 0:
        raise DomainError(f"K_0 needs x > 0, got {x}")
    if x > K_SERIES_CUTOFF:
        return _chebyshev(K0_TAIL, K_TAIL_SCALE / x - 1.0) / math.sqrt(x)
    # K_0 = -(log(x/2) + gamma) I_0 + sum_{m>=1} H_m (x^2/4)^m / (m!)^2
    t = 0.25 * x * x
    term = 1.0
    i0 = 1.0
    hsum = 0.0
    harmonic = 0.0
    m = 0
    while True:
        m += 1
        term *= t / (m * m)
        harmonic += 1.0 / m
        i0 += term
        hsum += term * harmonic
        if term * (harmonic + 1.0) <= 1e-17 * i0:
            break
    return math.exp(x) * (-(math.log(0.5 * x) + _EULER_GAMMA) * i0 + hsum)


def k1_scaled(x: float) -> float:
    """exp(x) K_1(x) for x > 0."""
    if x <= 0:
        raise DomainError(f"K_1 needs x > 0, got {x}")
    if x > K_SERIES_CUTOFF:
        return _chebyshev(K1_TAIL, K_TAIL_SCALE / x - 1.0) / math.sqrt(x)
    # K_1 = 1/x + log(x/2) I_1 - (x/4) sum_m (H_m + H_{m+1} - 2 gamma) t^m / (m!(m+1)!)
    t = 0.25 * x * x
    i1_term = 0.5 * x
    i1 = i1_term
    s_term = 1.0
    h_m = 0.0
    h_m1 = 1.0
    csum = s_term * (h_m + h_m1 - 2.0 * _EULER_GAMMA)
    m = 0
    while True:
        m += 1
        s_term *= t / (m * (m + 1))
        i1_term *= t / (m * (m + 1))
        h_m += 1.0 / m
        h_m1 += 1.0 / (m + 1)
        i1 += i1_term
        csum += s_term * (h_m + h_m1 - 2.0 * _EULER_GAMMA)
        if s_term * (h_m + h_m1 + 2.0) <= 1e-17 and i1_term <= 1e-17 * i1:
            break
    return math.exp(x) * (1.0 / x + math.log(0.5 * x) * i1 - 0.25 * x * csum)


_DISPATCH = {
    (BesselKind.I, 0): i0_scaled,
    (BesselKind.I, 1): i1_scaled,
    (BesselKind.K, 0): k0_scaled,
    (BesselKind.K, 1): k1_scaled,
}


def bessel_scaled(kind: BesselKind | str, order: int, x: float) -> float:
    """Scaled modified Bessel value: exp(-x) I_n(x) or exp(x) K_n(x).

    ``x = 0`` is accepted for kind I only; negative arguments and
    nonpositive arguments for kind K raise :class:`DomainError`.
    """
    kind = BesselKind(kind)
    if order not in (0, 1):
        raise DomainError(f"order must be 0 or 1, got {order}")
    return _DISPATCH[(kind, order)](float(x))


@dataclass(frozen=True)
class ScaledBessel:
    """A scaled modified Bessel value together with its provenance."""

    kind: BesselKind
    order: int
    argument: float
    scaled_value: float

    @classmethod
    def compute(cls, kind: BesselKind | str, order: int, x: float) -> "ScaledBessel":
        kind = BesselKind(kind)
        return cls(kind, order, float(x), bessel_scaled(kind, order, x))

    def unscaled(self) -> float:
        """Raw I_n(x) or K_n(x).

        Overflows (I, large x) or underflows (K, large x) outside roughly
        |x| < 700; use the scaled value and cancel exponents analytically
        instead wherever possible.
        """
        if self.kind == BesselKind.I:
            return self.scaled_value * math.exp(self.argument)
        return self.scaled_value * math.exp(-self.argument)


def k_ratio_lower_bound(x: float) -> float:
    """Lower envelope for K_0(x)/K_1(x): x / (1/2 + sqrt(1/4 + x^2))."""
    return x / (0.5 + math.sqrt(0.25 + x * x))


def i_ratio_upper_bound(x: float) -> float:
    """Upper envelope for I_0(x)/I_1(x): (1/2 + sqrt(9/4 + x^2)) / x."""
    return (0.5 + math.sqrt(2.25 + x * x)) / x


#: Step factor of the discrete monotonicity probe for sqrt(x) exp(x) K_1(x).
K1_DECAY_PROBE_STEP = 1.01


@dataclass(frozen=True)
class RatioChecks:
    k_lower_holds: bool
    i_upper_holds: bool
    k1_decay_holds: bool

    def all_hold(self) -> bool:
        return self.k_lower_holds and self.i_upper_holds and self.k1_decay_holds


def ratio_deficits(x: float) -> tuple:
    """How far each ratio property misses at ``x``; each holds where its deficit is <= 0.

    All ratios are formed from scaled values so the exponential factors
    cancel exactly.  In order:

      * K_0(x)/K_1(x) >= x / (1/2 + sqrt(1/4 + x^2))
      * I_0(x)/I_1(x) <= (1/2 + sqrt(9/4 + x^2)) / x
      * sqrt(y) e^y K_1(y) <= sqrt(x) e^x K_1(x) at y = 1.01 x
        (discrete probe of the decay of sqrt(x) e^x K_1).
    """
    k1 = k1_scaled(x)
    y = K1_DECAY_PROBE_STEP * x
    return (
        k_ratio_lower_bound(x) - k0_scaled(x) / k1,
        i0_scaled(x) / i1_scaled(x) - i_ratio_upper_bound(x),
        math.sqrt(y) * k1_scaled(y) - math.sqrt(x) * k1,
    )


def check_ratio_inequalities(x: float) -> RatioChecks:
    """Check the three ratio/monotonicity properties of :func:`ratio_deficits` at one argument."""
    if x <= 0:
        raise DomainError(f"need x > 0, got {x}")
    return RatioChecks(*(d <= 0 for d in ratio_deficits(x)))
